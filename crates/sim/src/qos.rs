//! QoS accounting: per-second demand-vs-served bookkeeping, so every
//! scenario reports whether it "satisfied Quality of Service constraints"
//! (paper abstract) alongside its energy.

/// Aggregated QoS outcome of one simulated scenario.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QosReport {
    /// Seconds with non-zero demand.
    pub demand_seconds: u64,
    /// Seconds where served < demand (beyond rounding).
    pub violation_seconds: u64,
    /// Sum of demanded load over the run (metric units x s).
    pub total_demand: f64,
    /// Sum of served load over the run.
    pub total_served: f64,
    /// Largest single-second shortfall fraction observed, in `[0, 1]`.
    pub worst_shortfall: f64,
}

impl QosReport {
    /// Record one second of `demand` against `served`. Negative demand is
    /// treated as zero.
    pub fn record(&mut self, demand: f64, served: f64) {
        self.record_span(demand, served, 1);
    }

    /// Record `secs` consecutive seconds of identical `demand` vs `served`
    /// in O(1) — the span-wise violation counting of the event-driven
    /// replay engine, which batches accounting over maximal runs of
    /// constant load and cluster state.
    pub fn record_span(&mut self, demand: f64, served: f64, secs: u64) {
        if demand <= 0.0 || secs == 0 {
            return;
        }
        debug_assert!(served <= demand + 1e-9, "cannot serve more than demanded");
        self.demand_seconds += secs;
        self.total_demand += demand * secs as f64;
        self.total_served += served.min(demand) * secs as f64;
        let shortfall = ((demand - served) / demand).clamp(0.0, 1.0);
        if shortfall > 1e-9 {
            self.violation_seconds += secs;
            if shortfall > self.worst_shortfall {
                self.worst_shortfall = shortfall;
            }
        }
    }

    /// Overall fraction of demand that went unserved, in `[0, 1]`.
    pub fn shortfall_fraction(&self) -> f64 {
        if self.total_demand <= 0.0 {
            0.0
        } else {
            ((self.total_demand - self.total_served) / self.total_demand).clamp(0.0, 1.0)
        }
    }

    /// Fraction of demand seconds that violated QoS.
    pub fn violation_fraction(&self) -> f64 {
        if self.demand_seconds == 0 {
            0.0
        } else {
            self.violation_seconds as f64 / self.demand_seconds as f64
        }
    }

    /// Does this run satisfy a tolerated shortfall of `max_shortfall`
    /// (e.g. 0.01, the 1% the paper's stateless web server tolerates)?
    pub fn satisfies(&self, max_shortfall: f64) -> bool {
        self.shortfall_fraction() <= max_shortfall + 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_service() {
        let mut q = QosReport::default();
        for _ in 0..100 {
            q.record(50.0, 50.0);
        }
        assert_eq!(q.demand_seconds, 100);
        assert_eq!(q.violation_seconds, 0);
        assert_eq!(q.shortfall_fraction(), 0.0);
        assert_eq!(q.worst_shortfall, 0.0);
        assert!(q.satisfies(0.0));
    }

    #[test]
    fn shortfall_tracked() {
        let mut q = QosReport::default();
        q.record(100.0, 90.0);
        q.record(100.0, 100.0);
        assert_eq!(q.violation_seconds, 1);
        assert!((q.shortfall_fraction() - 10.0 / 200.0).abs() < 1e-12);
        assert!((q.worst_shortfall - 0.1).abs() < 1e-12);
        assert!(q.satisfies(0.06));
        assert!(!q.satisfies(0.01));
    }

    #[test]
    fn zero_demand_ignored() {
        let mut q = QosReport::default();
        q.record(0.0, 0.0);
        q.record(-5.0, 0.0);
        assert_eq!(q.demand_seconds, 0);
        assert_eq!(q.violation_fraction(), 0.0);
        assert_eq!(q.shortfall_fraction(), 0.0);
    }

    #[test]
    fn span_counts_match_per_second_counters() {
        let mut per_second = QosReport::default();
        let mut span = QosReport::default();
        for _ in 0..37 {
            per_second.record(80.0, 60.0);
        }
        span.record_span(80.0, 60.0, 37);
        assert_eq!(per_second.demand_seconds, span.demand_seconds);
        assert_eq!(per_second.violation_seconds, span.violation_seconds);
        assert_eq!(per_second.worst_shortfall, span.worst_shortfall);
        assert!((per_second.total_demand - span.total_demand).abs() < 1e-9);
        assert!((per_second.total_served - span.total_served).abs() < 1e-9);
        // Zero-demand and zero-length spans are no-ops.
        span.record_span(0.0, 0.0, 100);
        span.record_span(50.0, 50.0, 0);
        assert_eq!(span.demand_seconds, 37);
    }

    #[test]
    fn violation_fraction() {
        let mut q = QosReport::default();
        q.record(10.0, 0.0);
        q.record(10.0, 10.0);
        q.record(10.0, 5.0);
        q.record(10.0, 10.0);
        assert_eq!(q.violation_fraction(), 0.5);
        assert_eq!(q.worst_shortfall, 1.0);
    }
}
