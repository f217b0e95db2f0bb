//! Per-second workload traces.
//!
//! A [`LoadTrace`] stores the application load (in application-metric
//! units, e.g. requests per second) for every second of an experiment —
//! the same granularity as the paper's simulator, which slides its
//! prediction window "one time step forwards, a second in this case".

/// Seconds per day, the paper's Fig. 5 aggregation unit.
pub const SECONDS_PER_DAY: u64 = 86_400;

/// A per-second load trace.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadTrace {
    /// Label of the first day in the trace (the paper's World Cup slice
    /// starts at day 6).
    pub first_day: u32,
    /// One load value per second.
    pub rates: Vec<f64>,
}

impl LoadTrace {
    /// Build a trace from raw per-second rates.
    pub fn new(first_day: u32, rates: Vec<f64>) -> Self {
        LoadTrace { first_day, rates }
    }

    /// Number of seconds covered.
    pub fn len(&self) -> u64 {
        self.rates.len() as u64
    }

    /// `true` if the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Load at second `t` (0 outside the trace).
    #[inline]
    pub fn get(&self, t: u64) -> f64 {
        self.rates.get(t as usize).copied().unwrap_or(0.0)
    }

    /// End (exclusive) of the maximal constant-load run containing
    /// second `t` — the raw-load sub-segment boundary the event-driven
    /// replay batches power/QoS accounting over. `t` past the end of the
    /// trace returns `len()`.
    #[inline]
    pub fn run_end(&self, t: u64) -> u64 {
        crate::segments::run_end(&self.rates, t)
    }

    /// Iterate the maximal runs of constant load.
    pub fn constant_runs(&self) -> crate::segments::ConstantRuns<'_> {
        crate::segments::constant_runs(&self.rates)
    }

    /// Maximum load over the whole trace.
    pub fn max(&self) -> f64 {
        self.rates.iter().copied().fold(0.0, f64::max)
    }

    /// Mean load over the whole trace (0 for an empty trace).
    pub fn mean(&self) -> f64 {
        if self.rates.is_empty() {
            0.0
        } else {
            self.rates.iter().sum::<f64>() / self.rates.len() as f64
        }
    }

    /// Number of complete or partial days covered.
    pub fn n_days(&self) -> u32 {
        self.rates.len().div_ceil(SECONDS_PER_DAY as usize) as u32
    }

    /// The rates of day `i` (0-based within the trace; day label is
    /// `first_day + i`). Empty slice when out of range.
    pub fn day(&self, i: u32) -> &[f64] {
        let start = (i as usize) * SECONDS_PER_DAY as usize;
        let end = (start + SECONDS_PER_DAY as usize).min(self.rates.len());
        if start >= self.rates.len() {
            &[]
        } else {
            &self.rates[start..end]
        }
    }

    /// Daily maximum loads, one entry per day — the dimensioning input of
    /// the paper's `UpperBound PerDay` scenario.
    pub fn daily_max(&self) -> Vec<f64> {
        (0..self.n_days())
            .map(|d| self.day(d).iter().copied().fold(0.0, f64::max))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> LoadTrace {
        LoadTrace::new(6, vec![1.0, 5.0, 3.0, 9.0, 2.0])
    }

    #[test]
    fn basic_accessors() {
        let t = trace();
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.get(3), 9.0);
        assert_eq!(t.get(99), 0.0);
        assert_eq!(t.max(), 9.0);
        assert!((t.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn day_slicing() {
        let mut rates = vec![1.0; SECONDS_PER_DAY as usize];
        rates.extend(vec![2.0; 100]);
        let t = LoadTrace::new(6, rates);
        assert_eq!(t.n_days(), 2);
        assert_eq!(t.day(0).len(), SECONDS_PER_DAY as usize);
        assert_eq!(t.day(1).len(), 100);
        assert!(t.day(2).is_empty());
        assert_eq!(t.daily_max(), vec![1.0, 2.0]);
    }

    #[test]
    fn empty_trace() {
        let t = LoadTrace::new(0, vec![]);
        assert!(t.is_empty());
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max(), 0.0);
        assert_eq!(t.n_days(), 0);
        assert!(t.daily_max().is_empty());
    }
}
