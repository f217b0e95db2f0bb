//! Energy accounting: a running meter with per-day aggregation (the
//! Fig. 5 unit) and the per-day overhead statistics the paper quotes.

use bml_trace::SECONDS_PER_DAY;

/// Running energy meter: feed it power samples, read total/interval
/// energies. This is the simulator-facing equivalent of the paper's
/// wattmeter + Kwapi pipeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyMeter {
    total_j: f64,
    samples: u64,
    /// Optional per-day accumulation.
    daily_j: Vec<f64>,
}

impl EnergyMeter {
    /// Fresh meter.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Record one second at `power_w` Watts.
    pub fn record(&mut self, power_w: f64) {
        self.accumulate_span(power_w, 1);
    }

    /// Record `secs` consecutive seconds at a constant `power_w` Watts in
    /// O(days touched) instead of O(secs): the batched-accumulation API
    /// of the event-driven replay engine, where a flat stretch costs one
    /// update instead of one per second. Spans crossing day boundaries
    /// are split so per-day energies stay exact.
    pub fn accumulate_span(&mut self, power_w: f64, secs: u64) {
        debug_assert!(power_w >= 0.0, "power cannot be negative");
        let mut remaining = secs;
        while remaining > 0 {
            let day = (self.samples / SECONDS_PER_DAY) as usize;
            let left_in_day = SECONDS_PER_DAY - self.samples % SECONDS_PER_DAY;
            let chunk = remaining.min(left_in_day);
            let energy = power_w * chunk as f64;
            if self.daily_j.len() <= day {
                self.daily_j.resize(day + 1, 0.0);
            }
            self.daily_j[day] += energy;
            self.total_j += energy;
            self.samples += chunk;
            remaining -= chunk;
        }
    }

    /// Add a lump of energy (J) — e.g. a reconfiguration overhead — to the
    /// current day without advancing time.
    pub fn add_energy(&mut self, joules: f64) {
        debug_assert!(joules >= 0.0);
        self.total_j += joules;
        let day = (self.samples.saturating_sub(1) / SECONDS_PER_DAY) as usize;
        if self.daily_j.len() <= day {
            self.daily_j.resize(day + 1, 0.0);
        }
        self.daily_j[day] += joules;
    }

    /// Total energy recorded (J).
    pub fn total_joules(&self) -> f64 {
        self.total_j
    }

    /// Per-day energies (J).
    pub fn daily_joules(&self) -> &[f64] {
        &self.daily_j
    }

    /// Consume the meter and take the per-day energies without copying —
    /// for result structs that outlive the meter (read totals first).
    pub fn into_daily_joules(self) -> Vec<f64> {
        self.daily_j
    }

    /// Seconds recorded.
    pub fn seconds(&self) -> u64 {
        self.samples
    }

    /// Mean power over the recorded interval (W); 0 if nothing recorded.
    pub fn mean_power(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total_j / self.samples as f64
        }
    }
}

/// Relative overhead of `measured` vs `reference` in percent:
/// `100 * (measured - reference) / reference`. This is how the paper
/// reports BML against the theoretical lower bound ("it consumes 32% more
/// energy than the lower bound").
pub fn overhead_percent(measured: f64, reference: f64) -> f64 {
    assert!(reference > 0.0, "reference must be positive");
    100.0 * (measured - reference) / reference
}

/// Summary statistics of a per-day overhead series (the paper quotes
/// average / minimum / maximum over the 86 days).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadStats {
    /// Mean overhead (%).
    pub mean: f64,
    /// Minimum overhead (%).
    pub min: f64,
    /// Maximum overhead (%).
    pub max: f64,
}

/// Per-day overhead statistics of `measured` vs `reference` (both J/day).
///
/// Days whose reference energy is zero (e.g. a day with no load at all,
/// where the lower bound powers nothing) carry no meaningful relative
/// overhead and are skipped; if *every* day is like that, all statistics
/// are zero.
pub fn overhead_stats(measured: &[f64], reference: &[f64]) -> OverheadStats {
    assert_eq!(measured.len(), reference.len());
    let overheads: Vec<f64> = measured
        .iter()
        .zip(reference)
        .filter(|&(_, &r)| r > 0.0)
        .map(|(&m, &r)| overhead_percent(m, r))
        .collect();
    if overheads.is_empty() {
        return OverheadStats {
            mean: 0.0,
            min: 0.0,
            max: 0.0,
        };
    }
    OverheadStats {
        mean: overheads.iter().sum::<f64>() / overheads.len() as f64,
        min: overheads.iter().copied().fold(f64::INFINITY, f64::min),
        max: overheads.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates() {
        let mut m = EnergyMeter::new();
        for _ in 0..10 {
            m.record(5.0);
        }
        assert_eq!(m.total_joules(), 50.0);
        assert_eq!(m.seconds(), 10);
        assert_eq!(m.mean_power(), 5.0);
        assert_eq!(m.daily_joules(), &[50.0]);
    }

    #[test]
    fn meter_day_boundaries() {
        let mut m = EnergyMeter::new();
        for _ in 0..SECONDS_PER_DAY + 10 {
            m.record(1.0);
        }
        assert_eq!(m.daily_joules().len(), 2);
        assert_eq!(m.daily_joules()[0], SECONDS_PER_DAY as f64);
        assert_eq!(m.daily_joules()[1], 10.0);
    }

    #[test]
    fn span_accumulation_splits_day_boundaries() {
        // A span straddling two day boundaries lands in three day bins.
        let mut m = EnergyMeter::new();
        m.accumulate_span(2.0, SECONDS_PER_DAY / 2); // half of day 0
        m.accumulate_span(1.0, 2 * SECONDS_PER_DAY); // rest of day 0, day 1, half of day 2
        assert_eq!(m.daily_joules().len(), 3);
        assert_eq!(
            m.daily_joules()[0],
            SECONDS_PER_DAY as f64 / 2.0 * 2.0 + SECONDS_PER_DAY as f64 / 2.0
        );
        assert_eq!(m.daily_joules()[1], SECONDS_PER_DAY as f64);
        assert_eq!(m.daily_joules()[2], SECONDS_PER_DAY as f64 / 2.0);
        assert_eq!(m.seconds(), SECONDS_PER_DAY / 2 + 2 * SECONDS_PER_DAY);
        let daily: f64 = m.daily_joules().iter().sum();
        assert!((daily - m.total_joules()).abs() < 1e-9);
    }

    #[test]
    fn span_of_one_is_record() {
        let mut a = EnergyMeter::new();
        let mut b = EnergyMeter::new();
        for w in [3.25, 0.0, 7.5] {
            a.record(w);
            b.accumulate_span(w, 1);
        }
        assert_eq!(a, b);
        // Zero-length spans are no-ops.
        b.accumulate_span(100.0, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn into_daily_joules_moves_the_bins() {
        let mut m = EnergyMeter::new();
        m.record(4.0);
        m.record(6.0);
        assert_eq!(m.into_daily_joules(), vec![10.0]);
    }

    #[test]
    fn meter_lump_energy_lands_on_current_day() {
        let mut m = EnergyMeter::new();
        m.record(1.0);
        m.add_energy(100.0);
        assert_eq!(m.total_joules(), 101.0);
        assert_eq!(m.daily_joules(), &[101.0]);
        assert_eq!(m.seconds(), 1);
    }

    #[test]
    fn meter_empty() {
        let m = EnergyMeter::new();
        assert_eq!(m.mean_power(), 0.0);
        assert_eq!(m.total_joules(), 0.0);
    }

    #[test]
    fn overhead_percent_matches_paper_convention() {
        // 132 J vs 100 J reference = +32%.
        assert!((overhead_percent(132.0, 100.0) - 32.0).abs() < 1e-12);
        assert!((overhead_percent(100.0, 100.0)).abs() < 1e-12);
        assert!(overhead_percent(90.0, 100.0) < 0.0);
    }

    #[test]
    fn overhead_stats_mean_min_max() {
        let s = overhead_stats(&[110.0, 150.0, 120.0], &[100.0, 100.0, 100.0]);
        assert!((s.mean - (10.0 + 50.0 + 20.0) / 3.0).abs() < 1e-9);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 50.0);
    }

    #[test]
    fn overhead_stats_skips_zero_reference_days() {
        let s = overhead_stats(&[110.0, 5.0, 120.0], &[100.0, 0.0, 100.0]);
        assert!((s.mean - 15.0).abs() < 1e-9);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 20.0);
        // All-zero reference: no meaningful overhead.
        let s = overhead_stats(&[1.0], &[0.0]);
        assert_eq!(
            s,
            OverheadStats {
                mean: 0.0,
                min: 0.0,
                max: 0.0
            }
        );
    }

    #[test]
    #[should_panic(expected = "reference")]
    fn overhead_rejects_zero_reference() {
        let _ = overhead_percent(1.0, 0.0);
    }
}
