//! Synthetic load generators for testing and domain examples.
//!
//! These produce the kinds of variable loads the paper's introduction
//! motivates: diurnal web traffic, flash crowds, bursty enterprise
//! services. All generators are deterministic given their seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::LoadTrace;

/// Constant load, useful as a baseline and in tests.
pub fn constant(rate: f64, seconds: u64) -> LoadTrace {
    LoadTrace::new(0, vec![rate.max(0.0); seconds as usize])
}

/// Diurnal sinusoid: daily cycle between `min_rate` and `max_rate`, with
/// the trough at `trough_hour` (0-23). One sample per second.
pub fn diurnal(min_rate: f64, max_rate: f64, trough_hour: f64, days: u32) -> LoadTrace {
    let n = days as usize * 86_400;
    let mut rates = Vec::with_capacity(n);
    let amplitude = (max_rate - min_rate) / 2.0;
    let mid = min_rate + amplitude;
    for t in 0..n {
        let hour = (t % 86_400) as f64 / 3_600.0;
        // Cosine with minimum at `trough_hour`.
        let phase = (hour - trough_hour) / 24.0 * std::f64::consts::TAU;
        rates.push((mid - amplitude * phase.cos()).max(0.0));
    }
    LoadTrace::new(0, rates)
}

/// Square-wave bursts: `low` load with periodic plateaus at `high`.
pub fn square_bursts(low: f64, high: f64, period_s: u64, burst_s: u64, seconds: u64) -> LoadTrace {
    assert!(period_s > 0 && burst_s <= period_s);
    let rates = (0..seconds)
        .map(|t| if t % period_s < burst_s { high } else { low })
        .collect();
    LoadTrace::new(0, rates)
}

/// A flash crowd: baseline load, then a sudden spike at `onset_s` that
/// ramps to `peak` within `ramp_s` seconds and decays exponentially with
/// time constant `decay_s` — the classic slashdot/match-kickoff shape.
pub fn flash_crowd(
    baseline: f64,
    peak: f64,
    onset_s: u64,
    ramp_s: u64,
    decay_s: f64,
    seconds: u64,
) -> LoadTrace {
    let rates = (0..seconds)
        .map(|t| {
            if t < onset_s {
                baseline
            } else if t < onset_s + ramp_s {
                let frac = (t - onset_s) as f64 / ramp_s.max(1) as f64;
                baseline + (peak - baseline) * frac
            } else {
                let dt = (t - onset_s - ramp_s) as f64;
                baseline + (peak - baseline) * (-dt / decay_s.max(1.0)).exp()
            }
        })
        .collect();
    LoadTrace::new(0, rates)
}

/// Bounded random walk between `min_rate` and `max_rate`, step size drawn
/// uniformly from `[-max_step, max_step]` each second. Seeded and
/// deterministic.
pub fn random_walk(
    min_rate: f64,
    max_rate: f64,
    max_step: f64,
    seconds: u64,
    seed: u64,
) -> LoadTrace {
    assert!(max_rate >= min_rate);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cur = (min_rate + max_rate) / 2.0;
    let rates = (0..seconds)
        .map(|_| {
            let step: f64 = rng.gen_range(-max_step..=max_step);
            cur = (cur + step).clamp(min_rate, max_rate);
            cur
        })
        .collect();
    LoadTrace::new(0, rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_flat() {
        let t = constant(42.0, 100);
        assert_eq!(t.len(), 100);
        assert_eq!(t.max(), 42.0);
        assert!((t.mean() - 42.0).abs() < 1e-12);
    }

    #[test]
    fn constant_clamps_negative() {
        assert_eq!(constant(-5.0, 3).max(), 0.0);
    }

    #[test]
    fn diurnal_cycle_shape() {
        let t = diurnal(10.0, 100.0, 4.0, 1);
        assert_eq!(t.len(), 86_400);
        // Trough near 4 am.
        let at_4am = t.get(4 * 3_600);
        assert!((at_4am - 10.0).abs() < 0.1, "trough {at_4am}");
        // Peak near 4 pm (12 h later).
        let at_4pm = t.get(16 * 3_600);
        assert!((at_4pm - 100.0).abs() < 0.1, "peak {at_4pm}");
        assert!(t.max() <= 100.0 + 1e-9);
    }

    #[test]
    fn diurnal_repeats_daily() {
        let t = diurnal(5.0, 50.0, 3.0, 2);
        for s in (0..86_400).step_by(3_600) {
            assert!((t.get(s) - t.get(s + 86_400)).abs() < 1e-9);
        }
    }

    #[test]
    fn square_bursts_pattern() {
        let t = square_bursts(1.0, 10.0, 10, 3, 25);
        assert_eq!(t.get(0), 10.0);
        assert_eq!(t.get(2), 10.0);
        assert_eq!(t.get(3), 1.0);
        assert_eq!(t.get(10), 10.0);
        assert_eq!(t.get(14), 1.0);
    }

    #[test]
    fn flash_crowd_shape() {
        let t = flash_crowd(10.0, 1000.0, 100, 20, 60.0, 400);
        assert_eq!(t.get(50), 10.0);
        // Peak reached at onset + ramp.
        assert!((t.get(120) - 1000.0).abs() < 60.0);
        // Decays after the peak.
        assert!(t.get(200) < t.get(130));
        assert!(t.get(399) < 300.0);
        // Never below the baseline.
        for s in 0..400 {
            assert!(t.get(s) >= 10.0 - 1e-9);
        }
    }

    #[test]
    fn random_walk_bounded_and_deterministic() {
        let a = random_walk(5.0, 50.0, 2.0, 1000, 7);
        let b = random_walk(5.0, 50.0, 2.0, 1000, 7);
        assert_eq!(a, b);
        for &r in &a.rates {
            assert!((5.0..=50.0).contains(&r));
        }
        let c = random_walk(5.0, 50.0, 2.0, 1000, 8);
        assert_ne!(a, c);
    }
}
