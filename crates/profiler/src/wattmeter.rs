//! The wattmeter model: 1 Hz power sampling with measurement noise.
//!
//! The paper measures the ARM boards with a WattsUp?Pro and the Grid'5000
//! servers through the Kwapi monitoring pipeline (Sec. V-A). Both sample
//! around 1 Hz with a small relative error; we model a configurable
//! relative gaussian noise (default 1%) plus quantization to 0.1 W, the
//! WattsUp?Pro display resolution.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sampling wattmeter.
#[derive(Debug, Clone)]
pub struct Wattmeter {
    rng: StdRng,
    /// Relative gaussian noise std-dev (e.g. 0.01 = 1%).
    pub noise: f64,
    /// Quantization step in Watts (0 disables quantization).
    pub resolution_w: f64,
}

impl Wattmeter {
    /// Meter with the default 1% noise and 0.1 W resolution.
    pub fn new(seed: u64) -> Self {
        Wattmeter {
            rng: StdRng::seed_from_u64(seed),
            noise: 0.01,
            resolution_w: 0.1,
        }
    }

    /// Noise-free, full-resolution meter (for calibration tests).
    pub fn ideal(seed: u64) -> Self {
        Wattmeter {
            rng: StdRng::seed_from_u64(seed),
            noise: 0.0,
            resolution_w: 0.0,
        }
    }

    /// One truncated gaussian (Box-Muller, clamped to 3 sigma).
    fn gaussian(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        bml_core::rng::box_muller(u1, u2).clamp(-3.0, 3.0)
    }

    /// Sample a single instantaneous power value (W).
    pub fn sample(&mut self, true_power_w: f64) -> f64 {
        let noisy = true_power_w * (1.0 + self.gaussian() * self.noise);
        let clamped = noisy.max(0.0);
        if self.resolution_w > 0.0 {
            (clamped / self.resolution_w).round() * self.resolution_w
        } else {
            clamped
        }
    }

    /// Sample a power trace at 1 Hz for `seconds`, where `truth(t)` gives
    /// the true power at second `t`.
    pub fn trace(&mut self, seconds: u64, truth: impl Fn(f64) -> f64) -> Vec<f64> {
        (0..seconds).map(|t| self.sample(truth(t as f64))).collect()
    }

    /// Mean of a measured trace (W).
    pub fn mean(samples: &[f64]) -> f64 {
        if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_meter_is_exact_up_to_resolution() {
        let mut m = Wattmeter::ideal(1);
        assert_eq!(m.sample(123.456), 123.456);
    }

    #[test]
    fn quantization_applies() {
        let mut m = Wattmeter::new(1);
        m.noise = 0.0;
        assert!((m.sample(123.456) - 123.5).abs() < 1e-9);
        assert!((m.sample(3.16) - 3.2).abs() < 1e-9);
    }

    #[test]
    fn noise_is_small_and_unbiased() {
        let mut m = Wattmeter::new(42);
        let samples = m.trace(20_000, |_| 100.0);
        let mean = Wattmeter::mean(&samples);
        assert!((mean - 100.0).abs() < 0.5, "mean {mean}");
        for &s in &samples {
            assert!(
                (95.0..=105.0).contains(&s),
                "sample {s} outside 3 sigma + quantum"
            );
        }
    }

    #[test]
    fn zero_power_reads_zero() {
        let mut m = Wattmeter::new(3);
        assert_eq!(m.sample(0.0), 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = Wattmeter::new(9);
        let mut b = Wattmeter::new(9);
        assert_eq!(a.trace(100, |_| 50.0), b.trace(100, |_| 50.0));
    }

    #[test]
    fn trace_length_and_time_argument() {
        let mut m = Wattmeter::ideal(0);
        let tr = m.trace(5, |t| t * 10.0);
        assert_eq!(tr, vec![0.0, 10.0, 20.0, 30.0, 40.0]);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(Wattmeter::mean(&[]), 0.0);
    }
}
