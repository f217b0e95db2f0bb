//! The Siege-like closed-loop web benchmark (paper Sec. V-A).
//!
//! "We execute the benchmark with an increasing number of concurrent
//! clients in order to find the maximum request rate that can be
//! processed. Each test runs for 30 seconds and the maximum performance is
//! the average of 5 results." This module reproduces that protocol against
//! a [`SyntheticMachine`], measuring throughput with per-run sampling
//! noise and power through the [`Wattmeter`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::machine_model::SyntheticMachine;
use crate::wattmeter::Wattmeter;

/// Benchmark protocol parameters (defaults = the paper's).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkConfig {
    /// Duration of one run (paper: 30 s).
    pub run_seconds: u64,
    /// Repetitions averaged per concurrency level (paper: 5).
    pub repetitions: u32,
    /// Maximum concurrency as a multiple of the hardware's core count.
    pub max_concurrency_factor: u32,
    /// Relative throughput measurement noise per run (std-dev).
    pub throughput_noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BenchmarkConfig {
    fn default() -> Self {
        BenchmarkConfig {
            run_seconds: 30,
            repetitions: 5,
            max_concurrency_factor: 4,
            throughput_noise: 0.005,
            seed: 0xB113,
        }
    }
}

/// Result of one concurrency level: mean throughput and mean power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelResult {
    /// Concurrent clients offered.
    pub concurrency: u32,
    /// Mean requests/s over the repetitions.
    pub throughput_rps: f64,
    /// Mean power (W) over the repetitions while loaded.
    pub power_w: f64,
}

/// Full benchmark outcome: the per-level curve plus the derived maxima.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkResult {
    /// Measured throughput/power at each concurrency level.
    pub levels: Vec<LevelResult>,
    /// Maximum sustained request rate (the profile's `maxPerf`).
    pub max_perf_rps: f64,
    /// Mean power at the best level (the profile's `maxPower`).
    pub max_power_w: f64,
    /// Mean idle power measured before the ramp (the profile's
    /// `idlePower`).
    pub idle_power_w: f64,
}

/// One 30 s closed-loop run at fixed concurrency: returns (throughput,
/// mean measured power).
fn one_run(
    machine: &SyntheticMachine,
    concurrency: u32,
    cfg: &BenchmarkConfig,
    rng: &mut StdRng,
    meter: &mut Wattmeter,
) -> (f64, f64) {
    let true_tp = machine.throughput_rps(concurrency);
    // Per-run throughput jitter (network, scheduler, Siege's own sampling).
    let jitter: f64 = {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        bml_core::rng::box_muller(u1, u2).clamp(-3.0, 3.0)
    };
    let tp = (true_tp * (1.0 + jitter * cfg.throughput_noise)).max(0.0);
    let true_power = machine.power_at_rate(true_tp);
    let samples = meter.trace(cfg.run_seconds, |_| true_power);
    (tp, Wattmeter::mean(&samples))
}

/// Run the full paper protocol against one machine.
pub fn run_benchmark(machine: &SyntheticMachine, cfg: &BenchmarkConfig) -> BenchmarkResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut meter = Wattmeter::new(cfg.seed ^ 0x5EED);

    // Idle measurement first (machine on, no clients).
    let idle_samples = meter.trace(cfg.run_seconds, |_| machine.power_at_rate(0.0));
    let idle_power_w = Wattmeter::mean(&idle_samples);

    // Concurrency ramp: 1, 2, ..., up to factor x cores.
    let max_c = machine.cores * cfg.max_concurrency_factor;
    let mut levels = Vec::new();
    for c in 1..=max_c {
        let mut tps = Vec::with_capacity(cfg.repetitions as usize);
        let mut pws = Vec::with_capacity(cfg.repetitions as usize);
        for _ in 0..cfg.repetitions {
            let (tp, pw) = one_run(machine, c, cfg, &mut rng, &mut meter);
            tps.push(tp);
            pws.push(pw);
        }
        levels.push(LevelResult {
            concurrency: c,
            throughput_rps: tps.iter().sum::<f64>() / f64::from(cfg.repetitions),
            power_w: pws.iter().sum::<f64>() / f64::from(cfg.repetitions),
        });
    }
    let best = levels
        .iter()
        .copied()
        .max_by(|a, b| {
            a.throughput_rps
                .partial_cmp(&b.throughput_rps)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("at least one level");
    BenchmarkResult {
        levels,
        max_perf_rps: best.throughput_rps,
        max_power_w: best.power_w,
        idle_power_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine_model::paper_machines;

    #[test]
    fn benchmark_recovers_chromebook_profile() {
        let cb = paper_machines().remove(3);
        let r = run_benchmark(&cb, &BenchmarkConfig::default());
        assert!(
            (r.max_perf_rps - 33.0).abs() < 1.0,
            "maxPerf {}",
            r.max_perf_rps
        );
        assert!(
            (r.idle_power_w - 4.0).abs() < 0.2,
            "idle {}",
            r.idle_power_w
        );
        assert!((r.max_power_w - 7.6).abs() < 0.3, "max {}", r.max_power_w);
    }

    #[test]
    fn benchmark_recovers_paravance_profile() {
        let m = paper_machines().remove(0);
        let r = run_benchmark(&m, &BenchmarkConfig::default());
        assert!(
            (r.max_perf_rps - 1331.0).abs() < 15.0,
            "maxPerf {}",
            r.max_perf_rps
        );
        assert!((r.idle_power_w - 69.9).abs() < 1.0);
        assert!((r.max_power_w - 200.5).abs() < 2.5);
    }

    #[test]
    fn ramp_covers_saturation() {
        let m = paper_machines().remove(4); // raspberry, 4 cores
        let r = run_benchmark(&m, &BenchmarkConfig::default());
        assert_eq!(r.levels.len(), 16); // 4 cores x factor 4
                                        // Throughput grows then flattens.
        assert!(r.levels[0].throughput_rps < r.levels[3].throughput_rps);
        let last = r.levels.last().unwrap();
        assert!(last.throughput_rps <= r.max_perf_rps + 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let m = paper_machines().remove(3);
        let a = run_benchmark(&m, &BenchmarkConfig::default());
        let b = run_benchmark(&m, &BenchmarkConfig::default());
        assert_eq!(a, b);
        let c = run_benchmark(
            &m,
            &BenchmarkConfig {
                seed: 7,
                ..Default::default()
            },
        );
        assert_ne!(a.max_perf_rps, c.max_perf_rps);
    }

    #[test]
    fn power_increases_with_load() {
        let m = paper_machines().remove(0);
        let r = run_benchmark(&m, &BenchmarkConfig::default());
        assert!(r.idle_power_w < r.levels[7].power_w);
        assert!(r.levels[1].power_w < r.levels[15].power_w);
    }
}
