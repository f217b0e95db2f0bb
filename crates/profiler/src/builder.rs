//! Assembling measured data into [`ArchProfile`]s — the output of the
//! paper's Step 1, ready for Steps 2-5.

use bml_core::profile::ArchProfile;

use crate::benchmark::{run_benchmark, BenchmarkConfig};
use crate::machine_model::SyntheticMachine;
use crate::onoff::{measure_boot, measure_shutdown};
use crate::wattmeter::Wattmeter;

/// Profiling campaign parameters.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfilerConfig {
    /// Benchmark protocol (paper defaults when `Default`).
    pub benchmark: BenchmarkConfig,
    /// Round `maxPerf` to an integer request rate, as Table I does.
    pub round_max_perf: bool,
}

impl ProfilerConfig {
    /// The paper's protocol with integer `maxPerf`.
    pub fn paper() -> Self {
        ProfilerConfig {
            benchmark: BenchmarkConfig::default(),
            round_max_perf: true,
        }
    }
}

/// Profile one machine: run the benchmark ramp, then measure the On/Off
/// transitions, and assemble the `ArchProfile`.
pub fn profile_machine(machine: &SyntheticMachine, cfg: &ProfilerConfig) -> ArchProfile {
    let bench = run_benchmark(machine, &cfg.benchmark);
    let mut meter = Wattmeter::new(cfg.benchmark.seed ^ 0x0FF);
    let boot = measure_boot(machine, &mut meter);
    let down = measure_shutdown(machine, &mut meter);
    let max_perf = if cfg.round_max_perf {
        bench.max_perf_rps.round().max(1.0)
    } else {
        bench.max_perf_rps
    };
    ArchProfile::new(
        machine.name.clone(),
        bench.idle_power_w.min(bench.max_power_w),
        bench.max_power_w.max(bench.idle_power_w),
        max_perf,
        boot.duration_s,
        boot.energy_j,
        down.duration_s,
        down.energy_j,
    )
    .expect("measured values form a valid profile")
}

/// Profile a whole machine park (Step 1 for every architecture).
pub fn profile_park(machines: &[SyntheticMachine], cfg: &ProfilerConfig) -> Vec<ArchProfile> {
    machines.iter().map(|m| profile_machine(m, cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine_model::paper_machines;
    use bml_core::bml::BmlInfrastructure;
    use bml_core::catalog;

    #[test]
    fn profiles_recover_table1_within_tolerance() {
        let measured = profile_park(&paper_machines(), &ProfilerConfig::paper());
        let reference = catalog::table1();
        for (m, r) in measured.iter().zip(&reference) {
            assert_eq!(m.name, r.name);
            let perf_err = (m.max_perf - r.max_perf).abs() / r.max_perf;
            assert!(
                perf_err < 0.02,
                "{}: maxPerf {} vs {}",
                m.name,
                m.max_perf,
                r.max_perf
            );
            assert!(
                (m.idle_power - r.idle_power).abs() / r.idle_power < 0.05,
                "{}: idle {} vs {}",
                m.name,
                m.idle_power,
                r.idle_power
            );
            assert!(
                (m.max_power - r.max_power).abs() / r.max_power < 0.05,
                "{}: max {} vs {}",
                m.name,
                m.max_power,
                r.max_power
            );
            assert_eq!(m.on_duration, r.on_duration, "{}", m.name);
            assert_eq!(m.off_duration, r.off_duration, "{}", m.name);
            assert!(
                (m.on_energy - r.on_energy).abs() / r.on_energy.max(1.0) < 0.05,
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn measured_profiles_rebuild_the_paper_infrastructure() {
        // End-to-end Step 1 -> Steps 2-4: profiling the synthetic park and
        // feeding the *measured* profiles into the BML builder reproduces
        // the paper's candidate set, and thresholds within measurement
        // tolerance.
        let measured = profile_park(&paper_machines(), &ProfilerConfig::paper());
        let bml = BmlInfrastructure::build(&measured).unwrap();
        let names: Vec<_> = bml.candidates().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["paravance", "chromebook", "raspberry"]);
        let t = bml.threshold_rates();
        assert_eq!(t[2], 1.0);
        assert!((t[1] - 10.0).abs() <= 1.0, "medium threshold {}", t[1]);
        // The Big/Medium crossing is shallow: the two power curves diverge
        // by ~0.12 W per req/s around 529 req/s, so a 1% wattmeter error
        // (~2 W on the Big's idle) legitimately moves the crossing by a
        // few percent. Accept a 5% band around the paper's 529.
        assert!(
            (t[0] - 529.0).abs() <= 529.0 * 0.05,
            "big threshold {}",
            t[0]
        );
    }

    #[test]
    fn unrounded_max_perf() {
        let m = &paper_machines()[4];
        let p = profile_machine(
            m,
            &ProfilerConfig {
                round_max_perf: false,
                ..ProfilerConfig::paper()
            },
        );
        assert!(p.max_perf.fract().abs() > 0.0 || p.max_perf == p.max_perf.round());
        assert!((p.max_perf - 9.0).abs() < 0.5);
    }

    #[test]
    fn profiling_is_deterministic() {
        let a = profile_park(&paper_machines(), &ProfilerConfig::paper());
        let b = profile_park(&paper_machines(), &ProfilerConfig::paper());
        assert_eq!(a, b);
    }
}
