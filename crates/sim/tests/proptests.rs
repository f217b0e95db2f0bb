//! Property-based tests for the simulator: energy conservation, QoS and
//! capacity invariants under random workloads.

use bml_core::bml::BmlInfrastructure;
use bml_core::catalog;
use bml_core::combination::SplitPolicy;
use bml_core::profile::ArchProfile;
use bml_core::transition_aware::TransitionAwareConfig;
use bml_sim::engine::{simulate_bml, FailureModel, SchedulerKind, SimConfig, Stepping};
use bml_sim::runner::run_comparison;
use bml_sim::scenarios;
use bml_trace::{LoadTrace, LookaheadMaxPredictor, NoisyPredictor};
use proptest::prelude::*;

fn bml() -> BmlInfrastructure {
    BmlInfrastructure::build(&catalog::table1()).unwrap()
}

/// Strategy: a random valid architecture profile (same ranges as the
/// bml-core property tests).
fn arb_profile() -> impl Strategy<Value = ArchProfile> {
    (
        1.0f64..200.0,   // idle
        1.0f64..300.0,   // dynamic range above idle
        1.0f64..2000.0,  // max_perf
        0.0f64..300.0,   // on duration
        0.0f64..30000.0, // on energy
        0.0f64..60.0,    // off duration
        0.0f64..2000.0,  // off energy
    )
        .prop_map(|(idle, range, mp, ont, one, offt, offe)| {
            ArchProfile::new(
                "p",
                idle,
                idle + range,
                mp.round().max(1.0),
                ont,
                one,
                offt,
                offe,
            )
            .expect("constructed within valid ranges")
        })
}

/// Strategy: a random catalog of 2-5 distinct architectures.
fn arb_profiles() -> impl Strategy<Value = Vec<ArchProfile>> {
    proptest::collection::vec(arb_profile(), 2..=5).prop_map(|mut v| {
        for (i, p) in v.iter_mut().enumerate() {
            p.name = format!("arch{i}");
        }
        v
    })
}

/// Random piecewise-constant workload: a few plateaus of random level and
/// length — adversarial for the scheduler (steps at random offsets).
fn arb_trace() -> impl Strategy<Value = LoadTrace> {
    proptest::collection::vec((0.0f64..4_000.0, 50usize..800), 1..8).prop_map(|segments| {
        let mut rates = Vec::new();
        for (level, len) in segments {
            rates.extend(std::iter::repeat_n(level.round(), len));
        }
        LoadTrace::new(0, rates)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn energy_is_finite_positive_and_daily_sums(trace in arb_trace()) {
        let b = bml();
        let mut p = LookaheadMaxPredictor::new(&trace, 378);
        let r = simulate_bml(&trace, &b, &mut p, &SimConfig::default());
        prop_assert!(r.total_energy_j.is_finite());
        prop_assert!(r.total_energy_j >= 0.0);
        let daily: f64 = r.daily_energy_j.iter().sum();
        prop_assert!((daily - r.total_energy_j).abs() < 1e-6);
    }

    #[test]
    fn bml_between_bounds(trace in arb_trace()) {
        let b = bml();
        let c = run_comparison(&trace, &b, &SimConfig::default());
        // Lower bound below BML; BML below the global upper bound
        // (when there is any load at all).
        prop_assert!(c.lower_bound.total_energy_j <= c.bml.total_energy_j + 1e-6);
        if trace.max() > 0.0 {
            prop_assert!(c.bml.total_energy_j <= c.ub_global.total_energy_j * 1.5 + 1e-6);
            prop_assert!(c.ub_per_day.total_energy_j <= c.ub_global.total_energy_j + 1e-6);
        }
    }

    #[test]
    fn upper_bounds_never_violate_qos(trace in arb_trace()) {
        let big = catalog::paravance();
        let g = scenarios::upper_bound_global(&trace, &big, SplitPolicy::EfficiencyGreedy);
        prop_assert_eq!(g.qos.violation_seconds, 0);
        let d = scenarios::upper_bound_per_day(&trace, &big, SplitPolicy::EfficiencyGreedy);
        prop_assert_eq!(d.qos.violation_seconds, 0);
    }

    #[test]
    fn lower_bound_power_matches_ideal_curve(trace in arb_trace()) {
        let b = bml();
        let lb = scenarios::lower_bound_theoretical(&trace, &b, SplitPolicy::EfficiencyGreedy);
        let manual: f64 = (0..trace.len())
            .map(|t| {
                let load = trace.get(t);
                let counts = b.ideal_combination(load).counts(b.n_archs());
                b.config_power(&counts, load, SplitPolicy::EfficiencyGreedy).0
            })
            .sum();
        // Span-batched vs per-second summation: same quantity, different
        // float-accumulation order — compare with a relative tolerance.
        prop_assert!((lb.total_energy_j - manual).abs() < 1e-9 * manual.abs() + 1e-6);
        // The greedy-split serving power never exceeds the combination's
        // nominal assignment power (the published Fig.-4 curve).
        let nominal: f64 = (0..trace.len()).map(|t| b.power_at(trace.get(t))).sum();
        prop_assert!(lb.total_energy_j <= nominal + 1e-6);
    }

    #[test]
    fn served_never_exceeds_demand(trace in arb_trace()) {
        let b = bml();
        let mut p = LookaheadMaxPredictor::new(&trace, 378);
        let r = simulate_bml(&trace, &b, &mut p, &SimConfig::default());
        prop_assert!(r.qos.total_served <= r.qos.total_demand + 1e-6);
        prop_assert!(r.qos.worst_shortfall <= 1.0);
        // Switch counts are consistent with at least one machine per
        // reconfiguration.
        if r.reconfigurations > 0 {
            prop_assert!(r.nodes_switched_on + r.nodes_switched_off >= r.reconfigurations);
        }
    }

    /// The tentpole property: the event-driven skip-ahead replay is
    /// result-identical to the per-second reference engine — same daily
    /// energies (to float-accumulation rounding), same QoS report, same
    /// reconfiguration log — over arbitrary catalogs, traces, look-ahead
    /// horizons, both scheduler kinds, arbitrary prediction-noise sigmas
    /// (counter-based, resampled per window), and arbitrary failure
    /// injection (counter-based geometric gaps). Each result must also
    /// name the loop that was requested.
    #[test]
    fn event_driven_replay_matches_per_second_engine(
        trace in arb_trace(),
        profiles in arb_profiles(),
        horizon in 1u64..600,
        aware in 0u8..2,
        cold_start in 0u8..2,
        noise_on in 0u8..2,
        noise_sigma in 0.01f64..0.5,
        noise_seed in 0u64..1_000_000,
        failures_on in 0u8..2,
        mtbf_s in 200.0f64..20_000.0,
        repair_s in 1u64..120,
        failure_seed in 0u64..1_000_000,
    ) {
        let (aware, cold_start) = (aware == 1, cold_start == 1);
        let noise_sigma = if noise_on == 1 { noise_sigma } else { 0.0 };
        let infra = match BmlInfrastructure::build(&profiles) {
            Ok(i) => i,
            Err(_) => return Ok(()), // degenerate catalog (all dominated)
        };
        let scheduler = if aware {
            SchedulerKind::TransitionAware(TransitionAwareConfig::paper())
        } else {
            SchedulerKind::Baseline
        };
        let failures = (failures_on == 1)
            .then(|| FailureModel::new(mtbf_s, repair_s, failure_seed));
        let base = SimConfig { scheduler, cold_start, failures, ..SimConfig::default() };

        let run_mode = |stepping| {
            let inner = LookaheadMaxPredictor::new(&trace, horizon);
            let config = SimConfig { stepping, ..base.clone() };
            if noise_sigma > 0.0 {
                let mut p = NoisyPredictor::with_resample(inner, noise_sigma, noise_seed, horizon);
                simulate_bml(&trace, &infra, &mut p, &config)
            } else {
                let mut p = inner;
                simulate_bml(&trace, &infra, &mut p, &config)
            }
        };
        let per_second = run_mode(Stepping::PerSecond);
        let event = run_mode(Stepping::EventDriven);

        prop_assert_eq!(event.stepping_effective, Stepping::EventDriven);
        prop_assert_eq!(per_second.stepping_effective, Stepping::PerSecond);

        // One shared definition of "result-identical" (discrete outcomes
        // exact, energies to float-accumulation rounding) — the same
        // checker the engine's unit tests use.
        let verdict = per_second.check_replay_equivalent(&event, 1e-9);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    #[test]
    fn warm_start_with_lookahead_keeps_qos_high(trace in arb_trace()) {
        // With perfect windowed prediction and graceful handover, the
        // shortfall stays tiny: only quantization effects at plan
        // boundaries can leak demand.
        let b = bml();
        let mut p = LookaheadMaxPredictor::new(&trace, 378);
        let r = simulate_bml(&trace, &b, &mut p, &SimConfig::default());
        prop_assert!(
            r.qos.shortfall_fraction() < 0.02,
            "shortfall {}",
            r.qos.shortfall_fraction()
        );
    }
}
