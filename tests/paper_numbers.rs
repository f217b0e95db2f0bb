//! Integration tests pinning the numbers the paper states in Sec. V-B:
//! which machines survive filtering, the minimum utilization thresholds,
//! the qualitative shape of Fig. 4, and the ordering of Fig. 5's bounds
//! around the offline optimum.

use bml::core::candidates::RemovalReason;
use bml::core::crossing::ThresholdKind;
use bml::prelude::*;
use bml::sim::Stepping;
use bml::trace::worldcup::{generate, WorldCupParams};

fn infra() -> BmlInfrastructure {
    BmlInfrastructure::build(&bml::core::catalog::table1()).unwrap()
}

#[test]
fn step2_removes_taurus_step3_removes_graphene() {
    let infra = infra();
    let removed: Vec<(&str, &RemovalReason)> = infra
        .removed()
        .iter()
        .map(|(p, r)| (p.name.as_str(), r))
        .collect();
    assert_eq!(removed.len(), 2);
    assert!(matches!(
        removed.iter().find(|(n, _)| *n == "taurus").unwrap().1,
        RemovalReason::Dominated { by } if by == "paravance"
    ));
    assert!(matches!(
        removed.iter().find(|(n, _)| *n == "graphene").unwrap().1,
        RemovalReason::NeverOptimal
    ));
}

#[test]
fn final_infrastructure_is_raspberry_chromebook_paravance() {
    let infra = infra();
    let names: Vec<&str> = infra.candidates().iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, vec!["paravance", "chromebook", "raspberry"]);
    assert_eq!(infra.labels(), vec!["Big", "Medium", "Little"]);
}

#[test]
fn thresholds_are_1_10_529() {
    // "Their minimum utilization thresholds are respectively 1, 10 and
    // 529 requests per second" (Sec. V-B).
    let infra = infra();
    assert_eq!(infra.threshold_rates(), vec![529.0, 10.0, 1.0]);
    let kinds: Vec<ThresholdKind> = infra.thresholds().iter().map(|t| t.kind).collect();
    assert_eq!(
        kinds,
        vec![
            ThresholdKind::Crossing,
            ThresholdKind::Crossing,
            ThresholdKind::Base
        ]
    );
}

#[test]
fn paper_window_is_378_seconds() {
    // "a sliding look-ahead window... of 378 seconds, equivalent to 2
    // times the longest On duration" (Sec. V-C).
    assert_eq!(
        bml::core::scheduler::paper_window_length(infra().candidates()),
        378
    );
}

#[test]
fn fig4_bml_curve_shape() {
    let infra = infra();
    // The BML curve starts at Little scale, not at the Big's 69.9 W idle.
    assert!(infra.power_at(1.0) < 4.0);
    // It meets the Big exactly at maxPerf(Big)...
    assert!((infra.power_at(1331.0) - 200.5).abs() < 1e-9);
    // ...and stays at or below the all-Big staircase everywhere.
    for r in 1..=1331u64 {
        assert!(infra.power_at(r as f64) <= infra.big_stack_power(r as f64) + 1e-9);
    }
    // Beyond one Big the combination keeps growing monotonically.
    assert!(infra.power_at(2_000.0) > infra.power_at(1_331.0));
}

#[test]
fn fig4_switch_to_big_at_529() {
    let infra = infra();
    assert_eq!(infra.ideal_combination(529.0).counts(3), vec![1, 0, 0]);
    let below = infra.ideal_combination(528.0).counts(3);
    assert_eq!(below[0], 0);
    assert!(below[1] > 0);
}

#[test]
fn illustrative_walkthrough_matches_section4() {
    // A/B/C kept (D dominated); Medium threshold lands at the "around
    // 150" of Fig. 2; Step 4 raises Big's threshold vs Step 3.
    let infra = BmlInfrastructure::build(&bml::core::catalog::illustrative()).unwrap();
    let names: Vec<&str> = infra.candidates().iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names, vec!["A", "B", "C"]);
    assert_eq!(infra.removed()[0].0.name, "D");
    assert_eq!(infra.thresholds()[1].rate, 150.0);
    assert!(infra.thresholds()[0].rate > infra.pairwise_thresholds()[0].rate);
}

#[test]
fn profiled_machines_reproduce_catalog_pipeline() {
    // Step 1 (measured) -> Steps 2-5 end-to-end equals the catalog-based
    // infrastructure in structure.
    let measured = profile_park(&paper_machines(), &ProfilerConfig::paper());
    let from_measurement = BmlInfrastructure::build(&measured).unwrap();
    let from_catalog = infra();
    assert_eq!(
        from_measurement
            .candidates()
            .iter()
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>(),
        from_catalog
            .candidates()
            .iter()
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>()
    );
}

#[test]
fn fig5_bounds_bracket_the_offline_optimum() {
    // Fig. 5 on one worldcup day: the lower bound reconfigures for free,
    // the optimum pays Table I's transitions with hindsight, BML pays them
    // online, and the upper bounds never reconfigure (per day, then over
    // the whole trace). The comparison is the same under both steppings.
    let trace = generate(&WorldCupParams {
        seed: 1998,
        n_days: 1,
        ..Default::default()
    });
    let infra = infra();
    let config = SimConfig::default();
    let c = run_comparison(&trace, &infra, &config);
    let (optimum, replay) = solve_verified(&trace, &infra, config.split, &OptOptions::default())
        .expect("the exact DP cannot dead-end");
    let ordered = [
        (c.lower_bound.name.as_str(), c.lower_bound.total_energy_j),
        (replay.name.as_str(), optimum.energy_j),
        (c.bml.name.as_str(), c.bml.total_energy_j),
        (c.ub_per_day.name.as_str(), c.ub_per_day.total_energy_j),
        (c.ub_global.name.as_str(), c.ub_global.total_energy_j),
    ];
    for pair in ordered.windows(2) {
        let ((below, e_below), (above, e_above)) = (pair[0], pair[1]);
        assert!(
            e_below <= e_above,
            "{below} ({e_below} J) must not exceed {above} ({e_above} J)"
        );
    }
    assert_eq!(replay.qos.violation_seconds, 0);
    assert_eq!(
        replay.qos.shortfall_fraction(),
        0.0,
        "the optimum serves in full"
    );

    let per_second = run_comparison(
        &trace,
        &infra,
        &SimConfig {
            stepping: Stepping::PerSecond,
            ..config.clone()
        },
    );
    for (event, reference) in c.scenarios().into_iter().zip(per_second.scenarios()) {
        reference
            .check_replay_equivalent(event, 1e-9)
            .unwrap_or_else(|e| panic!("{}: steppings diverged: {e}", event.name));
    }
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) + 1e-9;
    for (field, a, b) in [
        ("mean", c.bml_vs_lower.mean, per_second.bml_vs_lower.mean),
        ("min", c.bml_vs_lower.min, per_second.bml_vs_lower.min),
        ("max", c.bml_vs_lower.max, per_second.bml_vs_lower.max),
    ] {
        assert!(close(a, b), "bml_vs_lower.{field} diverged: {a} vs {b}");
    }
    assert_eq!(c.bml.stepping_effective, config.stepping);
    assert_eq!(per_second.bml.stepping_effective, Stepping::PerSecond);
}
