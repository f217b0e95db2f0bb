//! End-to-end integration: profile -> build -> simulate -> compare, on a
//! reduced World-Cup-like trace, checking the Fig. 5 relationships and
//! the QoS story across crates.

use bml::core::combination::SplitPolicy;
use bml::prelude::*;
use bml::sim::scenarios;
use bml::trace::worldcup::{generate, WorldCupParams};

/// A 4-day slice that includes quiet and match days, small enough for CI.
fn test_trace() -> LoadTrace {
    generate(&WorldCupParams {
        n_days: 4,
        tournament_start: 7, // days 7-8-9 are tournament days
        final_day: 9,
        ..Default::default()
    })
}

#[test]
fn full_pipeline_fig5_relationships() {
    let trace = test_trace();
    let measured = profile_park(&paper_machines(), &ProfilerConfig::paper());
    let infra = BmlInfrastructure::build(&measured).unwrap();
    let c = run_comparison(&trace, &infra, &SimConfig::default());

    // Ordering of the four curves, every single day.
    for d in 0..c.bml.daily_energy_j.len() {
        assert!(
            c.lower_bound.daily_energy_j[d] <= c.bml.daily_energy_j[d] + 1e-6,
            "day {d}: LB above BML"
        );
        assert!(
            c.bml.daily_energy_j[d] < c.ub_global.daily_energy_j[d],
            "day {d}: BML above UB Global"
        );
        assert!(
            c.ub_per_day.daily_energy_j[d] <= c.ub_global.daily_energy_j[d] + 1e-6,
            "day {d}: PerDay above Global"
        );
    }

    // The paper's headline shape: BML sits a few tens of percent above
    // the unreachable floor, while over-provisioning sits far above.
    assert!(c.bml_vs_lower.mean > 0.0);
    assert!(
        c.bml_vs_lower.mean < 200.0,
        "BML overhead {}% out of band",
        c.bml_vs_lower.mean
    );
    let ub_overhead = 100.0 * (c.ub_global.total_energy_j / c.lower_bound.total_energy_j - 1.0);
    assert!(
        ub_overhead > c.bml_vs_lower.mean * 2.0,
        "over-provisioning ({ub_overhead:.0}%) must dwarf BML ({:.0}%)",
        c.bml_vs_lower.mean
    );

    // QoS: the stateless web server tolerates a 1% shortfall.
    assert!(
        c.bml.qos.satisfies(0.01),
        "shortfall {}",
        c.bml.qos.shortfall_fraction()
    );
    assert_eq!(c.ub_global.qos.violation_seconds, 0);
    assert_eq!(c.lower_bound.qos.violation_seconds, 0);
}

#[test]
fn bml_reconfigures_with_daily_cycle() {
    let trace = test_trace();
    let infra = BmlInfrastructure::build(&bml::core::catalog::table1()).unwrap();
    let r = scenarios::bml_proactive(&trace, &infra, &SimConfig::default());
    // At least a few reconfigurations per day on a diurnal trace.
    assert!(
        r.reconfigurations >= 8,
        "only {} reconfigurations over 4 days",
        r.reconfigurations
    );
    assert!(r.nodes_switched_on > 0 && r.nodes_switched_off > 0);
    assert!(r.reconfig_energy_j > 0.0);
    // Transition energy is part of the total but not dominant.
    assert!(r.reconfig_energy_j < r.total_energy_j * 0.5);
    // Instance migrations happen when capacity moves between tiers.
    assert!(r.instance_migrations > 0);
}

#[test]
fn split_policies_serve_identically_but_differ_in_power() {
    let trace = test_trace();
    let infra = BmlInfrastructure::build(&bml::core::catalog::table1()).unwrap();
    let greedy = scenarios::bml_proactive(
        &trace,
        &infra,
        &SimConfig {
            split: SplitPolicy::EfficiencyGreedy,
            ..Default::default()
        },
    );
    let proportional = scenarios::bml_proactive(
        &trace,
        &infra,
        &SimConfig {
            split: SplitPolicy::ProportionalToCapacity,
            ..Default::default()
        },
    );
    assert_eq!(
        greedy.qos.violation_seconds,
        proportional.qos.violation_seconds
    );
    assert!((greedy.qos.total_served - proportional.qos.total_served).abs() < 1e-3);
    assert!(greedy.total_energy_j <= proportional.total_energy_j + 1e-6);
}

#[test]
fn cold_start_converges_to_warm_start_energy() {
    let trace = test_trace();
    let infra = BmlInfrastructure::build(&bml::core::catalog::table1()).unwrap();
    let warm = scenarios::bml_proactive(&trace, &infra, &SimConfig::default());
    let cold = scenarios::bml_proactive(
        &trace,
        &infra,
        &SimConfig {
            cold_start: true,
            ..Default::default()
        },
    );
    // One extra boot's worth of energy at most a fraction of a percent
    // over four days.
    let rel = (cold.total_energy_j - warm.total_energy_j).abs() / warm.total_energy_j;
    assert!(rel < 0.01, "cold-start diverged by {rel}");
}

#[test]
fn trace_csv_roundtrip_preserves_simulation() {
    // Serializing the trace to the CSV interchange format and re-reading
    // it yields the identical scenario result (the format is lossless for
    // integer-rounded rates).
    let trace = generate(&WorldCupParams {
        n_days: 1,
        ..Default::default()
    });
    let reparsed = LoadTrace::from_csv(&trace.to_csv()).unwrap();
    let infra = BmlInfrastructure::build(&bml::core::catalog::table1()).unwrap();
    let a = scenarios::bml_proactive(&trace, &infra, &SimConfig::default());
    let b = scenarios::bml_proactive(&reparsed, &infra, &SimConfig::default());
    assert_eq!(a.total_energy_j, b.total_energy_j);
    assert_eq!(a.reconfigurations, b.reconfigurations);
}

#[test]
fn energy_metrics_cross_check() {
    // The proportionality index of the whole simulated system: BML's
    // realized energy over the trace is far closer to the load-weighted
    // floor than the over-provisioned baseline's.
    let trace = test_trace();
    let infra = BmlInfrastructure::build(&bml::core::catalog::table1()).unwrap();
    let c = run_comparison(&trace, &infra, &SimConfig::default());
    let bml_ratio = c.bml.total_energy_j / c.lower_bound.total_energy_j;
    let ub_ratio = c.ub_global.total_energy_j / c.lower_bound.total_energy_j;
    assert!(
        bml_ratio < ub_ratio / 2.0,
        "bml {bml_ratio} vs ub {ub_ratio}"
    );
}
