//! Flash crowd: a news-site scenario — calm baseline traffic, then a
//! sudden spike (the paper's motivating "variable load" in its sharpest
//! form). Compares the BML pro-active scheduler against classical
//! over-provisioning on energy *and* QoS.
//!
//! ```text
//! cargo run --release --example flash_crowd
//! ```

use bml::core::combination::SplitPolicy;
use bml::prelude::*;
use bml::sim::scenarios;
use bml::trace::synthetic;

fn main() {
    // 2 hours: baseline 60 req/s, spike to 3800 req/s at minute 30,
    // exponential decay over ~20 minutes.
    let trace = synthetic::flash_crowd(60.0, 3_800.0, 1_800, 120, 1_200.0, 7_200);
    println!(
        "Flash crowd: baseline 60 req/s, peak {} req/s at t=30min, {} s total\n",
        trace.max(),
        trace.len()
    );

    let infra = BmlInfrastructure::build(&bml::core::catalog::table1()).unwrap();
    let config = SimConfig::default();

    let bml_run = scenarios::bml_proactive(&trace, &infra, &config);
    let overprovisioned =
        scenarios::upper_bound_global(&trace, infra.big(), SplitPolicy::EfficiencyGreedy);
    let floor = scenarios::lower_bound_theoretical(&trace, &infra, SplitPolicy::EfficiencyGreedy);

    for r in [&overprovisioned, &bml_run, &floor] {
        println!(
            "  {:<22} {:>8.3} kWh | QoS shortfall {:>7.4}% (worst second {:>5.1}%) | {} reconfigs",
            r.name,
            r.total_energy_j / 3.6e6,
            100.0 * r.qos.shortfall_fraction(),
            100.0 * r.qos.worst_shortfall,
            r.reconfigurations,
        );
    }

    let saving = 1.0 - bml_run.total_energy_j / overprovisioned.total_energy_j;
    println!(
        "\nBML saves {:.1}% vs over-provisioning for the peak, at {:.4}% unserved demand.",
        100.0 * saving,
        100.0 * bml_run.qos.shortfall_fraction()
    );
    // The paper's stateless web server tolerates a 1% shortfall.
    let tolerated = 0.01;
    println!(
        "QoS class 'Tolerant' tolerates {:.1}% shortfall: {}",
        100.0 * tolerated,
        if bml_run.qos.satisfies(tolerated) {
            "SATISFIED"
        } else {
            "VIOLATED"
        }
    );
}
