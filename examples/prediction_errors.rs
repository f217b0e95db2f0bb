//! The paper's announced future work (Sec. VI): "investigate the impact
//! of load prediction errors on reconfiguration decisions".
//!
//! Runs the BML scenario on one diurnal day with increasingly noisy
//! predictions and with the alternative predictors of `bml-trace`
//! (reactive last-value, EWMA), reporting energy, churn and QoS.
//!
//! ```text
//! cargo run --release --example prediction_errors
//! ```

use bml::prelude::*;
use bml::sim::{run_cell, simulate_bml, CellConfig};
use bml::trace::{synthetic, EwmaPredictor, LastValuePredictor};

fn main() {
    let trace = synthetic::diurnal(10.0, 2_500.0, 4.0, 1);
    let infra = BmlInfrastructure::build(&bml::core::catalog::table1()).unwrap();
    let config = SimConfig::default();

    println!("Gaussian error injected into the 378 s look-ahead-max prediction:\n");
    println!(
        "{:<8} {:>12} {:>10} {:>16} {:>14}",
        "sigma", "energy(kWh)", "reconfigs", "shortfall(%)", "worst sec(%)"
    );
    for sigma in [0.0, 0.05, 0.1, 0.2, 0.4] {
        let cell = CellConfig {
            noise_sigma: sigma,
            noise_seed: 1998,
            ..CellConfig::from_sim(&config)
        };
        let r = run_cell(&trace, &infra, &cell);
        println!(
            "{:<8.2} {:>12.3} {:>10} {:>16.4} {:>14.1}",
            sigma,
            r.total_energy_j / 3.6e6,
            r.reconfigurations,
            100.0 * r.qos.shortfall_fraction(),
            100.0 * r.qos.worst_shortfall
        );
    }

    println!("\nAlternative predictors (load knowledge classes of Sec. III):\n");
    let mut results = Vec::new();
    let mut lookahead = LookaheadMaxPredictor::new(&trace, 378);
    results.push((
        "lookahead-max (partial knowledge)",
        simulate_bml(&trace, &infra, &mut lookahead, &config),
    ));
    let mut last = LastValuePredictor::new(&trace);
    results.push((
        "last-value (unknown load, reactive)",
        simulate_bml(&trace, &infra, &mut last, &config),
    ));
    let mut ewma = EwmaPredictor::new(&trace, 0.02);
    results.push((
        "ewma a=0.02 (smoothed reactive)",
        simulate_bml(&trace, &infra, &mut ewma, &config),
    ));

    println!(
        "{:<36} {:>12} {:>10} {:>16}",
        "predictor", "energy(kWh)", "reconfigs", "shortfall(%)"
    );
    for (name, r) in &results {
        println!(
            "{:<36} {:>12.3} {:>10} {:>16.4}",
            name,
            r.total_energy_j / 3.6e6,
            r.reconfigurations,
            100.0 * r.qos.shortfall_fraction()
        );
    }
    println!(
        "\nReactive predictors cannot hide the Big's 189 s boot: they trade energy for QoS violations,\n\
         which is exactly why the paper ties its window to the longest switch-on duration."
    );
}
