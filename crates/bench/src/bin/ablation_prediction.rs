//! Future-work experiment (paper Sec. VI) — impact of load prediction
//! errors on reconfiguration decisions.
//!
//! Injects relative gaussian error into the look-ahead-max prediction and
//! reports how energy, reconfiguration churn and QoS degrade with the
//! error magnitude.
//!
//! The sweep is a 1-D slice of the `bml-grid` experiment space (the
//! `noise_sigmas` dimension); it routes through the same shared cell
//! executor as the `grid` binary and honors `--threads`.
//!
//! ```text
//! cargo run --release -p bml-bench --bin ablation_prediction -- \
//!     [--days N] [--seed N] [--stepping event|per-second] [--threads N] [--csv]
//! ```

use bml_bench::{joules_to_kwh, Args, Table};
use bml_core::bml::BmlInfrastructure;
use bml_core::catalog;
use bml_sim::{runner::sweep_prediction_noise, SimConfig};
use bml_trace::registry;

fn main() {
    let args = Args::parse();
    let days = args.days_or(7); // the sweep repeats the simulation; default smaller
    let trace = registry::generate("worldcup-tournament", days, args.seed)
        .expect("a registered trace source");
    let bml = BmlInfrastructure::build(&catalog::table1()).expect("paper catalog builds");
    let sigmas = [0.0, 0.02, 0.05, 0.1, 0.2, 0.4];
    eprintln!(
        "sweeping {} noise levels over {} days...",
        sigmas.len(),
        days
    );
    // Noise is counter-based and resampled once per look-ahead window,
    // so every sigma honors this stepping choice — noisy runs included.
    let config = SimConfig {
        stepping: args.stepping_or_default(),
        ..Default::default()
    };
    let results = args
        .pool()
        .install(|| sweep_prediction_noise(&trace, &bml, &sigmas, args.seed, &config));

    println!(
        "Prediction-error ablation ({} days, seed {}):\n",
        days, args.seed
    );
    let mut t = Table::new(&[
        "sigma",
        "energy (kWh)",
        "reconfigs",
        "boots",
        "QoS shortfall (%)",
        "worst shortfall (%)",
    ]);
    for (sigma, r) in &results {
        t.row(&[
            format!("{sigma:.2}"),
            format!("{:.2}", joules_to_kwh(r.total_energy_j)),
            format!("{}", r.reconfigurations),
            format!("{}", r.nodes_switched_on),
            format!("{:.4}", 100.0 * r.qos.shortfall_fraction()),
            format!("{:.1}", 100.0 * r.qos.worst_shortfall),
        ]);
    }
    t.print(args.csv);
    println!("\nUnder-predictions erode QoS; over-predictions waste energy and churn machines.");
}
