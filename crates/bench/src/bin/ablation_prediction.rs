//! Future-work experiment (paper Sec. VI) — impact of load prediction
//! errors on reconfiguration decisions.
//!
//! Injects relative gaussian error into the look-ahead-max prediction and
//! reports how energy, reconfiguration churn and QoS degrade with the
//! error magnitude.
//!
//! The sweep is a 1-D grid over the `noise_sigmas` dimension, run by
//! [`bml_bench::run_ablation`]; `--threads` caps its workers,
//! `--cache-dir` caches its cells and optimum and
//! `--window` sets the look-ahead. Row `i` draws its noise from its grid
//! cell's seed, `splitmix64(seed ^ splitmix64(i))`. The last column is
//! each cell's gap to the full-service offline optimum.
//!
//! ```text
//! cargo run --release -p bml-bench --bin ablation_prediction -- \
//!     [--days N] [--seed N] [--window S] [--stepping event|per-second] \
//!     [--threads N] [--cache-dir PATH] [--csv]
//! ```

use bml_bench::{gap_percent, joules_to_kwh, run_ablation, Args, Table};

fn main() {
    let args = Args::parse();
    let days = args.days_or(7); // the sweep repeats the simulation; default smaller
    let sigmas = [0.0, 0.02, 0.05, 0.1, 0.2, 0.4];
    // Noise is counter-based and resampled once per look-ahead window,
    // so every sigma honors the stepping choice — noisy runs included.
    let cells = run_ablation("ablation-prediction", &args, days, |spec| {
        spec.noise_sigmas(sigmas.to_vec())
    });

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
        "gap vs full-service optimum (%)",
    ]);
    for (sigma, c) in sigmas.iter().zip(&cells) {
        let r = &c.summary;
        t.row(&[
            format!("{sigma:.2}"),
            format!("{:.2}", joules_to_kwh(r.total_energy_j)),
            format!("{}", r.reconfigurations),
            format!("{}", r.nodes_switched_on),
            format!("{:.4}", 100.0 * r.qos_shortfall),
            format!("{:.1}", 100.0 * r.worst_shortfall),
            gap_percent(r),
        ]);
    }
    t.print(args.csv);
    println!("\nUnder-predictions erode QoS; over-predictions waste energy and churn machines.");
}
