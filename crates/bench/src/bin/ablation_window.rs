//! Ablation — sensitivity of BML to the look-ahead window length.
//!
//! The paper fixes the window at 2x the longest boot (378 s). This sweep
//! shows the trade-off: short windows react later (QoS risk, more
//! reconfigurations), long windows over-provision (energy).
//!
//! The sweep is a 1-D grid over the `windows` dimension, run by
//! [`bml_bench::run_ablation`]; `--threads` caps its workers and
//! `--cache-dir` caches its cells and optimum. The last column is each
//! cell's gap to the full-service offline optimum.
//!
//! ```text
//! cargo run --release -p bml-bench --bin ablation_window -- \
//!     [--days N] [--seed N] [--stepping event|per-second] [--threads N] \
//!     [--cache-dir PATH] [--csv]
//! ```

use bml_bench::{gap_percent, joules_to_kwh, run_ablation, Args, Table};

fn main() {
    let args = Args::parse();
    let days = args.days_or(7); // the sweep repeats the simulation; default smaller
    let windows = [60u64, 189, 378, 756, 1800, 3600];
    let cells = run_ablation("ablation-window", &args, days, |spec| {
        spec.windows(windows.iter().map(|&w| Some(w)).collect())
    });

    println!(
        "Window-length ablation ({} days, seed {}):\n",
        days, args.seed
    );
    let mut t = Table::new(&[
        "window (s)",
        "energy (kWh)",
        "reconfigs",
        "boots",
        "QoS shortfall (%)",
        "violation secs",
        "gap vs full-service optimum (%)",
    ]);
    for (w, c) in windows.iter().zip(&cells) {
        let r = &c.summary;
        t.row(&[
            format!("{w}"),
            format!("{:.2}", joules_to_kwh(r.total_energy_j)),
            format!("{}", r.reconfigurations),
            format!("{}", r.nodes_switched_on),
            format!("{:.4}", 100.0 * r.qos_shortfall),
            format!("{}", r.violation_seconds),
            gap_percent(r),
        ]);
    }
    t.print(args.csv);
    println!("\nThe paper's 378 s window (2x longest boot) hides boot latency with minimal over-provisioning.");
}
