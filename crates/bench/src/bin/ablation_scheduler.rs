//! Ablation — baseline pro-active scheduler vs the future-work
//! transition-aware scheduler (paper Sec. VI) on the World-Cup-like
//! trace: energy, churn and QoS side by side.
//!
//! The sweep is a 1-D grid over the `schedulers` dimension, run by
//! [`bml_bench::run_ablation`]; `--threads` caps its workers,
//! `--cache-dir` caches its cells and optimum and
//! `--window` sets both schedulers' look-ahead. The last column is each
//! cell's gap to the full-service offline optimum.
//!
//! ```text
//! cargo run --release -p bml-bench --bin ablation_scheduler -- \
//!     [--days N] [--seed N] [--window S] [--stepping event|per-second] \
//!     [--threads N] [--cache-dir PATH] [--csv]
//! ```

use bml_bench::{gap_percent, joules_to_kwh, run_ablation, Args, Table};
use bml_grid::SchedulerDim;

fn main() {
    let args = Args::parse();
    let days = args.days_or(7); // the sweep repeats the simulation; default smaller
    let schedulers = [SchedulerDim::Baseline, SchedulerDim::TransitionAware];
    let cells = run_ablation("ablation-scheduler", &args, days, |spec| {
        spec.schedulers(schedulers.to_vec())
    });

    println!("Scheduler ablation ({} days, seed {}):\n", days, args.seed);
    let mut t = Table::new(&[
        "scheduler",
        "energy (kWh)",
        "reconfigs",
        "boots",
        "reconfig energy (kJ)",
        "QoS shortfall (%)",
        "gap vs full-service optimum (%)",
    ]);
    for (s, c) in schedulers.iter().zip(&cells) {
        let r = &c.summary;
        t.row(&[
            s.label().to_string(),
            format!("{:.2}", joules_to_kwh(r.total_energy_j)),
            format!("{}", r.reconfigurations),
            format!("{}", r.nodes_switched_on),
            format!("{:.1}", r.reconfig_energy_j / 1_000.0),
            format!("{:.4}", 100.0 * r.qos_shortfall),
            gap_percent(r),
        ]);
    }
    t.print(args.csv);
    println!(
        "\nThe transition-aware scheduler suppresses reconfigurations whose On/Off energy\n\
         exceeds what the better-fitting combination saves within the decision horizon."
    );
}
