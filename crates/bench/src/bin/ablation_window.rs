//! Ablation — sensitivity of BML to the look-ahead window length.
//!
//! The paper fixes the window at 2x the longest boot (378 s). This sweep
//! shows the trade-off: short windows react later (QoS risk, more
//! reconfigurations), long windows over-provision (energy).
//!
//! The sweep is a 1-D slice of the `bml-grid` experiment space (the
//! `windows` dimension); it routes through the same shared cell executor
//! as the `grid` binary and honors `--threads`.
//!
//! ```text
//! cargo run --release -p bml-bench --bin ablation_window -- \
//!     [--days N] [--seed N] [--stepping event|per-second] [--threads N] [--csv]
//! ```

use bml_bench::{joules_to_kwh, Args, Table};
use bml_core::bml::BmlInfrastructure;
use bml_core::catalog;
use bml_sim::{runner::sweep_window, SimConfig};
use bml_trace::registry;

fn main() {
    let args = Args::parse();
    let days = args.days_or(7); // the sweep repeats the simulation; default smaller
    let trace = registry::generate("worldcup-tournament", days, args.seed)
        .expect("a registered trace source");
    let bml = BmlInfrastructure::build(&catalog::table1()).expect("paper catalog builds");
    let windows = [60u64, 189, 378, 756, 1800, 3600];
    eprintln!("sweeping {} windows over {} days...", windows.len(), days);
    let config = SimConfig {
        stepping: args.stepping_or_default(),
        ..Default::default()
    };
    let results = args
        .pool()
        .install(|| sweep_window(&trace, &bml, &windows, &config));

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
    ]);
    for (w, r) in &results {
        t.row(&[
            format!("{w}"),
            format!("{:.2}", joules_to_kwh(r.total_energy_j)),
            format!("{}", r.reconfigurations),
            format!("{}", r.nodes_switched_on),
            format!("{:.4}", 100.0 * r.qos.shortfall_fraction()),
            format!("{}", r.qos.violation_seconds),
        ]);
    }
    t.print(args.csv);
    println!("\nThe paper's 378 s window (2x longest boot) hides boot latency with minimal over-provisioning.");
}
