//! Ablation — baseline pro-active scheduler vs the future-work
//! transition-aware scheduler (paper Sec. VI) on the World-Cup-like
//! trace: energy, churn and QoS side by side.
//!
//! The sweep is a 1-D slice of the `bml-grid` experiment space (the
//! `schedulers` dimension); it routes through the same shared cell
//! executor as the `grid` binary and honors `--threads`.
//!
//! ```text
//! cargo run --release -p bml-bench --bin ablation_scheduler -- \
//!     [--days N] [--seed N] [--stepping event|per-second] [--threads N] [--csv]
//! ```

use bml_bench::{joules_to_kwh, Args, Table};
use bml_core::bml::BmlInfrastructure;
use bml_core::catalog;
use bml_sim::{runner::sweep_scheduler, SimConfig};
use bml_trace::registry;

fn main() {
    let args = Args::parse();
    let days = args.days_or(7); // the sweep repeats the simulation; default smaller
    let trace = registry::generate("worldcup-tournament", days, args.seed)
        .expect("a registered trace source");
    let bml = BmlInfrastructure::build(&catalog::table1()).expect("paper catalog builds");
    let config = SimConfig {
        stepping: args.stepping_or_default(),
        ..Default::default()
    };
    let results = args
        .pool()
        .install(|| sweep_scheduler(&trace, &bml, &config));

    println!("Scheduler ablation ({} days, seed {}):\n", days, args.seed);
    let mut t = Table::new(&[
        "scheduler",
        "energy (kWh)",
        "reconfigs",
        "boots",
        "reconfig energy (kJ)",
        "QoS shortfall (%)",
    ]);
    for (name, r) in &results {
        t.row(&[
            name.clone(),
            format!("{:.2}", joules_to_kwh(r.total_energy_j)),
            format!("{}", r.reconfigurations),
            format!("{}", r.nodes_switched_on),
            format!("{:.1}", r.reconfig_energy_j / 1_000.0),
            format!("{:.4}", 100.0 * r.qos.shortfall_fraction()),
        ]);
    }
    t.print(args.csv);
    println!(
        "\nThe transition-aware scheduler suppresses reconfigurations whose On/Off energy\n\
         exceeds what the better-fitting combination saves within the decision horizon."
    );
}
