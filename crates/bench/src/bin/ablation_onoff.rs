//! Ablation — sensitivity of BML to switch On/Off overheads.
//!
//! Scales the Table I transition durations and energies and re-runs the
//! BML scenario: with free transitions BML approaches the theoretical
//! lower bound; with inflated ones the scheduler's overheads grow and the
//! look-ahead window (tied to boot duration) widens.
//!
//! ```text
//! cargo run --release -p bml-bench --bin ablation_onoff -- \
//!     [--days N] [--seed N] [--stepping event|per-second] [--csv]
//! ```

use bml_bench::{joules_to_kwh, Args, Table};
use bml_core::bml::BmlInfrastructure;
use bml_core::catalog;
use bml_core::combination::SplitPolicy;
use bml_core::profile::ArchProfile;
use bml_sim::{overhead_stats, scenarios, SimConfig};
use bml_trace::registry;

fn scaled(profiles: &[ArchProfile], factor: f64) -> Vec<ArchProfile> {
    profiles
        .iter()
        .map(|p| ArchProfile {
            on_duration: p.on_duration * factor,
            on_energy: p.on_energy * factor,
            off_duration: p.off_duration * factor,
            off_energy: p.off_energy * factor,
            ..p.clone()
        })
        .collect()
}

fn main() {
    let args = Args::parse();
    let days = args.days_or(7); // the sweep repeats the simulation; default smaller
    let trace = registry::generate("worldcup-tournament", days, args.seed)
        .expect("a registered trace source");

    println!(
        "On/Off overhead ablation ({} days, seed {}):\n",
        days, args.seed
    );
    let mut t = Table::new(&[
        "cost factor",
        "window (s)",
        "energy (kWh)",
        "vs LB mean (%)",
        "reconfigs",
        "QoS shortfall (%)",
    ]);
    for factor in [0.0, 0.5, 1.0, 2.0, 5.0] {
        let profiles = scaled(&catalog::table1(), factor);
        let bml = BmlInfrastructure::build(&profiles).expect("scaled catalog builds");
        let window = bml_core::scheduler::paper_window_length(bml.candidates()).max(1);
        let config = SimConfig {
            window: Some(window),
            stepping: args.stepping_or_default(),
            ..Default::default()
        };
        let r = scenarios::bml_proactive(&trace, &bml, &config);
        let lb = scenarios::lower_bound_theoretical(&trace, &bml, SplitPolicy::EfficiencyGreedy);
        let stats = overhead_stats(&r.daily_energy_j, &lb.daily_energy_j);
        t.row(&[
            format!("{factor}x"),
            format!("{window}"),
            format!("{:.2}", joules_to_kwh(r.total_energy_j)),
            format!("{:.1}", stats.mean),
            format!("{}", r.reconfigurations),
            format!("{:.4}", 100.0 * r.qos.shortfall_fraction()),
        ]);
    }
    t.print(args.csv);
    println!("\nTransition costs are what separates BML from the unreachable lower bound.");
}
