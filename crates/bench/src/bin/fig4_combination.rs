//! Figure 4 — consumption of the ideal BML combination over an increasing
//! performance rate, up to `maxPerf(Big)`, compared to the all-Big
//! provisioning and to the "BML linear" goal line.
//!
//! The text table samples every 37th rate (0, 37, ..., 1295 req/s); with
//! `--csv` the table has one row per integer rate from 0 to 1331 req/s
//! (1,332 rows), the series the figure plots. Both outputs end with the
//! key operating points of Sec. V-B.
//!
//! ```text
//! cargo run --release -p bml-bench --bin fig4_combination -- [--csv]
//! ```

use bml_bench::{Args, Table};
use bml_core::bml::BmlInfrastructure;
use bml_core::catalog;

fn main() {
    let args = Args::parse();
    let bml = BmlInfrastructure::build(&catalog::table1()).expect("paper catalog builds");
    let max_rate = bml.big().max_perf as u64;

    println!(
        "Fig. 4 — BML combination power vs rate (candidates: {:?}, thresholds {:?}):\n",
        bml.candidates()
            .iter()
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>(),
        bml.threshold_rates()
    );

    let mut t = Table::new(&[
        "rate (req/s)",
        "BML (W)",
        "Big only (W)",
        "BML linear (W)",
        "combination (Big/Med/Little)",
    ]);
    let step = if args.csv { 1 } else { 37 };
    for r in (0..=max_rate).step_by(step) {
        let rate = r as f64;
        let combo = bml.ideal_combination(rate);
        let counts = combo.counts(bml.n_archs());
        t.row(&[
            format!("{r}"),
            format!("{:.2}", bml.power_at(rate)),
            format!("{:.2}", bml.big_stack_power(rate)),
            format!("{:.2}", bml.bml_linear_power(rate)),
            format!("{}/{}/{}", counts[0], counts[1], counts[2]),
        ]);
    }
    t.print(args.csv);

    // Key operating points called out in the paper's Sec. V-B.
    println!("\nKey points:");
    for r in [1u64, 9, 10, 33, 100, 528, 529, 1000, 1331] {
        let rate = r as f64;
        let counts = bml.ideal_combination(rate).counts(3);
        println!(
            "  {:>5} req/s -> {:>7.2} W  (Big {:>2}, Medium {:>2}, Little {:>2}) vs Big-only {:>7.2} W",
            r,
            bml.power_at(rate),
            counts[0],
            counts[1],
            counts[2],
            bml.big_stack_power(rate)
        );
    }
    let idle_savings = bml.big().idle_power / bml.little().idle_power;
    println!(
        "\nAt 1 req/s BML draws {:.2} W against the Big's {:.1} W idle floor ({:.0}x less static cost).",
        bml.power_at(1.0),
        bml.big().idle_power,
        idle_savings
    );
}
