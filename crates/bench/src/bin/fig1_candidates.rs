//! Figure 1 — candidate filtering on the illustrative architectures A-D.
//!
//! Prints the repeated (staircase) power profiles of A, B, C, D and the
//! Step-2 verdict: A, B, C are good BML candidates, D is removed because
//! its maximum power exceeds A's while it performs worse.
//!
//! ```text
//! cargo run --release -p bml-bench --bin fig1_candidates [--csv]
//! ```

use bml_bench::{Args, Table};
use bml_core::candidates::filter_candidates;
use bml_core::catalog;
use bml_core::profile::stack_power;

fn main() {
    let args = Args::parse();
    let archs = catalog::illustrative();

    // The staircase curves of Fig. 1, sampled every 25 rate units up to
    // beyond A's capacity so each profile repeats at least once.
    let mut curve = Table::new(&["rate", "A (W)", "B (W)", "C (W)", "D (W)"]);
    let limit = 700u64;
    for r in (0..=limit).step_by(25) {
        let rate = r as f64;
        curve.row(&[
            format!("{r}"),
            format!("{:.1}", stack_power(&archs[0], rate)),
            format!("{:.1}", stack_power(&archs[1], rate)),
            format!("{:.1}", stack_power(&archs[2], rate)),
            format!("{:.1}", stack_power(&archs[3], rate)),
        ]);
    }
    println!("Fig. 1 — stacked power profiles of illustrative architectures:\n");
    curve.print(args.csv);

    let set = filter_candidates(&archs).expect("illustrative set is valid");
    println!("\nStep 2 verdict:");
    for (p, label) in set.kept.iter().zip(set.class_labels()) {
        println!(
            "  kept    {:<2} -> {:<7} (maxPerf {:>5.0}, maxPower {:>6.1} W)",
            p.name, label, p.max_perf, p.max_power
        );
    }
    for (p, reason) in &set.removed {
        println!(
            "  removed {:<2} -> {:?} (maxPerf {:>5.0}, maxPower {:>6.1} W)",
            p.name, reason, p.max_perf, p.max_power
        );
    }
}
