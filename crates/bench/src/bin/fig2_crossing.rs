//! Figure 2 — crossing points between architectures (Step 3, left) and
//! between architectures and combinations of smaller ones (Step 4,
//! right), on the illustrative A/B/C trio.
//!
//! ```text
//! cargo run --release -p bml-bench --bin fig2_crossing [--csv]
//! ```

use bml_bench::{Args, Table};
use bml_core::catalog;
use bml_core::combination::ideal_fill;
use bml_core::crossing::{compute_thresholds, pairwise_thresholds};
use bml_core::profile::stack_power;

fn main() {
    let args = Args::parse();
    let abc = vec![
        catalog::illustrative_a(),
        catalog::illustrative_b(),
        catalog::illustrative_c(),
    ];
    let step3 = pairwise_thresholds(&abc);
    let step4 = compute_thresholds(&abc);

    println!("Fig. 2 — minimum utilization thresholds (A=Big, B=Medium, C=Little):\n");
    let mut t = Table::new(&[
        "architecture",
        "step 3 (pairwise)",
        "step 4 (vs combinations)",
    ]);
    for (i, name) in ["A (Big)", "B (Medium)", "C (Little)"].iter().enumerate() {
        t.row(&[
            name.to_string(),
            format!("{:.0} ({:?})", step3[i].rate, step3[i].kind),
            format!("{:.0} ({:?})", step4[i].rate, step4[i].kind),
        ]);
    }
    t.print(args.csv);

    // The curves around the Big crossing: single Big vs pure Medium stacks
    // (left plot) vs Medium+Little ideal combinations (right plot).
    let small = &abc[1..];
    let small_t: Vec<f64> = step4[1..].iter().map(|x| x.rate).collect();
    let mut curves = Table::new(&[
        "rate",
        "Big single (W)",
        "Medium stacks (W)",
        "Medium+Little combos (W)",
    ]);
    for r in (250..=500u64).step_by(10) {
        let rate = r as f64;
        curves.row(&[
            format!("{r}"),
            format!("{:.1}", abc[0].power_at(rate)),
            format!("{:.1}", stack_power(&abc[1], rate)),
            format!("{:.1}", ideal_fill(small, &small_t, rate).power(small)),
        ]);
    }
    println!("\nPower curves around the Big crossing:\n");
    curves.print(args.csv);
    println!(
        "\nStep 4 raises Big's threshold from {:.0} to {:.0}: mixing Little nodes into\n\
         Medium combinations removes the power jump of the Step-3 crossing.",
        step3[0].rate, step4[0].rate
    );
}
