//! Quickstart: build a BML infrastructure from the paper's Table I
//! catalog, inspect the thresholds, query combinations, and drive the
//! pro-active scheduler by hand.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bml::prelude::*;

fn main() {
    // Step 1: architecture profiles. Here we use the catalog the paper
    // measured; `bml::profiler` can measure your own machine models.
    let profiles = bml::core::catalog::table1();
    println!("Input architectures:");
    for p in &profiles {
        println!(
            "  {:<10} maxPerf {:>6.0} req/s, {:>5.1}-{:>6.1} W, boot {:>4.0} s",
            p.name, p.max_perf, p.idle_power, p.max_power, p.on_duration
        );
    }

    // Steps 2-4: filter candidates, compute crossing points.
    let infra = BmlInfrastructure::build(&profiles).expect("catalog is valid");
    println!(
        "\nBML candidates (Big -> Little): {:?}",
        infra
            .candidates()
            .iter()
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>()
    );
    for (p, r) in infra.removed() {
        println!("  removed {}: {r:?}", p.name);
    }
    println!(
        "Minimum utilization thresholds: {:?} req/s",
        infra.threshold_rates()
    );

    // Step 5: ideal combinations for a few rates.
    println!("\nIdeal combinations:");
    for rate in [1.0, 10.0, 100.0, 529.0, 1500.0, 4000.0] {
        let combo = infra.ideal_combination(rate);
        let c = combo.counts(infra.n_archs());
        println!(
            "  {:>6.0} req/s -> Big {:>2}, Medium {:>2}, Little {:>2}  ({:>7.2} W vs {:>7.2} W all-Big)",
            rate,
            c[0],
            c[1],
            c[2],
            infra.power_at(rate),
            infra.big_stack_power(rate)
        );
    }

    // The scheduler: feed it predictions, apply its plans.
    println!("\nScheduler walk-through:");
    let mut sched = ProActiveScheduler::new(infra.n_archs(), SchedulerKind::Baseline);
    let timeline = [
        (0u64, 40.0),
        (1, 40.0),
        (40, 700.0),
        (250, 700.0),
        (300, 5.0),
    ];
    for (t, predicted) in timeline {
        match sched.decide(t, predicted, &infra) {
            Decision::Reconfigure(plan) => println!(
                "  t={t:>4}s predict {predicted:>6.0} -> reconfigure: +{} -{} machines, {:.0} s, {:.0} J",
                plan.nodes_switched_on(),
                plan.nodes_switched_off(),
                plan.duration,
                plan.energy
            ),
            Decision::Locked { until } => {
                println!("  t={t:>4}s predict {predicted:>6.0} -> locked until t={until}s")
            }
            Decision::NoChange => println!("  t={t:>4}s predict {predicted:>6.0} -> no change"),
        }
    }
    println!(
        "\nScheduler stats: {} reconfigurations, {} boots, {:.0} J of transition energy.",
        sched.stats().reconfigurations,
        sched.stats().nodes_switched_on,
        sched.stats().reconfig_energy
    );
}
