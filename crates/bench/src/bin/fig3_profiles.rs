//! Figure 3 — power and performance profiles of the web server on the
//! five profiled architectures.
//!
//! Prints the measured power-vs-request-rate curve of every machine (one
//! node each), as the profiling harness sees it.
//!
//! ```text
//! cargo run --release -p bml-bench --bin fig3_profiles [--seed N] [--csv]
//! ```

use bml_bench::{Args, Table};
use bml_profiler::{paper_machines, profile_park, BenchmarkConfig, ProfilerConfig};

fn main() {
    let args = Args::parse();
    let cfg = ProfilerConfig {
        benchmark: BenchmarkConfig {
            seed: args.seed,
            ..Default::default()
        },
        round_max_perf: true,
    };
    let profiles = profile_park(&paper_machines(), &cfg);

    println!("Fig. 3 — measured power/performance profiles (linear model, one node):\n");
    let mut t = Table::new(&[
        "utilization",
        "paravance",
        "taurus",
        "graphene",
        "chromebook",
        "raspberry",
    ]);
    for pct in (0..=100u32).step_by(10) {
        let u = f64::from(pct) / 100.0;
        let mut row = vec![format!("{pct}%")];
        for p in &profiles {
            row.push(format!(
                "{:.2} W @ {:.0} req/s",
                p.power_at(u * p.max_perf),
                u * p.max_perf
            ));
        }
        t.row(&row);
    }
    t.print(args.csv);
    println!("\nmaxPerf summary (req/s):");
    for p in &profiles {
        println!(
            "  {:<10} {:>6.0} req/s, {:>6.1}-{:>6.1} W ({:.3} W per req/s at full load)",
            p.name,
            p.max_perf,
            p.idle_power,
            p.max_power,
            p.full_load_cost()
        );
    }
}
