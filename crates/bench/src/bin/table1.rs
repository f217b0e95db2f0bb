//! Table I — performance and power profiles of each architecture.
//!
//! Runs the Step-1 profiling harness (Siege-like ramp + wattmeter + On/Off
//! measurement) against the five synthetic machine models and prints the
//! measured profiles next to the values published in the paper.
//!
//! ```text
//! cargo run --release -p bml-bench --bin table1 [--seed N] [--csv] [--json PATH]
//! ```
//!
//! With `--json PATH` the measured profiles (plus harness wall time) are
//! also written — the CI smoke job uploads `BENCH_table1.json` as part of
//! the perf-trajectory artifact.

use bml_bench::{json, Args, Table};
use bml_core::catalog;
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
    let machines = paper_machines();
    let started = std::time::Instant::now();
    let measured = profile_park(&machines, &cfg);
    let wall_s = started.elapsed().as_secs_f64();
    let published = catalog::table1();
    // Emulated benchmark-harness time: per machine, one idle run plus
    // `cores x max_concurrency_factor` levels of `repetitions` runs, each
    // `run_seconds` long — the table-1 equivalent of simulated seconds.
    let b = &cfg.benchmark;
    let emulated_s: u64 = machines
        .iter()
        .map(|m| {
            (1 + u64::from(m.cores * b.max_concurrency_factor) * u64::from(b.repetitions))
                * b.run_seconds
        })
        .sum();

    let mut table = Table::new(&[
        "architecture",
        "maxPerf (req/s)",
        "idle-max power (W)",
        "On (s)",
        "On (J)",
        "Off (s)",
        "Off (J)",
        "paper maxPerf",
        "paper idle-max",
    ]);
    for (m, p) in measured.iter().zip(&published) {
        table.row(&[
            m.name.clone(),
            format!("{:.0}", m.max_perf),
            format!("{:.1} - {:.1}", m.idle_power, m.max_power),
            format!("{:.0}", m.on_duration),
            format!("{:.0}", m.on_energy),
            format!("{:.0}", m.off_duration),
            format!("{:.1}", m.off_energy),
            format!("{:.0}", p.max_perf),
            format!("{:.1} - {:.1}", p.idle_power, p.max_power),
        ]);
    }
    println!(
        "Table I — measured by the profiling harness (seed {}) vs paper:\n",
        args.seed
    );
    table.print(args.csv);

    if let Some(path) = &args.json {
        let machine_objs = measured
            .iter()
            .map(|m| {
                json::Object::new()
                    .str("name", &m.name)
                    .num("max_perf", m.max_perf)
                    .num("idle_power_w", m.idle_power)
                    .num("max_power_w", m.max_power)
                    .num("on_duration_s", m.on_duration)
                    .num("on_energy_j", m.on_energy)
                    .num("off_duration_s", m.off_duration)
                    .num("off_energy_j", m.off_energy)
            })
            .collect();
        let summary = json::Object::new()
            .str("experiment", "table1")
            .int("seed", args.seed)
            .num("wall_s", wall_s)
            .int("sim_seconds", emulated_s)
            .num("sim_seconds_per_wall_second", emulated_s as f64 / wall_s)
            .objs("machines", machine_objs);
        summary.write(path).expect("write JSON summary");
        eprintln!("wrote {path}");
    }
}
