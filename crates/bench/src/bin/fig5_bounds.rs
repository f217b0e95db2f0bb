//! Figure 5 — energy consumption comparison with lower and upper bounds
//! over the World-Cup-like trace, days 6-92.
//!
//! Runs the four scenarios of paper Sec. V-C (UpperBound Global,
//! UpperBound PerDay, Big-Medium-Little, LowerBound Theoretical), prints
//! the per-day energies and the BML-vs-lower-bound overhead statistics
//! the paper quotes (+32% average, +6.8% min, +161.4% max). A fifth row,
//! `Offline Optimal`, is the replay-verified minimum achievable energy
//! from `bml-opt`'s segment DP — the *reachable* floor between the
//! theoretical lower bound (free transitions) and the live scheduler.
//!
//! ```text
//! cargo run --release -p bml-bench --bin fig5_bounds -- \
//!     [--days N] [--seed N] [--window S] [--stepping event|per-second] \
//!     [--threads N] [--csv] [--json PATH] [--telemetry-out PATH]
//! ```
//!
//! `--threads N` caps the offline-optimal solve, whose backtrack
//! recomputes its windows on up to `N` threads (default: available
//! parallelism); results are the same at every `N`. The comparison's four
//! scenarios run on `rayon::join` threads, which no cap governs, so they
//! run four at a time whatever `N` is.
//!
//! With `--json PATH` a machine-readable summary (totals, per-day
//! energies, overhead statistics, wall time) is also written — the CI
//! smoke job runs `--days 2 --json BENCH_fig5.json` and
//! `--days 87 --json BENCH_fig5_87d.json`, gates the bound ordering on
//! both and uploads them as perf-trajectory artifacts. With
//! `--telemetry-out PATH` a `bml-obs/v1` telemetry document is written
//! too: engine counters (reconfigurations, segments batched, events
//! skipped, failure epochs) merged in scenario order on the deterministic
//! plane, the comparison and DP-solve wall clocks as spans on the host
//! plane.

use bml_bench::{json, Args};
use bml_core::bml::BmlInfrastructure;
use bml_core::catalog;
use bml_metrics::{fmt_percent, joules_to_kwh, Table};
use bml_sim::{run_comparison, SimConfig};
use bml_trace::worldcup::{generate, WorldCupParams};

fn main() {
    let args = Args::parse();
    let days = args.days_or(87); // the paper's full span
    let params = WorldCupParams {
        seed: args.seed,
        n_days: days,
        ..Default::default()
    };
    let trace = generate(&params);
    let bml = BmlInfrastructure::build(&catalog::table1()).expect("paper catalog builds");
    let config = SimConfig {
        window: args.window,
        stepping: args.stepping_or_default(),
        ..Default::default()
    };
    let stepping_name = match args.stepping_or_default() {
        bml_sim::Stepping::PerSecond => "per-second",
        bml_sim::Stepping::EventDriven => "event-driven",
    };

    eprintln!(
        "simulating {} days ({} seconds) x 4 scenarios ({stepping_name} stepping)...",
        days,
        trace.len()
    );
    let pool = args.pool();
    let started = std::time::Instant::now();
    let c = pool.install(|| run_comparison(&trace, &bml, &config));
    let wall_s = started.elapsed().as_secs_f64();
    eprintln!("solving the offline-optimal reconfiguration schedule (exact DP)...");
    let opt_started = std::time::Instant::now();
    let (opt_sched, opt_row) = pool
        .install(|| {
            bml_opt::solve_verified(&trace, &bml, config.split, &bml_opt::OptOptions::default())
        })
        .expect("exact DP cannot dead-end");
    let opt_wall_s = opt_started.elapsed().as_secs_f64();
    eprintln!(
        "optimal schedule: {} records over {} segments x {} states, \
         replay-verified to 1e-9 in {opt_wall_s:.3} s",
        opt_sched.schedule.len(),
        opt_sched.n_segments,
        opt_sched.n_states,
    );
    let mut bml_summary = c.bml.summary();
    bml_summary.attach_optimal(opt_sched.energy_j);
    let optimality_gap = bml_summary.optimality_gap.unwrap_or(f64::NAN);
    // Four scenarios replay the trace, so the engine throughput CI tracks
    // is total simulated seconds across scenarios per wall-clock second.
    let sim_seconds = trace.len();
    let sim_rate = 4.0 * sim_seconds as f64 / wall_s;
    eprintln!(
        "replayed 4 x {sim_seconds} simulated seconds in {wall_s:.3} s \
         ({sim_rate:.0} simulated-s/wallclock-s)"
    );

    println!(
        "Fig. 5 — energy per day (kWh), days {}..={}:\n",
        c.first_day,
        c.first_day + days - 1
    );
    let mut t = Table::new(&[
        "day",
        "UB Global",
        "UB PerDay",
        "BML",
        "LB Theoretical",
        "BML vs LB",
    ]);
    for d in 0..c.bml.daily_energy_j.len() {
        let lb = c.lower_bound.daily_energy_j[d];
        let bmld = c.bml.daily_energy_j[d];
        t.row(&[
            format!("{}", c.first_day + d as u32),
            format!("{:.2}", joules_to_kwh(c.ub_global.daily_energy_j[d])),
            format!("{:.2}", joules_to_kwh(c.ub_per_day.daily_energy_j[d])),
            format!("{:.2}", joules_to_kwh(bmld)),
            format!("{:.2}", joules_to_kwh(lb)),
            fmt_percent(100.0 * (bmld - lb) / lb),
        ]);
    }
    if args.csv {
        print!("{}", t.to_csv());
    } else {
        print!("{}", t.render());
    }

    println!("\nTotals over {} days:", days);
    let mut rows = c.scenarios().to_vec();
    rows.push(&opt_row);
    for s in rows.iter().copied() {
        println!(
            "  {:<22} {:>9.1} kWh  (mean {:>7.1} W, QoS shortfall {:.4}%, {} reconfigs, {} boots)",
            s.name,
            joules_to_kwh(s.total_energy_j),
            s.mean_power_w,
            100.0 * s.qos.shortfall_fraction(),
            s.reconfigurations,
            s.nodes_switched_on,
        );
    }
    println!(
        "\nBML vs theoretical lower bound (per-day): mean {}, min {}, max {}",
        fmt_percent(c.bml_vs_lower.mean),
        fmt_percent(c.bml_vs_lower.min),
        fmt_percent(c.bml_vs_lower.max)
    );
    println!(
        "BML vs offline optimum (reachable floor): {} — the part of the \
         lower-bound overhead a better scheduler could still recover",
        fmt_percent(100.0 * optimality_gap)
    );
    println!("Paper reports: mean +32%, min +6.8%, max +161.4% (on the real WC98 trace).");
    let saved = 1.0 - c.bml.total_energy_j / c.ub_global.total_energy_j;
    println!(
        "BML saves {:.1}% of the energy of the classical over-provisioned data center.",
        100.0 * saved
    );

    if let Some(path) = &args.json {
        let mut json_rows = c.scenarios().to_vec();
        json_rows.push(&opt_row);
        let scenarios = json_rows
            .iter()
            .map(|s| {
                json::Object::new()
                    .str("name", &s.name)
                    .num("total_energy_j", s.total_energy_j)
                    .num("mean_power_w", s.mean_power_w)
                    .nums("daily_energy_j", &s.daily_energy_j)
                    .int("reconfigurations", s.reconfigurations)
                    .int("nodes_switched_on", s.nodes_switched_on)
                    .num("qos_shortfall", s.qos.shortfall_fraction())
                    .str(
                        "stepping_effective",
                        bml_grid::spec::stepping_label(s.stepping_effective),
                    )
            })
            .collect();
        let summary = json::Object::new()
            .str("experiment", "fig5_bounds")
            .int("seed", args.seed)
            .int("days", u64::from(days))
            .str("stepping", stepping_name)
            .num("wall_s", wall_s)
            .int("sim_seconds", sim_seconds)
            .num("sim_seconds_per_wall_second", sim_rate)
            .num("energy_saving_vs_ub_global", saved)
            .num("optimal_energy_j", opt_sched.energy_j)
            .num("optimality_gap", optimality_gap)
            .int("optimal_reconfigurations", opt_sched.schedule.len() as u64)
            .num("optimal_wall_s", opt_wall_s)
            .obj(
                "bml_vs_lower_pct",
                json::Object::new()
                    .num("mean", c.bml_vs_lower.mean)
                    .num("min", c.bml_vs_lower.min)
                    .num("max", c.bml_vs_lower.max),
            )
            .objs("scenarios", scenarios);
        summary.write(path).expect("write JSON summary");
        eprintln!("wrote {path}");
    }

    if let Some(path) = &args.telemetry_out {
        let mut rec = bml_obs::Recorder::new();
        // Deterministic plane: engine counters merged in scenario order
        // (the four comparison rows, then the verified optimum's replay).
        let mut rows = c.scenarios().to_vec();
        rows.push(&opt_row);
        for s in rows.iter().copied() {
            rec.count("engine.reconfigurations", s.reconfigurations);
            rec.count("engine.nodes_switched_on", s.nodes_switched_on);
            rec.count("engine.nodes_switched_off", s.nodes_switched_off);
            rec.count("engine.failure_epochs", s.failures_injected);
            rec.count("engine.segments_batched", s.segments_batched);
            rec.count("engine.events_skipped", s.events_skipped);
            rec.count("engine.violation_seconds", s.qos.violation_seconds);
            rec.count("scenarios.run", 1);
        }
        rec.count("opt.solves", 1);
        rec.count("opt.states", opt_sched.n_states as u64);
        rec.count("opt.segments", opt_sched.n_segments as u64);
        rec.count("opt.boundaries", opt_sched.n_boundaries as u64);
        // Host plane: where the wall clock went.
        rec.span(
            "phase.comparison",
            std::time::Duration::from_secs_f64(wall_s),
        );
        rec.span(
            "phase.opt_solve",
            std::time::Duration::from_secs_f64(opt_wall_s),
        );
        let document = rec.render_document(&[
            ("experiment", "fig5_bounds".to_string()),
            ("seed", args.seed.to_string()),
            ("days", days.to_string()),
            ("stepping", stepping_name.to_string()),
        ]);
        std::fs::write(path, document).expect("write telemetry document");
        eprintln!("wrote {path}");
    }
}
