//! Multi-dimensional scenario grid over the BML simulator.
//!
//! Enumerates the smoke grid — catalog mixes x schedulers x windows x
//! prediction noise x split policies x both stepping modes on a
//! World-Cup-like tournament trace — executes every cell rayon-parallel
//! with deterministic per-cell seeds, and streams the versioned
//! `BENCH_grid.json` + `BENCH_grid.csv` artifacts as cells complete. For
//! a fixed seed the artifacts are byte-identical at any `--threads`
//! setting and at any cache temperature.
//!
//! ```text
//! cargo run --release -p bml-bench --bin grid -- \
//!     [--days N] [--seed N] [--threads N] [--out-dir PATH] [--csv] \
//!     [--cache-dir PATH] [--stepping event|per-second] \
//!     [--resume] [--max-retries N] [--chaos SEED] [--kill-after N] \
//!     [--telemetry-out PATH]
//! ```
//!
//! Without `--stepping` the grid sweeps *both* modes as a dimension (CI
//! diffs the twins); with it, only the requested mode runs. With
//! `--cache-dir`, cell results are memoized content-addressed under that
//! directory.
//!
//! # Telemetry
//!
//! Every run writes a `bml-obs/v1` telemetry document (default
//! `BENCH_grid.telemetry.json` under `--out-dir`, overridable with
//! `--telemetry-out`): deterministic counters in the `counters` section
//! (byte-identical across thread counts and cache temperature — CI gates
//! on them), host timings and host-variant counts (cache hits, pool
//! tasks, retries) in the `timings` section (never gated). Progress goes to
//! stderr as single-line JSON events — a throttled `heartbeat` with the
//! cells-per-second rate while running, then `cache`/`phases`/`done`
//! summaries; every event keeps a human-readable `message` field. Panics,
//! caught or not, are `panic` events too.
//!
//! # Fault tolerance
//!
//! Every run journals decided cells into `--out-dir` (checksummed,
//! append-only `BENCH_grid.journal`); `--kill-after N` crashes the run
//! deterministically after N cells, and `--resume` replays the journal
//! instead of recomputing — the resumed artifacts are byte-identical to
//! an uninterrupted run. Panicking cells are retried (`--max-retries`,
//! default 1) with the same seed and then quarantined into the
//! artifact's `failed_cells` section instead of aborting the grid.
//! `--chaos SEED` injects cell panics (p=0.25 per attempt) and torn
//! journal writes (p=0.1 per record) on a seeded, thread-count-
//! independent schedule — the CI chaos job kills such a run mid-flight,
//! resumes it, and diffs the artifacts against a clean run.

use std::path::Path;

use bml_bench::{joules_to_kwh, json, smoke_spec, Args, Table};
use bml_grid::{
    pareto_frontier, per_dimension_bests, ChaosPolicy, GridRunner, StreamingArtifactWriter,
};
use bml_sim::Stepping;

/// Print one structured event as a single JSON line on stderr.
fn event(obj: json::Object) {
    eprintln!("{}", obj.render());
}

/// Replace the default panic hook's multi-line text with one `panic`
/// event per panic, so stderr stays one JSON event per line under
/// `--chaos`, whose cell panics are caught and retried or quarantined.
/// The event carries `message` and `location`, and a `backtrace` only
/// when `RUST_BACKTRACE` asks for one (the JSON escaping keeps it on its
/// line).
fn install_panic_hook() {
    let backtraces = std::env::var_os("RUST_BACKTRACE").is_some_and(|v| v != "0");
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload_as_str()
            .unwrap_or("<non-string panic payload>");
        let location = info
            .location()
            .map_or_else(|| "<unknown>".to_string(), ToString::to_string);
        let mut panic = json::Object::new()
            .str("event", "panic")
            .str("message", message)
            .str("location", &location);
        if backtraces {
            let trace = std::backtrace::Backtrace::force_capture();
            panic = panic.str("backtrace", &trace.to_string());
        }
        event(panic);
    }));
}

fn main() {
    install_panic_hook();
    let args = Args::parse();
    let days = args.days_or(3); // the grid multiplies the trace 144-fold; default small
    let steppings = match args.stepping {
        None => vec![Stepping::EventDriven, Stepping::PerSecond],
        Some(s) => vec![s],
    };
    let spec = smoke_spec(days, args.seed, steppings);
    let threads_label = args
        .threads
        .map_or_else(|| "default".to_string(), |n| n.to_string());
    event(
        json::Object::new()
            .str("event", "start")
            .str("grid", &spec.name)
            .int("cells", spec.n_cells() as u64)
            .int("days", u64::from(days))
            .str("threads", &threads_label)
            .str(
                "message",
                &format!(
                    "grid '{}': {} cells x {days} days, {threads_label} threads...",
                    spec.name,
                    spec.n_cells(),
                ),
            ),
    );
    let mut sink = StreamingArtifactWriter::create(Path::new(&args.out_dir)).unwrap_or_else(|e| {
        event(json::Object::new().str("event", "error").str(
            "message",
            &format!("cannot open artifacts under {}: {e}", args.out_dir),
        ));
        std::process::exit(1)
    });
    let started = std::time::Instant::now();
    let out_dir = Path::new(&args.out_dir);
    let mut runner = GridRunner::new(&spec)
        .max_retries(args.max_retries_or(1))
        .heartbeat()
        .sink(&mut sink);
    if let Some(n) = args.threads {
        runner = runner.threads(n);
    }
    if let Some(dir) = &args.cache_dir {
        runner = runner.cache_dir(dir);
    }
    runner = if args.resume {
        runner.resume(out_dir)
    } else {
        runner.journal_dir(out_dir)
    };
    if let Some(seed) = args.chaos {
        // The smoke chaos schedule: enough cell panics that retries and
        // quarantine both fire on a 144-cell grid, plus torn journal
        // records to exercise resume recovery. Sink/cache I/O faults are
        // deliberately excluded — CI gates on the artifact file.
        runner = runner.chaos(ChaosPolicy::new(seed).panic_prob(0.25).torn_write_prob(0.1));
    }
    if let Some(n) = args.kill_after {
        runner = runner.kill_after_cells(n);
    }
    let mut run = runner.run().unwrap_or_else(|e| {
        event(
            json::Object::new()
                .str("event", "error")
                .str("message", &format!("grid run failed: {e}")),
        );
        std::process::exit(2)
    });
    let wall_s = started.elapsed().as_secs_f64();
    for w in &run.warnings {
        event(
            json::Object::new()
                .str("event", "warning")
                .str("component", w.component)
                .str(
                    "message",
                    &format!("warning: {} degraded: {}", w.component, w.message),
                ),
        );
    }
    if !run.outcome.failed_cells.is_empty() {
        let failed = run.outcome.failed_cells.len();
        let total = run.outcome.cells.len() + failed;
        event(
            json::Object::new()
                .str("event", "quarantine")
                .int("failed_cells", failed as u64)
                .int("total_cells", total as u64)
                .str(
                    "message",
                    &format!(
                        "quarantined {failed} of {total} cells after exhausted retries \
                         (see failed_cells in the artifact)"
                    ),
                ),
        );
    }
    let n_ok = run.outcome.cells.len();
    let sim_seconds = n_ok as u64 * u64::from(days) * 86_400;
    event(
        json::Object::new()
            .str("event", "done")
            .int("cells", n_ok as u64)
            .int("sim_seconds", sim_seconds)
            .num("wall_s", wall_s)
            .num("cells_per_s", n_ok as f64 / wall_s)
            .num("sim_seconds_per_wall_second", sim_seconds as f64 / wall_s)
            .str(
                "message",
                &format!(
                    "ran {n_ok} cells ({sim_seconds} simulated seconds) in {wall_s:.2} s \
                     ({:.1} cells/s)",
                    n_ok as f64 / wall_s,
                ),
            ),
    );
    if args.cache_dir.is_some() {
        // Telemetry only — CI reads the same numbers from the telemetry
        // artifact's host section; artifacts never carry them.
        event(
            json::Object::new()
                .str("event", "cache")
                .int("hits", run.cache.hits)
                .int("lookups", run.cache.lookups)
                .int("opt_hits", run.cache.opt_hits)
                .int("opt_lookups", run.cache.opt_lookups)
                .num("hit_rate", run.cache.hit_rate())
                .str(
                    "message",
                    &format!(
                        "cell cache: {} hits / {} lookups ({:.1}%), \
                         {} opt hits / {} opt lookups",
                        run.cache.hits,
                        run.cache.lookups,
                        100.0 * run.cache.hit_rate(),
                        run.cache.opt_hits,
                        run.cache.opt_lookups,
                    ),
                ),
        );
    }

    let render_t0 = std::time::Instant::now();
    let out = &run.outcome;
    println!(
        "Grid '{}' — best cell per dimension value (root seed {}):\n",
        spec.name, spec.root_seed
    );
    let mut t = Table::new(&[
        "dimension",
        "value",
        "best cell",
        "energy (kWh)",
        "QoS shortfall (%)",
    ]);
    for b in per_dimension_bests(out) {
        t.row(&[
            b.dimension,
            b.value,
            format!("{}", b.cell),
            format!("{:.2}", joules_to_kwh(b.total_energy_j)),
            format!("{:.4}", 100.0 * b.qos_shortfall),
        ]);
    }
    t.print(args.csv);

    let frontier = pareto_frontier(out);
    println!(
        "\nEnergy-vs-QoS Pareto frontier: {} of {} cells:\n",
        frontier.len(),
        out.cells.len()
    );
    let mut p = Table::new(&[
        "cell",
        "catalog",
        "scheduler",
        "window",
        "sigma",
        "split",
        "energy (kWh)",
        "QoS shortfall (%)",
    ]);
    for &i in &frontier {
        let c = &out.cells[i];
        p.row(&[
            // Enumeration index, matching the artifact's pareto entries.
            format!("{}", c.coords.index),
            c.labels[1].clone(),
            c.labels[2].clone(),
            c.labels[3].clone(),
            c.labels[4].clone(),
            c.labels[5].clone(),
            format!("{:.2}", joules_to_kwh(c.summary.total_energy_j)),
            format!("{:.4}", 100.0 * c.summary.qos_shortfall),
        ]);
    }
    p.print(args.csv);

    run.telemetry.span("phase.render", render_t0.elapsed());

    // Phase-timing summary: where the wall clock went, host plane only.
    let phase_us = |name: &str| run.telemetry.timings.span(name).map_or(0, |s| s.total_us);
    event(
        json::Object::new()
            .str("event", "phases")
            .int("opt_solve_us", phase_us("phase.opt_solve"))
            .int("cells_us", phase_us("phase.cells"))
            .int("render_us", phase_us("phase.render"))
            .str(
                "message",
                &format!(
                    "phases: opt solve {} us, cells {} us, render {} us",
                    phase_us("phase.opt_solve"),
                    phase_us("phase.cells"),
                    phase_us("phase.render"),
                ),
            ),
    );

    let telemetry_path = args.telemetry_out.clone().unwrap_or_else(|| {
        out_dir
            .join("BENCH_grid.telemetry.json")
            .display()
            .to_string()
    });
    let document = run.telemetry.render_document(&[
        ("experiment", "grid".to_string()),
        ("grid", spec.name.clone()),
        ("root_seed", spec.root_seed.to_string()),
        ("days", days.to_string()),
    ]);
    if let Err(e) = std::fs::write(&telemetry_path, document) {
        event(
            json::Object::new()
                .str("event", "warning")
                .str("component", "telemetry")
                .str(
                    "message",
                    &format!("warning: telemetry degraded: {telemetry_path}: {e}"),
                ),
        );
    }

    let (json_path, csv_path) = sink.paths();
    event(
        json::Object::new()
            .str("event", "artifacts")
            .str("json", &json_path.display().to_string())
            .str("csv", &csv_path.display().to_string())
            .str("telemetry", &telemetry_path)
            .str(
                "message",
                &format!(
                    "wrote {}, {}, and {telemetry_path}",
                    json_path.display(),
                    csv_path.display(),
                ),
            ),
    );
}
