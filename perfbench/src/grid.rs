//! The `grid-cold` workload: the 144-cell smoke spec from an empty cache.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use bml_core::combination::SplitPolicy;
use bml_core::scheduler::paper_window_length;
use bml_grid::artifact::{
    csv_header_line, json_epilogue, json_prologue, render_cell_csv, render_cell_json,
};
use bml_grid::cache::{self, CacheStats, CellCache, OptEntry};
use bml_grid::journal::{run_fingerprint, CellEntry, Journal};
use bml_grid::json::Object;
use bml_grid::spec::{CatalogSpec, GridSpec, SchedulerDim};
use bml_grid::{
    pareto_frontier, per_dimension_bests, CellRecord, GridOutcome, GridRunner,
    StreamingArtifactWriter,
};
use bml_opt::OptOptions;
use bml_sim::exec::{run_cell, CellConfig};
use bml_sim::{replay_schedule, CellSummary, SimConfig, Stepping};
use bml_trace::LoadTrace;
use rayon::prelude::*;

use crate::{closed_loop, rel_err, timed, trace_shape, Checks, THREADS};

/// Days of trace the smoke spec replays.
const DAYS: u32 = 2;
/// Seed of the smoke spec's trace. Pinned: the trace seed moves the DP
/// state count (358–606 states over the six optima) and with it the opt
/// time by a third, which would make the workload seed the largest
/// source of run-to-run spread. The workload seed is the root seed that
/// derives every cell's noise seed.
const TRACE_SEED: u64 = 1998;
/// Retries granted to a panicking cell (the `grid` binary's default).
const MAX_RETRIES: u32 = 1;

/// (cell, opt) cache hit rates of a run from an empty cache.
const EXPECTED_HIT_RATES: (f64, f64) = (0.0, 0.0);

/// The 144-cell smoke spec: worldcup-tournament, 2 days x {table1,
/// big-medium, big-little} x {baseline, transition-aware} x {paper, 189 s,
/// 756 s} x sigma {0, 0.2} x {efficiency-greedy, proportional} x {event,
/// per-second}. At root seed 1998 this is exactly `grid --days 2`.
pub fn spec(root_seed: u64) -> GridSpec {
    GridSpec::builder()
        .name(format!("smoke-{DAYS}d"))
        .root_seed(root_seed)
        .trace("worldcup-tournament", DAYS, TRACE_SEED)
        .catalogs(vec![
            CatalogSpec::table1(),
            CatalogSpec::big_medium(),
            CatalogSpec::big_little(),
        ])
        .schedulers(vec![SchedulerDim::Baseline, SchedulerDim::TransitionAware])
        .windows(vec![None, Some(189), Some(756)])
        .noise_sigmas(vec![0.0, 0.2])
        .splits(vec![
            SplitPolicy::EfficiencyGreedy,
            SplitPolicy::ProportionalToCapacity,
        ])
        .steppings(vec![Stepping::EventDriven, Stepping::PerSecond])
        .build()
        .expect("the pinned smoke spec is valid")
}

fn io_err(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(io_err(path))?;
    }
    std::fs::create_dir_all(path).map_err(io_err(path))
}

/// One untraced iteration: what the `grid` binary does, through the
/// public API — stream the artifacts, journal every cell, then aggregate.
struct Untraced {
    wall_s: f64,
    outcome: GridOutcome,
    stats: CacheStats,
    phase_ms: [f64; 3],
    pool: [u64; 2],
    warnings: usize,
}

fn untraced_iteration(
    spec: &GridSpec,
    cache_dir: &Path,
    out_dir: &Path,
) -> Result<Untraced, String> {
    let t0 = Instant::now();
    let mut sink = StreamingArtifactWriter::create(out_dir).map_err(io_err(out_dir))?;
    let mut run = GridRunner::new(spec)
        .threads(THREADS)
        .cache_dir(cache_dir)
        .max_retries(MAX_RETRIES)
        .journal_dir(out_dir)
        .sink(&mut sink)
        .run()?;
    let render_t0 = Instant::now();
    std::hint::black_box((
        pareto_frontier(&run.outcome),
        per_dimension_bests(&run.outcome),
    ));
    run.telemetry.span("phase.render", render_t0.elapsed());
    let wall_s = t0.elapsed().as_secs_f64();
    let span_ms = |name: &str| {
        run.telemetry
            .timings
            .span(name)
            .map_or(0.0, |s| s.total_us as f64 / 1e3)
    };
    let host = |name: &str| run.telemetry.timings.host_get(name);
    Ok(Untraced {
        wall_s,
        phase_ms: [
            span_ms("phase.opt_solve"),
            span_ms("phase.cells"),
            span_ms("phase.render"),
        ],
        pool: [host("pool.tasks"), host("pool.steals")],
        stats: run.cache,
        warnings: run.warnings.len(),
        outcome: run.outcome,
    })
}

/// Validate the spec and resolve its traces and catalogs.
fn resolve_inputs(spec: &GridSpec) -> Result<(), String> {
    spec.validate()?;
    for t in &spec.traces {
        std::hint::black_box(t.resolve()?);
    }
    for c in &spec.catalogs {
        std::hint::black_box(c.resolve()?);
    }
    Ok(())
}

/// Set-up: resolve the spec's inputs `reps` times, timing each.
pub fn setup(seed: u64, reps: usize) -> Result<Object, String> {
    let spec = spec(seed);
    let mut setup_s = Vec::new();
    for _ in 0..reps.max(1) {
        let (done, s) = timed(|| resolve_inputs(&spec));
        done?;
        setup_s.push(s);
    }
    Ok(Object::new().nums("setup_s", &setup_s))
}

/// Per-call measurements of one traced iteration.
#[derive(Default)]
struct Traced {
    wall_s: f64,
    generate_ms: f64,
    infra_ms: f64,
    key_ms: f64,
    cache_open_ms: f64,
    load_us: Vec<f64>,
    store_us: Vec<f64>,
    solve_ms: Vec<f64>,
    verify_ms: Vec<f64>,
    opt_states: Vec<f64>,
    opt_boundaries: Vec<f64>,
    states_pruned: u64,
    schedule_records: u64,
    verify_rel_err: Vec<f64>,
    event_cell_ms: Vec<f64>,
    per_second_cell_ms: Vec<f64>,
    cells_wall_ms: f64,
    event_segments: u64,
    event_epochs: u64,
    events_skipped: u64,
    reconfigurations: u64,
    journal_ms: f64,
    append_us: Vec<f64>,
    append_bytes: u64,
    render_us: Vec<f64>,
    artifact_io_ms: f64,
    aggregate_ms: f64,
    stats: CacheStats,
    segments: u64,
    distinct_loads: u64,
    sim_seconds: u64,
    cache_entry_bytes: f64,
    cell_json: Vec<String>,
    optima: BTreeMap<(usize, usize, usize), f64>,
}

impl Traced {
    fn to_json(&self) -> Object {
        Object::new()
            .num("wall_s", self.wall_s)
            .num("generate_ms", self.generate_ms)
            .num("infra_ms", self.infra_ms)
            .num("key_ms", self.key_ms)
            .num("cache_open_ms", self.cache_open_ms)
            .nums("load_us", &self.load_us)
            .nums("store_us", &self.store_us)
            .nums("solve_ms", &self.solve_ms)
            .nums("verify_ms", &self.verify_ms)
            .nums("opt_states", &self.opt_states)
            .nums("opt_boundaries", &self.opt_boundaries)
            .int("states_pruned", self.states_pruned)
            .int("schedule_records", self.schedule_records)
            .nums("verify_rel_err", &self.verify_rel_err)
            .nums("event_cell_ms", &self.event_cell_ms)
            .nums("per_second_cell_ms", &self.per_second_cell_ms)
            .num("cells_wall_ms", self.cells_wall_ms)
            .int("event_segments", self.event_segments)
            .int("event_epochs", self.event_epochs)
            .int("events_skipped", self.events_skipped)
            .int("reconfigurations", self.reconfigurations)
            .num("journal_ms", self.journal_ms)
            .nums("append_us", &self.append_us)
            .int("append_bytes", self.append_bytes)
            .nums("render_us", &self.render_us)
            .num("artifact_io_ms", self.artifact_io_ms)
            .num("aggregate_ms", self.aggregate_ms)
            .int("cell_hits", self.stats.hits)
            .int("cell_lookups", self.stats.lookups)
            .int("opt_hits", self.stats.opt_hits)
            .int("opt_lookups", self.stats.opt_lookups)
            .int("segments", self.segments)
            .int("distinct_loads", self.distinct_loads)
            .int("sim_seconds", self.sim_seconds)
            .num("cache_entry_bytes", self.cache_entry_bytes)
    }
}

/// The cell knobs the executor derives from a cell's coordinates.
fn cell_config(
    spec: &GridSpec,
    bml: &bml_core::bml::BmlInfrastructure,
    c: &bml_grid::CellCoords,
) -> CellConfig {
    let window = spec.windows[c.window];
    let split = spec.splits[c.split];
    let window_s = window.unwrap_or_else(|| paper_window_length(bml.candidates()));
    CellConfig {
        scheduler: spec.schedulers[c.scheduler].resolve(window_s, split),
        window,
        noise_sigma: spec.noise_sigmas[c.sigma],
        noise_seed: c.seed,
        split,
        stepping: spec.steppings[c.stepping],
        ..CellConfig::from_sim(&SimConfig::default())
    }
}

/// Mean size of the cell entries under `dir/cells`.
fn mean_entry_bytes(dir: &Path) -> f64 {
    let Ok(entries) = std::fs::read_dir(dir.join("cells")) else {
        return 0.0;
    };
    let sizes: Vec<u64> = entries
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .collect();
    if sizes.is_empty() {
        0.0
    } else {
        sizes.iter().sum::<u64>() as f64 / sizes.len() as f64
    }
}

/// One traced iteration: the executor's steps in its order (resolve,
/// optima, journal, lookups, fan-out, store + journal + stream per cell,
/// aggregate), each layer's public call timed from outside.
fn traced_iteration(spec: &GridSpec, cache_dir: &Path, out_dir: &Path) -> Result<Traced, String> {
    let mut t = Traced::default();
    let t0 = Instant::now();
    spec.validate()?;
    let (traces, s) = timed(|| {
        spec.traces
            .iter()
            .map(|x| x.resolve())
            .collect::<Result<Vec<LoadTrace>, _>>()
    });
    let traces = traces?;
    t.generate_ms = s * 1e3;
    let (catalogs, s) = timed(|| {
        spec.catalogs
            .iter()
            .map(|c| c.resolve())
            .collect::<Result<Vec<_>, _>>()
    });
    let catalogs = catalogs?;
    t.infra_ms = s * 1e3;

    let (cache, s) = timed(|| CellCache::open(cache_dir));
    let cache = cache.map_err(io_err(cache_dir))?;
    t.cache_open_ms = s * 1e3;
    let (digests, s) = timed(|| {
        (
            traces.iter().map(cache::trace_digest).collect::<Vec<_>>(),
            catalogs
                .iter()
                .map(cache::catalog_digest)
                .collect::<Vec<_>>(),
        )
    });
    let (trace_digests, catalog_digests) = digests;
    t.key_ms += s * 1e3;

    let options = OptOptions::default();
    for (ti, trace) in traces.iter().enumerate() {
        for (ci, bml) in catalogs.iter().enumerate() {
            for (si, &split) in spec.splits.iter().enumerate() {
                t.stats.opt_lookups += 1;
                let (key, s) = timed(|| {
                    cache::opt_key(&trace_digests[ti], &catalog_digests[ci], split, &options)
                });
                t.key_ms += s * 1e3;
                let (hit, s) = timed(|| cache.load_opt(&key));
                t.load_us.push(s * 1e6);
                let entry = match hit {
                    Some(entry) => {
                        t.stats.opt_hits += 1;
                        entry
                    }
                    None => {
                        let (sched, s) = timed(|| bml_opt::solve(trace, bml, split, &options));
                        let sched = sched.ok_or("exact DP cannot dead-end")?;
                        t.solve_ms.push(s * 1e3);
                        let (replay, s) = timed(|| {
                            replay_schedule(trace, bml, &sched.initial, &sched.schedule, split)
                        });
                        t.verify_ms.push(s * 1e3);
                        t.verify_rel_err
                            .push(rel_err(sched.energy_j, replay.total_energy_j));
                        t.opt_states.push(sched.n_states as f64);
                        t.opt_boundaries.push(sched.n_boundaries as f64);
                        t.states_pruned += sched.states_pruned;
                        t.schedule_records += sched.schedule.len() as u64;
                        let entry = OptEntry::from_schedule(&sched);
                        let (stored, s) = timed(|| cache.store_opt(&key, &entry));
                        stored.map_err(io_err(cache_dir))?;
                        t.store_us.push(s * 1e6);
                        entry
                    }
                };
                t.optima.insert((ti, ci, si), entry.energy_j);
            }
        }
    }

    let fingerprint = run_fingerprint(spec, None, MAX_RETRIES);
    let (journal, s) = timed(|| Journal::create(out_dir, &fingerprint, None));
    let mut journal = journal.map_err(io_err(out_dir))?;
    t.journal_ms += s * 1e3;

    let coords = spec.cells();
    let json_path = out_dir.join("BENCH_grid.json");
    let csv_path = out_dir.join("BENCH_grid.csv");
    let (files, s) = timed(|| -> std::io::Result<_> {
        let mut json = BufWriter::new(File::create(&json_path)?);
        let mut csv = BufWriter::new(File::create(&csv_path)?);
        json.write_all(json_prologue(spec, coords.len(), None).as_bytes())?;
        csv.write_all(csv_header_line().as_bytes())?;
        Ok((json, csv))
    });
    let (mut json, mut csv) = files.map_err(io_err(out_dir))?;
    t.artifact_io_ms += s * 1e3;

    let configs: Vec<CellConfig> = coords
        .iter()
        .map(|c| cell_config(spec, &catalogs[c.catalog], c))
        .collect();
    let mut keys = Vec::with_capacity(coords.len());
    let mut summaries: Vec<Option<CellSummary>> = Vec::with_capacity(coords.len());
    for (c, config) in coords.iter().zip(&configs) {
        t.stats.lookups += 1;
        let (key, s) =
            timed(|| cache::cell_key(&trace_digests[c.trace], &catalog_digests[c.catalog], config));
        t.key_ms += s * 1e3;
        let (hit, s) = timed(|| cache.load_cell(&key));
        t.load_us.push(s * 1e6);
        if hit.is_some() {
            t.stats.hits += 1;
        }
        keys.push(key);
        summaries.push(hit);
    }

    let pending: Vec<usize> = (0..coords.len())
        .filter(|&i| summaries[i].is_none())
        .collect();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build()
        .expect("thread pool construction cannot fail");
    let (results, s) = timed(|| {
        pool.install(|| {
            let results: Vec<_> = pending
                .par_iter()
                .map(|&i| {
                    let c = &coords[i];
                    timed(|| run_cell(&traces[c.trace], &catalogs[c.catalog], &configs[i]))
                })
                .collect();
            results
        })
    });
    t.cells_wall_ms = s * 1e3;
    let mut computed = vec![false; coords.len()];
    for (&i, (result, s)) in pending.iter().zip(results) {
        match configs[i].stepping {
            Stepping::EventDriven => {
                t.event_cell_ms.push(s * 1e3);
                t.event_segments += result.segments_batched;
                t.event_epochs += traces[coords[i].trace].len() - result.events_skipped;
                t.events_skipped += result.events_skipped;
            }
            Stepping::PerSecond => t.per_second_cell_ms.push(s * 1e3),
        }
        t.reconfigurations += result.reconfigurations;
        summaries[i] = Some(result.summary());
        computed[i] = true;
    }

    let mut cells = Vec::with_capacity(coords.len());
    for (i, c) in coords.iter().enumerate() {
        let mut summary = summaries[i].take().expect("every cell is decided by now");
        if computed[i] {
            let (stored, s) = timed(|| cache.store_cell(&keys[i], &summary));
            stored.map_err(io_err(cache_dir))?;
            t.store_us.push(s * 1e6);
        }
        let entry = CellEntry::Done(summary.clone());
        let (appended, s) = timed(|| journal.append(c.index, &entry));
        t.append_bytes += appended.map_err(io_err(out_dir))? as u64;
        t.append_us.push(s * 1e6);
        let optimal = t.optima[&(c.trace, c.catalog, c.split)];
        summary.optimal_energy_j = Some(optimal);
        summary.optimality_gap = if optimal > 0.0 {
            Some((summary.total_energy_j - optimal) / optimal)
        } else {
            None
        };
        let record = CellRecord {
            labels: spec.cell_labels(c),
            coords: *c,
            summary,
        };
        let ((cell_json, cell_csv), s) =
            timed(|| (render_cell_json(&record), render_cell_csv(&record)));
        t.render_us.push(s * 1e6);
        let (written, s) = timed(|| -> std::io::Result<()> {
            if i > 0 {
                json.write_all(b",")?;
            }
            json.write_all(cell_json.as_bytes())?;
            csv.write_all(cell_csv.as_bytes())?;
            json.flush()?;
            csv.flush()
        });
        written.map_err(io_err(out_dir))?;
        t.artifact_io_ms += s * 1e3;
        t.cell_json.push(cell_json);
        cells.push(record);
    }
    let outcome = GridOutcome {
        spec: spec.clone(),
        cells,
        failed_cells: Vec::new(),
    };
    let (written, s) = timed(|| -> std::io::Result<()> {
        json.write_all(json_epilogue(&outcome).as_bytes())?;
        json.write_all(b"\n")?;
        json.flush()?;
        csv.flush()
    });
    written.map_err(io_err(out_dir))?;
    t.artifact_io_ms += s * 1e3;
    let (_, s) =
        timed(|| std::hint::black_box((pareto_frontier(&outcome), per_dimension_bests(&outcome))));
    t.aggregate_ms = s * 1e3;
    t.wall_s = t0.elapsed().as_secs_f64();

    let (segments, distinct) = traces.first().map_or((0, 0), trace_shape);
    t.segments = segments;
    t.distinct_loads = distinct;
    t.sim_seconds = coords
        .iter()
        .filter(|c| computed[c.index])
        .map(|c| traces[c.trace].len())
        .sum();
    t.cache_entry_bytes = mean_entry_bytes(cache_dir);
    Ok(t)
}

/// A fresh (empty) cache and output directory for one iteration, made
/// untimed.
fn prepare(work: &Path, name: &str) -> Result<(PathBuf, PathBuf), String> {
    let root = work.join(name);
    fresh_dir(&root)?;
    Ok((root.join("cache"), root.join("out")))
}

/// The closed loop: untraced iterations for `seconds` (half of them when
/// tracing), then traced iterations for the other half. Every iteration's
/// artifact must equal the first one's byte for byte, and miss the cache
/// on every lookup; the traced pass must render the same cells and find
/// the same optima as the untraced run.
pub fn measure(
    seed: u64,
    work: &Path,
    seconds: f64,
    trace: bool,
    checks: &mut Checks,
) -> Result<Object, String> {
    let spec = spec(seed);
    let untraced_seconds = if trace { seconds / 2.0 } else { seconds };
    let (want_cell, want_opt) = EXPECTED_HIT_RATES;
    let hit_rate = |hits: u64, lookups: u64| crate::ratio(hits as f64, lookups as f64);

    let mut wall_s = Vec::new();
    let mut phases: [Vec<f64>; 3] = Default::default();
    let mut pool: [Vec<f64>; 2] = Default::default();
    let mut first_artifact: Option<Vec<u8>> = None;
    let mut last_outcome: Option<GridOutcome> = None;
    let artifact_copy = work.join("artifact.json");
    closed_loop(untraced_seconds, 1, usize::MAX, |i| {
        let (cache_dir, out_dir) = prepare(work, "iter")?;
        let run = untraced_iteration(&spec, &cache_dir, &out_dir)?;
        wall_s.push(run.wall_s);
        for (series, v) in phases.iter_mut().zip(run.phase_ms) {
            series.push(v);
        }
        for (series, v) in pool.iter_mut().zip(run.pool) {
            series.push(v as f64);
        }
        let n = spec.n_cells() as u64;
        checks.tally(n, run.outcome.failed_cells.len() as u64, || {
            format!(
                "iteration {i}: {} cells quarantined",
                run.outcome.failed_cells.len()
            )
        });
        checks.check(run.warnings == 0, || {
            format!("iteration {i}: degraded components")
        });
        let rates = (
            hit_rate(run.stats.hits, run.stats.lookups),
            hit_rate(run.stats.opt_hits, run.stats.opt_lookups),
        );
        checks.check(rates == (want_cell, want_opt), || {
            format!(
                "iteration {i}: cache hit rates {rates:?}, want {:?}",
                (want_cell, want_opt)
            )
        });
        let path = out_dir.join("BENCH_grid.json");
        let bytes = std::fs::read(&path).map_err(io_err(&path))?;
        match &first_artifact {
            None => {
                std::fs::write(&artifact_copy, &bytes).map_err(io_err(&artifact_copy))?;
                first_artifact = Some(bytes);
            }
            Some(first) => checks.check(*first == bytes, || {
                format!("iteration {i}: artifact differs from iteration 0")
            }),
        }
        last_outcome = Some(run.outcome);
        Ok(())
    })?;

    let mut traced = Vec::new();
    if trace {
        let outcome = last_outcome
            .as_ref()
            .expect("at least one untraced iteration");
        let untraced_json: Vec<String> = outcome.cells.iter().map(render_cell_json).collect();
        let untraced_optima: BTreeMap<(usize, usize, usize), u64> = outcome
            .cells
            .iter()
            .map(|c| {
                let key = (c.coords.trace, c.coords.catalog, c.coords.split);
                (
                    key,
                    c.summary.optimal_energy_j.unwrap_or(f64::NAN).to_bits(),
                )
            })
            .collect();
        closed_loop(seconds - untraced_seconds, 1, 25, |i| {
            let (cache_dir, out_dir) = prepare(work, "traced")?;
            let t = traced_iteration(&spec, &cache_dir, &out_dir)?;
            checks.check(t.cell_json == untraced_json, || {
                format!("traced iteration {i}: cell renders differ from the untraced run")
            });
            let optima: BTreeMap<_, u64> =
                t.optima.iter().map(|(&k, v)| (k, v.to_bits())).collect();
            checks.check(optima == untraced_optima, || {
                format!("traced iteration {i}: optima differ from the untraced run")
            });
            let path = out_dir.join("BENCH_grid.json");
            let bytes = std::fs::read(&path).map_err(io_err(&path))?;
            checks.check(first_artifact.as_deref() == Some(&bytes[..]), || {
                format!("traced iteration {i}: artifact differs from the untraced one")
            });
            let off = t.verify_rel_err.iter().filter(|&&e| e > 1e-9).count() as u64;
            checks.tally(t.verify_rel_err.len() as u64, off, || {
                format!("traced iteration {i}: {off} opt replays off by more than 1e-9")
            });
            let rates = (
                hit_rate(t.stats.hits, t.stats.lookups),
                hit_rate(t.stats.opt_hits, t.stats.opt_lookups),
            );
            checks.check(rates == (want_cell, want_opt), || {
                format!("traced iteration {i}: cache hit rates {rates:?}")
            });
            traced.push(t.to_json());
            Ok(())
        })?;
    }

    Ok(Object::new()
        .str("workload", "grid")
        .nums("wall_s", &wall_s)
        .nums("phase_opt_solve_ms", &phases[0])
        .nums("phase_cells_ms", &phases[1])
        .nums("phase_render_ms", &phases[2])
        .nums("pool_tasks", &pool[0])
        .nums("pool_steals", &pool[1])
        .int("threads", THREADS as u64)
        .str("artifact", &artifact_copy.display().to_string())
        .objs("traced", traced))
}
