//! Grid execution behind the [`GridRunner`] API.
//!
//! A run resolves the spec's traces and catalogs once, solves the offline
//! optimum per distinct `(trace, catalog, split)` triple up front — cache
//! misses concurrently on the run's worker pool, merged with the hits in
//! triple order — then fans the cells out over the shared `bml-sim` cell
//! executor in batches,
//! optionally short-circuiting each cell through the content-addressed
//! [`crate::cache::CellCache`] and streaming each completed record to a
//! [`crate::stream::CellSink`] in enumeration order.
//!
//! Determinism: cells carry seeds derived purely from the root seed and
//! their enumeration index, the parallel fan-out returns results in input
//! order whatever the worker count, cached summaries are stored without
//! (and re-stamped with) their optima — so the outcome, and every
//! artifact rendered or streamed from it, is identical at 1 thread and at
//! N, with a cold cache and a warm one.
//!
//! # Fault tolerance
//!
//! Every cell runs isolated ([`bml_sim::exec::run_cells_checked`]): a
//! panicking cell is retried up to [`GridRunner::max_retries`] extra
//! times with the **same seed** (a deterministic workload that panicked
//! once will panic again — the retry budget exists for injected and
//! environmental faults), and a cell that exhausts its budget is
//! **quarantined** into [`GridOutcome::failed_cells`] (artifact schema
//! `bml-grid/v5`) instead of aborting the run.
//!
//! With a journal directory configured, every decided cell (succeeded
//! *or* quarantined) is appended to a checksummed journal
//! ([`crate::journal`]) before the run moves on; [`GridRunner::resume`]
//! replays it so a killed run continues from the last durable cell and
//! still produces **byte-identical artifacts** to an uninterrupted run.
//!
//! I/O faults degrade instead of failing: a cache, sink, or journal
//! write error disables that component for the rest of the run and is
//! reported in [`GridRun::warnings`] — the run itself completes in
//! memory. Spec validation and trace/catalog resolution stay hard
//! errors (nothing has run yet, and the result could not be right).
//!
//! Seeded fault injection for all of the above lives in
//! [`crate::chaos`].
//!
//! ```no_run
//! # use bml_grid::{GridRunner, GridSpec};
//! # fn demo(spec: &GridSpec) -> Result<(), String> {
//! let run = GridRunner::new(spec)
//!     .threads(8)
//!     .cache_dir("/tmp/bml-cache")
//!     .resume("out") // journal to out/, replaying any prior attempt
//!     .run()?;
//! eprintln!("cache: {} hits / {} lookups", run.cache.hits, run.cache.lookups);
//! for w in &run.warnings {
//!     eprintln!("warning: {}: {}", w.component, w.message);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! The pre-[`GridRunner`] entry point [`run_grid`] remains as a thin
//! wrapper (no cache, no sink) for callers that just want an outcome.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bml_core::scheduler::paper_window_length;
use bml_obs::{Heartbeat, Recorder};
use bml_sim::exec::{run_cells_checked, CellConfig, CellJob};
use bml_sim::{CellSummary, SimConfig};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::cache::{self, CacheStats, CellCache, OptEntry};
use crate::chaos::{panic_digest, ChaosPolicy, STREAM_CACHE_IO, STREAM_SINK_IO};
use crate::journal::{self, CellEntry, Journal};
use crate::refine::RefineMeta;
use crate::spec::{CellCoords, GridSpec};
use crate::stream::CellSink;

/// Cells per fan-out batch: large enough to keep every worker busy,
/// small enough that the streaming sink checkpoints to disk at a steady
/// cadence on 10k+-cell grids.
const STREAM_BATCH: usize = 1024;

/// One executed cell: its coordinates, resolved dimension labels (in
/// [`crate::spec::DIMENSIONS`] order), and result summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellRecord {
    /// The cell's coordinates (flat index + per-dimension indices + seed).
    pub coords: CellCoords,
    /// Dimension labels, aligned with [`crate::spec::DIMENSIONS`].
    pub labels: Vec<String>,
    /// The scenario outcome summary.
    pub summary: CellSummary,
}

/// A quarantined cell: it exhausted its retry budget without producing a
/// result and was excluded from [`GridOutcome::cells`] instead of
/// aborting the run. Rendered into the artifact's `failed_cells` section
/// (schema `bml-grid/v5`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailedCell {
    /// The cell's coordinates (flat index + per-dimension indices + seed).
    pub coords: CellCoords,
    /// Dimension labels, aligned with [`crate::spec::DIMENSIONS`].
    pub labels: Vec<String>,
    /// Execution attempts consumed (the full retry budget).
    pub attempts: u32,
    /// [`crate::chaos::panic_digest`] of the last panic message (the
    /// artifact carries the digest, not the free-form message).
    pub panic_digest: String,
}

/// Outcome of one grid run: the spec that produced it plus every cell in
/// enumeration order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridOutcome {
    /// The executed spec.
    pub spec: GridSpec,
    /// Successfully executed cells, in enumeration order. With failures
    /// quarantined, indices into this vec are **not** enumeration
    /// indices — use [`CellRecord::coords`]`.index`.
    pub cells: Vec<CellRecord>,
    /// Quarantined cells, in enumeration order (empty on a clean run).
    /// `cells.len() + failed_cells.len()` always equals the spec's cell
    /// count: no cell is ever silently missing.
    pub failed_cells: Vec<FailedCell>,
}

/// A component degradation that happened during a run: the run completed
/// (in memory where necessary), but the named component stopped
/// persisting. Callers decide whether that is acceptable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunWarning {
    /// The degraded component: `"cache"`, `"sink"`, or `"journal"`.
    pub component: &'static str,
    /// What failed (the underlying I/O error).
    pub message: String,
}

/// A completed [`GridRunner`] run: the outcome plus the cache counters
/// (all zero when no cache directory was configured), any degradation
/// warnings, and the run's two-plane telemetry.
#[derive(Debug)]
pub struct GridRun {
    /// The executed grid.
    pub outcome: GridOutcome,
    /// Cell/optimum cache hit counters for this run.
    pub cache: CacheStats,
    /// Components that degraded during the run (empty = fully healthy).
    pub warnings: Vec<RunWarning>,
    /// Run telemetry (see [`bml_obs`]): the `counters` plane is merged in
    /// enumeration order and byte-identical across thread counts and
    /// cache temperature; everything host-dependent (cache hits, steals,
    /// retries, wall clock) lives on the `timings` plane.
    pub telemetry: Recorder,
}

/// Configures and executes one grid run (builder-style).
///
/// Replaces the old `run_grid(spec, threads)` positional call, which had
/// no room for the cache directory or the streaming sink without growing
/// a parameter list of `Option`s at every call site.
pub struct GridRunner<'a> {
    spec: &'a GridSpec,
    threads: Option<usize>,
    cache_dir: Option<PathBuf>,
    sink: Option<&'a mut dyn CellSink>,
    max_retries: u32,
    journal_dir: Option<PathBuf>,
    resume: bool,
    chaos: Option<ChaosPolicy>,
    kill_after: Option<usize>,
    heartbeat: Option<Duration>,
}

impl<'a> GridRunner<'a> {
    /// A runner for `spec` with no thread cap, no cache, no sink, no
    /// journal, no heartbeat, and one retry per panicking cell.
    pub fn new(spec: &'a GridSpec) -> Self {
        GridRunner {
            spec,
            threads: None,
            cache_dir: None,
            sink: None,
            max_retries: 1,
            journal_dir: None,
            resume: false,
            chaos: None,
            kill_after: None,
            heartbeat: None,
        }
    }

    /// Cap the worker-thread count (only changes wall-clock time, never
    /// results).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Cap the worker-thread count from an optional CLI flag (`None` =
    /// rayon's default).
    #[must_use]
    pub fn threads_opt(mut self, n: Option<usize>) -> Self {
        self.threads = n;
        self
    }

    /// Enable the content-addressed cell cache rooted at `dir`.
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Enable the cache from an optional CLI flag.
    #[must_use]
    pub fn cache_dir_opt(mut self, dir: Option<impl Into<PathBuf>>) -> Self {
        self.cache_dir = dir.map(Into::into);
        self
    }

    /// Stream completed cells (enumeration order) into `sink`.
    #[must_use]
    pub fn sink(mut self, sink: &'a mut dyn CellSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Extra execution attempts granted to a panicking cell before it is
    /// quarantined (default 1: two attempts total). Retries replay the
    /// **same seed** — the budget absorbs injected and environmental
    /// faults, not nondeterminism.
    #[must_use]
    pub fn max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    /// Journal every decided cell into `dir/`[`crate::journal::JOURNAL_NAME`],
    /// truncating any previous journal (this run starts from scratch).
    #[must_use]
    pub fn journal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self.resume = false;
        self
    }

    /// Resume from the journal in `dir`: cells already decided by a
    /// previous (killed) run with the same spec, retry budget, and chaos
    /// schedule are replayed from disk instead of recomputed, and the
    /// journal keeps growing from there. An absent, corrupt-tailed, or
    /// mismatched journal degrades to a fresh run, never an error.
    #[must_use]
    pub fn resume(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self.resume = true;
        self
    }

    /// Inject faults on `policy`'s seeded schedule (see [`crate::chaos`]).
    #[must_use]
    pub fn chaos(mut self, policy: ChaosPolicy) -> Self {
        self.chaos = Some(policy);
        self
    }

    /// Abort the run (an `Err`, after journaling) once `n` cells have
    /// been emitted — a deterministic stand-in for `kill -9` at a record
    /// boundary, used by the crash-resume tests and the CI chaos job.
    #[must_use]
    pub fn kill_after_cells(mut self, n: usize) -> Self {
        self.kill_after = Some(n);
        self
    }

    /// Emit a throttled progress heartbeat — one single-line JSON event
    /// on stderr at most every `interval`, carrying cells done / total
    /// and the cells-per-second rate. Off by default (tests and library
    /// callers stay silent); the `grid` binary turns it on.
    #[must_use]
    pub fn heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat = Some(interval);
        self
    }

    /// Execute every cell of the spec.
    ///
    /// Fails fast on an invalid spec (unknown trace source, unbuildable
    /// catalog mix, empty dimension) without running anything. Cell
    /// panics are retried and quarantined, I/O faults degrade with
    /// warnings (see the module docs); the only mid-run `Err` left is
    /// the deliberate [`GridRunner::kill_after_cells`] crash.
    pub fn run(self) -> Result<GridRun, String> {
        let spec = self.spec;
        let mut sink = self.sink;
        execute(
            spec,
            ExecOptions {
                threads: self.threads,
                cache_dir: self.cache_dir.as_deref(),
                refine_meta: None,
                max_retries: self.max_retries,
                journal_dir: self.journal_dir.as_deref(),
                resume: self.resume,
                chaos: self.chaos,
                kill_after: self.kill_after,
                heartbeat: self.heartbeat,
            },
            &mut sink,
        )
    }

    /// Adaptively refine the spec instead of running it exhaustively —
    /// see [`crate::refine`] for the bisection strategy and
    /// [`crate::refine::RefineBudget`] for the caps.
    pub fn refine(
        self,
        budget: &crate::refine::RefineBudget,
    ) -> Result<crate::refine::RefineOutcome, String> {
        crate::refine::drive(
            self.spec,
            self.threads,
            self.cache_dir.as_deref(),
            self.sink,
            budget,
        )
    }
}

/// Execute every cell of `spec`, `threads`-wide (`None` = rayon default),
/// without cache or sink. Thin compatibility wrapper over [`GridRunner`].
pub fn run_grid(spec: &GridSpec, threads: Option<usize>) -> Result<GridOutcome, String> {
    GridRunner::new(spec)
        .threads_opt(threads)
        .run()
        .map(|r| r.outcome)
}

/// Options of one [`execute`] call. The refinement driver uses the
/// defaults for everything past the cache (intermediate rounds are
/// re-entrant by construction — the cell cache makes them cheap — so the
/// journal, chaos, and kill knobs are not threaded through `refine`).
pub(crate) struct ExecOptions<'a> {
    pub threads: Option<usize>,
    pub cache_dir: Option<&'a std::path::Path>,
    pub refine_meta: Option<&'a RefineMeta>,
    pub max_retries: u32,
    pub journal_dir: Option<&'a std::path::Path>,
    pub resume: bool,
    pub chaos: Option<ChaosPolicy>,
    pub kill_after: Option<usize>,
    pub heartbeat: Option<Duration>,
}

impl Default for ExecOptions<'_> {
    fn default() -> Self {
        ExecOptions {
            threads: None,
            cache_dir: None,
            refine_meta: None,
            max_retries: 1,
            journal_dir: None,
            resume: false,
            chaos: None,
            kill_after: None,
            heartbeat: None,
        }
    }
}

/// The one execution path behind [`GridRunner::run`] and the refinement
/// driver. `opts.refine_meta` is embedded in the streamed prologue when
/// the stream is a refinement's final artifact.
pub(crate) fn execute(
    spec: &GridSpec,
    opts: ExecOptions<'_>,
    sink: &mut Option<&mut dyn CellSink>,
) -> Result<GridRun, String> {
    let threads = opts.threads;
    spec.validate()?;
    let traces: Vec<_> = spec
        .traces
        .iter()
        .map(|t| t.resolve())
        .collect::<Result<_, _>>()?;
    let catalogs: Vec<_> = spec
        .catalogs
        .iter()
        .map(|c| c.resolve())
        .collect::<Result<_, _>>()?;

    let mut stats = CacheStats::default();
    let mut telemetry = Recorder::new();
    let mut warnings: Vec<RunWarning> = Vec::new();
    // Disabled components stay disabled: after a write error there is no
    // telling what state the backing store is in, so the run degrades to
    // memory once and reports it, instead of hammering a dead disk.
    let mut cache_writes = true;
    let cache = match opts.cache_dir {
        Some(dir) => match CellCache::open(dir) {
            Ok(c) => Some(c),
            Err(e) => {
                warnings.push(RunWarning {
                    component: "cache",
                    message: format!("cache dir {}: {e}; running uncached", dir.display()),
                });
                None
            }
        },
        None => None,
    };
    // Digests are only needed for keying; skip the (trace-length) hashing
    // work entirely on uncached runs.
    let trace_digests: Vec<String> = match &cache {
        Some(_) => traces.iter().map(cache::trace_digest).collect(),
        None => Vec::new(),
    };
    let catalog_digests: Vec<String> = match &cache {
        Some(_) => catalogs.iter().map(cache::catalog_digest).collect(),
        None => Vec::new(),
    };

    // Optima first: one verified solve per distinct (trace, catalog,
    // split) triple — the only dimensions the optimum depends on. Solving
    // before the fan-out lets each record be stamped (and streamed)
    // complete the moment its cell finishes. Cache misses are solved
    // concurrently on the run's worker pool, then merged with the hits in
    // triple order `(t, c, s)`: cache writes and the `opt.*` counters
    // follow that order whichever solve finishes first, and solver
    // statistics travel with the cached entry, so the merged counters are
    // identical on cold, warm and partially warm caches.
    let opt_t0 = Instant::now();
    let opt_options = bml_opt::OptOptions::default();
    let triples: Vec<(usize, usize, usize)> = (0..traces.len())
        .flat_map(|t| (0..catalogs.len()).map(move |c| (t, c)))
        .flat_map(|(t, c)| (0..spec.splits.len()).map(move |s| (t, c, s)))
        .collect();
    // Per triple, when a cache is open: its key and the entry it hit.
    let lookups: Vec<Option<(String, Option<OptEntry>)>> = triples
        .iter()
        .map(|&(t, c, s)| {
            let cache = cache.as_ref()?;
            stats.opt_lookups += 1;
            let key = cache::opt_key(
                &trace_digests[t],
                &catalog_digests[c],
                spec.splits[s],
                &opt_options,
            );
            let hit = cache.load_opt(&key);
            if hit.is_some() {
                stats.opt_hits += 1;
            }
            Some((key, hit))
        })
        .collect();
    let misses: Vec<(usize, usize, usize)> = triples
        .iter()
        .zip(&lookups)
        .filter(|(_, lookup)| !matches!(lookup, Some((_, Some(_)))))
        .map(|(&triple, _)| triple)
        .collect();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads.map_or(0, |n| n.max(1)))
        .build()
        .expect("thread pool construction cannot fail");
    let solved: Vec<OptEntry> = pool.install(|| {
        misses
            .par_iter()
            .map(|&(t, c, s)| {
                let (sched, _) =
                    bml_opt::solve_verified(&traces[t], &catalogs[c], spec.splits[s], &opt_options)
                        .expect("exact DP cannot dead-end");
                OptEntry::from_schedule(&sched)
            })
            .collect()
    });
    let mut solved = solved.into_iter();
    let mut optima: BTreeMap<(usize, usize, usize), f64> = BTreeMap::new();
    for (triple, lookup) in triples.into_iter().zip(lookups) {
        let entry = match lookup {
            Some((_, Some(hit))) => hit,
            lookup => {
                let entry = solved.next().expect("one solve per miss");
                if let (Some(cache), Some((key, _))) = (&cache, &lookup) {
                    if cache_writes {
                        if let Err(e) = cache.store_opt(key, &entry) {
                            warnings.push(RunWarning {
                                component: "cache",
                                message: format!("cache write: {e}; caching disabled"),
                            });
                            cache_writes = false;
                        }
                    }
                }
                entry
            }
        };
        telemetry.count("opt.solves", 1);
        telemetry.count("opt.states", entry.n_states);
        telemetry.count("opt.segments", entry.n_segments);
        telemetry.count("opt.boundaries", entry.n_boundaries);
        telemetry.count("opt.states_pruned", entry.states_pruned);
        optima.insert(triple, entry.energy_j);
    }
    telemetry.span("phase.opt_solve", opt_t0.elapsed());

    // The journal replays decisions from a killed run with the same
    // fingerprint (spec + schema + RNG keying + retry budget + chaos
    // schedule); anything else starts fresh. Journal I/O failures
    // degrade — the run still completes, it just loses resumability.
    let fingerprint = journal::run_fingerprint(spec, opts.chaos.as_ref(), opts.max_retries);
    let mut journaled: BTreeMap<usize, CellEntry> = BTreeMap::new();
    let mut journal: Option<Journal> = match opts.journal_dir {
        Some(dir) if opts.resume => match Journal::resume(dir, &fingerprint, opts.chaos) {
            Ok((j, entries)) => {
                journaled = entries;
                Some(j)
            }
            Err(e) => {
                warnings.push(RunWarning {
                    component: "journal",
                    message: format!("journal resume: {e}; running unjournaled"),
                });
                None
            }
        },
        Some(dir) => match Journal::create(dir, &fingerprint, opts.chaos) {
            Ok(j) => Some(j),
            Err(e) => {
                warnings.push(RunWarning {
                    component: "journal",
                    message: format!("journal create: {e}; running unjournaled"),
                });
                None
            }
        },
        None => None,
    };
    if !journaled.is_empty() {
        telemetry.host_count("journal.replayed_cells", journaled.len() as u64);
    }

    let coords = spec.cells();
    telemetry.count("cells.total", coords.len() as u64);
    if let Some(s) = sink.as_deref_mut() {
        if let Err(e) = s.begin(spec, coords.len(), opts.refine_meta) {
            warnings.push(RunWarning {
                component: "sink",
                message: format!("artifact stream: {e}; streaming disabled"),
            });
            *sink = None;
        }
    }

    let max_attempts = opts.max_retries + 1;
    let base = SimConfig::default();
    let mut cells: Vec<CellRecord> = Vec::with_capacity(coords.len());
    let mut failed_cells: Vec<FailedCell> = Vec::new();
    let mut emitted = 0usize;
    // Work-steal accounting is process-global in the vendored pool, so
    // snapshot around the fan-out and report the delta (host plane: the
    // numbers move with thread count and machine load by design).
    let pool_before = rayon::pool_stats();
    let cells_t0 = Instant::now();
    let mut heartbeat = opts.heartbeat.map(Heartbeat::new);
    for batch in coords.chunks(STREAM_BATCH) {
        let batch_t0 = Instant::now();
        // Journal and cache lookups first; the parallel fan-out then only
        // sees undecided cells (in enumeration order, so results align
        // back by index).
        let configs: Vec<CellConfig> = batch
            .iter()
            .map(|c| {
                let bml = &catalogs[c.catalog];
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
                    ..CellConfig::from_sim(&base)
                }
            })
            .collect();
        let mut summaries: Vec<Option<CellSummary>> = vec![None; batch.len()];
        // Quarantine decisions: (attempts consumed, panic digest).
        let mut failures: Vec<Option<(u32, String)>> = vec![None; batch.len()];
        let mut keys: Vec<Option<String>> = vec![None; batch.len()];
        // Journal-replayed decisions are already durable; everything
        // decided *this* run gets appended.
        let mut from_journal: Vec<bool> = vec![false; batch.len()];
        for (i, (c, config)) in batch.iter().zip(&configs).enumerate() {
            if let Some(entry) = journaled.get(&c.index) {
                from_journal[i] = true;
                match entry {
                    CellEntry::Done(summary) => summaries[i] = Some(summary.clone()),
                    CellEntry::Failed {
                        attempts,
                        panic_digest,
                    } => failures[i] = Some((*attempts, panic_digest.clone())),
                }
                continue;
            }
            if let Some(cache) = &cache {
                stats.lookups += 1;
                let key =
                    cache::cell_key(&trace_digests[c.trace], &catalog_digests[c.catalog], config);
                let hit = cache.load_cell(&key);
                if hit.is_some() {
                    stats.hits += 1;
                }
                keys[i] = Some(key);
                summaries[i] = hit;
            }
        }

        // Isolated execution with bounded retry: every attempt replays
        // the same seed, and the chaos panic schedule is keyed on the
        // cell's enumeration index + attempt number — thread counts and
        // batch shapes can never move an injected fault.
        let mut pending: Vec<usize> = (0..batch.len())
            .filter(|&i| summaries[i].is_none() && failures[i].is_none())
            .collect();
        let mut computed: Vec<bool> = vec![false; batch.len()];
        let mut last_panic: Vec<Option<String>> = vec![None; batch.len()];
        for attempt in 1..=max_attempts {
            if pending.is_empty() {
                break;
            }
            let jobs: Vec<CellJob<'_>> = pending
                .iter()
                .map(|&i| CellJob {
                    trace: &traces[batch[i].trace],
                    bml: &catalogs[batch[i].catalog],
                    cell: configs[i].clone(),
                })
                .collect();
            let global: Vec<u64> = pending.iter().map(|&i| batch[i].index as u64).collect();
            if attempt > 1 {
                telemetry.host_count("retry.attempts", jobs.len() as u64);
            }
            if let Some(chaos) = opts.chaos.as_ref() {
                // The panic schedule is a pure function of (cell index,
                // attempt), so injections are countable without touching
                // the worker threads.
                let injected = global
                    .iter()
                    .filter(|&&g| chaos.should_panic(g, attempt).is_some())
                    .count();
                if injected > 0 {
                    telemetry.host_count("chaos.injections", injected as u64);
                }
            }
            let inject = opts
                .chaos
                .as_ref()
                .map(|chaos| move |pos: usize| chaos.should_panic(global[pos], attempt));
            let results = run_cells_checked(
                &jobs,
                threads,
                inject
                    .as_ref()
                    .map(|f| f as &(dyn Fn(usize) -> Option<String> + Sync)),
            );
            let mut still: Vec<usize> = Vec::new();
            for (pos, result) in results.into_iter().enumerate() {
                let i = pending[pos];
                match result {
                    Ok(r) => {
                        summaries[i] = Some(r.summary());
                        computed[i] = true;
                    }
                    Err(p) => {
                        last_panic[i] = Some(p.message);
                        still.push(i);
                    }
                }
            }
            pending = still;
        }
        for i in pending {
            let message = last_panic[i].take().unwrap_or_default();
            failures[i] = Some((max_attempts, panic_digest(&message)));
        }

        for (i, c) in batch.iter().enumerate() {
            // Persist computed results to the cache (journal hits and
            // cache hits are already durable there).
            if computed[i] && cache_writes {
                if let (Some(cache), Some(key), Some(summary)) = (&cache, &keys[i], &summaries[i]) {
                    let store = match opts
                        .chaos
                        .as_ref()
                        .and_then(|ch| ch.io_error(STREAM_CACHE_IO, c.index as u64))
                    {
                        Some(e) => Err(e),
                        None => cache.store_cell(key, summary),
                    };
                    if let Err(e) = store {
                        warnings.push(RunWarning {
                            component: "cache",
                            message: format!("cache write: {e}; caching disabled"),
                        });
                        cache_writes = false;
                    }
                }
            }
            // Journal the decision before emitting it anywhere else: once
            // appended, a kill cannot lose this cell.
            if !from_journal[i] {
                if let Some(j) = journal.as_mut() {
                    let entry = match (&summaries[i], &failures[i]) {
                        (Some(summary), _) => CellEntry::Done(summary.clone()),
                        (None, Some((attempts, digest))) => CellEntry::Failed {
                            attempts: *attempts,
                            panic_digest: digest.clone(),
                        },
                        (None, None) => unreachable!("every cell is decided by now"),
                    };
                    match j.append(c.index, &entry) {
                        Ok(bytes) => {
                            telemetry.host_count("journal.bytes_written", bytes as u64);
                        }
                        Err(e) => {
                            warnings.push(RunWarning {
                                component: "journal",
                                message: format!("journal write: {e}; journaling disabled"),
                            });
                            journal = None;
                        }
                    }
                }
            }

            match (summaries[i].take(), &failures[i]) {
                (Some(mut summary), _) => {
                    // Engine counters merge in enumeration order from the
                    // summary — which rides through cache and journal —
                    // so the totals are byte-identical whether the cell
                    // was computed, cache-served, or journal-replayed.
                    telemetry.count("cells.ok", 1);
                    telemetry.count("engine.reconfigurations", summary.reconfigurations);
                    telemetry.count("engine.nodes_switched_on", summary.nodes_switched_on);
                    telemetry.count("engine.nodes_switched_off", summary.nodes_switched_off);
                    telemetry.count("engine.instance_migrations", summary.instance_migrations);
                    telemetry.count("engine.violation_seconds", summary.violation_seconds);
                    telemetry.count("engine.segments_batched", summary.segments_batched);
                    telemetry.count("engine.events_skipped", summary.events_skipped);
                    telemetry.count("engine.fallback_unsegmented", summary.fallback_unsegmented);
                    let optimal = optima[&(c.trace, c.catalog, c.split)];
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
                    if let Some(s) = sink.as_deref_mut() {
                        let write = match opts
                            .chaos
                            .as_ref()
                            .and_then(|ch| ch.io_error(STREAM_SINK_IO, c.index as u64))
                        {
                            Some(e) => Err(e),
                            None => s.cell(&record),
                        };
                        if let Err(e) = write {
                            warnings.push(RunWarning {
                                component: "sink",
                                message: format!("artifact stream: {e}; streaming disabled"),
                            });
                            *sink = None;
                        }
                    }
                    cells.push(record);
                }
                (None, Some((attempts, digest))) => {
                    telemetry.count("cells.failed", 1);
                    failed_cells.push(FailedCell {
                        labels: spec.cell_labels(c),
                        coords: *c,
                        attempts: *attempts,
                        panic_digest: digest.clone(),
                    });
                }
                (None, None) => unreachable!("every cell is decided by now"),
            }
            emitted += 1;
            if let Some(hb) = heartbeat.as_mut() {
                if hb.ready() {
                    let ms = u64::try_from(hb.elapsed().as_millis())
                        .unwrap_or(u64::MAX)
                        .max(1);
                    let rate = (emitted as u64).saturating_mul(1000) / ms;
                    eprintln!(
                        "{{\"event\":\"heartbeat\",\"cells_done\":{emitted},\"cells_total\":{},\"elapsed_ms\":{ms},\"cells_per_s\":{rate}}}",
                        coords.len()
                    );
                }
            }
            if opts.kill_after == Some(emitted) {
                return Err(format!(
                    "simulated crash: killed after {emitted} of {} cells (journal durable at {})",
                    coords.len(),
                    journal
                        .as_ref()
                        .map(|j| j.path().display().to_string())
                        .unwrap_or_else(|| "<none>".into()),
                ));
            }
        }
        telemetry.timings.observe_us(
            "batch.wall_us",
            u64::try_from(batch_t0.elapsed().as_micros()).unwrap_or(u64::MAX),
        );
    }
    telemetry.span("phase.cells", cells_t0.elapsed());
    let pool_after = rayon::pool_stats();
    telemetry.host_count(
        "pool.tasks",
        pool_after.tasks.saturating_sub(pool_before.tasks),
    );
    telemetry.host_count(
        "pool.steals",
        pool_after.steals.saturating_sub(pool_before.steals),
    );
    telemetry.host_count("cache.cell_lookups", stats.lookups);
    telemetry.host_count("cache.cell_hits", stats.hits);
    telemetry.host_count("cache.opt_lookups", stats.opt_lookups);
    telemetry.host_count("cache.opt_hits", stats.opt_hits);

    let outcome = GridOutcome {
        spec: spec.clone(),
        cells,
        failed_cells,
    };
    if let Some(s) = sink.as_deref_mut() {
        if let Err(e) = s.finish(&outcome) {
            warnings.push(RunWarning {
                component: "sink",
                message: format!("artifact stream: {e}; streaming disabled"),
            });
            *sink = None;
        }
    }
    Ok(GridRun {
        outcome,
        cache: stats,
        warnings,
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CatalogSpec, SchedulerDim, TraceSpec};
    use bml_core::combination::SplitPolicy;
    use bml_sim::Stepping;

    fn small_spec() -> GridSpec {
        GridSpec {
            name: "unit".into(),
            root_seed: 7,
            traces: vec![TraceSpec {
                source: "square-bursts".into(),
                days: 1,
                seed: 0,
            }],
            catalogs: vec![CatalogSpec::paper_trio(), CatalogSpec::big_only()],
            schedulers: vec![SchedulerDim::Baseline],
            windows: vec![None],
            noise_sigmas: vec![0.0],
            splits: vec![SplitPolicy::EfficiencyGreedy],
            steppings: vec![Stepping::EventDriven],
        }
    }

    #[test]
    fn grid_runs_and_aligns_cells_with_enumeration() {
        let spec = small_spec();
        let out = run_grid(&spec, Some(2)).unwrap();
        assert_eq!(out.cells.len(), 2);
        for (i, c) in out.cells.iter().enumerate() {
            assert_eq!(c.coords.index, i);
            assert_eq!(c.labels.len(), crate::spec::DIMENSIONS.len());
            assert!(c.summary.total_energy_j > 0.0);
        }
        // The heterogeneous trio must beat the Big-only mix on a bursty
        // trace with deep lows.
        assert!(out.cells[0].summary.total_energy_j < out.cells[1].summary.total_energy_j);
    }

    #[test]
    fn every_cell_carries_a_verified_optimum() {
        let out = run_grid(&small_spec(), Some(1)).unwrap();
        for c in &out.cells {
            let opt = c.summary.optimal_energy_j.expect("optimum attached");
            let gap = c.summary.optimality_gap.expect("gap attached");
            assert!(opt > 0.0);
            // Noise-free cells serve in full, so the scheduler can never
            // beat the offline optimum.
            assert!(gap >= 0.0, "gap {gap} for {:?}", c.labels);
            assert!(
                (gap - (c.summary.total_energy_j - opt) / opt).abs() < 1e-12,
                "gap is derived from the two energies"
            );
        }
    }

    #[test]
    fn invalid_spec_fails_before_running() {
        let mut spec = small_spec();
        spec.traces[0].source = "bogus".into();
        assert!(run_grid(&spec, None).is_err());
        assert!(GridRunner::new(&spec).run().is_err());
    }

    #[test]
    fn runner_without_cache_reports_zero_stats() {
        let run = GridRunner::new(&small_spec()).threads(2).run().unwrap();
        assert_eq!(run.cache, CacheStats::default());
        assert_eq!(run.outcome.cells.len(), 2);
    }

    #[test]
    fn cached_run_equals_uncached_run() {
        let dir = std::env::temp_dir().join("bml_grid_executor_cache_test");
        std::fs::remove_dir_all(&dir).ok();
        let spec = small_spec();
        let plain = run_grid(&spec, Some(2)).unwrap();
        let cold = GridRunner::new(&spec)
            .threads(2)
            .cache_dir(&dir)
            .run()
            .unwrap();
        assert_eq!(cold.outcome, plain);
        assert_eq!(cold.cache.hits, 0);
        assert_eq!(cold.cache.lookups, 2);
        let warm = GridRunner::new(&spec)
            .threads(1)
            .cache_dir(&dir)
            .run()
            .unwrap();
        assert_eq!(warm.outcome, plain, "warm cache must not change results");
        assert_eq!(warm.cache.hits, 2);
        assert_eq!(warm.cache.opt_hits, warm.cache.opt_lookups);
        // The deterministic telemetry plane must not notice the cache
        // temperature; the host plane is where the hits show up.
        assert_eq!(
            cold.telemetry.render_counters(),
            warm.telemetry.render_counters(),
            "counters are cache-temperature-blind"
        );
        assert_eq!(warm.telemetry.counters.get("cells.ok"), 2);
        assert_eq!(warm.telemetry.counters.get("cells.failed"), 0);
        assert_eq!(warm.telemetry.counters.get("cells.total"), 2);
        assert!(warm.telemetry.counters.get("engine.segments_batched") > 0);
        assert_eq!(warm.telemetry.timings.host_get("cache.cell_hits"), 2);
        assert_eq!(cold.telemetry.timings.host_get("cache.cell_hits"), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
