//! Grid execution behind the [`GridRunner`] API.
//!
//! A run resolves the spec's traces and catalogs once, solves the offline
//! optimum per distinct `(trace, catalog, split)` triple up front — one
//! ordered parallel map over the triples in which a cache hit passes
//! through and a miss solves, the misses on one trace sharing one
//! [`bml_opt::SegmentIndex`] — then carries each batch of cells through
//! one pipeline: **lookup** (the journal, then the content-addressed
//! [`crate::cache::CellCache`]), **compute** (one fan-out over the shared
//! `bml-sim` cell executor for the cells neither served), **persist**
//! (the cache gets the cells computed this run, the journal every
//! decision it does not already hold) and **emit** (each record streamed
//! to a [`StreamingArtifactWriter`] in enumeration order). Both phases
//! run inside the run's one worker pool, whose cap
//! ([`GridRunner::threads`]) is the only thread setting.
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
//! panicking cell is retried at once, on its own worker inside the one
//! fan-out, up to [`GridRunner::max_retries`] extra times with the
//! **same seed** (a deterministic workload that panicked once will panic
//! again — the retry budget exists for injected and environmental
//! faults), and a cell that exhausts its budget is **quarantined** into
//! [`GridOutcome::failed_cells`] (artifact schema `bml-grid/v5`) instead
//! of aborting the run.
//!
//! With a journal directory configured, every decided cell (succeeded
//! *or* quarantined) is appended to a checksummed journal
//! ([`crate::journal`]) before the run moves on; [`GridRunner::resume`]
//! replays it so a killed run continues from the last journaled cell and
//! still produces **byte-identical artifacts** to an uninterrupted run.
//! Journal, cache and artifact writes are flushed, never synced: they
//! survive a killed process (what `--kill-after` and the CI chaos job
//! test), not an OS crash or power loss.
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

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use bml_obs::{Heartbeat, Recorder};
use bml_opt::SegmentIndex;
use bml_sim::exec::{run_cells_checked, CellConfig, CellJob};
use bml_sim::CellSummary;
use rayon::prelude::*;

use crate::cache::{self, CacheStats, CellCache, OptEntry};
use crate::chaos::{panic_digest, ChaosPolicy, STREAM_CACHE_IO, STREAM_SINK_IO};
use crate::journal::{self, CellEntry, Journal};
use crate::json::Object;
use crate::spec::{CellCoords, GridSpec};
use crate::stream::StreamingArtifactWriter;

/// Cells per fan-out batch: large enough to keep every worker busy,
/// small enough that the streaming sink checkpoints to disk at a steady
/// cadence on 10k+-cell grids.
const STREAM_BATCH: usize = 1024;

/// Least time between two progress heartbeats on stderr.
const HEARTBEAT_INTERVAL: Duration = Duration::from_secs(1);

/// The cell phase's progress: how many cells are decided, behind the
/// heartbeat throttle. A cell is decided once the journal or the cache
/// served it, once it computed, or once its last attempt panicked —
/// counted as it happens, on the worker that finished it, not when its
/// batch is emitted.
struct Progress {
    state: Mutex<(Heartbeat, u64)>,
    total: u64,
}

impl Progress {
    /// Count `cells` more decided cells; emit a heartbeat if one is due.
    fn advance(&self, cells: u64) {
        // Only a failed stderr write can panic under the lock, and it
        // leaves the count and the throttle valid.
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let (heartbeat, done) = &mut *state;
        *done += cells;
        if heartbeat.ready() {
            let ms = u64::try_from(heartbeat.elapsed().as_millis())
                .unwrap_or(u64::MAX)
                .max(1);
            let line = Object::new()
                .str("event", "heartbeat")
                .int("cells_done", *done)
                .int("cells_total", self.total)
                .int("elapsed_ms", ms)
                .int("cells_per_s", done.saturating_mul(1000) / ms);
            eprintln!("{}", line.render());
        }
    }
}

/// Where a cell's decision came from: replayed from the journal, served
/// by the cell cache, or run in this run's fan-out.
enum Source {
    Journal,
    Cache,
    Run,
}

/// One executed cell: its coordinates, resolved dimension labels (in
/// [`crate::spec::DIMENSIONS`] order), and result summary.
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
    /// cache temperature; everything host-dependent (cache hits, pool
    /// tasks, retries, wall clock) lives on the `timings` plane.
    pub telemetry: Recorder,
}

/// Configures and executes one grid run (builder-style).
pub struct GridRunner<'a> {
    spec: &'a GridSpec,
    threads: Option<usize>,
    cache_dir: Option<PathBuf>,
    sink: Option<&'a mut StreamingArtifactWriter>,
    max_retries: u32,
    journal_dir: Option<PathBuf>,
    resume: bool,
    chaos: Option<ChaosPolicy>,
    kill_after: Option<usize>,
    heartbeat: bool,
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
            heartbeat: false,
        }
    }

    /// Cap the worker-thread count of the run's pool, which both the
    /// optimum solves and the cell fan-out run in (only changes
    /// wall-clock time, never results).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Enable the content-addressed cell cache rooted at `dir`.
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Stream completed cells (enumeration order) into `sink`.
    #[must_use]
    pub fn sink(mut self, sink: &'a mut StreamingArtifactWriter) -> Self {
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
    /// on stderr at most once a second, carrying cells done / total and
    /// the cells-per-second rate. Off by default (tests and library
    /// callers stay silent); the `grid` binary turns it on.
    #[must_use]
    pub fn heartbeat(mut self) -> Self {
        self.heartbeat = true;
        self
    }

    /// Execute every cell of the spec.
    ///
    /// Fails fast on an invalid spec (unknown trace source, unbuildable
    /// catalog mix, empty dimension), or on a retry budget whose attempt
    /// count overflows `u32`, without running anything. Cell
    /// panics are retried and quarantined, I/O faults degrade with
    /// warnings (see the module docs); the only mid-run `Err` left is
    /// the deliberate [`GridRunner::kill_after_cells`] crash.
    pub fn run(self) -> Result<GridRun, String> {
        let GridRunner {
            spec,
            threads,
            cache_dir,
            mut sink,
            max_retries,
            journal_dir,
            resume,
            chaos,
            kill_after,
            heartbeat,
        } = self;
        let max_attempts = max_retries.checked_add(1).ok_or_else(|| {
            format!("a retry budget of {max_retries} overflows the u32 attempt count")
        })?;
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
        let cache = match cache_dir.as_deref() {
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
        // complete the moment its cell finishes. Every triple goes through
        // one ordered parallel map on the run's worker pool — a cache hit
        // passes through, a miss solves — so cache writes and the `opt.*`
        // counters follow triple order `(t, c, s)` whichever solve finishes
        // first, and solver statistics travel with the cached entry: the
        // counters are identical on cold, warm and partially warm caches.
        let opt_t0 = Instant::now();
        let opt_options = bml_opt::OptOptions::default();
        // Per triple: the triple, its cache key when a cache is open, and
        // the entry that key hit.
        let lookups: Vec<_> = (0..traces.len())
            .flat_map(|t| (0..catalogs.len()).map(move |c| (t, c)))
            .flat_map(|(t, c)| (0..spec.splits.len()).map(move |s| (t, c, s)))
            .map(|(t, c, s)| {
                let Some(cache) = &cache else {
                    return ((t, c, s), None, None);
                };
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
                ((t, c, s), Some(key), hit)
            })
            .collect();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads.map_or(0, |n| n.max(1)))
            .build()
            .expect("thread pool construction cannot fail");
        // One segment index per trace, built by the first solve that needs
        // it and shared by the trace's other triples; a warm cache builds
        // none. The indexes go when the opt phase ends.
        let indexes: Vec<OnceLock<SegmentIndex<'_>>> =
            traces.iter().map(|_| OnceLock::new()).collect();
        let entries: Vec<OptEntry> = pool.install(|| {
            lookups
                .par_iter()
                .map(|&((t, c, s), _, hit)| {
                    hit.unwrap_or_else(|| {
                        let index = indexes[t].get_or_init(|| SegmentIndex::new(&traces[t]));
                        let (sched, _) = bml_opt::solve_verified_indexed(
                            index,
                            &catalogs[c],
                            spec.splits[s],
                            &opt_options,
                        );
                        OptEntry::from_schedule(&sched)
                    })
                })
                .collect()
        });
        drop(indexes);
        let mut optima: BTreeMap<(usize, usize, usize), f64> = BTreeMap::new();
        for ((triple, key, hit), entry) in lookups.into_iter().zip(entries) {
            if let (Some(cache), Some(key), None, true) = (&cache, &key, hit, cache_writes) {
                if let Err(e) = cache.store_opt(key, &entry) {
                    warnings.push(RunWarning {
                        component: "cache",
                        message: format!("cache write: {e}; caching disabled"),
                    });
                    cache_writes = false;
                }
            }
            telemetry.count("opt.solves", 1);
            telemetry.count("opt.states", entry.n_states);
            telemetry.count("opt.segments", entry.n_segments);
            telemetry.count("opt.boundaries", entry.n_boundaries);
            optima.insert(triple, entry.energy_j);
        }
        telemetry.span("phase.opt_solve", opt_t0.elapsed());

        // The journal replays decisions from a killed run with the same
        // fingerprint (spec + schema + RNG keying + retry budget + chaos
        // schedule); anything else starts fresh. Journal I/O failures
        // degrade — the run still completes, it just loses resumability.
        let fingerprint = journal::run_fingerprint(spec, chaos.as_ref(), max_retries);
        let mut journaled: BTreeMap<usize, CellEntry> = BTreeMap::new();
        let mut journal: Option<Journal> = match journal_dir.as_deref() {
            Some(dir) if resume => match Journal::resume(dir, &fingerprint, chaos) {
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
            Some(dir) => match Journal::create(dir, &fingerprint, chaos) {
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
            if let Err(e) = s.begin(spec, coords.len()) {
                warnings.push(RunWarning {
                    component: "sink",
                    message: format!("artifact stream: {e}; streaming disabled"),
                });
                sink = None;
            }
        }

        let mut cells: Vec<CellRecord> = Vec::with_capacity(coords.len());
        let mut failed_cells: Vec<FailedCell> = Vec::new();
        let mut emitted = 0usize;
        // Task accounting is process-global in the vendored pool, so
        // snapshot around the fan-out and report the delta (host plane: the
        // count moves with cache temperature by design).
        let pool_before = rayon::pool_stats();
        let cells_t0 = Instant::now();
        let progress = heartbeat.then(|| Progress {
            state: Mutex::new((Heartbeat::new(HEARTBEAT_INTERVAL), 0)),
            total: coords.len() as u64,
        });
        // Retries and injections happen on the workers; the chaos hook
        // sees every attempt, so it counts them.
        let retries = AtomicU64::new(0);
        let injections = AtomicU64::new(0);
        for batch in coords.chunks(STREAM_BATCH) {
            let batch_t0 = Instant::now();
            let configs: Vec<CellConfig> = batch
                .iter()
                .map(|c| spec.cell_config(c, &catalogs[c.catalog]))
                .collect();
            // Lookup: the journal, then the cache. A cell either side serves
            // is decided here; the rest go to the fan-out.
            let mut keys: Vec<Option<String>> = vec![None; batch.len()];
            let mut decided: Vec<Option<(CellEntry, Source)>> = batch
                .iter()
                .zip(&configs)
                .zip(&mut keys)
                .map(|((c, config), key)| {
                    if let Some(entry) = journaled.remove(&c.index) {
                        return Some((entry, Source::Journal));
                    }
                    let cache = cache.as_ref()?;
                    stats.lookups += 1;
                    let k = key.insert(cache::cell_key(
                        &trace_digests[c.trace],
                        &catalog_digests[c.catalog],
                        config,
                    ));
                    let hit = cache.load_cell(k)?;
                    stats.hits += 1;
                    Some((CellEntry::Done(hit), Source::Cache))
                })
                .collect();

            // Compute: one isolated fan-out over the undecided cells, each
            // retried on its worker with the same seed. The chaos panic
            // schedule is keyed on the cell's enumeration index + attempt
            // number, so thread counts and batch shapes can never move an
            // injected fault.
            let pending: Vec<usize> = (0..batch.len()).filter(|&i| decided[i].is_none()).collect();
            if let Some(p) = &progress {
                p.advance((batch.len() - pending.len()) as u64);
            }
            let jobs: Vec<CellJob<'_>> = pending
                .iter()
                .map(|&i| CellJob {
                    trace: &traces[batch[i].trace],
                    bml: &catalogs[batch[i].catalog],
                    cell: configs[i].clone(),
                })
                .collect();
            let inject = |pos: usize, attempt: u32| {
                retries.fetch_add(u64::from(attempt > 1), Ordering::Relaxed);
                let panic = chaos
                    .as_ref()?
                    .should_panic(batch[pending[pos]].index as u64, attempt);
                injections.fetch_add(u64::from(panic.is_some()), Ordering::Relaxed);
                panic
            };
            let done = progress.as_ref().map(|p| move |_: usize| p.advance(1));
            let results = pool.install(|| {
                run_cells_checked(
                    &jobs,
                    max_attempts,
                    Some(&inject),
                    done.as_ref().map(|f| f as &(dyn Fn(usize) + Sync)),
                )
            });
            for (&i, result) in pending.iter().zip(results) {
                let entry = match result {
                    Ok(r) => CellEntry::Done(r.summary()),
                    Err(p) => CellEntry::Failed {
                        attempts: max_attempts,
                        panic_digest: panic_digest(&p.message),
                    },
                };
                decided[i] = Some((entry, Source::Run));
            }

            for ((c, decision), key) in batch.iter().zip(decided).zip(&keys) {
                let (entry, source) = decision.expect("every cell is decided by now");
                // Persist: the cache gets the summaries computed this run,
                // the journal every decision it does not already hold —
                // before the cell is emitted anywhere else, so a kill
                // cannot lose it.
                if let (Source::Run, CellEntry::Done(summary), Some(cache), Some(key), true) =
                    (&source, &entry, &cache, key, cache_writes)
                {
                    let store = match chaos
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
                if let (Source::Cache | Source::Run, Some(j)) = (&source, journal.as_mut()) {
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

                // Emit.
                match entry {
                    CellEntry::Done(mut summary) => {
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
                        summary.attach_optimal(optima[&(c.trace, c.catalog, c.split)]);
                        let record = CellRecord {
                            labels: spec.cell_labels(c),
                            coords: *c,
                            summary,
                        };
                        if let Some(s) = sink.as_deref_mut() {
                            let write = match chaos
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
                                sink = None;
                            }
                        }
                        cells.push(record);
                    }
                    CellEntry::Failed {
                        attempts,
                        panic_digest,
                    } => {
                        telemetry.count("cells.failed", 1);
                        failed_cells.push(FailedCell {
                            labels: spec.cell_labels(c),
                            coords: *c,
                            attempts,
                            panic_digest,
                        });
                    }
                }
                emitted += 1;
                if kill_after == Some(emitted) {
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
        for (key, n) in [
            ("retry.attempts", retries),
            ("chaos.injections", injections),
        ] {
            let n = n.into_inner();
            if n > 0 {
                telemetry.host_count(key, n);
            }
        }
        telemetry.span("phase.cells", cells_t0.elapsed());
        let pool_after = rayon::pool_stats();
        telemetry.host_count(
            "pool.tasks",
            pool_after.tasks.saturating_sub(pool_before.tasks),
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
        if let Some(s) = sink {
            if let Err(e) = s.finish(&outcome) {
                warnings.push(RunWarning {
                    component: "sink",
                    message: format!("artifact stream: {e}; streaming disabled"),
                });
            }
        }
        Ok(GridRun {
            outcome,
            cache: stats,
            warnings,
            telemetry,
        })
    }
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
        let out = GridRunner::new(&spec).threads(2).run().unwrap().outcome;
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
        let out = GridRunner::new(&small_spec())
            .threads(1)
            .run()
            .unwrap()
            .outcome;
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
        assert!(GridRunner::new(&spec).threads(2).run().is_err());
        assert!(GridRunner::new(&spec).run().is_err());
    }

    #[test]
    fn overflowing_retry_budget_fails_before_running() {
        let dir = std::env::temp_dir().join("bml_grid_executor_retry_overflow");
        std::fs::remove_dir_all(&dir).ok();
        let err = GridRunner::new(&small_spec())
            .max_retries(u32::MAX)
            .journal_dir(&dir)
            .run()
            .unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        assert!(!dir.exists(), "nothing ran, so no journal was opened");
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
        let plain = GridRunner::new(&spec).threads(2).run().unwrap().outcome;
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
