//! The shared experiment-cell executor.
//!
//! Every experiment grid in this repo — the `grid` binary's smoke grid
//! and the one-dimensional grids of the window, scheduler and prediction
//! ablations, all run by `bml-grid` — boils down to the same unit of
//! work: *run the BML pro-active scenario once under a specific knob
//! setting*. This module is the single implementation of that unit
//! ([`run_cell`]) plus the one parallel fan-out the grid runs it through
//! ([`run_cells_checked`]).
//!
//! A cell's look-ahead table is a function of its trace and its resolved
//! window alone, so the fan-out builds one table per distinct (trace,
//! resolved window) per call and shares it among that pair's cells — on
//! the smoke grid, 3 tables for 144 cells; each cell's predictor keeps
//! its own cursor.
//!
//! Determinism contract: [`run_cells_checked`] preserves input order (the
//! rayon parallel map returns results in input order — the vendored
//! shim's workers take cells from one shared queue, so *which* worker
//! runs a cell varies, but *where* its result lands never does), and each
//! cell's randomness is confined to its own [`CellConfig::noise_seed`], so
//! the result vector is **bit-identical regardless of the worker-thread
//! count**. `bml-grid` relies on this to emit byte-identical artifacts at
//! any `--threads` setting, and keys its content-addressed cell cache on
//! [`CellConfig::stable_descriptor`].

use std::sync::{Arc, OnceLock};

use bml_core::bml::BmlInfrastructure;
use bml_core::combination::SplitPolicy;
use bml_core::scheduler::paper_window_length;
use bml_trace::{LoadTrace, LookaheadMaxPredictor, LookaheadMaxTable, NoisyPredictor};
use rayon::prelude::*;

use crate::engine::{
    simulate_bml, FailureModel, ScenarioResult, SchedulerKind, SimConfig, Stepping,
};

/// Everything that distinguishes one experiment cell from another, apart
/// from the trace and the infrastructure it runs against.
#[derive(Debug, Clone, PartialEq)]
pub struct CellConfig {
    /// Scheduler implementation driving the reconfigurations.
    pub scheduler: SchedulerKind,
    /// Look-ahead window (s); `None` = the paper's 2x-longest-boot rule.
    pub window: Option<u64>,
    /// Relative gaussian prediction-error sigma; 0 = clean prediction.
    pub noise_sigma: f64,
    /// RNG seed of the noise injection (unused at sigma 0).
    pub noise_seed: u64,
    /// Load-split policy across online machines.
    pub split: SplitPolicy,
    /// Engine stepping mode.
    pub stepping: Stepping,
    /// Start from an all-off cluster instead of pre-warming.
    pub cold_start: bool,
    /// Optional machine-crash injection (counter-based, event-drivable).
    pub failures: Option<FailureModel>,
}

impl CellConfig {
    /// Lift a [`SimConfig`] into a clean-prediction cell: same scheduler,
    /// window, split, stepping, cold-start and failure-model settings, no
    /// noise.
    pub fn from_sim(base: &SimConfig) -> Self {
        CellConfig {
            scheduler: base.scheduler.clone(),
            window: base.window,
            noise_sigma: 0.0,
            noise_seed: 0,
            split: base.split,
            stepping: base.stepping,
            cold_start: base.cold_start,
            failures: base.failures.clone(),
        }
    }

    /// Canonical content description of this cell for cache keying.
    ///
    /// Every field is rendered deterministically (floats through Rust's
    /// shortest-roundtrip `Debug`, which is host- and thread-independent),
    /// so two configs produce the same descriptor iff they describe the
    /// same computation. A `CellConfig` field added without reaching this
    /// derive would silently alias cache entries; rendering the whole
    /// struct keeps the descriptor honest by construction. The noise seed
    /// is canonicalized to 0 when `noise_sigma == 0` — an unused seed must
    /// not split cache entries for identical clean runs.
    pub fn stable_descriptor(&self) -> String {
        if self.noise_sigma == 0.0 && self.noise_seed != 0 {
            let canonical = CellConfig {
                noise_seed: 0,
                ..self.clone()
            };
            return format!("{canonical:?}");
        }
        format!("{self:?}")
    }

    /// The look-ahead window (s) this cell predicts over, and resamples
    /// its noise on, when run on `bml`: its own, or the paper's
    /// 2x-longest-boot rule over `bml`'s candidates.
    pub fn resolved_window(&self, bml: &BmlInfrastructure) -> u64 {
        self.window
            .unwrap_or_else(|| paper_window_length(bml.candidates()))
    }

    /// The engine configuration this cell runs under.
    fn sim_config(&self) -> SimConfig {
        SimConfig {
            window: self.window,
            split: self.split,
            cold_start: self.cold_start,
            scheduler: self.scheduler.clone(),
            failures: self.failures.clone(),
            stepping: self.stepping,
        }
    }
}

/// One unit of grid work: a cell bound to its trace and infrastructure.
/// Cells in one batch may share traces and infrastructures (the grid
/// executor caches both), hence the borrows.
#[derive(Debug, Clone)]
pub struct CellJob<'a> {
    /// The load trace the scenario replays.
    pub trace: &'a LoadTrace,
    /// The BML infrastructure serving it.
    pub bml: &'a BmlInfrastructure,
    /// The knob setting under test.
    pub cell: CellConfig,
}

/// Run one experiment cell: the BML pro-active scenario with the cell's
/// scheduler/window/split/stepping, under clean look-ahead-max prediction
/// at sigma 0 or noise-injected prediction otherwise.
///
/// At sigma 0 this is exactly [`crate::scenarios::bml_proactive`]; with
/// noise the wrapper's counter-based error factor resamples once per
/// look-ahead window (`mix(noise_seed, window_index)`, see
/// [`bml_core::rng`]), so noisy cells honor the requested stepping just
/// like clean ones.
///
/// Builds the cell's look-ahead table for this call alone;
/// [`run_cells_checked`] shares one table among the cells of a batch
/// that replay the same trace with the same window.
pub fn run_cell(trace: &LoadTrace, bml: &BmlInfrastructure, cell: &CellConfig) -> ScenarioResult {
    let table = LookaheadMaxTable::new(&trace.rates, cell.resolved_window(bml));
    run_cell_on(trace, bml, cell, Arc::new(table))
}

/// [`run_cell`] over a look-ahead table built from `trace` with the
/// cell's resolved window, possibly shared with other cells.
fn run_cell_on(
    trace: &LoadTrace,
    bml: &BmlInfrastructure,
    cell: &CellConfig,
    table: Arc<LookaheadMaxTable>,
) -> ScenarioResult {
    let config = cell.sim_config();
    let mut inner = LookaheadMaxPredictor::from_table(table);
    if cell.noise_sigma == 0.0 {
        simulate_bml(trace, bml, &mut inner, &config)
    } else {
        let window = cell.resolved_window(bml);
        let mut predictor =
            NoisyPredictor::with_resample(inner, cell.noise_sigma, cell.noise_seed, window);
        simulate_bml(trace, bml, &mut predictor, &config)
    }
}

/// The look-ahead tables of one fan-out: one slot per distinct (trace,
/// resolved window) among its jobs, traces compared by reference. Each
/// slot's table is built by the first of its jobs to ask and then shared
/// by all of them.
struct SharedTables<'a> {
    slots: Vec<TableSlot<'a>>,
    /// Index into `slots` of each job, in job order.
    slot_of: Vec<usize>,
}

struct TableSlot<'a> {
    trace: &'a LoadTrace,
    window: u64,
    table: OnceLock<Arc<LookaheadMaxTable>>,
}

impl<'a> SharedTables<'a> {
    /// Give every job its slot; builds no table.
    fn assign(jobs: &[CellJob<'a>]) -> Self {
        let mut slots: Vec<TableSlot<'a>> = Vec::new();
        let slot_of = jobs
            .iter()
            .map(|j| {
                let window = j.cell.resolved_window(j.bml);
                slots
                    .iter()
                    .position(|s| std::ptr::eq(s.trace, j.trace) && s.window == window)
                    .unwrap_or_else(|| {
                        slots.push(TableSlot {
                            trace: j.trace,
                            window,
                            table: OnceLock::new(),
                        });
                        slots.len() - 1
                    })
            })
            .collect();
        SharedTables { slots, slot_of }
    }

    /// Job `i`'s table, building it if no job of its slot has yet. A
    /// build that panics leaves the slot empty, so the panic reaches only
    /// the jobs that ask for that table, each on its own.
    fn table(&self, i: usize) -> Arc<LookaheadMaxTable> {
        let slot = &self.slots[self.slot_of[i]];
        let table = slot
            .table
            .get_or_init(|| Arc::new(LookaheadMaxTable::new(&slot.trace.rates, slot.window)));
        Arc::clone(table)
    }
}

/// A cell execution that panicked instead of producing a result: the
/// payload, rendered to a message (`String`/`&str` payloads verbatim,
/// anything else a placeholder). Produced by [`run_cells_checked`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellPanic {
    /// The panic message (best-effort rendering of the payload).
    pub message: String,
}

/// Render a caught panic payload to a message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Execute a batch of cells in parallel, returning results in input
/// order. Each attempt of a cell runs under `catch_unwind`, so a
/// panicking cell yields an `Err(CellPanic)` in its slot while every
/// other cell still completes — the grid executor's quarantine is built
/// on this.
///
/// A cell whose attempt panics is retried at once, on the same worker
/// and with the same job (so the same seed), until an attempt succeeds
/// or `attempts` attempts have run (a budget of 0 runs one). Its slot
/// holds the successful attempt's result, or the last attempt's panic.
///
/// Each cell's result equals [`run_cell`]'s, but the call builds one
/// look-ahead table per distinct (trace, resolved window) among `jobs` —
/// the same trace *reference*, so content-equal copies of a trace do not
/// share — inside the first of its cells to need it, and every other
/// cell of the pair reads that table.
///
/// The worker count is the caller's to cap, by running the call inside
/// a [`rayon::ThreadPool::install`]; outside one it is rayon's default.
/// The cap only changes wall-clock time, never results: output order is
/// the input order and cells share nothing mutable but the write-once
/// table slots.
///
/// `inject` is a deterministic fault hook (the chaos harness): called
/// before every attempt with the job's **batch-local index** and the
/// attempt number (from 1); returning `Some(msg)` makes that attempt
/// panic with `msg` instead of executing. Injection depends only on the
/// index and the attempt, never on scheduling.
///
/// `done` is a progress hook: called exactly once per job, on the worker
/// that ran it, with its batch-local index, as soon as the job is
/// decided — an attempt succeeded or the budget ran out. Calls arrive
/// concurrently and in no fixed order; results never depend on them.
pub fn run_cells_checked(
    jobs: &[CellJob<'_>],
    attempts: u32,
    inject: Option<&(dyn Fn(usize, u32) -> Option<String> + Sync)>,
    done: Option<&(dyn Fn(usize) + Sync)>,
) -> Vec<Result<ScenarioResult, CellPanic>> {
    let indices: Vec<usize> = (0..jobs.len()).collect();
    let tables = SharedTables::assign(jobs);
    indices
        .par_iter()
        .map(|&i| {
            let j = &jobs[i];
            let mut attempt = 1;
            let result = loop {
                // A cell touches only the job's own borrows and its shared
                // table, which a panicking build leaves unset; a panicking
                // attempt contributes nothing but its message, so no broken
                // invariant can leak across the boundary.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if let Some(msg) = inject.and_then(|f| f(i, attempt)) {
                        panic!("{msg}");
                    }
                    run_cell_on(j.trace, j.bml, &j.cell, tables.table(i))
                }))
                .map_err(|payload| CellPanic {
                    message: panic_message(payload.as_ref()),
                });
                if result.is_ok() || attempt >= attempts {
                    break result;
                }
                attempt += 1;
            };
            if let Some(done) = done {
                done(i);
            }
            result
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;
    use bml_core::catalog;

    fn bml() -> BmlInfrastructure {
        BmlInfrastructure::build(&catalog::table1()).unwrap()
    }

    fn clean_cell() -> CellConfig {
        CellConfig::from_sim(&SimConfig::default())
    }

    /// A pool capping the fan-out at `threads` workers.
    fn pool(threads: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
    }

    /// A piecewise step trace: cheap to simulate in debug builds while
    /// still exercising reconfigurations.
    fn step_trace(levels: &[f64], len: usize) -> LoadTrace {
        let mut rates = Vec::with_capacity(levels.len() * len);
        for &l in levels {
            rates.extend(std::iter::repeat_n(l, len));
        }
        LoadTrace::new(0, rates)
    }

    #[test]
    fn clean_cell_matches_bml_proactive() {
        let trace = step_trace(&[40.0, 900.0, 120.0], 1_200);
        let bml = bml();
        let via_cell = run_cell(&trace, &bml, &clean_cell());
        let via_scenario = scenarios::bml_proactive(&trace, &bml, &SimConfig::default());
        assert_eq!(via_cell, via_scenario);
    }

    #[test]
    fn noisy_cell_is_deterministic_in_its_seed() {
        let trace = step_trace(&[80.0, 700.0], 1_500);
        let bml = bml();
        let cell = CellConfig {
            noise_sigma: 0.2,
            noise_seed: 11,
            ..clean_cell()
        };
        let a = run_cell(&trace, &bml, &cell);
        let b = run_cell(&trace, &bml, &cell);
        assert_eq!(a, b);
        // Counter-based noise keeps the cell on the requested fast path.
        assert_eq!(a.stepping_effective, Stepping::EventDriven);
        let other_seed = run_cell(
            &trace,
            &bml,
            &CellConfig {
                noise_seed: 12,
                ..cell.clone()
            },
        );
        assert_ne!(a, other_seed, "noise seed must matter");
        // Under-prediction with noise must hurt QoS or change energy.
        let clean = run_cell(&trace, &bml, &clean_cell());
        let degraded = run_cell(
            &trace,
            &bml,
            &CellConfig {
                noise_sigma: 0.3,
                ..cell
            },
        );
        assert!(
            degraded.qos.violation_seconds > clean.qos.violation_seconds
                || (degraded.total_energy_j - clean.total_energy_j).abs() > 1.0,
            "sigma 0.3 left the clean run unchanged"
        );
    }

    #[test]
    fn failure_model_survives_the_cell_wrapping() {
        // Grid cells lift SimConfig through CellConfig::from_sim; a base
        // with crash injection must keep injecting (regression: the
        // wrapper once dropped `failures`).
        let trace = step_trace(&[150.0], 3_000);
        let bml = bml();
        let base = SimConfig {
            failures: Some(FailureModel::new(400.0, 20, 5)),
            ..Default::default()
        };
        let via_cell = run_cell(&trace, &bml, &CellConfig::from_sim(&base));
        assert!(via_cell.failures_injected > 0, "failure model was dropped");
        let direct = crate::scenarios::bml_proactive(&trace, &bml, &base);
        assert_eq!(via_cell, direct);
    }

    #[test]
    fn stable_descriptor_tracks_content_not_unused_seeds() {
        let clean = clean_cell();
        // Unused noise seeds are canonicalized away...
        let reseeded = CellConfig {
            noise_seed: 99,
            ..clean.clone()
        };
        assert_eq!(clean.stable_descriptor(), reseeded.stable_descriptor());
        // ...but a seed that feeds actual noise distinguishes cells,
        let noisy = CellConfig {
            noise_sigma: 0.2,
            noise_seed: 99,
            ..clean.clone()
        };
        let noisy_other = CellConfig {
            noise_seed: 100,
            ..noisy.clone()
        };
        assert_ne!(noisy.stable_descriptor(), noisy_other.stable_descriptor());
        // and every knob reaches the descriptor.
        for other in [
            CellConfig {
                window: Some(777),
                ..clean.clone()
            },
            CellConfig {
                stepping: Stepping::PerSecond,
                ..clean.clone()
            },
            CellConfig {
                split: SplitPolicy::ProportionalToCapacity,
                ..clean.clone()
            },
            CellConfig {
                failures: Some(FailureModel::new(400.0, 20, 5)),
                ..clean.clone()
            },
        ] {
            assert_ne!(clean.stable_descriptor(), other.stable_descriptor());
        }
        // Deterministic across calls (the cache key contract).
        assert_eq!(clean.stable_descriptor(), clean.stable_descriptor());
    }

    #[test]
    fn run_cells_checked_isolates_injected_panics() {
        let traces: Vec<_> = [200.0, 600.0, 1_000.0]
            .iter()
            .map(|&peak| step_trace(&[peak], 800))
            .collect();
        let bml = bml();
        let jobs: Vec<CellJob<'_>> = traces
            .iter()
            .map(|t| CellJob {
                trace: t,
                bml: &bml,
                cell: clean_cell(),
            })
            .collect();
        let inject = |i: usize, _: u32| (i == 1).then(|| format!("chaos: cell {i}"));
        let clean: Vec<_> = jobs
            .iter()
            .map(|j| run_cell(j.trace, j.bml, &j.cell))
            .collect();
        for threads in [1, 4] {
            let calls = std::sync::Mutex::new(Vec::new());
            let done = |i: usize| calls.lock().unwrap().push(i);
            let checked =
                pool(threads).install(|| run_cells_checked(&jobs, 1, Some(&inject), Some(&done)));
            assert_eq!(checked.len(), 3);
            // Non-injected cells match the plain path bit-for-bit.
            assert_eq!(checked[0].as_ref().unwrap(), &clean[0]);
            assert_eq!(checked[2].as_ref().unwrap(), &clean[2]);
            // The injected cell fails with its message, in its slot.
            let panic = checked[1].as_ref().unwrap_err();
            assert_eq!(panic.message, "chaos: cell 1");
            // The done hook hears of every job exactly once, the panic too.
            let mut calls = calls.into_inner().unwrap();
            calls.sort_unstable();
            assert_eq!(calls, [0, 1, 2], "{threads} threads");
        }
        // No injection: every slot is Ok and equals the plain path.
        let unchecked = pool(4).install(|| run_cells_checked(&jobs, 1, None, None));
        let ok: Vec<_> = unchecked.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(ok, clean);
    }

    #[test]
    fn run_cells_checked_retries_a_panicking_cell_on_its_worker() {
        let traces: Vec<_> = [200.0, 600.0, 1_000.0]
            .iter()
            .map(|&peak| step_trace(&[peak], 800))
            .collect();
        let bml = bml();
        let jobs: Vec<CellJob<'_>> = traces
            .iter()
            .map(|t| CellJob {
                trace: t,
                bml: &bml,
                cell: clean_cell(),
            })
            .collect();
        let clean: Vec<_> = jobs
            .iter()
            .map(|j| run_cell(j.trace, j.bml, &j.cell))
            .collect();
        for threads in [1, 4] {
            let seen = std::sync::Mutex::new(Vec::new());
            let calls = std::sync::Mutex::new(Vec::new());
            // Job 0 never panics, job 1 panics on its first two attempts,
            // job 2 on every attempt.
            let inject = |i: usize, attempt: u32| {
                seen.lock().unwrap().push((i, attempt));
                (i == 2 || (i == 1 && attempt <= 2))
                    .then(|| format!("chaos: job {i} attempt {attempt}"))
            };
            let done = |i: usize| calls.lock().unwrap().push(i);
            let checked =
                pool(threads).install(|| run_cells_checked(&jobs, 3, Some(&inject), Some(&done)));
            assert_eq!(checked.len(), 3);
            // The third attempt of job 1 ran the cell itself.
            assert_eq!(checked[0].as_ref().unwrap(), &clean[0]);
            assert_eq!(checked[1].as_ref().unwrap(), &clean[1]);
            // Job 2 exhausted its budget and reports its last attempt.
            assert_eq!(
                checked[2].as_ref().unwrap_err().message,
                "chaos: job 2 attempt 3"
            );
            // Each job's attempts run in order, on one worker, and stop at
            // the first success.
            let seen = seen.into_inner().unwrap();
            for (job, want) in [(0, &[1][..]), (1, &[1, 2, 3]), (2, &[1, 2, 3])] {
                let got: Vec<u32> = seen
                    .iter()
                    .filter(|&&(i, _)| i == job)
                    .map(|&(_, a)| a)
                    .collect();
                assert_eq!(got, want, "job {job} at {threads} threads");
            }
            let mut calls = calls.into_inner().unwrap();
            calls.sort_unstable();
            assert_eq!(calls, [0, 1, 2], "{threads} threads");
        }
    }

    #[test]
    fn tables_are_shared_per_trace_reference_and_resolved_window() {
        let trace = step_trace(&[40.0, 900.0, 120.0], 1_200);
        let copy = trace.clone();
        let table1 = bml();
        let illustrative = BmlInfrastructure::build(&catalog::illustrative()).unwrap();
        assert_eq!(paper_window_length(table1.candidates()), 378);
        let job = |trace, bml, window, noise_sigma| CellJob {
            trace,
            bml,
            cell: CellConfig {
                window,
                noise_sigma,
                noise_seed: 5,
                ..clean_cell()
            },
        };
        let illustrative_window = paper_window_length(illustrative.candidates());
        assert_ne!(illustrative_window, 378);
        let jobs = [
            job(&trace, &table1, None, 0.0),
            job(&trace, &table1, Some(378), 0.0),
            job(&trace, &table1, None, 0.2),
            job(&trace, &table1, Some(189), 0.0),
            job(&copy, &table1, None, 0.0),
            job(&trace, &illustrative, None, 0.0),
            job(&trace, &table1, Some(illustrative_window), 0.2),
            job(&trace, &table1, Some(756), 0.2),
        ];
        let tables = SharedTables::assign(&jobs);
        assert_eq!(tables.slots.len(), 5);
        assert!(tables.slots.iter().all(|s| s.table.get().is_none()));
        let built: Vec<_> = (0..jobs.len()).map(|i| tables.table(i)).collect();
        // None resolves to the catalog's paper window, clean and noisy
        // cells alike, so these share one table...
        assert!(Arc::ptr_eq(&built[0], &built[1]));
        assert!(Arc::ptr_eq(&built[0], &built[2]));
        assert!(Arc::ptr_eq(&built[5], &built[6]));
        // ...while another window, or another allocation of equal rates,
        // gets a table of its own.
        for other in [3, 4, 5, 7] {
            assert!(!Arc::ptr_eq(&built[0], &built[other]), "job {other}");
        }
        assert!(!Arc::ptr_eq(&built[3], &built[7]));
        for (table, window) in built.iter().zip([378, 378, 378, 189, 378]) {
            assert_eq!(table.horizon(), window);
        }
        assert_eq!(built[5].horizon(), illustrative_window);

        let none = SharedTables::assign(&[]);
        assert!(none.slots.is_empty() && none.slot_of.is_empty());
    }

    #[test]
    fn shared_tables_reproduce_run_cell_on_a_mixed_batch() {
        let traces = [
            step_trace(&[40.0, 900.0, 120.0], 1_200),
            step_trace(&[600.0, 30.0], 1_500),
        ];
        let catalogs = [
            bml(),
            BmlInfrastructure::build(&catalog::illustrative()).unwrap(),
        ];
        let mut jobs = Vec::new();
        for trace in &traces {
            for bml in &catalogs {
                for window in [None, Some(189), Some(756)] {
                    for noise_sigma in [0.0, 0.2] {
                        for stepping in [Stepping::EventDriven, Stepping::PerSecond] {
                            jobs.push(CellJob {
                                trace,
                                bml,
                                cell: CellConfig {
                                    window,
                                    noise_sigma,
                                    noise_seed: jobs.len() as u64,
                                    stepping,
                                    ..clean_cell()
                                },
                            });
                        }
                    }
                }
            }
        }
        assert_eq!(jobs.len(), 48);
        let expected: Vec<_> = jobs
            .iter()
            .map(|j| run_cell(j.trace, j.bml, &j.cell))
            .collect();
        let inject = |i: usize, _: u32| (i == 29).then(|| format!("chaos: cell {i}"));
        for threads in [1, 4] {
            let checked =
                pool(threads).install(|| run_cells_checked(&jobs, 1, Some(&inject), None));
            assert_eq!(checked.len(), jobs.len());
            for (i, (got, want)) in checked.into_iter().zip(&expected).enumerate() {
                if i == 29 {
                    let panic = got.unwrap_err();
                    assert_eq!(panic.message, "chaos: cell 29");
                } else {
                    assert_eq!(got.as_ref(), Ok(want), "cell {i} at {threads} threads");
                }
            }
        }
    }

    #[test]
    fn run_cells_preserves_order_across_thread_counts() {
        let traces: Vec<_> = [300.0, 800.0, 1_500.0, 50.0]
            .iter()
            .map(|&peak| step_trace(&[peak * 0.1, peak], 1_000))
            .collect();
        let bml = bml();
        let jobs: Vec<CellJob<'_>> = traces
            .iter()
            .map(|t| CellJob {
                trace: t,
                bml: &bml,
                cell: clean_cell(),
            })
            .collect();
        let run = || -> Vec<_> {
            run_cells_checked(&jobs, 1, None, None)
                .into_iter()
                .map(|r| r.unwrap())
                .collect()
        };
        let serial: Vec<_> = jobs
            .iter()
            .map(|j| run_cell(j.trace, j.bml, &j.cell))
            .collect();
        let one = pool(1).install(run);
        let many = pool(4).install(run);
        let default = run();
        assert_eq!(one, serial);
        assert_eq!(one, many);
        assert_eq!(one, default);
        // Order check: energies track the peak ordering of the traces.
        assert!(one[3].total_energy_j < one[0].total_energy_j);
        assert!(one[0].total_energy_j < one[2].total_energy_j);
    }
}
