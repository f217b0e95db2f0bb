//! The shared experiment-cell executor.
//!
//! Every experiment in this repo — the three ablation sweeps in
//! [`crate::runner`], the `bml-grid` multi-dimensional scenario grids, the
//! bench binaries — boils down to the same unit of work: *run the BML
//! pro-active scenario once under a specific knob setting*. This module is
//! the single implementation of that unit ([`run_cell`]) plus the one
//! parallel fan-out everything shares ([`run_cells_checked`]).
//!
//! Determinism contract: [`run_cells_checked`] preserves input order (the
//! rayon parallel map deposits each result in its input's slot — the
//! vendored shim schedules workers by range stealing, so *which* worker
//! runs a cell varies, but *where* its result lands never does), and each
//! cell's randomness is confined to its own [`CellConfig::noise_seed`], so
//! the result vector is **bit-identical regardless of the worker-thread
//! count**. `bml-grid` relies on this to emit byte-identical artifacts at
//! any `--threads` setting, and keys its content-addressed cell cache on
//! [`CellConfig::stable_descriptor`].

use bml_core::bml::BmlInfrastructure;
use bml_core::combination::SplitPolicy;
use bml_core::scheduler::paper_window_length;
use bml_trace::{LoadTrace, LookaheadMaxPredictor, NoisyPredictor};
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
pub fn run_cell(trace: &LoadTrace, bml: &BmlInfrastructure, cell: &CellConfig) -> ScenarioResult {
    let config = cell.sim_config();
    let window = cell
        .window
        .unwrap_or_else(|| paper_window_length(bml.candidates()));
    let mut inner = LookaheadMaxPredictor::new(trace, window);
    if cell.noise_sigma == 0.0 {
        simulate_bml(trace, bml, &mut inner, &config)
    } else {
        let mut predictor =
            NoisyPredictor::with_resample(inner, cell.noise_sigma, cell.noise_seed, window);
        simulate_bml(trace, bml, &mut predictor, &config)
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
/// order. Each cell runs under `catch_unwind`, so one panicking cell
/// yields an `Err(CellPanic)` in its slot while every other cell still
/// completes — the grid executor's retry/quarantine layer is built on
/// this.
///
/// `threads` caps the worker count (`None` = rayon's default). The cap
/// only changes wall-clock time, never results: output order is the input
/// order and cells share no mutable state.
///
/// `inject` is a deterministic fault hook (the chaos harness): called
/// with each job's **batch-local index** before the cell runs; returning
/// `Some(msg)` makes that cell panic with `msg` instead of executing.
/// Injection depends only on the index, never on scheduling.
pub fn run_cells_checked(
    jobs: &[CellJob<'_>],
    threads: Option<usize>,
    inject: Option<&(dyn Fn(usize) -> Option<String> + Sync)>,
) -> Vec<Result<ScenarioResult, CellPanic>> {
    let indices: Vec<usize> = (0..jobs.len()).collect();
    let run = || {
        indices
            .par_iter()
            .map(|&i| {
                let j = &jobs[i];
                // `run_cell` only touches the job's own borrows, and a
                // panicking cell contributes nothing but its message, so
                // no broken invariant can leak across the boundary.
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if let Some(msg) = inject.and_then(|f| f(i)) {
                        panic!("{msg}");
                    }
                    run_cell(j.trace, j.bml, &j.cell)
                }))
                .map_err(|payload| CellPanic {
                    message: panic_message(payload.as_ref()),
                })
            })
            .collect()
    };
    match threads {
        Some(n) => rayon::ThreadPoolBuilder::new()
            .num_threads(n.max(1))
            .build()
            .expect("thread pool construction cannot fail")
            .install(run),
        None => run(),
    }
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
                ..cell
            },
        );
        assert_ne!(a, other_seed, "noise seed must matter");
    }

    #[test]
    fn failure_model_survives_the_cell_wrapping() {
        // The sweeps lift SimConfig through CellConfig::from_sim; a base
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
        let inject = |i: usize| (i == 1).then(|| format!("chaos: cell {i}"));
        let clean: Vec<_> = jobs
            .iter()
            .map(|j| run_cell(j.trace, j.bml, &j.cell))
            .collect();
        for threads in [1, 4] {
            let checked = run_cells_checked(&jobs, Some(threads), Some(&inject));
            assert_eq!(checked.len(), 3);
            // Non-injected cells match the plain path bit-for-bit.
            assert_eq!(checked[0].as_ref().unwrap(), &clean[0]);
            assert_eq!(checked[2].as_ref().unwrap(), &clean[2]);
            // The injected cell fails with its message, in its slot.
            let panic = checked[1].as_ref().unwrap_err();
            assert_eq!(panic.message, "chaos: cell 1");
        }
        // No injection: every slot is Ok and equals the plain path.
        let unchecked = run_cells_checked(&jobs, Some(4), None);
        let ok: Vec<_> = unchecked.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(ok, clean);
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
        let run = |threads| -> Vec<_> {
            run_cells_checked(&jobs, threads, None)
                .into_iter()
                .map(|r| r.unwrap())
                .collect()
        };
        let serial: Vec<_> = jobs
            .iter()
            .map(|j| run_cell(j.trace, j.bml, &j.cell))
            .collect();
        let one = run(Some(1));
        let many = run(Some(4));
        let default = run(None);
        assert_eq!(one, serial);
        assert_eq!(one, many);
        assert_eq!(one, default);
        // Order check: energies track the peak ordering of the traces.
        assert!(one[3].total_energy_j < one[0].total_energy_j);
        assert!(one[0].total_energy_j < one[2].total_energy_j);
    }
}
