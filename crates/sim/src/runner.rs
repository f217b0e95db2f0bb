//! Scenario runner: the Fig. 5 four-way comparison and the ablation
//! sweeps.
//!
//! Each sweep is a thin wrapper that lays out its one-dimensional knob as
//! experiment cells and hands them to the shared parallel cell executor
//! ([`crate::exec::run_cells_checked`]) — the same engine `bml-grid`
//! drives for multi-dimensional scenario grids. The sweeps own nothing
//! but the mapping from their knob to a [`CellConfig`].

use bml_core::bml::BmlInfrastructure;
use bml_core::scheduler::SchedulerKind;
use bml_core::transition_aware::TransitionAwareConfig;
use bml_trace::LoadTrace;

use crate::energy::{overhead_stats, OverheadStats};
use crate::engine::{ScenarioResult, SimConfig};
use crate::exec::{run_cells_checked, CellConfig, CellJob};
use crate::scenarios;

/// Outcome of the Fig. 5 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonResult {
    /// Label of the first day (for per-day reporting).
    pub first_day: u32,
    /// `UpperBound Global`.
    pub ub_global: ScenarioResult,
    /// `UpperBound PerDay`.
    pub ub_per_day: ScenarioResult,
    /// `Big-Medium-Little`.
    pub bml: ScenarioResult,
    /// `LowerBound Theoretical`.
    pub lower_bound: ScenarioResult,
    /// Per-day BML-vs-lower-bound overhead statistics — the paper's
    /// headline "+32% on average, min +6.8%, max +161.4%".
    pub bml_vs_lower: OverheadStats,
}

impl ComparisonResult {
    /// The four scenarios in the paper's presentation order.
    pub fn scenarios(&self) -> [&ScenarioResult; 4] {
        [
            &self.ub_global,
            &self.ub_per_day,
            &self.bml,
            &self.lower_bound,
        ]
    }
}

/// Run all four Fig. 5 scenarios (in parallel) and compute the per-day
/// overhead statistics of BML against the theoretical lower bound.
pub fn run_comparison(
    trace: &LoadTrace,
    bml: &BmlInfrastructure,
    config: &SimConfig,
) -> ComparisonResult {
    let big = bml.big();
    let split = config.split;
    let ((ub_global, ub_per_day), (bml_res, lower_bound)) = rayon::join(
        || {
            rayon::join(
                || scenarios::upper_bound_global(trace, big, split),
                || scenarios::upper_bound_per_day(trace, big, split),
            )
        },
        || {
            rayon::join(
                || scenarios::bml_proactive(trace, bml, config),
                || scenarios::lower_bound_theoretical(trace, bml, split),
            )
        },
    );
    let bml_vs_lower = overhead_stats(&bml_res.daily_energy_j, &lower_bound.daily_energy_j);
    ComparisonResult {
        first_day: trace.first_day,
        ub_global,
        ub_per_day,
        bml: bml_res,
        lower_bound,
        bml_vs_lower,
    }
}

/// Fan a list of cells out over the shared executor and zip the results
/// back onto their knob values. A panicking cell re-panics here with its
/// caught message: a sweep has no quarantine to put it in.
fn sweep<K>(
    trace: &LoadTrace,
    bml: &BmlInfrastructure,
    points: Vec<(K, CellConfig)>,
) -> Vec<(K, ScenarioResult)> {
    let (knobs, cells): (Vec<K>, Vec<CellConfig>) = points.into_iter().unzip();
    let jobs: Vec<CellJob<'_>> = cells
        .into_iter()
        .map(|cell| CellJob { trace, bml, cell })
        .collect();
    let results = run_cells_checked(&jobs, 1, None, None)
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| panic!("{}", p.message)));
    knobs.into_iter().zip(results).collect()
}

/// Ablation: BML total energy and QoS as a function of the look-ahead
/// window length. Returns `(window_s, result)` pairs, computed in
/// parallel.
pub fn sweep_window(
    trace: &LoadTrace,
    bml: &BmlInfrastructure,
    windows: &[u64],
    base: &SimConfig,
) -> Vec<(u64, ScenarioResult)> {
    let base_cell = CellConfig::from_sim(base);
    sweep(
        trace,
        bml,
        windows
            .iter()
            .map(|&w| {
                (
                    w,
                    CellConfig {
                        window: Some(w),
                        ..base_cell.clone()
                    },
                )
            })
            .collect(),
    )
}

/// Future-work experiment (paper Sec. VI): impact of prediction *errors*
/// on reconfiguration decisions. Each sigma injects relative gaussian
/// error into the look-ahead-max prediction.
///
/// Noise is counter-based and resampled once per look-ahead window
/// ([`bml_core::rng`]), so noisy runs honor `base.stepping` — including
/// the event-driven fast path — exactly like clean ones.
pub fn sweep_prediction_noise(
    trace: &LoadTrace,
    bml: &BmlInfrastructure,
    sigmas: &[f64],
    seed: u64,
    base: &SimConfig,
) -> Vec<(f64, ScenarioResult)> {
    let base_cell = CellConfig::from_sim(base);
    sweep(
        trace,
        bml,
        sigmas
            .iter()
            .map(|&sigma| {
                (
                    sigma,
                    CellConfig {
                        noise_sigma: sigma,
                        noise_seed: seed,
                        ..base_cell.clone()
                    },
                )
            })
            .collect(),
    )
}

/// Ablation: the paper's baseline scheduler versus the future-work
/// transition-aware scheduler (Sec. VI), on the same trace and window.
pub fn sweep_scheduler(
    trace: &LoadTrace,
    bml: &BmlInfrastructure,
    base: &SimConfig,
) -> Vec<(String, ScenarioResult)> {
    let window = base
        .window
        .unwrap_or_else(|| bml_core::scheduler::paper_window_length(bml.candidates()));
    let aware_cfg = TransitionAwareConfig::for_window(window, base.split);
    let base_cell = CellConfig::from_sim(base);
    sweep(
        trace,
        bml,
        [
            ("baseline".to_string(), SchedulerKind::Baseline),
            (
                "transition-aware".to_string(),
                SchedulerKind::TransitionAware(aware_cfg),
            ),
        ]
        .into_iter()
        .map(|(name, scheduler)| {
            (
                name,
                CellConfig {
                    scheduler,
                    ..base_cell.clone()
                },
            )
        })
        .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bml_core::catalog;
    use bml_trace::synthetic;

    fn bml() -> BmlInfrastructure {
        BmlInfrastructure::build(&catalog::table1()).unwrap()
    }

    fn short_trace() -> LoadTrace {
        // Two diurnal days peaking at 2000 req/s.
        synthetic::diurnal(10.0, 2_000.0, 4.0, 2)
    }

    #[test]
    fn comparison_ordering_holds() {
        let trace = short_trace();
        let bml = bml();
        let c = run_comparison(&trace, &bml, &SimConfig::default());
        // Fig. 5 ordering: LB <= BML <= UB PerDay <= UB Global.
        assert!(c.lower_bound.total_energy_j <= c.bml.total_energy_j);
        assert!(c.bml.total_energy_j < c.ub_per_day.total_energy_j);
        assert!(c.ub_per_day.total_energy_j <= c.ub_global.total_energy_j + 1e-6);
        // Overheads positive (BML above the unreachable floor).
        assert!(c.bml_vs_lower.mean > 0.0);
        assert!(c.bml_vs_lower.min >= 0.0);
        assert!(c.bml_vs_lower.max >= c.bml_vs_lower.mean);
        assert_eq!(c.scenarios()[0].name, "UpperBound Global");
    }

    #[test]
    fn per_day_overheads_have_one_entry_per_day() {
        let trace = short_trace();
        let c = run_comparison(&trace, &bml(), &SimConfig::default());
        assert_eq!(c.bml.daily_energy_j.len(), 2);
        assert_eq!(c.lower_bound.daily_energy_j.len(), 2);
    }

    #[test]
    fn window_sweep_produces_all_points() {
        let trace = synthetic::diurnal(10.0, 800.0, 4.0, 1);
        let bml = bml();
        let res = sweep_window(&trace, &bml, &[60, 378, 1_800], &SimConfig::default());
        assert_eq!(res.len(), 3);
        assert_eq!(res[0].0, 60);
        // Longer windows over-provision more: energy is non-decreasing in
        // window length (modulo reconfiguration savings; allow slack).
        let e60 = res[0].1.total_energy_j;
        let e1800 = res[2].1.total_energy_j;
        assert!(e1800 > e60 * 0.9, "e60={e60} e1800={e1800}");
    }

    #[test]
    fn noise_sweep_zero_sigma_matches_clean_run() {
        let trace = synthetic::diurnal(10.0, 800.0, 4.0, 1);
        let bml = bml();
        let clean = scenarios::bml_proactive(&trace, &bml, &SimConfig::default());
        let noisy = sweep_prediction_noise(&trace, &bml, &[0.0, 0.3], 7, &SimConfig::default());
        assert_eq!(noisy.len(), 2);
        assert!((noisy[0].1.total_energy_j - clean.total_energy_j).abs() < 1e-6);
        // Under-prediction with noise must hurt QoS or change energy.
        let degraded = &noisy[1].1;
        assert!(
            degraded.qos.violation_seconds > clean.qos.violation_seconds
                || (degraded.total_energy_j - clean.total_energy_j).abs() > 1.0
        );
    }
}
