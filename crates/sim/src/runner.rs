//! Scenario runner: the Fig. 5 four-way comparison.
//!
//! The ablation sweeps are one-dimensional `bml-grid` specs, run by its
//! `GridRunner` over the shared cell executor ([`crate::exec`]).

use bml_core::bml::BmlInfrastructure;
use bml_trace::LoadTrace;

use crate::energy::{overhead_stats, OverheadStats};
use crate::engine::{ScenarioResult, SimConfig};
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
}
