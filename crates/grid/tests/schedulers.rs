//! The scheduler dimension's two values must schedule differently. On one
//! trace day the scheduler ablation prints the same row for both, so this
//! check runs on the smoke grid's own trace: two worldcup-tournament days
//! at seed 1998, on Table I, with the paper's 378 s window, clean
//! prediction and the efficiency-greedy split.

use bml_core::bml::BmlInfrastructure;
use bml_core::catalog;
use bml_core::combination::SplitPolicy;
use bml_core::scheduler::paper_window_length;
use bml_grid::spec::SchedulerDim;
use bml_sim::{run_cell, CellConfig, SimConfig};

#[test]
fn schedulers_differ_on_the_smoke_trace() {
    let trace = bml_trace::registry::generate("worldcup-tournament", 2, 1998).unwrap();
    let bml = BmlInfrastructure::build(&catalog::table1()).unwrap();
    let split = SplitPolicy::EfficiencyGreedy;
    let window = paper_window_length(bml.candidates());
    assert_eq!(window, 378);
    // (reconfigurations, boots) of one cell per scheduler, built as the
    // grid builds a paper-window cell.
    let churn = |dim: SchedulerDim| {
        let cell = CellConfig {
            scheduler: dim.resolve(window, split),
            split,
            ..CellConfig::from_sim(&SimConfig::default())
        };
        let result = run_cell(&trace, &bml, &cell);
        (result.reconfigurations, result.nodes_switched_on)
    };
    assert_eq!(churn(SchedulerDim::Baseline), (341, 458), "baseline");
    assert_eq!(
        churn(SchedulerDim::TransitionAware),
        (337, 404),
        "transition-aware"
    );
}
