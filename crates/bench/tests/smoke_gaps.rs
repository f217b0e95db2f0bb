//! Tier-1 optimality-gap gate: the event-driven half of the smoke grid,
//! on a 1-day worldcup-tournament slice, runs through `GridRunner` like
//! the `grid` binary. Every cell must carry its triple's verified
//! optimum, and no cell may cost less than it.
//!
//! The optimum is constrained to full service, so a cell that
//! under-serves could in principle dip below it. Most smoke cells do
//! under-serve (every noisy cell, and the clean cells with the 189 s
//! window), yet none comes near: a negative gap here means a broken
//! solver, a broken replay, or a scheduler that under-serves far more
//! than it does today. CI runs the same checks on its 2-day grid.

use bml_bench::smoke_spec;
use bml_grid::GridRunner;
use bml_sim::Stepping;

#[test]
fn every_smoke_cell_sits_at_or_above_its_optimum() {
    let spec = smoke_spec(1, 1998, vec![Stepping::EventDriven]);
    let run = GridRunner::new(&spec).run().expect("the smoke spec runs");
    let out = &run.outcome;
    assert!(
        out.failed_cells.is_empty(),
        "quarantined: {:?}",
        out.failed_cells
    );
    assert_eq!(out.cells.len(), 72);
    assert_eq!(run.telemetry.counters.get("opt.solves"), 6);
    for c in &out.cells {
        let s = &c.summary;
        let optimum = s.optimal_energy_j.expect("optimum attached");
        let gap = s.optimality_gap.expect("gap attached");
        let cell = c.coords.index;
        assert!(optimum > 0.0, "cell {cell}: optimum {optimum}");
        assert!(gap >= 0.0, "cell {cell}: gap {gap}");
        assert!(
            s.total_energy_j >= optimum,
            "cell {cell}: energy {} below its optimum {optimum}",
            s.total_energy_j
        );
    }
}
