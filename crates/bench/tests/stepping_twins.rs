//! Tier-1 stepping-twin gate: every cell of the smoke grid, on a 1-day
//! worldcup-tournament slice, replays the same scenario under the
//! event-driven loop and the per-second reference loop, and the two must
//! agree — discrete outcomes exactly, energies within 1e-9 relative
//! (`ScenarioResult::check_replay_equivalent`). Both loops share the
//! compiled power curves, the scheduler's steady-decision memo and the
//! run-length look-ahead table, so a divergence in any of them fails
//! `cargo test` here before CI's 2-day grid comparison sees it.

use std::collections::BTreeMap;

use bml_bench::smoke_spec;
use bml_sim::exec::{run_cells_checked, CellJob};
use bml_sim::Stepping;

#[test]
fn every_smoke_cell_agrees_with_its_per_second_twin() {
    let spec = smoke_spec(1, 1998, vec![Stepping::EventDriven, Stepping::PerSecond]);
    let trace = spec.traces[0].resolve().expect("registry trace");
    let catalogs: Vec<_> = spec
        .catalogs
        .iter()
        .map(|c| c.resolve().expect("preset catalog builds"))
        .collect();
    let coords = spec.cells();
    assert_eq!(coords.len(), 144);
    let jobs: Vec<CellJob<'_>> = coords
        .iter()
        .map(|c| CellJob {
            trace: &trace,
            bml: &catalogs[c.catalog],
            cell: spec.cell_config(c, &catalogs[c.catalog]),
        })
        .collect();
    let results = run_cells_checked(&jobs, 1, None, None);

    // Stepping is the innermost dimension and twins share the scenario
    // seed, so a scenario is the cell's seed plus its other coordinates.
    let mut twins: BTreeMap<_, Vec<_>> = BTreeMap::new();
    for (c, (job, result)) in coords.iter().zip(jobs.iter().zip(results)) {
        let result = result.unwrap_or_else(|p| panic!("cell {} panicked: {}", c.index, p.message));
        assert_eq!(
            result.stepping_effective, job.cell.stepping,
            "cell {} ran {:?} for a {:?} request",
            c.index, result.stepping_effective, job.cell.stepping
        );
        let scenario = (c.catalog, c.scheduler, c.window, c.sigma, c.split, c.seed);
        twins
            .entry(scenario)
            .or_default()
            .push((job.cell.stepping, result));
    }
    assert_eq!(twins.len(), 72);
    for (scenario, pair) in &twins {
        let [(event_stepping, event), (reference_stepping, reference)] = &pair[..] else {
            panic!(
                "scenario {scenario:?} has {} cells, not a twin pair",
                pair.len()
            );
        };
        assert_eq!(
            (*event_stepping, *reference_stepping),
            (Stepping::EventDriven, Stepping::PerSecond)
        );
        reference
            .check_replay_equivalent(event, 1e-9)
            .unwrap_or_else(|e| panic!("scenario {scenario:?}: steppings diverged: {e}"));
    }
}
