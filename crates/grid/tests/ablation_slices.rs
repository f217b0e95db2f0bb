//! The ablation sweeps of `bml_sim::runner` and the grid drive one cell
//! executor. A clean grid cell and the matching `sweep_window` or
//! `sweep_scheduler` point are the same computation. A noisy cell is the
//! same computation as a `sweep_prediction_noise` point only when the sweep
//! is given the cell's seed: the sweep hands its one `seed` to every sigma,
//! while a grid cell's seed is `splitmix64(root ^ splitmix64(scenario))`.

use bml_core::bml::BmlInfrastructure;
use bml_core::catalog;
use bml_core::combination::SplitPolicy;
use bml_grid::spec::{CatalogSpec, GridSpec, SchedulerDim};
use bml_grid::{CellRecord, GridRunner};
use bml_sim::runner::{sweep_prediction_noise, sweep_scheduler, sweep_window};
use bml_sim::{CellSummary, SimConfig, Stepping};

const SEED: u64 = 1998;

/// A cell's summary without the offline optimum the grid attaches: the
/// sweeps compute none.
fn without_optimum(cell: &CellRecord) -> CellSummary {
    CellSummary {
        optimal_energy_j: None,
        optimality_gap: None,
        ..cell.summary.clone()
    }
}

#[test]
fn sweep_points_equal_the_matching_grid_cells() {
    let spec = GridSpec::builder()
        .name("ablation-slices")
        .root_seed(SEED)
        .trace("worldcup-tournament", 1, SEED)
        .catalogs(vec![CatalogSpec::table1()])
        .schedulers(vec![SchedulerDim::Baseline, SchedulerDim::TransitionAware])
        .windows(vec![None, Some(189)])
        .noise_sigmas(vec![0.0, 0.2])
        .splits(vec![SplitPolicy::EfficiencyGreedy])
        .steppings(vec![Stepping::EventDriven])
        .build()
        .unwrap();
    let cells = GridRunner::new(&spec).run().unwrap().outcome.cells;
    let cell = |scheduler: usize, window: usize, sigma: usize| {
        cells
            .iter()
            .find(|c| {
                (c.coords.scheduler, c.coords.window, c.coords.sigma) == (scheduler, window, sigma)
            })
            .expect("every coordinate is a cell")
    };
    let trace = bml_trace::registry::generate("worldcup-tournament", 1, SEED).unwrap();
    let bml = BmlInfrastructure::build(&catalog::table1()).unwrap();
    let base = SimConfig::default();

    // Clean baseline cell with the 189 s window.
    let window = sweep_window(&trace, &bml, &[189], &base);
    assert_eq!(window[0].1.summary(), without_optimum(cell(0, 1, 0)));

    // Both schedulers at the paper's window.
    let schedulers = sweep_scheduler(&trace, &bml, &base);
    for (i, (name, r)) in schedulers.iter().enumerate() {
        assert_eq!(r.summary(), without_optimum(cell(i, 0, 0)), "{name}");
    }

    // A noisy cell equals the noise sweep given the cell's seed, and not
    // the sweep given another one.
    let noisy = cell(0, 0, 1);
    let matched = sweep_prediction_noise(&trace, &bml, &[0.2], noisy.coords.seed, &base);
    assert_eq!(matched[0].1.summary(), without_optimum(noisy));
    let reseeded = sweep_prediction_noise(&trace, &bml, &[0.2], SEED, &base);
    assert_ne!(reseeded[0].1.summary(), without_optimum(noisy));
}
