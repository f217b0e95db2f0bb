//! # bml-bench — experiment binaries and Criterion benches
//!
//! One binary per paper table/figure (the README's *Figure & ablation
//! binaries* lists them) plus ablation studies and the multi-dimensional
//! `grid` runner. This library hosts the shared CLI argument plumbing
//! ([`cli`]) so the twelve binaries parse `--seed`/`--days`/`--threads`/...
//! one way, the text/CSV tables they print ([`report`]), the smoke grid
//! spec ([`smoke_spec`]) the `grid` binary runs, and the one-dimensional
//! grid ([`run_ablation`]) the window, scheduler and prediction
//! ablations run.

#![warn(missing_docs)]

pub mod cli;
pub mod report;

use bml_core::combination::SplitPolicy;
use bml_grid::spec::{CatalogSpec, GridSpec, GridSpecBuilder, SchedulerDim};
use bml_grid::{CellRecord, GridRunner};
use bml_sim::{CellSummary, Stepping};

pub use cli::{Args, USAGE};
pub use report::{fmt_percent, joules_to_kwh, Table};

/// The workspace's one JSON writer, re-exported from `bml-obs` so every
/// bench binary renders its `BENCH_*.json` summary and its stderr events
/// the way the grid artifact and the telemetry are rendered.
pub use bml_obs::json;

/// The `grid` binary's smoke grid: 3 catalogs x 2 schedulers x 3 windows
/// x 2 sigmas x 2 splits x the given steppings (144 cells with both) on
/// one `days`-day worldcup-tournament trace, with `seed` as both the
/// trace seed and the root seed. The binary includes both stepping modes
/// by default on purpose — CI and the `stepping_twins` test diff
/// event-driven cells against their per-second twins; an explicit
/// `--stepping` restricts the dimension to that one mode (72 cells).
pub fn smoke_spec(days: u32, seed: u64, steppings: Vec<Stepping>) -> GridSpec {
    GridSpec::builder()
        .name(format!("smoke-{days}d"))
        .root_seed(seed)
        .trace("worldcup-tournament", days, seed)
        .catalogs(vec![
            CatalogSpec::table1(),
            CatalogSpec::big_medium(),
            CatalogSpec::big_little(),
        ])
        .schedulers(vec![SchedulerDim::Baseline, SchedulerDim::TransitionAware])
        .windows(vec![None, Some(189), Some(756)])
        .noise_sigmas(vec![0.0, 0.2])
        .splits(vec![
            SplitPolicy::EfficiencyGreedy,
            SplitPolicy::ProportionalToCapacity,
        ])
        .steppings(steppings)
        .build()
        .expect("the smoke grid is always a valid spec")
}

/// Run an ablation binary's sweep as a one-dimensional grid through
/// [`GridRunner`]; returns its cells in sweep order, optima attached.
///
/// The other dimensions hold one value each: the `days`-day
/// worldcup-tournament trace at `--seed`, Table I, the baseline
/// scheduler, `--window` (the paper's rule when unset), clean prediction,
/// the efficiency-greedy split and `--stepping`. `sweep` replaces the
/// swept dimension's list. `--seed` is also the root seed, `--threads`
/// caps the workers, and `--cache-dir` turns on the grid's cell and
/// optimum cache, so a repeated sweep loads its optimum instead of solving
/// it again. Exits 1, naming them, when cells were quarantined: the table
/// would lack their rows.
pub fn run_ablation(
    name: &str,
    args: &Args,
    days: u32,
    sweep: impl FnOnce(GridSpecBuilder) -> GridSpecBuilder,
) -> Vec<CellRecord> {
    let spec = sweep(
        GridSpec::builder()
            .name(name)
            .root_seed(args.seed)
            .trace("worldcup-tournament", days, args.seed)
            .catalogs(vec![CatalogSpec::table1()])
            .schedulers(vec![SchedulerDim::Baseline])
            .windows(vec![args.window])
            .noise_sigmas(vec![0.0])
            .splits(vec![SplitPolicy::EfficiencyGreedy])
            .steppings(vec![args.stepping_or_default()]),
    )
    .build()
    .expect("an ablation sweep is a valid spec");
    eprintln!("{name}: {} cells over {days} days...", spec.n_cells());
    let mut runner = GridRunner::new(&spec);
    if let Some(n) = args.threads {
        runner = runner.threads(n);
    }
    if let Some(dir) = &args.cache_dir {
        runner = runner.cache_dir(dir);
    }
    let outcome = runner.run().expect("a valid spec runs").outcome;
    for f in &outcome.failed_cells {
        eprintln!(
            "{name}: quarantined cell {} ({})",
            f.coords.index,
            f.labels.join(", ")
        );
    }
    if !outcome.failed_cells.is_empty() {
        std::process::exit(1);
    }
    outcome.cells
}

/// A cell's optimality gap in percent, two decimals; `-` without one.
pub fn gap_percent(summary: &CellSummary) -> String {
    summary
        .optimality_gap
        .map_or_else(|| "-".into(), |gap| format!("{:.2}", 100.0 * gap))
}
