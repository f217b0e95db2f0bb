//! # bml-bench — experiment binaries and Criterion benches
//!
//! One binary per paper table/figure (the README's *Figure & ablation
//! binaries* lists them) plus ablation studies and the multi-dimensional
//! `grid` runner. This library hosts the shared CLI argument plumbing
//! ([`cli`]) so the twelve binaries parse `--seed`/`--days`/`--threads`/...
//! one way, the text/CSV tables they print ([`report`]), and the smoke
//! grid spec ([`smoke_spec`]) the `grid` binary runs.

#![warn(missing_docs)]

pub mod cli;
pub mod report;

use bml_core::combination::SplitPolicy;
use bml_grid::spec::{CatalogSpec, GridSpec, SchedulerDim};
use bml_sim::Stepping;

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
