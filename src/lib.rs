//! # bml — Big-Medium-Little energy-proportional data centers
//!
//! Umbrella crate of the reproduction of *"Dynamically Building Energy
//! Proportional Data Centers with Heterogeneous Computing Resources"*
//! (Villebonnet et al., IEEE CLUSTER 2016). It re-exports the workspace
//! crates and hosts the runnable examples and the cross-crate integration
//! tests.
//!
//! * [`core`] (`bml-core`) — the paper's contribution: profiles,
//!   candidate filtering, crossing points, ideal combinations, the
//!   pro-active scheduler;
//! * [`trace`] (`bml-trace`) — load traces, the World-Cup-98-like
//!   workload, predictors;
//! * [`sim`] (`bml-sim`) — the discrete-event simulator, its energy
//!   meter and the four Fig. 5 scenarios;
//! * [`grid`] (`bml-grid`) — declarative multi-dimensional scenario
//!   grids executed rayon-parallel with deterministic artifacts;
//! * [`opt`] (`bml-opt`) — offline-optimal reconfiguration schedules via
//!   an exact segment DP, replay-verified against the simulator;
//! * [`profiler`] (`bml-profiler`) — the Step-1 measurement harness.
//!
//! ```
//! use bml::prelude::*;
//!
//! let infra = BmlInfrastructure::build(&bml::core::catalog::table1()).unwrap();
//! assert_eq!(infra.threshold_rates(), vec![529.0, 10.0, 1.0]);
//! ```

#![warn(missing_docs)]

pub use bml_core as core;
pub use bml_grid as grid;
pub use bml_opt as opt;
pub use bml_profiler as profiler;
pub use bml_sim as sim;
pub use bml_trace as trace;

/// One-stop import of the most used types across the workspace.
pub mod prelude {
    pub use bml_core::prelude::*;
    pub use bml_grid::{GridOutcome, GridRunner, GridSpec};
    pub use bml_opt::{solve_verified, OptOptions, OptimalSchedule};
    pub use bml_profiler::{paper_machines, profile_park, ProfilerConfig};
    pub use bml_sim::{run_comparison, EnergyMeter, OverheadStats, ScenarioResult, SimConfig};
    pub use bml_trace::{LoadTrace, LookaheadMaxPredictor, Predictor};
}
