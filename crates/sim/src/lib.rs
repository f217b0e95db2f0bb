//! # bml-sim — discrete-event data-center simulator
//!
//! Rust port of the role the paper's Python simulator plays (Sec. V-C):
//! it "takes as input the experimental machine profiles, and a trace file
//! describing the application load variation over time" and replays the
//! pro-active BML scheduler against it at 1 Hz, accounting computation
//! energy, On/Off transition energy, and QoS.
//!
//! * [`cluster`] — per-architecture machine pools with the
//!   Off → Booting → On → ShuttingDown lifecycle and transition power
//!   ramps that integrate exactly to the Table I transition energies;
//! * [`engine`] — the simulation loop driving the `bml-core` scheduler
//!   with any `bml-trace` predictor, in either per-second (reference) or
//!   event-driven skip-ahead stepping ([`engine::Stepping`]);
//! * `migration` (private) — the stateless web server's instance
//!   migration accounting, charged on every reconfiguration;
//! * [`qos`] — demand-vs-served accounting;
//! * [`replay`] — schedule replay (records in, energies out): how
//!   `bml-opt` verifies its offline-optimal schedules against the same
//!   cluster model the engine uses;
//! * [`scenarios`] — the four Fig. 5 scenarios (two homogeneous upper
//!   bounds, BML, the theoretical lower bound);
//! * [`exec`] — the shared experiment-cell executor: one knob setting =
//!   one cell, fanned out rayon-parallel with order-preserving,
//!   thread-count-independent results;
//! * [`runner`] — the Fig. 5 comparison and the ablation sweeps, thin
//!   wrappers over [`exec`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod engine;
pub mod exec;
mod migration;
pub mod qos;
pub mod replay;
pub mod runner;
pub mod scenarios;

pub use cluster::{ArchPool, Cluster};
pub use engine::{
    simulate_bml, CellSummary, FailureModel, ReconfigRecord, ScenarioResult, SchedulerKind,
    SimConfig, Stepping,
};
pub use exec::{run_cell, run_cells, run_cells_checked, CellConfig, CellJob, CellPanic};
pub use qos::QosReport;
pub use replay::replay_schedule;
pub use runner::{run_comparison, sweep_prediction_noise, sweep_window, ComparisonResult};
