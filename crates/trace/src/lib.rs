//! # bml-trace — workload traces and load predictors
//!
//! Substrate crate of the BML reproduction: per-second load traces
//! ([`trace::LoadTrace`]), deterministic synthetic generators
//! ([`synthetic`], and the World-Cup-98-like tournament workload in
//! [`worldcup`] substituting the paper's 1998 World Cup trace), an O(n)
//! sliding-window maximum kept as its constant runs ([`window`]),
//! constant-run segment iteration for the event-driven replay engine
//! ([`segments`]), the load predictors the pro-active scheduler consumes
//! ([`predictor`]), and a named trace-source registry ([`registry`]) so
//! experiment grids can reference workloads declaratively.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod predictor;
pub mod registry;
pub mod segments;
pub mod synthetic;
pub mod trace;
pub mod window;
pub mod worldcup;

pub use predictor::{
    EwmaPredictor, LastValuePredictor, LookaheadMaxPredictor, NoisyPredictor, Predictor,
};
pub use segments::{constant_runs, Segment};
pub use trace::{LoadTrace, SECONDS_PER_DAY};
pub use window::LookaheadMaxTable;
