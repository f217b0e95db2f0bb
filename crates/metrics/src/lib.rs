//! # bml-metrics — energy accounting and reporting
//!
//! Substrate crate of the BML reproduction: energy metering and per-day
//! accounting matching Fig. 5's reporting ([`energy`]), and the text/CSV
//! table emitter used by the experiment binaries ([`report`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod energy;
pub mod report;

pub use energy::{joules_to_kwh, overhead_percent, overhead_stats, EnergyMeter, OverheadStats};
pub use report::{fmt_percent, Table};
