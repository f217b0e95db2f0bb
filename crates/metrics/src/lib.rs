//! # bml-metrics — energy-proportionality metrics, accounting and reporting
//!
//! Substrate crate of the BML reproduction: the IPR/LDR metrics the
//! paper's related work builds on ([`proportionality`]), energy metering
//! and per-day accounting matching Fig. 5's reporting ([`energy`]), and
//! the text/CSV table emitter used by the experiment binaries
//! ([`report`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod energy;
pub mod proportionality;
pub mod report;

pub use energy::{joules_to_kwh, overhead_percent, overhead_stats, EnergyMeter, OverheadStats};
pub use proportionality::{
    infrastructure_proportionality, ipr, ldr, profile_ipr, proportionality_index,
};
pub use report::{fmt_percent, Table};
