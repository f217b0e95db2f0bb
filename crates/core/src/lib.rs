//! # bml-core — Big-Medium-Little energy-proportional infrastructures
//!
//! Reproduction of the core contribution of *"Dynamically Building Energy
//! Proportional Data Centers with Heterogeneous Computing Resources"*
//! (Villebonnet, Da Costa, Lefèvre, Pierson, Stolf — IEEE CLUSTER 2016).
//!
//! Data centers are over-provisioned and servers burn up to half their
//! peak power while idle. The paper composes a data center from machine
//! types with very different performance/power envelopes (from Xeon
//! servers down to Raspberry Pis) and reconfigures it dynamically so that
//! power consumption tracks load — *energy proportionality* built from
//! non-proportional parts.
//!
//! This crate implements the five-step BML methodology plus the pro-active
//! scheduler:
//!
//! 1. [`profile::ArchProfile`] — per-architecture energy/performance
//!    profiles (paper Table I);
//! 2. [`candidates`] — Step 2 dominance filtering (plus the Step-3
//!    "never optimal" removal);
//! 3. [`crossing`] — Steps 3-4 crossing points / minimum utilization
//!    thresholds;
//! 4. [`combination`] — Step 5 ideal machine combinations, the paper's
//!    greedy fill ([`combination::ideal_fill`]);
//! 5. [`bml::BmlInfrastructure`] — everything assembled;
//! 6. [`scheduler::ProActiveScheduler`] + [`reconfig`] — the dynamic
//!    reconfiguration engine with switch on/off overheads, picking its
//!    targets by [`scheduler::SchedulerKind`]: the paper's ideal
//!    combination, or the Sec. VI [`transition_aware`] ranking.
//!
//! ## Quickstart
//!
//! ```
//! use bml_core::prelude::*;
//!
//! // Step 1: profiles (here: the paper's Table I catalog).
//! let profiles = bml_core::catalog::table1();
//!
//! // Steps 2-4: build the infrastructure.
//! let bml = BmlInfrastructure::build(&profiles).unwrap();
//! assert_eq!(bml.threshold_rates(), vec![529.0, 10.0, 1.0]);
//!
//! // Step 5: which machines should serve 100 requests/s?
//! // 3 full Chromebooks (99 req/s) + the 1 req/s remainder on a Raspberry.
//! let combo = bml.ideal_combination(100.0);
//! assert_eq!(combo.counts(3), vec![0, 3, 1]);
//!
//! // Drive the pro-active scheduler.
//! let mut sched = ProActiveScheduler::new(bml.n_archs(), SchedulerKind::Baseline);
//! match sched.decide(0, 100.0, &bml) {
//!     Decision::Reconfigure(plan) => assert_eq!(plan.nodes_switched_on(), 4),
//!     other => panic!("unexpected: {other:?}"),
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bml;
pub mod candidates;
pub mod catalog;
pub mod combination;
pub mod crossing;
pub mod errors;
pub mod profile;
pub mod reconfig;
pub mod rng;
pub mod scheduler;
pub mod transition_aware;

/// Convenient glob-import of the main types.
pub mod prelude {
    pub use crate::bml::BmlInfrastructure;
    pub use crate::candidates::{bml_candidates, CandidateSet, RemovalReason};
    pub use crate::combination::{Combination, SplitPolicy};
    pub use crate::crossing::{Threshold, ThresholdKind};
    pub use crate::errors::BmlError;
    pub use crate::profile::ArchProfile;
    pub use crate::reconfig::{Configuration, ReconfigPlan};
    pub use crate::scheduler::{paper_window_length, Decision, ProActiveScheduler, SchedulerKind};
    pub use crate::transition_aware::TransitionAwareConfig;
}

#[cfg(test)]
mod doc_invariants {
    use crate::prelude::*;

    #[test]
    fn quickstart_combination_three_chromebooks_one_raspberry() {
        let bml = BmlInfrastructure::build(&crate::catalog::table1()).unwrap();
        let combo = bml.ideal_combination(100.0);
        assert_eq!(combo.counts(3), vec![0, 3, 1]);
    }
}
