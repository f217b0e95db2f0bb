//! The pro-active reconfiguration scheduler (paper Sec. V-C).
//!
//! At each time step the scheduler receives a load *prediction* (the paper
//! emulates prediction with the maximum real load over a sliding look-ahead
//! window of `2 x` the longest switch-on duration — 378 s for Table I
//! hardware). It picks a target configuration for that prediction and, if
//! it differs from the current hardware configuration, launches a
//! reconfiguration. While a reconfiguration is in flight **no other
//! decision can be made**; the next prediction window starts from the
//! reconfiguration completion time. Otherwise the window slides one time
//! step forward.
//!
//! [`ProActiveScheduler`] is the one scheduler state machine: the lock-out,
//! the steady-decision memo, the counters and the commit are shared by
//! every [`SchedulerKind`], which only decides how the target is picked —
//! the ideal BML combination (the paper's scheduler), or the cheapest
//! candidate of [`crate::transition_aware::score_candidates`] (the Sec. VI
//! transition-aware variant).

use crate::bml::BmlInfrastructure;
use crate::profile::ArchProfile;
use crate::reconfig::{plan_reconfiguration, Configuration, ReconfigPlan};
use crate::transition_aware::{score_candidates, TransitionAwareConfig};

/// The look-ahead window length the paper uses: twice the longest switch-on
/// duration among the candidate architectures, in whole seconds.
///
/// For the paper's Table I trio this is `2 x 189 s = 378 s`.
pub fn paper_window_length(profiles: &[ArchProfile]) -> u64 {
    let longest = profiles
        .iter()
        .map(|p| p.on_duration)
        .fold(0.0f64, f64::max);
    (2.0 * longest).ceil() as u64
}

/// Outcome of one scheduler step.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// A reconfiguration is in flight; no decision until `until` (s).
    Locked {
        /// Completion time of the in-flight reconfiguration.
        until: u64,
    },
    /// The ideal combination equals the current configuration; the window
    /// slides one step.
    NoChange,
    /// A reconfiguration starts now; the plan carries the actions and
    /// overheads.
    Reconfigure(ReconfigPlan),
}

/// Counters accumulated over a scheduler run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedulerStats {
    /// Steps on which the scheduler was free to decide.
    pub decisions: u64,
    /// Steps skipped because a reconfiguration was in flight.
    pub locked_steps: u64,
    /// Number of reconfigurations launched.
    pub reconfigurations: u64,
    /// Total machines booted.
    pub nodes_switched_on: u64,
    /// Total machines shut down.
    pub nodes_switched_off: u64,
    /// Total transition energy committed (J).
    pub reconfig_energy: f64,
    /// Total seconds spent reconfiguring.
    pub reconfig_seconds: f64,
}

/// Which policy picks the scheduler's reconfiguration target.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerKind {
    /// The paper's pro-active scheduler: always jump to the ideal
    /// combination for the prediction.
    Baseline,
    /// The future-work transition-aware scheduler: move to the cheapest
    /// feasible candidate by serving + transition energy over the horizon
    /// ([`crate::transition_aware::score_candidates`]).
    TransitionAware(TransitionAwareConfig),
}

/// The pro-active scheduler state machine.
///
/// Drive it by calling [`ProActiveScheduler::decide`] once per time step
/// with the current prediction; apply the returned plan to your execution
/// substrate (the `bml-sim` crate's cluster, or a real testbed).
#[derive(Debug, Clone, PartialEq)]
pub struct ProActiveScheduler {
    kind: SchedulerKind,
    current: Configuration,
    busy_until: Option<u64>,
    stats: SchedulerStats,
    /// Bits of the last prediction answered [`Decision::NoChange`]; see
    /// [`ProActiveScheduler::decide`].
    steady: Option<u64>,
}

impl ProActiveScheduler {
    /// Start with every machine off.
    pub fn new(n_archs: usize, kind: SchedulerKind) -> Self {
        Self::with_initial(Configuration::off(n_archs), kind)
    }

    /// Start from a given configuration (e.g. the combination for the
    /// first prediction, so the trace does not begin with a cold boot).
    pub fn with_initial(initial: Configuration, kind: SchedulerKind) -> Self {
        ProActiveScheduler {
            kind,
            current: initial,
            busy_until: None,
            stats: SchedulerStats::default(),
            steady: None,
        }
    }

    /// The configuration the scheduler believes is (or will be, once the
    /// in-flight reconfiguration completes) powered on.
    pub fn current(&self) -> &Configuration {
        &self.current
    }

    /// `true` while a reconfiguration is in flight at time `now`.
    pub fn is_locked(&self, now: u64) -> bool {
        self.busy_until.is_some_and(|u| now < u)
    }

    /// Completion time of the in-flight reconfiguration, if any.
    pub fn busy_until(&self) -> Option<u64> {
        self.busy_until
    }

    /// Event-driven replay hint: the next time after `now` at which the
    /// scheduler must be consulted even if its inputs do not change —
    /// the unlock instant of the in-flight reconfiguration. `None` means
    /// the scheduler only needs waking when the prediction changes
    /// (its decision is a pure function of the prediction and the
    /// current configuration).
    pub fn next_wakeup(&self, now: u64) -> Option<u64> {
        self.busy_until.filter(|&u| u > now)
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &SchedulerStats {
        &self.stats
    }

    /// One scheduler step at time `now` (s) with `predicted_load`.
    ///
    /// Reconfiguration durations are rounded *up* to whole seconds when
    /// computing the lock-out, matching the paper's 1 s decision grid.
    ///
    /// An unlocked decision is a pure function of the prediction and the
    /// current configuration (for a fixed `bml`, which callers pass
    /// unchanged on every call). So the scheduler remembers the last
    /// prediction it answered [`Decision::NoChange`] for and answers an
    /// equal prediction the same way without picking a target again, until
    /// a [`Decision::Reconfigure`] changes the configuration and clears
    /// the memo. A memo hit still counts as a decision.
    pub fn decide(&mut self, now: u64, predicted_load: f64, bml: &BmlInfrastructure) -> Decision {
        if let Some(until) = self.busy_until {
            if now < until {
                self.stats.locked_steps += 1;
                return Decision::Locked { until };
            }
            self.busy_until = None;
        }
        self.stats.decisions += 1;
        let predicted = predicted_load.max(0.0);
        if self.steady == Some(predicted.to_bits()) {
            return Decision::NoChange;
        }
        let Some(target) = self.target(predicted, bml) else {
            self.steady = Some(predicted.to_bits());
            return Decision::NoChange;
        };
        let plan = plan_reconfiguration(bml.candidates(), &self.current, &target)
            .expect("configs differ, so a plan exists");
        let lock = plan.duration.ceil() as u64;
        if lock > 0 {
            self.busy_until = Some(now + lock);
        }
        self.stats.reconfigurations += 1;
        self.stats.nodes_switched_on += u64::from(plan.nodes_switched_on());
        self.stats.nodes_switched_off += u64::from(plan.nodes_switched_off());
        self.stats.reconfig_energy += plan.energy;
        self.stats.reconfig_seconds += plan.duration;
        self.current = target;
        self.steady = None;
        Decision::Reconfigure(plan)
    }

    /// The configuration this scheduler's kind moves to for `predicted`,
    /// or `None` when that is the current one.
    fn target(&self, predicted: f64, bml: &BmlInfrastructure) -> Option<Configuration> {
        let target = match &self.kind {
            SchedulerKind::Baseline => {
                Configuration(bml.ideal_combination(predicted).counts(bml.n_archs()))
            }
            SchedulerKind::TransitionAware(config) => {
                score_candidates(&self.current, predicted, bml, config)
                    .into_iter()
                    .next()
                    .expect("the ideal combination is always a candidate")
                    .config
            }
        };
        (target != self.current).then_some(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn bml() -> BmlInfrastructure {
        BmlInfrastructure::build(&catalog::table1()).unwrap()
    }

    #[test]
    fn paper_window_is_378s() {
        assert_eq!(paper_window_length(&catalog::table1()), 378);
        assert_eq!(paper_window_length(&catalog::paper_bml_trio()), 378);
    }

    #[test]
    fn first_decision_boots_for_prediction() {
        let bml = bml();
        let mut s = ProActiveScheduler::new(bml.n_archs(), SchedulerKind::Baseline);
        match s.decide(0, 10.0, &bml) {
            Decision::Reconfigure(plan) => {
                // 10 req/s = exactly the Medium threshold -> 1 chromebook.
                assert_eq!(plan.target.0, vec![0, 1, 0]);
                assert_eq!(plan.duration, 12.0);
            }
            d => panic!("expected reconfigure, got {d:?}"),
        }
        assert!(s.is_locked(5));
        assert!(!s.is_locked(12));
    }

    #[test]
    fn locked_while_reconfiguring() {
        let bml = bml();
        let mut s = ProActiveScheduler::new(bml.n_archs(), SchedulerKind::Baseline);
        s.decide(0, 600.0, &bml); // boots a Big: 189 s
        for t in 1..189 {
            assert_eq!(s.decide(t, 1.0, &bml), Decision::Locked { until: 189 });
        }
        // At completion the scheduler is free again.
        match s.decide(189, 1.0, &bml) {
            Decision::Reconfigure(plan) => {
                assert_eq!(plan.target.0, vec![0, 0, 1]);
            }
            d => panic!("expected reconfigure after unlock, got {d:?}"),
        }
    }

    #[test]
    fn next_wakeup_tracks_the_lock() {
        let bml = bml();
        let mut s = ProActiveScheduler::new(bml.n_archs(), SchedulerKind::Baseline);
        assert_eq!(s.next_wakeup(0), None);
        s.decide(0, 600.0, &bml); // boots a Big: locked until 189
        assert_eq!(s.next_wakeup(0), Some(189));
        assert_eq!(s.next_wakeup(188), Some(189));
        assert_eq!(s.next_wakeup(189), None);
    }

    #[test]
    fn no_change_when_combination_stable() {
        let bml = bml();
        let mut s = ProActiveScheduler::new(bml.n_archs(), SchedulerKind::Baseline);
        s.decide(0, 10.0, &bml);
        assert_eq!(s.decide(12, 10.0, &bml), Decision::NoChange);
        assert_eq!(s.decide(13, 10.0, &bml), Decision::NoChange);
        assert_eq!(s.stats().reconfigurations, 1);
        assert_eq!(s.stats().decisions, 3);
    }

    #[test]
    fn steady_memo_is_cleared_by_a_reconfiguration() {
        // Lock-out and memo belong to the state machine, not to the kind:
        // the same walk holds for both ways of picking a target.
        let bml = bml();
        for kind in [
            SchedulerKind::Baseline,
            SchedulerKind::TransitionAware(TransitionAwareConfig::paper()),
        ] {
            let mut s = ProActiveScheduler::new(bml.n_archs(), kind.clone());
            // 1 chromebook, locked until 12.
            match s.decide(0, 10.0, &bml) {
                Decision::Reconfigure(plan) => assert_eq!(plan.target.0, vec![0, 1, 0]),
                d => panic!("{kind:?}: {d:?}"),
            }
            assert_eq!(s.decide(5, 10.0, &bml), Decision::Locked { until: 12 });
            assert_eq!(s.next_wakeup(5), Some(12));
            assert_eq!(s.next_wakeup(12), None);
            // NoChange at p = 10 fills the memo; a memo hit still counts
            // as a decision.
            assert_eq!(s.decide(12, 10.0, &bml), Decision::NoChange);
            assert_eq!(s.decide(13, 10.0, &bml), Decision::NoChange);
            assert_eq!(s.stats().decisions, 3, "{kind:?}");
            assert_eq!(s.stats().locked_steps, 1, "{kind:?}");
            // q = 600 reconfigures to a Big; once unlocked, p must move the
            // fleet back instead of hitting a stale NoChange.
            match s.decide(14, 600.0, &bml) {
                Decision::Reconfigure(plan) => assert_eq!(plan.target.0, vec![1, 0, 0]),
                d => panic!("{kind:?}: {d:?}"),
            }
            let unlock = s.busy_until().expect("booting a Big locks");
            assert!(s.is_locked(unlock - 1) && !s.is_locked(unlock));
            match s.decide(unlock, 10.0, &bml) {
                Decision::Reconfigure(plan) => assert_eq!(plan.target.0, vec![0, 1, 0]),
                d => panic!("{kind:?}: stale memo answered {d:?}"),
            }
            assert_eq!(s.stats().decisions, 5, "{kind:?}");
            assert_eq!(s.stats().reconfigurations, 3, "{kind:?}");
        }
    }

    #[test]
    fn stats_accumulate() {
        let bml = bml();
        let mut s = ProActiveScheduler::new(bml.n_archs(), SchedulerKind::Baseline);
        s.decide(0, 10.0, &bml); // on: 1 chromebook (49.3 J, 12 s)
        s.decide(12, 1.0, &bml); // off chromebook, on raspberry
        let st = s.stats();
        assert_eq!(st.reconfigurations, 2);
        assert_eq!(st.nodes_switched_on, 2);
        assert_eq!(st.nodes_switched_off, 1);
        assert!(st.reconfig_energy > 49.0);
    }

    #[test]
    fn zero_prediction_powers_everything_off() {
        let bml = bml();
        let mut s =
            ProActiveScheduler::with_initial(Configuration(vec![1, 0, 0]), SchedulerKind::Baseline);
        match s.decide(0, 0.0, &bml) {
            Decision::Reconfigure(plan) => {
                assert!(plan.target.is_off());
                assert_eq!(plan.nodes_switched_off(), 1);
            }
            d => panic!("expected power-down, got {d:?}"),
        }
    }

    #[test]
    fn negative_prediction_treated_as_zero() {
        let bml = bml();
        let mut s = ProActiveScheduler::new(bml.n_archs(), SchedulerKind::Baseline);
        assert_eq!(s.decide(0, -5.0, &bml), Decision::NoChange);
    }

    #[test]
    fn instantaneous_transitions_do_not_lock() {
        let profiles = vec![
            ArchProfile::without_transitions("big", 10.0, 50.0, 100.0).unwrap(),
            ArchProfile::without_transitions("little", 1.0, 3.0, 10.0).unwrap(),
        ];
        let bml = BmlInfrastructure::from_candidates(profiles).unwrap();
        let mut s = ProActiveScheduler::new(2, SchedulerKind::Baseline);
        match s.decide(0, 5.0, &bml) {
            Decision::Reconfigure(_) => {}
            d => panic!("{d:?}"),
        }
        // No lock: can decide again immediately.
        assert!(!s.is_locked(0));
        match s.decide(0, 50.0, &bml) {
            Decision::Reconfigure(_) => {}
            d => panic!("{d:?}"),
        }
    }

    #[test]
    fn one_reconfiguration_at_a_time_invariant() {
        // Property: between a Reconfigure and its completion, every decide
        // returns Locked.
        let bml = bml();
        let mut s = ProActiveScheduler::new(bml.n_archs(), SchedulerKind::Baseline);
        let mut in_flight_until: Option<u64> = None;
        let loads = [5.0, 700.0, 20.0, 1400.0, 3.0, 0.0, 2500.0];
        for (i, &l) in loads.iter().cycle().take(2000).enumerate() {
            let t = i as u64;
            let d = s.decide(t, l + (i % 7) as f64, &bml);
            match d {
                Decision::Locked { until } => {
                    let u = in_flight_until.expect("locked without reconfig");
                    assert_eq!(u, until);
                    assert!(t < until);
                }
                Decision::Reconfigure(_) => {
                    if let Some(u) = in_flight_until {
                        assert!(t >= u, "reconfig launched while locked");
                    }
                    in_flight_until = s.busy_until();
                }
                Decision::NoChange => {}
            }
        }
    }
}
