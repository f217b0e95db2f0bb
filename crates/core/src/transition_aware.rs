//! Transition-aware scheduling — the paper's announced future work
//! (Sec. VI): "It is also worth considering other hardware combinations
//! than pre-computed BML combinations as reconfiguration possibilities,
//! and take in account their corresponding overheads when taking
//! reconfiguration decisions."
//!
//! The baseline [`crate::scheduler::ProActiveScheduler`] always jumps to
//! the *ideal* combination for the prediction, paying whatever On/Off
//! overhead that implies. This module generates a small set of candidate
//! configurations around the ideal one (including "stay put" and
//! keep-the-extra-machines variants), scores each candidate by its
//! expected energy over the decision horizon — serving energy **plus**
//! transition energy amortized over the window — and picks the cheapest
//! feasible one.
//!
//! On smooth load this behaves exactly like the baseline; on churn-heavy
//! load it suppresses reconfigurations whose transition energy exceeds
//! what the better-fitting combination saves within the horizon.

use crate::bml::BmlInfrastructure;
use crate::combination::SplitPolicy;
use crate::reconfig::{plan_reconfiguration, Configuration, ReconfigPlan};
use crate::scheduler::{Decision, SchedulerStats};

/// Parameters of the transition-aware scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionAwareConfig {
    /// Horizon (s) over which serving energy differences are compared and
    /// transition energy is amortized. A natural choice is the prediction
    /// window (the paper's 378 s).
    pub horizon_s: f64,
    /// Load-split model used to estimate serving power.
    pub split: SplitPolicy,
    /// Also consider the configurations that keep each architecture's
    /// current (higher) node count instead of shrinking it.
    pub consider_keep_variants: bool,
}

impl TransitionAwareConfig {
    /// Defaults tied to the paper's window.
    pub fn paper() -> Self {
        TransitionAwareConfig {
            horizon_s: 378.0,
            split: SplitPolicy::EfficiencyGreedy,
            consider_keep_variants: true,
        }
    }
}

/// A scored candidate configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCandidate {
    /// The candidate configuration.
    pub config: Configuration,
    /// Expected serving energy over the horizon (J).
    pub serving_energy_j: f64,
    /// Transition energy from the current configuration (J).
    pub transition_energy_j: f64,
    /// Sum of the two: the decision metric.
    pub total_energy_j: f64,
    /// Whether the candidate can serve the predicted load at all.
    pub feasible: bool,
}

/// The transition-aware pro-active scheduler. Drop-in alternative to
/// [`crate::scheduler::ProActiveScheduler`]: same `decide` contract, same
/// lock-out semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionAwareScheduler {
    config: TransitionAwareConfig,
    current: Configuration,
    busy_until: Option<u64>,
    stats: SchedulerStats,
    /// Bits of the last prediction answered [`Decision::NoChange`]; see
    /// [`TransitionAwareScheduler::decide`].
    steady: Option<u64>,
    /// Candidates evaluated on the last unlocked decision (diagnostics).
    pub last_candidates: Vec<ScoredCandidate>,
}

impl TransitionAwareScheduler {
    /// Start with every machine off.
    pub fn new(n_archs: usize, config: TransitionAwareConfig) -> Self {
        Self::with_initial(Configuration::off(n_archs), config)
    }

    /// Start from a given configuration.
    pub fn with_initial(initial: Configuration, config: TransitionAwareConfig) -> Self {
        TransitionAwareScheduler {
            config,
            current: initial,
            busy_until: None,
            stats: SchedulerStats::default(),
            steady: None,
            last_candidates: Vec::new(),
        }
    }

    /// The configuration the scheduler is committed to.
    pub fn current(&self) -> &Configuration {
        &self.current
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &SchedulerStats {
        &self.stats
    }

    /// `true` while a reconfiguration is in flight at `now`.
    pub fn is_locked(&self, now: u64) -> bool {
        self.busy_until.is_some_and(|u| now < u)
    }

    /// Completion time of the in-flight reconfiguration, if any.
    pub fn busy_until(&self) -> Option<u64> {
        self.busy_until
    }

    /// Event-driven replay hint; same contract as
    /// [`crate::scheduler::ProActiveScheduler::next_wakeup`].
    pub fn next_wakeup(&self, now: u64) -> Option<u64> {
        self.busy_until.filter(|&u| u > now)
    }

    /// Generate the candidate configurations for a prediction.
    fn candidates(&self, predicted: f64, bml: &BmlInfrastructure) -> Vec<Configuration> {
        let n = bml.n_archs();
        let ideal = Configuration(bml.combination_table().counts_for(predicted));
        let mut out = vec![ideal.clone()];
        // Staying put is always a candidate (it may be infeasible).
        if self.current != ideal {
            out.push(self.current.clone());
        }
        if self.config.consider_keep_variants {
            // Keep the current count of each architecture where it exceeds
            // the ideal (avoid switch-offs we may regret), one arch at a
            // time and all at once.
            let mut all = ideal.clone();
            for k in 0..n {
                if self.current.0[k] > ideal.0[k] {
                    let mut v = ideal.clone();
                    v.0[k] = self.current.0[k];
                    if !out.contains(&v) {
                        out.push(v);
                    }
                    all.0[k] = self.current.0[k];
                }
            }
            if !out.contains(&all) {
                out.push(all);
            }
        }
        out
    }

    /// Score one candidate against the prediction.
    fn score(
        &self,
        candidate: &Configuration,
        predicted: f64,
        bml: &BmlInfrastructure,
    ) -> ScoredCandidate {
        let feasible = candidate.capacity(bml.candidates()) + 1e-9 >= predicted;
        let (power, _) = bml.config_power(&candidate.0, predicted, self.config.split);
        let serving = power * self.config.horizon_s;
        let transition = plan_reconfiguration(bml.candidates(), &self.current, candidate)
            .map_or(0.0, |p| p.energy);
        ScoredCandidate {
            config: candidate.clone(),
            serving_energy_j: serving,
            transition_energy_j: transition,
            total_energy_j: serving + transition,
            feasible,
        }
    }

    /// One decision step; same contract as the baseline scheduler,
    /// including its steady-decision memo: a prediction equal to the last
    /// one answered [`Decision::NoChange`] gets `NoChange` again without
    /// re-scoring the candidates (they would score the same, so
    /// `last_candidates` stays as it is), until a
    /// [`Decision::Reconfigure`] clears the memo.
    pub fn decide(&mut self, now: u64, predicted: f64, bml: &BmlInfrastructure) -> Decision {
        if let Some(until) = self.busy_until {
            if now < until {
                self.stats.locked_steps += 1;
                return Decision::Locked { until };
            }
            self.busy_until = None;
        }
        self.stats.decisions += 1;
        let predicted = predicted.max(0.0);
        if self.steady == Some(predicted.to_bits()) {
            return Decision::NoChange;
        }

        let candidates = self.candidates(predicted, bml);
        let mut scored: Vec<ScoredCandidate> = candidates
            .iter()
            .map(|c| self.score(c, predicted, bml))
            .collect();
        scored.sort_by(|a, b| {
            b.feasible.cmp(&a.feasible).then(
                a.total_energy_j
                    .partial_cmp(&b.total_energy_j)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        self.last_candidates = scored.clone();
        let best = scored.first().expect("at least the ideal candidate");
        let target = best.config.clone();
        if target == self.current {
            self.steady = Some(predicted.to_bits());
            return Decision::NoChange;
        }
        let plan: ReconfigPlan =
            plan_reconfiguration(bml.candidates(), &self.current, &target).expect("configs differ");
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::scheduler::ProActiveScheduler;

    fn bml() -> BmlInfrastructure {
        BmlInfrastructure::build(&catalog::table1()).unwrap()
    }

    fn sched() -> TransitionAwareScheduler {
        TransitionAwareScheduler::new(3, TransitionAwareConfig::paper())
    }

    #[test]
    fn follows_ideal_on_first_decision() {
        let bml = bml();
        let mut s = sched();
        match s.decide(0, 100.0, &bml) {
            Decision::Reconfigure(plan) => {
                assert_eq!(plan.target.0, vec![0, 3, 1]);
            }
            d => panic!("{d:?}"),
        }
    }

    #[test]
    fn suppresses_uneconomical_shrink() {
        // A Big is on; the prediction drops slightly below the Big
        // threshold. Jumping to 16 Chromebooks + 1 Pi would pay
        // 16 x 49.3 + 40.5 + 657 J of transitions to save ~0.1 W x 378 s
        // (~38 J): the transition-aware scheduler stays put.
        let bml = bml();
        let mut s = TransitionAwareScheduler::with_initial(
            Configuration(vec![1, 0, 0]),
            TransitionAwareConfig::paper(),
        );
        match s.decide(0, 520.0, &bml) {
            Decision::NoChange => {}
            d => panic!("expected hold, got {d:?}"),
        }
        // The baseline scheduler, by contrast, churns.
        let mut base = ProActiveScheduler::with_initial(Configuration(vec![1, 0, 0]));
        assert!(matches!(
            base.decide(0, 520.0, &bml),
            Decision::Reconfigure(_)
        ));
    }

    #[test]
    fn still_shrinks_when_savings_justify_it() {
        // Prediction collapses to 5 req/s: keeping a 69.9 W Big against a
        // ~3.4 W Raspberry wastes ~66 W; over 378 s that's ~25 kJ — more
        // than the ~0.7 kJ of transition energy. Must reconfigure.
        let bml = bml();
        let mut s = TransitionAwareScheduler::with_initial(
            Configuration(vec![1, 0, 0]),
            TransitionAwareConfig::paper(),
        );
        match s.decide(0, 5.0, &bml) {
            Decision::Reconfigure(plan) => {
                assert_eq!(plan.target.0, vec![0, 0, 1]);
            }
            d => panic!("{d:?}"),
        }
    }

    #[test]
    fn infeasible_current_forces_growth() {
        // Load explodes beyond current capacity: staying put would be
        // cheapest in energy but infeasible; the scheduler must grow.
        let bml = bml();
        let mut s = TransitionAwareScheduler::with_initial(
            Configuration(vec![0, 0, 1]),
            TransitionAwareConfig::paper(),
        );
        match s.decide(0, 2_000.0, &bml) {
            Decision::Reconfigure(plan) => {
                assert!(plan.target.capacity(bml.candidates()) >= 2_000.0);
            }
            d => panic!("{d:?}"),
        }
    }

    #[test]
    fn lock_semantics_match_baseline() {
        let bml = bml();
        let mut s = sched();
        s.decide(0, 600.0, &bml); // boots a Big (189 s)
        assert!(s.is_locked(100));
        assert_eq!(s.decide(100, 1.0, &bml), Decision::Locked { until: 189 });
        assert!(!s.is_locked(189));
        assert_eq!(s.next_wakeup(100), Some(189));
        assert_eq!(s.next_wakeup(189), None);
    }

    #[test]
    fn candidates_include_keep_variants() {
        let bml = bml();
        let mut s = TransitionAwareScheduler::with_initial(
            Configuration(vec![1, 2, 0]),
            TransitionAwareConfig::paper(),
        );
        let _ = s.decide(0, 40.0, &bml);
        // Ideal for 40 is [0, 2, 0]-ish; keep-variants must include a
        // configuration retaining the Big.
        assert!(
            s.last_candidates.iter().any(|c| c.config.0[0] == 1),
            "{:?}",
            s.last_candidates
        );
    }

    #[test]
    fn steady_memo_is_cleared_by_a_reconfiguration() {
        let bml = bml();
        let mut s = TransitionAwareScheduler::with_initial(
            Configuration(vec![1, 0, 0]),
            TransitionAwareConfig::paper(),
        );
        // p = 520 holds the Big (see `suppresses_uneconomical_shrink`).
        assert_eq!(s.decide(0, 520.0, &bml), Decision::NoChange);
        let scored = s.last_candidates.clone();
        assert!(!scored.is_empty());
        // A memo hit counts as a decision and leaves the diagnostics alone.
        assert_eq!(s.decide(1, 520.0, &bml), Decision::NoChange);
        assert_eq!(s.stats().decisions, 2);
        assert_eq!(s.last_candidates, scored);
        // q = 5 shrinks to one Raspberry; once unlocked, p must grow the
        // fleet back instead of hitting a stale NoChange.
        match s.decide(2, 5.0, &bml) {
            Decision::Reconfigure(plan) => assert_eq!(plan.target.0, vec![0, 0, 1]),
            d => panic!("{d:?}"),
        }
        let unlock = s.busy_until().expect("the shrink locks");
        assert!(matches!(
            s.decide(unlock, 520.0, &bml),
            Decision::Reconfigure(_)
        ));
        assert!(s.current().capacity(bml.candidates()) >= 520.0);
        assert_eq!(s.stats().decisions, 4);
        assert_ne!(s.last_candidates, scored);
    }

    #[test]
    fn never_picks_infeasible_when_feasible_exists() {
        let bml = bml();
        let mut s = sched();
        for (t, load) in [(0u64, 10.0), (400, 3000.0), (800, 1.0), (1200, 5000.0)] {
            let _ = s.decide(t, load, &bml);
            assert!(
                s.current().capacity(bml.candidates()) + 1e-9 >= load,
                "t={t} load={load} cap={}",
                s.current().capacity(bml.candidates())
            );
        }
    }

    #[test]
    fn stats_track_suppressed_churn() {
        // Oscillating prediction around the Big threshold: baseline
        // reconfigures every unlock; transition-aware holds.
        let bml = bml();
        let mut aware = TransitionAwareScheduler::with_initial(
            Configuration(vec![1, 0, 0]),
            TransitionAwareConfig::paper(),
        );
        let mut base = ProActiveScheduler::with_initial(Configuration(vec![1, 0, 0]));
        for t in 0..200u64 {
            let load = if t % 2 == 0 { 520.0 } else { 540.0 };
            let _ = aware.decide(t, load, &bml);
            let _ = base.decide(t, load, &bml);
        }
        assert_eq!(aware.stats().reconfigurations, 0);
        assert!(base.stats().reconfigurations > 0);
        assert!(base.stats().reconfig_energy > 0.0);
    }
}
