//! Transition-aware scheduling — the paper's announced future work
//! (Sec. VI): "It is also worth considering other hardware combinations
//! than pre-computed BML combinations as reconfiguration possibilities,
//! and take in account their corresponding overheads when taking
//! reconfiguration decisions."
//!
//! The paper's scheduler
//! ([`SchedulerKind::Baseline`](crate::scheduler::SchedulerKind::Baseline))
//! always jumps to the
//! *ideal* combination for the prediction, paying whatever On/Off overhead
//! that implies. [`score_candidates`] generates a small set of candidate
//! configurations around the ideal one ("stay put" and the
//! keep-the-extra-machines variants), scores each candidate by its
//! expected energy over the decision horizon — serving energy **plus**
//! transition energy amortized over the window — and ranks the feasible
//! ones cheapest first. Under
//! [`SchedulerKind::TransitionAware`](crate::scheduler::SchedulerKind::TransitionAware)
//! the [`crate::scheduler::ProActiveScheduler`] moves to the first entry; the
//! lock-out, memo and counters are the same state machine as the
//! baseline's.
//!
//! On smooth load this behaves exactly like the baseline; on churn-heavy
//! load it suppresses reconfigurations whose transition energy exceeds
//! what the better-fitting combination saves within the horizon.

use crate::bml::BmlInfrastructure;
use crate::combination::SplitPolicy;
use crate::reconfig::{plan_reconfiguration, Configuration};

/// Parameters of the transition-aware scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionAwareConfig {
    /// Horizon (s) over which serving energy differences are compared and
    /// transition energy is amortized. A natural choice is the prediction
    /// window (the paper's 378 s).
    pub horizon_s: f64,
    /// Load-split model used to estimate serving power.
    pub split: SplitPolicy,
}

impl TransitionAwareConfig {
    /// The configuration for a look-ahead window of `window_s` seconds
    /// under load split `split`: the horizon is the window.
    pub fn for_window(window_s: u64, split: SplitPolicy) -> Self {
        TransitionAwareConfig {
            horizon_s: window_s as f64,
            split,
        }
    }

    /// Defaults tied to the paper's window.
    pub fn paper() -> Self {
        Self::for_window(378, SplitPolicy::EfficiencyGreedy)
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

/// Score the candidate configurations for moving from `current` under a
/// (non-negative) `predicted` load: feasible candidates first, each group
/// cheapest first by [`ScoredCandidate::total_energy_j`]. Never empty —
/// the ideal combination is always a candidate — and the first entry is
/// the transition-aware scheduler's target.
pub fn score_candidates(
    current: &Configuration,
    predicted: f64,
    bml: &BmlInfrastructure,
    config: &TransitionAwareConfig,
) -> Vec<ScoredCandidate> {
    let mut scored: Vec<ScoredCandidate> = candidates(current, predicted, bml)
        .iter()
        .map(|c| score(current, c, predicted, bml, config))
        .collect();
    scored.sort_by(|a, b| {
        b.feasible.cmp(&a.feasible).then(
            a.total_energy_j
                .partial_cmp(&b.total_energy_j)
                .unwrap_or(std::cmp::Ordering::Equal),
        )
    });
    scored
}

/// The candidate configurations for a prediction: the ideal one, staying
/// put, and keeping the current count of each architecture where it
/// exceeds the ideal (avoiding switch-offs we may regret), one
/// architecture at a time and all at once.
fn candidates(
    current: &Configuration,
    predicted: f64,
    bml: &BmlInfrastructure,
) -> Vec<Configuration> {
    let ideal = Configuration(bml.ideal_combination(predicted).counts(bml.n_archs()));
    let mut out = vec![ideal.clone()];
    // Staying put is always a candidate (it may be infeasible).
    if *current != ideal {
        out.push(current.clone());
    }
    let mut all = ideal.clone();
    for k in 0..bml.n_archs() {
        if current.0[k] > ideal.0[k] {
            let mut v = ideal.clone();
            v.0[k] = current.0[k];
            if !out.contains(&v) {
                out.push(v);
            }
            all.0[k] = current.0[k];
        }
    }
    if !out.contains(&all) {
        out.push(all);
    }
    out
}

/// Score one candidate against the prediction.
fn score(
    current: &Configuration,
    candidate: &Configuration,
    predicted: f64,
    bml: &BmlInfrastructure,
    config: &TransitionAwareConfig,
) -> ScoredCandidate {
    let feasible = candidate.capacity(bml.candidates()) + 1e-9 >= predicted;
    let (power, _) = bml.config_power(&candidate.0, predicted, config.split);
    let serving = power * config.horizon_s;
    let transition =
        plan_reconfiguration(bml.candidates(), current, candidate).map_or(0.0, |p| p.energy);
    ScoredCandidate {
        config: candidate.clone(),
        serving_energy_j: serving,
        transition_energy_j: transition,
        total_energy_j: serving + transition,
        feasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::scheduler::{Decision, ProActiveScheduler, SchedulerKind};

    fn bml() -> BmlInfrastructure {
        BmlInfrastructure::build(&catalog::table1()).unwrap()
    }

    fn aware(initial: Vec<u32>) -> ProActiveScheduler {
        ProActiveScheduler::with_initial(
            Configuration(initial),
            SchedulerKind::TransitionAware(TransitionAwareConfig::paper()),
        )
    }

    fn baseline(initial: Vec<u32>) -> ProActiveScheduler {
        ProActiveScheduler::with_initial(Configuration(initial), SchedulerKind::Baseline)
    }

    #[test]
    fn follows_ideal_on_first_decision() {
        let bml = bml();
        let mut s = aware(vec![0, 0, 0]);
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
        let mut s = aware(vec![1, 0, 0]);
        match s.decide(0, 520.0, &bml) {
            Decision::NoChange => {}
            d => panic!("expected hold, got {d:?}"),
        }
        // The baseline scheduler, by contrast, churns.
        let mut base = baseline(vec![1, 0, 0]);
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
        let mut s = aware(vec![1, 0, 0]);
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
        let mut s = aware(vec![0, 0, 1]);
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
        let mut s = aware(vec![0, 0, 0]);
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
        let scored = score_candidates(
            &Configuration(vec![1, 2, 0]),
            40.0,
            &bml,
            &TransitionAwareConfig::paper(),
        );
        // Ideal for 40 is [0, 2, 0]-ish; keep-variants must include a
        // configuration retaining the Big.
        assert!(scored.iter().any(|c| c.config.0[0] == 1), "{scored:?}");
        // Feasible first, each group cheapest first.
        for pair in scored.windows(2) {
            assert!(
                (pair[0].feasible && !pair[1].feasible)
                    || (pair[0].feasible == pair[1].feasible
                        && pair[0].total_energy_j <= pair[1].total_energy_j),
                "{scored:?}"
            );
        }
    }

    #[test]
    fn steady_memo_is_cleared_by_a_reconfiguration() {
        let bml = bml();
        let config = TransitionAwareConfig::paper();
        let mut s = aware(vec![1, 0, 0]);
        // p = 520 holds the Big (see `suppresses_uneconomical_shrink`):
        // staying put heads the ranking.
        let holding = score_candidates(s.current(), 520.0, &bml, &config);
        assert_eq!(holding[0].config, Configuration(vec![1, 0, 0]));
        assert_eq!(s.decide(0, 520.0, &bml), Decision::NoChange);
        // A memo hit counts as a decision.
        assert_eq!(s.decide(1, 520.0, &bml), Decision::NoChange);
        assert_eq!(s.stats().decisions, 2);
        // q = 5 shrinks to one Raspberry; once unlocked, p must grow the
        // fleet back instead of hitting a stale NoChange, to the head of
        // the ranking from the new configuration.
        match s.decide(2, 5.0, &bml) {
            Decision::Reconfigure(plan) => assert_eq!(plan.target.0, vec![0, 0, 1]),
            d => panic!("{d:?}"),
        }
        let regrow = score_candidates(s.current(), 520.0, &bml, &config);
        assert_ne!(regrow, holding);
        let unlock = s.busy_until().expect("the shrink locks");
        match s.decide(unlock, 520.0, &bml) {
            Decision::Reconfigure(plan) => assert_eq!(plan.target, regrow[0].config),
            d => panic!("{d:?}"),
        }
        assert!(s.current().capacity(bml.candidates()) >= 520.0);
        assert_eq!(s.stats().decisions, 4);
    }

    #[test]
    fn never_picks_infeasible_when_feasible_exists() {
        let bml = bml();
        let mut s = aware(vec![0, 0, 0]);
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
        let mut aware = aware(vec![1, 0, 0]);
        let mut base = baseline(vec![1, 0, 0]);
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
