//! Property-based tests for the BML core invariants.

use bml_core::candidates::{bml_candidates, filter_candidates};
use bml_core::combination::{config_power, ideal_fill, optimal_dp, SplitPolicy};
use bml_core::crossing::compute_thresholds;
use bml_core::prelude::*;
use bml_core::profile::{stack_nodes, stack_power};
use proptest::prelude::*;

/// Strategy: a random valid architecture profile.
fn arb_profile() -> impl Strategy<Value = ArchProfile> {
    (
        1.0f64..200.0,   // idle
        1.0f64..300.0,   // dynamic range above idle
        1.0f64..2000.0,  // max_perf
        0.0f64..300.0,   // on duration
        0.0f64..30000.0, // on energy
        0.0f64..60.0,    // off duration
        0.0f64..2000.0,  // off energy
    )
        .prop_map(|(idle, range, mp, ont, one, offt, offe)| {
            ArchProfile::new(
                "p",
                idle,
                idle + range,
                mp.round().max(1.0),
                ont,
                one,
                offt,
                offe,
            )
            .expect("constructed within valid ranges")
        })
}

/// Strategy: 2-5 random profiles with distinct names.
fn arb_profiles() -> impl Strategy<Value = Vec<ArchProfile>> {
    proptest::collection::vec(arb_profile(), 2..=5).prop_map(|mut v| {
        for (i, p) in v.iter_mut().enumerate() {
            p.name = format!("arch{i}");
        }
        v
    })
}

proptest! {
    #[test]
    fn power_model_within_idle_max(p in arb_profile(), rate in -10.0f64..3000.0) {
        let w = p.power_at(rate);
        prop_assert!(w >= p.idle_power - 1e-9);
        prop_assert!(w <= p.max_power + 1e-9);
    }

    #[test]
    fn power_model_monotone(p in arb_profile(), a in 0.0f64..2000.0, b in 0.0f64..2000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(p.power_at(lo) <= p.power_at(hi) + 1e-9);
    }

    #[test]
    fn stack_power_covers_and_grows(p in arb_profile(), rate in 0.1f64..5000.0) {
        let n = stack_nodes(&p, rate);
        prop_assert!(f64::from(n) * p.max_perf + 1e-9 >= rate);
        // One fewer node would not suffice.
        if n > 1 {
            prop_assert!(f64::from(n - 1) * p.max_perf < rate);
        }
        prop_assert!(stack_power(&p, rate) >= f64::from(n) * p.idle_power - 1e-9);
    }

    #[test]
    fn candidate_filter_is_dominance_free(profiles in arb_profiles()) {
        let set = filter_candidates(&profiles).unwrap();
        // Survivors sorted by decreasing perf, strictly decreasing power.
        for w in set.kept.windows(2) {
            prop_assert!(w[0].max_perf >= w[1].max_perf);
            prop_assert!(w[0].max_power > w[1].max_power);
        }
        // No survivor dominated by any other survivor.
        for a in &set.kept {
            for b in &set.kept {
                if a.name != b.name {
                    prop_assert!(!a.is_dominated_by(b));
                }
            }
        }
        // Nothing lost: kept + removed == input.
        prop_assert_eq!(set.kept.len() + set.removed.len(), profiles.len());
    }

    #[test]
    fn thresholds_within_bounds(profiles in arb_profiles()) {
        if let Ok(set) = bml_candidates(&profiles) {
            let t = compute_thresholds(&set.kept);
            prop_assert_eq!(t.len(), set.kept.len());
            let n = set.kept.len();
            prop_assert_eq!(t[n - 1].rate, 1.0);
            for (th, p) in t.iter().zip(&set.kept) {
                prop_assert!(th.rate >= 1.0);
                // A threshold never exceeds the architecture's own capacity
                // (forced thresholds use the smaller arch's capacity, which
                // is smaller still).
                prop_assert!(th.rate <= p.max_perf + 1e-9);
            }
        }
    }

    #[test]
    fn ideal_fill_covers_demand(profiles in arb_profiles(), rate in 0.0f64..10000.0) {
        if let Ok(set) = bml_candidates(&profiles) {
            let rates: Vec<f64> = compute_thresholds(&set.kept).iter().map(|t| t.rate).collect();
            let combo = ideal_fill(&set.kept, &rates, rate);
            prop_assert!(combo.assigned_rate(&set.kept) + 1e-6 >= rate);
            prop_assert!(combo.capacity(&set.kept) + 1e-6 >= rate);
            // No partial node ever exceeds its architecture's max_perf.
            for a in &combo.allocs {
                if let Some(r) = a.partial_rate {
                    prop_assert!(r <= set.kept[a.arch].max_perf + 1e-9);
                    prop_assert!(r > 0.0);
                }
            }
        }
    }

    #[test]
    fn ideal_fill_power_not_absurd(profiles in arb_profiles(), rate in 1.0f64..10000.0) {
        if let Ok(set) = bml_candidates(&profiles) {
            let rates: Vec<f64> = compute_thresholds(&set.kept).iter().map(|t| t.rate).collect();
            let combo = ideal_fill(&set.kept, &rates, rate);
            let w = combo.power(&set.kept);
            prop_assert!(w > 0.0);
            // Structural bounds: the combination draws at least the idle
            // power of every node it powers on, and at most their summed
            // peak power.
            let idle_sum: f64 = combo.allocs.iter()
                .map(|a| f64::from(a.nodes()) * set.kept[a.arch].idle_power)
                .sum();
            let peak_sum: f64 = combo.allocs.iter()
                .map(|a| f64::from(a.nodes()) * set.kept[a.arch].max_power)
                .sum();
            prop_assert!(w + 1e-9 >= idle_sum);
            prop_assert!(w <= peak_sum + 1e-9);
        }
    }

    #[test]
    fn scheduler_fast_path_matches_full_recompute(
        levels in proptest::collection::vec(0u32..8, 1..100)
    ) {
        // The scheduler's fast path, the steady-decision memo, must answer
        // every prediction as a fresh scheduler in the same configuration
        // does. Eight load levels make repeats, and so memo hits, common;
        // decisions 10^4 s apart never meet a lock-out.
        let bml = BmlInfrastructure::build(&bml_core::catalog::table1()).unwrap();
        for kind in [
            SchedulerKind::Baseline,
            SchedulerKind::TransitionAware(TransitionAwareConfig::paper()),
        ] {
            let mut memo = ProActiveScheduler::new(bml.n_archs(), kind.clone());
            for (t, &level) in levels.iter().enumerate() {
                let now = t as u64 * 10_000;
                let load = f64::from(level) * 350.0;
                let mut fresh = ProActiveScheduler::with_initial(memo.current().clone(), kind.clone());
                let expected = fresh.decide(now, load, &bml);
                prop_assert_eq!(memo.decide(now, load, &bml), expected, "{:?} at load {}", kind, load);
            }
        }
    }

    #[test]
    fn dp_lower_bounds_greedy(rate in 1u64..3000) {
        let trio = bml_core::catalog::paper_bml_trio();
        let rates: Vec<f64> = compute_thresholds(&trio).iter().map(|t| t.rate).collect();
        let greedy = ideal_fill(&trio, &rates, rate as f64).power(&trio);
        let (dp, counts) = optimal_dp(&trio, rate);
        prop_assert!(dp <= greedy + 1e-9);
        // DP's chosen machines can actually serve the rate.
        let cap: f64 = trio.iter().zip(&counts).map(|(p, &c)| f64::from(c) * p.max_perf).sum();
        prop_assert!(cap + 1e-9 >= rate as f64);
    }

    #[test]
    fn config_power_split_policies_agree_on_homogeneous(
        nodes in 1u32..20, load in 0.0f64..30000.0
    ) {
        let p = vec![bml_core::catalog::paravance()];
        let counts = vec![nodes];
        let (g, sg) = config_power(&p, &counts, load, SplitPolicy::EfficiencyGreedy);
        let (q, sq) = config_power(&p, &counts, load, SplitPolicy::ProportionalToCapacity);
        prop_assert!((g - q).abs() < 1e-6);
        prop_assert!((sg - sq).abs() < 1e-9);
    }

    #[test]
    fn scheduler_lock_invariant(loads in proptest::collection::vec(0.0f64..6000.0, 1..200)) {
        let bml = BmlInfrastructure::build(&bml_core::catalog::table1()).unwrap();
        let mut s = ProActiveScheduler::new(bml.n_archs(), SchedulerKind::Baseline);
        let mut locked_until: Option<u64> = None;
        for (t, &l) in loads.iter().enumerate() {
            let t = t as u64;
            match s.decide(t, l, &bml) {
                Decision::Locked { until } => {
                    prop_assert!(t < until);
                    prop_assert_eq!(Some(until), locked_until);
                }
                Decision::Reconfigure(plan) => {
                    if let Some(u) = locked_until {
                        prop_assert!(t >= u);
                    }
                    prop_assert!(plan.duration >= 0.0);
                    prop_assert!(plan.energy >= 0.0);
                    prop_assert!(!plan.switch_on.is_empty() || !plan.switch_off.is_empty());
                    locked_until = s.busy_until();
                }
                Decision::NoChange => {
                    if let Some(u) = locked_until {
                        prop_assert!(t >= u);
                    }
                }
            }
        }
    }

    #[test]
    fn reconfig_plan_roundtrip(from in proptest::collection::vec(0u32..5, 3),
                               to in proptest::collection::vec(0u32..5, 3)) {
        let trio = bml_core::catalog::paper_bml_trio();
        let f = Configuration(from.clone());
        let t = Configuration(to.clone());
        match bml_core::reconfig::plan_reconfiguration(&trio, &f, &t) {
            None => prop_assert_eq!(from, to),
            Some(plan) => {
                prop_assert_ne!(&from, &to);
                // Applying the plan to `from` yields `to`.
                let mut cur = from.clone();
                for (k, c) in plan.switch_on {
                    cur[k] += c;
                }
                for (k, c) in plan.switch_off {
                    cur[k] -= c;
                }
                prop_assert_eq!(cur, to);
            }
        }
    }
}
