//! Steps 3 and 4 — crossing points and minimum utilization thresholds
//! (paper Sec. IV-C and IV-D).
//!
//! The *minimum utilization threshold* of an architecture is the
//! performance rate from which using it "becomes more relevant than"
//! combinations of smaller architectures, power-wise. The Little
//! architecture's threshold is 1 by definition.
//!
//! * **Step 3** compares an architecture against *homogeneous stacks* of
//!   the next-smaller architecture ([`pairwise_threshold`]).
//! * **Step 4** (needed for three or more architectures) re-evaluates each
//!   threshold against the *ideal combinations* of all smaller candidates
//!   ([`combined_threshold`]), which may raise the threshold and removes
//!   the power jump Fig. 2 (left) exhibits.
//!
//! Both use the *sustained* crossing convention: the threshold is the
//! smallest integer rate `r` such that the bigger architecture's single-node
//! profile consumes no more than the smaller alternative at **every** rate
//! in `[r, max_perf_big]`. On the paper's Table I data this yields exactly
//! the published thresholds: 1 (Raspberry), 10 (Chromebook),
//! 529 req/s (Paravance).

use crate::combination::ideal_fill;
use crate::profile::{stack_power, ArchProfile};

/// Comparison slack: power values within this are considered equal.
const EPS: f64 = 1e-9;

/// How a threshold was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdKind {
    /// The smallest architecture: threshold is 1 by definition.
    Base,
    /// A genuine crossing point between power profiles was found.
    Crossing,
    /// No crossing exists below the architecture's `max_perf`; the switch
    /// is forced at the capacity limit of the smaller alternative (the
    /// "substantial jump in power consumption" of Fig. 2 left).
    Forced,
}

/// A minimum utilization threshold (paper Sec. IV-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Threshold {
    /// The threshold rate, in application metric units (integer-valued).
    pub rate: f64,
    /// Whether this is the Little base case, a real crossing, or forced.
    pub kind: ThresholdKind,
}

impl Threshold {
    /// The Little architecture's threshold: rate 1.
    pub fn base() -> Self {
        Threshold {
            rate: 1.0,
            kind: ThresholdKind::Base,
        }
    }
}

/// Smallest integer rate `r` in `[1, limit]` such that `power(r')` <=
/// `alternative(r')` for **all** integer `r'` in `[r, limit]`; `None` if
/// even `r = limit` fails.
///
/// Implemented as a single backward sweep, O(limit) evaluations.
fn sustained_crossing(
    limit: u64,
    power: impl Fn(f64) -> f64,
    alternative: impl Fn(f64) -> f64,
) -> Option<u64> {
    let mut threshold = None;
    for r in (1..=limit).rev() {
        let rate = r as f64;
        if power(rate) <= alternative(rate) + EPS {
            threshold = Some(r);
        } else {
            break;
        }
    }
    threshold
}

/// Step 3: threshold of `bigger` versus homogeneous stacks of `smaller`.
pub fn pairwise_threshold(bigger: &ArchProfile, smaller: &ArchProfile) -> Threshold {
    let limit = bigger.max_perf.floor() as u64;
    match sustained_crossing(limit, |r| bigger.power_at(r), |r| stack_power(smaller, r)) {
        Some(r) => Threshold {
            rate: r as f64,
            kind: ThresholdKind::Crossing,
        },
        None => Threshold {
            // Forced switch at the smaller architecture's capacity: beyond
            // one node of `smaller` the paper's Fig. 2 (left) jumps to the
            // bigger architecture.
            rate: smaller.max_perf,
            kind: ThresholdKind::Forced,
        },
    }
}

/// Step 4: threshold of `bigger` versus the *ideal combinations* of all
/// smaller candidates (`smaller` sorted by decreasing `max_perf`, with
/// their already-computed thresholds).
pub fn combined_threshold(
    bigger: &ArchProfile,
    smaller: &[ArchProfile],
    smaller_thresholds: &[f64],
) -> Threshold {
    assert!(
        !smaller.is_empty(),
        "need at least one smaller architecture"
    );
    let limit = bigger.max_perf.floor() as u64;
    match sustained_crossing(
        limit,
        |r| bigger.power_at(r),
        |r| ideal_fill(smaller, smaller_thresholds, r).power(smaller),
    ) {
        Some(r) => Threshold {
            rate: r as f64,
            kind: ThresholdKind::Crossing,
        },
        None => Threshold {
            rate: smaller[0].max_perf,
            kind: ThresholdKind::Forced,
        },
    }
}

/// Compute the minimum utilization threshold of every candidate, Big first
/// (same order as `profiles`), applying Step 3 for the two smallest
/// architectures and Step 4 for everything larger.
///
/// Thresholds are computed bottom-up: the Little gets 1, and each larger
/// architecture is compared against the ideal combinations of all already-
/// thresholded smaller candidates.
pub fn compute_thresholds(profiles: &[ArchProfile]) -> Vec<Threshold> {
    let n = profiles.len();
    let mut thresholds = vec![Threshold::base(); n];
    if n <= 1 {
        return thresholds;
    }
    // Walk from the second-smallest (index n-2) up to the Big (index 0).
    for k in (0..n - 1).rev() {
        let smaller = &profiles[k + 1..];
        let smaller_rates: Vec<f64> = thresholds[k + 1..].iter().map(|t| t.rate).collect();
        thresholds[k] = combined_threshold(&profiles[k], smaller, &smaller_rates);
    }
    thresholds
}

/// Step-3-only thresholds (each architecture versus homogeneous stacks of
/// the next smaller one). Exposed to reproduce Fig. 2 (left) and to show
/// the improvement Step 4 brings.
pub fn pairwise_thresholds(profiles: &[ArchProfile]) -> Vec<Threshold> {
    let n = profiles.len();
    let mut thresholds = vec![Threshold::base(); n];
    for k in (0..n.saturating_sub(1)).rev() {
        thresholds[k] = pairwise_threshold(&profiles[k], &profiles[k + 1]);
    }
    thresholds
}

/// One point of a power-versus-rate curve, for figure regeneration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Performance rate (application metric units).
    pub rate: f64,
    /// Power (W).
    pub power: f64,
}

/// Sample the homogeneous-stack power curve of `profile` at integer rates
/// `0..=limit` (the repeated staircase profiles of Figs. 1-2).
pub fn stack_curve(profile: &ArchProfile, limit: u64) -> Vec<CurvePoint> {
    (0..=limit)
        .map(|r| CurvePoint {
            rate: r as f64,
            power: stack_power(profile, r as f64),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn paper_thresholds_1_10_529() {
        let trio = catalog::paper_bml_trio();
        let t = compute_thresholds(&trio);
        assert_eq!(t[2].rate, 1.0); // raspberry (Little)
        assert_eq!(t[2].kind, ThresholdKind::Base);
        assert_eq!(t[1].rate, 10.0); // chromebook (Medium)
        assert_eq!(t[1].kind, ThresholdKind::Crossing);
        assert_eq!(t[0].rate, 529.0); // paravance (Big)
        assert_eq!(t[0].kind, ThresholdKind::Crossing);
    }

    #[test]
    fn pairwise_matches_paper_for_medium() {
        let trio = catalog::paper_bml_trio();
        let t = pairwise_thresholds(&trio);
        assert_eq!(t[1].rate, 10.0);
    }

    #[test]
    fn step4_never_below_1() {
        let trio = catalog::paper_bml_trio();
        for t in compute_thresholds(&trio) {
            assert!(t.rate >= 1.0);
        }
    }

    #[test]
    fn illustrative_medium_threshold_around_150() {
        // Fig. 2 left: "Utilization threshold of Medium starts around a
        // performance rate of 150"; our illustrative B is built to land
        // exactly at 150.
        let abc = vec![
            catalog::illustrative_a(),
            catalog::illustrative_b(),
            catalog::illustrative_c(),
        ];
        let t = compute_thresholds(&abc);
        assert_eq!(t[1].rate, 150.0);
    }

    #[test]
    fn illustrative_step4_raises_big_threshold() {
        // Fig. 2 right: "minimum threshold of Big has consequently
        // increased" relative to Step 3.
        let abc = vec![
            catalog::illustrative_a(),
            catalog::illustrative_b(),
            catalog::illustrative_c(),
        ];
        let step3 = pairwise_thresholds(&abc);
        let step4 = compute_thresholds(&abc);
        assert!(
            step4[0].rate > step3[0].rate,
            "step4 {} should exceed step3 {}",
            step4[0].rate,
            step3[0].rate
        );
    }

    #[test]
    fn threshold_semantics_bigger_wins_above() {
        let trio = catalog::paper_bml_trio();
        let t = compute_thresholds(&trio);
        let big = &trio[0];
        let smaller = &trio[1..];
        let srates: Vec<f64> = t[1..].iter().map(|x| x.rate).collect();
        // At and above the threshold the Big is no worse than combos...
        for r in [529u64, 600, 1000, 1331] {
            let combo = ideal_fill(smaller, &srates, r as f64).power(smaller);
            assert!(
                big.power_at(r as f64) <= combo + 1e-9,
                "big should win at {r}"
            );
        }
        // ...and just below it the combination is strictly cheaper.
        let combo = ideal_fill(smaller, &srates, 528.0).power(smaller);
        assert!(big.power_at(528.0) > combo);
    }

    #[test]
    fn forced_threshold_when_no_crossing() {
        // A big machine so inefficient it never beats stacks of the small
        // one within its range -> forced switch at the small one's capacity.
        let big = ArchProfile::without_transitions("hog", 100.0, 300.0, 200.0).unwrap();
        let small = ArchProfile::without_transitions("ant", 1.0, 10.0, 20.0).unwrap();
        let t = pairwise_threshold(&big, &small);
        assert_eq!(t.kind, ThresholdKind::Forced);
        assert_eq!(t.rate, 20.0);
    }

    #[test]
    fn single_architecture_gets_base_threshold() {
        let t = compute_thresholds(&[catalog::paravance()]);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].kind, ThresholdKind::Base);
    }

    #[test]
    fn two_architectures_pairwise_equals_combined() {
        let pair = vec![catalog::chromebook(), catalog::raspberry()];
        let p3 = pairwise_thresholds(&pair);
        let p4 = compute_thresholds(&pair);
        assert_eq!(p3[0].rate, p4[0].rate);
        assert_eq!(p3[1].rate, 1.0);
    }

    #[test]
    fn stack_curve_samples() {
        let c = stack_curve(&catalog::raspberry(), 20);
        assert_eq!(c.len(), 21);
        assert_eq!(c[0].power, 0.0);
        assert!((c[9].power - 3.7).abs() < 1e-9);
        // Staircase jump between 9 and 10 req/s.
        assert!(c[10].power > c[9].power + 2.0);
    }

    #[test]
    fn sustained_convention_rejects_transient_crossings() {
        // power dips below alternative at r=3..4 only, then above again:
        // sustained crossing must not report 3.
        let power = |r: f64| if (3.0..=4.0).contains(&r) { 0.0 } else { 10.0 };
        let alt = |_r: f64| 5.0;
        assert_eq!(sustained_crossing(10, power, alt), None);
    }

    #[test]
    fn sustained_convention_finds_suffix_start() {
        let power = |r: f64| if r >= 6.0 { 1.0 } else { 10.0 };
        let alt = |_r: f64| 5.0;
        assert_eq!(sustained_crossing(10, power, alt), Some(6));
    }
}
