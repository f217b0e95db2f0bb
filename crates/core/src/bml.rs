//! The end-to-end BML infrastructure: Steps 1-5 assembled into one type
//! (paper Sec. IV), plus the reference curves of Fig. 4 ("Big" and
//! "BML linear").

use crate::candidates::{bml_candidates, class_labels, CandidateSet, RemovalReason};
use crate::combination::{config_power, ideal_fill, Combination, SplitPolicy};
use crate::crossing::{compute_thresholds, pairwise_thresholds, Threshold};
use crate::errors::BmlError;
use crate::profile::{stack_power, ArchProfile};

/// A fully built Big-Medium-Little infrastructure.
///
/// Construction runs the paper's pipeline: validate profiles (Step 1 data),
/// filter candidates (Step 2 + the Step-3 never-optimal removal), then
/// compute the minimum utilization thresholds (Steps 3-4). Afterwards it
/// answers "which machines should be on for rate *r*?" (Step 5) and "how
/// much power would that draw?" queries.
#[derive(Debug, Clone, PartialEq)]
pub struct BmlInfrastructure {
    candidates: Vec<ArchProfile>,
    thresholds: Vec<Threshold>,
    pairwise: Vec<Threshold>,
    removed: Vec<(ArchProfile, RemovalReason)>,
    /// The Step-4 threshold rates, Big first: the greedy fill's input on
    /// every Step-5 query.
    rates: Vec<f64>,
}

impl BmlInfrastructure {
    /// Build from raw Step-1 profiles (any order, dominated machines
    /// allowed — they will be filtered).
    pub fn build(profiles: &[ArchProfile]) -> Result<Self, BmlError> {
        let CandidateSet { kept, removed } = bml_candidates(profiles)?;
        let thresholds = compute_thresholds(&kept);
        let pairwise = pairwise_thresholds(&kept);
        let rates = thresholds.iter().map(|t| t.rate).collect();
        Ok(BmlInfrastructure {
            candidates: kept,
            thresholds,
            pairwise,
            removed,
            rates,
        })
    }

    /// Build from profiles already known to be the candidate set (skips
    /// filtering; profiles must be sorted by decreasing `max_perf`).
    pub fn from_candidates(candidates: Vec<ArchProfile>) -> Result<Self, BmlError> {
        if candidates.is_empty() {
            return Err(BmlError::NoCandidates);
        }
        for p in &candidates {
            p.validate()?;
        }
        let thresholds = compute_thresholds(&candidates);
        let pairwise = pairwise_thresholds(&candidates);
        let rates = thresholds.iter().map(|t| t.rate).collect();
        Ok(BmlInfrastructure {
            candidates,
            thresholds,
            pairwise,
            removed: Vec::new(),
            rates,
        })
    }

    /// The surviving candidate profiles, Big first.
    pub fn candidates(&self) -> &[ArchProfile] {
        &self.candidates
    }

    /// Number of candidate architectures.
    pub fn n_archs(&self) -> usize {
        self.candidates.len()
    }

    /// Step-4 minimum utilization thresholds, Big first.
    pub fn thresholds(&self) -> &[Threshold] {
        &self.thresholds
    }

    /// Step-3 (pairwise-only) thresholds, for Fig.-2-left style analyses.
    pub fn pairwise_thresholds(&self) -> &[Threshold] {
        &self.pairwise
    }

    /// Profiles rejected during filtering, with reasons.
    pub fn removed(&self) -> &[(ArchProfile, RemovalReason)] {
        &self.removed
    }

    /// BML class labels (`Big`, `Medium`, `Little`, ...), Big first.
    pub fn labels(&self) -> Vec<String> {
        class_labels(self.candidates.len())
    }

    /// Index of the Big (most powerful) architecture: always 0.
    pub fn big(&self) -> &ArchProfile {
        &self.candidates[0]
    }

    /// The Little (least powerful) architecture.
    pub fn little(&self) -> &ArchProfile {
        self.candidates.last().expect("non-empty by construction")
    }

    /// The Step-4 threshold rates (req/s), Big first.
    pub fn threshold_rates(&self) -> &[f64] {
        &self.rates
    }

    /// Step 5: the ideal machine combination for `rate` — the paper's
    /// greedy fill ([`ideal_fill`]) over the candidates, O(#archs).
    pub fn ideal_combination(&self, rate: f64) -> Combination {
        ideal_fill(&self.candidates, &self.rates, rate)
    }

    /// Power (W) of the ideal combination at `rate` — the BML curve of
    /// Fig. 4; `+0.0` where no machine is on (`rate <= 0`).
    pub fn power_at(&self, rate: f64) -> f64 {
        self.ideal_combination(rate).power(&self.candidates)
    }

    /// Power of a homogeneous stack of Big machines serving `rate` — the
    /// "Big" reference curve of Fig. 4 (and the per-day upper bounds of
    /// Fig. 5 when capped at a fixed node count).
    pub fn big_stack_power(&self, rate: f64) -> f64 {
        stack_power(self.big(), rate)
    }

    /// The "BML linear" reference of Fig. 4: a hypothetical machine whose
    /// idle power equals the Little's and whose max power/performance equal
    /// the Big's — "an achievable goal, and how our solution approaches it".
    pub fn bml_linear_power(&self, rate: f64) -> f64 {
        let little = self.little();
        let big = self.big();
        if rate <= 0.0 {
            return little.idle_power;
        }
        let r = rate.min(big.max_perf);
        little.idle_power + (big.max_power - little.idle_power) * r / big.max_perf
    }

    /// Power of an arbitrary *configuration* (`counts[k]` machines of each
    /// architecture powered on) serving `load` under `policy`; returns
    /// `(power_watts, served_rate)`.
    pub fn config_power(&self, counts: &[u32], load: f64, policy: SplitPolicy) -> (f64, f64) {
        config_power(&self.candidates, counts, load, policy)
    }

    /// Ideal combination under *bounded* machine pools (`limits[k]` nodes
    /// of each architecture exist). The paper assumes unlimited pools but
    /// notes the extension ("cases of existing heterogeneous infrastructure
    /// where there is limited numbers of machines", Sec. IV-A).
    ///
    /// The greedy fill is rerun with per-architecture caps; if total
    /// capacity cannot cover `rate` an [`BmlError::InsufficientCapacity`]
    /// is returned.
    pub fn ideal_combination_bounded(
        &self,
        rate: f64,
        limits: &[u32],
    ) -> Result<Combination, BmlError> {
        assert_eq!(limits.len(), self.candidates.len());
        let capacity: f64 = self
            .candidates
            .iter()
            .zip(limits)
            .map(|(p, &c)| f64::from(c) * p.max_perf)
            .sum();
        if rate > capacity + 1e-9 {
            return Err(BmlError::InsufficientCapacity {
                requested: rate,
                available: capacity,
            });
        }
        // Greedy fill with caps: biggest first, capped full nodes; the
        // remainder cascades down. A final upward pass absorbs anything a
        // capped Little tier could not take.
        let rates = &self.rates;
        let mut combo = Combination {
            target_rate: rate,
            allocs: Vec::new(),
        };
        if rate <= 0.0 {
            return Ok(combo);
        }
        let mut rem = rate;
        let mut used = vec![0u32; limits.len()];
        for (k, p) in self.candidates.iter().enumerate() {
            if rem <= 1e-9 {
                break;
            }
            if rem + 1e-9 < rates[k] && k + 1 < self.candidates.len() {
                continue;
            }
            let full = ((rem / p.max_perf).floor() as u32).min(limits[k]);
            used[k] = full;
            rem -= f64::from(full) * p.max_perf;
            let last_tier = k + 1 == self.candidates.len();
            let take_partial = rem > 1e-9
                && used[k] < limits[k]
                && rem <= p.max_perf
                && (rem + 1e-9 >= rates[k] || last_tier);
            let partial = if take_partial {
                used[k] += 1;
                let r = rem;
                rem = 0.0;
                Some(r)
            } else {
                None
            };
            if full > 0 || partial.is_some() {
                combo.allocs.push(crate::combination::NodeAlloc {
                    arch: k,
                    full_nodes: full,
                    partial_rate: partial,
                });
            }
            if rem <= 1e-9 {
                rem = 0.0;
                break;
            }
        }
        // Anything left over (capped tiers below) goes back up to the
        // cheapest tier with spare nodes, biggest first.
        if rem > 1e-9 {
            for (k, p) in self.candidates.iter().enumerate() {
                if rem <= 1e-9 {
                    break;
                }
                let spare = limits[k] - used[k];
                if spare == 0 {
                    continue;
                }
                let full = ((rem / p.max_perf).floor() as u32).min(spare);
                let partial = if f64::from(full) * p.max_perf + 1e-9 < rem && full < spare {
                    Some(rem - f64::from(full) * p.max_perf)
                } else {
                    None
                };
                if full > 0 || partial.is_some() {
                    rem -= f64::from(full) * p.max_perf + partial.unwrap_or(0.0);
                    used[k] += full + u32::from(partial.is_some());
                    combo.allocs.push(crate::combination::NodeAlloc {
                        arch: k,
                        full_nodes: full,
                        partial_rate: partial,
                    });
                }
            }
        }
        debug_assert!(rem <= 1e-6, "bounded fill left remainder {rem}");
        Ok(combo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn paper_bml() -> BmlInfrastructure {
        BmlInfrastructure::build(&catalog::table1()).unwrap()
    }

    #[test]
    fn build_reproduces_paper_candidates_and_thresholds() {
        let bml = paper_bml();
        let names: Vec<_> = bml.candidates().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["paravance", "chromebook", "raspberry"]);
        assert_eq!(bml.threshold_rates(), vec![529.0, 10.0, 1.0]);
        assert_eq!(bml.labels(), vec!["Big", "Medium", "Little"]);
        assert_eq!(bml.removed().len(), 2); // taurus + graphene
    }

    #[test]
    fn bml_power_never_exceeds_big_stack() {
        let bml = paper_bml();
        for r in 1..=1331u64 {
            let rate = r as f64;
            assert!(
                bml.power_at(rate) <= bml.big_stack_power(rate) + 1e-9,
                "BML must beat all-Big at rate {r}"
            );
        }
    }

    #[test]
    fn bml_tracks_bml_linear_goal() {
        // "BML linear" is a reference line, not a bound: the staircase of
        // tiny machines dips below it at low rates (one full Raspberry at
        // 9 req/s draws 3.7 W, under the steep straight line), while in Big
        // territory (>= 529 req/s) BML sits above it, meeting it exactly at
        // maxPerf(Big).
        let bml = paper_bml();
        assert!(bml.power_at(9.0) < bml.bml_linear_power(9.0));
        for r in 529..=1331u64 {
            let rate = r as f64;
            assert!(
                bml.power_at(rate) + 1e-9 >= bml.bml_linear_power(rate),
                "BML below linear goal at rate {r}"
            );
        }
        assert!((bml.power_at(1331.0) - bml.bml_linear_power(1331.0)).abs() < 1e-9);
    }

    #[test]
    fn bml_linear_endpoints() {
        let bml = paper_bml();
        assert!((bml.bml_linear_power(0.0) - 3.1).abs() < 1e-9);
        assert!((bml.bml_linear_power(1331.0) - 200.5).abs() < 1e-9);
    }

    #[test]
    fn from_candidates_skips_filtering() {
        let bml = BmlInfrastructure::from_candidates(catalog::paper_bml_trio()).unwrap();
        assert_eq!(bml.threshold_rates(), vec![529.0, 10.0, 1.0]);
        assert!(bml.removed().is_empty());
    }

    #[test]
    fn from_candidates_rejects_empty() {
        assert!(BmlInfrastructure::from_candidates(vec![]).is_err());
    }

    #[test]
    fn big_and_little_accessors() {
        let bml = paper_bml();
        assert_eq!(bml.big().name, "paravance");
        assert_eq!(bml.little().name, "raspberry");
    }

    #[test]
    fn bounded_fill_matches_unbounded_when_roomy() {
        let bml = paper_bml();
        for r in [1.0, 10.0, 100.0, 529.0, 2000.0] {
            let unbounded = bml.ideal_combination(r).counts(3);
            let bounded = bml
                .ideal_combination_bounded(r, &[100, 100, 100])
                .unwrap()
                .counts(3);
            assert_eq!(unbounded, bounded, "rate {r}");
        }
    }

    #[test]
    fn bounded_fill_respects_caps() {
        let bml = paper_bml();
        // Only 1 Big available; 2000 req/s needs help from Mediums.
        let combo = bml
            .ideal_combination_bounded(2000.0, &[1, 100, 100])
            .unwrap();
        let counts = combo.counts(3);
        assert_eq!(counts[0], 1);
        assert!(combo.assigned_rate(bml.candidates()) + 1e-6 >= 2000.0);
        assert!(counts[1] >= 20); // 669 remainder needs >= 20 chromebooks
    }

    #[test]
    fn bounded_fill_insufficient_capacity_errors() {
        let bml = paper_bml();
        let err = bml
            .ideal_combination_bounded(10_000.0, &[1, 1, 1])
            .unwrap_err();
        assert!(matches!(err, BmlError::InsufficientCapacity { .. }));
    }

    #[test]
    fn bounded_fill_zero_rate() {
        let bml = paper_bml();
        let combo = bml.ideal_combination_bounded(0.0, &[1, 1, 1]).unwrap();
        assert!(combo.is_empty());
    }

    #[test]
    fn bounded_fill_overflows_to_bigger_tier() {
        let bml = paper_bml();
        // Littles capped at 0, rate below Medium threshold: must still be
        // served (by a Medium, the next tier with spare nodes).
        let combo = bml.ideal_combination_bounded(5.0, &[10, 10, 0]).unwrap();
        assert!(combo.assigned_rate(bml.candidates()) + 1e-9 >= 5.0);
        let counts = combo.counts(3);
        assert_eq!(counts[2], 0);
        assert!(counts[0] + counts[1] >= 1);
    }

    #[test]
    fn zero_and_negative_rates_power_nothing() {
        let bml = paper_bml();
        for rate in [0.0, -5.0] {
            assert!(bml.ideal_combination(rate).is_empty(), "rate {rate}");
            assert_eq!(bml.ideal_combination(rate).counts(3), vec![0, 0, 0]);
            // +0.0, not -0.0: Fig. 4 prints its rate-0 row as `0.00`.
            assert_eq!(bml.power_at(rate).to_bits(), 0, "rate {rate}");
        }
    }

    #[test]
    fn hundred_requests_per_second_take_three_chromebooks_and_one_raspberry() {
        let bml = paper_bml();
        let combo = bml.ideal_combination(100.0);
        assert_eq!(combo.counts(3), vec![0, 3, 1]);
        assert!((combo.assigned_rate(bml.candidates()) - 100.0).abs() < 1e-9);
        assert_eq!(bml.power_at(100.0), combo.power(bml.candidates()));
    }

    #[test]
    fn very_large_rates_fill_whole_bigs_first() {
        let bml = paper_bml();
        // 7 x 1331 + 683 (>= the Big threshold of 529: one partial Big);
        // 751 x 1331 + 419 (12 full Chromebooks + 23 on a partial one);
        // 9275 x 1331 + 653.9 (a partial Big).
        for (rate, counts) in [
            (10_000.0, vec![8, 0, 0]),
            (1_000_000.0, vec![751, 13, 0]),
            (12_345_678.9, vec![9276, 0, 0]),
        ] {
            let combo = bml.ideal_combination(rate);
            assert_eq!(combo.counts(3), counts, "rate {rate}");
            let assigned = combo.assigned_rate(bml.candidates());
            assert!(
                (assigned - rate).abs() <= 1e-9 * rate,
                "rate {rate}: {assigned}"
            );
        }
    }

    #[test]
    fn single_architecture_catalog() {
        // One 10 req/s architecture: threshold 1, so every rate gets
        // floor(rate / 10) full nodes plus one partial node for the rest.
        let solo = vec![ArchProfile::without_transitions("only", 2.0, 10.0, 10.0).unwrap()];
        let bml = BmlInfrastructure::from_candidates(solo).unwrap();
        assert_eq!(bml.threshold_rates(), [1.0]);
        for (rate, nodes) in [
            (0.0, 0),
            (0.5, 1),
            (1.0, 1),
            (9.0, 1),
            (10.0, 1),
            (25.0, 3),
            (100.0, 10),
        ] {
            let combo = bml.ideal_combination(rate);
            assert_eq!(combo.counts(1), vec![nodes], "rate {rate}");
            assert!((combo.assigned_rate(bml.candidates()) - rate).abs() < 1e-9);
        }
        // 2 full nodes (10 W each) + one serving 5 req/s (2 + 8 x 0.5 W).
        assert!((bml.power_at(25.0) - 26.0).abs() < 1e-9);
    }

    #[test]
    fn sub_unit_capacity_alone_serves_below_its_threshold_on_one_node() {
        // A lone architecture with max_perf < 1 gets the base threshold of
        // 1, above its own capacity: below it the fill takes no full node,
        // so 0.7 req/s is one partial node serving 0.7, not a full node
        // plus a 0.2 partial.
        let tiny = vec![ArchProfile::without_transitions("tiny", 1.0, 2.0, 0.5).unwrap()];
        let bml = BmlInfrastructure::from_candidates(tiny).unwrap();
        let combo = bml.ideal_combination(0.7);
        assert_eq!(combo.total_nodes(), 1);
        assert_eq!(combo.allocs[0].full_nodes, 0);
        assert_eq!(combo.allocs[0].partial_rate, Some(0.7));
        // At and above the threshold, full nodes first and the remainder
        // on one more: 2 full + 0.2, and 15 full + 0.25.
        assert_eq!(bml.ideal_combination(1.2).counts(1), vec![3]);
        assert_eq!(bml.ideal_combination(7.75).counts(1), vec![16]);
        for rate in [0.2, 0.5, 0.7, 0.9, 1.0, 1.2, 2.0, 2.3, 7.75] {
            let assigned = bml.ideal_combination(rate).assigned_rate(bml.candidates());
            assert!((assigned - rate).abs() < 1e-9, "rate {rate}: {assigned}");
        }
    }

    #[test]
    fn sub_unit_little_beside_a_normal_big_covers_every_rate() {
        // A Little below 1 req/s of capacity next to a normal Big: the base
        // threshold (1) exceeds the Little's capacity, which exercises the
        // full-take-then-fallback path inside the cascade.
        let pair = vec![
            ArchProfile::without_transitions("big", 10.0, 50.0, 100.0).unwrap(),
            ArchProfile::without_transitions("nano", 0.1, 0.5, 0.5).unwrap(),
        ];
        let bml = BmlInfrastructure::from_candidates(pair).unwrap();
        for rate in [0.2, 0.5, 0.7, 1.0, 3.3, 50.0, 99.9, 100.0, 250.6] {
            let combo = bml.ideal_combination(rate);
            assert!(!combo.is_empty(), "rate {rate}");
            let assigned = combo.assigned_rate(bml.candidates());
            assert!((assigned - rate).abs() < 1e-9, "rate {rate}: {assigned}");
        }
        // Below the Little threshold one partial Little; whole Bigs first
        // far above the Big threshold.
        assert_eq!(bml.ideal_combination(0.2).counts(2), vec![0, 1]);
        assert_eq!(bml.ideal_combination(100.0).counts(2), vec![1, 0]);
        assert_eq!(bml.ideal_combination(250.6).counts(2), vec![3, 0]);
    }

    #[test]
    fn clone_compares_equal() {
        let bml = paper_bml();
        let cloned = bml.clone();
        assert_eq!(bml, cloned);
    }
}
