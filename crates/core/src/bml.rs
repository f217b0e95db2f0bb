//! The end-to-end BML infrastructure: Steps 1-5 assembled into one type
//! (paper Sec. IV), plus the reference curves of Fig. 4 ("Big" and
//! "BML linear").

use crate::candidates::{bml_candidates, class_labels, CandidateSet, RemovalReason};
use crate::combination::{config_power, ideal_fill, Combination, SplitPolicy};
use crate::crossing::{compute_thresholds, pairwise_thresholds, Threshold};
use crate::errors::BmlError;
use crate::profile::{stack_power, ArchProfile};
use crate::table::CombinationTable;

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
    /// Piecewise Step-5 output, materialized once so the per-second
    /// scheduler/simulator hot path answers in O(log segments).
    table: CombinationTable,
}

impl BmlInfrastructure {
    /// Build from raw Step-1 profiles (any order, dominated machines
    /// allowed — they will be filtered).
    pub fn build(profiles: &[ArchProfile]) -> Result<Self, BmlError> {
        let CandidateSet { kept, removed } = bml_candidates(profiles)?;
        let thresholds = compute_thresholds(&kept);
        let pairwise = pairwise_thresholds(&kept);
        let rates: Vec<f64> = thresholds.iter().map(|t| t.rate).collect();
        let table = CombinationTable::build(&kept, &rates);
        Ok(BmlInfrastructure {
            candidates: kept,
            thresholds,
            pairwise,
            removed,
            table,
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
        let rates: Vec<f64> = thresholds.iter().map(|t| t.rate).collect();
        let table = CombinationTable::build(&candidates, &rates);
        Ok(BmlInfrastructure {
            candidates,
            thresholds,
            pairwise,
            removed: Vec::new(),
            table,
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

    /// Threshold rates as a plain `f64` slice-compatible vector.
    pub fn threshold_rates(&self) -> Vec<f64> {
        self.thresholds.iter().map(|t| t.rate).collect()
    }

    /// Step 5: the ideal machine combination for `rate`.
    ///
    /// Served from the precomputed [`CombinationTable`] in O(log
    /// segments); branch-equivalent to the direct greedy fill
    /// ([`Self::ideal_combination_direct`]).
    pub fn ideal_combination(&self, rate: f64) -> Combination {
        self.table.lookup(rate)
    }

    /// Step 5 computed directly with the paper's greedy fill, bypassing
    /// the precomputed table. The reference implementation the table is
    /// property-tested against; prefer [`Self::ideal_combination`] on hot
    /// paths.
    pub fn ideal_combination_direct(&self, rate: f64) -> Combination {
        let rates = self.threshold_rates();
        ideal_fill(&self.candidates, &rates, rate)
    }

    /// The precomputed piecewise Step-5 table backing
    /// [`Self::ideal_combination`].
    pub fn combination_table(&self) -> &CombinationTable {
        &self.table
    }

    /// Power (W) of the ideal combination at `rate` — the BML curve of
    /// Fig. 4. Allocation-free via the precomputed table.
    pub fn power_at(&self, rate: f64) -> f64 {
        self.table.power_for(rate)
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
        let rates = self.threshold_rates();
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
    fn clone_compares_equal() {
        let bml = paper_bml();
        let cloned = bml.clone();
        assert_eq!(bml, cloned);
    }
}
