//! Step 5 — computing the ideal BML machine combination for a target
//! performance rate (paper Sec. IV-E).
//!
//! The paper frames this as a bin-packing problem whose single "object"
//! (the target performance) may be split arbitrarily: architectures sorted
//! by decreasing size are filled *completely* first ("architectures are the
//! most energy efficient when fully loaded"), and the remainder is assigned
//! to the right architecture using the minimum utilization thresholds of
//! Steps 3-4.
//!
//! This module also provides an exact dynamic-programming packer
//! ([`optimal_dp`]) used as an ablation to quantify how close the paper's
//! greedy fill is to optimal, and [`config_power`] which computes the power
//! drawn by an arbitrary *given* set of powered-on machines serving a load,
//! under a configurable load-split policy.

use crate::profile::ArchProfile;

/// Floating-point slack for "remainder is zero" and threshold comparisons.
/// Shared with `crate::table`, which must reproduce these tolerance
/// semantics exactly to stay branch-equivalent.
pub(crate) const EPS: f64 = 1e-9;

/// Nodes of one architecture inside a [`Combination`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAlloc {
    /// Index of the architecture in the candidate list (0 = Big).
    pub arch: usize,
    /// Number of nodes running at `max_perf` (fully loaded).
    pub full_nodes: u32,
    /// Rate assigned to one additional, partially loaded node, if any.
    pub partial_rate: Option<f64>,
}

impl NodeAlloc {
    /// Total node count of this allocation (full + partial).
    pub fn nodes(&self) -> u32 {
        self.full_nodes + u32::from(self.partial_rate.is_some())
    }
}

/// An ideal BML combination: which nodes of which architecture to power on,
/// and how the target rate is spread over them.
#[derive(Debug, Clone, PartialEq)]
pub struct Combination {
    /// The performance rate this combination was built for.
    pub target_rate: f64,
    /// Per-architecture allocations, Big first; architectures with zero
    /// nodes are omitted.
    pub allocs: Vec<NodeAlloc>,
}

impl Combination {
    /// The empty combination (zero load, zero machines).
    pub fn empty() -> Self {
        Combination {
            target_rate: 0.0,
            allocs: Vec::new(),
        }
    }

    /// Total power (W) drawn by this combination under the linear model:
    /// full nodes at `max_power`, the partial node at `power_at(rate)`.
    pub fn power(&self, profiles: &[ArchProfile]) -> f64 {
        self.allocs
            .iter()
            .map(|a| {
                let p = &profiles[a.arch];
                let full = f64::from(a.full_nodes) * p.max_power;
                let part = a.partial_rate.map_or(0.0, |r| p.power_at(r));
                full + part
            })
            .sum()
    }

    /// Maximum rate this combination can serve (sum of `max_perf` of every
    /// powered-on node).
    pub fn capacity(&self, profiles: &[ArchProfile]) -> f64 {
        self.allocs
            .iter()
            .map(|a| f64::from(a.nodes()) * profiles[a.arch].max_perf)
            .sum()
    }

    /// Rate actually assigned (full nodes at max + partial rates); equals
    /// `target_rate` for combinations built by [`ideal_fill`].
    pub fn assigned_rate(&self, profiles: &[ArchProfile]) -> f64 {
        self.allocs
            .iter()
            .map(|a| {
                f64::from(a.full_nodes) * profiles[a.arch].max_perf + a.partial_rate.unwrap_or(0.0)
            })
            .sum()
    }

    /// Node counts per architecture index, `n_archs` entries (zero-filled).
    pub fn counts(&self, n_archs: usize) -> Vec<u32> {
        let mut c = vec![0u32; n_archs];
        for a in &self.allocs {
            c[a.arch] += a.nodes();
        }
        c
    }

    /// Total number of powered-on machines.
    pub fn total_nodes(&self) -> u32 {
        self.allocs.iter().map(NodeAlloc::nodes).sum()
    }

    /// `true` if the combination powers no machine.
    pub fn is_empty(&self) -> bool {
        self.total_nodes() == 0
    }
}

/// The paper's greedy fill (Step 5).
///
/// `profiles` must be sorted by decreasing `max_perf` (the output of
/// candidate filtering) and `thresholds[k]` is the minimum utilization
/// threshold of `profiles[k]` (Steps 3-4; the smallest architecture has
/// threshold 1).
///
/// For each architecture, biggest first: take as many *fully loaded* nodes
/// as fit in the remaining rate; if the remainder is at or above this
/// architecture's threshold, serve it with one partially loaded node and
/// stop; otherwise hand the remainder down to smaller architectures.
pub fn ideal_fill(profiles: &[ArchProfile], thresholds: &[f64], rate: f64) -> Combination {
    assert_eq!(
        profiles.len(),
        thresholds.len(),
        "one threshold per candidate architecture"
    );
    let mut combo = Combination {
        target_rate: rate,
        allocs: Vec::new(),
    };
    if rate <= 0.0 {
        return combo;
    }
    let mut rem = rate;
    for (k, (p, &t)) in profiles.iter().zip(thresholds).enumerate() {
        if rem <= EPS {
            break;
        }
        if rem + EPS < t {
            continue; // too small for this architecture at all
        }
        let full = (rem / p.max_perf).floor() as u32;
        let mut alloc = NodeAlloc {
            arch: k,
            full_nodes: full,
            partial_rate: None,
        };
        rem -= f64::from(full) * p.max_perf;
        if rem <= EPS {
            rem = 0.0;
        } else if rem + EPS >= t {
            alloc.partial_rate = Some(rem);
            rem = 0.0;
        }
        if alloc.nodes() > 0 {
            combo.allocs.push(alloc);
        }
        if rem == 0.0 {
            break;
        }
    }
    // A sub-threshold fractional remainder (possible only when the rate is
    // below the Little threshold of 1, or not an integer) still needs one
    // Little node.
    if rem > EPS {
        let k = profiles.len() - 1;
        match combo.allocs.iter_mut().find(|a| a.arch == k) {
            Some(a) if a.partial_rate.is_none() => a.partial_rate = Some(rem),
            _ => combo.allocs.push(NodeAlloc {
                arch: k,
                full_nodes: 0,
                partial_rate: Some(rem),
            }),
        }
    }
    combo
}

/// Exact optimal packing by dynamic programming over integer rates, for
/// ablation against the paper's greedy [`ideal_fill`].
///
/// `best[r]` = minimum power to serve exactly rate `r`, where each added
/// node serves an integer chunk `s <= max_perf` and costs
/// `idle + slope * s`. Returns `(power, node counts per architecture)`.
pub fn optimal_dp(profiles: &[ArchProfile], rate: u64) -> (f64, Vec<u32>) {
    let n = profiles.len();
    if rate == 0 {
        return (0.0, vec![0; n]);
    }
    let r = rate as usize;
    let mut best = vec![f64::INFINITY; r + 1];
    let mut choice: Vec<(usize, usize)> = vec![(usize::MAX, 0); r + 1]; // (arch, served)
    best[0] = 0.0;
    for cur in 1..=r {
        for (k, p) in profiles.iter().enumerate() {
            let cap = p.max_perf.floor() as usize;
            // Serving less than capacity only ever helps for the *last*
            // node of an architecture; trying all chunk sizes is O(R*mp)
            // which is too slow, so we try (a) a full node, (b) one node
            // serving the entire remaining `cur` if it fits.
            if cap > 0 && cur >= cap {
                let cand = best[cur - cap] + p.max_power;
                if cand < best[cur] {
                    best[cur] = cand;
                    choice[cur] = (k, cap);
                }
            }
            if cur <= cap {
                let cand = p.power_at(cur as f64);
                if cand < best[cur] {
                    best[cur] = cand;
                    choice[cur] = (k, cur);
                }
            }
        }
    }
    let mut counts = vec![0u32; n];
    let mut cur = r;
    while cur > 0 {
        let (k, served) = choice[cur];
        assert_ne!(k, usize::MAX, "dp table must be complete");
        counts[k] += 1;
        cur -= served;
    }
    (best[r], counts)
}

/// How a load is split across the powered-on machines of a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitPolicy {
    /// Fill machines in increasing order of marginal power (W per unit),
    /// i.e. the split that minimizes total power for a fixed machine set.
    EfficiencyGreedy,
    /// Split proportionally to each machine's capacity — what a plain
    /// capacity-weighted load balancer does.
    ProportionalToCapacity,
}

/// Power (W) drawn and load actually served by `counts[k]` powered-on nodes
/// of each architecture serving `load`, under `policy`.
///
/// Load beyond total capacity is dropped (returned `served` < `load`);
/// machines beyond what the load needs still draw idle power — that is the
/// whole energy-proportionality problem.
pub fn config_power(
    profiles: &[ArchProfile],
    counts: &[u32],
    load: f64,
    policy: SplitPolicy,
) -> (f64, f64) {
    assert_eq!(profiles.len(), counts.len());
    let capacity: f64 = profiles
        .iter()
        .zip(counts)
        .map(|(p, &c)| f64::from(c) * p.max_perf)
        .sum();
    let served = load.clamp(0.0, capacity);
    let idle: f64 = profiles
        .iter()
        .zip(counts)
        .map(|(p, &c)| f64::from(c) * p.idle_power)
        .sum();
    let dynamic = match policy {
        SplitPolicy::EfficiencyGreedy => {
            let mut order: Vec<usize> = (0..profiles.len()).filter(|&k| counts[k] > 0).collect();
            order.sort_by(|&a, &b| {
                profiles[a]
                    .slope()
                    .partial_cmp(&profiles[b].slope())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut rem = served;
            let mut dyn_p = 0.0;
            for k in order {
                if rem <= 0.0 {
                    break;
                }
                let cap_k = f64::from(counts[k]) * profiles[k].max_perf;
                let take = rem.min(cap_k);
                dyn_p += profiles[k].slope() * take;
                rem -= take;
            }
            dyn_p
        }
        SplitPolicy::ProportionalToCapacity => {
            if capacity <= 0.0 {
                0.0
            } else {
                profiles
                    .iter()
                    .zip(counts)
                    .map(|(p, &c)| {
                        let cap_k = f64::from(c) * p.max_perf;
                        p.slope() * served * (cap_k / capacity)
                    })
                    .sum()
            }
        }
    };
    (idle + dynamic, served)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::crossing::compute_thresholds;

    fn trio() -> (Vec<ArchProfile>, Vec<f64>) {
        let profiles = catalog::paper_bml_trio();
        let thresholds: Vec<f64> = compute_thresholds(&profiles)
            .iter()
            .map(|t| t.rate)
            .collect();
        (profiles, thresholds)
    }

    #[test]
    fn zero_rate_is_empty() {
        let (p, t) = trio();
        let c = ideal_fill(&p, &t, 0.0);
        assert!(c.is_empty());
        assert_eq!(c.power(&p), 0.0);
    }

    #[test]
    fn tiny_rate_uses_one_little() {
        let (p, t) = trio();
        let c = ideal_fill(&p, &t, 1.0);
        assert_eq!(c.total_nodes(), 1);
        assert_eq!(c.allocs[0].arch, 2); // raspberry
        assert_eq!(c.allocs[0].partial_rate, Some(1.0));
    }

    #[test]
    fn rate_at_medium_threshold_uses_medium() {
        let (p, t) = trio();
        // Threshold of the Chromebook is 10 req/s (paper Sec. V-B).
        let c = ideal_fill(&p, &t, 10.0);
        assert_eq!(c.total_nodes(), 1);
        assert_eq!(c.allocs[0].arch, 1); // chromebook
    }

    #[test]
    fn rate_below_medium_threshold_stacks_littles() {
        let (p, t) = trio();
        let c = ideal_fill(&p, &t, 9.5);
        // 1 full raspberry (9) + 1 partial raspberry (0.5).
        let counts = c.counts(3);
        assert_eq!(counts, vec![0, 0, 2]);
        assert!((c.assigned_rate(&p) - 9.5).abs() < 1e-9);
    }

    #[test]
    fn rate_at_big_threshold_uses_big() {
        let (p, t) = trio();
        // Threshold of Paravance is 529 req/s (paper Sec. V-B).
        let c = ideal_fill(&p, &t, 529.0);
        assert_eq!(c.counts(3), vec![1, 0, 0]);
        // One req/s less: mediums + littles instead.
        let c = ideal_fill(&p, &t, 528.0);
        assert_eq!(c.counts(3)[0], 0);
        assert_eq!(c.counts(3)[1], 16); // 16 full chromebooks = 528
    }

    #[test]
    fn large_rate_fills_bigs_first() {
        let (p, t) = trio();
        let c = ideal_fill(&p, &t, 3000.0);
        // floor(3000/1331) = 2 full Bigs, remainder 338 < 529 -> mediums.
        let counts = c.counts(3);
        assert_eq!(counts[0], 2);
        // 338 = 10 full chromebooks (330) + remainder 8 < 10 -> raspberry.
        assert_eq!(counts[1], 10);
        assert_eq!(counts[2], 1);
        assert!((c.assigned_rate(&p) - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn exact_multiple_of_big_uses_only_full_bigs() {
        let (p, t) = trio();
        let c = ideal_fill(&p, &t, 2.0 * 1331.0);
        assert_eq!(c.counts(3), vec![2, 0, 0]);
        assert!((c.power(&p) - 2.0 * 200.5).abs() < 1e-9);
    }

    #[test]
    fn assigned_rate_always_covers_target() {
        let (p, t) = trio();
        for r in [0.5, 1.0, 7.3, 33.0, 100.0, 529.0, 1331.0, 4000.0, 5323.9] {
            let c = ideal_fill(&p, &t, r);
            assert!(
                c.assigned_rate(&p) + 1e-6 >= r,
                "rate {r} not covered: assigned {}",
                c.assigned_rate(&p)
            );
            assert!(c.capacity(&p) + 1e-6 >= r);
        }
    }

    #[test]
    fn power_is_monotone_in_rate() {
        let (p, t) = trio();
        let mut last = 0.0;
        for r in 0..=2700u64 {
            let c = ideal_fill(&p, &t, r as f64);
            let w = c.power(&p);
            assert!(
                w + 1e-9 >= last,
                "power not monotone at rate {r}: {w} < {last}"
            );
            last = w;
        }
    }

    #[test]
    fn dp_never_beats_greedy_by_much_and_never_loses() {
        let (p, t) = trio();
        for r in [1u64, 9, 10, 50, 100, 333, 528, 529, 1000, 1331, 2000] {
            let greedy = ideal_fill(&p, &t, r as f64).power(&p);
            let (dp, _) = optimal_dp(&p, r);
            assert!(
                dp <= greedy + 1e-9,
                "dp worse than greedy at {r}: {dp} > {greedy}"
            );
            // The paper's greedy is near-optimal: within 15% everywhere on
            // the Table I data.
            assert!(
                greedy <= dp * 1.15 + 1e-9,
                "greedy gap too large at {r}: {greedy} vs {dp}"
            );
        }
    }

    #[test]
    fn dp_zero_rate() {
        let (p, _) = trio();
        let (w, counts) = optimal_dp(&p, 0);
        assert_eq!(w, 0.0);
        assert_eq!(counts, vec![0, 0, 0]);
    }

    #[test]
    fn config_power_greedy_splits_to_cheapest_slope() {
        let (p, _) = trio();
        // 1 Big + 1 Medium on; Big slope ~0.0981 < Medium slope ~0.1091,
        // so greedy loads the Big first.
        let counts = vec![1, 1, 0];
        let (w, served) = config_power(&p, &counts, 100.0, SplitPolicy::EfficiencyGreedy);
        assert_eq!(served, 100.0);
        let expected = 69.9 + 4.0 + p[0].slope() * 100.0;
        assert!((w - expected).abs() < 1e-9);
    }

    #[test]
    fn config_power_proportional_split() {
        let (p, _) = trio();
        let counts = vec![1, 1, 0];
        let cap = 1331.0 + 33.0;
        let (w, _) = config_power(&p, &counts, 100.0, SplitPolicy::ProportionalToCapacity);
        let expected = 69.9
            + 4.0
            + p[0].slope() * 100.0 * (1331.0 / cap)
            + p[1].slope() * 100.0 * (33.0 / cap);
        assert!((w - expected).abs() < 1e-9);
    }

    #[test]
    fn config_power_drops_overload() {
        let (p, _) = trio();
        let counts = vec![0, 0, 2]; // capacity 18
        let (w, served) = config_power(&p, &counts, 100.0, SplitPolicy::EfficiencyGreedy);
        assert_eq!(served, 18.0);
        assert!((w - 2.0 * 3.7).abs() < 1e-9);
    }

    #[test]
    fn config_power_idle_when_no_load() {
        let (p, _) = trio();
        let counts = vec![4, 0, 0];
        let (w, served) = config_power(&p, &counts, 0.0, SplitPolicy::EfficiencyGreedy);
        assert_eq!(served, 0.0);
        assert!((w - 4.0 * 69.9).abs() < 1e-9);
    }

    #[test]
    fn greedy_split_never_exceeds_proportional() {
        let (p, _) = trio();
        for load in [10.0, 100.0, 500.0, 1300.0] {
            let counts = vec![1, 3, 5];
            let (g, _) = config_power(&p, &counts, load, SplitPolicy::EfficiencyGreedy);
            let (pr, _) = config_power(&p, &counts, load, SplitPolicy::ProportionalToCapacity);
            assert!(
                g <= pr + 1e-9,
                "load {load}: greedy {g} > proportional {pr}"
            );
        }
    }

    #[test]
    fn counts_and_nodes_accounting() {
        let (p, t) = trio();
        let c = ideal_fill(&p, &t, 1400.0);
        let counts = c.counts(3);
        assert_eq!(counts.iter().sum::<u32>(), c.total_nodes());
        assert!(c.capacity(&p) >= c.assigned_rate(&p) - 1e-9);
    }
}
