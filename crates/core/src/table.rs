//! Precomputed combination table: the piecewise structure of the Step-5
//! ideal-combination function, materialized once per infrastructure and
//! queried in O(log n).
//!
//! The paper's greedy fill ([`crate::combination::ideal_fill`]) is a pure
//! function of the rate whose *shape* only changes at finitely many
//! breakpoints — the minimum utilization thresholds and the full-node
//! capacity multiples of each architecture. Between two breakpoints the
//! set of fully loaded nodes is constant and only the rate of the single
//! partially loaded node varies (linearly). Moreover the function is
//! periodic in the Big architecture's capacity: adding one Big period to
//! the rate adds exactly one fully loaded Big and leaves the remainder
//! pattern unchanged.
//!
//! [`CombinationTable::build`] walks the greedy cascade symbolically and
//! records one `Segment` per piece over a single Big period (a few dozen
//! segments for the paper's Table I catalog). [`CombinationTable::lookup`]
//! then answers any rate — unbounded, not just a precomputed range — with
//! one floor division (whole Big periods) plus one binary search, instead
//! of re-running the full combination search. The remainder arithmetic
//! replays the greedy fill's own subtraction order, so lookups are
//! branch-equivalent to the direct computation (property-tested in
//! `tests/proptests.rs` over arbitrary catalogs and loads).
//!
//! This is how a production controller deploys the methodology: Steps 1-5
//! run offline, the table ships to the 1 Hz decision loop
//! ([`crate::scheduler`], `bml-sim`'s engine and sweep runners).

// The greedy fill's own tolerance: the table reproduces its EPS semantics
// exactly, so the constant is shared rather than duplicated.
use crate::combination::{Combination, NodeAlloc, EPS};
use crate::profile::ArchProfile;

/// One piece of the piecewise ideal-combination function, valid on
/// `[start, next_segment.start)` of the remainder domain `[0, period)`.
#[derive(Debug, Clone, PartialEq)]
struct Segment {
    /// Remainder rate where this piece begins.
    start: f64,
    /// Fully loaded nodes along the greedy cascade, `(arch, count)` with
    /// ascending arch index and `count > 0`; excludes the whole-period
    /// Bigs handled outside the table.
    full: Vec<(usize, u32)>,
    /// Architecture that serves this piece's linear remainder with one
    /// partially loaded node (dropped when the remainder is ~zero).
    partial_arch: usize,
    /// Nominal power of the full nodes (W), precomputed for
    /// [`CombinationTable::power_for`].
    full_power: f64,
}

/// The ideal-combination function of one infrastructure, precomputed as
/// its breakpoint segments. See the module docs for the representation.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinationTable {
    profiles: Vec<ArchProfile>,
    /// The Big architecture's capacity: the period of the combination
    /// function.
    period: f64,
    /// The Big architecture's minimum utilization threshold: below it (by
    /// the greedy fill's EPS tolerance) no full Bigs are taken at all, so
    /// the periodic decomposition must not apply. Normally <= `period`,
    /// but a single sub-unit-capacity architecture gets the base
    /// threshold of 1 and then `threshold0 > period`.
    threshold0: f64,
    /// Pieces over `[0, max(period, threshold0))`, sorted by ascending
    /// `start`, first at 0.
    segments: Vec<Segment>,
}

impl CombinationTable {
    /// Materialize the piecewise combination function of `profiles` (the
    /// candidate set, Big first) with their Step-4 `thresholds`.
    pub fn build(profiles: &[ArchProfile], thresholds: &[f64]) -> Self {
        assert!(!profiles.is_empty(), "need at least one architecture");
        assert_eq!(
            profiles.len(),
            thresholds.len(),
            "one threshold per candidate architecture"
        );
        let period = profiles[0].max_perf;
        let threshold0 = thresholds[0];
        let mut segments = Vec::new();
        let mut prefix = Vec::new();
        // Remainders from the periodic branch live in [0, period); rates
        // below the Big threshold skip the tier and are looked up whole,
        // so when threshold0 > period the domain must extend to it.
        subdivide(
            profiles,
            thresholds,
            0,
            0.0,
            period.max(threshold0),
            0.0,
            &mut prefix,
            &mut segments,
        );
        debug_assert!(!segments.is_empty());
        debug_assert!(segments[0].start <= 0.0 + EPS);
        debug_assert!(segments.windows(2).all(|w| w[0].start <= w[1].start));
        CombinationTable {
            profiles: profiles.to_vec(),
            period,
            threshold0,
            segments,
        }
    }

    /// Number of candidate architectures.
    pub fn n_archs(&self) -> usize {
        self.profiles.len()
    }

    /// Number of pieces over one Big period (diagnostics).
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }

    /// The Big architecture's capacity — the period of the function.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Approximate memory footprint in bytes (diagnostics).
    pub fn approx_bytes(&self) -> usize {
        self.segments
            .iter()
            .map(|s| std::mem::size_of::<Segment>() + s.full.len() * 16)
            .sum::<usize>()
            + self.profiles.len() * std::mem::size_of::<ArchProfile>()
    }

    /// Locate `rate`: whole Big periods, the remainder's segment, and the
    /// partial-node rate (replaying the greedy fill's subtraction order).
    fn locate(&self, rate: f64) -> (u32, &Segment, f64) {
        // ideal_fill skips the Big tier entirely below its threshold (no
        // full nodes), so the periodic decomposition only applies at or
        // above it; both branches use ideal_fill's own expressions.
        let (big_full, rem) = if rate + EPS < self.threshold0 {
            (0u32, rate)
        } else {
            let q = (rate / self.period).floor() as u32;
            (q, rate - f64::from(q) * self.period)
        };
        let idx = self.segments.partition_point(|s| s.start <= rem);
        let seg = &self.segments[idx.max(1) - 1];
        let mut partial = rem;
        for &(arch, count) in &seg.full {
            partial -= f64::from(count) * self.profiles[arch].max_perf;
        }
        (big_full, seg, partial)
    }

    /// The ideal combination for `rate` in O(log segments): equivalent to
    /// [`crate::combination::ideal_fill`] over this table's catalog.
    pub fn lookup(&self, rate: f64) -> Combination {
        let mut combo = Combination {
            target_rate: rate,
            allocs: Vec::new(),
        };
        if rate <= 0.0 {
            return combo;
        }
        let (big_full, seg, partial) = self.locate(rate);
        if big_full > 0 {
            combo.allocs.push(NodeAlloc {
                arch: 0,
                full_nodes: big_full,
                partial_rate: None,
            });
        }
        for &(arch, count) in &seg.full {
            combo.allocs.push(NodeAlloc {
                arch,
                full_nodes: count,
                partial_rate: None,
            });
        }
        if partial > EPS {
            match combo.allocs.iter_mut().find(|a| a.arch == seg.partial_arch) {
                Some(a) => a.partial_rate = Some(partial),
                None => combo.allocs.push(NodeAlloc {
                    arch: seg.partial_arch,
                    full_nodes: 0,
                    partial_rate: Some(partial),
                }),
            }
        }
        combo
    }

    /// Machine counts per architecture for `rate` (allocating convenience
    /// over [`CombinationTable::counts_into`]).
    pub fn counts_for(&self, rate: f64) -> Vec<u32> {
        let mut out = vec![0u32; self.profiles.len()];
        self.counts_into(rate, &mut out);
        out
    }

    /// Fill `out` with the per-architecture machine counts for `rate`
    /// without allocating. `out.len()` must equal [`Self::n_archs`].
    pub fn counts_into(&self, rate: f64, out: &mut [u32]) {
        assert_eq!(out.len(), self.profiles.len());
        out.fill(0);
        if rate <= 0.0 {
            return;
        }
        let (big_full, seg, partial) = self.locate(rate);
        out[0] = big_full;
        for &(arch, count) in &seg.full {
            out[arch] += count;
        }
        if partial > EPS {
            out[seg.partial_arch] += 1;
        }
    }

    /// `true` when the ideal combination for `rate` has exactly `counts`
    /// machines per architecture. Allocation-free: this is the scheduler's
    /// per-second no-change test.
    pub fn counts_match(&self, rate: f64, counts: &[u32]) -> bool {
        assert_eq!(counts.len(), self.profiles.len());
        if rate <= 0.0 {
            return counts.iter().all(|&c| c == 0);
        }
        let (big_full, seg, partial) = self.locate(rate);
        let partial_arch = (partial > EPS).then_some(seg.partial_arch);
        let mut full = seg.full.iter().peekable();
        for (k, &have) in counts.iter().enumerate() {
            let mut expect = if k == 0 { big_full } else { 0 };
            if let Some(&&(arch, count)) = full.peek() {
                if arch == k {
                    expect += count;
                    full.next();
                }
            }
            if partial_arch == Some(k) {
                expect += 1;
            }
            if expect != have {
                return false;
            }
        }
        true
    }

    /// Nominal power (W) of the ideal combination at `rate`, without
    /// building the combination: whole-period Bigs plus the segment's
    /// precomputed full-node power plus the partial node's linear model.
    pub fn power_for(&self, rate: f64) -> f64 {
        if rate <= 0.0 {
            return 0.0;
        }
        let (big_full, seg, partial) = self.locate(rate);
        let mut power = f64::from(big_full) * self.profiles[0].max_power + seg.full_power;
        if partial > EPS {
            power += self.profiles[seg.partial_arch].power_at(partial);
        }
        power
    }
}

/// Recursively cut the remainder interval `[lo, hi)` seen by tier `k` into
/// segments, mirroring the greedy cascade of `ideal_fill`:
///
/// * remainders below `threshold - EPS` skip the tier entirely;
/// * above it, every capacity multiple adds one fully loaded node, and the
///   in-block leftover either stays here as the partial node (at or above
///   the threshold) or cascades to the smaller tiers.
///
/// `shift` maps tier-local remainders back to global rates (boundaries
/// only; lookup re-derives remainders with the greedy fill's own
/// arithmetic), `prefix` carries the full nodes accumulated along the
/// cascade path.
#[allow(clippy::too_many_arguments)]
fn subdivide(
    profiles: &[ArchProfile],
    thresholds: &[f64],
    k: usize,
    mut lo: f64,
    hi: f64,
    shift: f64,
    prefix: &mut Vec<(usize, u32)>,
    out: &mut Vec<Segment>,
) {
    if lo >= hi {
        return;
    }
    let n = profiles.len();
    if k == n {
        // Past the Little tier: ideal_fill's final fallback serves any
        // leftover with one partially loaded Little node.
        push_segment(out, shift + lo, prefix, n - 1, profiles);
        return;
    }
    let t_eff = thresholds[k] - EPS;
    let p = profiles[k].max_perf;
    if lo < t_eff {
        subdivide(
            profiles,
            thresholds,
            k + 1,
            lo,
            hi.min(t_eff),
            shift,
            prefix,
            out,
        );
        if hi <= t_eff {
            return;
        }
        lo = t_eff;
    }
    // Tier k is active on [lo, hi): one block per full-node multiple.
    let mut m = (lo / p).floor();
    while m * p < hi {
        let base = m * p;
        let z_lo = (lo.max(base) - base).max(0.0);
        let z_hi = hi.min(base + p) - base;
        let full_here = m as u32;
        if full_here > 0 {
            prefix.push((k, full_here));
        }
        let cascade_hi = z_hi.min(t_eff);
        if z_lo < cascade_hi {
            subdivide(
                profiles,
                thresholds,
                k + 1,
                z_lo,
                cascade_hi,
                shift + base,
                prefix,
                out,
            );
        }
        if z_hi > t_eff {
            push_segment(out, shift + base + z_lo.max(t_eff), prefix, k, profiles);
        }
        if full_here > 0 {
            prefix.pop();
        }
        m += 1.0;
    }
}

/// Append a segment, precomputing its full-node power.
fn push_segment(
    out: &mut Vec<Segment>,
    start: f64,
    prefix: &[(usize, u32)],
    partial_arch: usize,
    profiles: &[ArchProfile],
) {
    let full_power = prefix
        .iter()
        .map(|&(arch, count)| f64::from(count) * profiles[arch].max_power)
        .sum();
    out.push(Segment {
        start,
        full: prefix.to_vec(),
        partial_arch,
        full_power,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bml::BmlInfrastructure;
    use crate::catalog;

    fn paper() -> BmlInfrastructure {
        BmlInfrastructure::build(&catalog::table1()).unwrap()
    }

    #[test]
    fn table_matches_direct_computation_at_landmarks() {
        let bml = paper();
        let t = bml.combination_table();
        for r in [
            0.0, 0.5, 1.0, 8.0, 9.0, 9.5, 10.0, 33.0, 100.0, 528.0, 528.5, 529.0, 1000.0, 1331.0,
            1332.0, 2000.0, 2662.0, 3000.0, 5324.0, 123456.7,
        ] {
            let direct = bml.ideal_combination_direct(r);
            let looked = t.lookup(r);
            assert_eq!(looked, direct, "combination mismatch at rate {r}");
            assert_eq!(
                t.counts_for(r),
                direct.counts(bml.n_archs()),
                "counts mismatch at rate {r}"
            );
            assert!(
                (t.power_for(r) - direct.power(bml.candidates())).abs() < 1e-9,
                "power mismatch at rate {r}"
            );
        }
    }

    #[test]
    fn quickstart_combination_via_table() {
        let bml = paper();
        assert_eq!(bml.combination_table().counts_for(100.0), vec![0, 3, 1]);
    }

    #[test]
    fn period_is_big_capacity_and_segments_are_few() {
        let bml = paper();
        let t = bml.combination_table();
        assert_eq!(t.period(), 1331.0);
        assert_eq!(t.n_archs(), 3);
        // A few dozen pieces cover every possible rate.
        assert!(t.n_segments() < 200, "{} segments", t.n_segments());
        assert!(t.approx_bytes() < 100_000);
    }

    #[test]
    fn counts_match_agrees_with_counts_for() {
        let bml = paper();
        let t = bml.combination_table();
        for r in [0.0, 1.0, 9.5, 10.0, 100.0, 529.0, 2000.0] {
            let counts = t.counts_for(r);
            assert!(t.counts_match(r, &counts), "self-match failed at {r}");
            let mut off = counts.clone();
            off[0] += 1;
            assert!(!t.counts_match(r, &off), "false match at {r}");
        }
    }

    #[test]
    fn counts_into_reuses_buffer() {
        let bml = paper();
        let t = bml.combination_table();
        let mut buf = vec![9, 9, 9];
        t.counts_into(100.0, &mut buf);
        assert_eq!(buf, vec![0, 3, 1]);
        t.counts_into(0.0, &mut buf);
        assert_eq!(buf, vec![0, 0, 0]);
    }

    #[test]
    fn negative_and_zero_rates_are_empty() {
        let bml = paper();
        let t = bml.combination_table();
        assert!(t.lookup(0.0).is_empty());
        assert!(t.lookup(-5.0).is_empty());
        assert_eq!(t.power_for(-5.0), 0.0);
        assert!(t.counts_match(-5.0, &[0, 0, 0]));
        assert!(!t.counts_match(-5.0, &[1, 0, 0]));
    }

    #[test]
    fn unbounded_rates_keep_matching() {
        // The old dense table capped out; the piecewise table is total.
        let bml = paper();
        let t = bml.combination_table();
        for r in [10_000.0, 1_000_000.0, 12_345_678.9] {
            let direct = bml.ideal_combination_direct(r);
            assert_eq!(t.lookup(r), direct, "rate {r}");
        }
    }

    #[test]
    fn single_architecture_table() {
        let solo = vec![ArchProfile::without_transitions("only", 2.0, 10.0, 10.0).unwrap()];
        let bml = BmlInfrastructure::from_candidates(solo).unwrap();
        let t = bml.combination_table();
        for r in [0.0, 0.5, 1.0, 9.0, 10.0, 25.0, 100.0] {
            assert_eq!(t.lookup(r), bml.ideal_combination_direct(r), "rate {r}");
        }
    }

    #[test]
    fn sub_unit_capacity_threshold_exceeds_period() {
        // A single architecture with max_perf < 1 gets the base threshold
        // of 1, which exceeds its own capacity: below the threshold the
        // greedy fill takes no full nodes at all, so the periodic
        // decomposition must not strip whole periods there.
        let tiny = vec![ArchProfile::without_transitions("tiny", 1.0, 2.0, 0.5).unwrap()];
        let bml = BmlInfrastructure::from_candidates(tiny).unwrap();
        let t = bml.combination_table();
        for r in [0.0, 0.2, 0.5, 0.7, 0.9, 1.0, 1.2, 2.0, 2.3, 7.75] {
            assert_eq!(t.lookup(r), bml.ideal_combination_direct(r), "rate {r}");
            assert_eq!(
                t.counts_for(r),
                bml.ideal_combination_direct(r).counts(1),
                "counts at rate {r}"
            );
        }
        // The reviewer's original reproduction: 0.7 must be one partial
        // node serving 0.7, not a full node plus a 0.2 partial.
        let combo = t.lookup(0.7);
        assert_eq!(combo.total_nodes(), 1);
        assert_eq!(combo.allocs[0].partial_rate, Some(0.7));
    }

    #[test]
    fn sub_unit_little_in_multi_arch_catalog() {
        // A Little below 1 req/s capacity alongside a normal Big: the
        // base threshold (1) exceeds the Little's capacity, exercising
        // the full-take-then-fallback path inside the cascade.
        let pair = vec![
            ArchProfile::without_transitions("big", 10.0, 50.0, 100.0).unwrap(),
            ArchProfile::without_transitions("nano", 0.1, 0.5, 0.5).unwrap(),
        ];
        let bml = BmlInfrastructure::from_candidates(pair).unwrap();
        let t = bml.combination_table();
        for r in [0.0, 0.2, 0.5, 0.7, 1.0, 3.3, 50.0, 99.9, 100.0, 250.6] {
            assert_eq!(t.lookup(r), bml.ideal_combination_direct(r), "rate {r}");
        }
    }
}
