//! Sliding-window maximum over a trace, kept as the maximal runs of the
//! windowed maximum.
//!
//! The paper's prediction is "the maximum load value over a window of 378
//! seconds" ahead of the current time. Evaluating that naively for every
//! second of an 87-day trace costs `O(n * w)` (~2.8 billion comparisons);
//! the classic monotonic-deque scan computes every window in one backward
//! pass. [`LookaheadMaxTable`] runs that scan over the trace's
//! constant-load runs instead of its seconds, and stores only the maximal
//! runs `(start, value)` of the result. A windowed maximum changes far
//! less often than the load it is taken over — two worldcup-tournament
//! days hold 169,936 load runs but 1,014 runs of the 378 s maximum — so
//! the table costs O(horizon + runs) memory instead of 8 bytes per
//! second.
//!
//! A lookup is a binary search over the runs, or O(1) from a forward
//! cursor (what [`crate::LookaheadMaxPredictor`] keeps across a replay);
//! the next change-point is the next run's start. The cursor lives in the
//! predictor, not the table, so one table serves every replay of the same
//! trace and horizon.

use std::collections::VecDeque;

/// Precomputed look-ahead window maxima: `max(rates[t .. t + horizon])`
/// for every `t`, windows clamped at the end of the trace, stored as
/// maximal runs of constant value.
///
/// Immutable once built, and a function of the rates and the horizon
/// alone: share one table (behind an `Arc`) among all the predictors that
/// replay the same trace with the same horizon; each
/// [`crate::LookaheadMaxPredictor`] keeps its own cursor.
#[derive(Debug, Clone)]
pub struct LookaheadMaxTable {
    horizon: u64,
    /// Seconds covered (the trace length).
    len: u64,
    /// Maximal runs `(start, value)` in time order: run `i` covers
    /// `[start_i, start_{i+1})`, the last one up to `len`. Adjacent runs
    /// differ in value.
    runs: Vec<(u64, f64)>,
}

impl LookaheadMaxTable {
    /// Build the table for the given look-ahead `horizon` (seconds).
    ///
    /// `horizon == 0` is treated as 1 (the window always includes the
    /// current second).
    pub fn new(rates: &[f64], horizon: u64) -> Self {
        let horizon = horizon.max(1);
        // Backward scan over the constant-load runs of `rates`. The deque
        // holds `(start, value)` of load runs inside the current window,
        // newest (leftmost) at the back, values strictly decreasing from
        // the front, so the front is the window maximum. A load run stays
        // in the window `[t, t + horizon)` until `t + horizon <= start`.
        let mut deque: VecDeque<(u64, f64)> = VecDeque::new();
        // Maximal runs of the result, latest first.
        let mut rev_runs: Vec<(u64, f64)> = Vec::new();
        let mut end = rates.len();
        while end > 0 {
            let value = rates[end - 1];
            let mut start = end - 1;
            while start > 0 && rates[start - 1] == value {
                start -= 1;
            }
            let (start, last) = (start as u64, (end - 1) as u64);
            // Evict runs that left the window of the run's last second,
            // then let the new run kill the smaller (or equal) ones.
            while deque
                .front()
                .is_some_and(|&(s, _)| s >= last.saturating_add(horizon))
            {
                deque.pop_front();
            }
            while deque.back().is_some_and(|&(_, v)| v <= value) {
                deque.pop_back();
            }
            deque.push_back((start, value));
            // Walk the run's seconds backwards in pieces: the front is the
            // maximum down to the second its load run leaves the window.
            loop {
                let &(front_start, max) = deque.front().expect("the new run is in the deque");
                let from = (front_start + 1).saturating_sub(horizon).max(start);
                match rev_runs.last_mut() {
                    Some(run) if run.1 == max => run.0 = from,
                    _ => rev_runs.push((from, max)),
                }
                if from == start {
                    break;
                }
                deque.pop_front();
            }
            end = start as usize;
        }
        rev_runs.reverse();
        LookaheadMaxTable {
            horizon,
            len: rates.len() as u64,
            runs: rev_runs,
        }
    }

    /// The look-ahead horizon this table was built for.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Index of the run containing `t < len`: `hint` and the run after it
    /// are tried first, so a forward replay that passes its last answer
    /// back finds the run in O(1); anything else is a binary search.
    #[inline]
    pub(crate) fn locate(&self, t: u64, hint: usize) -> usize {
        debug_assert!(t < self.len);
        let contains = |i: usize| {
            self.runs.get(i).is_some_and(|&(s, _)| s <= t)
                && self.runs.get(i + 1).is_none_or(|&(s, _)| t < s)
        };
        if contains(hint) {
            hint
        } else if contains(hint + 1) {
            hint + 1
        } else {
            self.runs.partition_point(|&(s, _)| s <= t) - 1
        }
    }

    /// The windowed maximum of run `i` (see [`LookaheadMaxTable::locate`]).
    #[inline]
    pub(crate) fn run_value(&self, i: usize) -> f64 {
        self.runs[i].1
    }

    /// `max(rates[t .. t + horizon])`, or 0 past the end of the trace.
    pub fn max_from(&self, t: u64) -> f64 {
        if t >= self.len {
            return 0.0;
        }
        self.run_value(self.locate(t, 0))
    }

    /// Next change-point of the prediction after `t`: the smallest
    /// `t' > t` with `max_from(t') != max_from(t)`, or `None` when the
    /// value holds for the rest of the table. This is the start of the
    /// run after `t`'s, so it is exact.
    pub fn next_change(&self, t: u64) -> Option<u64> {
        self.next_change_near(t, 0)
    }

    /// [`LookaheadMaxTable::next_change`] with a [`LookaheadMaxTable::locate`]
    /// hint.
    #[inline]
    pub(crate) fn next_change_near(&self, t: u64, hint: usize) -> Option<u64> {
        if t >= self.len {
            return None;
        }
        let i = self.locate(t, hint);
        self.runs.get(i + 1).map(|&(start, _)| start)
    }

    /// Number of positions covered.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` for an empty trace.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Naive reference implementation, used by tests and property checks.
pub fn naive_lookahead_max(rates: &[f64], t: u64, horizon: u64) -> f64 {
    let horizon = horizon.max(1);
    let from = (t as usize).min(rates.len());
    let to = ((t + horizon) as usize).min(rates.len());
    rates[from..to].iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_naive_on_small_input() {
        let rates = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        for horizon in 1..=10u64 {
            let table = LookaheadMaxTable::new(&rates, horizon);
            for t in 0..rates.len() as u64 {
                assert_eq!(
                    table.max_from(t),
                    naive_lookahead_max(&rates, t, horizon),
                    "t={t} horizon={horizon}"
                );
            }
        }
    }

    #[test]
    fn horizon_one_is_identity() {
        let rates = [3.0, 1.0, 4.0];
        let table = LookaheadMaxTable::new(&rates, 1);
        for (t, &r) in rates.iter().enumerate() {
            assert_eq!(table.max_from(t as u64), r);
        }
    }

    #[test]
    fn horizon_zero_treated_as_one() {
        let rates = [3.0, 1.0];
        let table = LookaheadMaxTable::new(&rates, 0);
        assert_eq!(table.horizon(), 1);
        assert_eq!(table.max_from(1), 1.0);
    }

    #[test]
    fn out_of_range_is_zero() {
        let table = LookaheadMaxTable::new(&[1.0], 5);
        assert_eq!(table.max_from(10), 0.0);
    }

    #[test]
    fn empty_input() {
        let table = LookaheadMaxTable::new(&[], 5);
        assert!(table.is_empty());
        assert_eq!(table.max_from(0), 0.0);
    }

    #[test]
    fn window_clamps_at_end() {
        let rates = [1.0, 2.0, 3.0];
        let table = LookaheadMaxTable::new(&rates, 100);
        assert_eq!(table.max_from(0), 3.0);
        assert_eq!(table.max_from(2), 3.0);
    }

    #[test]
    fn monotone_decreasing_input() {
        let rates: Vec<f64> = (0..100).rev().map(|x| x as f64).collect();
        let table = LookaheadMaxTable::new(&rates, 10);
        for t in 0..100u64 {
            assert_eq!(table.max_from(t), rates[t as usize]);
        }
    }

    #[test]
    fn segments_partition_and_next_change_agrees() {
        let rates = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let table = LookaheadMaxTable::new(&rates, 3);
        // The maximal runs of the windowed maximum, from the naive maxima.
        let maxima: Vec<f64> = (0..rates.len() as u64)
            .map(|t| naive_lookahead_max(&rates, t, 3))
            .collect();
        let segs: Vec<_> = crate::segments::constant_runs(&maxima).collect();
        // Segments partition [0, n) and carry the window-max values.
        assert_eq!(segs.first().unwrap().start, 0);
        assert_eq!(segs.last().unwrap().end, rates.len() as u64);
        for s in &segs {
            for t in s.start..s.end {
                assert_eq!(table.max_from(t), s.value);
            }
        }
        // next_change hops exactly along segment boundaries.
        let mut t = 0;
        for s in &segs {
            assert_eq!(s.start, t);
            match table.next_change(t) {
                Some(next) => {
                    assert_eq!(next, s.end);
                    t = next;
                }
                None => assert_eq!(s.end, rates.len() as u64),
            }
        }
        assert_eq!(table.next_change(100), None);
    }

    #[test]
    fn large_random_like_input_matches_naive() {
        // Deterministic pseudo-random data without pulling in rand here.
        let mut x = 123456789u64;
        let rates: Vec<f64> = (0..5000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as f64 / 1e6
            })
            .collect();
        let table = LookaheadMaxTable::new(&rates, 378);
        for t in (0..5000u64).step_by(37) {
            assert_eq!(table.max_from(t), naive_lookahead_max(&rates, t, 378));
        }
    }
}
