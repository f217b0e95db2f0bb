//! Property-based tests for traces, windows and predictors.

use std::sync::Arc;

use bml_trace::predictor::{LookaheadMaxPredictor, Predictor};
use bml_trace::trace::LoadTrace;
use bml_trace::window::{naive_lookahead_max, LookaheadMaxTable};
use proptest::prelude::*;

fn arb_rates() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..10_000.0, 0..2_000)
}

/// Plateau traces: runs of 1..400 s, each at one of four load levels, so
/// ties, long runs and windows spanning several runs are the norm rather
/// than the exception they are under [`arb_rates`].
fn arb_plateaus() -> impl Strategy<Value = Vec<f64>> {
    const LEVELS: [f64; 4] = [0.0, 150.0, 900.0, 2_500.0];
    proptest::collection::vec((0usize..4, 1usize..400), 0..16).prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(level, len)| std::iter::repeat_n(LEVELS[level], len))
            .collect()
    })
}

/// The windowed maximum of every second, the naive way.
fn naive_maxima(rates: &[f64], horizon: u64) -> Vec<f64> {
    (0..rates.len() as u64)
        .map(|t| naive_lookahead_max(rates, t, horizon))
        .collect()
}

proptest! {
    #[test]
    fn window_max_equals_naive(rates in arb_rates(), horizon in 1u64..500) {
        let table = LookaheadMaxTable::new(&rates, horizon);
        prop_assert_eq!(table.len(), rates.len());
        for t in (0..rates.len() as u64).step_by(17) {
            prop_assert_eq!(table.max_from(t), naive_lookahead_max(&rates, t, horizon));
        }
    }

    #[test]
    fn window_max_dominates_current(rates in arb_rates(), horizon in 1u64..500) {
        let table = LookaheadMaxTable::new(&rates, horizon);
        for (t, &r) in rates.iter().enumerate() {
            prop_assert!(table.max_from(t as u64) >= r);
        }
    }

    #[test]
    fn window_max_monotone_in_horizon(rates in arb_rates(), h1 in 1u64..200, h2 in 1u64..200) {
        let (lo, hi) = if h1 <= h2 { (h1, h2) } else { (h2, h1) };
        let small = LookaheadMaxTable::new(&rates, lo);
        let big = LookaheadMaxTable::new(&rates, hi);
        for t in (0..rates.len() as u64).step_by(23) {
            prop_assert!(big.max_from(t) >= small.max_from(t));
        }
    }

    #[test]
    fn plateau_window_max_equals_naive(rates in arb_plateaus(), horizon in 1u64..500) {
        let table = LookaheadMaxTable::new(&rates, horizon);
        prop_assert_eq!(table.len(), rates.len());
        for (t, &expected) in naive_maxima(&rates, horizon).iter().enumerate() {
            prop_assert_eq!(table.max_from(t as u64), expected, "t = {}", t);
        }
        prop_assert_eq!(table.max_from(rates.len() as u64), 0.0);
    }

    #[test]
    fn plateau_next_change_points_are_exact(rates in arb_plateaus(), horizon in 1u64..500) {
        // From every second, the reported point is the first second whose
        // value differs: it changes the value and no second before it does.
        let table = LookaheadMaxTable::new(&rates, horizon);
        let maxima = naive_maxima(&rates, horizon);
        let mut first_change = None;
        for t in (0..maxima.len()).rev() {
            if maxima.get(t + 1).is_some_and(|&next| next != maxima[t]) {
                first_change = Some(t as u64 + 1);
            }
            prop_assert_eq!(table.next_change(t as u64), first_change, "t = {}", t);
        }
        prop_assert_eq!(table.next_change(rates.len() as u64), None);
    }

    #[test]
    fn plateau_predictor_out_of_order_matches_naive(
        rates in arb_plateaus(),
        horizon in 1u64..500,
        probes in proptest::collection::vec(0u64..7_000, 0..200),
    ) {
        // Backward and random queries defeat the predictor's forward
        // cursor, so every answer comes through its fallback search.
        let trace = LoadTrace::new(0, rates.clone());
        let table = LookaheadMaxTable::new(&rates, horizon);
        let mut p = LookaheadMaxPredictor::new(&trace, horizon);
        let n = rates.len() as u64;
        for now in (0..n + 3).rev().chain(probes) {
            prop_assert_eq!(p.predict(now), naive_lookahead_max(&rates, now, horizon), "now = {}", now);
            prop_assert_eq!(p.next_change(now), table.next_change(now), "now = {}", now);
        }
    }

    #[test]
    fn plateau_predictors_sharing_a_table_answer_like_their_own(
        rates in arb_plateaus(),
        horizon in 1u64..500,
        probes in proptest::collection::vec(0u64..7_000, 0..200),
    ) {
        // Two predictors over one table, queried in turn: one walks
        // forward, the other backwards and then at random points. Each
        // must answer exactly like a predictor with a table of its own.
        let trace = LoadTrace::new(0, rates);
        let table = Arc::new(LookaheadMaxTable::new(&trace.rates, horizon));
        let mut shared = [
            LookaheadMaxPredictor::from_table(Arc::clone(&table)),
            LookaheadMaxPredictor::from_table(table),
        ];
        let mut own = [
            LookaheadMaxPredictor::new(&trace, horizon),
            LookaheadMaxPredictor::new(&trace, horizon),
        ];
        let n = trace.len();
        let queries: [Vec<u64>; 2] = [
            (0..n + 3).collect(),
            (0..n + 3).rev().chain(probes).collect(),
        ];
        for step in 0..queries[0].len().max(queries[1].len()) {
            for k in 0..2 {
                if let Some(&now) = queries[k].get(step) {
                    prop_assert_eq!(shared[k].predict(now), own[k].predict(now), "predictor {} now = {}", k, now);
                    prop_assert_eq!(shared[k].next_change(now), own[k].next_change(now), "predictor {} now = {}", k, now);
                }
            }
        }
    }

    #[test]
    fn daily_max_bounds_global_max(rates in arb_rates()) {
        let t = LoadTrace::new(0, rates);
        let dm = t.daily_max();
        let global = t.max();
        let dm_max = dm.iter().copied().fold(0.0, f64::max);
        prop_assert!((dm_max - global).abs() < 1e-9);
    }

    #[test]
    fn lookahead_predictor_never_underestimates_window(
        rates in proptest::collection::vec(0.0f64..5_000.0, 1..500),
        horizon in 1u64..100,
    ) {
        let t = LoadTrace::new(0, rates.clone());
        let mut p = LookaheadMaxPredictor::new(&t, horizon);
        for now in 0..rates.len() as u64 {
            let pred = p.predict(now);
            // Paper's QoS argument: prediction covers every load value
            // inside the look-ahead window.
            for dt in 0..horizon {
                let idx = (now + dt) as usize;
                if idx < rates.len() {
                    prop_assert!(pred >= rates[idx]);
                }
            }
        }
    }
}
