//! Property-based tests for traces, windows and predictors.

use bml_trace::predictor::{LookaheadMaxPredictor, Predictor};
use bml_trace::trace::LoadTrace;
use bml_trace::window::{naive_lookahead_max, LookaheadMaxTable};
use proptest::prelude::*;

fn arb_rates() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..10_000.0, 0..2_000)
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
