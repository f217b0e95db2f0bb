//! Load predictors (paper Sec. III "knowledge of how load evolves" and
//! Sec. V-C's emulated prediction mechanism).
//!
//! The paper emulates a *perfect* windowed prediction: "the maximum load
//! value over a window of 378 seconds" of the real future trace
//! ([`LookaheadMaxPredictor`]). The other predictors model the paper's
//! load-knowledge classes: [`LastValuePredictor`] (a purely reactive
//! system with unknown load), [`EwmaPredictor`] (partial knowledge,
//! smoothed), and [`NoisyPredictor`] which injects controlled error into
//! any base predictor — the paper's announced future work on "the impact
//! of load prediction errors".
//!
//! Every predictor bounds its constant runs through
//! [`Predictor::next_change`], which is what lets the engine's
//! event-driven loop run them all: the look-ahead maximum and last-value
//! report their exact change-points, EWMA reports every second.
//!
//! Noise injection is **counter-based**: the error factor of second `t`
//! is a pure function of `(seed, t / resample_s)` through the
//! [`bml_core::rng`] PRF, resampled once per `resample_s`-second window
//! rather than once per consulted second. A noisy wrapper is therefore
//! piecewise-constant with known change-points — its base's and the
//! resample points — and noisy runs skip seconds like clean ones.

use std::sync::Arc;

use crate::trace::LoadTrace;
use crate::window::LookaheadMaxTable;

/// A load predictor consulted by the scheduler once per decision step.
pub trait Predictor {
    /// Predicted load the infrastructure must be able to serve from `now`.
    fn predict(&mut self, now: u64) -> f64;

    /// A `t' > now` such that `predict` is constant over `[now, t')`, or
    /// `None` when the prediction holds for the rest of the trace. The
    /// event-driven engine next consults the predictor at `t'` (or at an
    /// earlier event), so a tight bound skips more seconds. Exact
    /// predictors report their change-points (`predict(t') !=
    /// predict(now)`); others may be conservative and report a boundary
    /// where the value happens not to change (e.g. a noise-resample point,
    /// or EWMA's next second) — callers may only rely on constancy
    /// *before* `t'`.
    fn next_change(&self, now: u64) -> Option<u64>;
}

/// The paper's emulated prediction: maximum of the *actual future* load
/// over a look-ahead window (378 s = 2x the longest switch-on duration in
/// the paper's hardware).
///
/// The windowed maxima live in an immutable [`LookaheadMaxTable`] behind
/// an [`Arc`], so any number of predictors — on any threads — can read
/// one table: the table is a function of the trace and the horizon
/// alone. Each predictor keeps its own cursor on the table run its last
/// query landed in, so a forward replay — per-second or event-driven —
/// finds each prediction and change-point in O(1) when it lands in the
/// cursor's run or the next one; other queries fall back to a binary
/// search. Predictors sharing a table never see each other's queries,
/// and `Clone` shares the table and copies the cursor.
#[derive(Debug, Clone)]
pub struct LookaheadMaxPredictor {
    table: Arc<LookaheadMaxTable>,
    /// Table run of the last [`Predictor::predict`] inside the trace.
    cursor: usize,
}

impl LookaheadMaxPredictor {
    /// Precompute the windowed maxima for `trace` (O(n)) into a table of
    /// this predictor's own.
    pub fn new(trace: &LoadTrace, horizon: u64) -> Self {
        Self::from_table(Arc::new(LookaheadMaxTable::new(&trace.rates, horizon)))
    }

    /// A predictor reading a table built once and shared, e.g. by every
    /// cell that replays the same trace with the same horizon.
    pub fn from_table(table: Arc<LookaheadMaxTable>) -> Self {
        LookaheadMaxPredictor { table, cursor: 0 }
    }

    /// The look-ahead horizon in seconds.
    pub fn horizon(&self) -> u64 {
        self.table.horizon()
    }
}

impl Predictor for LookaheadMaxPredictor {
    fn predict(&mut self, now: u64) -> f64 {
        if now as usize >= self.table.len() {
            return 0.0;
        }
        self.cursor = self.table.locate(now, self.cursor);
        self.table.run_value(self.cursor)
    }
    fn next_change(&self, now: u64) -> Option<u64> {
        self.table.next_change_near(now, self.cursor)
    }
}

/// Purely reactive baseline for the "unknown load" class: predicts the
/// last *observed* value (the load one step before `now`).
#[derive(Debug, Clone)]
pub struct LastValuePredictor {
    rates: Vec<f64>,
}

impl LastValuePredictor {
    /// Wrap a trace.
    pub fn new(trace: &LoadTrace) -> Self {
        LastValuePredictor {
            rates: trace.rates.clone(),
        }
    }

    /// The load of second `now - 1` (0 before and past the trace).
    fn last(&self, now: u64) -> f64 {
        match now.checked_sub(1) {
            Some(s) => self.rates.get(s as usize).copied().unwrap_or(0.0),
            None => 0.0,
        }
    }
}

impl Predictor for LastValuePredictor {
    fn predict(&mut self, now: u64) -> f64 {
        self.last(now)
    }
    /// Exact: the trace's constant-load runs, shifted one second later.
    fn next_change(&self, now: u64) -> Option<u64> {
        let value = self.last(now);
        let n = self.rates.len() as u64;
        if now < n {
            // The first second from `now` on whose load differs from the
            // current prediction; the prediction follows one second later.
            let differs = if self.rates[now as usize] != value {
                now
            } else {
                crate::segments::run_end(&self.rates, now)
            };
            if differs < n {
                return Some(differs + 1);
            }
        }
        // The trace holds `value` to its end; past it the prediction is 0.
        (value != 0.0).then_some(now.max(n) + 1)
    }
}

/// Exponentially weighted moving average over the observed past:
/// `state = alpha * observation + (1 - alpha) * state`.
///
/// Robust to non-consecutive queries (the scheduler skips steps while a
/// reconfiguration is in flight): all samples between the previous and the
/// current query are folded in.
#[derive(Debug, Clone)]
pub struct EwmaPredictor {
    rates: Vec<f64>,
    alpha: f64,
    state: f64,
    next_sample: u64,
}

impl EwmaPredictor {
    /// `alpha` in `(0, 1]`: weight of the newest observation.
    pub fn new(trace: &LoadTrace, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        EwmaPredictor {
            rates: trace.rates.clone(),
            alpha,
            state: 0.0,
            next_sample: 0,
        }
    }
}

impl Predictor for EwmaPredictor {
    fn predict(&mut self, now: u64) -> f64 {
        // Fold every observation up to and including `now`.
        let end = (now + 1).min(self.rates.len() as u64);
        while self.next_sample < end {
            let obs = self.rates[self.next_sample as usize];
            self.state = self.alpha * obs + (1.0 - self.alpha) * self.state;
            self.next_sample += 1;
        }
        self.state
    }
    /// Every observed second moves the average, so the prediction may
    /// change at the next second: the event-driven loop ticks every second
    /// for EWMA, exactly like the per-second loop.
    fn next_change(&self, now: u64) -> Option<u64> {
        Some(now + 1)
    }
}

/// Error-injection wrapper: multiplies the base prediction by `1 + e`
/// where `e ~ N(0, sigma)` truncated to `[-3 sigma, 3 sigma]`; results are
/// clamped at 0.
///
/// The error is **counter-based** and piecewise-constant: second `t`
/// belongs to resample window `t / resample_s`, and the window's gaussian
/// comes from the PRF stream `bml_core::rng::mix(seed, window)` — a pure
/// function of the seed and the window index, never of how often the
/// predictor was consulted. This keeps the paper's once-per-window
/// resampling semantics (the prediction mechanism re-estimates once per
/// look-ahead window, not per second): [`Predictor::next_change`] reports
/// the union of the inner predictor's change-points and the
/// noise-resample points, so the event-driven replay engine skips noisy
/// stretches exactly like clean ones. Deterministic given the seed, identical across stepping modes
/// and thread counts.
pub struct NoisyPredictor<P: Predictor> {
    inner: P,
    sigma: f64,
    seed: u64,
    resample_s: u64,
    /// `(window, factor)` of the last resample window drawn, so a replay
    /// draws each window's gaussian once instead of once per second.
    cached: Option<(u64, f64)>,
}

/// Default noise-resample window: the paper's 378 s look-ahead window
/// (2x the longest switch-on duration of the Table I hardware).
pub const DEFAULT_NOISE_RESAMPLE_S: u64 = 378;

impl<P: Predictor> NoisyPredictor<P> {
    /// Wrap `inner`, injecting relative gaussian error of std-dev `sigma`
    /// resampled once per [`DEFAULT_NOISE_RESAMPLE_S`]-second window.
    pub fn new(inner: P, sigma: f64, seed: u64) -> Self {
        Self::with_resample(inner, sigma, seed, DEFAULT_NOISE_RESAMPLE_S)
    }

    /// Wrap `inner` with an explicit resample window (clamped to `>= 1`;
    /// 1 draws a fresh error every second, like the historical
    /// sequential-RNG wrapper).
    pub fn with_resample(inner: P, sigma: f64, seed: u64, resample_s: u64) -> Self {
        assert!(sigma >= 0.0);
        NoisyPredictor {
            inner,
            sigma,
            seed,
            resample_s: resample_s.max(1),
            cached: None,
        }
    }

    /// The multiplicative error factor of the resample window covering
    /// `now` — a pure function of `(seed, now / resample_s)`, drawn once
    /// per window and then served from the cache.
    fn factor(&mut self, now: u64) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        let window = now / self.resample_s;
        if let Some((w, factor)) = self.cached {
            if w == window {
                return factor;
            }
        }
        let factor = 1.0
            + self.sigma * bml_core::rng::truncated_gaussian(bml_core::rng::mix(self.seed, window));
        self.cached = Some((window, factor));
        factor
    }
}

impl<P: Predictor> Predictor for NoisyPredictor<P> {
    fn predict(&mut self, now: u64) -> f64 {
        let base = self.inner.predict(now);
        (base * self.factor(now)).max(0.0)
    }
    fn next_change(&self, now: u64) -> Option<u64> {
        let inner = self.inner.next_change(now);
        if self.sigma == 0.0 {
            return inner; // transparent wrapper
        }
        // Inner change-points ∪ noise-resample points. Conservative by
        // design: the value may coincide across a boundary, but it is
        // guaranteed constant before it. A resample boundary is reported
        // even past the inner predictor's last change (the factor keeps
        // changing as long as the prediction is consulted).
        let resample = (now / self.resample_s + 1) * self.resample_s;
        Some(inner.map_or(resample, |i| i.min(resample)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> LoadTrace {
        LoadTrace::new(0, vec![10.0, 50.0, 20.0, 80.0, 5.0, 5.0])
    }

    #[test]
    fn lookahead_max_matches_window() {
        let t = trace();
        let mut p = LookaheadMaxPredictor::new(&t, 3);
        assert_eq!(p.predict(0), 50.0); // max(10,50,20)
        assert_eq!(p.predict(1), 80.0); // max(50,20,80)
        assert_eq!(p.predict(3), 80.0);
        assert_eq!(p.predict(4), 5.0);
        assert_eq!(p.predict(100), 0.0);
        assert_eq!(p.horizon(), 3);
    }

    #[test]
    fn lookahead_max_change_points_are_exact() {
        let t = trace();
        let mut p = LookaheadMaxPredictor::new(&t, 3);
        // Walk the change-points; between them the prediction is constant.
        let mut now = 0;
        while let Some(next) = p.next_change(now) {
            let v = p.predict(now);
            for s in now..next {
                assert_eq!(p.predict(s), v, "changed inside [{now}, {next})");
            }
            assert_ne!(p.predict(next), v, "no change at {next}");
            now = next;
        }
        assert!(now < t.len(), "last segment extends to the end");
    }

    #[test]
    fn last_value_change_points_are_exact() {
        // Zero and non-zero heads and tails, unit runs and plateaus.
        for rates in [
            vec![5.0, 5.0, 2.0, 2.0, 2.0],
            vec![0.0, 0.0, 3.0, 3.0, 0.0],
            vec![1.0, 2.0, 3.0],
            vec![0.0, 0.0],
            vec![],
        ] {
            let t = LoadTrace::new(0, rates.clone());
            let mut p = LastValuePredictor::new(&t);
            let end = t.len() + 3;
            for now in 0..end {
                let v = p.predict(now);
                let next = p.next_change(now);
                for s in now..next.unwrap_or(end).min(end) {
                    assert_eq!(p.predict(s), v, "{rates:?}: changed inside [{now}, {s}]");
                }
                if let Some(next) = next {
                    assert!(next > now);
                    assert_ne!(p.predict(next), v, "{rates:?}: no change at {next}");
                }
            }
        }
        let t = LoadTrace::new(0, vec![5.0, 5.0, 2.0, 2.0, 2.0]);
        let p = LastValuePredictor::new(&t);
        assert_eq!(p.next_change(0), Some(1)); // 0, then 5 from second 1
        assert_eq!(p.next_change(1), Some(3)); // 5 until the 2s arrive
        assert_eq!(p.next_change(3), Some(6)); // 2 until past the trace
        assert_eq!(p.next_change(6), None); // 0 forever
    }

    #[test]
    fn ewma_next_change_is_the_next_second() {
        let t = trace();
        let p = EwmaPredictor::new(&t, 0.5);
        assert_eq!(p.next_change(0), Some(1));
        assert_eq!(p.next_change(7), Some(8));
        // A noisy wrapper keeps the inner's every-second ticks.
        let noisy = NoisyPredictor::new(EwmaPredictor::new(&t, 0.5), 0.1, 1);
        assert_eq!(noisy.next_change(3), Some(4));
    }

    #[test]
    fn one_second_lookahead_is_the_current_load() {
        let t = trace();
        let mut p = LookaheadMaxPredictor::new(&t, 1);
        for (i, &r) in t.rates.iter().enumerate() {
            assert_eq!(p.predict(i as u64), r);
        }
        assert_eq!(p.predict(99), 0.0);
    }

    #[test]
    fn last_value_lags_by_one() {
        let t = trace();
        let mut p = LastValuePredictor::new(&t);
        assert_eq!(p.predict(0), 0.0);
        assert_eq!(p.predict(1), 10.0);
        assert_eq!(p.predict(4), 80.0);
    }

    #[test]
    fn ewma_converges_to_constant() {
        let t = LoadTrace::new(0, vec![100.0; 500]);
        let mut p = EwmaPredictor::new(&t, 0.05);
        let v = p.predict(499);
        assert!((v - 100.0).abs() < 1.0, "ewma {v}");
    }

    #[test]
    fn ewma_handles_skipped_steps() {
        let t = trace();
        let mut a = EwmaPredictor::new(&t, 0.5);
        let mut b = EwmaPredictor::new(&t, 0.5);
        // a queried every step, b only at the end: same folded state.
        let mut last = 0.0;
        for i in 0..6 {
            last = a.predict(i);
        }
        assert_eq!(b.predict(5), last);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = EwmaPredictor::new(&trace(), 0.0);
    }

    #[test]
    fn noisy_zero_sigma_is_transparent() {
        let t = trace();
        let mut p = NoisyPredictor::new(LookaheadMaxPredictor::new(&t, 1), 0.0, 1);
        assert_eq!(p.predict(3), 80.0);
    }

    #[test]
    fn noisy_is_deterministic_per_seed() {
        let t = trace();
        let mut p1 = NoisyPredictor::new(LookaheadMaxPredictor::new(&t, 1), 0.2, 42);
        let mut p2 = NoisyPredictor::new(LookaheadMaxPredictor::new(&t, 1), 0.2, 42);
        for i in 0..6 {
            assert_eq!(p1.predict(i), p2.predict(i));
        }
    }

    #[test]
    fn noisy_stays_nonnegative_and_bounded() {
        let t = LoadTrace::new(0, vec![100.0; 1000]);
        let mut p = NoisyPredictor::new(LookaheadMaxPredictor::new(&t, 1), 0.3, 7);
        for i in 0..1000 {
            let v = p.predict(i);
            assert!(v >= 0.0);
            // Truncated at 3 sigma: 100 * (1 ± 0.9).
            assert!(v <= 190.0 + 1e-9, "prediction {v}");
        }
    }

    #[test]
    fn noisy_error_distribution_sane() {
        let t = LoadTrace::new(0, vec![100.0; 5000]);
        // resample_s = 1 draws an i.i.d. error every second, so 5000
        // consultations are 5000 independent samples.
        let mut p = NoisyPredictor::with_resample(LookaheadMaxPredictor::new(&t, 1), 0.1, 9, 1);
        let preds: Vec<f64> = (0..5000).map(|i| p.predict(i)).collect();
        let mean = preds.iter().sum::<f64>() / preds.len() as f64;
        assert!((mean - 100.0).abs() < 2.0, "mean {mean}");
        let var = preds.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / preds.len() as f64;
        let sd = var.sqrt();
        assert!((sd - 10.0).abs() < 2.0, "sd {sd}");
    }

    #[test]
    fn noisy_factor_is_constant_within_a_resample_window() {
        let t = LoadTrace::new(0, vec![100.0; 2000]);
        let mut p = NoisyPredictor::with_resample(LookaheadMaxPredictor::new(&t, 1), 0.2, 11, 378);
        let mut distinct = 0u32;
        let mut prev = f64::NAN;
        for w in 0..5u64 {
            let first = p.predict(w * 378);
            for off in 1..378 {
                assert_eq!(p.predict(w * 378 + off), first, "window {w} offset {off}");
            }
            if first != prev {
                distinct += 1;
            }
            prev = first;
        }
        assert!(
            distinct >= 4,
            "windows should resample: {distinct} distinct"
        );
    }

    #[test]
    fn noisy_is_a_pure_function_of_time() {
        // Counter-based: querying out of order, twice, or skipping ahead
        // never changes any sample — the property the event-driven engine
        // relies on to skip seconds.
        let t = LoadTrace::new(0, vec![100.0; 2000]);
        let mut fwd = NoisyPredictor::with_resample(LookaheadMaxPredictor::new(&t, 1), 0.2, 3, 10);
        let mut rev = NoisyPredictor::with_resample(LookaheadMaxPredictor::new(&t, 1), 0.2, 3, 10);
        let forward: Vec<f64> = (0..2000).map(|i| fwd.predict(i)).collect();
        for i in (0..2000u64).rev() {
            assert_eq!(rev.predict(i), forward[i as usize]);
        }
    }

    #[test]
    fn noisy_next_change_unions_inner_and_resample_points() {
        let t = trace(); // raw runs change at every second up to 4, then constant
        let inner = LookaheadMaxPredictor::new(&t, 1);
        let p = NoisyPredictor::with_resample(inner, 0.2, 1, 4);
        // Inner change at 1 beats the resample boundary at 4.
        assert_eq!(p.next_change(0), Some(1));
        // The inner prediction holds to the end of the trace: the
        // resample boundary at 8 is next.
        assert_eq!(p.next_change(4), Some(8));
        // Past the trace the inner is exhausted (None) but the resample
        // boundaries keep coming.
        assert_eq!(p.next_change(9), Some(12));
        // sigma = 0 is transparent: inner change-points only.
        let clean = NoisyPredictor::with_resample(LookaheadMaxPredictor::new(&t, 1), 0.0, 1, 4);
        assert_eq!(clean.next_change(9), None);
    }
}
