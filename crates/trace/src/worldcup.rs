//! Synthetic 1998 World Cup-like workload (paper Sec. V-C substitute).
//!
//! The paper replays days 6-92 of the public 1998 World Cup web trace.
//! That trace is distributed as ~30 GB of binary HTTP logs which cannot be
//! shipped here, so this module generates a load trace that reproduces its
//! *structure*, which is what the Fig. 5 comparison actually exercises:
//!
//! * 87 days with a quiet pre-tournament lead-in,
//! * a pronounced diurnal cycle with deep night troughs,
//! * match-day flash crowds (kick-off bumps at 14:30 / 17:30 / 21:00 CET)
//!   growing steadily through the group stage and knock-out rounds,
//! * the global peak on the final's day, sized so a homogeneous data
//!   center needs **4 Big (Paravance) machines** — matching the paper's
//!   `UpperBound Global` dimensioning,
//! * a sharp post-final decay.
//!
//! Generation is deterministic given the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::LoadTrace;

/// Parameters of the World-Cup-like generator.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldCupParams {
    /// RNG seed; the default (1998) is used by all shipped experiments.
    pub seed: u64,
    /// Label of the first generated day (paper: 6).
    pub first_day: u32,
    /// Number of days (paper: 87, i.e. days 6..=92).
    pub n_days: u32,
    /// Global peak rate, reached on the final's day. The default (5200
    /// req/s) requires `ceil(5200 / 1331) = 4` Paravance machines.
    pub peak_rate: f64,
    /// Typical daily peak before the tournament starts.
    pub pre_tournament_peak: f64,
    /// Fraction of the daily peak remaining in the deepest night trough.
    pub night_fraction: f64,
    /// Absolute day on which the tournament (group stage) starts.
    pub tournament_start: u32,
    /// Absolute day of the final (global peak).
    pub final_day: u32,
    /// Multiplicative noise amplitude (uniform in `[-noise, +noise]`).
    pub noise: f64,
    /// Strength of the per-second arrival (Poisson-like) noise: the
    /// sampled rate is `rate + poisson_noise * sqrt(rate) * N(0,1)`.
    /// Real request traces have exactly this shot noise — at 5 req/s the
    /// per-second count fluctuates by ~45% — and it is what makes the
    /// paper's windowed-max prediction over-provision at night.
    pub poisson_noise: f64,
    /// Mean number of minute-scale burst events per day (news flashes,
    /// replays, linked articles); more frequent on match days.
    pub bursts_per_day: f64,
    /// Largest burst amplitude (multiplier on the base load).
    pub burst_max_amplitude: f64,
}

impl Default for WorldCupParams {
    fn default() -> Self {
        WorldCupParams {
            seed: 1998,
            first_day: 6,
            n_days: 87,
            peak_rate: 5200.0,
            pre_tournament_peak: 220.0,
            night_fraction: 0.06,
            tournament_start: 40,
            final_day: 89,
            noise: 0.04,
            poisson_noise: 4.0,
            bursts_per_day: 5.0,
            burst_max_amplitude: 2.6,
        }
    }
}

impl WorldCupParams {
    /// Is `day` (absolute label) a match day under this parameterization?
    ///
    /// Group stage (first 16 tournament days): matches every day.
    /// Knock-out rounds: matches every other day up to the final.
    pub fn is_match_day(&self, day: u32) -> bool {
        if day < self.tournament_start || day > self.final_day {
            return false;
        }
        let dt = day - self.tournament_start;
        if dt < 16 {
            true
        } else {
            (day - self.tournament_start).is_multiple_of(2) || day == self.final_day
        }
    }

    /// The target peak load of `day` (absolute label), before noise.
    pub fn daily_peak(&self, day: u32) -> f64 {
        if day > self.final_day {
            // Post-final decay: 35% of the pre-final level, halving daily.
            let dt = (day - self.final_day) as f64;
            return (self.peak_rate * 0.35 * 0.5f64.powf(dt - 1.0)).max(self.pre_tournament_peak);
        }
        if day < self.tournament_start {
            // Pre-tournament: slow linear build-up of interest.
            let span = (self.tournament_start - self.first_day).max(1) as f64;
            let frac = (day.saturating_sub(self.first_day)) as f64 / span;
            return self.pre_tournament_peak * (0.4 + 0.6 * frac);
        }
        // Tournament: exponential growth from the opening level to the
        // final's peak.
        let opening = self.pre_tournament_peak * 4.0;
        let span = (self.final_day - self.tournament_start).max(1) as f64;
        let frac = (day - self.tournament_start) as f64 / span;
        let level = opening * (self.peak_rate / opening).powf(frac);
        if self.is_match_day(day) {
            level
        } else {
            level * 0.45 // rest days: interest but no kick-off crowds
        }
    }
}

/// Gaussian bump helper: `exp(-(x/sigma)^2 / 2)`.
fn bump(dist_s: f64, sigma_s: f64) -> f64 {
    (-0.5 * (dist_s / sigma_s).powi(2)).exp()
}

/// One standard gaussian sample (Box-Muller, clamped to 4 sigma).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    bml_core::rng::box_muller(u1, u2).clamp(-4.0, 4.0)
}

/// A minute-scale burst event: gaussian-shaped multiplicative surge.
struct Burst {
    center_s: f64,
    sigma_s: f64,
    /// Extra amplitude at the center (multiplier is `1 + extra`).
    extra: f64,
}

impl Burst {
    /// The multiplier at second `s`: exactly `1.0`, without calling
    /// `exp`, more than 40 sigma from the center. There the bump's
    /// exponent is below -800, and any `exp` that returns 0 below -745
    /// (where `f64` underflows) gives exactly `0.0`, so the skip changes
    /// no bit (ROADMAP item 6 replaces the platform `exp`; the skip holds
    /// for any such replacement).
    fn multiplier(&self, s: f64) -> f64 {
        let d = s - self.center_s;
        if d.abs() > 40.0 * self.sigma_s {
            return 1.0;
        }
        1.0 + self.extra * bump(d, self.sigma_s)
    }
}

/// Draw the burst schedule of one day.
fn day_bursts(params: &WorldCupParams, match_day: bool, rng: &mut StdRng) -> Vec<Burst> {
    let mean = params.bursts_per_day * if match_day { 1.5 } else { 1.0 };
    let n = (mean + gaussian(rng) * mean.sqrt()).round().max(0.0) as usize;
    (0..n)
        .map(|_| Burst {
            // Bursts cluster in waking hours (8h-24h).
            center_s: rng.gen_range(8.0 * 3_600.0..24.0 * 3_600.0),
            sigma_s: rng.gen_range(45.0..400.0),
            extra: rng.gen_range(0.2..params.burst_max_amplitude - 1.0),
        })
        .collect()
}

/// The pre-noise level of every second of a day (the diurnal cycle, plus
/// the three kick-off crowds on a match day), as a fraction of the day's
/// peak. It depends only on the second of day and the day kind.
fn day_levels(params: &WorldCupParams, match_day: bool) -> Vec<f64> {
    // Kick-off times (seconds since midnight): 14:30, 17:30, 21:00.
    const KICKOFFS: [f64; 3] = [14.5 * 3_600.0, 17.5 * 3_600.0, 21.0 * 3_600.0];
    const MATCH_SIGMA: f64 = 2_700.0; // 45 min crowd build-up/drain
    (0..86_400u64)
        .map(|s| {
            let hour = s as f64 / 3_600.0;
            // Diurnal base: trough at 4 am, crest at 4 pm.
            let phase = (hour - 4.0) / 24.0 * std::f64::consts::TAU;
            let diurnal = 0.5 - 0.5 * phase.cos(); // 0 at 4 am, 1 at 4 pm
            let base_level = params.night_fraction + (1.0 - params.night_fraction) * diurnal;
            // Non-match share of the day's traffic.
            let mut level = base_level * if match_day { 0.45 } else { 1.0 };
            if match_day {
                // Kick-off crowds; the evening match draws the full peak.
                let weights = [0.55, 0.7, 1.0];
                for (k, &t0) in KICKOFFS.iter().enumerate() {
                    level +=
                        weights[k] * (1.0 - 0.45 * base_level) * bump(s as f64 - t0, MATCH_SIGMA);
                }
            }
            level
        })
        .collect()
}

/// Generate the trace.
///
/// The pre-noise level of a second (the diurnal cycle, plus the kick-off
/// crowds on a match day) is tabulated once per day kind, match day or
/// not, on the first day of that kind; the tables go when this returns.
/// The RNG draws keep their order: per day the burst schedule, then per
/// second the jitter and the shot noise.
pub fn generate(params: &WorldCupParams) -> LoadTrace {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let n = params.n_days as usize * 86_400;
    let mut rates = Vec::with_capacity(n);
    // Indexed by `match_day`.
    let mut levels: [Option<Vec<f64>>; 2] = [None, None];

    for di in 0..params.n_days {
        let day = params.first_day + di;
        let peak = params.daily_peak(day);
        let match_day = params.is_match_day(day);
        let bursts = day_bursts(params, match_day, &mut rng);
        let day_levels =
            levels[usize::from(match_day)].get_or_insert_with(|| day_levels(params, match_day));
        for (s, &level) in day_levels.iter().enumerate() {
            let jitter: f64 = rng.gen_range(-params.noise..=params.noise);
            let mut rate = peak * level * (1.0 + jitter);
            // Minute-scale surges.
            for b in &bursts {
                rate *= b.multiplier(s as f64);
            }
            // Per-second arrival shot noise (Poisson-like): dominant in
            // relative terms at night, negligible at the match peaks.
            rate += params.poisson_noise * rate.max(0.0).sqrt() * gaussian(&mut rng);
            rates.push(rate.clamp(0.0, params.peak_rate).round());
        }
    }
    LoadTrace::new(params.first_day, rates)
}

/// A reduced version (fewer days) for fast tests: same structure, same
/// relative day labels.
pub fn short_trace(n_days: u32) -> LoadTrace {
    generate(&WorldCupParams {
        n_days,
        ..WorldCupParams::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions() {
        let p = WorldCupParams::default();
        assert_eq!(p.first_day, 6);
        assert_eq!(p.n_days, 87);
        // Days 6..=92 inclusive.
        assert_eq!(p.first_day + p.n_days - 1, 92);
    }

    #[test]
    fn determinism() {
        let a = short_trace(3);
        let b = short_trace(3);
        assert_eq!(a, b);
    }

    #[test]
    fn peak_needs_exactly_four_bigs() {
        // Generate only the final's day for speed.
        let p = WorldCupParams::default();
        let all = generate(&WorldCupParams {
            first_day: p.final_day,
            n_days: 1,
            tournament_start: p.tournament_start,
            final_day: p.final_day,
            ..p
        });
        let max = all.max();
        assert!(max > 3.0 * 1331.0, "peak {max} should need > 3 Bigs");
        assert!(max <= 4.0 * 1331.0, "peak {max} must fit in 4 Bigs");
    }

    #[test]
    fn pre_tournament_days_are_quiet() {
        let t = short_trace(5); // days 6..=10, all pre-tournament
                                // Base peaks stay near `pre_tournament_peak`; bursts and shot
                                // noise can push single seconds a couple of multiples higher, but
                                // nowhere near tournament scale (thousands of req/s).
        assert!(t.max() < 1_000.0, "pre-tournament peak {}", t.max());
        assert!(t.max() > 30.0);
        assert!(t.mean() < 150.0, "pre-tournament mean {}", t.mean());
    }

    #[test]
    fn diurnal_troughs_are_deep() {
        let t = short_trace(2);
        // Night (4 am) load far below the day's peak.
        let night = t.get(4 * 3_600);
        let day_max = t.day(0).iter().copied().fold(0.0, f64::max);
        assert!(night < day_max * 0.25, "night {night} vs peak {day_max}");
    }

    #[test]
    fn daily_peaks_grow_through_tournament() {
        let p = WorldCupParams::default();
        let start = p.daily_peak(p.tournament_start);
        let mid = p.daily_peak(p.tournament_start + 10);
        let end = p.daily_peak(p.final_day);
        assert!(start < mid && mid < end);
        assert_eq!(end, p.peak_rate);
    }

    #[test]
    fn post_final_decay() {
        let p = WorldCupParams {
            final_day: 89,
            ..Default::default()
        };
        assert!(p.daily_peak(90) < p.daily_peak(89) * 0.5);
        assert!(p.daily_peak(92) < p.daily_peak(90));
    }

    #[test]
    fn match_day_schedule() {
        let p = WorldCupParams::default();
        assert!(!p.is_match_day(10)); // pre-tournament
        assert!(p.is_match_day(p.tournament_start)); // opening match
        assert!(p.is_match_day(p.tournament_start + 5)); // group stage daily
        assert!(p.is_match_day(p.final_day));
        assert!(!p.is_match_day(p.final_day + 1));
    }

    #[test]
    fn match_day_kickoff_bump_visible() {
        // Compare 21:00 vs 12:00 on the final's day: kick-off crowd must
        // dominate.
        let p = WorldCupParams::default();
        let t = generate(&WorldCupParams {
            first_day: p.final_day,
            n_days: 1,
            ..p
        });
        let noon = t.get(12 * 3_600);
        let kickoff = t.get(21 * 3_600);
        assert!(kickoff > noon * 1.5, "kickoff {kickoff} vs noon {noon}");
    }

    #[test]
    fn rates_are_rounded_nonnegative() {
        let t = short_trace(1);
        for &r in &t.rates {
            assert!(r >= 0.0);
            assert_eq!(r, r.round());
        }
    }

    #[test]
    fn full_trace_has_87_days() {
        // Only generated once here (slow-ish); keep assertions together.
        let t = generate(&WorldCupParams::default());
        assert_eq!(t.n_days(), 87);
        assert_eq!(t.len(), 87 * 86_400);
        let dm = t.daily_max();
        // Pre-tournament days need a single Big at most...
        assert!(dm[0] < 1331.0);
        // ...while the final week needs several.
        let final_idx = (WorldCupParams::default().final_day - 6) as usize;
        assert!(dm[final_idx] > 3.0 * 1331.0);
        // The global maximum fits the 4-Big dimensioning.
        assert!(t.max() <= 4.0 * 1331.0);
    }
}
