//! Counter-based (stateless) random sampling shared by the whole
//! workspace.
//!
//! Sequential RNGs (`StdRng` drawn once per simulated second) force any
//! stochastic run onto the per-second reference engine: skipping a second
//! would skip a draw and change every sample after it. The samplers here
//! are **pure functions of a seed and a counter** — `sample(t)` never
//! depends on how many samples were drawn before `t` — so noisy
//! predictions and failure injection become piecewise-segmentable and the
//! event-driven replay engine can jump over them.
//!
//! # Keying scheme (stable across refactors)
//!
//! Everything derives from [`splitmix64`] (Steele, Lea & Flood 2014) via
//! [`mix`]:
//!
//! * grid cell seeds: `splitmix64(root_seed ^ splitmix64(scenario_index))`
//!   = `mix(root_seed, scenario_index)` (unchanged from bml-grid/v1);
//! * prediction noise: the error factor of resample window `w` draws its
//!   gaussian from stream `mix(seed, w)`;
//! * failure injection: inter-failure gap `i` of machine slot `j` of
//!   architecture `k` draws from stream `mix(mix(mix(seed, k), j), i)`.
//!
//! Given the same seed, every sample is reproducible forever — across
//! thread counts, stepping modes, and refactors of the call sites. Tests
//! pin [`splitmix64`] to the published reference vector; change nothing
//! here without bumping every artifact schema that embeds seeds.

/// Version tag of the keying scheme documented above. Content-addressed
/// caches (bml-grid's cell cache) fold this into their keys: any change
/// to the derivations — a new mixing function, different counter
/// nesting, a resample-boundary change — must bump it so cached results
/// computed under the old scheme are invalidated instead of replayed.
pub const KEYING_VERSION: &str = "bml-rng/v1";

/// The splitmix64 mixing function (Steele, Lea & Flood 2014): the
/// standard way to expand one root seed into a stream of decorrelated
/// values. Pure, so derived seeds never depend on execution order or
/// thread count.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Key a seed with one counter: `splitmix64(seed ^ splitmix64(counter))`.
///
/// This is the PRF every counter-based sampler is built from; chain it
/// (`mix(mix(seed, a), b)`) to key on multiple counters. The same
/// construction derives bml-grid's per-cell seeds, so one root seed
/// reaches every sample of every cell through pure mixing.
pub fn mix(seed: u64, counter: u64) -> u64 {
    splitmix64(seed ^ splitmix64(counter))
}

/// Map a mixed word to a uniform `f64` in `[0, 1)`: the top 53 bits over
/// 2^53, the densest dyadic grid an `f64` resolves exactly.
pub fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}

/// The Box-Muller transform: one standard-normal sample from two
/// uniforms, `u1` in `(0, 1]` and `u2` in `[0, 1)`. The workspace's one
/// copy; each sampler draws its own uniforms and applies its own clamp.
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// One standard-normal sample from stream `key`, truncated to
/// `[-3, 3]` — the same Box-Muller + 3-sigma truncation the sequential
/// `NoisyPredictor` used, now a pure function of its key.
pub fn truncated_gaussian(key: u64) -> f64 {
    let u1 = unit_f64(mix(key, 0)).max(f64::EPSILON); // ln(0) guard
    let u2 = unit_f64(mix(key, 1));
    box_muller(u1, u2).clamp(-3.0, 3.0)
}

/// One geometric inter-event gap (in whole trials, `>= 1`) for a
/// per-trial success probability `p`, inverted from the uniform sample of
/// stream `key`: the number of independent Bernoulli(p) trials up to and
/// including the first success. `p >= 1` always returns 1; callers must
/// not ask for `p <= 0` (no event ever — there is no finite gap).
pub fn geometric_gap(p: f64, key: u64) -> u64 {
    debug_assert!(p > 0.0, "geometric_gap needs a positive success rate");
    if p >= 1.0 {
        return 1;
    }
    let u = unit_f64(mix(key, 0));
    // Inverse CDF: smallest g >= 1 with 1 - (1-p)^g >= u.
    let g = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
    // u in [0, 1) keeps g finite; the +1 makes g=0 (u below p) a 1-gap.
    g as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference values from the canonical splitmix64 (seed 1234567).
        assert_eq!(splitmix64(1234567), 6457827717110365317);
        assert_eq!(splitmix64(0), 16294208416658607535);
    }

    #[test]
    fn mix_matches_grid_seed_derivation() {
        // bml-grid has always derived cell seeds exactly this way; `mix`
        // must stay byte-compatible with existing artifacts.
        assert_eq!(mix(1998, 3), splitmix64(1998 ^ splitmix64(3)));
    }

    #[test]
    fn unit_is_in_range_and_spread() {
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for i in 0..10_000u64 {
            let u = unit_f64(mix(42, i));
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor coverage: [{lo}, {hi}]");
    }

    #[test]
    fn gaussian_is_truncated_standard_normal() {
        let n = 20_000u64;
        let samples: Vec<f64> = (0..n).map(|i| truncated_gaussian(mix(7, i))).collect();
        assert!(samples.iter().all(|z| (-3.0..=3.0).contains(z)));
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|z| (z - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var.sqrt() - 1.0).abs() < 0.05, "sd {}", var.sqrt());
    }

    #[test]
    fn gaussian_is_a_pure_function_of_its_key() {
        assert_eq!(truncated_gaussian(123), truncated_gaussian(123));
        assert_ne!(truncated_gaussian(123), truncated_gaussian(124));
    }

    #[test]
    fn geometric_gap_mean_inverts_rate() {
        let p = 0.01;
        let n = 50_000u64;
        let total: u64 = (0..n).map(|i| geometric_gap(p, mix(9, i))).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - 1.0 / p).abs() < 5.0,
            "mean gap {mean} vs {}",
            1.0 / p
        );
    }

    #[test]
    fn geometric_gap_edges() {
        assert_eq!(geometric_gap(1.0, 5), 1);
        assert_eq!(geometric_gap(2.0, 5), 1);
        for i in 0..1_000 {
            assert!(geometric_gap(0.9999, mix(1, i)) >= 1);
        }
    }
}
