//! Named trace-source registry.
//!
//! Experiment grids (`bml-grid`) name their trace sources declaratively —
//! `"worldcup"`, `"diurnal"`, `"random-walk"` — instead of hard-coding a
//! generator call per experiment. This registry maps a source name plus
//! the two knobs every source shares (`days`, `seed`) to a concrete
//! [`LoadTrace`]. All sources are deterministic given `(name, days, seed)`.
//!
//! | name                   | shape                                              |
//! |------------------------|----------------------------------------------------|
//! | `worldcup`             | the paper's WC98-like trace, days 6.. (quiet lead-in for short spans) |
//! | `worldcup-tournament`  | WC98-like with the tournament pulled into the span (the ablation binaries' default) |
//! | `diurnal`              | clean diurnal sinusoid, 10..2000 req/s, trough 4 am |
//! | `flash-crowd`          | baseline 50 req/s with one mid-run spike to 3000    |
//! | `square-bursts`        | 20 req/s with 10-minute hourly plateaus at 1500     |
//! | `random-walk`          | bounded random walk in 5..2500 req/s (seeded)       |
//! | `constant`             | flat 300 req/s                                      |

use crate::synthetic;
use crate::trace::LoadTrace;
use crate::worldcup::{generate as wc_generate, WorldCupParams};

/// Every registered source name, in registry order.
pub const NAMES: [&str; 7] = [
    "worldcup",
    "worldcup-tournament",
    "diurnal",
    "flash-crowd",
    "square-bursts",
    "random-walk",
    "constant",
];

/// WC98-like params with the tournament pulled into a short span: the
/// trace the ablation binaries sweep over for `--days` runs.
fn tournament_params(days: u32, seed: u64) -> WorldCupParams {
    WorldCupParams {
        seed,
        n_days: days,
        tournament_start: 8,
        final_day: 6 + days.saturating_sub(2),
        ..Default::default()
    }
}

/// Generate the named trace source over `days` days with `seed`.
///
/// Returns `None` for unknown names (callers turn that into a spec
/// validation error listing [`NAMES`]). `days` is clamped to at least 1 —
/// every source yields a non-empty trace; callers that must distinguish
/// "zero days requested" (e.g. `bml-grid` spec validation) reject 0
/// before calling.
pub fn generate(name: &str, days: u32, seed: u64) -> Option<LoadTrace> {
    let days = days.max(1);
    let seconds = u64::from(days) * crate::trace::SECONDS_PER_DAY;
    Some(match name {
        "worldcup" => wc_generate(&WorldCupParams {
            seed,
            n_days: days,
            ..Default::default()
        }),
        "worldcup-tournament" => wc_generate(&tournament_params(days, seed)),
        "diurnal" => synthetic::diurnal(10.0, 2_000.0, 4.0, days),
        "flash-crowd" => synthetic::flash_crowd(50.0, 3_000.0, seconds / 2, 120, 1_800.0, seconds),
        "square-bursts" => synthetic::square_bursts(20.0, 1_500.0, 3_600, 600, seconds),
        "random-walk" => synthetic::random_walk(5.0, 2_500.0, 10.0, seconds, seed),
        "constant" => synthetic::constant(300.0, seconds),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_generates() {
        for name in NAMES {
            let t = generate(name, 1, 7).unwrap_or_else(|| panic!("{name} not generated"));
            assert_eq!(t.len(), crate::trace::SECONDS_PER_DAY, "{name}");
            assert!(t.max() > 0.0, "{name} is all-zero");
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(generate("no-such-source", 1, 0).is_none());
    }

    #[test]
    fn generation_is_deterministic() {
        for name in NAMES {
            let a = generate(name, 1, 42).unwrap();
            let b = generate(name, 1, 42).unwrap();
            assert_eq!(a, b, "{name} not deterministic");
        }
    }

    #[test]
    fn seed_changes_seeded_sources() {
        for name in ["worldcup", "worldcup-tournament", "random-walk"] {
            let a = generate(name, 1, 1).unwrap();
            let b = generate(name, 1, 2).unwrap();
            assert_ne!(a, b, "{name} ignored the seed");
        }
    }

    #[test]
    fn tournament_variant_is_busier_than_lead_in() {
        let plain = generate("worldcup", 3, 1998).unwrap();
        let tour = generate("worldcup-tournament", 3, 1998).unwrap();
        assert!(tour.max() > plain.max() * 2.0, "tournament not pulled in");
    }

    #[test]
    fn zero_days_clamps_to_one() {
        let t = generate("constant", 0, 0).unwrap();
        assert_eq!(t.len(), crate::trace::SECONDS_PER_DAY);
    }
}
