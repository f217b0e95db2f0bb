//! Golden pins on the workspace's sampled inputs: every registry trace,
//! the counter-based gaussian, and the measured Table I profiles.
//!
//! The samplers and trace generators call the platform's `ln`, `cos`,
//! `exp` and `powf`, which are not correctly rounded and may differ
//! between libm versions. A drift there moves every cache key and every
//! artifact without failing anything else, so these tests pin the exact
//! bits, one line per pinned value, in the format the tests render.

use bml::core::rng::{mix, truncated_gaussian};
use bml::grid::cache::trace_digest;
use bml::profiler::{paper_machines, profile_park, BenchmarkConfig, ProfilerConfig};
use bml::trace::registry;

/// `bml_grid::cache::trace_digest` of every registry source at 2 days and
/// seed 1998. At 1 day `worldcup` and `worldcup-tournament` generate the
/// same trace, so 2 days tell them apart.
const TRACE_DIGESTS: &str = "\
worldcup ef38c699e61f723fb24230a50dde849e
worldcup-tournament 0ad5a91c6bfcff077087eca299ec5022
diurnal 68d2a6c38bbc07d93adc081a668caf58
flash-crowd 4c269f8821b61b577bd83e9604c4953a
square-bursts 083eee22dd957b7d0615567e91eb23e4
random-walk 258f6bb5131bac12e649e7fb053b75fb
constant da93edea9390fb7df90096afdf0293e4
";

/// Bits of `truncated_gaussian(mix(7, i))` for `i` in `0..8`.
const GAUSSIAN_BITS: &str = "\
bfed99e9e5076023 3fd2266949a07120 bfdc4c6fe48d3297 3fc8da0cfde0213d
bfc89099e8dab591 bfb9a751e6d28c63 bfaf68bc988e2b16 bfc4a7e5db38c1b7
";

/// `profile_park(paper_machines())` at benchmark seed 1998, one line per
/// machine: its name, then the bits of `idle_power`, `max_power`,
/// `max_perf`, `on_duration`, `on_energy`, `off_duration` and
/// `off_energy`.
const TABLE1_PROFILES: &str = "\
paravance 40517fffffffffff 406908cf87d9c54b 4094cc0000000000 4067a00000000000 40d4d3ccccccccc9 4024000000000000 40847b3333333334
taurus 4057fae147ae147c 406bf3ece2a53490 408af00000000000 4064800000000000 40d4219fffffffff 4026000000000000 40924e0000000000
graphene 4047e22222222222 405ee7b900aec33e 4071000000000000 4051c00000000000 40b34b0000000000 4030000000000000 4087c4cccccccccd
chromebook 401006d3a06d3a06 401e63ab596de8c6 4040800000000000 4028000000000000 404899999999999b 4035000000000000 4053533333333334
raspberry 4008d3a06d3a06d2 400d99999999999d 4022000000000000 4030000000000000 4044333333333333 402c000000000000 40420cccccccccce
";

/// `values` as hex bit patterns, `per_line` to a line.
fn hex_lines(values: &[f64], per_line: usize) -> String {
    values
        .chunks(per_line)
        .map(|line| {
            let words: Vec<String> = line
                .iter()
                .map(|v| format!("{:016x}", v.to_bits()))
                .collect();
            words.join(" ") + "\n"
        })
        .collect()
}

#[test]
fn registry_trace_digests_are_pinned() {
    let actual: String = registry::NAMES
        .iter()
        .map(|&name| {
            let trace = registry::generate(name, 2, 1998).expect("registered source");
            format!("{name} {}\n", trace_digest(&trace))
        })
        .collect();
    assert_eq!(actual, TRACE_DIGESTS);
}

#[test]
fn gaussian_draws_are_pinned() {
    let draws: Vec<f64> = (0..8).map(|i| truncated_gaussian(mix(7, i))).collect();
    assert_eq!(hex_lines(&draws, 4), GAUSSIAN_BITS);
}

#[test]
fn measured_table1_profiles_are_pinned() {
    let cfg = ProfilerConfig {
        benchmark: BenchmarkConfig {
            seed: 1998,
            ..BenchmarkConfig::default()
        },
        round_max_perf: true,
    };
    let actual: String = profile_park(&paper_machines(), &cfg)
        .iter()
        .map(|p| {
            let fields = [
                p.idle_power,
                p.max_power,
                p.max_perf,
                p.on_duration,
                p.on_energy,
                p.off_duration,
                p.off_energy,
            ];
            format!("{} {}", p.name, hex_lines(&fields, fields.len()))
        })
        .collect();
    assert_eq!(actual, TABLE1_PROFILES);
}
