//! Content-addressed cell result cache.
//!
//! Re-running a grid after editing one dimension re-executes every cell,
//! even though most of the cross-product is untouched — at 10k+ cells
//! that dominates iteration time. This cache makes repeated cells free:
//! each cell result is stored under a key that hashes **everything the
//! result depends on and nothing it doesn't**.
//!
//! # What is in a key
//!
//! * [`CACHE_FORMAT`] — the entry encoding itself;
//! * [`bml_core::rng::KEYING_VERSION`] — the seed/counter derivation
//!   scheme (a keying change replays different noise from the same seed);
//! * [`crate::artifact::SCHEMA`] — the artifact schema the summary feeds;
//! * the **trace digest** — first day, length, and the exact `f64` bits
//!   of every rate sample, so regenerating a trace differently misses;
//! * the **catalog digest** — the `Debug` rendering of the resolved
//!   infrastructure's candidate profiles, which covers every Table I
//!   constant (idle/max power, boot/shutdown durations and energies,
//!   capacity): editing a constant in `bml_core::catalog` invalidates
//!   every dependent entry by construction;
//! * [`bml_sim::exec::CellConfig::stable_descriptor`] — scheduler,
//!   window, noise sigma and seed, split, stepping, and the rest of the
//!   cell's knobs.
//!
//! Deliberately **not** in a key: thread counts, hostnames, wall-clock
//! time, cache paths. A cell computes the same bytes everywhere, so a
//! warm cache must hit across `--threads` settings and machines.
//!
//! Entries store the [`CellSummary`] *without* its optimality fields:
//! optima are solved per `(trace, catalog, split)` — cached separately
//! under [`opt_key`] — and stamped onto records after load, so a cell
//! loaded warm is byte-identical to one computed cold.
//!
//! # Robustness
//!
//! A corrupt, truncated, or foreign-format entry decodes to `None` and
//! the cell is recomputed (and the entry rewritten); the cache can never
//! turn disk rot into a panic or a wrong artifact. Writes go through a
//! temp file + atomic rename, so a killed run leaves no half-written
//! entries behind. Nothing is synced to disk, so an OS crash or power
//! loss can still lose or empty an entry; it then decodes as a miss.

use std::io;
use std::path::{Path, PathBuf};

use bml_core::bml::BmlInfrastructure;
use bml_sim::exec::CellConfig;
use bml_sim::{CellSummary, Stepping};
use bml_trace::LoadTrace;

/// Version tag of the on-disk entry encoding. Bump on any change to the
/// entry format or field set; old entries then simply miss.
///
/// v2: cell entries carry the engine's telemetry counters
/// (`segments_batched`, `events_skipped`) and optimum entries carry the
/// solver's work counters — both so warm runs merge byte-identical
/// counter planes without re-executing anything.
///
/// v3: cell entries drop the per-second fallback flag, which no run can
/// set any more (every predictor runs on the requested loop).
///
/// v4: optimum entries drop their fifth field, a solver count that the
/// exact DP always left at 0.
pub const CACHE_FORMAT: &str = "bml-cell-cache/v4";

/// The 64-bit FNV-1a offset basis: the state of an empty [`fnv1a`] hash.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into the 64-bit FNV-1a state `h`; start from
/// [`FNV_OFFSET`]. The one FNV-1a of the grid: cache keys, journal record
/// checksums and panic digests all hash through it.
pub(crate) fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// 128-bit content hash built from two independently-seeded 64-bit
/// FNV-1a streams. Not cryptographic — the cache is a private
/// memoization, not a trust boundary — but 128 bits makes accidental
/// collisions across a few million distinct cells implausible.
#[derive(Debug, Clone, Copy)]
pub struct KeyHasher {
    a: u64,
    b: u64,
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyHasher {
    /// Fresh hasher.
    pub fn new() -> Self {
        KeyHasher {
            a: FNV_OFFSET,
            // Decorrelate the second stream by perturbing its offset
            // basis with the splitmix increment.
            b: FNV_OFFSET ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Fold raw bytes into both streams.
    pub fn write(&mut self, bytes: &[u8]) {
        self.a = fnv1a(self.a, bytes);
        self.b = fnv1a(self.b, bytes);
    }

    /// Fold a string field, terminated by a NUL so `("ab", "c")` and
    /// `("a", "bc")` cannot collide.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0]);
    }

    /// Fold a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Fold an `f64` by exact bit pattern (never by formatted value).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The 32-hex-character key.
    pub fn finish(&self) -> String {
        format!("{:016x}{:016x}", self.a, self.b)
    }
}

/// Digest of a resolved trace: first day, sample count, and the exact
/// bits of every per-second rate.
pub fn trace_digest(trace: &LoadTrace) -> String {
    let mut h = KeyHasher::new();
    h.write_str("trace");
    h.write_u64(u64::from(trace.first_day));
    h.write_u64(trace.rates.len() as u64);
    for &r in &trace.rates {
        h.write_f64(r);
    }
    h.finish()
}

/// Digest of a resolved infrastructure: the `Debug` rendering of its
/// surviving candidate profiles. `ArchProfile` derives `Debug` over every
/// field, so all Table I constants reach the digest; a new profile field
/// reaches it automatically.
pub fn catalog_digest(bml: &BmlInfrastructure) -> String {
    let mut h = KeyHasher::new();
    h.write_str("catalog");
    h.write_str(&format!("{:?}", bml.candidates()));
    h.finish()
}

/// Cell key under explicit version tags — the production path is
/// [`cell_key`]; tests use this to prove that bumping either version
/// moves the key.
pub fn cell_key_versioned(
    rng_version: &str,
    schema: &str,
    trace_digest: &str,
    catalog_digest: &str,
    cell: &CellConfig,
) -> String {
    let mut h = KeyHasher::new();
    h.write_str("cell");
    h.write_str(CACHE_FORMAT);
    h.write_str(rng_version);
    h.write_str(schema);
    h.write_str(trace_digest);
    h.write_str(catalog_digest);
    h.write_str(&cell.stable_descriptor());
    h.finish()
}

/// Content key of one cell result (see the module doc for what it
/// covers).
pub fn cell_key(trace_digest: &str, catalog_digest: &str, cell: &CellConfig) -> String {
    cell_key_versioned(
        bml_core::rng::KEYING_VERSION,
        crate::artifact::SCHEMA,
        trace_digest,
        catalog_digest,
        cell,
    )
}

/// Content key of one offline-optimum solve: the optimum depends only on
/// the trace, the infrastructure, the split policy, and the solver
/// options (hashed via `Debug`, so option changes invalidate).
pub fn opt_key(
    trace_digest: &str,
    catalog_digest: &str,
    split: bml_core::combination::SplitPolicy,
    options: &bml_opt::OptOptions,
) -> String {
    let mut h = KeyHasher::new();
    h.write_str("opt");
    h.write_str(CACHE_FORMAT);
    h.write_str(trace_digest);
    h.write_str(catalog_digest);
    h.write_str(crate::spec::split_label(split));
    h.write_str(&format!("{options:?}"));
    h.finish()
}

/// Hit/lookup counters of one grid run, split by entry kind. The grid
/// binary reports `cells.hits / cells.lookups` on stderr (never in the
/// artifact — stats vary with cache temperature, artifacts must not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cell-result lookups attempted.
    pub lookups: u64,
    /// Cell-result lookups served from the cache.
    pub hits: u64,
    /// Optimum-solve lookups attempted.
    pub opt_lookups: u64,
    /// Optimum-solve lookups served from the cache.
    pub opt_hits: u64,
}

impl CacheStats {
    /// Cell hit rate in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// An open on-disk cell cache rooted at a directory.
#[derive(Debug)]
pub struct CellCache {
    cells: PathBuf,
    opts: PathBuf,
}

impl CellCache {
    /// Open (creating if missing) a cache rooted at `dir`.
    pub fn open(dir: &Path) -> io::Result<Self> {
        let cells = dir.join("cells");
        let opts = dir.join("opt");
        std::fs::create_dir_all(&cells)?;
        std::fs::create_dir_all(&opts)?;
        Ok(CellCache { cells, opts })
    }

    /// Load a cell summary by key; `None` on miss **or** on any decode
    /// problem (corrupt entries are treated as misses, never errors).
    pub fn load_cell(&self, key: &str) -> Option<CellSummary> {
        let text = std::fs::read_to_string(self.cells.join(key)).ok()?;
        decode_summary(&text)
    }

    /// Store a cell summary under `key`. Optimality fields are stripped
    /// before encoding — optima are cached separately (see [`opt_key`])
    /// and stamped after load, keeping entries valid whichever optimum
    /// pass runs later.
    pub fn store_cell(&self, key: &str, summary: &CellSummary) -> io::Result<()> {
        write_atomic(&self.cells, key, &encode_summary(summary))
    }

    /// Load a cached optimum solve by key.
    pub fn load_opt(&self, key: &str) -> Option<OptEntry> {
        let text = std::fs::read_to_string(self.opts.join(key)).ok()?;
        let mut lines = text.lines();
        if lines.next() != Some(CACHE_FORMAT) {
            return None;
        }
        let entry = OptEntry {
            energy_j: f64::from_bits(parse_hex_field(lines.next()?, "optimal_energy_j")?),
            n_states: parse_dec_field(lines.next()?, "n_states")?,
            n_segments: parse_dec_field(lines.next()?, "n_segments")?,
            n_boundaries: parse_dec_field(lines.next()?, "n_boundaries")?,
        };
        if lines.next().is_some() || !entry.energy_j.is_finite() {
            return None;
        }
        Some(entry)
    }

    /// Store an optimum solve under `key`.
    pub fn store_opt(&self, key: &str, entry: &OptEntry) -> io::Result<()> {
        let body = format!(
            "{CACHE_FORMAT}\n\
             optimal_energy_j={:016x}\n\
             n_states={}\n\
             n_segments={}\n\
             n_boundaries={}\n",
            entry.energy_j.to_bits(),
            entry.n_states,
            entry.n_segments,
            entry.n_boundaries,
        );
        write_atomic(&self.opts, key, &body)
    }
}

/// One cached offline-optimum solve: the energy the cells are stamped
/// with, plus the solver's deterministic work counters — cached alongside
/// so a warm run's telemetry counter plane is byte-identical to a cold
/// one without re-running the DP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptEntry {
    /// Minimum total energy (J); see [`bml_opt::OptimalSchedule::energy_j`].
    pub energy_j: f64,
    /// DP states considered.
    pub n_states: u64,
    /// Constant-load segments.
    pub n_segments: u64,
    /// Segment boundaries crossed.
    pub n_boundaries: u64,
}

impl OptEntry {
    /// Build from a solved schedule.
    pub fn from_schedule(s: &bml_opt::OptimalSchedule) -> Self {
        OptEntry {
            energy_j: s.energy_j,
            n_states: s.n_states as u64,
            n_segments: s.n_segments as u64,
            n_boundaries: s.n_boundaries as u64,
        }
    }
}

/// Write `body` to `dir/key` through a temp file + rename, so readers
/// never observe a partial entry (rename is atomic within a filesystem).
fn write_atomic(dir: &Path, key: &str, body: &str) -> io::Result<()> {
    let tmp = dir.join(format!(".tmp-{key}"));
    std::fs::write(&tmp, body)?;
    std::fs::rename(&tmp, dir.join(key))
}

/// Line-based entry body. Floats are stored as exact hex bit patterns —
/// formatting round-trips are exactly the kind of bug a byte-identity
/// guarantee cannot afford. Shared with `crate::journal`, whose success
/// records carry the same payload (optima stripped, stamped after load).
pub(crate) fn encode_summary(s: &CellSummary) -> String {
    format!(
        "{CACHE_FORMAT}\n\
         total_energy_j={:016x}\n\
         mean_power_w={:016x}\n\
         qos_shortfall={:016x}\n\
         violation_seconds={}\n\
         worst_shortfall={:016x}\n\
         reconfigurations={}\n\
         nodes_switched_on={}\n\
         nodes_switched_off={}\n\
         reconfig_energy_j={:016x}\n\
         instance_migrations={}\n\
         segments_batched={}\n\
         events_skipped={}\n\
         stepping_effective={}\n",
        s.total_energy_j.to_bits(),
        s.mean_power_w.to_bits(),
        s.qos_shortfall.to_bits(),
        s.violation_seconds,
        s.worst_shortfall.to_bits(),
        s.reconfigurations,
        s.nodes_switched_on,
        s.nodes_switched_off,
        s.reconfig_energy_j.to_bits(),
        s.instance_migrations,
        s.segments_batched,
        s.events_skipped,
        crate::spec::stepping_label(s.stepping_effective),
    )
}

fn parse_hex_field(line: &str, name: &str) -> Option<u64> {
    u64::from_str_radix(line.strip_prefix(name)?.strip_prefix('=')?, 16).ok()
}

fn parse_dec_field(line: &str, name: &str) -> Option<u64> {
    line.strip_prefix(name)?.strip_prefix('=')?.parse().ok()
}

pub(crate) fn decode_summary(text: &str) -> Option<CellSummary> {
    let mut lines = text.lines();
    if lines.next() != Some(CACHE_FORMAT) {
        return None;
    }
    let summary = CellSummary {
        total_energy_j: f64::from_bits(parse_hex_field(lines.next()?, "total_energy_j")?),
        mean_power_w: f64::from_bits(parse_hex_field(lines.next()?, "mean_power_w")?),
        qos_shortfall: f64::from_bits(parse_hex_field(lines.next()?, "qos_shortfall")?),
        violation_seconds: parse_dec_field(lines.next()?, "violation_seconds")?,
        worst_shortfall: f64::from_bits(parse_hex_field(lines.next()?, "worst_shortfall")?),
        reconfigurations: parse_dec_field(lines.next()?, "reconfigurations")?,
        nodes_switched_on: parse_dec_field(lines.next()?, "nodes_switched_on")?,
        nodes_switched_off: parse_dec_field(lines.next()?, "nodes_switched_off")?,
        reconfig_energy_j: f64::from_bits(parse_hex_field(lines.next()?, "reconfig_energy_j")?),
        instance_migrations: parse_dec_field(lines.next()?, "instance_migrations")?,
        segments_batched: parse_dec_field(lines.next()?, "segments_batched")?,
        events_skipped: parse_dec_field(lines.next()?, "events_skipped")?,
        stepping_effective: match lines
            .next()?
            .strip_prefix("stepping_effective")?
            .strip_prefix('=')?
        {
            "event" => Stepping::EventDriven,
            "per-second" => Stepping::PerSecond,
            _ => return None,
        },
        optimal_energy_j: None,
        optimality_gap: None,
    };
    if lines.next().is_some() {
        return None; // trailing garbage: treat as corrupt
    }
    Some(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bml_core::catalog;
    use bml_sim::SimConfig;

    fn summary() -> CellSummary {
        CellSummary {
            total_energy_j: 12345.678,
            mean_power_w: 143.25,
            qos_shortfall: 0.001,
            violation_seconds: 17,
            worst_shortfall: 0.25,
            reconfigurations: 9,
            nodes_switched_on: 5,
            nodes_switched_off: 4,
            reconfig_energy_j: 321.0,
            instance_migrations: 2,
            segments_batched: 88,
            events_skipped: 1_234,
            stepping_effective: Stepping::EventDriven,
            optimal_energy_j: Some(12000.0),
            optimality_gap: Some(0.0288),
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bml_cell_cache_{tag}"));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn summary_roundtrips_without_optima() {
        let dir = tmp_dir("roundtrip");
        let cache = CellCache::open(&dir).unwrap();
        cache.store_cell("k1", &summary()).unwrap();
        let loaded = cache.load_cell("k1").expect("hit");
        let expected = CellSummary {
            optimal_energy_j: None,
            optimality_gap: None,
            ..summary()
        };
        assert_eq!(loaded, expected, "optima must not be baked into entries");
        assert_eq!(cache.load_cell("absent"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn optimum_roundtrips_exactly() {
        let dir = tmp_dir("opt");
        let cache = CellCache::open(&dir).unwrap();
        let entry = OptEntry {
            energy_j: 98_765.432_109_876_54,
            n_states: 12,
            n_segments: 345,
            n_boundaries: 344,
        };
        cache.store_opt("o1", &entry).unwrap();
        let loaded = cache.load_opt("o1").unwrap();
        assert_eq!(loaded.energy_j.to_bits(), entry.energy_j.to_bits());
        assert_eq!(loaded, entry);
        assert_eq!(cache.load_opt("o2"), None);
        // A v1-era entry (energy only) is a miss, not a panic.
        std::fs::write(
            dir.join("opt").join("o1"),
            format!(
                "bml-cell-cache/v1\noptimal_energy_j={:016x}\n",
                entry.energy_j.to_bits()
            ),
        )
        .unwrap();
        assert_eq!(cache.load_opt("o1"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entries_decode_to_miss_not_panic() {
        let dir = tmp_dir("corrupt");
        let cache = CellCache::open(&dir).unwrap();
        cache.store_cell("k", &summary()).unwrap();
        let path = dir.join("cells").join("k");
        let good = std::fs::read_to_string(&path).unwrap();
        for bad in [
            String::new(),                                   // empty file
            "not-a-cache-entry\n".to_string(),               // foreign format
            good[..good.len() / 2].to_string(),              // truncated
            good.replace("total_energy_j", "totel"),         // renamed field
            format!("{good}extra=1\n"),                      // trailing garbage
            good.replace(CACHE_FORMAT, "bml-cell-cache/v3"), // stale format
        ] {
            std::fs::write(&path, bad).unwrap();
            assert_eq!(cache.load_cell("k"), None);
        }
        // Recompute + store overwrites the rot.
        cache.store_cell("k", &summary()).unwrap();
        assert!(cache.load_cell("k").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Exhaustive corruption fuzz over one stored entry: every possible
    /// truncation length and every single-bit flip. The decoder must
    /// never panic, truncations must always miss (recompute, not rot),
    /// and any flip touching the entry's structure — the format tag, a
    /// field name, a separator — must miss too. Flips confined to a hex
    /// digit can decode to a *different valid* value: the cache is a
    /// private memoization behind content-addressed keys, not a trust
    /// boundary, so that is out of scope here (and why grid artifacts pin
    /// cold-vs-warm byte-identity separately).
    #[test]
    fn fuzz_truncations_and_bit_flips_miss_or_decode_never_panic() {
        let dir = tmp_dir("fuzz");
        let cache = CellCache::open(&dir).unwrap();
        cache.store_cell("k", &summary()).unwrap();
        let path = dir.join("cells").join("k");
        let good = std::fs::read(&path).unwrap();

        for n in 0..good.len() {
            std::fs::write(&path, &good[..n]).unwrap();
            let decoded = cache.load_cell("k");
            if n == good.len() - 1 {
                // Only the trailing newline is gone; `lines()` treats the
                // final line the same either way, so this still decodes.
                assert!(decoded.is_some());
            } else {
                assert_eq!(decoded, None, "truncation at byte {n} must miss");
            }
        }

        let text = String::from_utf8(good.clone()).unwrap();
        let mut structural_hits = 0u32;
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                std::fs::write(&path, &bad).unwrap();
                let decoded = cache.load_cell("k"); // must not panic
                                                    // A flip outside the hex payloads corrupts structure and
                                                    // must be detected as a miss.
                let in_hex_payload = text[..byte]
                    .rfind('\n')
                    .map(|s| &text[s + 1..byte])
                    .is_some_and(|prefix| {
                        prefix.contains('=')
                            && good[byte] != b'\n'
                            && good[byte].is_ascii_hexdigit()
                    });
                if !in_hex_payload && decoded.is_some() {
                    structural_hits += 1;
                }
            }
        }
        assert_eq!(structural_hits, 0, "a structural bit flip decoded as a hit");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn digests_track_content() {
        let t1 = LoadTrace::new(0, vec![1.0, 2.0, 3.0]);
        let same = LoadTrace::new(0, vec![1.0, 2.0, 3.0]);
        assert_eq!(trace_digest(&t1), trace_digest(&same));
        for other in [
            LoadTrace::new(1, vec![1.0, 2.0, 3.0]),       // day shift
            LoadTrace::new(0, vec![1.0, 2.0, 3.0, 4.0]),  // longer
            LoadTrace::new(0, vec![1.0, 2.0, 3.0000001]), // one sample off
        ] {
            assert_ne!(trace_digest(&t1), trace_digest(&other));
        }

        let trio = BmlInfrastructure::build(&catalog::table1()).unwrap();
        let trio_again = BmlInfrastructure::build(&catalog::table1()).unwrap();
        assert_eq!(catalog_digest(&trio), catalog_digest(&trio_again));
        let big = BmlInfrastructure::build(&[catalog::by_name("paravance").unwrap()]).unwrap();
        assert_ne!(catalog_digest(&trio), catalog_digest(&big));
        // A Table I constant edit moves the digest.
        let mut tweaked = catalog::by_name("paravance").unwrap();
        tweaked.idle_power += 1.0;
        let tweaked = BmlInfrastructure::build(&[tweaked]).unwrap();
        assert_ne!(catalog_digest(&big), catalog_digest(&tweaked));
    }

    #[test]
    fn version_bumps_move_cell_keys() {
        let cell = CellConfig::from_sim(&SimConfig::default());
        let base = cell_key_versioned("bml-rng/v1", "bml-grid/v5", "t", "c", &cell);
        assert_eq!(base, cell_key("t", "c", &cell), "production tags");
        assert_ne!(
            base,
            cell_key_versioned("bml-rng/v2", "bml-grid/v5", "t", "c", &cell),
            "an RNG keying bump must invalidate"
        );
        assert_ne!(
            base,
            cell_key_versioned("bml-rng/v1", "bml-grid/v6", "t", "c", &cell),
            "an artifact schema bump must invalidate"
        );
        assert_ne!(base, cell_key("t2", "c", &cell));
        assert_ne!(base, cell_key("t", "c2", &cell));
        let noisy = CellConfig {
            noise_sigma: 0.3,
            ..cell.clone()
        };
        assert_ne!(base, cell_key("t", "c", &noisy));
    }

    #[test]
    fn hasher_field_boundaries_do_not_collide() {
        let mut ab_c = KeyHasher::new();
        ab_c.write_str("ab");
        ab_c.write_str("c");
        let mut a_bc = KeyHasher::new();
        a_bc.write_str("a");
        a_bc.write_str("bc");
        assert_ne!(ab_c.finish(), a_bc.finish());
        assert_eq!(KeyHasher::new().finish().len(), 32);
    }

    #[test]
    fn fnv1a_matches_the_standard_64_bit_vectors() {
        // Pinned so cache keys, journal checksums and panic digests
        // cannot drift with a refactor of the hash.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Folding in pieces is folding the concatenation.
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            fnv1a(FNV_OFFSET, b"foobar")
        );
    }
}
