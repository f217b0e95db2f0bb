//! Crash-resume journal: a log of per-cell decisions that survives a
//! killed process.
//!
//! The streaming artifact writer already checkpoints rendered rows, but
//! a rendered row cannot be *resumed from*: it carries formatted values,
//! not the exact summary bits, and the JSON document is only valid once
//! the epilogue lands. The journal is the machine-readable counterpart —
//! one checksummed record per **decided** cell (succeeded or
//! quarantined), appended and flushed before the run moves on — so a
//! killed run restarts from the last journaled cell instead of from
//! zero, and the resumed artifact is byte-identical to an uninterrupted
//! one.
//!
//! Records are flushed to the OS, never synced to disk (no `sync_data`
//! or `sync_all`): the journal survives a killed process (what
//! `--kill-after` and the CI chaos job test), not an OS crash or power
//! loss.
//!
//! # Record framing
//!
//! ```text
//! [u32 LE payload length][payload bytes][u64 LE FNV-1a(payload)]
//! ```
//!
//! The first record is a header carrying the journal format tag and the
//! **run fingerprint** ([`run_fingerprint`]): a hash of everything that
//! determines cell results — the spec, the artifact schema, the RNG
//! keying version, the retry budget, and the chaos schedule. A journal
//! whose fingerprint does not match the resuming run is ignored (fresh
//! start), never replayed into wrong results.
//!
//! Success payloads reuse the cell cache's summary encoding (optima
//! stripped, stamped after load — see [`crate::cache`]); failure
//! payloads carry the attempt count and panic digest that feed the
//! artifact's `failed_cells` section.
//!
//! # Integrity
//!
//! Replay walks records in order and stops at the first violation —
//! short length prefix, checksum mismatch, undecodable payload — then
//! **truncates the file back to the last good record** and resumes
//! appending from there. A torn tail (kill mid-write, torn chaos write)
//! therefore costs recomputing the cells after the tear, never an error
//! and never a wrong artifact.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use bml_sim::CellSummary;

use crate::cache::{self, fnv1a, KeyHasher, FNV_OFFSET};
use crate::chaos::{ChaosPolicy, STREAM_JOURNAL_IO};
use crate::spec::GridSpec;

/// Journal file name, next to the artifacts in the output directory.
pub const JOURNAL_NAME: &str = "BENCH_grid.journal";

/// Version tag of the journal encoding. Bump on any framing or payload
/// change; old journals then fingerprint-mismatch and are ignored.
///
/// v2: success payloads carry the engine batching counters
/// (`segments_batched`, `events_skipped`) via the cell cache's v2
/// summary encoding.
///
/// v3: success payloads are the cell cache's v3 summary encoding, without
/// the per-second fallback flag.
///
/// v4: success payloads carry the cell cache's v4 tag. Their fields are
/// v3's; the tag moved with the optimum entries' encoding.
pub const JOURNAL_FORMAT: &str = "bml-grid-journal/v4";

/// One journaled per-cell decision.
#[derive(Debug, Clone, PartialEq)]
pub enum CellEntry {
    /// The cell completed; its summary (optima stripped, re-stamped by
    /// the executor after load, exactly like a cache hit).
    Done(CellSummary),
    /// The cell exhausted its retry budget and was quarantined.
    Failed {
        /// Execution attempts consumed (the full budget).
        attempts: u32,
        /// [`crate::chaos::panic_digest`] of the last panic message.
        panic_digest: String,
    },
}

/// Fingerprint of everything that determines a run's per-cell results.
/// Two runs with equal fingerprints decide every cell identically, so
/// replaying one's journal into the other is sound.
pub fn run_fingerprint(spec: &GridSpec, chaos: Option<&ChaosPolicy>, max_retries: u32) -> String {
    let mut h = KeyHasher::new();
    h.write_str("journal");
    h.write_str(JOURNAL_FORMAT);
    h.write_str(bml_core::rng::KEYING_VERSION);
    h.write_str(crate::artifact::SCHEMA);
    h.write_str(&format!("{spec:?}"));
    h.write_str(&chaos.map(ChaosPolicy::descriptor).unwrap_or_default());
    h.write_u64(u64::from(max_retries));
    h.finish()
}

/// An open journal, ready to append decisions.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    chaos: Option<ChaosPolicy>,
}

impl Journal {
    /// Start a fresh journal in `dir` (created if missing), truncating
    /// any previous one, and write the header record.
    pub fn create(
        dir: &Path,
        fingerprint: &str,
        chaos: Option<ChaosPolicy>,
    ) -> io::Result<Journal> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_NAME);
        let mut journal = Journal {
            file: File::create(&path)?,
            path,
            chaos,
        };
        // The header is never chaos-torn: a torn header would just void
        // the whole journal, which the per-record faults already cover.
        journal.file.write_all(&frame(&header(fingerprint)))?;
        Ok(journal)
    }

    /// Resume from the journal in `dir`: replay every valid record,
    /// truncate any corrupt tail, and return the journal (open for
    /// append) plus the decisions already on disk.
    ///
    /// An absent journal, a foreign format, or a fingerprint mismatch
    /// all mean "nothing to reuse": the journal is recreated
    /// fresh and the map comes back empty.
    pub fn resume(
        dir: &Path,
        fingerprint: &str,
        chaos: Option<ChaosPolicy>,
    ) -> io::Result<(Journal, BTreeMap<usize, CellEntry>)> {
        let path = dir.join(JOURNAL_NAME);
        let bytes = std::fs::read(&path).unwrap_or_default();
        let mut entries = BTreeMap::new();
        let mut offset = 0usize;
        let mut header_ok = false;
        while let Some((payload, next)) = read_record(&bytes, offset) {
            if offset == 0 {
                if payload != header(fingerprint) {
                    break; // foreign or stale journal: ignore entirely
                }
                header_ok = true;
            } else {
                match decode_entry(&payload) {
                    Some((index, entry)) => {
                        entries.insert(index, entry);
                    }
                    None => break, // corrupt payload: drop from here on
                }
            }
            offset = next;
        }
        if !header_ok {
            let journal = Journal::create(dir, fingerprint, chaos)?;
            return Ok((journal, BTreeMap::new()));
        }
        // Drop the bad tail (if any) and append after the last good
        // record.
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(offset as u64)?;
        drop(file);
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok((Journal { file, path, chaos }, entries))
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one decided cell and flush it to the OS before the executor
    /// moves on, so the decision survives a killed process (a kill
    /// mid-write leaves a torn tail, which replay recovers from); it is
    /// not synced, so an OS crash or power loss may still lose it.
    /// Returns the bytes written (fed to the telemetry host plane;
    /// host-dependent under resume, so never a deterministic counter).
    ///
    /// Chaos faults apply here: an injected I/O error surfaces as `Err`
    /// (the executor degrades), a torn write silently persists only a
    /// prefix (discovered by the next resume's checksum walk).
    pub fn append(&mut self, index: usize, entry: &CellEntry) -> io::Result<usize> {
        if let Some(chaos) = &self.chaos {
            if let Some(e) = chaos.io_error(STREAM_JOURNAL_IO, index as u64) {
                return Err(e);
            }
        }
        let record = frame(&encode_entry(index, entry));
        let keep = self
            .chaos
            .as_ref()
            .and_then(|c| c.torn_len(record.len(), index as u64))
            .unwrap_or(record.len());
        self.file.write_all(&record[..keep])?;
        Ok(keep)
    }
}

/// The header payload for a given fingerprint.
fn header(fingerprint: &str) -> String {
    format!("{JOURNAL_FORMAT}\nfingerprint={fingerprint}\n")
}

/// Frame a payload: length prefix + bytes + checksum.
fn frame(payload: &str) -> Vec<u8> {
    let bytes = payload.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() + 12);
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
    out.extend_from_slice(&fnv1a(FNV_OFFSET, bytes).to_le_bytes());
    out
}

/// Read the record at `offset`: `Some((payload, next_offset))` when the
/// length prefix, payload, and checksum are all intact, `None` on any
/// truncation or corruption (the caller stops there).
fn read_record(bytes: &[u8], offset: usize) -> Option<(String, usize)> {
    let len_end = offset.checked_add(4)?;
    let len = u32::from_le_bytes(bytes.get(offset..len_end)?.try_into().ok()?) as usize;
    let payload_end = len_end.checked_add(len)?;
    let sum_end = payload_end.checked_add(8)?;
    let payload = bytes.get(len_end..payload_end)?;
    let sum = u64::from_le_bytes(bytes.get(payload_end..sum_end)?.try_into().ok()?);
    if fnv1a(FNV_OFFSET, payload) != sum {
        return None;
    }
    Some((String::from_utf8(payload.to_vec()).ok()?, sum_end))
}

/// Encode one decision payload.
fn encode_entry(index: usize, entry: &CellEntry) -> String {
    match entry {
        CellEntry::Done(summary) => format!(
            "cell={index}\nstatus=done\n{}",
            cache::encode_summary(summary)
        ),
        CellEntry::Failed {
            attempts,
            panic_digest,
        } => format!(
            "cell={index}\nstatus=failed\nattempts={attempts}\npanic_digest={panic_digest}\n"
        ),
    }
}

/// Decode one decision payload; `None` on any malformation.
fn decode_entry(payload: &str) -> Option<(usize, CellEntry)> {
    let mut lines = payload.lines();
    let index: usize = lines.next()?.strip_prefix("cell=")?.parse().ok()?;
    match lines.next()?.strip_prefix("status=")? {
        "done" => {
            let body = payload.splitn(3, '\n').nth(2)?;
            Some((index, CellEntry::Done(cache::decode_summary(body)?)))
        }
        "failed" => {
            let attempts: u32 = lines.next()?.strip_prefix("attempts=")?.parse().ok()?;
            let digest = lines.next()?.strip_prefix("panic_digest=")?;
            if lines.next().is_some() || digest.len() != 16 {
                return None;
            }
            Some((
                index,
                CellEntry::Failed {
                    attempts,
                    panic_digest: digest.to_string(),
                },
            ))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bml_sim::Stepping;

    fn summary(energy: f64) -> CellSummary {
        CellSummary {
            total_energy_j: energy,
            mean_power_w: 100.0,
            qos_shortfall: 0.0,
            violation_seconds: 0,
            worst_shortfall: 0.0,
            reconfigurations: 3,
            nodes_switched_on: 2,
            nodes_switched_off: 1,
            reconfig_energy_j: 50.0,
            instance_migrations: 0,
            segments_batched: 88,
            events_skipped: 1_234,
            stepping_effective: Stepping::EventDriven,
            optimal_energy_j: None,
            optimality_gap: None,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bml_grid_journal_{tag}"));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn failed(attempts: u32) -> CellEntry {
        CellEntry::Failed {
            attempts,
            panic_digest: crate::chaos::panic_digest("boom"),
        }
    }

    #[test]
    fn decisions_roundtrip_through_resume() {
        let dir = tmp_dir("roundtrip");
        let mut j = Journal::create(&dir, "fp1", None).unwrap();
        j.append(0, &CellEntry::Done(summary(100.0))).unwrap();
        j.append(1, &failed(2)).unwrap();
        j.append(2, &CellEntry::Done(summary(250.5))).unwrap();
        drop(j);
        let (_, entries) = Journal::resume(&dir, "fp1", None).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[&0], CellEntry::Done(summary(100.0)));
        assert_eq!(entries[&1], failed(2));
        assert_eq!(entries[&2], CellEntry::Done(summary(250.5)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_mismatch_starts_fresh() {
        let dir = tmp_dir("fingerprint");
        let mut j = Journal::create(&dir, "fp1", None).unwrap();
        j.append(0, &CellEntry::Done(summary(100.0))).unwrap();
        drop(j);
        let (_, entries) = Journal::resume(&dir, "fp2", None).unwrap();
        assert!(entries.is_empty(), "a stale journal must not replay");
        // The fresh journal carries the new fingerprint.
        let (_, entries) = Journal::resume(&dir, "fp2", None).unwrap();
        assert!(entries.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_tails_are_dropped_not_fatal() {
        let dir = tmp_dir("torn");
        let mut j = Journal::create(&dir, "fp", None).unwrap();
        j.append(0, &CellEntry::Done(summary(1.0))).unwrap();
        j.append(1, &CellEntry::Done(summary(2.0))).unwrap();
        let path = j.path().to_path_buf();
        drop(j);
        let full = std::fs::read(&path).unwrap();
        // Cut the file at every byte boundary inside the final record:
        // record 0 must survive, record 1 must drop, never an error.
        let after_first = {
            // Walk the framing to find record 1's start.
            let mut off = 0;
            for _ in 0..2 {
                let (_, next) = read_record(&full, off).unwrap();
                off = next;
            }
            off
        };
        for cut in after_first..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (_, entries) = Journal::resume(&dir, "fp", None).unwrap();
            assert_eq!(
                entries.len(),
                1,
                "cut at {cut}: only the intact record replays"
            );
            assert_eq!(entries[&0], CellEntry::Done(summary(1.0)));
            // Resume truncated the tail: the file now ends at the last
            // good record.
            assert_eq!(std::fs::read(&path).unwrap(), full[..after_first]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bitflipped_records_stop_the_replay() {
        let dir = tmp_dir("bitflip");
        let mut j = Journal::create(&dir, "fp", None).unwrap();
        j.append(0, &CellEntry::Done(summary(1.0))).unwrap();
        j.append(1, &CellEntry::Done(summary(2.0))).unwrap();
        let path = j.path().to_path_buf();
        drop(j);
        let full = std::fs::read(&path).unwrap();
        let (_, after_header) = read_record(&full, 0).unwrap();
        // Flip one bit inside record 0's payload: its checksum fails, so
        // BOTH records drop (framing past a bad record is untrusted).
        let mut bad = full.clone();
        bad[after_header + 6] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        let (_, entries) = Journal::resume(&dir, "fp", None).unwrap();
        assert!(entries.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_appends_after_the_last_good_record() {
        let dir = tmp_dir("append");
        let mut j = Journal::create(&dir, "fp", None).unwrap();
        j.append(0, &CellEntry::Done(summary(1.0))).unwrap();
        drop(j);
        let (mut j, entries) = Journal::resume(&dir, "fp", None).unwrap();
        assert_eq!(entries.len(), 1);
        j.append(1, &failed(3)).unwrap();
        drop(j);
        let (_, entries) = Journal::resume(&dir, "fp", None).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[&1], failed(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_torn_writes_recover_on_resume() {
        let dir = tmp_dir("chaos_torn");
        let chaos = ChaosPolicy::new(5).torn_write_prob(1.0);
        let mut j = Journal::create(&dir, "fp", Some(chaos)).unwrap();
        j.append(0, &CellEntry::Done(summary(1.0))).unwrap();
        drop(j);
        // Every record was torn: nothing replays, resume recovers fresh.
        let (mut j, entries) = Journal::resume(&dir, "fp", None).unwrap();
        assert!(entries.is_empty());
        j.append(0, &CellEntry::Done(summary(1.0))).unwrap();
        drop(j);
        let (_, entries) = Journal::resume(&dir, "fp", None).unwrap();
        assert_eq!(entries.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_io_errors_surface_as_errors() {
        let dir = tmp_dir("chaos_io");
        let chaos = ChaosPolicy::new(5).io_error_prob(1.0);
        let mut j = Journal::create(&dir, "fp", Some(chaos)).unwrap();
        let err = j.append(0, &CellEntry::Done(summary(1.0))).unwrap_err();
        assert!(err.to_string().contains("chaos"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_fingerprint_tracks_the_deciding_inputs() {
        let spec = GridSpec::builder()
            .name("fp-unit")
            .root_seed(1)
            .trace("constant", 1, 0)
            .catalogs(vec![crate::spec::CatalogSpec::paper_trio()])
            .schedulers(vec![crate::spec::SchedulerDim::Baseline])
            .windows(vec![None])
            .noise_sigmas(vec![0.0])
            .splits(vec![bml_core::combination::SplitPolicy::EfficiencyGreedy])
            .steppings(vec![Stepping::EventDriven])
            .build()
            .unwrap();
        let base = run_fingerprint(&spec, None, 1);
        assert_eq!(base, run_fingerprint(&spec, None, 1), "deterministic");
        let mut other = spec.clone();
        other.root_seed = 2;
        assert_ne!(base, run_fingerprint(&other, None, 1), "spec reaches it");
        assert_ne!(base, run_fingerprint(&spec, None, 2), "retry budget too");
        let chaos = ChaosPolicy::new(3).panic_prob(0.5);
        assert_ne!(
            base,
            run_fingerprint(&spec, Some(&chaos), 1),
            "chaos schedule too"
        );
        std::fs::remove_dir_all(std::env::temp_dir().join("bml_grid_journal_fp")).ok();
    }
}
