//! Deterministic chaos harness: seeded fault injection for grid runs.
//!
//! The simulation already injects machine crashes with a counter-based
//! `FailureModel` (`bml_sim`); this module applies the same discipline to
//! the **orchestration layer**. A [`ChaosPolicy`] injects three fault
//! classes on a seeded schedule:
//!
//! * **cell panics** — a cell's execution panics instead of returning,
//!   exercising the isolate/retry/quarantine path in the executor;
//! * **I/O errors** — cache, sink, or journal writes fail with an
//!   injected error, exercising graceful degradation to in-memory
//!   execution;
//! * **torn writes** — a journal record is cut short mid-write
//!   (simulated power loss), exercising the checksummed-framing recovery
//!   on resume.
//!
//! # Keying scheme
//!
//! Every decision is a pure function of `(seed, fault stream, cell
//! index, attempt)` via [`bml_core::rng::mix`] — the keying scheme the
//! whole workspace shares ([`bml_core::rng::KEYING_VERSION`]). Each
//! fault class draws from its own stream (the `STREAM_*` salts), so
//! enabling one class never shifts another's schedule. Nothing depends
//! on thread count, scheduling order, or wall clock: a chaos run is
//! exactly reproducible from its seed, which is what lets the
//! integration suite assert byte-identical artifacts at 1 and 8 threads
//! *with faults firing*.
//!
//! Cell-panic draws are keyed on the cell's **enumeration index** and
//! the **attempt number**, so a cell doomed on attempt 1 may succeed on
//! attempt 2 (transient fault) or keep failing (quarantine) — determined
//! by the seed, not by luck.

use std::io;

use bml_core::rng::{mix, splitmix64, unit_f64};

/// Fault stream of injected cell panics.
pub const STREAM_CELL_PANIC: u64 = 0x4345_4C4C; // "CELL"
/// Fault stream of injected artifact-sink write errors.
pub const STREAM_SINK_IO: u64 = 0x5349_4E4B; // "SINK"
/// Fault stream of injected cell-cache write errors.
pub const STREAM_CACHE_IO: u64 = 0x4341_4348; // "CACH"
/// Fault stream of injected journal write errors.
pub const STREAM_JOURNAL_IO: u64 = 0x4A52_4E4C; // "JRNL"
/// Fault stream of torn (short) journal writes.
pub const STREAM_TORN_WRITE: u64 = 0x544F_524E; // "TORN"

/// A seeded fault-injection schedule. All probabilities are per
/// opportunity (per cell attempt, per write) in `[0, 1]`; the default
/// policy injects nothing — enable classes explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPolicy {
    /// Root seed every fault stream derives from.
    pub seed: u64,
    /// Probability that a cell execution attempt panics.
    pub panic_prob: f64,
    /// Probability that a cache/sink/journal write errors.
    pub io_error_prob: f64,
    /// Probability that a journal record write is torn short.
    pub torn_write_prob: f64,
}

impl ChaosPolicy {
    /// A policy with every fault class disabled; switch classes on with
    /// the builder methods.
    pub fn new(seed: u64) -> Self {
        ChaosPolicy {
            seed,
            panic_prob: 0.0,
            io_error_prob: 0.0,
            torn_write_prob: 0.0,
        }
    }

    /// Enable cell-panic injection at probability `p` per attempt.
    #[must_use]
    pub fn panic_prob(mut self, p: f64) -> Self {
        self.panic_prob = p;
        self
    }

    /// Enable I/O-error injection at probability `p` per write.
    #[must_use]
    pub fn io_error_prob(mut self, p: f64) -> Self {
        self.io_error_prob = p;
        self
    }

    /// Enable torn journal writes at probability `p` per record.
    #[must_use]
    pub fn torn_write_prob(mut self, p: f64) -> Self {
        self.torn_write_prob = p;
        self
    }

    /// The uniform `[0, 1)` draw of `(stream, a, b)` — pure, so every
    /// decision is reproducible from the policy alone.
    fn roll(&self, stream: u64, a: u64, b: u64) -> f64 {
        unit_f64(mix(mix(self.seed ^ splitmix64(stream), a), b))
    }

    /// Should attempt `attempt` (1-based) of the cell at enumeration
    /// index `cell_index` panic? Returns the panic message to raise.
    pub fn should_panic(&self, cell_index: u64, attempt: u32) -> Option<String> {
        (self.roll(STREAM_CELL_PANIC, cell_index, u64::from(attempt)) < self.panic_prob)
            .then(|| format!("chaos: injected panic in cell {cell_index} (attempt {attempt})"))
    }

    /// Should write `counter` on fault stream `stream` fail? Returns the
    /// injected error.
    pub fn io_error(&self, stream: u64, counter: u64) -> Option<io::Error> {
        (self.roll(stream, counter, 0) < self.io_error_prob).then(|| {
            io::Error::other(format!(
                "chaos: injected I/O error (stream {stream:#x}, write {counter})"
            ))
        })
    }

    /// Should the journal record for cell `counter` be torn? Returns the
    /// number of bytes (strictly less than `full_len`) that reach disk.
    pub fn torn_len(&self, full_len: usize, counter: u64) -> Option<usize> {
        if full_len == 0 || self.roll(STREAM_TORN_WRITE, counter, 0) >= self.torn_write_prob {
            return None;
        }
        let frac = self.roll(STREAM_TORN_WRITE, counter, 1);
        Some(((full_len as f64 * frac) as usize).min(full_len - 1))
    }

    /// Canonical description folded into the journal fingerprint: a
    /// resumed run under a *different* chaos schedule would decide cells
    /// differently, so its journal must not be replayed.
    pub fn descriptor(&self) -> String {
        format!("{self:?}")
    }
}

/// 16-hex-character FNV-1a digest of a panic message. Artifacts carry
/// the digest rather than the raw message: panic text can contain
/// payload-dependent noise (addresses, paths), and the quarantine
/// section must stay byte-identical across hosts for identical faults.
pub fn panic_digest(message: &str) -> String {
    let h = crate::cache::fnv1a(crate::cache::FNV_OFFSET, message.as_bytes());
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_the_policy() {
        let p = ChaosPolicy::new(42)
            .panic_prob(0.3)
            .io_error_prob(0.2)
            .torn_write_prob(0.5);
        for cell in 0..50u64 {
            for attempt in 1..=3u32 {
                assert_eq!(
                    p.should_panic(cell, attempt).is_some(),
                    p.should_panic(cell, attempt).is_some()
                );
            }
            assert_eq!(
                p.io_error(STREAM_SINK_IO, cell).is_some(),
                p.io_error(STREAM_SINK_IO, cell).is_some()
            );
            assert_eq!(p.torn_len(100, cell), p.torn_len(100, cell));
        }
    }

    #[test]
    fn probabilities_gate_each_class_independently() {
        let none = ChaosPolicy::new(7);
        let all = ChaosPolicy::new(7)
            .panic_prob(1.0)
            .io_error_prob(1.0)
            .torn_write_prob(1.0);
        for cell in 0..20u64 {
            assert!(none.should_panic(cell, 1).is_none());
            assert!(none.io_error(STREAM_CACHE_IO, cell).is_none());
            assert!(none.torn_len(64, cell).is_none());
            assert!(all.should_panic(cell, 1).is_some());
            assert!(all.io_error(STREAM_CACHE_IO, cell).is_some());
            let torn = all.torn_len(64, cell).unwrap();
            assert!(torn < 64, "a torn write must lose at least one byte");
        }
        // Zero-length writes cannot tear.
        assert_eq!(all.torn_len(0, 0), None);
    }

    #[test]
    fn panic_schedule_varies_by_cell_attempt_and_seed() {
        let p = ChaosPolicy::new(1).panic_prob(0.5);
        let per_cell: Vec<bool> = (0..64).map(|c| p.should_panic(c, 1).is_some()).collect();
        assert!(per_cell.iter().any(|&b| b) && per_cell.iter().any(|&b| !b));
        // Some doomed cell recovers on a later attempt (transient fault).
        let doomed: Vec<u64> = (0..64)
            .filter(|&c| p.should_panic(c, 1).is_some())
            .collect();
        assert!(
            doomed.iter().any(|&c| p.should_panic(c, 2).is_none()),
            "attempt number must reach the key"
        );
        // A different seed reshuffles the schedule.
        let q = ChaosPolicy::new(2).panic_prob(0.5);
        let other: Vec<bool> = (0..64).map(|c| q.should_panic(c, 1).is_some()).collect();
        assert_ne!(per_cell, other);
    }

    #[test]
    fn fault_streams_are_decorrelated() {
        let p = ChaosPolicy::new(9).io_error_prob(0.5);
        let sink: Vec<bool> = (0..64)
            .map(|c| p.io_error(STREAM_SINK_IO, c).is_some())
            .collect();
        let cache: Vec<bool> = (0..64)
            .map(|c| p.io_error(STREAM_CACHE_IO, c).is_some())
            .collect();
        let journal: Vec<bool> = (0..64)
            .map(|c| p.io_error(STREAM_JOURNAL_IO, c).is_some())
            .collect();
        assert_ne!(sink, cache);
        assert_ne!(cache, journal);
    }

    #[test]
    fn digest_is_stable_and_message_sensitive() {
        let d = panic_digest("chaos: injected panic in cell 3 (attempt 1)");
        assert_eq!(d.len(), 16);
        assert_eq!(
            d,
            panic_digest("chaos: injected panic in cell 3 (attempt 1)")
        );
        assert_ne!(
            d,
            panic_digest("chaos: injected panic in cell 4 (attempt 1)")
        );
        // Pinned: the digest is part of the artifact contract.
        assert_eq!(panic_digest(""), "cbf29ce484222325");
    }
}
