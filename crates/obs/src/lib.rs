//! # bml-obs — two-plane run telemetry
//!
//! A zero-dependency telemetry subsystem built around one hard rule:
//! **what is measured deterministically and what is measured on the host
//! never mix.** A [`Recorder`] holds two strictly separated planes:
//!
//! * **Counters** ([`Counters`], the `counters` section of the artifact):
//!   monotone `u64` event counts merged in enumeration order. For a fixed
//!   spec they are byte-identical across thread counts, hosts, and cache
//!   temperature — safe to gate in CI (`render_counters` emits canonical
//!   bytes exactly for that purpose).
//! * **Timings** ([`Timings`], the `timings` section): wall-clock spans,
//!   log₂-bucketed histograms, and *host counts* (cache hits, steals,
//!   retries — anything that legitimately varies run-to-run). Explicitly
//!   excluded from determinism gates; CI may apply one-sided floors (e.g.
//!   a warm-cache hit-rate minimum) but never byte equality.
//!
//! The full artifact ([`Recorder::render_document`]) is a single-line JSON
//! document with schema [`SCHEMA`] (`bml-obs/v1`):
//!
//! ```json
//! {"schema":"bml-obs/v1","meta":{...},"counters":{...},
//!  "timings":{"spans":{...},"histograms":{...},"host":{...}}}
//! ```
//!
//! All values are integers (`u64` counts, microsecond durations) so the
//! rendering never touches float formatting. Keys are dotted lowercase
//! (`cells.ok`, `engine.events_skipped`, `phase.cells`) and sort
//! lexicographically in the output (BTreeMap order), which is what makes
//! the counter bytes canonical.
//!
//! [`Heartbeat`] is the throttle behind progress lines on stderr: it
//! answers "has at least the interval elapsed since the last emit?" and
//! leaves the actual line format to the caller.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Version tag of the rendered telemetry document.
pub const SCHEMA: &str = "bml-obs/v1";

/// Escape a string for inclusion in a JSON document.
///
/// Handles the mandatory set: quote, backslash, and control characters.
/// Everything else passes through unchanged (output stays UTF-8).
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn render_u64_map(map: &BTreeMap<String, u64>) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", escape_json(k), v);
    }
    out.push('}');
    out
}

/// The deterministic plane: monotone event counts keyed by dotted name.
///
/// Merged in enumeration order by the owning pipeline, the rendered bytes
/// are identical across thread counts, hosts, and cache temperature. CI
/// gates byte equality on [`Counters::render_json`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counters {
    map: BTreeMap<String, u64>,
}

impl Counters {
    /// An empty counter set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to counter `key` (creating it at zero).
    pub fn add(&mut self, key: &str, n: u64) {
        *self.map.entry(key.to_owned()).or_insert(0) += n;
    }

    /// Overwrite counter `key` with `n`.
    pub fn set(&mut self, key: &str, n: u64) {
        self.map.insert(key.to_owned(), n);
    }

    /// Current value of `key` (0 when absent).
    #[must_use]
    pub fn get(&self, key: &str) -> u64 {
        self.map.get(key).copied().unwrap_or(0)
    }

    /// Fold another counter set into this one (sums per key).
    pub fn absorb(&mut self, other: &Counters) {
        for (k, v) in &other.map {
            *self.map.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Iterate `(key, value)` in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.map.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// True when no counter has been touched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Canonical single-line JSON object, keys sorted, integer values —
    /// the byte-gateable `counters` section of the artifact.
    #[must_use]
    pub fn render_json(&self) -> String {
        render_u64_map(&self.map)
    }
}

/// Aggregate of one named wall-clock span.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of times the span was recorded.
    pub count: u64,
    /// Sum of recorded durations, microseconds.
    pub total_us: u64,
    /// Longest single recording, microseconds.
    pub max_us: u64,
}

/// Log₂-bucketed duration histogram (microseconds).
///
/// An observation of `v` µs lands in the bucket whose upper bound is the
/// smallest power of two `>= max(v, 1)`; bucket keys render as that upper
/// bound. Coarse on purpose: host timing is for *shape*, not gates.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: BTreeMap<u64, u64>,
}

impl Histogram {
    /// Record one observation of `us` microseconds.
    pub fn observe(&mut self, us: u64) {
        *self
            .buckets
            .entry(us.max(1).next_power_of_two())
            .or_insert(0) += 1;
    }

    /// Total observations across all buckets.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.values().sum()
    }

    fn render_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (le, n)) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{le}\":{n}");
        }
        out.push('}');
        out
    }
}

/// The host plane: wall-clock spans, histograms, and host-variant counts.
///
/// Nothing in here is comparable across runs; CI must never gate byte
/// equality on it (one-sided floors on `host` counts are fine).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Timings {
    spans: BTreeMap<String, SpanStat>,
    histograms: BTreeMap<String, Histogram>,
    host: BTreeMap<String, u64>,
}

impl Timings {
    /// Record one completed wall-clock span under `name`.
    pub fn record_span(&mut self, name: &str, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let s = self.spans.entry(name.to_owned()).or_default();
        s.count += 1;
        s.total_us += us;
        s.max_us = s.max_us.max(us);
    }

    /// Record one histogram observation (microseconds) under `name`.
    pub fn observe_us(&mut self, name: &str, us: u64) {
        self.histograms
            .entry(name.to_owned())
            .or_default()
            .observe(us);
    }

    /// Add `n` to host count `key` — a count that legitimately varies by
    /// host, thread count, or cache temperature (hits, steals, retries).
    pub fn host_add(&mut self, key: &str, n: u64) {
        *self.host.entry(key.to_owned()).or_insert(0) += n;
    }

    /// Current value of host count `key` (0 when absent).
    #[must_use]
    pub fn host_get(&self, key: &str) -> u64 {
        self.host.get(key).copied().unwrap_or(0)
    }

    /// Span aggregate by name, if recorded.
    #[must_use]
    pub fn span(&self, name: &str) -> Option<SpanStat> {
        self.spans.get(name).copied()
    }

    /// Fold another timing set into this one.
    pub fn absorb(&mut self, other: &Timings) {
        for (k, s) in &other.spans {
            let e = self.spans.entry(k.clone()).or_default();
            e.count += s.count;
            e.total_us += s.total_us;
            e.max_us = e.max_us.max(s.max_us);
        }
        for (k, h) in &other.histograms {
            let e = self.histograms.entry(k.clone()).or_default();
            for (le, n) in &h.buckets {
                *e.buckets.entry(*le).or_insert(0) += n;
            }
        }
        for (k, v) in &other.host {
            *self.host.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Single-line JSON of the whole timing plane:
    /// `{"spans":{...},"histograms":{...},"host":{...}}`.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"spans\":{");
        for (i, (k, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"total_us\":{},\"max_us\":{}}}",
                escape_json(k),
                s.count,
                s.total_us,
                s.max_us
            );
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape_json(k), h.render_json());
        }
        out.push_str("},\"host\":");
        out.push_str(&render_u64_map(&self.host));
        out.push('}');
        out
    }
}

/// The two planes together: what a run hands back as its telemetry.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Recorder {
    /// Deterministic plane (see [`Counters`]).
    pub counters: Counters,
    /// Host plane (see [`Timings`]).
    pub timings: Timings,
}

impl Recorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to deterministic counter `key`.
    pub fn count(&mut self, key: &str, n: u64) {
        self.counters.add(key, n);
    }

    /// Add `n` to host count `key` (host plane — never gated).
    pub fn host_count(&mut self, key: &str, n: u64) {
        self.timings.host_add(key, n);
    }

    /// Record a completed wall-clock span.
    pub fn span(&mut self, name: &str, elapsed: Duration) {
        self.timings.record_span(name, elapsed);
    }

    /// Time `f` and record the elapsed wall clock as span `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.span(name, t0.elapsed());
        out
    }

    /// Fold another recorder (both planes) into this one.
    pub fn absorb(&mut self, other: &Recorder) {
        self.counters.absorb(&other.counters);
        self.timings.absorb(&other.timings);
    }

    /// Canonical bytes of the `counters` section alone — the unit CI and
    /// the determinism suite compare with `==` on the raw string.
    #[must_use]
    pub fn render_counters(&self) -> String {
        self.counters.render_json()
    }

    /// The full `bml-obs/v1` document as a single JSON line (trailing
    /// newline included). `meta` is embedded verbatim as string fields in
    /// the order given — put run identity there (grid name, cell count),
    /// never measurements.
    #[must_use]
    pub fn render_document(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"schema\":\"{SCHEMA}\",\"meta\":{{");
        for (i, (k, v)) in meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", escape_json(k), escape_json(v));
        }
        let _ = write!(
            out,
            "}},\"counters\":{},\"timings\":{}}}",
            self.counters.render_json(),
            self.timings.render_json()
        );
        out.push('\n');
        out
    }
}

/// Throttle for progress heartbeats: at most one emit per interval.
#[derive(Debug)]
pub struct Heartbeat {
    interval: Duration,
    started: Instant,
    last: Instant,
}

impl Heartbeat {
    /// A heartbeat that first fires once `interval` has elapsed.
    #[must_use]
    pub fn new(interval: Duration) -> Self {
        let now = Instant::now();
        Heartbeat {
            interval,
            started: now,
            last: now,
        }
    }

    /// True at most once per interval; arms the next window when true.
    pub fn ready(&mut self) -> bool {
        if self.last.elapsed() >= self.interval {
            self.last = Instant::now();
            true
        } else {
            false
        }
    }

    /// Wall clock since construction.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_render_sorted_and_canonical() {
        let mut c = Counters::new();
        c.add("b.two", 2);
        c.add("a.one", 1);
        c.add("b.two", 3);
        assert_eq!(c.render_json(), "{\"a.one\":1,\"b.two\":5}");
        assert_eq!(c.get("b.two"), 5);
        assert_eq!(c.get("missing"), 0);
    }

    #[test]
    fn counters_absorb_is_order_independent() {
        let mut a = Counters::new();
        a.add("x", 1);
        a.add("y", 2);
        let mut b = Counters::new();
        b.add("y", 5);
        b.add("z", 1);
        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        assert_eq!(ab.render_json(), ba.render_json());
        assert_eq!(ab.get("y"), 7);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = Histogram::default();
        h.observe(0); // clamps into the 1 µs bucket
        h.observe(1);
        h.observe(3);
        h.observe(4);
        h.observe(1000);
        assert_eq!(h.render_json(), "{\"1\":2,\"4\":2,\"1024\":1}");
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn spans_aggregate_count_total_max() {
        let mut t = Timings::default();
        t.record_span("phase.x", Duration::from_micros(10));
        t.record_span("phase.x", Duration::from_micros(30));
        let s = t.span("phase.x").unwrap();
        assert_eq!((s.count, s.total_us, s.max_us), (2, 40, 30));
        assert!(t.span("phase.missing").is_none());
    }

    #[test]
    fn document_has_separated_planes() {
        let mut r = Recorder::new();
        r.count("cells.ok", 3);
        r.host_count("cache.hits", 2);
        r.span("phase.cells", Duration::from_micros(5));
        let doc = r.render_document(&[("grid", "smoke".to_owned())]);
        assert!(doc.starts_with("{\"schema\":\"bml-obs/v1\",\"meta\":{\"grid\":\"smoke\"},"));
        assert!(doc.contains("\"counters\":{\"cells.ok\":3}"));
        // The host count lives inside timings, not counters.
        assert!(doc.contains("\"host\":{\"cache.hits\":2}"));
        assert!(!doc.contains("\"counters\":{\"cache.hits\""));
        assert!(doc.ends_with("}\n"));
    }

    #[test]
    fn escaping_covers_quotes_and_controls() {
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape_json("\u{01}"), "\\u0001");
        assert_eq!(escape_json("a\nb\tc\u{1}"), "a\\nb\\tc\\u0001");
    }

    #[test]
    fn recorder_absorb_merges_both_planes() {
        let mut a = Recorder::new();
        a.count("n", 1);
        a.host_count("h", 1);
        a.span("s", Duration::from_micros(7));
        let mut b = Recorder::new();
        b.count("n", 2);
        b.host_count("h", 3);
        b.span("s", Duration::from_micros(2));
        a.absorb(&b);
        assert_eq!(a.counters.get("n"), 3);
        assert_eq!(a.timings.host_get("h"), 4);
        let s = a.timings.span("s").unwrap();
        assert_eq!((s.count, s.total_us, s.max_us), (2, 9, 7));
    }

    #[test]
    fn heartbeat_throttles() {
        let mut hb = Heartbeat::new(Duration::from_secs(3600));
        assert!(!hb.ready());
        let mut hot = Heartbeat::new(Duration::ZERO);
        assert!(hot.ready());
    }
}
