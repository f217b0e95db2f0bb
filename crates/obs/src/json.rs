//! The workspace's one JSON writer: an ordered object builder.
//!
//! The workspace has no serialization dependency, so every JSON document
//! — the grid's `BENCH_grid.json`, the bench binaries' perf-trajectory
//! summaries, and this crate's own `bml-obs/v1` telemetry — is rendered
//! by hand through [`Object`]. Field order is the insertion order and
//! every value is formatted deterministically — two renders of equal data
//! are equal *bytes*, which is what the grid's thread-count-independence
//! guarantee and the telemetry counter gate are stated against. Keys and
//! string values are escaped here and nowhere else. `bml-grid` re-exports
//! the module as `bml_grid::json`, and `bml-bench` as `bml_bench::json`.

use std::fmt::Write as _;

/// An ordered JSON object under construction.
#[derive(Debug, Default)]
pub struct Object {
    fields: Vec<(String, String)>,
}

impl Object {
    /// Empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a string field (escaped).
    #[must_use]
    pub fn str(mut self, key: &str, v: &str) -> Self {
        let escaped = escape(v);
        self.fields.push((key.into(), format!("\"{escaped}\"")));
        self
    }

    /// Add an integer field.
    #[must_use]
    pub fn int(mut self, key: &str, v: u64) -> Self {
        self.fields.push((key.into(), v.to_string()));
        self
    }

    /// Add a number field (`null` when not finite).
    #[must_use]
    pub fn num(mut self, key: &str, v: f64) -> Self {
        self.fields.push((key.into(), fmt_f64(v)));
        self
    }

    /// Add an array of numbers.
    #[must_use]
    pub fn nums(mut self, key: &str, vs: &[f64]) -> Self {
        let body: Vec<String> = vs.iter().map(|&v| fmt_f64(v)).collect();
        self.fields
            .push((key.into(), format!("[{}]", body.join(","))));
        self
    }

    /// Add an array of strings (each escaped).
    #[must_use]
    pub fn strs(mut self, key: &str, vs: &[String]) -> Self {
        let body: Vec<String> = vs.iter().map(|v| format!("\"{}\"", escape(v))).collect();
        self.fields
            .push((key.into(), format!("[{}]", body.join(","))));
        self
    }

    /// Add a literal `null` field.
    #[must_use]
    pub fn null(mut self, key: &str) -> Self {
        self.fields.push((key.into(), "null".into()));
        self
    }

    /// Add a nested object.
    #[must_use]
    pub fn obj(mut self, key: &str, v: Object) -> Self {
        self.fields.push((key.into(), v.render()));
        self
    }

    /// Add an array of nested objects.
    #[must_use]
    pub fn objs(mut self, key: &str, vs: Vec<Object>) -> Self {
        let body: Vec<String> = vs.into_iter().map(|o| o.render()).collect();
        self.fields
            .push((key.into(), format!("[{}]", body.join(","))));
        self
    }

    /// Serialize to a JSON string.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", escape(k), v))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// Write to `path` with a trailing newline.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render() + "\n")
    }
}

/// Escape a string for inclusion in a JSON document: quote, backslash and
/// control characters. Everything else passes through unchanged (output
/// stays UTF-8).
fn escape(s: &str) -> String {
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

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_renders_ordered_fields() {
        let o = Object::new()
            .str("name", "fig5 \"smoke\"")
            .int("days", 2)
            .num("energy", 1.5)
            .num("bad", f64::NAN)
            .null("refine")
            .nums("daily", &[1.0, 2.5])
            .strs("tags", &["a".into(), "b\"c".into()])
            .obj("stats", Object::new().num("mean", 0.25))
            .objs("rows", vec![Object::new().int("d", 0)]);
        assert_eq!(
            o.render(),
            "{\"name\":\"fig5 \\\"smoke\\\"\",\"days\":2,\"energy\":1.5,\"bad\":null,\
             \"refine\":null,\"daily\":[1,2.5],\"tags\":[\"a\",\"b\\\"c\"],\
             \"stats\":{\"mean\":0.25},\"rows\":[{\"d\":0}]}"
        );
    }

    #[test]
    fn control_characters_are_escaped() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape("\u{01}"), "\\u0001");
        assert_eq!(escape("a\nb\tc\u{1}"), "a\\nb\\tc\\u0001");
        let o = Object::new()
            .str("k\t", "a\nb\tc\u{1}")
            .strs("v", &["\r".into()]);
        assert_eq!(
            o.render(),
            "{\"k\\t\":\"a\\nb\\tc\\u0001\",\"v\":[\"\\r\"]}"
        );
    }
}
