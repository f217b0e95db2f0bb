//! Tier-1 check of the `grid` binary's stderr contract: one JSON event
//! per line, also under `--chaos`, whose caught cell panics used to print
//! the default panic hook's multi-line text. The run asks for backtraces,
//! so the check also covers the multi-line backtrace the `panic` event
//! must keep on its own line. CI's `chaos-smoke` parses every line of its
//! own chaos run the same way.

use std::process::Command;

/// The rest of `s` after one JSON string (`s` starts at its opening
/// quote), or `None` when the string is malformed or holds a raw control
/// character such as a newline.
fn string(s: &str) -> Option<&str> {
    let mut chars = s.strip_prefix('"')?.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some(&s[i + 2..]),
            '\\' => {
                let escape = chars.next()?.1;
                if escape == 'u' {
                    for _ in 0..4 {
                        chars.next().filter(|(_, h)| h.is_ascii_hexdigit())?;
                    }
                } else if !"\"\\/bfnrt".contains(escape) {
                    return None;
                }
            }
            c if (c as u32) < 0x20 => return None,
            _ => {}
        }
    }
    None
}

/// The rest of `s` after a comma-separated sequence of `item`s and its
/// closing `close` (`s` starts after the opening bracket).
fn sequence(s: &str, close: char, item: impl Fn(&str) -> Option<&str>) -> Option<&str> {
    let mut s = s.trim_start();
    if let Some(rest) = s.strip_prefix(close) {
        return Some(rest);
    }
    loop {
        s = item(s)?.trim_start();
        match s.strip_prefix(',') {
            Some(rest) => s = rest.trim_start(),
            None => return s.strip_prefix(close),
        }
    }
}

/// The rest of `s` after one JSON value, or `None` on a syntax error.
fn value(s: &str) -> Option<&str> {
    let s = s.trim_start();
    match s.chars().next()? {
        '{' => sequence(&s[1..], '}', |member| {
            let rest = string(member)?.trim_start().strip_prefix(':')?;
            value(rest)
        }),
        '[' => sequence(&s[1..], ']', value),
        '"' => string(s),
        _ => {
            let end = s
                .find(|c: char| !(c.is_ascii_alphanumeric() || "+-.".contains(c)))
                .unwrap_or(s.len());
            let token = &s[..end];
            let literal = ["true", "false", "null"].contains(&token);
            // Rust also parses `inf` and `NaN`, which JSON has no word for.
            let number = token.starts_with(|c: char| c == '-' || c.is_ascii_digit())
                && token.parse::<f64>().is_ok();
            (literal || number).then(|| &s[end..])
        }
    }
}

/// The event name of a stderr line that is exactly one JSON object whose
/// first field is a string `event`, or `None`.
fn event_name(line: &str) -> Option<&str> {
    if !value(line)?.trim().is_empty() {
        return None;
    }
    let name = line.strip_prefix(r#"{"event":""#)?;
    name.split('"').next()
}

/// A host count from the telemetry document.
fn host_count(document: &str, key: &str) -> u64 {
    let field = format!("\"{key}\":");
    let at = document
        .find(&field)
        .unwrap_or_else(|| panic!("telemetry has no {key}"))
        + field.len();
    let digits: String = document[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

#[test]
fn json_reader_rejects_what_is_not_one_object() {
    for ok in [
        r#"{"event":"x"}"#,
        r#"{"event":"x","n":-1.5e3,"a":[1,"b\né",null,{}],"t":true}"#,
    ] {
        assert_eq!(event_name(ok), Some("x"), "{ok}");
    }
    for bad in [
        "thread '<unnamed>' panicked at crates/sim/src/exec.rs:295:25:",
        r#"{"event":"x"} {"event":"y"}"#,
        "{\"event\":\"x\",\"m\":\"two\nlines\"}",
        r#"{"event":"x","n":1,}"#,
        r#"{"message":"x","event":"y"}"#,
        r#"{"event":"x""#,
        r#"{"event":"x","n":NaN}"#,
    ] {
        assert_eq!(event_name(bad), None, "{bad}");
    }
}

#[test]
fn chaos_stderr_is_one_json_event_per_line() {
    let dir = std::env::temp_dir().join("bml_grid_event_lines");
    std::fs::remove_dir_all(&dir).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_grid"))
        .args(["--days", "1", "--chaos", "42", "--out-dir"])
        .arg(&dir)
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("grid starts");
    assert!(out.status.success(), "grid failed: {:?}", out.status);
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    let mut panics = 0;
    for line in stderr.lines() {
        let name = event_name(line).unwrap_or_else(|| panic!("not one JSON event: {line}"));
        if name == "panic" {
            panics += 1;
            for field in ["message", "location", "backtrace"] {
                assert!(
                    line.contains(&format!(",\"{field}\":\"")),
                    "panic event without {field}: {line}"
                );
            }
        }
    }
    let telemetry = std::fs::read_to_string(dir.join("BENCH_grid.telemetry.json")).unwrap();
    let injections = host_count(&telemetry, "chaos.injections");
    assert!(injections > 0, "chaos 42 injects panics on the 1-day grid");
    assert_eq!(panics, injections, "one panic event per injected panic");
    std::fs::remove_dir_all(&dir).ok();
}
