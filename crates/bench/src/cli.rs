//! Shared CLI argument plumbing for the experiment binaries.
//!
//! Every binary parses the same flag set through [`Args`], so
//! `--seed`/`--days`/`--threads`/`--out-dir`/`--stepping` mean the same
//! thing everywhere and the parse rules live (and are tested) once.
//! The load-bearing rule: optional flags that binaries default
//! differently (`--days`, `--stepping`) parse to `Option` — an explicit
//! value is never silently rewritten to a binary's default (see
//! [`Args::days_or`]).

/// The usage line printed by `--help` and on any parse error.
pub const USAGE: &str = "usage: [--seed N] [--days N] [--window S] [--csv] \
     [--json PATH] [--threads N] [--out-dir PATH] [--cache-dir PATH] \
     [--stepping event|per-second] [--resume] [--max-retries N] \
     [--chaos SEED] [--kill-after N] [--telemetry-out PATH]";

/// Common command-line options of the experiment binaries.
///
/// Flags: `--seed N`, `--days N`, `--window S`, `--csv`, `--json PATH`,
/// `--threads N`, `--out-dir PATH`, `--cache-dir PATH`,
/// `--stepping event|per-second`, `--resume`, `--max-retries N`,
/// `--chaos SEED`, `--kill-after N`, `--telemetry-out PATH` and
/// `--help`. Unknown flags abort with a usage message.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// RNG seed (default 1998, the shipped experiment seed).
    pub seed: u64,
    /// Number of trace days to simulate (at least 1); `None` when `--days`
    /// was not given, so each binary applies its own default (the paper's 87 for
    /// the figure replays, smaller for the repeated sweeps) without
    /// mistaking an explicit request for the default. Read through
    /// [`Args::days_or`].
    pub days: Option<u32>,
    /// Look-ahead window override (seconds, at least 1); `None` = the
    /// paper's 378 s.
    pub window: Option<u64>,
    /// Emit CSV instead of aligned text tables.
    pub csv: bool,
    /// Also write a machine-readable summary (the `BENCH_*.json` perf
    /// trajectory CI uploads) to this path.
    pub json: Option<String>,
    /// Worker-thread cap for the parallel sweeps and grids; `None` =
    /// rayon's default. Thread count never changes results, only
    /// wall-clock time.
    pub threads: Option<usize>,
    /// Directory artifact-writing binaries (`grid`) emit into
    /// (default `.`).
    pub out_dir: String,
    /// Content-addressed cell-cache directory for the `grid` binary;
    /// `None` disables caching. Safe to share across specs and thread
    /// counts — keys hash cell content, never execution shape.
    pub cache_dir: Option<String>,
    /// Engine stepping mode for the simulation binaries; `None` when
    /// `--stepping` was not given (single-run binaries default to
    /// event-driven via [`Args::stepping_or_default`]; the `grid` binary
    /// sweeps both modes unless one is requested explicitly).
    pub stepping: Option<bml_sim::Stepping>,
    /// Resume the `grid` binary from the journal a previous (killed) run
    /// left in `--out-dir`: already-decided cells replay from disk.
    pub resume: bool,
    /// Retry budget for panicking grid cells; `None` = the runner's
    /// default (one retry). Read through [`Args::max_retries_or`].
    pub max_retries: Option<u32>,
    /// Chaos seed for the `grid` binary; `None` disables fault injection.
    /// A seed enables the smoke chaos schedule (cell panics + torn
    /// journal writes) — see the `grid` binary docs.
    pub chaos: Option<u64>,
    /// Deterministically crash the `grid` binary after N emitted cells
    /// (crash-resume testing); `None` runs to completion.
    pub kill_after: Option<usize>,
    /// Path for the `bml-obs/v1` telemetry document. The `grid` binary
    /// defaults to `BENCH_grid.telemetry.json` under `--out-dir`; other
    /// binaries only write telemetry when this flag is given.
    pub telemetry_out: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            seed: 1998,
            days: None,
            window: None,
            csv: false,
            json: None,
            threads: None,
            out_dir: ".".into(),
            cache_dir: None,
            stepping: None,
            resume: false,
            max_retries: None,
            chaos: None,
            kill_after: None,
            telemetry_out: None,
        }
    }
}

impl Args {
    /// Parse from `std::env::args`, exiting with a usage message on error.
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator, exiting on error.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        Self::try_parse_from(args).unwrap_or_else(|msg| die(&msg))
    }

    /// Parse from an explicit iterator; errors (including `--help`)
    /// become the message the CLI would print before exiting, usage line
    /// included — this is what the unknown-flag tests exercise.
    pub fn try_parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .ok_or_else(|| format!("missing value for {name}\n{USAGE}"))
            };
            match flag.as_str() {
                "--seed" => out.seed = parse_num(&value("--seed")?, "--seed")?,
                "--days" => {
                    let d: u32 = parse_num(&value("--days")?, "--days")?;
                    if d == 0 {
                        return Err(format!("--days must be at least 1\n{USAGE}"));
                    }
                    out.days = Some(d);
                }
                "--window" => {
                    let w: u64 = parse_num(&value("--window")?, "--window")?;
                    if w == 0 {
                        return Err(format!("--window must be at least 1 s\n{USAGE}"));
                    }
                    out.window = Some(w);
                }
                "--threads" => {
                    let n: usize = parse_num(&value("--threads")?, "--threads")?;
                    if n == 0 {
                        return Err(format!("--threads must be at least 1\n{USAGE}"));
                    }
                    out.threads = Some(n);
                }
                "--out-dir" => out.out_dir = value("--out-dir")?,
                "--cache-dir" => out.cache_dir = Some(value("--cache-dir")?),
                "--csv" => out.csv = true,
                "--json" => out.json = Some(value("--json")?),
                "--stepping" => {
                    out.stepping = Some(match value("--stepping")?.as_str() {
                        "event" | "event-driven" => bml_sim::Stepping::EventDriven,
                        "per-second" | "per_second" => bml_sim::Stepping::PerSecond,
                        other => {
                            return Err(format!(
                                "bad value '{other}' for --stepping (want 'event' or 'per-second')\n{USAGE}"
                            ))
                        }
                    })
                }
                "--resume" => out.resume = true,
                "--max-retries" => {
                    let n: u32 = parse_num(&value("--max-retries")?, "--max-retries")?;
                    if n == u32::MAX {
                        // The runner counts `n + 1` attempts in a u32.
                        return Err(format!(
                            "--max-retries must be below {}\n{USAGE}",
                            u32::MAX
                        ));
                    }
                    out.max_retries = Some(n);
                }
                "--chaos" => out.chaos = Some(parse_num(&value("--chaos")?, "--chaos")?),
                "--kill-after" => {
                    let n: usize = parse_num(&value("--kill-after")?, "--kill-after")?;
                    if n == 0 {
                        return Err(format!("--kill-after must be at least 1\n{USAGE}"));
                    }
                    out.kill_after = Some(n);
                }
                "--telemetry-out" => out.telemetry_out = Some(value("--telemetry-out")?),
                "--help" | "-h" => return Err(USAGE.into()),
                other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
            }
        }
        Ok(out)
    }

    /// The trace span to simulate: `--days` when given, otherwise the
    /// binary's own default.
    pub fn days_or(&self, default: u32) -> u32 {
        self.days.unwrap_or(default)
    }

    /// The retry budget for panicking cells: `--max-retries` when given,
    /// otherwise the runner's default.
    pub fn max_retries_or(&self, default: u32) -> u32 {
        self.max_retries.unwrap_or(default)
    }

    /// The stepping mode for single-run binaries: `--stepping` when
    /// given, otherwise event-driven.
    pub fn stepping_or_default(&self) -> bml_sim::Stepping {
        self.stepping.unwrap_or_default()
    }

    /// A rayon pool honoring `--threads` (the default pool when unset).
    /// Run parallel sections under `pool().install(|| ...)`.
    pub fn pool(&self) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(self.threads.unwrap_or(0))
            .build()
            .expect("thread pool construction cannot fail")
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("bad value '{s}' for {flag}\n{USAGE}"))
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Args {
        Args::parse_from(v.iter().map(|s| s.to_string()))
    }

    fn try_parse(v: &[&str]) -> Result<Args, String> {
        Args::try_parse_from(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn telemetry_out_requires_a_value() {
        let err = try_parse(&["--telemetry-out"]).unwrap_err();
        assert!(err.contains("missing value for --telemetry-out"), "{err}");
        assert!(err.contains("--telemetry-out PATH"), "{err}");
        assert_eq!(parse(&[]).telemetry_out, None);
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.seed, 1998);
        assert_eq!(a.days, None);
        assert_eq!(a.days_or(87), 87);
        assert_eq!(a.window, None);
        assert!(!a.csv);
        assert_eq!(a.threads, None);
        assert_eq!(a.out_dir, ".");
        assert_eq!(a.cache_dir, None);
        assert_eq!(a.stepping, None);
        assert_eq!(a.stepping_or_default(), bml_sim::Stepping::EventDriven);
        assert!(!a.resume);
        assert_eq!(a.max_retries, None);
        assert_eq!(a.max_retries_or(1), 1);
        assert_eq!(a.chaos, None);
        assert_eq!(a.kill_after, None);
    }

    #[test]
    fn explicit_days_survive_even_at_a_binary_default_value() {
        // `--days 87` must be distinguishable from "no --days": binaries
        // with smaller defaults must not silently shrink an explicit 87.
        let a = parse(&["--days", "87"]);
        assert_eq!(a.days, Some(87));
        assert_eq!(a.days_or(3), 87);
    }

    #[test]
    fn all_flags() {
        let a = parse(&[
            "--seed",
            "7",
            "--days",
            "3",
            "--window",
            "600",
            "--csv",
            "--json",
            "out.json",
            "--threads",
            "4",
            "--out-dir",
            "artifacts",
            "--cache-dir",
            "/tmp/cells",
            "--stepping",
            "per-second",
            "--telemetry-out",
            "telemetry.json",
        ]);
        assert_eq!(a.seed, 7);
        assert_eq!(a.days, Some(3));
        assert_eq!(a.window, Some(600));
        assert!(a.csv);
        assert_eq!(a.json.as_deref(), Some("out.json"));
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.out_dir, "artifacts");
        assert_eq!(a.cache_dir.as_deref(), Some("/tmp/cells"));
        assert_eq!(a.stepping, Some(bml_sim::Stepping::PerSecond));
        assert_eq!(a.telemetry_out.as_deref(), Some("telemetry.json"));
    }

    #[test]
    fn fault_tolerance_flags() {
        let a = parse(&[
            "--resume",
            "--max-retries",
            "3",
            "--chaos",
            "42",
            "--kill-after",
            "72",
        ]);
        assert!(a.resume);
        assert_eq!(a.max_retries, Some(3));
        assert_eq!(a.max_retries_or(1), 3);
        assert_eq!(a.chaos, Some(42));
        assert_eq!(a.kill_after, Some(72));

        let err = try_parse(&["--kill-after", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = try_parse(&["--chaos"]).unwrap_err();
        assert!(err.contains("missing value for --chaos"), "{err}");
    }

    #[test]
    fn stepping_aliases() {
        assert_eq!(
            parse(&["--stepping", "event-driven"]).stepping,
            Some(bml_sim::Stepping::EventDriven)
        );
        assert_eq!(
            parse(&["--stepping", "per_second"]).stepping,
            Some(bml_sim::Stepping::PerSecond)
        );
    }

    #[test]
    fn unknown_flag_reports_usage() {
        let err = try_parse(&["--bogus"]).unwrap_err();
        assert!(err.contains("unknown flag '--bogus'"), "{err}");
        assert!(err.contains("usage:"), "{err}");
        assert!(err.contains("--threads N"), "{err}");
        assert!(err.contains("--out-dir PATH"), "{err}");
        assert!(err.contains("--cache-dir PATH"), "{err}");
        // No binary reads a noise sigma, so the flag is not accepted.
        let err = try_parse(&["--noise", "0.3"]).unwrap_err();
        assert!(err.contains("unknown flag '--noise'"), "{err}");
        assert!(!USAGE.contains("--noise"), "{USAGE}");
    }

    #[test]
    fn cache_dir_requires_a_value() {
        let err = try_parse(&["--cache-dir"]).unwrap_err();
        assert!(err.contains("missing value for --cache-dir"), "{err}");
    }

    #[test]
    fn missing_and_bad_values_report_usage() {
        let err = try_parse(&["--threads"]).unwrap_err();
        assert!(err.contains("missing value for --threads"), "{err}");
        assert!(err.contains("usage:"), "{err}");
        let err = try_parse(&["--threads", "zero"]).unwrap_err();
        assert!(err.contains("bad value 'zero' for --threads"), "{err}");
        let err = try_parse(&["--threads", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = try_parse(&["--window", "0"]).unwrap_err();
        assert!(err.contains("--window must be at least 1 s"), "{err}");
        let err = try_parse(&["--days", "0"]).unwrap_err();
        assert!(err.contains("--days must be at least 1"), "{err}");
        assert!(err.contains("usage:"), "{err}");
        let err = try_parse(&["--max-retries", "4294967295"]).unwrap_err();
        assert!(err.contains("--max-retries must be below"), "{err}");
        assert!(err.contains("usage:"), "{err}");
        let most = parse(&["--max-retries", "4294967294"]);
        assert_eq!(most.max_retries, Some(u32::MAX - 1));
        let err = try_parse(&["--stepping", "warp"]).unwrap_err();
        assert!(err.contains("bad value 'warp' for --stepping"), "{err}");
    }

    #[test]
    fn help_is_the_usage_line() {
        assert_eq!(try_parse(&["--help"]).unwrap_err(), USAGE);
        assert_eq!(try_parse(&["-h"]).unwrap_err(), USAGE);
    }

    #[test]
    fn pool_honors_threads() {
        let mut a = parse(&["--threads", "3"]);
        assert_eq!(a.pool().current_num_threads(), 3);
        a.threads = None;
        assert!(a.pool().current_num_threads() >= 1);
    }

    #[test]
    fn json_reexport_renders() {
        // The builder itself is tested in bml-grid; pin the crate-root
        // re-export every binary imports.
        assert_eq!(crate::json::Object::new().int("d", 0).render(), "{\"d\":0}");
    }
}
