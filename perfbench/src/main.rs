//! Workload runner behind `perfbench/run.py`.
//!
//! ```text
//! perfbench setup   --workload W --seed N --work DIR --reps K
//! perfbench measure --workload W --seed N --work DIR --seconds S --trace 0|1
//! ```
//!
//! `setup` prepares what a workload needs before it is timed (its inputs)
//! `K` times and reports each set-up's time. `measure` runs the workload as a closed loop for
//! `S` seconds with the public `GridRunner` / fig5 library calls; with
//! `--trace 1` it spends half the time untraced and half on a traced pass
//! that calls each layer's public functions itself and times every call
//! from outside. Both print raw samples as one JSON line on stdout;
//! `run.py` turns them into metrics and checks the outputs.

mod fig5;
mod grid;

use std::path::PathBuf;
use std::time::Instant;

use bml_grid::json::Object;
use bml_trace::LoadTrace;

/// Worker threads every workload is capped at.
pub const THREADS: usize = 2;

/// Outcome checks made inside the process: each check is one attempt,
/// and each failure keeps its message for the report.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    /// Count one check; record `msg` when it failed.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 20 {
                self.messages.push(msg());
            }
        }
    }

    /// Count `n` attempted units of which `failed` failed.
    pub fn tally(&mut self, n: u64, failed: u64, msg: impl FnOnce() -> String) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            self.messages.push(msg());
        }
    }

    fn to_json(&self) -> Object {
        Object::new()
            .int("attempted", self.attempted)
            .int("failed", self.failed)
            .strs("messages", &self.messages)
    }
}

/// Run `f`, returning its result and its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Relative deviation of `b` from `a`, as the repository's 1e-9 energy
/// checks define closeness.
pub fn rel_err(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// `num / den`, or 0 when nothing was counted (a hit rate with no
/// lookups).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Constant-load segments and distinct load levels of a trace: the units
/// of opt and engine work.
pub fn trace_shape(trace: &LoadTrace) -> (u64, u64) {
    let segments = trace.constant_runs().count() as u64;
    let mut levels: Vec<u64> = trace.rates.iter().map(|r| r.to_bits()).collect();
    levels.sort_unstable();
    levels.dedup();
    (segments, levels.len() as u64)
}

/// Run `iteration` back to back until `seconds` have passed (at least
/// `min` and at most `max` times).
pub fn closed_loop(
    seconds: f64,
    min: usize,
    max: usize,
    mut iteration: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut i = 0;
    while i < min || (i < max && start.elapsed().as_secs_f64() < seconds) {
        iteration(i)?;
        i += 1;
    }
    Ok(())
}

struct Cli {
    command: String,
    workload: String,
    seed: u64,
    work: PathBuf,
    seconds: f64,
    trace: bool,
    reps: usize,
}

fn parse_cli() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or("missing command (setup | measure)")?;
    let mut cli = Cli {
        command,
        workload: String::new(),
        seed: 1998,
        work: PathBuf::from(".bench_work"),
        seconds: 10.0,
        trace: false,
        reps: 1,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cli.workload = value,
            "--seed" => cli.seed = value.parse().map_err(|e| bad(&e))?,
            "--work" => cli.work = PathBuf::from(value),
            "--seconds" => cli.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => cli.trace = value == "1",
            "--reps" => cli.reps = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(cli)
}

fn run(cli: &Cli) -> Result<Object, String> {
    std::fs::create_dir_all(&cli.work).map_err(|e| format!("{}: {e}", cli.work.display()))?;
    let mut checks = Checks::default();
    let body = match (cli.command.as_str(), cli.workload.as_str()) {
        ("setup", "fig5") => fig5::setup(cli.reps),
        ("setup", "grid-cold") => grid::setup(cli.seed, cli.reps)?,
        ("measure", "fig5") => fig5::measure(cli.seconds, cli.trace, &cli.work, &mut checks)?,
        ("measure", "grid-cold") => {
            grid::measure(cli.seed, &cli.work, cli.seconds, cli.trace, &mut checks)?
        }
        (c, w) => return Err(format!("unknown command {c} or workload {w}")),
    };
    Ok(body.obj("checks", checks.to_json()))
}

fn main() {
    let outcome = parse_cli().and_then(|cli| run(&cli));
    match outcome {
        Ok(body) => println!("{}", body.render()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
