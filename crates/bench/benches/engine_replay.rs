//! Replay-throughput bench: per-second vs event-driven stepping. Three
//! flavors run on a two-day synthetic trace with realistic plateau
//! structure (5-minute constant-load blocks following a diurnal shape —
//! the granularity of binned production traffic):
//!
//! * **clean** — exact look-ahead-max prediction, no failures;
//! * **noisy** — sigma-0.2 counter-based prediction noise (resampled
//!   once per look-ahead window, like the grid's noisy cells);
//! * **failures** — counter-based machine-crash injection (geometric
//!   inter-failure gaps per machine slot).
//!
//! A fourth, **worldcup**, runs the clean cell on the trace the grid and
//! Fig. 5 actually replay: two worldcup-tournament days (seed 1998),
//! whose constant-load runs last about a second. There the event loop
//! still pays one span per run, so its advantage is small.
//!
//! The noisy and failure flavors used to silently fall back to the
//! per-second reference loop (sequential RNG draws); counter-based
//! sampling keeps them on the event path, and this bench is the proof.
//!
//! The headline metric printed before the criterion timings is
//! **simulated-seconds per wall-clock second** for each engine, plus one
//! speedup ratio per flavor. CI parses the speedup lines of the three
//! plateau flavors from this bench's output and fails below a
//! conservative 3x floor, absorbing shared-runner timing noise; the
//! worldcup line is printed in the same format but not gated.
//!
//! Each cell also builds its look-ahead table, which both loops pay
//! alike. An ungated line per flavor prints that build and the speedup
//! of the loops alone, without it: on worldcup the build is a large
//! share of an event-driven cell, so the end-to-end ratio understates
//! what the event loop itself gains.

use std::time::Instant;

use bml_core::bml::BmlInfrastructure;
use bml_core::catalog;
use bml_sim::{run_cell, CellConfig, FailureModel, ScenarioResult, SimConfig, Stepping};
use bml_trace::{registry, LoadTrace, LookaheadMaxTable};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// Deterministic two-day trace of 5-minute constant-load plateaus
/// tracking a diurnal cycle between ~10 and ~2510 req/s.
fn plateau_trace(days: u32) -> LoadTrace {
    let n = days as usize * 86_400;
    let mut rates = Vec::with_capacity(n);
    for t in 0..n {
        let block_start = t / 300 * 300; // 5-minute plateaus
        let hour = (block_start % 86_400) as f64 / 3_600.0;
        let phase = (hour - 4.0) / 24.0 * std::f64::consts::TAU;
        let diurnal = 0.5 - 0.5 * phase.cos();
        rates.push((10.0 + 2_500.0 * diurnal).round());
    }
    LoadTrace::new(0, rates)
}

/// The benched flavors: (label, trace, cell template with stepping
/// unset).
fn flavors() -> [(&'static str, LoadTrace, CellConfig); 4] {
    let plateau = plateau_trace(2);
    let worldcup = registry::generate("worldcup-tournament", 2, 1998).expect("registry trace");
    let clean = CellConfig::from_sim(&SimConfig::default());
    let noisy = CellConfig {
        noise_sigma: 0.2,
        noise_seed: 42,
        ..clean.clone()
    };
    let failures = CellConfig {
        // ~2 expected crashes per machine per simulated day.
        failures: Some(FailureModel::new(43_200.0, 300, 7)),
        ..clean.clone()
    };
    [
        ("clean", plateau.clone(), clean.clone()),
        ("noisy", plateau.clone(), noisy),
        ("failures", plateau, failures),
        ("worldcup", worldcup, clean),
    ]
}

fn with_stepping(cell: &CellConfig, stepping: Stepping) -> CellConfig {
    CellConfig {
        stepping,
        ..cell.clone()
    }
}

fn bench_engine_replay(c: &mut Criterion) {
    let bml = BmlInfrastructure::build(&catalog::table1()).unwrap();
    let flavors = flavors();

    // Headline: simulated-seconds per wall-clock second, per engine and
    // flavor. Best-of-5 (minimum wall time) so the CI-gated ratios are
    // not at the mercy of a single OS-scheduling stall on a shared
    // runner — the event-driven replay finishes in ~1 ms, where one-shot
    // timing would be dominated by jitter.
    for (flavor, trace, cell) in &flavors {
        let sim_secs = trace.len() as f64;
        let mut walls = [0.0f64; 2];
        let mut rates = [0.0f64; 2];
        for (i, stepping) in [Stepping::PerSecond, Stepping::EventDriven]
            .into_iter()
            .enumerate()
        {
            let cfg = with_stepping(cell, stepping);
            let mut best_wall = f64::INFINITY;
            let mut result: Option<ScenarioResult> = None;
            for _ in 0..5 {
                let started = Instant::now();
                let r = run_cell(trace, &bml, &cfg);
                best_wall = best_wall.min(started.elapsed().as_secs_f64());
                result = Some(black_box(r));
            }
            let r = result.expect("five runs happened");
            assert_eq!(
                r.stepping_effective, stepping,
                "engine_replay/{flavor}: requested {stepping:?} but ran \
                 {:?} — running another loop would fake the speedup",
                r.stepping_effective
            );
            walls[i] = best_wall;
            rates[i] = sim_secs / best_wall;
            let name = match stepping {
                Stepping::PerSecond => "per-second",
                Stepping::EventDriven => "event-driven",
            };
            println!(
                "engine_replay/{flavor}/{name:<12} {:>12.0} simulated-s/wallclock-s  \
                 ({:.0} sim-s in {:.4} s)",
                rates[i], sim_secs, best_wall
            );
        }
        // CI greps these lines; keep the format in sync with ci.yml.
        println!(
            "engine_replay/{flavor} speedup: event-driven is {:.1}x the per-second engine",
            rates[1] / rates[0]
        );
        let window = cell.resolved_window(&bml);
        let mut build = f64::INFINITY;
        for _ in 0..5 {
            let started = Instant::now();
            black_box(LookaheadMaxTable::new(&trace.rates, window));
            build = build.min(started.elapsed().as_secs_f64());
        }
        println!(
            "engine_replay/{flavor} table build: {:.2} ms per cell, paid by both loops \
             (loops alone: {:.1}x)",
            build * 1e3,
            (walls[0] - build) / (walls[1] - build)
        );
    }

    let mut g = c.benchmark_group("engine_replay");
    g.sample_size(10);
    for (flavor, trace, cell) in &flavors {
        for (suffix, stepping) in [
            ("per_second", Stepping::PerSecond),
            ("event_driven", Stepping::EventDriven),
        ] {
            let cfg = with_stepping(cell, stepping);
            g.bench_function(format!("{flavor}_{suffix}_2day"), |b| {
                b.iter(|| run_cell(black_box(trace), black_box(&bml), &cfg))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_engine_replay);
criterion_main!(benches);
