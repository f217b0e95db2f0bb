//! Offline-optimal DP throughput: the exact segment DP (plus the replay
//! verification pass) on three traces.
//!
//! * `tournament` — worldcup-tournament, 2 days, seed 1998, on table1:
//!   the smoke grid's largest solve (120 states x 169,936 segments on a
//!   170-cell lattice), so its timings track the grid's
//!   `phase.opt_solve`.
//! * `fig5_7day` — worldcup, 7 days, seed 1998, on table1: the solve of
//!   the repository benchmark's `fig5` workload (34 states x 588,391
//!   segments on a 68-cell lattice).
//! * `plateau` — two days of 5-minute constant-load plateaus, the shape
//!   `engine_replay` uses. Its 568 segments are 300x fewer than the real
//!   trace's, so it isolates per-solve overhead and says little about
//!   real solve times.
//!
//! The headline printed per trace before the criterion timings is
//! **simulated-seconds per wall-clock second** for the full
//! solve-then-verify pipeline (best of 3), next to the solve alone as
//! **ns per boundary**: its best-of-3 time over the boundary count, since
//! the solve crosses every boundary once and chains the backtrack inside
//! that one forward pass.

use std::time::Instant;

use bml_core::bml::BmlInfrastructure;
use bml_core::catalog;
use bml_core::combination::SplitPolicy;
use bml_opt::{solve, solve_verified, OptOptions};
use bml_trace::worldcup::{generate, WorldCupParams};
use bml_trace::LoadTrace;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// Deterministic two-day trace of 5-minute constant-load plateaus
/// tracking a diurnal cycle between ~10 and ~2510 req/s — the same shape
/// as `engine_replay`'s, so the solver and engine throughputs compare.
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

/// The fastest of three timed runs of `run`, in seconds, and the last
/// run's result.
fn best_of_3<T>(run: impl Fn() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..3 {
        let started = Instant::now();
        let result = black_box(run());
        best = best.min(started.elapsed().as_secs_f64());
        last = Some(result);
    }
    (best, last.expect("three runs"))
}

fn bench_opt_dp(c: &mut Criterion) {
    let plateau = plateau_trace(2);
    let tournament = bml_trace::registry::generate("worldcup-tournament", 2, 1998)
        .expect("registered trace source");
    let fig5_7day = generate(&WorldCupParams {
        seed: 1998,
        n_days: 7,
        ..Default::default()
    });
    let bml = BmlInfrastructure::build(&catalog::table1()).unwrap();
    let split = SplitPolicy::EfficiencyGreedy;

    // Headline: best-of-3 wall times for the exact solve + replay verify
    // and for the solve alone, so the printed rates are not hostage to
    // one scheduling stall.
    for (name, trace) in [
        ("tournament", &tournament),
        ("fig5_7day", &fig5_7day),
        ("plateau", &plateau),
    ] {
        let sim_secs = trace.len() as f64;
        let (verified_s, _) =
            best_of_3(|| solve_verified(trace, &bml, split, &OptOptions::default()));
        let (solve_s, sched) = best_of_3(|| solve(trace, &bml, split, &OptOptions::default()));
        let sched = sched.expect("exact DP cannot dead-end");
        println!(
            "opt_dp/{name} exact+verify {:>12.0} simulated-s/wallclock-s  \
             ({:.0} sim-s, {} segments x {} states, {} records, in {:.4} s); \
             solve {:.1} ns/boundary",
            sim_secs / verified_s,
            sim_secs,
            sched.n_segments,
            sched.n_states,
            sched.schedule.len(),
            verified_s,
            solve_s * 1e9 / sched.n_boundaries as f64,
        );
    }

    let mut g = c.benchmark_group("opt_dp");
    g.sample_size(10);
    g.bench_function("exact_tournament_2day", |b| {
        b.iter(|| {
            solve(
                black_box(&tournament),
                black_box(&bml),
                split,
                &OptOptions::default(),
            )
        })
    });
    g.bench_function("exact_2day", |b| {
        b.iter(|| {
            solve(
                black_box(&plateau),
                black_box(&bml),
                split,
                &OptOptions::default(),
            )
        })
    });
    g.bench_function("exact_verified_2day", |b| {
        b.iter(|| {
            solve_verified(
                black_box(&plateau),
                black_box(&bml),
                split,
                &OptOptions::default(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_opt_dp);
criterion_main!(benches);
