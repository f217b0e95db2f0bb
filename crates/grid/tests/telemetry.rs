//! Tier-1 telemetry gate: the two-plane contract of a real grid run,
//! checked through the `Recorder` API on a small spec with every
//! host-plane component switched on (cell cache, journal, chaos retries,
//! worker pool). CI checks the same contract on the `grid` binary's
//! telemetry document, plus the `phase.render` span only the binary adds.

use bml_core::combination::SplitPolicy;
use bml_grid::spec::{CatalogSpec, GridSpec, SchedulerDim};
use bml_grid::{ChaosPolicy, GridRunner};
use bml_sim::Stepping;

/// Keys that vary with the host, thread count, cache temperature or
/// fault schedule, so they may only ever be host counts.
const HOST_PREFIXES: [&str; 5] = ["cache.", "retry.", "chaos.", "pool.", "journal."];

fn spec() -> GridSpec {
    GridSpec::builder()
        .name("telemetry")
        .root_seed(1998)
        .trace("square-bursts", 1, 5)
        .catalogs(vec![CatalogSpec::paper_trio()])
        .schedulers(vec![SchedulerDim::Baseline, SchedulerDim::TransitionAware])
        .windows(vec![None, Some(189)])
        .noise_sigmas(vec![0.0, 0.2])
        .splits(vec![SplitPolicy::EfficiencyGreedy])
        .steppings(vec![Stepping::EventDriven, Stepping::PerSecond])
        .build()
        .unwrap()
}

#[test]
fn grid_telemetry_keeps_its_planes_apart() {
    let dir = std::env::temp_dir().join("bml_grid_telemetry_gate");
    std::fs::remove_dir_all(&dir).ok();
    let spec = spec();
    let run = GridRunner::new(&spec)
        .threads(2)
        .cache_dir(dir.join("cache"))
        .journal_dir(dir.join("journal"))
        .chaos(ChaosPolicy::new(42).panic_prob(0.5))
        .max_retries(1)
        .run()
        .unwrap();
    let (counters, timings) = (&run.telemetry.counters, &run.telemetry.timings);

    for (key, _) in counters.iter() {
        assert_eq!(timings.host_get(key), 0, "{key} is on both planes");
        assert!(
            !HOST_PREFIXES.iter().any(|p| key.starts_with(p)),
            "host-variant key {key} is a counter"
        );
    }
    // The host-variant components did record, on the host plane.
    for key in [
        "cache.cell_lookups",
        "retry.attempts",
        "chaos.injections",
        "pool.tasks",
        "journal.bytes_written",
    ] {
        assert!(
            timings.host_get(key) > 0,
            "{key} missing from the host plane"
        );
    }

    let (ok, failed) = (counters.get("cells.ok"), counters.get("cells.failed"));
    assert_eq!(ok + failed, counters.get("cells.total"));
    assert_eq!(counters.get("cells.total"), spec.n_cells() as u64);
    assert!(
        ok > 0 && failed > 0,
        "chaos should quarantine some cells: {ok} ok, {failed} failed"
    );
    assert!(counters.get("opt.solves") > 0);
    assert!(counters.get("engine.segments_batched") > 0);
    for phase in ["phase.opt_solve", "phase.cells"] {
        assert!(timings.span(phase).is_some(), "missing phase span {phase}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The retry bookkeeping a chaos run must report, derived from the
/// schedule alone: a cell runs attempts until one is not injected or the
/// budget of `retries + 1` is spent. Returns `(retry.attempts,
/// chaos.injections, cells.failed)`.
fn expected_retry_counts(policy: &ChaosPolicy, retries: u32, cells: u64) -> (u64, u64, u64) {
    let (mut extra, mut injected, mut failed) = (0, 0, 0);
    for cell in 0..cells {
        let run = (1..=retries + 1)
            .find(|&a| policy.should_panic(cell, a).is_none())
            .unwrap_or(retries + 1);
        let hits = (1..=run)
            .filter(|&a| policy.should_panic(cell, a).is_some())
            .count() as u64;
        extra += u64::from(run - 1);
        injected += hits;
        failed += u64::from(hits == u64::from(run));
    }
    (extra, injected, failed)
}

#[test]
fn retry_bookkeeping_matches_the_chaos_schedule() {
    let spec = spec();
    let cells = spec.n_cells() as u64;
    assert_eq!(cells, 16);
    for ((seed, p, retries), want) in [
        ((42, 0.5, 1), (5, 6, 1)),
        ((7, 0.7, 2), (26, 35, 9)),
        ((3, 1.0, 0), (0, 16, 16)),
    ] {
        let policy = ChaosPolicy::new(seed).panic_prob(p);
        assert_eq!(
            expected_retry_counts(&policy, retries, cells),
            want,
            "seed {seed}"
        );
        for threads in [1, 3] {
            let run = GridRunner::new(&spec)
                .threads(threads)
                .chaos(policy)
                .max_retries(retries)
                .run()
                .unwrap();
            let (counters, timings) = (&run.telemetry.counters, &run.telemetry.timings);
            let got = (
                timings.host_get("retry.attempts"),
                timings.host_get("chaos.injections"),
                counters.get("cells.failed"),
            );
            assert_eq!(got, want, "seed {seed} at {threads} threads");
        }
    }
}
