//! The grid's headline guarantee: for a fixed spec and root seed, the
//! rendered artifacts are byte-identical at 1 worker thread and at N —
//! and, since the cell cache landed, with a cold cache and a warm one.
//! Parallelism and caching change wall-clock time, never results.

use bml_core::combination::SplitPolicy;
use bml_grid::cache;
use bml_grid::spec::{CatalogSpec, GridSpec, SchedulerDim};
use bml_grid::{pareto_frontier, render_csv, render_json, run_grid, GridRunner};
use bml_opt::OptOptions;
use bml_sim::Stepping;

/// A spec small enough for debug-mode CI but covering every dimension
/// with >1 value somewhere, noise cells included (noise exercises the
/// per-cell seeds, the part that could plausibly leak thread order).
fn spec() -> GridSpec {
    GridSpec::builder()
        .name("determinism")
        .root_seed(1998)
        .trace("square-bursts", 1, 5)
        .catalogs(vec![CatalogSpec::paper_trio(), CatalogSpec::big_medium()])
        .schedulers(vec![SchedulerDim::Baseline, SchedulerDim::TransitionAware])
        .windows(vec![None])
        .noise_sigmas(vec![0.0, 0.15])
        .splits(vec![SplitPolicy::EfficiencyGreedy])
        .steppings(vec![Stepping::EventDriven])
        .build()
        .unwrap()
}

#[test]
fn artifacts_are_byte_identical_across_thread_counts() {
    let spec = spec();
    let one = GridRunner::new(&spec).threads(1).run().unwrap().outcome;
    let many = GridRunner::new(&spec).threads(8).run().unwrap().outcome;
    let default = GridRunner::new(&spec).run().unwrap().outcome;
    assert_eq!(one, many, "outcomes diverged between 1 and 8 threads");
    assert_eq!(render_json(&one), render_json(&many));
    assert_eq!(render_json(&one), render_json(&default));
    assert_eq!(render_csv(&one), render_csv(&many));
}

#[test]
fn reruns_reproduce_the_same_bytes() {
    let spec = spec();
    let a = run_grid(&spec, Some(4)).unwrap();
    let b = run_grid(&spec, Some(4)).unwrap();
    assert_eq!(render_json(&a), render_json(&b));
}

#[test]
fn root_seed_reaches_the_noise_cells() {
    let base = spec();
    let mut reseeded = spec();
    reseeded.root_seed = 2024;
    let a = run_grid(&base, Some(4)).unwrap();
    let b = run_grid(&reseeded, Some(4)).unwrap();
    // Clean cells are seed-independent; some noisy cell must move.
    assert_ne!(
        render_json(&a),
        render_json(&b),
        "root seed had no effect on noisy cells"
    );
}

#[test]
fn cold_and_warm_cache_render_the_same_bytes_across_thread_counts() {
    let dir = std::env::temp_dir().join("bml_grid_determinism_cache");
    std::fs::remove_dir_all(&dir).ok();
    let spec = spec();
    let uncached = run_grid(&spec, Some(4)).unwrap();
    let cold = GridRunner::new(&spec)
        .threads(8)
        .cache_dir(&dir)
        .run()
        .unwrap();
    assert_eq!(cold.cache.hits, 0, "first run must be all misses");
    assert_eq!(cold.cache.lookups as usize, uncached.cells.len());
    // Warm re-run at a *different* thread count: full hits, same bytes.
    let warm = GridRunner::new(&spec)
        .threads(1)
        .cache_dir(&dir)
        .run()
        .unwrap();
    assert_eq!(
        warm.cache.hits, warm.cache.lookups,
        "warm run must fully hit"
    );
    for out in [&cold.outcome, &warm.outcome] {
        assert_eq!(render_json(out), render_json(&uncached));
        assert_eq!(render_csv(out), render_csv(&uncached));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_counters_are_byte_identical_across_thread_counts() {
    let spec = spec();
    let one = GridRunner::new(&spec).threads(1).run().unwrap();
    let many = GridRunner::new(&spec).threads(8).run().unwrap();
    // The deterministic plane renders the same bytes whatever the worker
    // count; the timing plane is explicitly excluded from the comparison
    // (wall clock and steal counts legitimately differ).
    assert_eq!(
        one.telemetry.render_counters(),
        many.telemetry.render_counters(),
        "counters diverged between 1 and 8 threads"
    );
    // Sanity on the content: the ok/failed partition covers the grid.
    let c = &one.telemetry.counters;
    assert_eq!(
        c.get("cells.ok") + c.get("cells.failed"),
        c.get("cells.total")
    );
    assert_eq!(c.get("cells.total") as usize, spec.n_cells());
    assert!(c.get("engine.segments_batched") > 0, "event path counted");
    assert!(c.get("opt.solves") > 0, "optima loop counted");
}

#[test]
fn telemetry_counters_are_cache_temperature_blind() {
    let dir = std::env::temp_dir().join("bml_grid_determinism_telemetry_cache");
    std::fs::remove_dir_all(&dir).ok();
    let spec = spec();
    let cold = GridRunner::new(&spec)
        .threads(8)
        .cache_dir(&dir)
        .run()
        .unwrap();
    let warm = GridRunner::new(&spec)
        .threads(1)
        .cache_dir(&dir)
        .run()
        .unwrap();
    assert_eq!(
        warm.cache.hits, warm.cache.lookups,
        "warm run must fully hit"
    );
    assert_eq!(
        cold.telemetry.render_counters(),
        warm.telemetry.render_counters(),
        "counters diverged between cold and warm cache"
    );
    // The cache temperature is visible exactly where it belongs: on the
    // host plane.
    assert_eq!(cold.telemetry.timings.host_get("cache.cell_hits"), 0);
    assert_eq!(
        warm.telemetry.timings.host_get("cache.cell_hits"),
        warm.cache.hits
    );
    // An uncached run merges the same counter bytes too.
    let plain = GridRunner::new(&spec).threads(4).run().unwrap();
    assert_eq!(
        plain.telemetry.render_counters(),
        cold.telemetry.render_counters(),
        "counters diverged between cached and uncached runs"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partially_warm_opt_cache_merges_to_the_cold_bytes_and_counters() {
    let dir = std::env::temp_dir().join("bml_grid_determinism_partial_opt");
    std::fs::remove_dir_all(&dir).ok();
    // Two catalogs x two splits: four optima, so the one deleted below is
    // a miss between cache hits.
    let mut spec = spec();
    spec.splits = vec![
        SplitPolicy::EfficiencyGreedy,
        SplitPolicy::ProportionalToCapacity,
    ];
    let cold = GridRunner::new(&spec)
        .threads(8)
        .cache_dir(&dir)
        .run()
        .unwrap();
    // The third triple in `(trace, catalog, split)` order, keyed the way
    // the executor keys it.
    let trace = spec.traces[0].resolve().unwrap();
    let bml = spec.catalogs[1].resolve().unwrap();
    let key = cache::opt_key(
        &cache::trace_digest(&trace),
        &cache::catalog_digest(&bml),
        spec.splits[0],
        &OptOptions::default(),
    );
    let entry = dir.join("opt").join(key);
    for threads in [1, 8] {
        std::fs::remove_file(&entry).expect("the cold run cached every optimum");
        let warm = GridRunner::new(&spec)
            .threads(threads)
            .cache_dir(&dir)
            .run()
            .unwrap();
        assert_eq!(
            (warm.cache.opt_hits, warm.cache.opt_lookups),
            (3, 4),
            "threads={threads}"
        );
        assert_eq!(
            render_json(&warm.outcome),
            render_json(&cold.outcome),
            "threads={threads}"
        );
        assert_eq!(
            render_csv(&warm.outcome),
            render_csv(&cold.outcome),
            "threads={threads}"
        );
        assert_eq!(
            warm.telemetry.render_counters(),
            cold.telemetry.render_counters(),
            "threads={threads}: counters diverged from the cold run"
        );
        assert!(entry.exists(), "the fresh solve is cached again");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_keys_are_content_addressed_not_positional() {
    // Same cells reached through different spec shapes (value order
    // swapped) must hit the same entries: keys hash content, not the
    // enumeration index. Clean cells only — noisy cells draw positional
    // seeds, the documented refinement caveat.
    let dir = std::env::temp_dir().join("bml_grid_determinism_cache_shape");
    std::fs::remove_dir_all(&dir).ok();
    let forward = GridSpec::builder()
        .name("shape-a")
        .trace("constant", 1, 0)
        .catalogs(vec![CatalogSpec::paper_trio()])
        .schedulers(vec![SchedulerDim::Baseline])
        .windows(vec![Some(189), Some(756)])
        .noise_sigmas(vec![0.0])
        .splits(vec![SplitPolicy::EfficiencyGreedy])
        .steppings(vec![Stepping::EventDriven])
        .build()
        .unwrap();
    let reversed = GridSpec {
        name: "shape-b".into(),
        windows: vec![Some(756), Some(189)],
        ..forward.clone()
    };
    let cold = GridRunner::new(&forward).cache_dir(&dir).run().unwrap();
    assert_eq!(cold.cache.hits, 0);
    let warm = GridRunner::new(&reversed).cache_dir(&dir).run().unwrap();
    assert_eq!(
        warm.cache.hits, 2,
        "reordered dimensions must still hit: keys are content-addressed"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn aggregates_reference_valid_cells() {
    let out = run_grid(&spec(), None).unwrap();
    let frontier = pareto_frontier(&out);
    assert!(!frontier.is_empty());
    for &i in &frontier {
        assert!(i < out.cells.len());
    }
    // Frontier is sorted by ascending energy.
    for w in frontier.windows(2) {
        assert!(out.cells[w[0]].summary.total_energy_j <= out.cells[w[1]].summary.total_energy_j);
    }
}
