//! Fault-tolerance gate: kill-resume byte-identity, deterministic chaos,
//! quarantine accounting, and graceful degradation.
//!
//! Everything here leans on two invariants the grid stack maintains:
//!
//! * **Determinism** — for a fixed spec (and chaos policy), artifacts are
//!   byte-identical at any thread count, cache temperature, or
//!   kill/resume split;
//! * **No lost cells** — every cell of the spec ends up in exactly one of
//!   `cells` or `failed_cells`, whatever faults fired along the way.

use bml_core::combination::SplitPolicy;
use bml_grid::spec::{CatalogSpec, GridSpec, SchedulerDim};
use bml_grid::{ChaosPolicy, GridRunner, StreamingArtifactWriter};
use bml_sim::Stepping;
use std::path::{Path, PathBuf};

/// 2 schedulers x 3 windows x 2 sigmas x 2 steppings = 24 cells — small
/// enough for a debug test run, wide enough that kill points and chaos
/// schedules land in the middle of real work.
fn spec() -> GridSpec {
    GridSpec::builder()
        .name("fault-tolerance")
        .root_seed(1998)
        .trace("constant", 1, 0)
        .catalogs(vec![CatalogSpec::paper_trio()])
        .schedulers(vec![SchedulerDim::Baseline, SchedulerDim::TransitionAware])
        .windows(vec![None, Some(378), Some(3600)])
        .noise_sigmas(vec![0.0, 0.1])
        .splits(vec![SplitPolicy::EfficiencyGreedy])
        .steppings(vec![Stepping::EventDriven, Stepping::PerSecond])
        .build()
        .unwrap()
}

const N_CELLS: usize = 24;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bml_grid_ft_{tag}"));
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Run the spec into `dir` (streaming sink + journal in the same
/// directory) and return the artifact JSON bytes.
fn run_to_dir(
    spec: &GridSpec,
    dir: &Path,
    threads: usize,
    configure: impl FnOnce(GridRunner<'_>) -> GridRunner<'_>,
) -> Result<(bml_grid::GridRun, String), String> {
    let mut sink = StreamingArtifactWriter::create(dir).map_err(|e| e.to_string())?;
    let runner = configure(GridRunner::new(spec).threads(threads).sink(&mut sink));
    let run = runner.run()?;
    let (json_path, _) = sink.paths();
    let json = std::fs::read_to_string(json_path).map_err(|e| e.to_string())?;
    Ok((run, json))
}

#[test]
fn kill_and_resume_artifacts_match_the_cold_run_byte_for_byte() {
    let spec = spec();
    let cold_dir = tmp_dir("cold");
    let (cold_run, cold_json) = run_to_dir(&spec, &cold_dir, 2, |r| r).unwrap();
    assert_eq!(cold_run.outcome.cells.len(), N_CELLS);
    assert!(cold_run.outcome.failed_cells.is_empty());
    assert!(cold_run.warnings.is_empty());

    for kill_at in [6, 18] {
        for threads in [1, 8] {
            let dir = tmp_dir(&format!("kill{kill_at}t{threads}"));
            let err = run_to_dir(&spec, &dir, threads, |r| {
                r.journal_dir(&dir).kill_after_cells(kill_at)
            })
            .expect_err("kill_after must abort the run");
            assert!(err.contains("simulated crash"), "{err}");
            assert!(
                dir.join(bml_grid::JOURNAL_NAME).exists(),
                "the kill must leave a journal behind"
            );

            // Resume: journaled cells replay from disk, the rest compute,
            // and the streamed artifact is re-rendered from scratch.
            let (run, json) = run_to_dir(&spec, &dir, threads, |r| r.resume(&dir)).unwrap();
            assert_eq!(run.outcome.cells.len(), N_CELLS);
            assert!(run.warnings.is_empty(), "{:?}", run.warnings);
            assert_eq!(
                json, cold_json,
                "kill at {kill_at}/{N_CELLS}, {threads} threads: resume must be byte-identical"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    std::fs::remove_dir_all(&cold_dir).ok();
}

#[test]
fn resume_of_a_torn_journal_tail_recovers() {
    let spec = spec();
    let clean_dir = tmp_dir("torn_clean");
    let (_, clean_json) = run_to_dir(&spec, &clean_dir, 2, |r| r).unwrap();

    // Kill mid-run with torn journal writes firing: some records reach
    // disk incomplete (as a process killed mid-write leaves them).
    // Resume must drop the torn tail, recompute what it lost, and still
    // match the clean bytes — torn writes cost work, never correctness.
    let chaos = ChaosPolicy::new(11).torn_write_prob(0.4);
    let dir = tmp_dir("torn");
    let err = run_to_dir(&spec, &dir, 2, |r| {
        r.journal_dir(&dir).chaos(chaos).kill_after_cells(13)
    })
    .expect_err("kill_after must abort the run");
    assert!(err.contains("simulated crash"), "{err}");

    let (run, json) = run_to_dir(&spec, &dir, 2, |r| r.resume(&dir).chaos(chaos)).unwrap();
    assert_eq!(run.outcome.cells.len(), N_CELLS);
    assert_eq!(json, clean_json);
    std::fs::remove_dir_all(&clean_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_panics_quarantine_deterministically_across_thread_counts() {
    let spec = spec();
    // Deterministically pick a seed whose schedule dooms some (not all)
    // cells through both attempts — chaos decisions are pure functions of
    // the policy, so the scan is as reproducible as the run itself.
    let seed = (0..500u64)
        .find(|&s| {
            let p = ChaosPolicy::new(s).panic_prob(0.35);
            let doomed = (0..N_CELLS as u64)
                .filter(|&c| p.should_panic(c, 1).is_some() && p.should_panic(c, 2).is_some())
                .count();
            (2..N_CELLS / 2).contains(&doomed)
        })
        .expect("some seed in range dooms a few cells");
    let chaos = ChaosPolicy::new(seed).panic_prob(0.35);

    let mut renders = Vec::new();
    for threads in [1, 8] {
        let dir = tmp_dir(&format!("chaos_t{threads}"));
        let (run, json) = run_to_dir(&spec, &dir, threads, |r| r.chaos(chaos)).unwrap();
        // Zero lost cells: every cell is either a result or a quarantine
        // entry, and the artifact says which.
        assert_eq!(
            run.outcome.cells.len() + run.outcome.failed_cells.len(),
            N_CELLS
        );
        assert!(!run.outcome.failed_cells.is_empty());
        assert!(run.outcome.failed_cells.len() < N_CELLS);
        for f in &run.outcome.failed_cells {
            assert_eq!(f.attempts, 2, "default budget: one retry");
            assert_eq!(f.panic_digest.len(), 16);
        }
        assert!(json.contains("\"failed_cells\":[{\"index\":"));
        renders.push(json);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(
        renders[0], renders[1],
        "a chaos run must be byte-identical at 1 and 8 threads"
    );
}

#[test]
fn certain_panics_quarantine_every_cell_without_aborting() {
    let spec = spec();
    let dir = tmp_dir("all_fail");
    let chaos = ChaosPolicy::new(3).panic_prob(1.0);
    let (run, json) = run_to_dir(&spec, &dir, 4, |r| r.chaos(chaos).max_retries(2)).unwrap();
    assert!(run.outcome.cells.is_empty());
    assert_eq!(run.outcome.failed_cells.len(), N_CELLS);
    for f in &run.outcome.failed_cells {
        assert_eq!(f.attempts, 3, "max_retries(2) grants three attempts");
    }
    // The artifact still renders: empty cells array, full quarantine.
    assert!(json.contains("\"cells\":[]"), "{}", &json[..200]);
    assert!(json.contains("\"pareto_energy_vs_qos\":[]"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn io_faults_degrade_to_memory_with_warnings_not_errors() {
    let spec = spec();
    let dir = tmp_dir("io_faults");
    let cache_dir = tmp_dir("io_faults_cache");
    let chaos = ChaosPolicy::new(5).io_error_prob(1.0);
    let (run, _) = run_to_dir(&spec, &dir, 2, |r| {
        r.chaos(chaos).cache_dir(&cache_dir).journal_dir(&dir)
    })
    .unwrap();
    // Every persistence layer degraded, no cell was lost.
    assert_eq!(run.outcome.cells.len(), N_CELLS);
    let components: Vec<&str> = run.warnings.iter().map(|w| w.component).collect();
    for c in ["cache", "journal", "sink"] {
        assert!(
            components.contains(&c),
            "missing {c} warning: {components:?}"
        );
    }
    // Degradation happens once per component, not once per cell.
    assert!(run.warnings.len() <= 4, "{:?}", run.warnings);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn corrupt_cache_entries_recompute_and_keep_byte_identity() {
    let spec = spec();
    let dir = tmp_dir("corrupt_cache");
    let cache_dir = tmp_dir("corrupt_cache_store");
    let (cold_run, cold_json) = run_to_dir(&spec, &dir, 2, |r| r.cache_dir(&cache_dir)).unwrap();
    assert_eq!(cold_run.cache.hits, 0);

    // Truncate every cached cell entry to half: every lookup must miss,
    // recompute, and reproduce the cold bytes exactly.
    let cells_dir = cache_dir.join("cells");
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&cells_dir).unwrap() {
        let path = entry.unwrap().path();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        corrupted += 1;
    }
    assert!(corrupted > 0);

    let (warm_run, warm_json) = run_to_dir(&spec, &dir, 2, |r| r.cache_dir(&cache_dir)).unwrap();
    assert_eq!(warm_run.cache.hits, 0, "corrupt entries must all miss");
    assert_eq!(warm_run.outcome.cells.len(), N_CELLS);
    assert!(warm_run.warnings.is_empty(), "{:?}", warm_run.warnings);
    assert_eq!(warm_json, cold_json);

    // And a third, healthy warm run hits everything.
    let (hot_run, hot_json) = run_to_dir(&spec, &dir, 2, |r| r.cache_dir(&cache_dir)).unwrap();
    assert_eq!(hot_run.cache.hits, hot_run.cache.lookups);
    assert_eq!(hot_json, cold_json);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&cache_dir).ok();
}
