//! Multi-batch gate: the executor fans cells out in batches of 1,024, and
//! a grid larger than one batch must still stream dense, ordered cells
//! whose bytes equal the in-memory render, and resume across the batch
//! boundary byte for byte.
//!
//! The cells are deliberately cheap (constant 1-day trace, clean
//! prediction, event stepping): the point is the orchestration across
//! batches, not per-cell heft.

use bml_core::combination::SplitPolicy;
use bml_grid::spec::{CatalogSpec, GridSpec, SchedulerDim};
use bml_grid::{render_csv, render_json, GridRunner, StreamingArtifactWriter};
use bml_sim::Stepping;
use std::path::PathBuf;

/// 2 catalogs x 2 schedulers x 260 windows = 1,040 cells: one full
/// batch plus 16 cells of a second.
fn two_batch_spec() -> GridSpec {
    GridSpec::builder()
        .name("two-batches")
        .root_seed(1998)
        .trace("constant", 1, 0)
        .catalogs(vec![CatalogSpec::paper_trio(), CatalogSpec::big_medium()])
        .schedulers(vec![SchedulerDim::Baseline, SchedulerDim::TransitionAware])
        .windows((1..=260).map(|i| Some(60 * i)).collect())
        .noise_sigmas(vec![0.0])
        .splits(vec![SplitPolicy::EfficiencyGreedy])
        .steppings(vec![Stepping::EventDriven])
        .build()
        .unwrap()
}

const N_CELLS: usize = 1_040;
const KILL_AT: usize = 1_030;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bml_grid_batches_{tag}"));
    std::fs::remove_dir_all(&d).ok();
    d
}

#[test]
fn grid_spanning_two_batches_streams_and_resumes_byte_identically() {
    let spec = two_batch_spec();
    assert_eq!(spec.n_cells(), N_CELLS);

    let full_dir = tmp_dir("full");
    let mut sink = StreamingArtifactWriter::create(&full_dir).unwrap();
    let full = GridRunner::new(&spec)
        .threads(2)
        .journal_dir(&full_dir)
        .sink(&mut sink)
        .run()
        .unwrap();
    assert!(full.warnings.is_empty(), "{:?}", full.warnings);
    assert!(full.outcome.failed_cells.is_empty());
    assert_eq!(full.outcome.cells.len(), N_CELLS);
    for (i, c) in full.outcome.cells.iter().enumerate() {
        assert_eq!(c.coords.index, i, "indices must be dense and in order");
    }
    let (json_path, csv_path) = sink.paths();
    let full_json = std::fs::read_to_string(json_path).unwrap();
    assert_eq!(full_json, render_json(&full.outcome) + "\n");
    assert_eq!(
        std::fs::read_to_string(csv_path).unwrap(),
        render_csv(&full.outcome)
    );

    // Kill inside the second batch, then resume: the first batch and ten
    // cells of the second replay from the journal.
    let dir = tmp_dir("resumed");
    let mut sink = StreamingArtifactWriter::create(&dir).unwrap();
    let err = GridRunner::new(&spec)
        .threads(2)
        .journal_dir(&dir)
        .kill_after_cells(KILL_AT)
        .sink(&mut sink)
        .run()
        .expect_err("kill_after must abort the run");
    assert!(err.contains("simulated crash"), "{err}");
    let mut sink = StreamingArtifactWriter::create(&dir).unwrap();
    let resumed = GridRunner::new(&spec)
        .threads(2)
        .resume(&dir)
        .sink(&mut sink)
        .run()
        .unwrap();
    assert!(resumed.warnings.is_empty(), "{:?}", resumed.warnings);
    assert_eq!(
        resumed.telemetry.timings.host_get("journal.replayed_cells"),
        KILL_AT as u64
    );
    let (json_path, _) = sink.paths();
    assert_eq!(std::fs::read_to_string(json_path).unwrap(), full_json);

    std::fs::remove_dir_all(&full_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}
