//! Streaming artifact emission.
//!
//! Assembling the whole document in memory and writing it at the end is
//! fine at 144 cells, hostile at 10k+: a crash loses everything and
//! memory holds every rendered row. The [`StreamingArtifactWriter`]
//! receives cells **as they complete, in enumeration order**, and appends
//! each record to `BENCH_grid.json` / `BENCH_grid.csv` incrementally;
//! only the aggregate epilogue waits for the end.
//!
//! The byte-identity guarantee survives streaming by construction: the
//! writer emits exactly [`crate::artifact::json_prologue`] + the
//! `","`-joined [`crate::artifact::render_cell_json`] outputs +
//! [`crate::artifact::json_epilogue`] (and the CSV equivalents), and
//! `render_json` is *defined* as that concatenation — a streamed file and
//! an in-memory render of the same outcome are the same bytes, cold or
//! warm cache, 1 thread or N.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::artifact::{
    csv_header_line, json_epilogue, json_prologue, render_cell_csv, render_cell_json, CSV_NAME,
    JSON_NAME,
};
use crate::executor::{CellRecord, GridOutcome};
use crate::spec::GridSpec;

/// Streams both versioned artifacts to disk as cells complete. The
/// executor calls `begin` once before any cell, `cell` once per record
/// (index order), and `finish` once with the complete outcome (the
/// aggregates need every cell, so they anchor the end of the stream).
#[derive(Debug)]
pub struct StreamingArtifactWriter {
    json: BufWriter<File>,
    csv: BufWriter<File>,
    json_path: PathBuf,
    csv_path: PathBuf,
    cells_emitted: usize,
}

impl StreamingArtifactWriter {
    /// Create `BENCH_grid.json` / `BENCH_grid.csv` in `dir` (created if
    /// missing), truncating previous artifacts.
    pub fn create(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let json_path = dir.join(JSON_NAME);
        let csv_path = dir.join(CSV_NAME);
        Ok(StreamingArtifactWriter {
            json: BufWriter::new(File::create(&json_path)?),
            csv: BufWriter::new(File::create(&csv_path)?),
            json_path,
            csv_path,
            cells_emitted: 0,
        })
    }

    /// The two artifact paths (JSON, CSV).
    pub fn paths(&self) -> (&Path, &Path) {
        (&self.json_path, &self.csv_path)
    }

    /// The run is starting: the spec and total cell count are known
    /// before any cell executes.
    pub(crate) fn begin(&mut self, spec: &GridSpec, n_cells: usize) -> io::Result<()> {
        self.json
            .write_all(json_prologue(spec, n_cells, None).as_bytes())?;
        self.csv.write_all(csv_header_line().as_bytes())
    }

    /// One completed cell, in enumeration order.
    pub(crate) fn cell(&mut self, record: &CellRecord) -> io::Result<()> {
        if self.cells_emitted > 0 {
            self.json.write_all(b",")?;
        }
        self.cells_emitted += 1;
        self.json.write_all(render_cell_json(record).as_bytes())?;
        self.csv.write_all(render_cell_csv(record).as_bytes())?;
        // Flush every appended cell so a killed process leaves everything
        // already streamed on disk (no sync: an OS crash or power loss
        // may still lose it).
        self.json.flush()?;
        self.csv.flush()
    }

    /// The run is complete; `out` holds every cell for aggregation.
    pub(crate) fn finish(&mut self, out: &GridOutcome) -> io::Result<()> {
        // Trailing newline, like every BENCH_*.json this repo emits.
        self.json.write_all(json_epilogue(out).as_bytes())?;
        self.json.write_all(b"\n")?;
        self.json.flush()?;
        self.csv.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{render_csv, render_json};
    use crate::executor::GridRunner;
    use crate::spec::{CatalogSpec, GridSpec, SchedulerDim, TraceSpec};
    use bml_core::combination::SplitPolicy;
    use bml_sim::Stepping;

    fn spec() -> GridSpec {
        GridSpec {
            name: "stream-unit".into(),
            root_seed: 5,
            traces: vec![TraceSpec {
                source: "constant".into(),
                days: 1,
                seed: 0,
            }],
            catalogs: vec![CatalogSpec::paper_trio()],
            schedulers: vec![SchedulerDim::Baseline],
            windows: vec![None, Some(189), Some(378)],
            noise_sigmas: vec![0.0, 0.1],
            splits: vec![SplitPolicy::EfficiencyGreedy],
            steppings: vec![Stepping::EventDriven],
        }
    }

    #[test]
    fn streamed_bytes_equal_in_memory_render() {
        let dir = std::env::temp_dir().join("bml_grid_stream_test");
        std::fs::remove_dir_all(&dir).ok();
        let mut sink = StreamingArtifactWriter::create(&dir).unwrap();
        let run = GridRunner::new(&spec())
            .threads(2)
            .sink(&mut sink)
            .run()
            .unwrap();
        let (json_path, csv_path) = sink.paths();
        assert_eq!(
            std::fs::read_to_string(json_path).unwrap(),
            render_json(&run.outcome) + "\n"
        );
        assert_eq!(
            std::fs::read_to_string(csv_path).unwrap(),
            render_csv(&run.outcome)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
