//! Versioned grid artifacts: `BENCH_grid.json` and `BENCH_grid.csv`.
//!
//! # Schema (`bml-grid/v5`)
//!
//! ```text
//! {
//!   "schema":   "bml-grid/v5",
//!   "name":     <spec name>,
//!   "root_seed": <u64>,
//!   "n_cells":  <usize>,
//!   "dimensions": { <dimension>: [<value label>, ...], ... },   // spec order
//!   "refine":   null,                                           // always null
//!   "cells": [ { "index", "seed" (decimal string — full-range u64),
//!                <7 dimension labels>,
//!                "total_energy_j", "mean_power_w", "qos_shortfall",
//!                "violation_seconds", "worst_shortfall",
//!                "reconfigurations", "nodes_switched_on",
//!                "nodes_switched_off", "reconfig_energy_j",
//!                "instance_migrations",
//!                "stepping_effective",
//!                "optimal_energy_j", "optimality_gap" }, ... ], // enumeration order
//!   "failed_cells": [ { "index", "seed" (decimal string),
//!                       <7 dimension labels>, "status": "failed",
//!                       "attempts", "panic_digest" }, ... ],    // enumeration order
//!   "best_by_dimension": [ { "dimension", "value", "cell",
//!                            "total_energy_j", "qos_shortfall" }, ... ],
//!   "pareto_energy_vs_qos": [ <cell enumeration index>, ... ]  // ascending energy
//! }
//! ```
//!
//! `cells` holds every cell that produced a result; cells that exhausted
//! their retry budget are **quarantined** into `failed_cells` (empty on a
//! clean run) with the digest of their last panic message — together the
//! two arrays account for every cell of the spec. Accordingly,
//! `pareto_energy_vs_qos` and `best_by_dimension.cell` refer to cells by
//! **enumeration index** (the `index` field), not by position in the
//! `cells` array.
//!
//! The artifact deliberately records **no** wall-clock times, thread
//! counts, hostnames or dates: for a fixed spec and root seed the
//! rendered bytes are identical on any machine at any `--threads`
//! setting, with a cold or warm cell cache. Perf telemetry belongs next
//! to the artifact (CI logs, the grid binary's stderr), not inside it.
//! Bump the `schema` string on any field change; consumers match on it.
//!
//! # Streaming
//!
//! The render is factored into three byte-exact parts so the
//! [`crate::stream::StreamingArtifactWriter`] can append cells as they
//! complete instead of assembling the whole document at the end:
//! [`json_prologue`] (everything before the cells, known from the spec
//! alone), [`render_cell_json`] / [`render_cell_csv`] (one cell, no
//! separators), and [`json_epilogue`] (aggregates — they need every
//! cell, so they close the document). [`render_json`] and [`render_csv`]
//! are defined as the concatenation of those parts, which is what makes
//! "streamed file == in-memory render" a structural identity rather than
//! a test hope (the test pins it anyway).

use crate::aggregate::{pareto_frontier, per_dimension_bests};
use crate::executor::{CellRecord, FailedCell, GridOutcome};
use crate::json::Object;
use crate::spec::{GridSpec, DIMENSIONS};

/// Current artifact schema identifier. v5 added the `failed_cells`
/// quarantine section (`[]` on clean runs) and redefined
/// `pareto_energy_vs_qos` entries as cell **enumeration** indices (on
/// clean runs the two coincide) — cell rows are byte-identical to v4.
/// v4 added the top-level `refine` field and is the first schema emitted
/// by the streaming writer — cell rows and all v3 fields are unchanged.
/// `refine` is always `null`: no run path refines a grid. v3 added
/// `optimal_energy_j` / `optimality_gap` (the replay-verified offline
/// optimum from `bml-opt`). v2 added `stepping_effective` (the loop the
/// engine actually ran).
pub const SCHEMA: &str = "bml-grid/v5";

/// JSON artifact file name.
pub const JSON_NAME: &str = "BENCH_grid.json";

/// CSV artifact file name.
pub const CSV_NAME: &str = "BENCH_grid.csv";

/// Provenance of an adaptively refined grid, rendered into the
/// artifact's `refine` field by [`json_prologue`]. Every grid run passes
/// `None` and streams `"refine":null`; the type stays while callers
/// outside this crate pass `json_prologue` its third argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefineMeta {
    /// Refinement rounds executed after the seed run.
    pub rounds: u64,
    /// The configured per-round cell cap.
    pub budget_cells: u64,
    /// Cell count of the seed grid.
    pub seeded_cells: u64,
    /// Cell count of the final grid (the artifact's cells).
    pub final_cells: u64,
}

/// Everything before the first cell object: document header, dimension
/// value lists, the `refine` field (`null` unless `refine` is given),
/// and the opening `"cells":[`. Computable from the spec alone, so the
/// streaming writer emits it before any cell has run.
pub fn json_prologue(spec: &GridSpec, n_cells: usize, refine: Option<&RefineMeta>) -> String {
    let mut dims = Object::new();
    for (d, name) in DIMENSIONS.iter().enumerate() {
        dims = dims.strs(name, &spec.dimension_values(d));
    }
    let head = Object::new()
        .str("schema", SCHEMA)
        .str("name", &spec.name)
        .int("root_seed", spec.root_seed)
        .int("n_cells", n_cells as u64);
    let head = match refine {
        None => head.obj("dimensions", dims).null("refine"),
        Some(m) => head.obj("dimensions", dims).obj(
            "refine",
            Object::new()
                .int("rounds", m.rounds)
                .int("budget_cells", m.budget_cells)
                .int("seeded_cells", m.seeded_cells)
                .int("final_cells", m.final_cells),
        ),
    }
    .render();
    // Reopen the rendered header object to splice the cells array in.
    format!("{},\"cells\":[", &head[..head.len() - 1])
}

/// One cell as a JSON object (no surrounding separators).
pub fn render_cell_json(c: &CellRecord) -> String {
    // The seed is a full-range u64; emitted as a decimal string
    // because values above 2^53 silently lose precision in
    // double-based JSON consumers, and the seed's whole purpose
    // is exact cell reproduction.
    let mut o = Object::new()
        .int("index", c.coords.index as u64)
        .str("seed", &c.coords.seed.to_string());
    for (name, label) in DIMENSIONS.iter().zip(&c.labels) {
        o = o.str(name, label);
    }
    let s = &c.summary;
    o.num("total_energy_j", s.total_energy_j)
        .num("mean_power_w", s.mean_power_w)
        .num("qos_shortfall", s.qos_shortfall)
        .int("violation_seconds", s.violation_seconds)
        .num("worst_shortfall", s.worst_shortfall)
        .int("reconfigurations", s.reconfigurations)
        .int("nodes_switched_on", s.nodes_switched_on)
        .int("nodes_switched_off", s.nodes_switched_off)
        .num("reconfig_energy_j", s.reconfig_energy_j)
        .int("instance_migrations", s.instance_migrations)
        .str(
            "stepping_effective",
            crate::spec::stepping_label(s.stepping_effective),
        )
        // `num` renders non-finite as null, so absent optima
        // (and zero-optimum gaps) come out as JSON null.
        .num("optimal_energy_j", s.optimal_energy_j.unwrap_or(f64::NAN))
        .num("optimality_gap", s.optimality_gap.unwrap_or(f64::NAN))
        .render()
}

/// One quarantined cell as a JSON object for the `failed_cells` section:
/// coordinates and labels like a cell row, then the quarantine record
/// (attempts consumed and the digest of the last panic message).
pub fn render_failed_cell_json(f: &FailedCell) -> String {
    let mut o = Object::new()
        .int("index", f.coords.index as u64)
        .str("seed", &f.coords.seed.to_string());
    for (name, label) in DIMENSIONS.iter().zip(&f.labels) {
        o = o.str(name, label);
    }
    o.str("status", "failed")
        .int("attempts", u64::from(f.attempts))
        .str("panic_digest", &f.panic_digest)
        .render()
}

/// Everything after the last cell: the quarantine section and the
/// aggregates (per-dimension bests and the Pareto frontier — they need
/// the full cell set, which is why they close the streamed document) and
/// the closing brace.
pub fn json_epilogue(out: &GridOutcome) -> String {
    let failed: Vec<String> = out
        .failed_cells
        .iter()
        .map(render_failed_cell_json)
        .collect();
    let bests = per_dimension_bests(out)
        .into_iter()
        .map(|b| {
            Object::new()
                .str("dimension", &b.dimension)
                .str("value", &b.value)
                .int("cell", b.cell as u64)
                .num("total_energy_j", b.total_energy_j)
                .num("qos_shortfall", b.qos_shortfall)
        })
        .collect();
    // The frontier is positions into `cells`; publish enumeration indices
    // so quarantined cells can never shift what the entries refer to.
    let pareto: Vec<f64> = pareto_frontier(out)
        .iter()
        .map(|&i| out.cells[i].coords.index as f64)
        .collect();
    let tail = Object::new()
        .objs("best_by_dimension", bests)
        .nums("pareto_energy_vs_qos", &pareto)
        .render();
    // Close the cells array, then splice the quarantine + aggregate
    // fields in.
    format!("],\"failed_cells\":[{}],{}", failed.join(","), &tail[1..])
}

/// Render the versioned JSON artifact (no trailing newline).
pub fn render_json(out: &GridOutcome) -> String {
    let cells: Vec<String> = out.cells.iter().map(render_cell_json).collect();
    format!(
        "{}{}{}",
        json_prologue(&out.spec, out.cells.len(), None),
        cells.join(","),
        json_epilogue(out)
    )
}

/// CSV column headers: coordinates, labels, then the summary fields.
const CSV_HEADER: &str = "index,seed,trace,catalog,scheduler,window,noise_sigma,split,stepping,\
                          total_energy_j,mean_power_w,qos_shortfall,violation_seconds,\
                          worst_shortfall,reconfigurations,nodes_switched_on,nodes_switched_off,\
                          reconfig_energy_j,instance_migrations,stepping_effective,\
                          optimal_energy_j,optimality_gap";

/// The CSV header row, newline-terminated (the streaming prologue).
pub fn csv_header_line() -> String {
    format!("{CSV_HEADER}\n")
}

/// RFC-4180 field quoting: labels are free-form (custom catalog names may
/// hold commas or quotes), so any field containing a delimiter, quote or
/// newline is wrapped in quotes with inner quotes doubled.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// One cell as a newline-terminated CSV row.
pub fn render_cell_csv(c: &CellRecord) -> String {
    let m = &c.summary;
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
        c.coords.index,
        c.coords.seed,
        csv_field(&c.labels[0]),
        csv_field(&c.labels[1]),
        csv_field(&c.labels[2]),
        csv_field(&c.labels[3]),
        csv_field(&c.labels[4]),
        csv_field(&c.labels[5]),
        csv_field(&c.labels[6]),
        m.total_energy_j,
        m.mean_power_w,
        m.qos_shortfall,
        m.violation_seconds,
        m.worst_shortfall,
        m.reconfigurations,
        m.nodes_switched_on,
        m.nodes_switched_off,
        m.reconfig_energy_j,
        m.instance_migrations,
        crate::spec::stepping_label(m.stepping_effective),
        // Empty cells (no optimality pass / zero optimum) stay empty —
        // CSV readers parse them as missing, not as zero.
        m.optimal_energy_j.map_or(String::new(), |v| v.to_string()),
        m.optimality_gap.map_or(String::new(), |v| v.to_string()),
    )
}

/// Render the flat per-cell CSV artifact (header + one row per cell).
pub fn render_csv(out: &GridOutcome) -> String {
    let mut s = csv_header_line();
    for c in &out.cells {
        s.push_str(&render_cell_csv(c));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::GridRunner;
    use crate::spec::{CatalogSpec, GridSpec, SchedulerDim, TraceSpec};
    use bml_core::combination::SplitPolicy;
    use bml_sim::Stepping;

    fn outcome() -> GridOutcome {
        let spec = GridSpec {
            name: "artifact-unit".into(),
            root_seed: 3,
            traces: vec![TraceSpec {
                source: "constant".into(),
                days: 1,
                seed: 0,
            }],
            catalogs: vec![CatalogSpec::paper_trio()],
            schedulers: vec![SchedulerDim::Baseline],
            windows: vec![None, Some(378)],
            noise_sigmas: vec![0.0],
            splits: vec![SplitPolicy::EfficiencyGreedy],
            steppings: vec![Stepping::EventDriven],
        };
        GridRunner::new(&spec).threads(2).run().unwrap().outcome
    }

    #[test]
    fn json_has_schema_and_every_cell() {
        let out = outcome();
        let j = render_json(&out);
        assert!(j.starts_with("{\"schema\":\"bml-grid/v5\""));
        assert!(j.contains("\"name\":\"artifact-unit\""));
        assert!(j.contains("\"n_cells\":2"));
        assert!(j.contains("\"refine\":null"));
        assert!(
            j.contains("\"failed_cells\":[]"),
            "clean run: empty quarantine: {j}"
        );
        assert!(j.contains("\"pareto_energy_vs_qos\":["));
        // One energy field per cell plus one per best-by-dimension entry.
        let n_bests = per_dimension_bests(&out).len();
        assert_eq!(j.matches("\"total_energy_j\":").count(), 2 + n_bests);
    }

    #[test]
    fn render_is_the_concatenation_of_the_streaming_parts() {
        let out = outcome();
        let mut streamed = json_prologue(&out.spec, out.cells.len(), None);
        for (i, c) in out.cells.iter().enumerate() {
            if i > 0 {
                streamed.push(',');
            }
            streamed.push_str(&render_cell_json(c));
        }
        streamed.push_str(&json_epilogue(&out));
        assert_eq!(streamed, render_json(&out));
        let mut csv = csv_header_line();
        for c in &out.cells {
            csv.push_str(&render_cell_csv(c));
        }
        assert_eq!(csv, render_csv(&out));
    }

    #[test]
    fn refine_provenance_is_embedded_when_present() {
        let out = outcome();
        let meta = RefineMeta {
            rounds: 3,
            budget_cells: 10_000,
            seeded_cells: 144,
            final_cells: out.cells.len() as u64,
        };
        let j = json_prologue(&out.spec, out.cells.len(), Some(&meta));
        assert!(j.contains(
            "\"refine\":{\"rounds\":3,\"budget_cells\":10000,\"seeded_cells\":144,\"final_cells\":2}"
        ));
        assert!(!j.contains("\"refine\":null"));
    }

    #[test]
    fn csv_has_header_and_one_row_per_cell() {
        let out = outcome();
        let csv = render_csv(&out);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + out.cells.len());
        assert!(lines[0].starts_with("index,seed,trace,"));
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count(),
            "header and rows must align"
        );
        assert!(lines[1].starts_with("0,"));
    }

    #[test]
    fn csv_quotes_labels_containing_delimiters() {
        let mut out = outcome();
        // Free-form catalog names are supported; a comma must not shift
        // the row's columns.
        out.cells[0].labels[1] = "big,medium \"custom\"".into();
        let csv = render_csv(&out);
        let row = csv.lines().nth(1).unwrap();
        assert!(
            row.contains("\"big,medium \"\"custom\"\"\""),
            "label not quoted: {row}"
        );
        assert_eq!(csv_field("plain"), "plain");
    }

    #[test]
    fn artifact_records_effective_stepping() {
        let out = outcome();
        let j = render_json(&out);
        assert_eq!(
            j.matches("\"stepping_effective\":\"event\"").count(),
            out.cells.len(),
            "every event-requested cell must report the event path: {j}"
        );
        let csv = render_csv(&out);
        let col = CSV_HEADER
            .split(',')
            .position(|h| h == "stepping_effective")
            .unwrap();
        for row in csv.lines().skip(1) {
            assert_eq!(
                row.split(',').nth(col),
                Some("event"),
                "row reports another loop: {row}"
            );
        }
    }

    #[test]
    fn v4_carries_the_optimality_columns() {
        let out = outcome();
        let j = render_json(&out);
        assert_eq!(
            j.matches("\"optimal_energy_j\":").count(),
            out.cells.len(),
            "one optimum per cell: {j}"
        );
        assert_eq!(j.matches("\"optimality_gap\":").count(), out.cells.len());
        assert!(
            !j.contains("\"optimal_energy_j\":null"),
            "GridRunner attaches an optimum to every cell"
        );
        let csv = render_csv(&out);
        let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        assert_eq!(header[header.len() - 2], "optimal_energy_j");
        assert_eq!(header[header.len() - 1], "optimality_gap");
        for row in csv.lines().skip(1) {
            let fields: Vec<&str> = row.split(',').collect();
            assert_eq!(fields.len(), header.len());
            let opt: f64 = fields[fields.len() - 2].parse().unwrap();
            let gap: f64 = fields[fields.len() - 1].parse().unwrap();
            assert!(opt > 0.0);
            assert!(gap >= 0.0, "noise-free cells cannot beat the optimum");
        }
    }

    #[test]
    fn v5_quarantine_section_and_index_based_pareto() {
        let mut out = outcome();
        // Quarantine the first cell: it moves from `cells` to
        // `failed_cells`, and the frontier must keep referring to the
        // surviving cell by its enumeration index (1), not its new
        // position in the array (0).
        let gone = out.cells.remove(0);
        out.failed_cells.push(FailedCell {
            coords: gone.coords,
            labels: gone.labels.clone(),
            attempts: 2,
            panic_digest: crate::chaos::panic_digest("boom"),
        });
        let j = render_json(&out);
        assert!(j.contains("\"failed_cells\":[{\"index\":0,"), "{j}");
        assert!(j.contains("\"status\":\"failed\",\"attempts\":2,\"panic_digest\":\""));
        assert!(
            j.contains("\"pareto_energy_vs_qos\":[1]"),
            "frontier must publish enumeration indices: {j}"
        );
        // Both arrays together account for every cell of the spec.
        assert_eq!(out.cells.len() + out.failed_cells.len(), 2);
        // The quarantined row carries the full label set, like a cell row.
        let failed = render_failed_cell_json(&out.failed_cells[0]);
        for name in DIMENSIONS {
            assert!(failed.contains(&format!("\"{name}\":\"")), "{failed}");
        }
    }

    #[test]
    fn json_seed_is_a_decimal_string() {
        let out = outcome();
        let j = render_json(&out);
        let expected = format!("\"seed\":\"{}\"", out.cells[0].coords.seed);
        assert!(j.contains(&expected), "{j}");
    }
}
