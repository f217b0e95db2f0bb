//! # bml-grid — parallel experiment orchestration
//!
//! The paper's evaluation is a handful of fixed scenarios; this crate
//! opens the full cross-product. A [`GridSpec`] declares a value list for
//! each of seven experiment dimensions —
//!
//! 1. **trace** — named workload sources from the `bml-trace` registry
//!    (`worldcup`, `diurnal`, `random-walk`, ...), with days and seed;
//! 2. **catalog** — named architecture mixes ([`CatalogSpec::table1`],
//!    [`CatalogSpec::big_medium`], ...);
//! 3. **scheduler** — baseline pro-active or transition-aware;
//! 4. **window** — look-ahead lengths (`None` = the paper's 378 s rule);
//! 5. **noise_sigma** — relative gaussian prediction error (0 = clean);
//! 6. **split** — load-split policy across online machines;
//! 7. **stepping** — event-driven replay or the per-second reference —
//!
//! and a [`GridRunner`] executes every cell of the cross-product
//! rayon-parallel over the shared `bml-sim` cell executor:
//!
//! ```no_run
//! # use bml_grid::{GridRunner, GridSpec, StreamingArtifactWriter};
//! # fn demo(spec: &GridSpec) -> Result<(), String> {
//! let mut sink = StreamingArtifactWriter::create("out".as_ref())
//!     .map_err(|e| e.to_string())?;
//! let run = GridRunner::new(spec)
//!     .threads(8)                    // worker cap (wall clock only)
//!     .cache_dir("/tmp/bml-cache")   // content-addressed cell cache
//!     .sink(&mut sink)               // stream artifacts as cells finish
//!     .run()?;
//! # Ok(())
//! # }
//! ```
//!
//! Completed cells flow through the aggregator (per-dimension bests +
//! the energy-vs-QoS Pareto frontier) into the versioned
//! `BENCH_grid.json` and `BENCH_grid.csv`, streamed incrementally by the
//! [`StreamingArtifactWriter`]; the streamed bytes equal the in-memory
//! [`render_json`] / [`render_csv`] of the same outcome. Repeat cells are
//! served from the [`cache`] (keyed on *content*: trace bits, catalog
//! constants, cell knobs, RNG keying and schema versions — never thread
//! counts or hosts).
//!
//! # Determinism
//!
//! Cell seeds derive splitmix-style from the root seed and the cell's
//! *scenario index* — its enumeration index with the innermost stepping
//! dimension divided out ([`spec::splitmix64`]; see
//! [`spec::GridSpec::cells`]), so stepping twins replay the same noisy
//! scenario — and execution preserves enumeration order whatever the
//! worker count. For a fixed spec the
//! rendered artifacts are therefore **byte-identical at any thread
//! count** — CI verifies this, and `--threads` on the `grid` binary only
//! changes wall-clock time.
//!
//! # Relation to the ablation binaries
//!
//! Each classic ablation is a 1-D slice of this grid (all other
//! dimensions pinned to the paper's defaults):
//!
//! | binary                | grid dimension swept                  |
//! |-----------------------|---------------------------------------|
//! | `ablation_window`     | `windows`                             |
//! | `ablation_prediction` | `noise_sigmas`                        |
//! | `ablation_scheduler`  | `schedulers`                          |
//! | `fig5_bounds --stepping` | `steppings`                        |
//!
//! The first three build that slice as a [`GridSpec`] and run it through
//! [`GridRunner`] (`bml_bench::run_ablation`), so every row they print is
//! a grid cell, noise seed and offline optimum included. `fig5_bounds` is
//! not a grid run: it runs the Fig. 5 comparison at the one stepping
//! `--stepping` names.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aggregate;
pub mod artifact;
pub mod cache;
pub mod chaos;
pub mod executor;
pub mod journal;
pub mod spec;
pub mod stream;

/// The workspace's one JSON writer, owned by `bml-obs`; the artifact
/// writer and the benchmark harness import it from here.
pub use bml_obs::json;

pub use aggregate::{pareto_frontier, per_dimension_bests, DimensionBest};
pub use artifact::{render_csv, render_json, SCHEMA};
pub use cache::{CacheStats, CellCache, OptEntry};
pub use chaos::ChaosPolicy;
pub use executor::{CellRecord, FailedCell, GridOutcome, GridRun, GridRunner, RunWarning};
pub use journal::{Journal, JOURNAL_NAME};
pub use spec::{
    CatalogSpec, CellCoords, GridSpec, GridSpecBuilder, SchedulerDim, TraceSpec, DIMENSIONS,
};
pub use stream::StreamingArtifactWriter;
