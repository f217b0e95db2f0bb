//! Declarative grid specifications: the seven experiment dimensions, cell
//! enumeration, and deterministic per-cell seeding.
//!
//! A [`GridSpec`] names a value list for every dimension; the grid is
//! their full cross-product. Enumeration order is fixed and documented
//! (see [`GridSpec::cells`]) so a spec plus a root seed pins every cell's
//! index, seed, and coordinates forever — artifacts are comparable across
//! runs, machines, and thread counts.

use bml_core::bml::BmlInfrastructure;
use bml_core::catalog;
use bml_core::combination::SplitPolicy;
use bml_core::profile::ArchProfile;
use bml_core::scheduler::paper_window_length;
use bml_sim::exec::CellConfig;
use bml_sim::{SchedulerKind, SimConfig, Stepping};
use bml_trace::LoadTrace;

/// The seven dimension names, in enumeration-nesting order (outermost
/// first). Artifact columns and aggregation reports use these names.
pub const DIMENSIONS: [&str; 7] = [
    "trace",
    "catalog",
    "scheduler",
    "window",
    "noise_sigma",
    "split",
    "stepping",
];

/// Scheduler dimension value: which reconfiguration scheduler drives the
/// cell. Resolved to a concrete [`SchedulerKind`] per cell, because the
/// transition-aware scheduler's horizon comes from the cell's window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerDim {
    /// The paper's pro-active scheduler.
    Baseline,
    /// The future-work transition-aware scheduler (Sec. VI).
    TransitionAware,
}

impl SchedulerDim {
    /// Stable label used in artifacts and aggregation.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerDim::Baseline => "baseline",
            SchedulerDim::TransitionAware => "transition-aware",
        }
    }

    /// Concrete scheduler for a cell with look-ahead `window_s` and load
    /// split `split`: the transition-aware one prices its decisions over
    /// that window, through
    /// [`TransitionAwareConfig::for_window`](bml_core::transition_aware::TransitionAwareConfig::for_window).
    pub fn resolve(self, window_s: u64, split: SplitPolicy) -> SchedulerKind {
        match self {
            SchedulerDim::Baseline => SchedulerKind::Baseline,
            SchedulerDim::TransitionAware => SchedulerKind::TransitionAware(
                bml_core::transition_aware::TransitionAwareConfig::for_window(window_s, split),
            ),
        }
    }
}

/// Catalog dimension value: a named mix of architecture profiles, by
/// catalog codename (resolved through [`bml_core::catalog::by_name`]).
/// Construction runs the paper's Steps 1-3 filtering, so a mix listing
/// dominated machines (e.g. the full Table I) still builds the same
/// infrastructure as its surviving subset — the *label* records intent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogSpec {
    /// Stable label used in artifacts and aggregation.
    pub name: String,
    /// Profile codenames composing the mix.
    pub profiles: Vec<String>,
}

impl CatalogSpec {
    /// All five Table I machines (filters down to the paper's trio).
    pub fn table1() -> Self {
        CatalogSpec {
            name: "table1".into(),
            profiles: vec![
                "paravance".into(),
                "taurus".into(),
                "graphene".into(),
                "chromebook".into(),
                "raspberry".into(),
            ],
        }
    }

    /// The paper's surviving Big/Medium/Little trio.
    pub fn paper_trio() -> Self {
        CatalogSpec {
            name: "big-medium-little".into(),
            profiles: vec!["paravance".into(), "chromebook".into(), "raspberry".into()],
        }
    }

    /// Big + Medium only (no Little tier).
    pub fn big_medium() -> Self {
        CatalogSpec {
            name: "big-medium".into(),
            profiles: vec!["paravance".into(), "chromebook".into()],
        }
    }

    /// Big + Little only (no Medium tier).
    pub fn big_little() -> Self {
        CatalogSpec {
            name: "big-little".into(),
            profiles: vec!["paravance".into(), "raspberry".into()],
        }
    }

    /// Big only — the homogeneous baseline as a BML degenerate case.
    pub fn big_only() -> Self {
        CatalogSpec {
            name: "big-only".into(),
            profiles: vec!["paravance".into()],
        }
    }

    /// The Section-IV illustrative A-D catalog.
    pub fn illustrative() -> Self {
        CatalogSpec {
            name: "illustrative".into(),
            profiles: vec!["A".into(), "B".into(), "C".into(), "D".into()],
        }
    }

    /// Build the infrastructure this mix describes.
    pub fn resolve(&self) -> Result<BmlInfrastructure, String> {
        let profiles: Vec<ArchProfile> = self
            .profiles
            .iter()
            .map(|n| {
                catalog::by_name(n)
                    .ok_or_else(|| format!("catalog '{}': unknown profile '{n}'", self.name))
            })
            .collect::<Result<_, _>>()?;
        BmlInfrastructure::build(&profiles)
            .map_err(|e| format!("catalog '{}' does not build: {e}", self.name))
    }
}

/// Trace dimension value: a named source from the `bml-trace` registry
/// plus the two knobs all sources share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Registry source name (see [`bml_trace::registry::NAMES`]).
    pub source: String,
    /// Days of trace to generate.
    pub days: u32,
    /// Generator seed (ignored by unseeded sources).
    pub seed: u64,
}

impl TraceSpec {
    /// Stable label used in artifacts and aggregation.
    pub fn label(&self) -> String {
        format!("{}-{}d-s{}", self.source, self.days, self.seed)
    }

    /// Generate the trace.
    pub fn resolve(&self) -> Result<LoadTrace, String> {
        bml_trace::registry::generate(&self.source, self.days, self.seed).ok_or_else(|| {
            format!(
                "unknown trace source '{}' (registered: {})",
                self.source,
                bml_trace::registry::NAMES.join(", ")
            )
        })
    }
}

/// Stable label of a stepping-mode dimension value.
pub fn stepping_label(s: Stepping) -> &'static str {
    match s {
        Stepping::PerSecond => "per-second",
        Stepping::EventDriven => "event",
    }
}

/// Stable label of a split-policy dimension value.
pub fn split_label(s: SplitPolicy) -> &'static str {
    match s {
        SplitPolicy::EfficiencyGreedy => "efficiency-greedy",
        SplitPolicy::ProportionalToCapacity => "proportional",
    }
}

/// Stable label of a window dimension value (`None` = the paper's rule).
pub fn window_label(w: Option<u64>) -> String {
    match w {
        None => "paper".into(),
        Some(s) => format!("{s}s"),
    }
}

/// A declarative multi-dimensional experiment grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Grid name, recorded in the artifact.
    pub name: String,
    /// Root seed all per-cell seeds derive from (splitmix-style).
    pub root_seed: u64,
    /// Trace sources (outermost enumeration dimension).
    pub traces: Vec<TraceSpec>,
    /// Catalog mixes.
    pub catalogs: Vec<CatalogSpec>,
    /// Schedulers.
    pub schedulers: Vec<SchedulerDim>,
    /// Look-ahead windows (`None` = the paper's 2x-longest-boot rule).
    pub windows: Vec<Option<u64>>,
    /// Prediction-noise sigmas (0 = clean look-ahead-max prediction).
    pub noise_sigmas: Vec<f64>,
    /// Load-split policies.
    pub splits: Vec<SplitPolicy>,
    /// Engine stepping modes (innermost enumeration dimension).
    pub steppings: Vec<Stepping>,
}

/// Coordinates of one cell: an index into each dimension's value list,
/// the cell's flat enumeration index, and its derived seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellCoords {
    /// Flat enumeration index (0-based, enumeration order).
    pub index: usize,
    /// Deterministic per-cell seed: `splitmix64` of the root seed and the
    /// cell's *scenario index* — its enumeration index with the stepping
    /// dimension projected out. Feeds the cell's noise injection.
    /// Stepping twins share the seed on purpose: the two modes must
    /// replay the *same* noisy scenario for the equivalence gate to
    /// compare them.
    pub seed: u64,
    /// Index into [`GridSpec::traces`].
    pub trace: usize,
    /// Index into [`GridSpec::catalogs`].
    pub catalog: usize,
    /// Index into [`GridSpec::schedulers`].
    pub scheduler: usize,
    /// Index into [`GridSpec::windows`].
    pub window: usize,
    /// Index into [`GridSpec::noise_sigmas`].
    pub sigma: usize,
    /// Index into [`GridSpec::splits`].
    pub split: usize,
    /// Index into [`GridSpec::steppings`].
    pub stepping: usize,
}

/// The splitmix64 mixing function used to expand one root seed into a
/// stream of decorrelated per-cell seeds. Now lives in
/// [`bml_core::rng`] so the engine's counter-based samplers share the
/// exact construction; re-exported here because grid specs and artifacts
/// have always documented it at this path. The derivation
/// `splitmix64(root_seed ^ splitmix64(scenario))` is byte-identical to
/// every bml-grid/v1 artifact ever emitted.
pub use bml_core::rng::splitmix64;

/// Fluent constructor for [`GridSpec`] — see [`GridSpec::builder`].
///
/// Dimension setters replace the whole value list; [`build`] runs
/// [`GridSpec::validate`], so a builder that returns `Ok` has already
/// proven its trace sources registered, its catalog mixes buildable, and
/// every dimension non-empty. Unset dimensions stay empty and fail
/// validation with a named-dimension error rather than panicking later.
///
/// [`build`]: GridSpecBuilder::build
#[derive(Debug, Clone)]
pub struct GridSpecBuilder {
    spec: GridSpec,
}

impl GridSpecBuilder {
    /// Grid name recorded in the artifact (default `"grid"`).
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.spec.name = name.into();
        self
    }

    /// Root seed all per-cell seeds derive from (default 1998, the
    /// workspace-wide default seed).
    #[must_use]
    pub fn root_seed(mut self, seed: u64) -> Self {
        self.spec.root_seed = seed;
        self
    }

    /// Append one trace built from the registry-source triple.
    #[must_use]
    pub fn trace(mut self, source: impl Into<String>, days: u32, seed: u64) -> Self {
        self.spec.traces.push(TraceSpec {
            source: source.into(),
            days,
            seed,
        });
        self
    }

    /// Set the catalog dimension.
    #[must_use]
    pub fn catalogs(mut self, catalogs: Vec<CatalogSpec>) -> Self {
        self.spec.catalogs = catalogs;
        self
    }

    /// Set the scheduler dimension.
    #[must_use]
    pub fn schedulers(mut self, schedulers: Vec<SchedulerDim>) -> Self {
        self.spec.schedulers = schedulers;
        self
    }

    /// Set the window dimension (`None` = the paper's rule).
    #[must_use]
    pub fn windows(mut self, windows: Vec<Option<u64>>) -> Self {
        self.spec.windows = windows;
        self
    }

    /// Set the noise-sigma dimension.
    #[must_use]
    pub fn noise_sigmas(mut self, sigmas: Vec<f64>) -> Self {
        self.spec.noise_sigmas = sigmas;
        self
    }

    /// Set the split-policy dimension.
    #[must_use]
    pub fn splits(mut self, splits: Vec<SplitPolicy>) -> Self {
        self.spec.splits = splits;
        self
    }

    /// Set the stepping dimension.
    #[must_use]
    pub fn steppings(mut self, steppings: Vec<Stepping>) -> Self {
        self.spec.steppings = steppings;
        self
    }

    /// Validate and produce the spec ([`GridSpec::validate`] errors pass
    /// through, so an `Ok` spec is runnable).
    pub fn build(self) -> Result<GridSpec, String> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

impl GridSpec {
    /// Start a validated fluent construction. Defaults: name `"grid"`,
    /// root seed 1998, every dimension empty (set each before `build`).
    pub fn builder() -> GridSpecBuilder {
        GridSpecBuilder {
            spec: GridSpec {
                name: "grid".into(),
                root_seed: 1998,
                traces: Vec::new(),
                catalogs: Vec::new(),
                schedulers: Vec::new(),
                windows: Vec::new(),
                noise_sigmas: Vec::new(),
                splits: Vec::new(),
                steppings: Vec::new(),
            },
        }
    }

    /// Number of cells in the cross-product.
    pub fn n_cells(&self) -> usize {
        self.traces.len()
            * self.catalogs.len()
            * self.schedulers.len()
            * self.windows.len()
            * self.noise_sigmas.len()
            * self.splits.len()
            * self.steppings.len()
    }

    /// Validate the spec: every dimension non-empty, windows at least
    /// 1 s, sigmas finite and non-negative, every trace source registered,
    /// every catalog mix buildable.
    pub fn validate(&self) -> Result<(), String> {
        let dims: [(&str, usize); 7] = [
            ("traces", self.traces.len()),
            ("catalogs", self.catalogs.len()),
            ("schedulers", self.schedulers.len()),
            ("windows", self.windows.len()),
            ("noise_sigmas", self.noise_sigmas.len()),
            ("splits", self.splits.len()),
            ("steppings", self.steppings.len()),
        ];
        for (name, len) in dims {
            if len == 0 {
                return Err(format!("grid '{}': dimension '{name}' is empty", self.name));
            }
        }
        if self.windows.contains(&Some(0)) {
            // The predictor would run a 0 s window as 1 s while the
            // transition-aware scheduler priced 0 s and the artifact said
            // `0s`; reject instead, like `days: 0`.
            return Err(format!(
                "grid '{}': window 0 s (want >= 1 s, or None for the paper's rule)",
                self.name
            ));
        }
        for &s in &self.noise_sigmas {
            if !s.is_finite() || s < 0.0 {
                return Err(format!("grid '{}': bad noise sigma {s}", self.name));
            }
        }
        for t in &self.traces {
            if !bml_trace::registry::NAMES.contains(&t.source.as_str()) {
                return Err(format!(
                    "grid '{}': unknown trace source '{}' (registered: {})",
                    self.name,
                    t.source,
                    bml_trace::registry::NAMES.join(", ")
                ));
            }
            if t.days == 0 {
                // The registry would clamp to one day; reject instead so
                // artifact labels never misdescribe the simulated span.
                return Err(format!(
                    "grid '{}': trace '{}' has days: 0 (want >= 1)",
                    self.name, t.source
                ));
            }
        }
        for c in &self.catalogs {
            c.resolve().map(|_| ())?;
        }
        Ok(())
    }

    /// Enumerate every cell, in the fixed grid order: traces outermost,
    /// then catalogs, schedulers, windows, noise sigmas, splits, and
    /// steppings innermost — the dimension nesting of [`DIMENSIONS`].
    ///
    /// Cell `i` gets seed `splitmix64(root_seed XOR splitmix64(s))` where
    /// `s = i / steppings.len()` is the stepping-independent *scenario
    /// index* (stepping is the innermost dimension, so integer division
    /// projects it out). Stepping twins thereby share their seed — they
    /// are two replays of one scenario, and must stay comparable.
    pub fn cells(&self) -> Vec<CellCoords> {
        let mut out = Vec::with_capacity(self.n_cells());
        let mut index = 0usize;
        let n_steppings = self.steppings.len() as u64;
        for trace in 0..self.traces.len() {
            for catalog in 0..self.catalogs.len() {
                for scheduler in 0..self.schedulers.len() {
                    for window in 0..self.windows.len() {
                        for sigma in 0..self.noise_sigmas.len() {
                            for split in 0..self.splits.len() {
                                for stepping in 0..self.steppings.len() {
                                    let scenario = index as u64 / n_steppings;
                                    out.push(CellCoords {
                                        index,
                                        seed: splitmix64(self.root_seed ^ splitmix64(scenario)),
                                        trace,
                                        catalog,
                                        scheduler,
                                        window,
                                        sigma,
                                        split,
                                        stepping,
                                    });
                                    index += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The engine configuration of cell `coords` on `bml`, the
    /// infrastructure its catalog resolves to: the scheduler resolved for
    /// the cell's window (the paper's 2x-longest-boot rule when the window
    /// is `None`) and split, the cell's noise sigma with its seed, and its
    /// stepping; everything else at [`SimConfig::default`].
    pub fn cell_config(&self, coords: &CellCoords, bml: &BmlInfrastructure) -> CellConfig {
        let window = self.windows[coords.window];
        let split = self.splits[coords.split];
        let window_s = window.unwrap_or_else(|| paper_window_length(bml.candidates()));
        CellConfig {
            scheduler: self.schedulers[coords.scheduler].resolve(window_s, split),
            window,
            noise_sigma: self.noise_sigmas[coords.sigma],
            noise_seed: coords.seed,
            split,
            stepping: self.steppings[coords.stepping],
            ..CellConfig::from_sim(&SimConfig::default())
        }
    }

    /// The label of cell coordinate `coords` along dimension `dim`
    /// (an index into [`DIMENSIONS`]).
    pub fn dimension_label(&self, dim: usize, coords: &CellCoords) -> String {
        match dim {
            0 => self.traces[coords.trace].label(),
            1 => self.catalogs[coords.catalog].name.clone(),
            2 => self.schedulers[coords.scheduler].label().into(),
            3 => window_label(self.windows[coords.window]),
            4 => format!("{}", self.noise_sigmas[coords.sigma]),
            5 => split_label(self.splits[coords.split]).into(),
            6 => stepping_label(self.steppings[coords.stepping]).into(),
            _ => unreachable!("dimension index out of range"),
        }
    }

    /// All seven dimension labels of one cell, in [`DIMENSIONS`] order.
    pub fn cell_labels(&self, coords: &CellCoords) -> Vec<String> {
        (0..DIMENSIONS.len())
            .map(|d| self.dimension_label(d, coords))
            .collect()
    }

    /// The distinct value labels of dimension `dim`, in spec order.
    pub fn dimension_values(&self, dim: usize) -> Vec<String> {
        match dim {
            0 => self.traces.iter().map(TraceSpec::label).collect(),
            1 => self.catalogs.iter().map(|c| c.name.clone()).collect(),
            2 => self
                .schedulers
                .iter()
                .map(|s| s.label().to_string())
                .collect(),
            3 => self.windows.iter().map(|&w| window_label(w)).collect(),
            4 => self.noise_sigmas.iter().map(|s| format!("{s}")).collect(),
            5 => self
                .splits
                .iter()
                .map(|&s| split_label(s).to_string())
                .collect(),
            6 => self
                .steppings
                .iter()
                .map(|&s| stepping_label(s).to_string())
                .collect(),
            _ => unreachable!("dimension index out of range"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> GridSpec {
        GridSpec {
            name: "tiny".into(),
            root_seed: 1998,
            traces: vec![TraceSpec {
                source: "constant".into(),
                days: 1,
                seed: 0,
            }],
            catalogs: vec![CatalogSpec::paper_trio(), CatalogSpec::big_medium()],
            schedulers: vec![SchedulerDim::Baseline, SchedulerDim::TransitionAware],
            windows: vec![None, Some(189)],
            noise_sigmas: vec![0.0, 0.2],
            splits: vec![SplitPolicy::EfficiencyGreedy],
            steppings: vec![Stepping::EventDriven],
        }
    }

    #[test]
    fn cell_count_is_cross_product() {
        let s = tiny_spec();
        // 1 trace x 2 catalogs x 2 schedulers x 2 windows x 2 sigmas.
        assert_eq!(s.n_cells(), 16);
        assert_eq!(s.cells().len(), s.n_cells());
    }

    #[test]
    fn enumeration_is_dense_ordered_and_seeded() {
        let s = tiny_spec();
        let cells = s.cells();
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.seed, splitmix64(s.root_seed ^ splitmix64(i as u64)));
        }
        // Innermost dimension with >1 value (sigma here) varies fastest
        // among the first cells.
        assert_eq!(cells[0].sigma, 0);
        assert_eq!(cells[1].sigma, 1);
        assert_eq!(cells[0].window, cells[1].window);
        // Outermost >1 dimension (catalog) splits the enumeration in two.
        assert_eq!(cells[0].catalog, 0);
        assert_eq!(cells[cells.len() - 1].catalog, 1);
    }

    #[test]
    fn per_cell_seeds_are_distinct() {
        let s = tiny_spec();
        let mut seeds: Vec<u64> = s.cells().iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), s.n_cells());
    }

    #[test]
    fn stepping_twins_share_their_scenario_seed() {
        let mut s = tiny_spec();
        s.steppings = vec![Stepping::EventDriven, Stepping::PerSecond];
        let cells = s.cells();
        for pair in cells.chunks(2) {
            assert_eq!(pair[0].seed, pair[1].seed, "twins must share a seed");
            assert_ne!(pair[0].stepping, pair[1].stepping);
            // Everything but stepping matches within a pair.
            assert_eq!(
                (pair[0].trace, pair[0].catalog, pair[0].scheduler),
                (pair[1].trace, pair[1].catalog, pair[1].scheduler)
            );
            assert_eq!(
                (pair[0].window, pair[0].sigma, pair[0].split),
                (pair[1].window, pair[1].sigma, pair[1].split)
            );
        }
        // Across scenarios seeds still differ.
        assert_ne!(cells[0].seed, cells[2].seed);
    }

    #[test]
    fn validation_catches_bad_specs() {
        let ok = tiny_spec();
        assert!(ok.validate().is_ok());
        let mut empty = tiny_spec();
        empty.windows.clear();
        assert!(empty.validate().unwrap_err().contains("windows"));
        let mut zero_window = tiny_spec();
        zero_window.windows = vec![None, Some(0)];
        assert!(zero_window.validate().unwrap_err().contains("window 0 s"));
        let mut bad_sigma = tiny_spec();
        bad_sigma.noise_sigmas = vec![-0.1];
        assert!(bad_sigma.validate().is_err());
        let mut bad_trace = tiny_spec();
        bad_trace.traces[0].source = "nope".into();
        assert!(bad_trace.validate().unwrap_err().contains("nope"));
        let mut zero_days = tiny_spec();
        zero_days.traces[0].days = 0;
        assert!(zero_days.validate().unwrap_err().contains("days: 0"));
        let mut bad_catalog = tiny_spec();
        bad_catalog.catalogs[0].profiles.push("phantom".into());
        assert!(bad_catalog.validate().unwrap_err().contains("phantom"));
    }

    #[test]
    fn labels_are_stable() {
        let s = tiny_spec();
        let cells = s.cells();
        let labels = s.cell_labels(&cells[1]);
        assert_eq!(
            labels,
            vec![
                "constant-1d-s0",
                "big-medium-little",
                "baseline",
                "paper",
                "0.2",
                "efficiency-greedy",
                "event",
            ]
        );
        assert_eq!(s.dimension_values(3), vec!["paper", "189s"]);
        assert_eq!(s.dimension_values(4), vec!["0", "0.2"]);
    }

    #[test]
    fn catalog_mixes_resolve() {
        for c in [
            CatalogSpec::table1(),
            CatalogSpec::paper_trio(),
            CatalogSpec::big_medium(),
            CatalogSpec::big_little(),
            CatalogSpec::big_only(),
            CatalogSpec::illustrative(),
        ] {
            let infra = c.resolve().unwrap_or_else(|e| panic!("{e}"));
            assert!(infra.n_archs() >= 1, "{}", c.name);
        }
        // Table I filters down to the paper's trio.
        assert_eq!(CatalogSpec::table1().resolve().unwrap().n_archs(), 3);
    }

    #[test]
    fn builder_builds_validated_specs() {
        let spec = GridSpec::builder()
            .name("built")
            .root_seed(7)
            .trace("constant", 1, 0)
            .trace("diurnal", 2, 5)
            .catalogs(vec![CatalogSpec::paper_trio()])
            .schedulers(vec![SchedulerDim::Baseline])
            .windows(vec![None, Some(189)])
            .noise_sigmas(vec![0.0])
            .splits(vec![SplitPolicy::EfficiencyGreedy])
            .steppings(vec![Stepping::EventDriven])
            .build()
            .unwrap();
        assert_eq!(spec.name, "built");
        assert_eq!(spec.n_cells(), 4);
        assert_eq!(spec.traces[1].label(), "diurnal-2d-s5");

        // Defaults: name "grid", root seed 1998.
        let defaulted = GridSpec::builder()
            .trace("constant", 1, 0)
            .catalogs(vec![CatalogSpec::paper_trio()])
            .schedulers(vec![SchedulerDim::Baseline])
            .windows(vec![None])
            .noise_sigmas(vec![0.0])
            .splits(vec![SplitPolicy::EfficiencyGreedy])
            .steppings(vec![Stepping::EventDriven])
            .build()
            .unwrap();
        assert_eq!(defaulted.name, "grid");
        assert_eq!(defaulted.root_seed, 1998);
    }

    #[test]
    fn builder_rejects_invalid_specs_at_build() {
        // An unset dimension fails with its name, not a later panic.
        let err = GridSpec::builder()
            .trace("constant", 1, 0)
            .build()
            .unwrap_err();
        assert!(err.contains("catalogs"), "{err}");
        // Validation runs in full: bad sigmas are caught too.
        let err = GridSpec::builder()
            .trace("constant", 1, 0)
            .catalogs(vec![CatalogSpec::paper_trio()])
            .schedulers(vec![SchedulerDim::Baseline])
            .windows(vec![None])
            .noise_sigmas(vec![-1.0])
            .splits(vec![SplitPolicy::EfficiencyGreedy])
            .steppings(vec![Stepping::EventDriven])
            .build()
            .unwrap_err();
        assert!(err.contains("sigma"), "{err}");
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference values from the canonical splitmix64 (seed 1234567).
        assert_eq!(splitmix64(1234567), 6457827717110365317);
        assert_eq!(splitmix64(0), 16294208416658607535);
    }
}
