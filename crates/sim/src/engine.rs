//! The BML simulation engine: the paper's pro-active placement loop
//! (Sec. V-C) driven over a load trace, with two interchangeable
//! stepping modes.
//!
//! # Per-second mode (the reference implementation)
//!
//! Each second the engine (1) promotes matured machine transitions,
//! (2) lets the scheduler decide — unless a reconfiguration is in flight —
//! using the predictor's window view, (3) applies any reconfiguration plan
//! to the cluster, then (4) measures power (serving + transition ramps)
//! and QoS for that second. Daily energies therefore contain "the energy
//! consumed by computation and by On/Off reconfigurations", exactly as
//! Fig. 5 accounts them.
//!
//! # Event-driven mode (skip-ahead replay)
//!
//! Everything the per-second loop computes is piecewise-constant in time:
//! the prediction is constant between change-points of the look-ahead-max
//! table, the scheduler's decision is a pure function of (prediction,
//! current configuration), and the cluster's power is a pure function of
//! (raw load, pool states), where pool states only change at transition
//! maturity epochs. So instead of ticking 86 400 times per simulated day,
//! the event-driven loop jumps `now` directly to the next *event*:
//!
//! * a **prediction change-point** ([`bml_trace::Predictor::next_change`]
//!   — for a noisy predictor this includes its noise-resample points),
//! * a **transition maturity epoch** — boot completion, handover,
//!   shutdown completion, repair expiry
//!   ([`Cluster::next_transition_event`]),
//! * the **reconfiguration unlock** instant (the schedulers'
//!   `next_wakeup` hint),
//! * the next **failure epoch** of any online machine slot
//!   ([`FailureModel`] — counter-based, so the epoch is known without
//!   replaying the seconds before it),
//!
//! and batches the power/QoS accounting of the skipped stretch over the
//! maximal runs of constant raw load inside it
//! ([`bml_trace::LoadTrace::run_end`], `EnergyMeter::accumulate_span`,
//! `QosReport::record_span` — day boundaries are split inside the meter).
//! A 378 s flat stretch costs one update instead of 378. Both modes are
//! property-tested to produce the same daily energies, QoS counters and
//! reconfiguration log (energies agree to float-accumulation rounding,
//! everything discrete exactly) — including noisy and failure-injected
//! runs, whose samples are pure functions of `(seed, counter)`
//! ([`bml_core::rng`]) and therefore identical no matter how time is
//! stepped.
//!
//! # When per-second mode is still required
//!
//! The event-driven engine silently falls back to the per-second loop
//! only when the predictor itself cannot be segmented:
//! `Predictor::is_segmented() == false` — EWMA and last-value, which
//! genuinely depend on observing every second. Prediction noise and
//! failure injection no longer force a fallback: both sample from the
//! counter-based PRF streams of [`bml_core::rng`] (noise keyed on
//! `(seed, resample_window)`, failure gaps keyed on
//! `(seed, arch, slot, failure_index)`), so skipping seconds cannot
//! change any draw. The chosen loop is reported in
//! [`ScenarioResult::stepping_effective`], which benches, grid artifacts
//! and the CI gates assert on — no silent fallback can creep back in.
//!
//! The per-second ideal-combination queries (the scheduler's no-change
//! test and the target configuration) are served by the infrastructure's
//! precomputed [`bml_core::table::CombinationTable`] in O(log segments),
//! so even the reference mode never pays the full combination search once
//! per simulated second.

use bml_core::bml::BmlInfrastructure;
use bml_core::combination::SplitPolicy;
use bml_core::reconfig::Configuration;
use bml_core::scheduler::{paper_window_length, Decision, ProActiveScheduler, SchedulerStats};
use bml_core::transition_aware::{TransitionAwareConfig, TransitionAwareScheduler};
use bml_metrics::EnergyMeter;
use bml_trace::{LoadTrace, Predictor};

use crate::cluster::Cluster;
use crate::migration::migration_cost;
use crate::qos::QosReport;

/// Which reconfiguration scheduler drives the simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerKind {
    /// The paper's pro-active scheduler: always jump to the ideal
    /// combination for the prediction.
    Baseline,
    /// The future-work transition-aware scheduler: weigh candidate
    /// configurations by serving + transition energy over the horizon.
    TransitionAware(TransitionAwareConfig),
}

/// How the engine advances simulated time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Stepping {
    /// Tick every simulated second — the reference implementation.
    PerSecond,
    /// Jump between events (prediction change-points including
    /// noise-resample points, transition maturities, reconfiguration
    /// unlocks, failure epochs) and batch the accounting of the constant
    /// stretches in between. Result-identical to [`Stepping::PerSecond`]
    /// up to float-accumulation rounding; falls back to it automatically
    /// for non-segmented predictors (EWMA, last-value — see the module
    /// docs).
    #[default]
    EventDriven,
}

/// Internal dispatch over the two scheduler implementations.
enum AnyScheduler {
    Baseline(ProActiveScheduler),
    Aware(TransitionAwareScheduler),
}

impl AnyScheduler {
    fn decide(&mut self, now: u64, predicted: f64, bml: &BmlInfrastructure) -> Decision {
        match self {
            AnyScheduler::Baseline(s) => s.decide(now, predicted, bml),
            AnyScheduler::Aware(s) => s.decide(now, predicted, bml),
        }
    }
    fn is_locked(&self, now: u64) -> bool {
        match self {
            AnyScheduler::Baseline(s) => s.is_locked(now),
            AnyScheduler::Aware(s) => s.is_locked(now),
        }
    }
    fn next_wakeup(&self, now: u64) -> Option<u64> {
        match self {
            AnyScheduler::Baseline(s) => s.next_wakeup(now),
            AnyScheduler::Aware(s) => s.next_wakeup(now),
        }
    }
    fn stats(&self) -> &SchedulerStats {
        match self {
            AnyScheduler::Baseline(s) => s.stats(),
            AnyScheduler::Aware(s) => s.stats(),
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Look-ahead window (s); `None` uses the paper's rule of
    /// 2 x the longest switch-on duration.
    pub window: Option<u64>,
    /// Load-split policy across online machines.
    pub split: SplitPolicy,
    /// Start with every machine off (cold start) instead of pre-warming
    /// the combination for the first prediction.
    pub cold_start: bool,
    /// Scheduler implementation.
    pub scheduler: SchedulerKind,
    /// Optional machine-crash injection (counter-based, event-drivable).
    pub failures: Option<FailureModel>,
    /// Time-stepping mode; see [`Stepping`].
    pub stepping: Stepping,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            window: None,
            split: SplitPolicy::EfficiencyGreedy,
            cold_start: false,
            scheduler: SchedulerKind::Baseline,
            failures: None,
            stepping: Stepping::default(),
        }
    }
}

/// Random machine-crash model: online machines fail with rate
/// `1 / mtbf_s` per second; a crashed machine is dark for `repair_s`
/// seconds and then reboots (normal boot time and energy).
///
/// Sampling is **counter-based**: each architecture `k` owns a row of
/// machine *slots* (slot `j` stands for the `j`-th currently-online
/// machine — the cluster tracks counts, not identities), and slot `j`
/// draws its candidate crash times from time 0 as a running sum of
/// geometric inter-failure gaps, gap `i` keyed on the PRF stream
/// `mix(mix(mix(seed, k), j), i)` ([`bml_core::rng`]). A candidate at
/// second `t` fires iff slot `j` is online (`j < online(k)` at `t`) and
/// is silently missed otherwise. Because every draw is a pure function of
/// `(seed, k, j, i)` and online counts only change at events, the whole
/// failure trajectory is identical under per-second and event-driven
/// stepping — the event loop jumps straight to the next eligible
/// candidate instead of flipping a coin 86 400 times per machine-day.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureModel {
    /// Mean time between failures of one machine (s).
    pub mtbf_s: f64,
    /// Repair delay before the automatic reboot starts (s).
    pub repair_s: u64,
    /// RNG seed (failures are deterministic given the seed).
    pub seed: u64,
}

impl FailureModel {
    /// The one way to spell a failure model: mean time between failures,
    /// repair delay, seed.
    ///
    /// # Panics
    ///
    /// Panics when the parameters are degenerate; use
    /// [`FailureModel::try_new`] to handle that as an error instead.
    pub fn new(mtbf_s: f64, repair_s: u64, seed: u64) -> Self {
        match Self::try_new(mtbf_s, repair_s, seed) {
            Ok(m) => m,
            Err(e) => panic!("FailureModel::new: {e}"),
        }
    }

    /// Validating constructor: rejects parameters that would silently
    /// produce a degenerate sampler instead of the crash model the caller
    /// asked for. The MTBF must be a finite, strictly positive number of
    /// seconds (a NaN or non-positive MTBF would make the per-second
    /// crash probability `1/mtbf_s` meaningless, and `clamp` would mask
    /// it as "never fires"), and the repair delay must be non-zero (a
    /// zero-second repair means crashes are invisible no-ops).
    pub fn try_new(mtbf_s: f64, repair_s: u64, seed: u64) -> Result<Self, String> {
        if !mtbf_s.is_finite() || mtbf_s <= 0.0 {
            return Err(format!(
                "mtbf_s must be a finite positive number of seconds, got {mtbf_s}"
            ));
        }
        if repair_s == 0 {
            return Err(
                "repair_s must be non-zero: a zero-second repair makes every crash a no-op"
                    .to_string(),
            );
        }
        Ok(FailureModel {
            mtbf_s,
            repair_s,
            seed,
        })
    }
}

/// One slot's position in its candidate-crash-time sequence.
#[derive(Debug, Clone, Copy)]
struct SlotState {
    /// Next candidate crash second (absolute simulation time).
    next_time: u64,
    /// Index of the *next* geometric gap to draw (gaps consumed so far).
    index: u64,
}

/// One geometric inter-failure gap: gap `i` of slot `j` of architecture
/// `k`, a pure function of its key — never of how many samples any other
/// slot drew.
fn slot_gap(p: f64, seed: u64, k: u64, j: u64, i: u64) -> u64 {
    use bml_core::rng::{geometric_gap, mix};
    geometric_gap(p, mix(mix(mix(seed, k), j), i))
}

/// Counter-based failure sampler shared by both stepping loops (see
/// [`FailureModel`] for the sampling law).
struct FailureSampler {
    p: f64,
    repair_s: u64,
    seed: u64,
    /// Per-architecture slot rows, grown lazily to the peak online count.
    slots: Vec<Vec<SlotState>>,
}

impl FailureSampler {
    /// `None` when the model can never fire (`p == 0`): no sampler, no
    /// failure events.
    fn new(model: &FailureModel, n_archs: usize) -> Option<Self> {
        let p = (1.0 / model.mtbf_s).clamp(0.0, 1.0);
        if p <= 0.0 {
            return None;
        }
        Some(FailureSampler {
            p,
            repair_s: model.repair_s,
            seed: model.seed,
            slots: vec![Vec::new(); n_archs],
        })
    }

    /// Bring every slot up to date with `now` and fire the crashes due
    /// this very second. Candidates strictly before `now` are misses:
    /// either their slot was offline at the time, or (event-driven mode)
    /// the candidate fell inside a skipped span *because* its slot was
    /// offline — eligible candidates bound the span via
    /// [`FailureSampler::next_event`], so they are never skipped.
    /// Returns the number of machines crashed at `now`.
    fn sync(&mut self, cluster: &mut Cluster<'_>, now: u64) -> u64 {
        let (p, seed) = (self.p, self.seed);
        let mut injected = 0u64;
        for k in 0..self.slots.len() {
            // Newly visible slots (online count reached a new peak) start
            // their sequence at absolute time 0 and skip the candidates
            // from before they were online.
            let online = cluster.pools()[k].online as usize;
            while self.slots[k].len() < online {
                let j = self.slots[k].len() as u64;
                let mut s = SlotState {
                    next_time: slot_gap(p, seed, k as u64, j, 0) - 1,
                    index: 1,
                };
                while s.next_time < now {
                    s.next_time += slot_gap(p, seed, k as u64, j, s.index);
                    s.index += 1;
                }
                self.slots[k].push(s);
            }
            for j in 0..self.slots[k].len() {
                let slot = &mut self.slots[k][j];
                while slot.next_time < now {
                    slot.next_time += slot_gap(p, seed, k as u64, j as u64, slot.index);
                    slot.index += 1;
                }
                if slot.next_time == now {
                    // Eligibility is re-read per slot: an earlier crash
                    // this same second shrinks `online` for later slots,
                    // identically in both stepping loops.
                    if j < cluster.pools()[k].online as usize
                        && cluster.fail_one(k, now, self.repair_s)
                    {
                        injected += 1;
                    }
                    slot.next_time += slot_gap(p, seed, k as u64, j as u64, slot.index);
                    slot.index += 1;
                }
            }
        }
        injected
    }

    /// The earliest candidate crash time over the slots that are online
    /// *right now* — a valid span bound because the online set only
    /// changes at events, so no offline slot can become eligible before
    /// the span ends.
    fn next_event(&self, cluster: &Cluster<'_>) -> Option<u64> {
        let mut next: Option<u64> = None;
        for (k, row) in self.slots.iter().enumerate() {
            let online = cluster.pools()[k].online as usize;
            for slot in row.iter().take(online) {
                next = Some(next.map_or(slot.next_time, |n: u64| n.min(slot.next_time)));
            }
        }
        next
    }
}

/// One reconfiguration launched during a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigRecord {
    /// The second the decision was taken.
    pub at: u64,
    /// Per-architecture machine counts the plan targets.
    pub target: Vec<u32>,
}

/// Aggregated outcome of one simulated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario name (e.g. `"Big-Medium-Little"`).
    pub name: String,
    /// Energy per simulated day (J).
    pub daily_energy_j: Vec<f64>,
    /// Total energy (J).
    pub total_energy_j: f64,
    /// Mean power over the run (W).
    pub mean_power_w: f64,
    /// QoS outcome.
    pub qos: QosReport,
    /// Reconfigurations launched.
    pub reconfigurations: u64,
    /// Machines booted over the run.
    pub nodes_switched_on: u64,
    /// Machines shut down over the run.
    pub nodes_switched_off: u64,
    /// Energy charged to On/Off transitions (J), included in the totals.
    pub reconfig_energy_j: f64,
    /// Stop+start migrations of web-server instances between architectures.
    pub instance_migrations: u64,
    /// Machine crashes injected by the failure model.
    pub failures_injected: u64,
    /// Constant-load spans the event-driven loop batched into single
    /// meter updates. 0 in per-second mode (nothing is batched there) —
    /// a *mode-dependent* telemetry counter, deliberately excluded from
    /// [`ScenarioResult::check_replay_equivalent`].
    pub segments_batched: u64,
    /// Simulated seconds the event-driven loop never ticked (trace
    /// length minus decision epochs) — the skip-ahead win. 0 in
    /// per-second mode; mode-dependent like `segments_batched`.
    pub events_skipped: u64,
    /// 1 when an [`Stepping::EventDriven`] request fell back to the
    /// per-second loop because the predictor is not segmented (EWMA,
    /// last-value), 0 otherwise — the machine-readable fallback reason
    /// behind `stepping_effective`.
    pub fallback_unsegmented: u64,
    /// The stepping loop that actually ran: [`Stepping::EventDriven`]
    /// requests fall back to [`Stepping::PerSecond`] for non-segmented
    /// predictors (see the module docs), and this field records the
    /// outcome so benches, grid artifacts and CI can assert no silent
    /// fallback remains.
    pub stepping_effective: Stepping,
    /// Every reconfiguration launched, in decision order — the replay's
    /// audit trail, and what the stepping-equivalence property pins.
    pub reconfig_log: Vec<ReconfigRecord>,
    /// The offline-optimal energy (J) for the same trace/catalog/split,
    /// from the `bml-opt` segment DP. `None` until an optimality pass
    /// attaches it (the engine itself never computes it).
    pub optimal_energy_j: Option<f64>,
    /// Relative optimality gap `(total_energy_j - optimal) / optimal`.
    /// `None` without an optimality pass or when the optimum is zero.
    /// Negative gaps are possible for runs that violate QoS: the optimum
    /// is constrained to full service, a violating run is not.
    pub optimality_gap: Option<f64>,
}

/// The compact per-cell summary an experiment-grid aggregator consumes:
/// every scalar of [`ScenarioResult`] and nothing that grows with the run
/// (no per-day vectors, no reconfiguration log) — hundreds of grid cells
/// stay cheap to hold, serialize, and diff.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// Total energy (J), transitions included.
    pub total_energy_j: f64,
    /// Mean power over the run (W).
    pub mean_power_w: f64,
    /// Fraction of total demand that went unserved, in `[0, 1]`.
    pub qos_shortfall: f64,
    /// Seconds where served < demand.
    pub violation_seconds: u64,
    /// Worst single-second relative shortfall, in `[0, 1]`.
    pub worst_shortfall: f64,
    /// Reconfigurations launched.
    pub reconfigurations: u64,
    /// Machines booted over the run.
    pub nodes_switched_on: u64,
    /// Machines shut down over the run.
    pub nodes_switched_off: u64,
    /// Energy charged to On/Off transitions (J).
    pub reconfig_energy_j: f64,
    /// Stop+start instance migrations.
    pub instance_migrations: u64,
    /// Event-loop spans batched; see [`ScenarioResult::segments_batched`].
    pub segments_batched: u64,
    /// Seconds skipped; see [`ScenarioResult::events_skipped`].
    pub events_skipped: u64,
    /// Per-second fallback flag; see
    /// [`ScenarioResult::fallback_unsegmented`].
    pub fallback_unsegmented: u64,
    /// The stepping loop that actually ran (fallback audit; see
    /// [`ScenarioResult::stepping_effective`]).
    pub stepping_effective: Stepping,
    /// Offline-optimal energy (J); see [`ScenarioResult::optimal_energy_j`].
    pub optimal_energy_j: Option<f64>,
    /// Relative optimality gap; see [`ScenarioResult::optimality_gap`].
    pub optimality_gap: Option<f64>,
}

impl ScenarioResult {
    /// The per-cell summary grid aggregation consumes (see [`CellSummary`]).
    pub fn summary(&self) -> CellSummary {
        CellSummary {
            total_energy_j: self.total_energy_j,
            mean_power_w: self.mean_power_w,
            qos_shortfall: self.qos.shortfall_fraction(),
            violation_seconds: self.qos.violation_seconds,
            worst_shortfall: self.qos.worst_shortfall,
            reconfigurations: self.reconfigurations,
            nodes_switched_on: self.nodes_switched_on,
            nodes_switched_off: self.nodes_switched_off,
            reconfig_energy_j: self.reconfig_energy_j,
            instance_migrations: self.instance_migrations,
            segments_batched: self.segments_batched,
            events_skipped: self.events_skipped,
            fallback_unsegmented: self.fallback_unsegmented,
            stepping_effective: self.stepping_effective,
            optimal_energy_j: self.optimal_energy_j,
            optimality_gap: self.optimality_gap,
        }
    }

    /// Attach an offline-optimal reference energy: sets
    /// `optimal_energy_j` and derives `optimality_gap` relative to it
    /// (`None` gap when the optimum is zero — an all-idle trace has
    /// nothing to be proportional to).
    pub fn attach_optimal(&mut self, optimal_energy_j: f64) {
        self.optimal_energy_j = Some(optimal_energy_j);
        self.optimality_gap = if optimal_energy_j > 0.0 {
            Some((self.total_energy_j - optimal_energy_j) / optimal_energy_j)
        } else {
            None
        };
    }

    /// Check that `other` is a replay-equivalent result of the same
    /// scenario — the contract between the two stepping modes: every
    /// discrete outcome (reconfiguration log, switch/migration/failure
    /// counters, QoS second counts, worst shortfall, committed transition
    /// energy) must match **exactly**, while float-accumulated energy
    /// aggregates must agree within `rel_tol` relative (+1e-9 absolute
    /// slack for zero-energy runs), since the two modes sum the same
    /// per-second powers in different groupings.
    ///
    /// Returns the first divergence as an error message. This is the one
    /// definition of "result-identical" shared by the unit tests, the
    /// equivalence proptest, and (mirrored in JSON) CI's stepping gate.
    pub fn check_replay_equivalent(
        &self,
        other: &ScenarioResult,
        rel_tol: f64,
    ) -> Result<(), String> {
        let close = |a: f64, b: f64| (a - b).abs() <= rel_tol * a.abs().max(b.abs()) + 1e-9;
        let exact_u64 = |field: &str, a: u64, b: u64| {
            if a == b {
                Ok(())
            } else {
                Err(format!("{field} diverged: {a} vs {b}"))
            }
        };
        if self.reconfig_log != other.reconfig_log {
            return Err(format!(
                "reconfig_log diverged ({} vs {} entries)",
                self.reconfig_log.len(),
                other.reconfig_log.len()
            ));
        }
        exact_u64(
            "reconfigurations",
            self.reconfigurations,
            other.reconfigurations,
        )?;
        exact_u64(
            "nodes_switched_on",
            self.nodes_switched_on,
            other.nodes_switched_on,
        )?;
        exact_u64(
            "nodes_switched_off",
            self.nodes_switched_off,
            other.nodes_switched_off,
        )?;
        exact_u64(
            "instance_migrations",
            self.instance_migrations,
            other.instance_migrations,
        )?;
        exact_u64(
            "failures_injected",
            self.failures_injected,
            other.failures_injected,
        )?;
        exact_u64(
            "qos.demand_seconds",
            self.qos.demand_seconds,
            other.qos.demand_seconds,
        )?;
        exact_u64(
            "qos.violation_seconds",
            self.qos.violation_seconds,
            other.qos.violation_seconds,
        )?;
        if self.qos.worst_shortfall != other.qos.worst_shortfall {
            return Err(format!(
                "qos.worst_shortfall diverged: {} vs {}",
                self.qos.worst_shortfall, other.qos.worst_shortfall
            ));
        }
        if self.reconfig_energy_j != other.reconfig_energy_j {
            return Err(format!(
                "reconfig_energy_j diverged: {} vs {}",
                self.reconfig_energy_j, other.reconfig_energy_j
            ));
        }
        for (field, a, b) in [
            ("total_energy_j", self.total_energy_j, other.total_energy_j),
            ("mean_power_w", self.mean_power_w, other.mean_power_w),
            (
                "qos.total_demand",
                self.qos.total_demand,
                other.qos.total_demand,
            ),
            (
                "qos.total_served",
                self.qos.total_served,
                other.qos.total_served,
            ),
        ] {
            if !close(a, b) {
                return Err(format!("{field} diverged: {a} vs {b}"));
            }
        }
        if self.daily_energy_j.len() != other.daily_energy_j.len() {
            return Err(format!(
                "daily_energy_j length diverged: {} vs {}",
                self.daily_energy_j.len(),
                other.daily_energy_j.len()
            ));
        }
        for (d, (a, b)) in self
            .daily_energy_j
            .iter()
            .zip(&other.daily_energy_j)
            .enumerate()
        {
            if !close(*a, *b) {
                return Err(format!("daily_energy_j[{d}] diverged: {a} vs {b}"));
            }
        }
        Ok(())
    }
}

/// Run the BML pro-active scenario over `trace` with the given predictor.
///
/// The predictor is generic: the paper's emulated prediction is
/// [`bml_trace::LookaheadMaxPredictor`] over a 378 s window; noisy or
/// reactive predictors plug in for the future-work experiments.
///
/// `config.stepping` selects the time-stepping mode; the event-driven
/// mode transparently falls back to the per-second reference loop when
/// the run cannot be segmented (see the module docs).
pub fn simulate_bml(
    trace: &LoadTrace,
    bml: &BmlInfrastructure,
    predictor: &mut dyn Predictor,
    config: &SimConfig,
) -> ScenarioResult {
    let window = config
        .window
        .unwrap_or_else(|| paper_window_length(bml.candidates()));
    let _ = window; // the window is baked into the predictor; kept for reports
    let use_events = config.stepping == Stepping::EventDriven && predictor.is_segmented();
    if use_events {
        simulate_event_driven(trace, bml, predictor, config)
    } else {
        let fallback = config.stepping == Stepping::EventDriven;
        simulate_per_second(trace, bml, predictor, config, fallback)
    }
}

/// Mutable state shared by the two stepping loops: cluster, scheduler,
/// meters, and the bookkeeping around a reconfiguration decision.
struct EngineState<'a> {
    cluster: Cluster<'a>,
    sched: AnyScheduler,
    meter: EnergyMeter,
    qos: QosReport,
    migrations: u64,
    failures: Option<FailureSampler>,
    failures_injected: u64,
    /// Telemetry counters; see [`ScenarioResult::segments_batched`] /
    /// `events_skipped` / `fallback_unsegmented`. The running loop fills
    /// in whichever apply before `finish`.
    segments_batched: u64,
    events_skipped: u64,
    fallback_unsegmented: u64,
    reconfig_log: Vec<ReconfigRecord>,
    /// Reused online-counts buffer for the per-step power query.
    counts_scratch: Vec<u32>,
}

impl<'a> EngineState<'a> {
    fn new(bml: &'a BmlInfrastructure, predictor: &mut dyn Predictor, config: &SimConfig) -> Self {
        let n = bml.n_archs();
        let initial = if config.cold_start {
            Configuration::off(n)
        } else {
            Configuration(bml.combination_table().counts_for(predictor.predict(0)))
        };
        let cluster = Cluster::with_online(bml.candidates(), &initial.0, config.split);
        let sched = match &config.scheduler {
            SchedulerKind::Baseline => {
                AnyScheduler::Baseline(ProActiveScheduler::with_initial(initial))
            }
            SchedulerKind::TransitionAware(cfg) => {
                AnyScheduler::Aware(TransitionAwareScheduler::with_initial(initial, cfg.clone()))
            }
        };
        EngineState {
            cluster,
            sched,
            meter: EnergyMeter::new(),
            qos: QosReport::default(),
            migrations: 0,
            failures: config
                .failures
                .as_ref()
                .and_then(|m| FailureSampler::new(m, n)),
            failures_injected: 0,
            segments_batched: 0,
            events_skipped: 0,
            fallback_unsegmented: 0,
            reconfig_log: Vec::new(),
            counts_scratch: Vec::with_capacity(n),
        }
    }

    /// One scheduler consultation at `now`: decide, and on a
    /// reconfiguration account migrations + zero-duration transition
    /// lumps and apply the plan to the cluster. Identical in both
    /// stepping modes — the event loop only calls it at event instants,
    /// where the per-second loop's intermediate calls are provably
    /// `NoChange` or `Locked`.
    fn decide_at(&mut self, now: u64, predicted: f64, bml: &BmlInfrastructure) {
        if let Decision::Reconfigure(plan) = self.sched.decide(now, predicted, bml) {
            let (migrations, energy_j) = migration_cost(&plan.from.0, &plan.target.0);
            self.migrations += u64::from(migrations);
            self.meter.add_energy(energy_j);
            // Zero-duration transitions cannot be spread over time; charge
            // them as an instantaneous lump.
            let mut lump = 0.0;
            for &(k, c) in &plan.switch_on {
                if bml.candidates()[k].on_duration == 0.0 {
                    lump += f64::from(c) * bml.candidates()[k].on_energy;
                }
            }
            for &(k, c) in &plan.switch_off {
                if bml.candidates()[k].off_duration == 0.0 {
                    lump += f64::from(c) * bml.candidates()[k].off_energy;
                }
            }
            if lump > 0.0 {
                self.meter.add_energy(lump);
            }
            self.reconfig_log.push(ReconfigRecord {
                at: now,
                target: plan.target.0.clone(),
            });
            self.cluster.apply(&plan, now);
        }
    }

    /// Crash the machines whose candidate time is `now` (no-op without a
    /// failure model). Called right after `Cluster::tick` in **both**
    /// stepping loops; since every sample is a pure function of its key,
    /// both loops see the same failure trajectory.
    fn sync_failures(&mut self, now: u64) {
        if let Some(f) = self.failures.as_mut() {
            self.failures_injected += f.sync(&mut self.cluster, now);
        }
    }

    /// The next candidate crash time of any currently-online slot.
    fn next_failure_event(&self) -> Option<u64> {
        self.failures
            .as_ref()
            .and_then(|f| f.next_event(&self.cluster))
    }

    fn finish(self, stepping_effective: Stepping) -> ScenarioResult {
        let stats = self.sched.stats();
        ScenarioResult {
            name: "Big-Medium-Little".into(),
            total_energy_j: self.meter.total_joules(),
            mean_power_w: self.meter.mean_power(),
            qos: self.qos,
            reconfigurations: stats.reconfigurations,
            nodes_switched_on: stats.nodes_switched_on,
            nodes_switched_off: stats.nodes_switched_off,
            reconfig_energy_j: stats.reconfig_energy,
            instance_migrations: self.migrations,
            failures_injected: self.failures_injected,
            segments_batched: self.segments_batched,
            events_skipped: self.events_skipped,
            fallback_unsegmented: self.fallback_unsegmented,
            stepping_effective,
            reconfig_log: self.reconfig_log,
            daily_energy_j: self.meter.into_daily_joules(),
            optimal_energy_j: None,
            optimality_gap: None,
        }
    }
}

/// The reference loop: one tick per simulated second.
fn simulate_per_second(
    trace: &LoadTrace,
    bml: &BmlInfrastructure,
    predictor: &mut dyn Predictor,
    config: &SimConfig,
    fallback_unsegmented: bool,
) -> ScenarioResult {
    let mut st = EngineState::new(bml, predictor, config);
    st.fallback_unsegmented = u64::from(fallback_unsegmented);

    for t in 0..trace.len() {
        st.cluster.tick(t);
        st.sync_failures(t);
        let prediction = if st.sched.is_locked(t) {
            0.0 // ignored; decide() returns Locked without reading it
        } else {
            predictor.predict(t)
        };
        st.decide_at(t, prediction, bml);
        let load = trace.get(t);
        let (power, served) = st.cluster.power_into(load, &mut st.counts_scratch);
        st.meter.record(power);
        st.qos.record(load, served);
    }
    st.finish(Stepping::PerSecond)
}

/// The skip-ahead loop: jump straight to the next event and batch the
/// accounting of the constant stretch in between. See the module docs
/// for the event model and the equivalence argument.
fn simulate_event_driven(
    trace: &LoadTrace,
    bml: &BmlInfrastructure,
    predictor: &mut dyn Predictor,
    config: &SimConfig,
) -> ScenarioResult {
    debug_assert!(predictor.is_segmented());
    let mut st = EngineState::new(bml, predictor, config);
    let n = trace.len();
    let mut now = 0u64;
    let mut decision_epochs = 0u64;
    while now < n {
        decision_epochs += 1;
        st.cluster.tick(now);
        st.sync_failures(now);
        let prediction = if st.sched.is_locked(now) {
            0.0 // ignored; decide() returns Locked without reading it
        } else {
            predictor.predict(now)
        };
        st.decide_at(now, prediction, bml);

        // Next decision-relevant event: between `now` and `next` the
        // prediction, the scheduler's lock state, and the cluster's pool
        // states are all constant, so every skipped per-second decision
        // would have been `NoChange` (or `Locked`).
        let mut next = n;
        if let Some(t) = predictor.next_change(now) {
            next = next.min(t);
        }
        if let Some(t) = st.cluster.next_transition_event() {
            next = next.min(t);
        }
        if let Some(t) = st.sched.next_wakeup(now) {
            next = next.min(t);
        }
        if let Some(t) = st.next_failure_event() {
            next = next.min(t);
        }
        let next = next.clamp(now + 1, n);

        // Batched accounting over [now, next): the cluster state is
        // constant, so power only changes with the raw load — one meter
        // and QoS update per maximal constant-load run.
        let mut t = now;
        while t < next {
            let span_end = trace.run_end(t).min(next);
            let load = trace.get(t);
            let (power, served) = st.cluster.power_into(load, &mut st.counts_scratch);
            st.meter.accumulate_span(power, span_end - t);
            st.qos.record_span(load, served, span_end - t);
            st.segments_batched += 1;
            t = span_end;
        }
        now = next;
    }
    // Each loop iteration is one decision epoch; the per-second loop
    // would have ticked every one of the `n` seconds.
    st.events_skipped = n - decision_epochs;
    st.finish(Stepping::EventDriven)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bml_core::catalog;
    use bml_trace::synthetic;
    use bml_trace::LookaheadMaxPredictor;

    fn bml() -> BmlInfrastructure {
        BmlInfrastructure::build(&catalog::table1()).unwrap()
    }

    fn run(trace: &LoadTrace, config: &SimConfig) -> ScenarioResult {
        let bml = bml();
        let mut p = LookaheadMaxPredictor::new(trace, 378);
        simulate_bml(trace, &bml, &mut p, config)
    }

    /// Assert the two stepping modes agree: discrete outcomes exactly,
    /// energies to float-accumulation rounding.
    fn assert_steppings_agree(trace: &LoadTrace, config: &SimConfig) {
        let per_second = run(
            trace,
            &SimConfig {
                stepping: Stepping::PerSecond,
                ..config.clone()
            },
        );
        let event = run(
            trace,
            &SimConfig {
                stepping: Stepping::EventDriven,
                ..config.clone()
            },
        );
        per_second
            .check_replay_equivalent(&event, 1e-9)
            .unwrap_or_else(|e| panic!("stepping modes diverged: {e}"));
    }

    #[test]
    fn constant_load_never_reconfigures_after_warm_start() {
        let trace = synthetic::constant(100.0, 2_000);
        let r = run(&trace, &SimConfig::default());
        assert_eq!(r.reconfigurations, 0);
        assert!(r.reconfig_log.is_empty());
        assert_eq!(r.qos.violation_seconds, 0);
        // Power: the combination's machines (3 chromebooks + 1 raspberry)
        // serving 100 req/s under the greedy split, constant over the run.
        let b = bml();
        let counts = b.ideal_combination(100.0).counts(3);
        let (w, _) = b.config_power(&counts, 100.0, SplitPolicy::EfficiencyGreedy);
        assert!((r.mean_power_w - w).abs() < 1e-6);
        assert!((r.total_energy_j - w * 2_000.0).abs() < 1e-3);
    }

    #[test]
    fn cold_start_boots_and_violates_briefly() {
        let trace = synthetic::constant(100.0, 2_000);
        let r = run(
            &trace,
            &SimConfig {
                cold_start: true,
                ..Default::default()
            },
        );
        assert_eq!(r.reconfigurations, 1);
        assert!(r.nodes_switched_on >= 4);
        // Until the chromebooks are up (12 s) demand goes unserved.
        assert!(r.qos.violation_seconds >= 12);
        assert!(r.qos.violation_seconds < 60);
        assert!(r.qos.worst_shortfall > 0.99);
    }

    #[test]
    fn step_up_preboots_within_window() {
        // Load steps from 50 to 1000 at t=1000; the 378 s look-ahead max
        // must boot the Big early enough that no second is unserved.
        let mut rates = vec![50.0; 1_000];
        rates.extend(vec![1_000.0; 1_000]);
        let trace = LoadTrace::new(0, rates);
        let r = run(&trace, &SimConfig::default());
        assert_eq!(
            r.qos.violation_seconds, 0,
            "look-ahead must hide the boot latency"
        );
        assert!(r.reconfigurations >= 1);
        assert!(r.nodes_switched_on >= 1);
        assert!(r.reconfig_energy_j > 0.0);
        // The log carries the decision instants.
        assert_eq!(r.reconfig_log.len() as u64, r.reconfigurations);
        assert!(r.reconfig_log[0].at >= 1_000 - 378);
        assert!(r.reconfig_log[0].at < 1_000);
    }

    #[test]
    fn reconfig_energy_appears_in_total() {
        let mut rates = vec![5.0; 500];
        rates.extend(vec![600.0; 500]);
        let trace = LoadTrace::new(0, rates);
        let r = run(&trace, &SimConfig::default());
        // Total energy strictly exceeds pure serving energy.
        let bml = bml();
        let serving: f64 = (0..trace.len())
            .map(|t| {
                let (w, _) = bml.config_power(
                    &bml.ideal_combination(trace.get(t)).counts(3),
                    trace.get(t),
                    SplitPolicy::EfficiencyGreedy,
                );
                w
            })
            .sum();
        assert!(r.total_energy_j > serving * 0.5); // sanity
        assert!(r.reconfig_energy_j > 0.0);
        assert!(r.instance_migrations <= r.nodes_switched_on.max(r.nodes_switched_off));
    }

    #[test]
    fn daily_energy_sums_to_total() {
        let trace = synthetic::diurnal(5.0, 800.0, 4.0, 2);
        let r = run(&trace, &SimConfig::default());
        let daily_sum: f64 = r.daily_energy_j.iter().sum();
        assert!((daily_sum - r.total_energy_j).abs() < 1e-6);
        assert_eq!(r.daily_energy_j.len(), 2);
    }

    #[test]
    fn diurnal_load_scales_down_at_night() {
        let trace = synthetic::diurnal(5.0, 800.0, 4.0, 1);
        let r = run(&trace, &SimConfig::default());
        assert!(r.reconfigurations > 4, "must follow the diurnal cycle");
        // Energy far below an always-on Big provisioning for the peak.
        let big = catalog::paravance();
        let always_on = big.max_power * trace.len() as f64; // generous bound
        assert!(r.total_energy_j < always_on * 0.5);
        // QoS essentially intact (tolerant class).
        assert!(r.qos.shortfall_fraction() < 0.01);
    }

    #[test]
    fn zero_trace_zero_energy_after_warm_start() {
        let trace = synthetic::constant(0.0, 100);
        let r = run(&trace, &SimConfig::default());
        assert_eq!(r.total_energy_j, 0.0);
        assert_eq!(r.qos.demand_seconds, 0);
    }

    #[test]
    fn failure_injection_degrades_qos_and_recovers() {
        let trace = synthetic::constant(100.0, 4_000);
        let r = run(
            &trace,
            &SimConfig {
                // Aggressive: ~8 crashes per machine over the run.
                failures: Some(FailureModel::new(500.0, 30, 7)),
                ..Default::default()
            },
        );
        assert!(r.failures_injected > 0, "no failures injected");
        // Crashes of serving machines cause transient shortfall...
        assert!(r.qos.violation_seconds > 0);
        // ...but auto-repair keeps the system alive: most demand served.
        assert!(
            r.qos.shortfall_fraction() < 0.2,
            "shortfall {}",
            r.qos.shortfall_fraction()
        );
    }

    #[test]
    fn failure_injection_is_deterministic() {
        let trace = synthetic::constant(200.0, 2_000);
        let cfg = SimConfig {
            failures: Some(FailureModel::new(300.0, 10, 42)),
            ..Default::default()
        };
        let a = run(&trace, &cfg);
        let b = run(&trace, &cfg);
        assert_eq!(a.failures_injected, b.failures_injected);
        assert_eq!(a.total_energy_j, b.total_energy_j);
    }

    #[test]
    fn failure_model_rejects_degenerate_parameters() {
        // Non-finite / non-positive MTBFs would make 1/mtbf_s meaningless;
        // the clamp in FailureSampler used to mask them as "never fires".
        for bad_mtbf in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = FailureModel::try_new(bad_mtbf, 10, 0).unwrap_err();
            assert!(err.contains("mtbf_s"), "mtbf {bad_mtbf}: {err}");
        }
        // Zero repair makes every crash an invisible no-op.
        let err = FailureModel::try_new(500.0, 0, 0).unwrap_err();
        assert!(err.contains("repair_s"), "{err}");
        // Valid parameters round-trip through both constructors.
        let ok = FailureModel::try_new(500.0, 30, 7).unwrap();
        assert_eq!(ok, FailureModel::new(500.0, 30, 7));
    }

    #[test]
    #[should_panic(expected = "FailureModel::new: mtbf_s must be a finite positive")]
    fn failure_model_new_panics_with_clear_message() {
        let _ = FailureModel::new(f64::NAN, 10, 0);
    }

    #[test]
    fn failure_model_takes_event_path() {
        // Failure injection used to force the per-second fallback; with
        // counter-based gap sampling the event loop handles it and must
        // reproduce the reference trajectory.
        let trace = synthetic::constant(150.0, 1_500);
        let cfg = SimConfig {
            failures: Some(FailureModel::new(400.0, 20, 5)),
            ..Default::default()
        };
        let event = run(
            &trace,
            &SimConfig {
                stepping: Stepping::EventDriven,
                ..cfg.clone()
            },
        );
        assert_eq!(event.stepping_effective, Stepping::EventDriven);
        assert!(event.failures_injected > 0, "model must actually fire");
        let per_second = run(
            &trace,
            &SimConfig {
                stepping: Stepping::PerSecond,
                ..cfg
            },
        );
        assert_eq!(per_second.stepping_effective, Stepping::PerSecond);
        per_second
            .check_replay_equivalent(&event, 1e-9)
            .unwrap_or_else(|e| panic!("failure-injected steppings diverged: {e}"));
    }

    #[test]
    fn noisy_predictor_takes_event_path() {
        use bml_trace::NoisyPredictor;
        let trace = synthetic::diurnal(5.0, 900.0, 4.0, 1);
        let bml = bml();
        let run_mode = |stepping| {
            let mut p = NoisyPredictor::new(LookaheadMaxPredictor::new(&trace, 378), 0.2, 99);
            simulate_bml(
                &trace,
                &bml,
                &mut p,
                &SimConfig {
                    stepping,
                    ..Default::default()
                },
            )
        };
        let event = run_mode(Stepping::EventDriven);
        assert_eq!(event.stepping_effective, Stepping::EventDriven);
        let per_second = run_mode(Stepping::PerSecond);
        per_second
            .check_replay_equivalent(&event, 1e-9)
            .unwrap_or_else(|e| panic!("noisy steppings diverged: {e}"));
    }

    #[test]
    fn steppings_agree_with_noise_and_failures_combined() {
        // Both new event sources active at once: noise-resample points
        // and failure epochs interleave with the usual change-points.
        use bml_trace::NoisyPredictor;
        let mut rates = vec![80.0; 900];
        rates.extend(vec![1_100.0; 900]);
        rates.extend(vec![10.0; 900]);
        let trace = LoadTrace::new(0, rates);
        let bml = bml();
        let run_mode = |stepping| {
            let mut p = NoisyPredictor::new(LookaheadMaxPredictor::new(&trace, 378), 0.15, 13);
            simulate_bml(
                &trace,
                &bml,
                &mut p,
                &SimConfig {
                    failures: Some(FailureModel::new(600.0, 25, 3)),
                    stepping,
                    ..Default::default()
                },
            )
        };
        let event = run_mode(Stepping::EventDriven);
        assert_eq!(event.stepping_effective, Stepping::EventDriven);
        let per_second = run_mode(Stepping::PerSecond);
        per_second
            .check_replay_equivalent(&event, 1e-9)
            .unwrap_or_else(|e| panic!("noisy+failure steppings diverged: {e}"));
    }

    #[test]
    fn unsegmented_predictor_still_falls_back() {
        // EWMA genuinely depends on observing every second: the recorded
        // effective stepping must expose the fallback.
        let trace = synthetic::constant(100.0, 500);
        let bml = bml();
        let mut p = bml_trace::EwmaPredictor::new(&trace, 0.5);
        let r = simulate_bml(&trace, &bml, &mut p, &SimConfig::default());
        assert_eq!(r.stepping_effective, Stepping::PerSecond);
    }

    #[test]
    fn no_failures_without_model() {
        let trace = synthetic::constant(100.0, 500);
        let r = run(&trace, &SimConfig::default());
        assert_eq!(r.failures_injected, 0);
    }

    #[test]
    fn transition_aware_scheduler_runs_in_engine() {
        let mut rates = vec![520.0; 1_000];
        rates.extend(vec![540.0; 1_000]);
        let trace = LoadTrace::new(0, rates);
        let aware = run(
            &trace,
            &SimConfig {
                scheduler: SchedulerKind::TransitionAware(
                    bml_core::transition_aware::TransitionAwareConfig::paper(),
                ),
                ..Default::default()
            },
        );
        let baseline = run(&trace, &SimConfig::default());
        // Around the 529 threshold the aware scheduler churns no more
        // than the baseline.
        assert!(aware.reconfigurations <= baseline.reconfigurations);
        assert!(aware.qos.shortfall_fraction() < 0.01);
    }

    #[test]
    fn steppings_agree_on_step_trace() {
        let mut rates = vec![50.0; 700];
        rates.extend(vec![1_200.0; 700]);
        rates.extend(vec![5.0; 700]);
        let trace = LoadTrace::new(0, rates);
        assert_steppings_agree(&trace, &SimConfig::default());
    }

    #[test]
    fn steppings_agree_on_diurnal_and_cold_start() {
        let trace = synthetic::diurnal(5.0, 900.0, 4.0, 1);
        assert_steppings_agree(&trace, &SimConfig::default());
        assert_steppings_agree(
            &trace,
            &SimConfig {
                cold_start: true,
                ..Default::default()
            },
        );
    }

    #[test]
    fn steppings_agree_with_transition_aware_scheduler() {
        let mut rates = vec![520.0; 800];
        rates.extend(vec![30.0; 800]);
        rates.extend(vec![2_600.0; 800]);
        let trace = LoadTrace::new(0, rates);
        assert_steppings_agree(
            &trace,
            &SimConfig {
                scheduler: SchedulerKind::TransitionAware(TransitionAwareConfig::paper()),
                ..Default::default()
            },
        );
    }

    #[test]
    fn engine_counters_expose_batching_on_the_fast_path() {
        // Mode-independent counters (reconfigurations, failure epochs)
        // agree across steppings; stepping-only counters (segments
        // batched, events skipped) are non-zero exactly on the event
        // path. This is the telemetry contract the grid rides on.
        let trace = synthetic::diurnal(5.0, 800.0, 4.0, 1);
        let cfg = SimConfig {
            failures: Some(FailureModel::new(2_000.0, 30, 11)),
            ..Default::default()
        };
        let event = run(
            &trace,
            &SimConfig {
                stepping: Stepping::EventDriven,
                ..cfg.clone()
            },
        );
        let per_second = run(
            &trace,
            &SimConfig {
                stepping: Stepping::PerSecond,
                ..cfg
            },
        );
        assert_eq!(event.reconfigurations, per_second.reconfigurations);
        assert_eq!(event.failures_injected, per_second.failures_injected);
        // The fast path actually batched and skipped.
        assert!(event.segments_batched > 0, "no spans batched");
        assert!(event.events_skipped > 0, "no seconds skipped");
        assert!(event.events_skipped < trace.len(), "skip count overran");
        assert_eq!(event.fallback_unsegmented, 0);
        // The reference loop batches and skips nothing, and an honored
        // PerSecond request is not a fallback.
        assert_eq!(per_second.segments_batched, 0);
        assert_eq!(per_second.events_skipped, 0);
        assert_eq!(per_second.fallback_unsegmented, 0);
        // Summaries carry the counters through to grid aggregation.
        assert_eq!(event.summary().segments_batched, event.segments_batched);
        assert_eq!(event.summary().events_skipped, event.events_skipped);
    }

    #[test]
    fn fallback_reason_counter_marks_unsegmented_predictors() {
        let trace = synthetic::constant(100.0, 500);
        let bml = bml();
        let mut p = bml_trace::EwmaPredictor::new(&trace, 0.5);
        let r = simulate_bml(&trace, &bml, &mut p, &SimConfig::default());
        assert_eq!(r.stepping_effective, Stepping::PerSecond);
        assert_eq!(r.fallback_unsegmented, 1, "fallback must be recorded");
        assert_eq!(r.segments_batched, 0);
        assert_eq!(r.summary().fallback_unsegmented, 1);
    }

    #[test]
    fn event_mode_handles_day_boundaries() {
        // A flat trace spanning two days: one span crosses the boundary;
        // the meter must split it into the right daily bins.
        let trace = synthetic::constant(40.0, bml_trace::SECONDS_PER_DAY + 600);
        let r = run(&trace, &SimConfig::default());
        assert_eq!(r.daily_energy_j.len(), 2);
        let b = bml();
        let counts = b.ideal_combination(40.0).counts(3);
        let (w, _) = b.config_power(&counts, 40.0, SplitPolicy::EfficiencyGreedy);
        assert!((r.daily_energy_j[0] - w * bml_trace::SECONDS_PER_DAY as f64).abs() < 1e-3);
        assert!((r.daily_energy_j[1] - w * 600.0).abs() < 1e-6);
    }
}
