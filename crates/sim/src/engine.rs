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
//! * the **reconfiguration unlock** instant (the scheduler's
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
//! ([`bml_core::rng`]: noise keyed on `(seed, resample_window)`, failure
//! gaps on `(seed, arch, slot, failure_index)`) and therefore identical no
//! matter how time is stepped.
//!
//! Every predictor bounds its constant runs, so the event loop runs every
//! predictor: the look-ahead maximum and last-value skip to their exact
//! change-points, while EWMA, which may move every second, reports the
//! next second and so ticks exactly like the per-second loop. The loop
//! that ran is the one requested, and
//! [`ScenarioResult::stepping_effective`] names it.
//!
//! # One apply-and-account step
//!
//! Both loops, and the schedule replay of [`crate::replay`], apply a
//! reconfiguration and account the seconds after it through one private
//! ledger: it charges zero-duration transitions as an instantaneous lump,
//! counts and logs the plan, and meters a stretch of constant cluster
//! state one constant-load run at a time. Only the engine prices the
//! web-server instance migrations a reconfiguration causes; neither the
//! replay nor `bml-opt`'s DP models them.
//!
//! # What a second or a span costs
//!
//! Both loops share the per-epoch invariants instead of re-deriving them
//! every second or span, so the reference mode pays only for what varies
//! with time:
//!
//! * power is the cluster's cached [`bml_core::combination::PowerCurve`]
//!   plus its cached ramp power, recompiled only when a pool changes
//!   (see [`Cluster::power`]) — an allocation-free evaluation per second
//!   or span;
//! * the schedulers remember the last prediction they answered
//!   `NoChange` for, so a steady prediction costs one comparison; a new
//!   one runs the paper's Step-5 greedy fill
//!   ([`BmlInfrastructure::ideal_combination`]), O(#archs): the 2-day
//!   smoke grid asks it about once per 90 simulated cell-seconds;
//! * the look-ahead prediction and its next change-point come from the
//!   run-length [`bml_trace::LookaheadMaxTable`] through the predictor's
//!   forward cursor, in O(1) per query (one binary search after a locked
//!   stretch the cursor skipped), and a noisy predictor draws each
//!   resample window's factor once.

use bml_core::bml::BmlInfrastructure;
use bml_core::combination::SplitPolicy;
use bml_core::profile::ArchProfile;
use bml_core::reconfig::{Configuration, ReconfigPlan};
pub use bml_core::scheduler::SchedulerKind;
use bml_core::scheduler::{Decision, ProActiveScheduler};
use bml_trace::{LoadTrace, Predictor};

use crate::cluster::Cluster;
use crate::energy::EnergyMeter;
use crate::migration::migration_cost;
use crate::qos::QosReport;

/// How the engine advances simulated time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Stepping {
    /// Tick every simulated second — the reference implementation.
    PerSecond,
    /// Jump between events (prediction change-points including
    /// noise-resample points, transition maturities, reconfiguration
    /// unlocks, failure epochs) and batch the accounting of the constant
    /// stretches in between. Result-identical to [`Stepping::PerSecond`]
    /// up to float-accumulation rounding, for every predictor (see the
    /// module docs).
    #[default]
    EventDriven,
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
    /// How the scheduler picks its reconfiguration targets.
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
    /// The stepping loop that ran: always the requested one for the
    /// engine, [`Stepping::EventDriven`] for the analytic scenarios and
    /// the schedule replay, which batch over constant-load runs. Kept
    /// because the grid artifact and the Fig. 5 JSON carry it.
    pub stepping_effective: Stepping,
    /// Every reconfiguration launched, in decision order — the replay's
    /// audit trail, and what the stepping-equivalence property pins.
    pub reconfig_log: Vec<ReconfigRecord>,
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
    /// The stepping loop that ran; see
    /// [`ScenarioResult::stepping_effective`].
    pub stepping_effective: Stepping,
    /// The offline-optimal energy (J) for the same trace/catalog/split,
    /// from the `bml-opt` segment DP. `None` until
    /// [`CellSummary::attach_optimal`] sets it (the engine itself never
    /// computes it).
    pub optimal_energy_j: Option<f64>,
    /// Relative optimality gap `(total_energy_j - optimal) / optimal`.
    /// `None` without an attached optimum or when the optimum is zero.
    /// Negative gaps are possible for runs that violate QoS: the optimum
    /// is constrained to full service, a violating run is not.
    pub optimality_gap: Option<f64>,
}

impl CellSummary {
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
}

impl ScenarioResult {
    /// A result holding `meter` and `qos` and nothing else: no
    /// reconfigurations, no engine counters, an empty log, batched
    /// stepping. The analytic Fig. 5 bounds are exactly this; the ledger
    /// behind the engine and the replay adds its counters on top.
    pub(crate) fn from_meters(name: &str, meter: EnergyMeter, qos: QosReport) -> Self {
        ScenarioResult {
            name: name.into(),
            total_energy_j: meter.total_joules(),
            mean_power_w: meter.mean_power(),
            qos,
            reconfigurations: 0,
            nodes_switched_on: 0,
            nodes_switched_off: 0,
            reconfig_energy_j: 0.0,
            instance_migrations: 0,
            failures_injected: 0,
            segments_batched: 0,
            events_skipped: 0,
            stepping_effective: Stepping::EventDriven,
            reconfig_log: Vec::new(),
            daily_energy_j: meter.into_daily_joules(),
        }
    }

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
            stepping_effective: self.stepping_effective,
            optimal_energy_j: None,
            optimality_gap: None,
        }
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
/// `config.stepping` selects the time-stepping loop, which runs for every
/// predictor (see the module docs).
pub fn simulate_bml(
    trace: &LoadTrace,
    bml: &BmlInfrastructure,
    predictor: &mut dyn Predictor,
    config: &SimConfig,
) -> ScenarioResult {
    match config.stepping {
        Stepping::PerSecond => simulate_per_second(trace, bml, predictor, config),
        Stepping::EventDriven => simulate_event_driven(trace, bml, predictor, config),
    }
}

/// The apply-and-account step shared by both stepping loops and the
/// schedule replay ([`crate::replay`]): the cluster, the meters, and the
/// reconfiguration counters and log.
pub(crate) struct Ledger<'a> {
    pub(crate) cluster: Cluster<'a>,
    meter: EnergyMeter,
    qos: QosReport,
    reconfigurations: u64,
    nodes_switched_on: u64,
    nodes_switched_off: u64,
    reconfig_energy_j: f64,
    reconfig_log: Vec<ReconfigRecord>,
}

impl<'a> Ledger<'a> {
    /// A ledger over a cluster with `initial` machines per architecture
    /// online.
    pub(crate) fn new(profiles: &'a [ArchProfile], initial: &[u32], split: SplitPolicy) -> Self {
        Ledger {
            cluster: Cluster::with_online(profiles, initial, split),
            meter: EnergyMeter::new(),
            qos: QosReport::default(),
            reconfigurations: 0,
            nodes_switched_on: 0,
            nodes_switched_off: 0,
            reconfig_energy_j: 0.0,
            reconfig_log: Vec::new(),
        }
    }

    /// Apply `plan`, decided at `now`: charge its zero-duration
    /// transitions, which no ramp can spread over time, as an
    /// instantaneous lump, count and log it, and start its transitions on
    /// the cluster.
    pub(crate) fn apply(&mut self, plan: &ReconfigPlan, now: u64) {
        let profiles = self.cluster.profiles();
        let mut lump = 0.0;
        for &(k, c) in &plan.switch_on {
            if profiles[k].on_duration == 0.0 {
                lump += f64::from(c) * profiles[k].on_energy;
            }
        }
        for &(k, c) in &plan.switch_off {
            if profiles[k].off_duration == 0.0 {
                lump += f64::from(c) * profiles[k].off_energy;
            }
        }
        if lump > 0.0 {
            self.meter.add_energy(lump);
        }
        self.reconfigurations += 1;
        self.nodes_switched_on += u64::from(plan.nodes_switched_on());
        self.nodes_switched_off += u64::from(plan.nodes_switched_off());
        self.reconfig_energy_j += plan.energy;
        self.reconfig_log.push(ReconfigRecord {
            at: now,
            target: plan.target.0.clone(),
        });
        self.cluster.apply(plan, now);
    }

    /// Account `secs` seconds of raw `load` on the current cluster.
    fn account(&mut self, load: f64, secs: u64) {
        let (power, served) = self.cluster.power(load);
        self.meter.accumulate_span(power, secs);
        self.qos.record_span(load, served, secs);
    }

    /// Account `[from, to)`, over which the cluster does not change: its
    /// power then only changes with the raw load, so one meter and QoS
    /// update per maximal constant-load run. Returns the number of runs.
    pub(crate) fn account_runs(&mut self, trace: &LoadTrace, from: u64, to: u64) -> u64 {
        let mut runs = 0;
        let mut t = from;
        while t < to {
            let end = trace.run_end(t).min(to);
            self.account(trace.get(t), end - t);
            runs += 1;
            t = end;
        }
        runs
    }

    /// The accounted run as a result named `name`; the engine-only
    /// counters (migrations, failures, stepping telemetry) are zero.
    pub(crate) fn into_result(self, name: &str) -> ScenarioResult {
        ScenarioResult {
            reconfigurations: self.reconfigurations,
            nodes_switched_on: self.nodes_switched_on,
            nodes_switched_off: self.nodes_switched_off,
            reconfig_energy_j: self.reconfig_energy_j,
            reconfig_log: self.reconfig_log,
            ..ScenarioResult::from_meters(name, self.meter, self.qos)
        }
    }
}

/// Mutable state shared by the two stepping loops: the ledger, the
/// scheduler, and the engine-only counters.
struct EngineState<'a> {
    ledger: Ledger<'a>,
    sched: ProActiveScheduler,
    migrations: u64,
    failures: Option<FailureSampler>,
    failures_injected: u64,
    /// Telemetry counters; see [`ScenarioResult::segments_batched`] /
    /// `events_skipped`. Only the event loop fills them in.
    segments_batched: u64,
    events_skipped: u64,
}

impl<'a> EngineState<'a> {
    fn new(bml: &'a BmlInfrastructure, predictor: &mut dyn Predictor, config: &SimConfig) -> Self {
        let n = bml.n_archs();
        let initial = if config.cold_start {
            Configuration::off(n)
        } else {
            Configuration(bml.ideal_combination(predictor.predict(0)).counts(n))
        };
        EngineState {
            ledger: Ledger::new(bml.candidates(), &initial.0, config.split),
            sched: ProActiveScheduler::with_initial(initial, config.scheduler.clone()),
            migrations: 0,
            failures: config
                .failures
                .as_ref()
                .and_then(|m| FailureSampler::new(m, n)),
            failures_injected: 0,
            segments_batched: 0,
            events_skipped: 0,
        }
    }

    /// One decision epoch at `now`, the same in both stepping loops:
    /// promote matured transitions, crash the machines whose candidate
    /// time is `now`, and consult the scheduler — on a reconfiguration,
    /// charge the instance migrations and hand the plan to the ledger.
    /// The event loop only runs epochs at event instants, where the
    /// per-second loop's intermediate ones are provably `NoChange` or
    /// `Locked`; and since every failure sample is a pure function of its
    /// key, both loops see the same failure trajectory.
    fn epoch(&mut self, now: u64, predictor: &mut dyn Predictor, bml: &BmlInfrastructure) {
        self.ledger.cluster.tick(now);
        if let Some(f) = self.failures.as_mut() {
            self.failures_injected += f.sync(&mut self.ledger.cluster, now);
        }
        let prediction = if self.sched.is_locked(now) {
            0.0 // ignored; decide() returns Locked without reading it
        } else {
            predictor.predict(now)
        };
        if let Decision::Reconfigure(plan) = self.sched.decide(now, prediction, bml) {
            let (migrations, energy_j) = migration_cost(&plan.from.0, &plan.target.0);
            self.migrations += u64::from(migrations);
            self.ledger.meter.add_energy(energy_j);
            self.ledger.apply(&plan, now);
        }
    }

    /// The next candidate crash time of any currently-online slot.
    fn next_failure_event(&self) -> Option<u64> {
        self.failures
            .as_ref()
            .and_then(|f| f.next_event(&self.ledger.cluster))
    }

    fn finish(self, stepping_effective: Stepping) -> ScenarioResult {
        ScenarioResult {
            instance_migrations: self.migrations,
            failures_injected: self.failures_injected,
            segments_batched: self.segments_batched,
            events_skipped: self.events_skipped,
            stepping_effective,
            ..self.ledger.into_result("Big-Medium-Little")
        }
    }
}

/// The reference loop: one tick per simulated second.
fn simulate_per_second(
    trace: &LoadTrace,
    bml: &BmlInfrastructure,
    predictor: &mut dyn Predictor,
    config: &SimConfig,
) -> ScenarioResult {
    let mut st = EngineState::new(bml, predictor, config);
    for t in 0..trace.len() {
        st.epoch(t, predictor, bml);
        st.ledger.account(trace.get(t), 1);
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
    let mut st = EngineState::new(bml, predictor, config);
    let n = trace.len();
    let mut now = 0u64;
    let mut decision_epochs = 0u64;
    while now < n {
        decision_epochs += 1;
        st.epoch(now, predictor, bml);

        // Next decision-relevant event: between `now` and `next` the
        // prediction, the scheduler's lock state, and the cluster's pool
        // states are all constant, so every skipped per-second decision
        // would have been `NoChange` (or `Locked`).
        let mut next = n;
        if let Some(t) = predictor.next_change(now) {
            next = next.min(t);
        }
        if let Some(t) = st.ledger.cluster.next_transition_event() {
            next = next.min(t);
        }
        if let Some(t) = st.sched.next_wakeup(now) {
            next = next.min(t);
        }
        if let Some(t) = st.next_failure_event() {
            next = next.min(t);
        }
        let next = next.clamp(now + 1, n);
        st.segments_batched += st.ledger.account_runs(trace, now, next);
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
    use bml_core::transition_aware::TransitionAwareConfig;
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

    /// Run `trace` under both steppings, each with a fresh predictor from
    /// `predictor`, and assert that each result names its loop and that
    /// they agree: discrete outcomes exactly, energies to
    /// float-accumulation rounding. Returns `(per_second, event)`.
    fn steppings_agree_with<P: Predictor>(
        trace: &LoadTrace,
        config: &SimConfig,
        predictor: impl Fn() -> P,
    ) -> (ScenarioResult, ScenarioResult) {
        let bml = bml();
        let [per_second, event] = [Stepping::PerSecond, Stepping::EventDriven].map(|stepping| {
            let config = SimConfig {
                stepping,
                ..config.clone()
            };
            let r = simulate_bml(trace, &bml, &mut predictor(), &config);
            assert_eq!(r.stepping_effective, stepping);
            r
        });
        per_second
            .check_replay_equivalent(&event, 1e-9)
            .unwrap_or_else(|e| panic!("stepping modes diverged: {e}"));
        (per_second, event)
    }

    /// [`steppings_agree_with`] the paper's 378 s look-ahead maximum.
    fn assert_steppings_agree(
        trace: &LoadTrace,
        config: &SimConfig,
    ) -> (ScenarioResult, ScenarioResult) {
        steppings_agree_with(trace, config, || LookaheadMaxPredictor::new(trace, 378))
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
        // With counter-based gap sampling the event loop handles failure
        // injection and must reproduce the reference trajectory.
        let trace = synthetic::constant(150.0, 1_500);
        let cfg = SimConfig {
            failures: Some(FailureModel::new(400.0, 20, 5)),
            ..Default::default()
        };
        let (_, event) = assert_steppings_agree(&trace, &cfg);
        assert!(event.failures_injected > 0, "model must actually fire");
    }

    #[test]
    fn noisy_predictor_takes_event_path() {
        use bml_trace::NoisyPredictor;
        let trace = synthetic::diurnal(5.0, 900.0, 4.0, 1);
        steppings_agree_with(&trace, &SimConfig::default(), || {
            NoisyPredictor::new(LookaheadMaxPredictor::new(&trace, 378), 0.2, 99)
        });
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
        let cfg = SimConfig {
            failures: Some(FailureModel::new(600.0, 25, 3)),
            ..Default::default()
        };
        steppings_agree_with(&trace, &cfg, || {
            NoisyPredictor::new(LookaheadMaxPredictor::new(&trace, 378), 0.15, 13)
        });
    }

    #[test]
    fn ewma_event_run_equals_per_second_bit_for_bit() {
        // EWMA may move every second, so it reports the next second as its
        // change-point and the event loop ticks like the per-second one:
        // every field agrees exactly, apart from the stepping telemetry.
        let mut rates = vec![50.0; 300];
        rates.extend(vec![1_200.0; 300]);
        rates.extend(vec![5.0; 300]);
        let trace = LoadTrace::new(0, rates);
        let (per_second, event) = steppings_agree_with(&trace, &SimConfig::default(), || {
            bml_trace::EwmaPredictor::new(&trace, 0.05)
        });
        assert_eq!(event.events_skipped, 0);
        assert_eq!(event.segments_batched, trace.len());
        assert!(event.reconfigurations > 0);
        assert_eq!(
            ScenarioResult {
                segments_batched: 0,
                stepping_effective: Stepping::PerSecond,
                ..event
            },
            per_second
        );
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
                scheduler: SchedulerKind::TransitionAware(TransitionAwareConfig::paper()),
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
        let (per_second, event) = assert_steppings_agree(&trace, &cfg);
        // The fast path actually batched and skipped.
        assert!(event.segments_batched > 0, "no spans batched");
        assert!(event.events_skipped > 0, "no seconds skipped");
        assert!(event.events_skipped < trace.len(), "skip count overran");
        // The reference loop batches and skips nothing.
        assert_eq!(per_second.segments_batched, 0);
        assert_eq!(per_second.events_skipped, 0);
        // Summaries carry the counters through to grid aggregation.
        assert_eq!(event.summary().segments_batched, event.segments_batched);
        assert_eq!(event.summary().events_skipped, event.events_skipped);
    }

    #[test]
    fn last_value_event_run_skips_plateaus_and_matches_per_second() {
        // Last-value changes one second after the load does, so on a
        // plateau trace its event run skips the plateaus' seconds.
        let mut rates = vec![40.0; 600];
        rates.extend(vec![700.0; 600]);
        rates.extend(vec![3.0; 600]);
        rates.extend(vec![1_500.0; 600]);
        let trace = LoadTrace::new(0, rates);
        let (_, event) = steppings_agree_with(&trace, &SimConfig::default(), || {
            bml_trace::LastValuePredictor::new(&trace)
        });
        assert!(event.events_skipped > 0, "no seconds skipped");
        assert!(event.reconfigurations > 0);
    }

    #[test]
    fn attach_optimal_derives_the_gap_and_none_at_a_zero_optimum() {
        let mut s = run(&synthetic::constant(100.0, 500), &SimConfig::default()).summary();
        assert_eq!((s.optimal_energy_j, s.optimality_gap), (None, None));
        s.attach_optimal(s.total_energy_j / 2.0);
        assert_eq!(s.optimality_gap, Some(1.0));
        // An all-idle trace's optimum is zero: no gap to report.
        s.attach_optimal(0.0);
        assert_eq!(s.optimal_energy_j, Some(0.0));
        assert_eq!(s.optimality_gap, None);
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
