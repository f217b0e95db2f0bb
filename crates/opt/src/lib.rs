//! # bml-opt — offline-optimal reconfiguration schedules
//!
//! The Fig. 5 bounds only *bracket* the schedulers: the theoretical lower
//! bound reconfigures for free every second, the upper bounds never
//! reconfigure at all. This crate computes the quantity in between that
//! the paper never reports — the **minimum energy actually achievable**
//! on a trace when switch-on/off energies and maturity delays are paid at
//! the real Table I prices, together with the reconfiguration schedule
//! that achieves it.
//!
//! ## The segment DP
//!
//! A load trace is a sequence of maximal constant-load runs
//! ([`bml_trace::segments`]). Within a run nothing changes, so an optimal
//! policy only reconfigures at run boundaries: moving a switch earlier or
//! later within a run can only add idle or ramp seconds without serving
//! anything new (the boundary-restricted schedule dominates). That turns
//! the continuous scheduling problem into a shortest path over
//! `(segment, machine combination)`:
//!
//! * **States** are the candidate machine combinations the
//!   [`bml_core::table::CombinationTable`] produces for the trace's
//!   distinct load levels (plus all-off, plus any
//!   [`OptOptions::extra_states`]). A state is feasible for a segment
//!   when its capacity covers the load — the QoS target is full service,
//!   the same constraint the ideal combination satisfies.
//! * **Serving cost** of a segment in state `s` is
//!   `config_power(s, load) * len`, the exact power the simulator meters
//!   for an online fleet `s` under the chosen split policy.
//! * **Transition cost** between consecutive segments prices every
//!   booted machine at its full ramp energy (`on_energy / on_duration`
//!   over `ceil(on_duration)` seconds — exactly what the cluster's ramp
//!   integrates to) and every shutdown at its ramp truncated at the
//!   horizon. Boots are *scheduled backwards*: a machine that must serve
//!   from boundary `t` starts booting at `t - ceil(on_duration)`, so a
//!   boot is only feasible when the boundary is at least one maturity
//!   delay into the trace.
//!
//! The transition relaxation is not the naive `O(K^2)` min over state
//! pairs: transition costs are separable per architecture, so one
//! up-sweep (boots) and one down-sweep (shutdowns) of a distance
//! transform along each axis of the count lattice computes the exact
//! min-plus convolution in `O(lattice)` per boundary. The sweeps walk the
//! lattice line by line, pricing each step once per line position rather
//! than once per cell. With [`OptOptions::beam_width`] set, only the `w`
//! cheapest states survive each boundary — a lower-effort upper bound
//! (never below the exact optimum) for catalogs where the exact lattice
//! blows up.
//!
//! ## Memory
//!
//! The backtrack needs every segment's cost vector, and an 87-day worldcup
//! trace has millions of segments. The forward pass therefore keeps one
//! checkpoint every `ceil(sqrt(S))` segments, and the backtrack re-runs
//! one window at a time from its checkpoint into a single reused buffer
//! of `ceil(sqrt(S))` rows: `O(K * sqrt(S))` memory for `K` states and
//! `S` segments, for the price of a second forward pass.
//!
//! ## Trust, but verify
//!
//! The DP's claimed energy is only as good as its cost model, so
//! [`solve_verified`] converts the optimal path into a
//! [`bml_sim::ReconfigRecord`] schedule — boots issued one maturity
//! delay early, shutdowns at the boundary, believed-configuration
//! targets — and replays it through [`bml_sim::replay_schedule`], the
//! same cluster lifecycle/power/QoS code the live engine runs. The two
//! energies must agree to 1e-9 relative or it panics: an optimality
//! number that the simulator cannot reproduce is a bug, not a result.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::{BTreeMap, BTreeSet};

use bml_core::bml::BmlInfrastructure;
use bml_core::combination::{config_power, SplitPolicy};
use bml_core::profile::ArchProfile;
use bml_sim::{replay_schedule, ReconfigRecord, ScenarioResult};
use bml_trace::LoadTrace;

const INF: f64 = f64::INFINITY;

/// Capacity slack when testing whether a combination covers a load —
/// the same 1e-9 the rest of the workspace uses for float comparisons.
const EPS: f64 = 1e-9;

/// Rows of the backtrack's window for `segments` segments:
/// `ceil(sqrt(segments))`, which balances the forward pass's checkpoints
/// (one per window) against the window buffer itself.
fn window_rows(segments: usize) -> usize {
    let mut rows = 1;
    while rows * rows < segments {
        rows += 1;
    }
    rows
}

/// Knobs for [`solve`].
#[derive(Debug, Clone, Default)]
pub struct OptOptions {
    /// Keep only the `w` cheapest states across each segment boundary.
    /// `None` (the default) runs the exact DP. A beam can dead-end on
    /// adversarial traces (every kept state unable to reach a feasible
    /// next state), in which case [`solve`] returns `None`; the exact DP
    /// always succeeds on a non-empty trace. Beam energies are upper
    /// bounds: never below the exact optimum (property-tested).
    pub beam_width: Option<usize>,
    /// Additional candidate states (machine counts per architecture,
    /// candidate order) to consider beyond the combination table's — e.g.
    /// the knapsack packing of [`bml_core::combination::optimal_dp`].
    pub extra_states: Vec<Vec<u32>>,
}

/// The DP's output: the minimum achievable energy and the schedule that
/// achieves it, in the engine's `reconfig_log` protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalSchedule {
    /// Minimum total energy (J) over the trace, transitions included —
    /// within the candidate state space, at full service.
    pub energy_j: f64,
    /// Machine counts online at t=0 (warm start, like the engine's
    /// non-cold-start scenarios).
    pub initial: Vec<u32>,
    /// The reconfiguration schedule: records sorted by time, each target
    /// interpreted against the previous one (believed-configuration
    /// protocol). Replayable by [`bml_sim::replay_schedule`].
    pub schedule: Vec<ReconfigRecord>,
    /// Number of DP states (diagnostics).
    pub n_states: usize,
    /// Number of constant-load segments (diagnostics).
    pub n_segments: usize,
    /// Number of segment boundaries the DP crossed
    /// (`n_segments - 1`, 0 for empty traces) — the unit of transition
    /// work, reported to telemetry.
    pub n_boundaries: usize,
    /// States the beam INF'd out during the forward pass (0 for the
    /// exact DP). Deterministic for a fixed trace/options, so it lives
    /// on the counters plane of run telemetry.
    pub states_pruned: u64,
}

/// Per-architecture transition prices, derived once from the profiles.
#[derive(Debug, Clone)]
struct ArchCost {
    /// Energy charged per booted machine: the lump `on_energy` for
    /// zero-duration boots, else the ramp integral
    /// `on_energy / on_duration * ceil(on_duration)`.
    on_cost: f64,
    /// Seconds before the boundary a boot must be issued: `ceil(on_duration)`,
    /// at least 1 (a zero-duration boot issued at `t` serves from `t+1`,
    /// exactly like the cluster promotes it).
    lead: u64,
    off_energy: f64,
    off_rate: f64,
    off_ceil: u64,
    off_zero: bool,
}

impl ArchCost {
    fn new(p: &ArchProfile) -> Self {
        let on_ceil = p.on_duration.ceil();
        ArchCost {
            on_cost: if p.on_duration > 0.0 {
                p.on_energy / p.on_duration * on_ceil
            } else {
                p.on_energy
            },
            lead: (on_ceil as u64).max(1),
            off_energy: p.off_energy,
            off_rate: if p.off_duration > 0.0 {
                p.off_energy / p.off_duration
            } else {
                0.0
            },
            off_ceil: p.off_duration.ceil() as u64,
            off_zero: p.off_duration == 0.0,
        }
    }

    /// Energy charged per machine shut down with `remaining` trace
    /// seconds left: the lump for zero-duration shutdowns, else the ramp
    /// truncated at the horizon (the simulator stops metering at the end
    /// of the trace).
    fn off_cost(&self, remaining: u64) -> f64 {
        if self.off_zero {
            self.off_energy
        } else {
            self.off_rate * self.off_ceil.min(remaining) as f64
        }
    }
}

/// One maximal constant-load run, in 12 bytes: long traces run to
/// millions of segments, and a grid solves several traces at once.
#[derive(Debug, Clone, Copy)]
struct Seg {
    start: u32,
    len: u32,
    /// Index into the distinct-load table.
    load: u32,
}

/// One axis of the count lattice, priced once per solve.
#[derive(Debug, Clone)]
struct LatticeAxis {
    /// Cells between neighbouring positions on a line along this axis.
    stride: usize,
    /// `gaps[j]`: machines between the axis's counts at positions `j`
    /// and `j + 1`.
    gaps: Vec<f64>,
    /// `boots[j]`: price of booting those `gaps[j]` machines. Boot prices
    /// never change over the trace (only whether a boot can mature does).
    boots: Vec<f64>,
}

/// The assembled DP instance.
struct Dp<'a> {
    profiles: &'a [ArchProfile],
    horizon: u64,
    segs: Vec<Seg>,
    states: Vec<Vec<u32>>,
    /// `serve[load * K + s]`: serving power (W) of state `s` at that
    /// load, `INF` when the state's capacity cannot cover it.
    serve: Vec<f64>,
    costs: Vec<ArchCost>,
    /// The count lattice the distance transform sweeps: per
    /// architecture, the sorted distinct counts across all states, laid
    /// out row-major (the last architecture's lines are contiguous).
    lattice: Vec<LatticeAxis>,
    box_size: usize,
    /// Lattice cell of each state.
    cell_of: Vec<usize>,
    beam: Option<usize>,
    /// Running count of beam-pruned states (interior mutability because
    /// pruning happens under `&self`); the forward-pass snapshot is what
    /// [`OptimalSchedule::states_pruned`] reports — the backtrack's
    /// window recomputations re-prune the same boundaries and must not
    /// inflate it.
    pruned: std::cell::Cell<u64>,
}

impl<'a> Dp<'a> {
    fn build(
        trace: &LoadTrace,
        bml: &'a BmlInfrastructure,
        split: SplitPolicy,
        opts: &OptOptions,
    ) -> Self {
        let profiles = bml.candidates();
        let n_archs = profiles.len();
        assert!(
            u32::try_from(trace.len()).is_ok(),
            "a {} s trace overflows the DP's u32 segment positions",
            trace.len()
        );

        // Distinct loads (indexed in order of first appearance) and the
        // segment list.
        let mut load_idx: BTreeMap<u64, u32> = BTreeMap::new();
        let mut segs: Vec<Seg> = Vec::new();
        for seg in trace.constant_runs() {
            let next = load_idx.len() as u32;
            let load = *load_idx.entry(seg.value.to_bits()).or_insert(next);
            segs.push(Seg {
                start: seg.start as u32,
                len: seg.len() as u32,
                load,
            });
        }
        let mut loads = vec![0.0f64; load_idx.len()];
        for (&bits, &i) in &load_idx {
            loads[i as usize] = f64::from_bits(bits);
        }

        // Candidate states: the combination table's answer for every
        // distinct load, all-off, and the caller's extras.
        let table = bml.combination_table();
        let mut state_set: BTreeSet<Vec<u32>> = BTreeSet::new();
        state_set.insert(vec![0; n_archs]);
        for &v in &loads {
            state_set.insert(table.counts_for(v));
        }
        for extra in &opts.extra_states {
            assert_eq!(
                extra.len(),
                n_archs,
                "extra state arity must match the candidate count"
            );
            state_set.insert(extra.clone());
        }
        let states: Vec<Vec<u32>> = state_set.into_iter().collect();
        let k = states.len();

        // Serving power per (load, state); INF = capacity cannot cover.
        let mut serve = vec![INF; loads.len() * k];
        for (li, &v) in loads.iter().enumerate() {
            for (si, st) in states.iter().enumerate() {
                let (w, served) = config_power(profiles, st, v, split);
                if served + EPS >= v {
                    serve[li * k + si] = w;
                }
            }
        }

        let costs: Vec<ArchCost> = profiles.iter().map(ArchCost::new).collect();

        // The count lattice: axis a = sorted distinct counts of arch a.
        let axes: Vec<Vec<u32>> = (0..n_archs)
            .map(|a| {
                let mut vals: Vec<u32> = states.iter().map(|s| s[a]).collect();
                vals.sort_unstable();
                vals.dedup();
                vals
            })
            .collect();
        let mut strides = vec![1usize; n_archs];
        for a in (0..n_archs.saturating_sub(1)).rev() {
            strides[a] = strides[a + 1] * axes[a + 1].len();
        }
        let box_size = if n_archs == 0 {
            1
        } else {
            strides[0] * axes[0].len()
        };
        let cell_of: Vec<usize> = states
            .iter()
            .map(|s| {
                s.iter()
                    .enumerate()
                    .map(|(a, &c)| {
                        let pos = axes[a].binary_search(&c).expect("count is on its axis");
                        pos * strides[a]
                    })
                    .sum()
            })
            .collect();
        let lattice: Vec<LatticeAxis> = axes
            .iter()
            .zip(&strides)
            .zip(&costs)
            .map(|((axis, &stride), cost)| {
                let gaps: Vec<f64> = axis.windows(2).map(|w| f64::from(w[1] - w[0])).collect();
                LatticeAxis {
                    stride,
                    boots: gaps.iter().map(|&g| cost.on_cost * g).collect(),
                    gaps,
                }
            })
            .collect();

        Dp {
            profiles,
            horizon: trace.len(),
            segs,
            states,
            serve,
            costs,
            lattice,
            box_size,
            cell_of,
            beam: opts.beam_width,
            pruned: std::cell::Cell::new(0),
        }
    }

    fn k(&self) -> usize {
        self.states.len()
    }

    /// Serving energy of segment `i` in state `s` (INF when infeasible).
    fn serve_energy(&self, i: usize, s: usize) -> f64 {
        let seg = self.segs[i];
        self.serve[seg.load as usize * self.k() + s] * f64::from(seg.len)
    }

    /// Direct transition cost from state `a` to state `b` at boundary
    /// `tau` — the canonical per-architecture sum the schedule's energy
    /// is priced with. INF when a required boot cannot mature by `tau`.
    fn trans_cost(&self, a: usize, b: usize, tau: u64) -> f64 {
        let (sa, sb) = (&self.states[a], &self.states[b]);
        let mut c = 0.0;
        for arch in 0..self.profiles.len() {
            let d = i64::from(sb[arch]) - i64::from(sa[arch]);
            if d > 0 {
                if self.costs[arch].lead > tau {
                    return INF;
                }
                c += d as f64 * self.costs[arch].on_cost;
            } else if d < 0 {
                c += (-d) as f64 * self.costs[arch].off_cost(self.horizon - tau);
            }
        }
        c
    }

    /// Beam pruning: keep the `w` cheapest finite entries (ties broken by
    /// index for determinism), INF out the rest.
    fn prune(&self, dp: &mut [f64]) {
        let Some(w) = self.beam else { return };
        let mut order: Vec<usize> = (0..dp.len()).filter(|&s| dp[s].is_finite()).collect();
        if order.len() <= w {
            return;
        }
        order.sort_by(|&x, &y| dp[x].partial_cmp(&dp[y]).unwrap().then(x.cmp(&y)));
        self.pruned
            .set(self.pruned.get() + (order.len() - w) as u64);
        for &s in &order[w..] {
            dp[s] = INF;
        }
    }

    /// Min-plus transition across boundary `tau`:
    /// `out[b] = min_a dp[a] + trans_cost(a, b, tau)`, computed exactly
    /// in `O(box)` via per-axis distance-transform sweeps over the count
    /// lattice (transition costs are separable per architecture; an
    /// up-then-down detour is never cheaper than the direct move, so the
    /// two sweeps per axis relax every pair).
    ///
    /// Each sweep advances one line position at a time across every line
    /// of the axis at once, so a step's price is computed once per
    /// position and the cells of one position are independent.
    fn transition(&self, dp: &[f64], tau: u64, buf: &mut [f64], out: &mut [f64]) {
        buf.fill(INF);
        for (s, &cell) in self.cell_of.iter().enumerate() {
            buf[cell] = dp[s];
        }
        for (axis, cost) in self.lattice.iter().zip(&self.costs) {
            let stride = axis.stride;
            let block = stride * (axis.gaps.len() + 1);
            if cost.lead <= tau {
                for (j, &price) in axis.boots.iter().enumerate() {
                    for lines in buf.chunks_exact_mut(block) {
                        let (from, to) = lines[j * stride..(j + 2) * stride].split_at_mut(stride);
                        relax(to, from, price);
                    }
                }
            }
            let off_unit = cost.off_cost(self.horizon - tau);
            for (j, &gap) in axis.gaps.iter().enumerate().rev() {
                let price = off_unit * gap;
                for lines in buf.chunks_exact_mut(block) {
                    let (to, from) = lines[j * stride..(j + 2) * stride].split_at_mut(stride);
                    relax(to, from, price);
                }
            }
        }
        for (s, &cell) in self.cell_of.iter().enumerate() {
            out[s] = buf[cell];
        }
    }

    /// One forward step: prune `dp` (beam), transition over the boundary
    /// into segment `i + 1`, add its serving energy. `next` becomes the
    /// cost vector through segment `i + 1`.
    fn step(&self, dp: &mut [f64], i: usize, buf: &mut [f64], next: &mut [f64]) {
        self.prune(dp);
        let seg = self.segs[i + 1];
        self.transition(dp, u64::from(seg.start), buf, next);
        let k = self.k();
        let len = f64::from(seg.len);
        let serve = &self.serve[seg.load as usize * k..][..k];
        for (v, &w) in next.iter_mut().zip(serve) {
            *v += w * len;
        }
    }

    /// Forward pass + windowed backtrack. Returns the optimal state per
    /// segment plus the forward pass's beam-prune count, or `None` when
    /// the (beam-pruned) DP dead-ends.
    fn solve_path(&self) -> Option<(Vec<usize>, u64)> {
        let k = self.k();
        let s_count = self.segs.len();
        let rows = window_rows(s_count);
        let mut buf = vec![INF; self.box_size];
        // Forward pass, checkpointing the cost vector at every window start.
        let mut checkpoints: Vec<f64> = Vec::with_capacity(s_count.div_ceil(rows) * k);
        let mut dp: Vec<f64> = (0..k).map(|s| self.serve_energy(0, s)).collect();
        let mut next = vec![INF; k];
        for i in 0..s_count - 1 {
            if i % rows == 0 {
                checkpoints.extend_from_slice(&dp);
            }
            self.step(&mut dp, i, &mut buf, &mut next);
            std::mem::swap(&mut dp, &mut next);
        }
        let forward_pruned = self.pruned.get();
        let (mut best_s, mut best_v) = (usize::MAX, INF);
        for (s, &v) in dp.iter().enumerate() {
            if v < best_v {
                best_v = v;
                best_s = s;
            }
        }
        if !best_v.is_finite() {
            return None;
        }

        let mut path = vec![0usize; s_count];
        path[s_count - 1] = best_s;
        // Row `r` of the window holds dp_{w0 + r}, recomputed from the
        // window's checkpoint.
        let mut window = vec![INF; rows * k];
        let mut hi = s_count - 1;
        while hi > 0 {
            let c = (hi - 1) / rows;
            let w0 = c * rows;
            window[..k].copy_from_slice(&checkpoints[c * k..][..k]);
            for r in 1..hi - w0 {
                let (done, rest) = window.split_at_mut(r * k);
                self.step(
                    &mut done[(r - 1) * k..],
                    w0 + r - 1,
                    &mut buf,
                    &mut rest[..k],
                );
            }
            for i in (w0..hi).rev() {
                let dp_i = &mut window[(i - w0) * k..][..k];
                self.prune(dp_i); // the same beam the forward transition saw
                let b = path[i + 1];
                let tau = u64::from(self.segs[i + 1].start);
                // Seeding the scan with staying put lets it skip every
                // `a` with `dp_i[a] >= best_c` unpriced: profiles forbid
                // negative energies, so transition prices are >= 0 and
                // such an `a` can never win. The seed cannot change the
                // outcome: when staying ties the minimum it is chosen by
                // the tie rule below anyway, and otherwise the scan still
                // ends on the lowest-index minimizer.
                let stay = dp_i[b];
                let (mut best_a, mut best_c) = (b, stay);
                for (a, &v) in dp_i.iter().enumerate() {
                    if v >= best_c {
                        continue;
                    }
                    let cost = v + self.trans_cost(a, b, tau);
                    if cost < best_c {
                        best_c = cost;
                        best_a = a;
                    }
                }
                debug_assert!(best_c.is_finite(), "reachable state has a predecessor");
                // Prefer staying put on (float-) ties: fewer records, and
                // the common no-reconfiguration case short-circuits.
                path[i] = if stay <= best_c + 1e-9 * best_c.abs() + 1e-6 {
                    b
                } else {
                    best_a
                };
            }
            hi = w0;
        }
        Some((path, forward_pruned))
    }

    /// Total energy of a state path, priced canonically (serve + direct
    /// transition costs) — this, not the forward pass's float
    /// accumulation, is the number the replay must reproduce.
    fn path_energy(&self, path: &[usize]) -> f64 {
        let mut e = self.serve_energy(0, path[0]);
        for i in 1..path.len() {
            e += self.trans_cost(path[i - 1], path[i], u64::from(self.segs[i].start));
            e += self.serve_energy(i, path[i]);
        }
        e
    }

    /// Convert a state path into the engine's believed-configuration
    /// record protocol: per transition, one boot record per distinct
    /// maturity lead issued `lead` seconds before the boundary, and one
    /// shutdown record at the boundary; then a global stable sort by
    /// time with cumulatively rebuilt targets, so records compose in
    /// list order even when leads from different transitions interleave.
    fn schedule(&self, path: &[usize]) -> Vec<ReconfigRecord> {
        let n_archs = self.profiles.len();
        let mut events: Vec<(u64, Vec<i64>)> = Vec::new();
        for i in 1..path.len() {
            let (a, b) = (&self.states[path[i - 1]], &self.states[path[i]]);
            if a == b {
                continue;
            }
            let tau = u64::from(self.segs[i].start);
            let mut boots: BTreeMap<u64, Vec<i64>> = BTreeMap::new();
            let mut offs = vec![0i64; n_archs];
            let mut any_off = false;
            for arch in 0..n_archs {
                let d = i64::from(b[arch]) - i64::from(a[arch]);
                if d > 0 {
                    boots
                        .entry(self.costs[arch].lead)
                        .or_insert_with(|| vec![0; n_archs])[arch] += d;
                } else if d < 0 {
                    offs[arch] = d;
                    any_off = true;
                }
            }
            for (lead, delta) in boots {
                debug_assert!(lead <= tau, "the DP only books maturable boots");
                events.push((tau - lead, delta));
            }
            if any_off {
                events.push((tau, offs));
            }
        }
        events.sort_by_key(|e| e.0); // stable: same-time records keep order
        let mut believed: Vec<i64> = self.states[path[0]].iter().map(|&c| i64::from(c)).collect();
        events
            .into_iter()
            .map(|(at, delta)| {
                for (b, d) in believed.iter_mut().zip(delta) {
                    *b += d;
                    debug_assert!(*b >= 0);
                }
                ReconfigRecord {
                    at,
                    target: believed.iter().map(|&c| c as u32).collect(),
                }
            })
            .collect()
    }
}

/// One distance-transform step along a lattice axis, for every line at
/// once: `to[t] = min(to[t], from[t] + price)`.
fn relax(to: &mut [f64], from: &[f64], price: f64) {
    for (dst, &src) in to.iter_mut().zip(from) {
        let cand = src + price;
        if cand < *dst {
            *dst = cand;
        }
    }
}

/// Compute the offline-optimal reconfiguration schedule for `trace` on
/// `bml`'s candidate infrastructure under `split`.
///
/// Returns `None` only when a [`OptOptions::beam_width`] prunes the DP
/// into a dead end; the exact DP (`beam_width: None`) always succeeds on
/// any trace (the combination for the trace maximum is feasible
/// everywhere, and the warm start makes it reachable). An empty trace
/// yields a zero-energy schedule.
///
/// The optimum is exact *within its state space*: machine combinations
/// produced by the infrastructure's combination table for the trace's
/// load levels (plus [`OptOptions::extra_states`]), reconfigured only at
/// constant-load segment boundaries — see the crate docs for why
/// boundary-restricted schedules dominate.
///
/// # Panics
///
/// Panics when the trace is longer than `u32::MAX` seconds (136 years).
pub fn solve(
    trace: &LoadTrace,
    bml: &BmlInfrastructure,
    split: SplitPolicy,
    opts: &OptOptions,
) -> Option<OptimalSchedule> {
    if trace.is_empty() {
        return Some(OptimalSchedule {
            energy_j: 0.0,
            initial: vec![0; bml.n_archs()],
            schedule: Vec::new(),
            n_states: 0,
            n_segments: 0,
            n_boundaries: 0,
            states_pruned: 0,
        });
    }
    let dp = Dp::build(trace, bml, split, opts);
    let (path, states_pruned) = dp.solve_path()?;
    Some(OptimalSchedule {
        energy_j: dp.path_energy(&path),
        initial: dp.states[path[0]].clone(),
        schedule: dp.schedule(&path),
        n_states: dp.k(),
        n_segments: dp.segs.len(),
        n_boundaries: dp.segs.len() - 1,
        states_pruned,
    })
}

/// [`solve`], then replay the schedule through the simulator
/// ([`bml_sim::replay_schedule`]) and demand the claimed energy back to
/// 1e-9 relative. Returns the schedule and the full replay
/// [`ScenarioResult`] (named `"Offline Optimal"`, genuine QoS and daily
/// energies).
///
/// # Panics
///
/// Panics when the replayed energy disagrees with the DP's claim beyond
/// 1e-9 relative — the cost model and the simulator have diverged, and
/// every optimality number downstream would be wrong.
pub fn solve_verified(
    trace: &LoadTrace,
    bml: &BmlInfrastructure,
    split: SplitPolicy,
    opts: &OptOptions,
) -> Option<(OptimalSchedule, ScenarioResult)> {
    let sched = solve(trace, bml, split, opts)?;
    let replay = replay_schedule(trace, bml, &sched.initial, &sched.schedule, split);
    let (a, b) = (sched.energy_j, replay.total_energy_j);
    assert!(
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) + 1e-9,
        "offline-optimal replay diverged: DP claims {a} J, simulator metered {b} J \
         ({} records over {} segments)",
        sched.schedule.len(),
        sched.n_segments,
    );
    Some((sched, replay))
}

/// Optimal power (W) and machine counts for serving a single constant
/// `rate` — the one-segment special case of the DP, with the knapsack
/// packing of [`bml_core::combination::optimal_dp`] seeded as an extra
/// candidate so the answer is the true instantaneous optimum (for a
/// fixed machine multiset the efficiency-greedy split is the cheapest
/// assignment, so the enriched candidate set contains the knapsack's
/// minimizer).
///
/// `ablation_packing` uses this to compare the Step-5 greedy fill
/// against the optimum; the two solvers must agree (tested there).
pub fn optimal_instant(bml: &BmlInfrastructure, rate: u64, split: SplitPolicy) -> (f64, Vec<u32>) {
    let (_, knapsack) = bml_core::combination::optimal_dp(bml.candidates(), rate);
    let trace = LoadTrace::new(0, vec![rate as f64]);
    let opts = OptOptions {
        beam_width: None,
        extra_states: vec![knapsack],
    };
    let sched = solve(&trace, bml, split, &opts).expect("exact one-segment DP cannot dead-end");
    (sched.energy_j, sched.initial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bml_core::catalog;
    use proptest::prelude::*;

    fn bml() -> BmlInfrastructure {
        BmlInfrastructure::build(&catalog::table1()).unwrap()
    }

    fn greedy() -> SplitPolicy {
        SplitPolicy::EfficiencyGreedy
    }

    /// The per-element sweep the strided [`Dp::transition`] replaced,
    /// kept as its bit-exact reference: one pass over the whole box per
    /// axis and direction, locating every cell on its line by division.
    fn reference_transition(
        dp: &Dp<'_>,
        dp_in: &[f64],
        tau: u64,
        buf: &mut [f64],
        out: &mut [f64],
    ) {
        buf.fill(INF);
        for (s, &cell) in dp.cell_of.iter().enumerate() {
            buf[cell] = dp_in[s];
        }
        for (axis, cost) in dp.lattice.iter().zip(&dp.costs) {
            let m = axis.gaps.len() + 1;
            if m == 1 {
                continue;
            }
            let stride = axis.stride;
            if cost.lead <= tau {
                let rate = cost.on_cost;
                for idx in 0..dp.box_size {
                    let j = (idx / stride) % m;
                    if j > 0 {
                        let cand = buf[idx - stride] + rate * axis.gaps[j - 1];
                        if cand < buf[idx] {
                            buf[idx] = cand;
                        }
                    }
                }
            }
            let off_unit = cost.off_cost(dp.horizon - tau);
            for idx in (0..dp.box_size).rev() {
                let j = (idx / stride) % m;
                if j + 1 < m {
                    let cand = buf[idx + stride] + off_unit * axis.gaps[j];
                    if cand < buf[idx] {
                        buf[idx] = cand;
                    }
                }
            }
        }
        for (s, &cell) in dp.cell_of.iter().enumerate() {
            out[s] = buf[cell];
        }
    }

    #[test]
    fn empty_trace_is_free() {
        let s = solve(
            &LoadTrace::new(0, vec![]),
            &bml(),
            greedy(),
            &OptOptions::default(),
        )
        .unwrap();
        assert_eq!(s.energy_j, 0.0);
        assert!(s.schedule.is_empty());
        assert_eq!(s.initial, vec![0, 0, 0]);
        assert_eq!((s.n_boundaries, s.states_pruned), (0, 0));
    }

    #[test]
    fn solver_stats_count_boundaries_and_prunes() {
        let bml = bml();
        let mut rates = vec![100.0; 60];
        rates.extend(vec![900.0; 60]);
        rates.extend(vec![5.0; 60]);
        let trace = LoadTrace::new(0, rates);
        let exact = solve(&trace, &bml, greedy(), &OptOptions::default()).unwrap();
        assert_eq!(exact.n_segments, 3);
        assert_eq!(exact.n_boundaries, 2);
        assert_eq!(exact.states_pruned, 0, "exact DP never prunes");
        let beam = solve(
            &trace,
            &bml,
            greedy(),
            &OptOptions {
                beam_width: Some(1),
                extra_states: vec![],
            },
        );
        if let Some(beam) = beam {
            assert!(
                beam.states_pruned > 0,
                "width-1 beam over {} states must prune",
                beam.n_states
            );
            // Counting is deterministic: same inputs, same count.
            let again = solve(
                &trace,
                &bml,
                greedy(),
                &OptOptions {
                    beam_width: Some(1),
                    extra_states: vec![],
                },
            )
            .unwrap();
            assert_eq!(again.states_pruned, beam.states_pruned);
        }
    }

    #[test]
    fn window_rows_is_the_ceiling_square_root() {
        for (segments, rows) in [
            (1, 1),
            (2, 2),
            (3, 2),
            (4, 2),
            (16, 4),
            (17, 5),
            (169_936, 413),
        ] {
            assert_eq!(window_rows(segments), rows, "{segments} segments");
        }
    }

    #[test]
    fn constant_trace_holds_the_ideal_combination() {
        let bml = bml();
        let trace = LoadTrace::new(0, vec![500.0; 600]);
        let s = solve(&trace, &bml, greedy(), &OptOptions::default()).unwrap();
        assert!(s.schedule.is_empty(), "no reason to reconfigure");
        let counts = bml.combination_table().counts_for(500.0);
        assert_eq!(s.initial, counts);
        let (w, _) = bml.config_power(&counts, 500.0, greedy());
        assert!((s.energy_j - w * 600.0).abs() < 1e-9);
    }

    #[test]
    fn single_second_trace_solves() {
        let bml = bml();
        let s = solve(
            &LoadTrace::new(0, vec![42.0]),
            &bml,
            greedy(),
            &OptOptions::default(),
        )
        .unwrap();
        assert_eq!(s.n_segments, 1);
        let counts = bml.combination_table().counts_for(42.0);
        let (w, _) = bml.config_power(&counts, 42.0, greedy());
        assert!(s.energy_j <= w + 1e-9, "optimum can only improve on greedy");
    }

    #[test]
    fn immature_boot_forces_a_warm_start() {
        // Load jumps to 5000 at t=1: no architecture can boot in 1 s, so
        // the only feasible policy warm-starts the big fleet and pays its
        // idle through the first second.
        let bml = bml();
        let mut rates = vec![0.0];
        rates.extend(vec![5000.0; 300]);
        let trace = LoadTrace::new(0, rates);
        let (s, replay) = solve_verified(&trace, &bml, greedy(), &OptOptions::default()).unwrap();
        let high = bml.combination_table().counts_for(5000.0);
        assert_eq!(s.initial, high);
        assert!(s.schedule.is_empty());
        let (w_idle, _) = bml.config_power(&high, 0.0, greedy());
        let (w_high, _) = bml.config_power(&high, 5000.0, greedy());
        let expected = w_idle + w_high * 300.0;
        assert!((s.energy_j - expected).abs() < 1e-9);
        assert_eq!(replay.qos.violation_seconds, 0);
    }

    #[test]
    fn boots_are_scheduled_one_lead_before_the_step() {
        // Long quiet stretch then a step: booting just-in-time beats
        // holding the serving fleet from t=0.
        let bml = bml();
        let mut rates = vec![0.0; 1000];
        rates.extend(vec![500.0; 1000]);
        let trace = LoadTrace::new(0, rates);
        let (s, replay) = solve_verified(&trace, &bml, greedy(), &OptOptions::default()).unwrap();
        assert!(!s.schedule.is_empty(), "must boot for the step");
        assert_eq!(s.initial, vec![0, 0, 0], "idle stretch starts dark");
        // Every boot record lands exactly its architecture's ceil'd boot
        // duration before the step at t=1000.
        for r in &s.schedule {
            assert!(r.at < 1000, "boots are issued before the boundary: {r:?}");
        }
        assert_eq!(replay.qos.violation_seconds, 0, "just-in-time, not late");
        // And it beats the naive hold-forever policy.
        let counts = bml.combination_table().counts_for(500.0);
        let (w_idle, _) = bml.config_power(&counts, 0.0, greedy());
        let (w_serve, _) = bml.config_power(&counts, 500.0, greedy());
        assert!(s.energy_j < w_idle * 1000.0 + w_serve * 1000.0);
    }

    #[test]
    fn lattice_transition_matches_naive_min_plus() {
        // 42 distinct loads spanning several machines of every kind.
        let rates: Vec<f64> = (0..42u32)
            .flat_map(|i| vec![f64::from(i * 97); 30])
            .collect();
        let trace = LoadTrace::new(0, rates);
        let catalogs = [
            ("table1", catalog::table1()),
            (
                "big-medium",
                vec![catalog::paravance(), catalog::chromebook()],
            ),
            (
                "big-little",
                vec![catalog::paravance(), catalog::raspberry()],
            ),
            ("illustrative", catalog::illustrative()),
        ];
        for (name, profiles) in catalogs {
            let bml = BmlInfrastructure::build(&profiles).unwrap();
            let dp = Dp::build(&trace, &bml, greedy(), &OptOptions::default());
            let k = dp.k();
            assert!(k >= 5, "{name}: want a non-trivial state space, got {k}");
            // Deterministic pseudo-random dp vector.
            let dp_in: Vec<f64> = (0..k)
                .map(|s| {
                    if s % 7 == 3 {
                        INF
                    } else {
                        1000.0 + 37.0 * ((s * s + 11) % 97) as f64
                    }
                })
                .collect();
            // Boundaries just before, at and after every boot lead, and
            // throughout every shutdown ramp's truncation at the horizon.
            let mut taus = vec![1, dp.horizon / 2, dp.horizon - 1];
            for c in &dp.costs {
                taus.extend([c.lead - 1, c.lead, c.lead + 1]);
                taus.extend((1..=c.off_ceil + 1).map(|r| dp.horizon - r));
            }
            taus.retain(|tau| (1..dp.horizon).contains(tau));
            let mut buf = vec![INF; dp.box_size];
            let (mut out, mut want) = (vec![INF; k], vec![INF; k]);
            for &tau in &taus {
                dp.transition(&dp_in, tau, &mut buf, &mut out);
                reference_transition(&dp, &dp_in, tau, &mut buf, &mut want);
                for (b, (&got, &reference)) in out.iter().zip(&want).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        reference.to_bits(),
                        "{name} tau={tau} b={b}: strided {got} vs reference {reference}"
                    );
                    let naive = (0..k)
                        .map(|a| dp_in[a] + dp.trans_cost(a, b, tau))
                        .fold(INF, f64::min);
                    assert!(
                        (got - naive).abs() <= 1e-9 * naive.abs().max(1.0) || (got == naive),
                        "{name} tau={tau} b={b}: lattice {got} vs naive {naive}"
                    );
                }
            }
        }
    }

    #[test]
    fn verified_replay_agrees_on_a_bursty_trace() {
        let bml = bml();
        let trace = bml_trace::synthetic::flash_crowd(100.0, 5000.0, 1000, 60, 300.0, 5000);
        let (s, replay) = solve_verified(&trace, &bml, greedy(), &OptOptions::default()).unwrap();
        assert_eq!(replay.name, "Offline Optimal");
        assert_eq!(replay.qos.violation_seconds, 0, "full service by design");
        assert!(s.energy_j > 0.0);
        // The optimum must not exceed the pro-active scheduler's energy.
        let live = bml_sim::scenarios::bml_proactive(&trace, &bml, &bml_sim::SimConfig::default());
        assert!(
            s.energy_j <= live.total_energy_j + 1e-6,
            "optimal {} vs scheduler {}",
            s.energy_j,
            live.total_energy_j
        );
    }

    #[test]
    fn optimal_instant_never_above_greedy_fill() {
        let bml = bml();
        for rate in (1..=2662u64).step_by(97) {
            let (opt, counts) = optimal_instant(&bml, rate, greedy());
            let greedy_w = bml.ideal_combination(rate as f64).power(bml.candidates());
            assert!(
                opt <= greedy_w + 1e-9,
                "rate {rate}: optimal {opt} > greedy {greedy_w}"
            );
            let (_, dp_counts) = bml_core::combination::optimal_dp(bml.candidates(), rate);
            let (dp_w, _) = bml.config_power(&dp_counts, rate as f64, greedy());
            assert!(
                (opt - dp_w.min(greedy_w)).abs() <= 1e-9 * dp_w.max(1.0),
                "rate {rate}: instant {opt} vs knapsack {dp_w} / greedy {greedy_w} ({counts:?})"
            );
        }
    }

    #[test]
    fn zero_beam_dead_ends() {
        let bml = bml();
        // Two segments, so the (empty) beam is actually crossed once.
        let mut rates = vec![100.0; 10];
        rates.extend(vec![900.0; 10]);
        let trace = LoadTrace::new(0, rates);
        let opts = OptOptions {
            beam_width: Some(0),
            extra_states: vec![],
        };
        assert!(solve(&trace, &bml, greedy(), &opts).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Beam energies are upper bounds on the exact optimum, and both
        /// survive the simulator replay cross-check, over random step
        /// traces.
        #[test]
        fn beam_is_an_upper_bound_and_replays_clean(
            levels in proptest::collection::vec(0usize..5, 1..8),
            durs in proptest::collection::vec(1u64..40, 1..8),
            width in 1usize..4,
        ) {
            let palette = [0.0, 9.0, 40.0, 529.0, 1400.0];
            let mut rates = Vec::new();
            for (l, d) in levels.iter().zip(&durs) {
                rates.extend(vec![palette[*l]; *d as usize]);
            }
            let trace = LoadTrace::new(0, rates);
            let bml = bml();
            let (exact, _) =
                solve_verified(&trace, &bml, greedy(), &OptOptions::default()).unwrap();
            let beam_opts = OptOptions { beam_width: Some(width), extra_states: vec![] };
            if let Some((beam, _)) = solve_verified(&trace, &bml, greedy(), &beam_opts) {
                prop_assert!(
                    beam.energy_j >= exact.energy_j - 1e-9 * exact.energy_j.abs() - 1e-6,
                    "beam {} below exact {}", beam.energy_j, exact.energy_j
                );
            }
        }
    }
}
