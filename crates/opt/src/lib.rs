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
//! * **States** are the ideal machine combinations (the paper's Step-5
//!   greedy fill, [`BmlInfrastructure::ideal_combination`]) of the
//!   trace's distinct load levels, plus all-off. A state is feasible for
//!   a segment when its capacity covers the load — the QoS target is full
//!   service, the same constraint the ideal combination satisfies.
//! * **Serving cost** of a segment in state `s` is
//!   `PowerCurve::new(s).eval(load) * len`, the exact power the simulator
//!   meters for an online fleet `s` under the chosen split policy (one
//!   compiled [`bml_core::combination::PowerCurve`] per state).
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
//! min-plus convolution in `O(lattice)` per boundary.
//!
//! The cost vector lives in the lattice for the whole pass, one value per
//! cell. Each boundary sweeps it in place, adds the next segment's serving
//! energy to the state cells and sets every other cell back to `INF`;
//! nothing is scattered in or gathered out. The lattice's longest axis is
//! contiguous in memory, so every other axis relaxes whole rows at a time,
//! and the state cells fall into a few contiguous runs: 2 on the 68-cell
//! lattice of a 7-day worldcup trace, 11 on the 170-cell lattice of the
//! smoke grid's table1 solve. The serving table stores its columns in the
//! same lattice order, so the serving add and the re-`INF` are a few slice
//! operations per run. The sweeps still visit the architectures in order,
//! so every cell sees the same float operations in the same order as a
//! per-cell reference sweep, and the optimum is the same to the bit
//! whatever the layout.
//!
//! ## Memory
//!
//! The backtrack is an argmin chain over the cost rows, last segment
//! first: each step reads one row and the state the chain holds in the
//! next segment. The forward pass runs once, on the calling thread, and
//! chains the backtrack as it goes, a window of `ceil(sqrt(S))` segments
//! at a time (`S` segments), from *every* state the path could hold just
//! past the window. A step depends only on the row and the state, so
//! chains that meet share the rest of their walk, and a window's chains
//! merge almost at once: ~1.06 steps per segment on a 7-day worldcup
//! trace. Once the next window is chained, only the roots (start states)
//! its chains end in can still be on the path; their runs are kept and
//! the rest dropped. After the final argmin the path is read off the kept
//! windows, last first: the path one chain over the full table of rows
//! would take, to the bit.
//!
//! A solve holds three things that grow with the trace:
//!
//! * **One window of cost rows, `O(K * sqrt(S))`** for `K` states: the
//!   `K` state values of each of the window's segments, copied run by run
//!   out of the lattice vector into one reused buffer.
//! * **The path and the chains, `O(changes)`.** Paths are runs of one
//!   state, one per change point: 14,613 runs over the 588,391 segments
//!   of a 7-day worldcup trace, whose 767 kept windows hold 768 roots and
//!   14,640 runs. A window's chains live in a reused arena.
//! * **The [`SegmentIndex`], 8 bytes per segment.** A segment lasts at
//!   least a second, so that is never more than the trace's own 8 bytes
//!   per second (plus one sentinel). It is allocated once at its exact
//!   size, depends on the trace alone, and can be shared by every solve
//!   on that trace ([`solve_indexed`]).
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

use std::collections::{BTreeMap, BTreeSet, HashMap};

use bml_core::bml::BmlInfrastructure;
use bml_core::combination::{PowerCurve, SplitPolicy};
use bml_core::profile::ArchProfile;
use bml_sim::{replay_schedule, ReconfigRecord, ScenarioResult};
use bml_trace::LoadTrace;

const INF: f64 = f64::INFINITY;

/// Capacity slack when testing whether a combination covers a load —
/// the same 1e-9 the rest of the workspace uses for float comparisons.
const EPS: f64 = 1e-9;

/// Rows of the backtrack's window for `segments` segments:
/// `ceil(sqrt(segments))`, which balances the window buffer against the
/// windows' start-up, where up to `K` chains step before they merge.
fn window_rows(segments: usize) -> usize {
    (1..).find(|r| r * r >= segments).expect("squares grow")
}

/// Knobs for [`solve`]. It has none today; every solve takes it so that
/// a knob added later reaches the grid's opt-cache key, which hashes its
/// `Debug` text.
#[derive(Debug, Clone, Default)]
pub struct OptOptions {}

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
    /// Always 0: the exact DP prunes no state. It stays only because
    /// the `perfbench` harness reads it, and goes when that harness does.
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

/// One [`SegmentIndex`] entry, in 8 bytes: long traces run to millions
/// of segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// First second of the segment.
    start: u32,
    /// Index into the distinct-load table.
    load: u32,
}

/// One maximal constant-load run, read from two adjacent index entries.
#[derive(Debug, Clone, Copy)]
struct Seg {
    start: u32,
    len: u32,
    /// Index into the distinct-load table.
    load: u32,
}

/// A trace's maximal constant-load runs, as the DP reads them: per
/// segment, its first second and the index of its load among the
/// trace's distinct loads, then a `(horizon, 0)` sentinel, so a segment's
/// length is the next start minus its own. That is 8 bytes per segment,
/// at most the trace's own 8 bytes per second (plus the sentinel),
/// allocated once at its exact size.
///
/// The index depends on the trace alone. Build it once and every solve
/// on that trace can share it, whatever the catalog and split: see
/// [`solve_indexed`] and [`solve_verified_indexed`].
#[derive(Debug, Clone)]
pub struct SegmentIndex<'t> {
    trace: &'t LoadTrace,
    /// `(start, load)` per segment, then `(horizon, 0)`.
    entries: Vec<Entry>,
    /// The distinct loads, in order of first appearance.
    loads: Vec<f64>,
}

impl<'t> SegmentIndex<'t> {
    /// Index `trace`'s constant-load runs: one counting pass sizes the
    /// list, a second fills it.
    ///
    /// # Panics
    ///
    /// Panics when the trace is longer than `u32::MAX` seconds (136 years).
    pub fn new(trace: &'t LoadTrace) -> Self {
        let horizon = u32::try_from(trace.len()).unwrap_or_else(|_| {
            panic!(
                "a {} s trace overflows the DP's u32 segment positions",
                trace.len()
            )
        });
        let mut entries = Vec::with_capacity(trace.constant_runs().count() + 1);
        let mut load_idx: HashMap<u64, u32> = HashMap::new();
        let mut loads: Vec<f64> = Vec::new();
        for seg in trace.constant_runs() {
            let load = *load_idx.entry(seg.value.to_bits()).or_insert_with(|| {
                loads.push(seg.value);
                loads.len() as u32 - 1
            });
            entries.push(Entry {
                start: seg.start as u32,
                load,
            });
        }
        entries.push(Entry {
            start: horizon,
            load: 0,
        });
        SegmentIndex {
            trace,
            entries,
            loads,
        }
    }

    /// Number of constant-load segments.
    fn len(&self) -> usize {
        self.entries.len() - 1
    }

    /// Segment `i`.
    fn seg(&self, i: usize) -> Seg {
        let [this, next] = [self.entries[i], self.entries[i + 1]];
        Seg {
            start: this.start,
            len: next.start - this.start,
            load: this.load,
        }
    }

    /// First second of segment `i`: the boundary the DP crosses into it.
    fn start(&self, i: usize) -> u64 {
        u64::from(self.entries[i].start)
    }
}

/// One run of the optimal path: from segment `first` up to the next
/// run's, the path holds `state`. Adjacent runs differ in state, so a
/// path has one run per change point, plus the first. It packs into 8
/// bytes, as [`SegmentIndex::new`] bounds the segments by `u32::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PathRun {
    first: u32,
    state: u32,
}

impl PathRun {
    fn new(first: usize, state: usize) -> Self {
        let fit = |v| u32::try_from(v).expect("a trace has at most u32::MAX segments");
        PathRun {
            first: fit(first),
            state: fit(state),
        }
    }

    fn state(self) -> usize {
        self.state as usize
    }
}

/// No run: the end of a chain in an [`Arena`].
const NONE: usize = usize::MAX;

/// One backtrack window's chains, from every root at once (see
/// [`Dp::chain_window`]), in vectors that the next window but one reuses.
#[derive(Debug, Default)]
struct Arena {
    /// The chains' runs; the first `roots` are the roots, one per start
    /// state. Below its first segment, the chain in run `r` continues in
    /// run `below[r]`, [`NONE`] at the window's first segment.
    runs: Vec<PathRun>,
    below: Vec<usize>,
    roots: usize,
    /// The runs the chains are in at the segment the walk has reached, one
    /// per distinct state: the window's first segment once it is done.
    active: Vec<usize>,
    /// Scratch for one step: each active run and the state it moves to.
    moves: Vec<(usize, usize)>,
    /// Per state, the run that holds it at this step, or [`NONE`].
    claim: Vec<usize>,
}

/// The chained backtrack windows, in segment order, each with only the
/// roots the optimal path can still take.
#[derive(Debug, Default)]
struct Chained {
    /// Per window: its first kept root in `roots`.
    windows: Vec<usize>,
    /// Per kept root: its run, and the end of its chain's runs in `runs`.
    roots: Vec<(PathRun, usize)>,
    /// The runs each kept root's chain changes into, last first, down to
    /// its window's first segment.
    runs: Vec<PathRun>,
}

impl Chained {
    /// Keep the roots of `arena`'s window whose state passes `keep`.
    fn keep(&mut self, arena: &Arena, keep: impl Fn(usize) -> bool) {
        self.windows.push(self.roots.len());
        for root in (0..arena.roots).filter(|&r| keep(arena.runs[r].state())) {
            let mut below = arena.below[root];
            while below != NONE {
                self.runs.push(arena.runs[below]);
                below = arena.below[below];
            }
            self.roots.push((arena.runs[root], self.runs.len()));
        }
    }

    /// The optimal path that holds `last` in the last segment, in segment
    /// order. The windows are walked last first: in each, the root the
    /// path reaches it in extends the carried run down to the root's first
    /// segment, and the root's chain adds its runs.
    fn path(&self, last: PathRun) -> Vec<PathRun> {
        let mut path = vec![last];
        let mut roots_end = self.roots.len();
        for &roots_start in self.windows.iter().rev() {
            let carried = path.last_mut().expect("the path starts on its last run");
            let r = (roots_start..roots_end)
                .find(|&r| self.roots[r].0.state == carried.state)
                .expect("a window keeps the root the path reaches it in");
            carried.first = self.roots[r].0.first;
            let runs_start = r.checked_sub(1).map_or(0, |p| self.roots[p].1);
            path.extend_from_slice(&self.runs[runs_start..self.roots[r].1]);
            roots_end = roots_start;
        }
        path.reverse();
        path
    }
}

/// One axis of the count lattice, priced once per solve.
#[derive(Debug, Clone)]
struct LatticeAxis {
    /// Cells between neighbouring positions on a line along this axis
    /// (1 on the contiguous axis).
    stride: usize,
    /// `gaps[j]`: machines between the axis's counts at positions `j`
    /// and `j + 1`.
    gaps: Vec<f64>,
    /// `boots[j]`: price of booting those `gaps[j]` machines. Boot prices
    /// never change over the trace (only whether a boot can mature does).
    boots: Vec<f64>,
}

/// A maximal run of consecutive lattice cells that are all states.
#[derive(Debug, Clone, Copy)]
struct StateRun {
    /// First lattice cell of the run.
    cell: usize,
    /// Rank of the run's first state among all states in lattice order:
    /// its column in `serve` and its offset in a K-sized cost row.
    rank: usize,
    len: usize,
}

/// The assembled DP instance.
struct Dp<'a> {
    profiles: &'a [ArchProfile],
    horizon: u64,
    index: &'a SegmentIndex<'a>,
    states: Vec<Vec<u32>>,
    /// `serve[load * K + rank_of[s]]`: serving power (W) of state `s` at
    /// that load, `INF` when the state's capacity cannot cover it. The
    /// columns are in lattice order, so each [`StateRun`] reads one
    /// contiguous slice of a row.
    serve: Vec<f64>,
    costs: Vec<ArchCost>,
    /// The count lattice the distance transform sweeps: per
    /// architecture (in architecture order), the sorted distinct counts
    /// across all states. The longest axis is contiguous; see
    /// [`lattice_strides`].
    lattice: Vec<LatticeAxis>,
    box_size: usize,
    /// Lattice cell of each state.
    cell_of: Vec<usize>,
    /// Rank of each state among all states in lattice order.
    rank_of: Vec<usize>,
    /// The state cells as maximal runs, in lattice order; every other
    /// cell of a cost vector is `INF` between boundaries.
    runs: Vec<StateRun>,
}

/// Memory strides of a count lattice with `lens[a]` positions on axis
/// `a`: axes sorted by length (ties keep architecture order) from the
/// outermost to the contiguous one, so the longest axis is contiguous
/// and every other axis relaxes whole rows at least that long. Returns
/// the strides in architecture order and the lattice size.
///
/// The layout only decides where a cell lives. The sweeps still run in
/// architecture order, so every cell sees the same float operations in
/// the same order whatever the layout.
fn lattice_strides(lens: &[usize]) -> (Vec<usize>, usize) {
    let mut outer_to_inner: Vec<usize> = (0..lens.len()).collect();
    outer_to_inner.sort_by_key(|&a| lens[a]);
    let mut strides = vec![1; lens.len()];
    let mut size = 1;
    for &a in outer_to_inner.iter().rev() {
        strides[a] = size;
        size *= lens[a];
    }
    (strides, size)
}

impl<'a> Dp<'a> {
    /// The DP over `index` whose states are the ideal combination of
    /// every distinct load, and all-off.
    fn build(index: &'a SegmentIndex<'a>, bml: &'a BmlInfrastructure, split: SplitPolicy) -> Self {
        let n_archs = bml.n_archs();
        let mut states: BTreeSet<Vec<u32>> = BTreeSet::new();
        states.insert(vec![0; n_archs]);
        for &v in &index.loads {
            states.insert(bml.ideal_combination(v).counts(n_archs));
        }
        Self::over_states(index, bml, split, states)
    }

    /// The DP over `index` with `states` (machine counts per
    /// architecture, candidate order) as its state space, numbered in
    /// their sorted order.
    fn over_states(
        index: &'a SegmentIndex<'a>,
        bml: &'a BmlInfrastructure,
        split: SplitPolicy,
        states: BTreeSet<Vec<u32>>,
    ) -> Self {
        let profiles = bml.candidates();
        let n_archs = profiles.len();
        let loads = &index.loads;
        let states: Vec<Vec<u32>> = states.into_iter().collect();
        let k = states.len();

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
        let lens: Vec<usize> = axes.iter().map(Vec::len).collect();
        let (strides, box_size) = lattice_strides(&lens);
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
        let mut in_lattice_order: Vec<usize> = (0..k).collect();
        in_lattice_order.sort_unstable_by_key(|&s| cell_of[s]);
        let mut rank_of = vec![0; k];
        let mut runs: Vec<StateRun> = Vec::new();
        for (rank, &s) in in_lattice_order.iter().enumerate() {
            rank_of[s] = rank;
            let cell = cell_of[s];
            match runs.last_mut() {
                Some(run) if run.cell + run.len == cell => run.len += 1,
                _ => runs.push(StateRun { cell, rank, len: 1 }),
            }
        }
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

        // Serving power per (load, state), columns in lattice order;
        // INF = capacity cannot cover. One compiled curve per state.
        let mut serve = vec![INF; loads.len() * k];
        for (st, &rank) in states.iter().zip(&rank_of) {
            let curve = PowerCurve::new(profiles, st, split);
            for (li, &v) in loads.iter().enumerate() {
                let (w, served) = curve.eval(v);
                if served + EPS >= v {
                    serve[li * k + rank] = w;
                }
            }
        }

        Dp {
            profiles,
            horizon: index.trace.len(),
            index,
            states,
            serve,
            costs,
            lattice,
            box_size,
            cell_of,
            rank_of,
            runs,
        }
    }

    fn k(&self) -> usize {
        self.states.len()
    }

    /// Serving energy of segment `i` in state `s` (INF when infeasible).
    fn serve_energy(&self, i: usize, s: usize) -> f64 {
        let seg = self.index.seg(i);
        self.serve[seg.load as usize * self.k() + self.rank_of[s]] * f64::from(seg.len)
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

    /// Min-plus transition across boundary `tau`, in place on a lattice
    /// cost vector: every cell `b` becomes `min_a cells[a] +
    /// trans_cost(a, b, tau)`, computed exactly in `O(box)` via per-axis
    /// distance-transform sweeps (transition costs are separable per
    /// architecture; an up-then-down detour is never cheaper than the
    /// direct move, so the two sweeps per axis relax every pair).
    ///
    /// A strided axis advances one line position at a time across every
    /// line at once: a position is a set of whole rows, priced once and
    /// relaxed as independent cells. The contiguous axis walks one line
    /// at a time and carries the running minimum in a register, so each
    /// step of a line's add→min chain skips the store and reload, and
    /// the independent lines' chains overlap.
    fn sweep(&self, cells: &mut [f64], tau: u64) {
        for (axis, cost) in self.lattice.iter().zip(&self.costs) {
            let stride = axis.stride;
            let block = stride * (axis.gaps.len() + 1);
            let boots = if cost.lead <= tau {
                &axis.boots[..]
            } else {
                &[]
            };
            let off_unit = cost.off_cost(self.horizon - tau);
            if stride == 1 {
                for line in cells.chunks_exact_mut(block) {
                    let mut prev = line[0];
                    for (c, &price) in line[1..].iter_mut().zip(boots) {
                        prev = min_plus(*c, prev, price);
                        *c = prev;
                    }
                }
                for line in cells.chunks_exact_mut(block) {
                    let (rest, last) = line.split_at_mut(block - 1);
                    let mut prev = last[0];
                    for (c, &gap) in rest.iter_mut().zip(&axis.gaps).rev() {
                        prev = min_plus(*c, prev, off_unit * gap);
                        *c = prev;
                    }
                }
                continue;
            }
            for (j, &price) in boots.iter().enumerate() {
                for lines in cells.chunks_exact_mut(block) {
                    let (from, to) = lines[j * stride..(j + 2) * stride].split_at_mut(stride);
                    relax(to, from, price);
                }
            }
            for (j, &gap) in axis.gaps.iter().enumerate().rev() {
                let price = off_unit * gap;
                for lines in cells.chunks_exact_mut(block) {
                    let (to, from) = lines[j * stride..(j + 2) * stride].split_at_mut(stride);
                    relax(to, from, price);
                }
            }
        }
    }

    /// Cross the boundary into `next` in place: sweep the transition,
    /// add `next`'s serving energy to the state cells, and INF every
    /// other cell again. The lattice cost vector through the previous
    /// segment becomes the one through `next`.
    fn cross(&self, cells: &mut [f64], next: Seg) {
        self.sweep(cells, u64::from(next.start));
        let len = f64::from(next.len);
        let serve = &self.serve[next.load as usize * self.k()..][..self.k()];
        let mut end = 0;
        for run in &self.runs {
            cells[end..run.cell].fill(INF);
            let run_cells = &mut cells[run.cell..][..run.len];
            for (v, &w) in run_cells.iter_mut().zip(&serve[run.rank..]) {
                *v += w * len;
            }
            end = run.cell + run.len;
        }
        cells[end..].fill(INF);
    }

    /// Copy the state cells of a lattice cost vector into a K-sized row,
    /// in lattice order (`row[rank_of[s]]` is state `s`).
    fn gather(&self, cells: &[f64], row: &mut [f64]) {
        for run in &self.runs {
            row[run.rank..][..run.len].copy_from_slice(&cells[run.cell..][..run.len]);
        }
    }

    /// The inverse of [`Dp::gather`]: a lattice cost vector holding
    /// `row` in its state cells and INF everywhere else.
    fn scatter(&self, row: &[f64], cells: &mut [f64]) {
        cells.fill(INF);
        for run in &self.runs {
            cells[run.cell..][..run.len].copy_from_slice(&row[run.rank..][..run.len]);
        }
    }

    /// The optimal path as runs, in segment order (see the crate docs).
    fn solve_path(&self) -> Vec<PathRun> {
        let (chained, last) = self.forward();
        chained.path(last)
    }

    /// The forward pass. Each segment's row goes into the window, which is
    /// chained once the segment after it is crossed, from every state
    /// feasible there. Returns the chained windows and the last segment's
    /// run, in the state the final argmin picks and the last window's
    /// chain starts from.
    fn forward(&self) -> (Chained, PathRun) {
        let k = self.k();
        let s_count = self.index.len();
        let rows = window_rows(s_count);
        let mut window = vec![INF; rows * k];
        for (s, &rank) in self.rank_of.iter().enumerate() {
            window[rank] = self.serve_energy(0, s);
        }
        // The cost vector lives in the lattice for the whole pass.
        let mut cells = vec![INF; self.box_size];
        self.scatter(&window[..k], &mut cells);
        // The window chained last, until the next one prunes its roots,
        // and the window being chained.
        let mut arenas = [Arena::default(), Arena::default()];
        let mut chained = Chained::default();
        for i in 1..s_count {
            self.cross(&mut cells, self.index.seg(i));
            if i % rows == 0 {
                let feasible = (0..k).filter(|&s| cells[self.cell_of[s]] < INF);
                self.chain_window(i - rows, &window, feasible, &mut arenas, &mut chained);
            }
            self.gather(&cells, &mut window[i % rows * k..][..k]);
        }
        let (mut best_s, mut best_v) = (usize::MAX, INF);
        for (s, &cell) in self.cell_of.iter().enumerate() {
            if cells[cell] < best_v {
                best_v = cells[cell];
                best_s = s;
            }
        }
        debug_assert!(best_v.is_finite(), "the exact DP cannot dead-end");
        let lo = (s_count - 1) / rows * rows;
        let last_rows = &window[..(s_count - 1 - lo) * k];
        self.chain_window(lo, last_rows, [best_s], &mut arenas, &mut chained);
        chained.keep(&arenas[0], |s| s == best_s);
        (chained, PathRun::new(s_count - 1, best_s))
    }

    /// Chain the window whose cost rows through segments `lo..` are `rows`
    /// into `arenas[1]`, from each of `roots` in the segment just past it.
    /// Then keep the roots of the window before, in `arenas[0]`, that
    /// these chains end in, and swap the arenas.
    ///
    /// At each segment every distinct state the chains hold takes one
    /// [`Dp::step`]. The chains that stay are sorted first and claim their
    /// state, so their runs go on, and a chain that changes into a claimed
    /// state joins that run: from there down, the two walks are one.
    fn chain_window(
        &self,
        lo: usize,
        rows: &[f64],
        roots: impl IntoIterator<Item = usize>,
        arenas: &mut [Arena; 2],
        chained: &mut Chained,
    ) {
        let k = self.k();
        let hi = lo + rows.len() / k;
        let Arena {
            runs,
            below,
            roots: n_roots,
            active,
            moves,
            claim,
        } = &mut arenas[1];
        runs.clear();
        below.clear();
        runs.extend(roots.into_iter().map(|state| PathRun::new(hi, state)));
        below.resize(runs.len(), NONE);
        *n_roots = runs.len();
        active.clear();
        active.extend(0..runs.len());
        claim.resize(k, NONE);
        for i in (lo..hi).rev() {
            let row = &rows[(i - lo) * k..][..k];
            moves.clear();
            for &r in active.iter() {
                moves.push((r, self.step(row, runs[r].state(), i)));
            }
            moves.sort_unstable_by_key(|&(r, to)| runs[r].state() != to);
            active.clear();
            for &(r, to) in moves.iter() {
                if runs[r].state() == to {
                    debug_assert_eq!(claim[to], NONE, "stayers claim first");
                    runs[r] = PathRun::new(i, to);
                    claim[to] = r;
                    active.push(r);
                    continue;
                }
                if claim[to] == NONE {
                    claim[to] = runs.len();
                    active.push(runs.len());
                    runs.push(PathRun::new(i, to));
                    below.push(NONE);
                }
                below[r] = claim[to];
            }
            for &r in active.iter() {
                claim[runs[r].state()] = NONE;
            }
        }
        let [pending, current] = arenas;
        let ends = |s| current.active.iter().any(|&r| current.runs[r].state() == s);
        if pending.roots > 0 {
            chained.keep(pending, ends);
        }
        std::mem::swap(pending, current);
    }

    /// One step of the backtrack's argmin chain: the state the optimal
    /// path holds in segment `i` when it holds `b` in segment `i + 1`.
    /// `row` is the cost row through segment `i`, in lattice order.
    fn step(&self, row: &[f64], b: usize, i: usize) -> usize {
        let tau = self.index.start(i + 1);
        // Seeding the scan with staying put lets it skip every `a` whose
        // cost is `>= best_c` unpriced: profiles forbid negative energies,
        // so transition prices are >= 0 and such an `a` can never win. The
        // seed cannot change the outcome: when staying ties the minimum it
        // is chosen by the tie rule below anyway, and otherwise the scan
        // still ends on the lowest-index minimizer. The scan walks the
        // states in index order through `rank_of`, so that holds although
        // the row is in lattice order.
        let stay = row[self.rank_of[b]];
        let (mut best_a, mut best_c) = (b, stay);
        for (a, &rank) in self.rank_of.iter().enumerate() {
            let v = row[rank];
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
        // Prefer staying put on (float-) ties: fewer records, and the
        // common no-reconfiguration case short-circuits. A stay is chosen
        // whenever `best_a == b`, so a move always changes state.
        if stay <= best_c + 1e-9 * best_c.abs() + 1e-6 {
            b
        } else {
            best_a
        }
    }

    /// Total energy of a path, priced canonically (serve + direct
    /// transition costs) — this, not the forward pass's float
    /// accumulation, is the number the replay must reproduce. The sum
    /// runs in segment order: each segment adds its serving energy, and a
    /// run's first segment adds its transition before that. Staying put
    /// prices `+0.0`, and the running sum is never `-0.0`, so the stays'
    /// additions, left out, would change no bit.
    fn path_energy(&self, path: &[PathRun]) -> f64 {
        let mut e = self.serve_energy(0, path[0].state());
        let mut prev = path[0].state();
        for (r, run) in path.iter().enumerate() {
            let end = path
                .get(r + 1)
                .map_or(self.index.len(), |next| next.first as usize);
            for i in (run.first as usize).max(1)..end {
                if i == run.first as usize {
                    e += self.trans_cost(prev, run.state(), self.index.start(i));
                }
                e += self.serve_energy(i, run.state());
            }
            prev = run.state();
        }
        e
    }

    /// Convert a path into the engine's believed-configuration record
    /// protocol: per change of state, one boot record per distinct
    /// maturity lead issued `lead` seconds before the boundary, and one
    /// shutdown record at the boundary; then a global stable sort by
    /// time with cumulatively rebuilt targets, so records compose in
    /// list order even when leads from different transitions interleave.
    fn schedule(&self, path: &[PathRun]) -> Vec<ReconfigRecord> {
        let n_archs = self.profiles.len();
        let mut events: Vec<(u64, Vec<i64>)> = Vec::new();
        for pair in path.windows(2) {
            let (a, b) = (&self.states[pair[0].state()], &self.states[pair[1].state()]);
            let tau = self.index.start(pair[1].first as usize);
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
        let mut believed: Vec<i64> = self.states[path[0].state()]
            .iter()
            .map(|&c| i64::from(c))
            .collect();
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

/// One relaxation: `min(cur, src + price)`, written so it compiles to a
/// branch-free `minsd`/`minpd`. Costs are never NaN, so this is exactly
/// the compare-and-assign it replaces.
fn min_plus(cur: f64, src: f64, price: f64) -> f64 {
    let cand = src + price;
    if cand < cur {
        cand
    } else {
        cur
    }
}

/// One distance-transform step along a strided lattice axis, for every
/// line at once: `to[t] = min(to[t], from[t] + price)`.
fn relax(to: &mut [f64], from: &[f64], price: f64) {
    for (dst, &src) in to.iter_mut().zip(from) {
        *dst = min_plus(*dst, src, price);
    }
}

/// Compute the offline-optimal reconfiguration schedule for `trace` on
/// `bml`'s candidate infrastructure under `split`: [`solve_indexed`] on a
/// [`SegmentIndex`] built for this one solve.
///
/// Always returns `Some`: the DP cannot dead-end (the combination for the
/// trace maximum is feasible everywhere, and the warm start makes it
/// reachable). The `Option` stays only because the `perfbench` harness
/// unwraps it, and goes when that harness does.
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
    Some(solve_indexed(&SegmentIndex::new(trace), bml, split, opts))
}

/// Compute the offline-optimal reconfiguration schedule for the trace
/// `index` was built from, on `bml`'s candidate infrastructure under
/// `split`. An empty trace yields a zero-energy schedule.
///
/// The optimum is exact *within its state space*: the infrastructure's
/// ideal combinations for the trace's load levels (plus all-off),
/// reconfigured only at constant-load segment boundaries — see the crate
/// docs for why boundary-restricted schedules dominate.
pub fn solve_indexed(
    index: &SegmentIndex<'_>,
    bml: &BmlInfrastructure,
    split: SplitPolicy,
    _opts: &OptOptions,
) -> OptimalSchedule {
    if index.len() == 0 {
        return OptimalSchedule {
            energy_j: 0.0,
            initial: vec![0; bml.n_archs()],
            schedule: Vec::new(),
            n_states: 0,
            n_segments: 0,
            n_boundaries: 0,
            states_pruned: 0,
        };
    }
    let dp = Dp::build(index, bml, split);
    let path = dp.solve_path();
    OptimalSchedule {
        energy_j: dp.path_energy(&path),
        initial: dp.states[path[0].state()].clone(),
        schedule: dp.schedule(&path),
        n_states: dp.k(),
        n_segments: index.len(),
        n_boundaries: index.len() - 1,
        states_pruned: 0,
    }
}

/// [`solve`], then replay the schedule through the simulator
/// ([`bml_sim::replay_schedule`]) and demand the claimed energy back to
/// 1e-9 relative. Returns the schedule and the full replay
/// [`ScenarioResult`] (named `"Offline Optimal"`, genuine QoS and daily
/// energies). Always `Some`, for the reason [`solve`] gives. The segment
/// index is dropped before the replay starts.
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
    Some(verify(trace, bml, split, sched))
}

/// [`solve_indexed`], then the replay check of [`solve_verified`] on the
/// trace `index` was built from.
///
/// # Panics
///
/// As [`solve_verified`].
pub fn solve_verified_indexed(
    index: &SegmentIndex<'_>,
    bml: &BmlInfrastructure,
    split: SplitPolicy,
    opts: &OptOptions,
) -> (OptimalSchedule, ScenarioResult) {
    let sched = solve_indexed(index, bml, split, opts);
    verify(index.trace, bml, split, sched)
}

/// Replay `sched` on `trace` and demand its claimed energy back (see
/// [`solve_verified`]).
fn verify(
    trace: &LoadTrace,
    bml: &BmlInfrastructure,
    split: SplitPolicy,
    sched: OptimalSchedule,
) -> (OptimalSchedule, ScenarioResult) {
    let replay = replay_schedule(trace, bml, &sched.initial, &sched.schedule, split);
    let (a, b) = (sched.energy_j, replay.total_energy_j);
    assert!(
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) + 1e-9,
        "offline-optimal replay diverged: DP claims {a} J, simulator metered {b} J \
         ({} records over {} segments)",
        sched.schedule.len(),
        sched.n_segments,
    );
    (sched, replay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bml_core::catalog;
    use bml_core::combination::config_power;
    use proptest::prelude::*;

    fn bml() -> BmlInfrastructure {
        BmlInfrastructure::build(&catalog::table1()).unwrap()
    }

    fn greedy() -> SplitPolicy {
        SplitPolicy::EfficiencyGreedy
    }

    /// The per-element transition, the bit-exact reference for
    /// [`Dp::sweep`]: scatter a K-vector (state order) into an INF
    /// lattice, make one pass over the whole box per axis and direction,
    /// locating every cell on its line by division, and gather the
    /// states back.
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
    fn solver_stats_count_segments_and_boundaries() {
        let bml = bml();
        let mut rates = vec![100.0; 60];
        rates.extend(vec![900.0; 60]);
        rates.extend(vec![5.0; 60]);
        let trace = LoadTrace::new(0, rates);
        let exact = solve(&trace, &bml, greedy(), &OptOptions::default()).unwrap();
        assert_eq!(exact.n_segments, 3);
        assert_eq!(exact.n_boundaries, 2);
        assert_eq!(exact.states_pruned, 0, "the exact DP prunes nothing");
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

    /// A trace of exactly `n` constant-load runs that reconfigures often.
    fn steps(n: usize) -> LoadTrace {
        const LEVELS: [f64; 7] = [40.0, 1400.0, 9.0, 529.0, 2600.0, 0.0, 120.0];
        const LENS: [usize; 5] = [300, 20, 700, 190, 45];
        let mut rates = Vec::new();
        for i in 0..n {
            rates.extend(std::iter::repeat_n(
                LEVELS[i % LEVELS.len()],
                LENS[i % LENS.len()],
            ));
        }
        LoadTrace::new(0, rates)
    }

    /// Fig. 5's trace: 7 worldcup days at the default seed.
    fn fig5_week() -> LoadTrace {
        bml_trace::worldcup::generate(&bml_trace::worldcup::WorldCupParams {
            seed: 1998,
            n_days: 7,
            ..Default::default()
        })
    }

    /// The smoke grid's three catalogs.
    fn smoke_catalogs() -> [BmlInfrastructure; 3] {
        let build = |p: &[ArchProfile]| BmlInfrastructure::build(p).unwrap();
        [
            bml(),
            build(&[catalog::paravance(), catalog::chromebook()]),
            build(&[catalog::paravance(), catalog::raspberry()]),
        ]
    }

    /// The oracle for [`Dp::solve_path`]: every segment's cost row in one
    /// table, then a single chain from the final argmin, last segment first,
    /// that extends its run on a stay and starts a new one on a change.
    fn full_table_chain(dp: &Dp<'_>) -> Vec<PathRun> {
        let (k, n) = (dp.k(), dp.index.len());
        let mut table = vec![INF; n * k];
        for (s, &rank) in dp.rank_of.iter().enumerate() {
            table[rank] = dp.serve_energy(0, s);
        }
        let mut cells = vec![INF; dp.box_size];
        dp.scatter(&table[..k], &mut cells);
        for i in 1..n {
            dp.cross(&mut cells, dp.index.seg(i));
            dp.gather(&cells, &mut table[i * k..][..k]);
        }
        let last = |s: &usize| table[(n - 1) * k + dp.rank_of[*s]];
        let best = (0..k).min_by(|a, b| last(a).total_cmp(&last(b))).unwrap();
        let mut path = vec![PathRun::new(n - 1, best)];
        for i in (0..n - 1).rev() {
            let run = path.last_mut().unwrap();
            let state = dp.step(&table[i * k..][..k], run.state(), i);
            if state == run.state() {
                *run = PathRun::new(i, state);
            } else {
                path.push(PathRun::new(i, state));
            }
        }
        path.reverse();
        path
    }

    /// Traces on the backtrack's window edges: 1 segment, 2 (one partial
    /// window), 3 (an empty last window after a full one), rows^2 and
    /// rows^2 + 1 (rows 4 -> 5 and 7 -> 8), and last windows of one to six
    /// rows; then a flash crowd and a worldcup-tournament day.
    fn backtrack_traces() -> Vec<LoadTrace> {
        let mut traces: Vec<LoadTrace> = [1, 2, 3, 5, 16, 17, 49, 50].map(steps).into();
        traces.push(bml_trace::synthetic::flash_crowd(
            100.0, 5000.0, 1000, 60, 300.0, 5000,
        ));
        traces.push(bml_trace::registry::generate("worldcup-tournament", 1, 1998).unwrap());
        traces
    }

    #[test]
    fn one_pass_backtrack_matches_a_full_table_chain() {
        let mut changes = 0;
        for trace in &backtrack_traces() {
            let index = SegmentIndex::new(trace);
            for bml in &smoke_catalogs() {
                for split in [greedy(), SplitPolicy::ProportionalToCapacity] {
                    let dp = Dp::build(&index, bml, split);
                    let path = dp.solve_path();
                    assert_eq!(
                        path,
                        full_table_chain(&dp),
                        "{} segments, {} states, {split:?}",
                        index.len(),
                        dp.k()
                    );
                    changes += path.len() - 1;
                }
            }
        }
        assert!(changes > 1000, "the paths should reconfigure: {changes}");
    }

    #[test]
    fn kept_roots_and_runs_stay_near_the_path() {
        let tournament = bml_trace::registry::generate("worldcup-tournament", 2, 1998).unwrap();
        for (name, trace) in [("fig5", fig5_week()), ("tournament", tournament)] {
            let index = SegmentIndex::new(&trace);
            let (chained, last) = Dp::build(&index, &bml(), greedy()).forward();
            let path = chained.path(last);
            let (windows, roots) = (chained.windows.len(), chained.roots.len());
            let (runs, path_runs) = (chained.runs.len(), path.len());
            // The last window is empty when the ones before it fill up.
            assert_eq!(windows, (index.len() - 1) / window_rows(index.len()) + 1);
            assert!(
                10 * roots <= 11 * windows,
                "{name}: {roots} roots kept over {windows} windows"
            );
            assert!(
                10 * runs <= 11 * path_runs,
                "{name}: {runs} runs stored for a path of {path_runs}"
            );
        }
    }

    #[test]
    fn segment_index_is_exactly_sized() {
        assert_eq!(std::mem::size_of::<Entry>(), 8);
        let traces = [
            LoadTrace::new(0, vec![]),
            steps(1),
            steps(2),
            steps(17),
            steps(50),
            fig5_week(),
        ];
        for trace in &traces {
            let index = SegmentIndex::new(trace);
            let runs: Vec<_> = trace.constant_runs().collect();
            let n = runs.len();
            assert_eq!((index.len(), index.entries.len()), (n, n + 1));
            assert_eq!(
                index.entries.capacity(),
                index.entries.len(),
                "{n} segments"
            );
            let sentinel = Entry {
                start: trace.len() as u32,
                load: 0,
            };
            assert_eq!(index.entries.last(), Some(&sentinel));
            for (i, run) in runs.iter().enumerate() {
                let seg = index.seg(i);
                assert_eq!(
                    (u64::from(seg.start), u64::from(seg.len)),
                    (run.start, run.len())
                );
                assert_eq!(
                    index.loads[seg.load as usize].to_bits(),
                    run.value.to_bits()
                );
            }
        }
        assert_eq!(SegmentIndex::new(&traces[5]).len(), 588_391);
    }

    /// A path expanded to one state per segment.
    fn per_segment(path: &[PathRun], n_segments: usize) -> Vec<usize> {
        let mut states = Vec::with_capacity(n_segments);
        for (r, run) in path.iter().enumerate() {
            let end = path
                .get(r + 1)
                .map_or(n_segments, |next| next.first as usize);
            states.extend(std::iter::repeat_n(run.state(), end - run.first as usize));
        }
        states
    }

    /// The reference for [`Dp::path_energy`]: every boundary priced, in
    /// segment order, stays included.
    fn per_segment_energy(dp: &Dp<'_>, path: &[usize]) -> f64 {
        let mut e = dp.serve_energy(0, path[0]);
        for i in 1..path.len() {
            e += dp.trans_cost(path[i - 1], path[i], dp.index.start(i));
            e += dp.serve_energy(i, path[i]);
        }
        e
    }

    /// The reference for [`Dp::schedule`]: every pair of neighbouring
    /// segments compared, and the records built from each change.
    fn per_segment_schedule(dp: &Dp<'_>, path: &[usize]) -> Vec<ReconfigRecord> {
        let n_archs = dp.profiles.len();
        let mut events: Vec<(u64, Vec<i64>)> = Vec::new();
        for i in 1..path.len() {
            let (a, b) = (&dp.states[path[i - 1]], &dp.states[path[i]]);
            if a == b {
                continue;
            }
            let tau = dp.index.start(i);
            let mut boots: BTreeMap<u64, Vec<i64>> = BTreeMap::new();
            let mut offs = vec![0i64; n_archs];
            for arch in 0..n_archs {
                let d = i64::from(b[arch]) - i64::from(a[arch]);
                if d > 0 {
                    boots
                        .entry(dp.costs[arch].lead)
                        .or_insert_with(|| vec![0; n_archs])[arch] += d;
                } else if d < 0 {
                    offs[arch] = d;
                }
            }
            for (lead, delta) in boots {
                events.push((tau - lead, delta));
            }
            if offs.iter().any(|&d| d < 0) {
                events.push((tau, offs));
            }
        }
        events.sort_by_key(|e| e.0);
        let mut believed: Vec<i64> = dp.states[path[0]].iter().map(|&c| i64::from(c)).collect();
        events
            .into_iter()
            .map(|(at, delta)| {
                for (b, d) in believed.iter_mut().zip(delta) {
                    *b += d;
                }
                ReconfigRecord {
                    at,
                    target: believed.iter().map(|&c| c as u32).collect(),
                }
            })
            .collect()
    }

    #[test]
    fn path_runs_price_and_schedule_like_a_per_segment_path() {
        let bml = bml();
        let mut changes = 0;
        for trace in &backtrack_traces() {
            let index = SegmentIndex::new(trace);
            for split in [greedy(), SplitPolicy::ProportionalToCapacity] {
                let dp = Dp::build(&index, &bml, split);
                let path = dp.solve_path();
                let n = index.len();
                // Change points: the runs start at segment 0, their starts
                // strictly increase, and neighbours differ in state.
                assert_eq!(path[0].first, 0, "{n} segments");
                assert!((path.last().unwrap().first as usize) < n);
                for pair in path.windows(2) {
                    assert!(pair[0].first < pair[1].first, "{n} segments: {pair:?}");
                    assert_ne!(pair[0].state, pair[1].state, "{n} segments: {pair:?}");
                }
                changes += path.len() - 1;
                let states = per_segment(&path, n);
                assert_eq!(states.len(), n);
                assert_eq!(
                    dp.path_energy(&path).to_bits(),
                    per_segment_energy(&dp, &states).to_bits(),
                    "{n} segments"
                );
                assert_eq!(
                    dp.schedule(&path),
                    per_segment_schedule(&dp, &states),
                    "{n} segments"
                );
            }
        }
        assert!(
            changes > 100,
            "the paths should reconfigure: {changes} changes"
        );
    }

    #[test]
    fn constant_trace_holds_the_ideal_combination() {
        let bml = bml();
        let trace = LoadTrace::new(0, vec![500.0; 600]);
        let s = solve(&trace, &bml, greedy(), &OptOptions::default()).unwrap();
        assert!(s.schedule.is_empty(), "no reason to reconfigure");
        let counts = bml.ideal_combination(500.0).counts(bml.n_archs());
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
        let counts = bml.ideal_combination(42.0).counts(bml.n_archs());
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
        let high = bml.ideal_combination(5000.0).counts(bml.n_archs());
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
        let counts = bml.ideal_combination(500.0).counts(bml.n_archs());
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
        let [table1, big_medium, big_little] = smoke_catalogs();
        let index = SegmentIndex::new(&trace);
        // A state on a new last position of the contiguous axis puts a
        // non-state cell between states the plain lattice holds side by
        // side, so the runs split.
        let plain = Dp::build(&index, &table1, greedy());
        let contiguous = plain.lattice.iter().position(|a| a.stride == 1).unwrap();
        let mut extra = vec![0; plain.profiles.len()];
        extra[contiguous] = plain.states.iter().map(|s| s[contiguous]).max().unwrap() + 1;
        let split_run = Dp::over_states(
            &index,
            &table1,
            greedy(),
            plain.states.iter().cloned().chain([extra]).collect(),
        );
        assert!(
            split_run.runs.len() > plain.runs.len(),
            "the extra state splits a run"
        );
        let illustrative = BmlInfrastructure::build(&catalog::illustrative()).unwrap();
        let cases = [
            ("table1", plain),
            ("big-medium", Dp::build(&index, &big_medium, greedy())),
            ("big-little", Dp::build(&index, &big_little, greedy())),
            ("illustrative", Dp::build(&index, &illustrative, greedy())),
            ("table1+split-run", split_run),
        ];
        for (name, dp) in cases {
            let k = dp.k();
            assert!(k >= 5, "{name}: want a non-trivial state space, got {k}");
            assert!(
                dp.runs.len() > 1,
                "{name}: want states that are not adjacent"
            );
            // Deterministic pseudo-random dp vector, in state order.
            let dp_in: Vec<f64> = (0..k)
                .map(|s| {
                    if s % 7 == 3 {
                        INF
                    } else {
                        1000.0 + 37.0 * ((s * s + 11) % 97) as f64
                    }
                })
                .collect();
            let mut row = vec![INF; k];
            for (s, &v) in dp_in.iter().enumerate() {
                row[dp.rank_of[s]] = v;
            }
            let state_cells: BTreeSet<usize> = dp.cell_of.iter().copied().collect();
            // Boundaries just before, at and after every boot lead, and
            // throughout every shutdown ramp's truncation at the horizon.
            let mut taus = vec![1, dp.horizon / 2, dp.horizon - 1];
            for c in &dp.costs {
                taus.extend([c.lead - 1, c.lead, c.lead + 1]);
                taus.extend((1..=c.off_ceil + 1).map(|r| dp.horizon - r));
            }
            taus.retain(|tau| (1..dp.horizon).contains(tau));
            let mut cells = vec![INF; dp.box_size];
            let mut buf = vec![INF; dp.box_size];
            let mut want = vec![INF; k];
            for &tau in &taus {
                reference_transition(&dp, &dp_in, tau, &mut buf, &mut want);
                // Serve the next segment at an idle, a mid and a peak load
                // (some states cannot cover the last).
                for i in [0, 20, 41] {
                    let next = Seg {
                        start: tau as u32,
                        ..index.seg(i)
                    };
                    let rate = trace.rates[index.start(i) as usize];
                    let len = f64::from(next.len);
                    dp.scatter(&row, &mut cells);
                    dp.cross(&mut cells, next);
                    for (b, (&cell, &reference)) in dp.cell_of.iter().zip(&want).enumerate() {
                        let (w, served) = config_power(dp.profiles, &dp.states[b], rate, greedy());
                        let serve = if served + EPS >= rate { w * len } else { INF };
                        let got = cells[cell];
                        assert_eq!(
                            got.to_bits(),
                            (reference + serve).to_bits(),
                            "{name} tau={tau} i={i} b={b}: lattice {got} vs reference {}",
                            reference + serve
                        );
                        let naive = (0..k)
                            .map(|a| dp_in[a] + dp.trans_cost(a, b, tau))
                            .fold(INF, f64::min)
                            + serve;
                        assert!(
                            (got - naive).abs() <= 1e-9 * naive.abs().max(1.0) || (got == naive),
                            "{name} tau={tau} i={i} b={b}: lattice {got} vs naive {naive}"
                        );
                    }
                    for (c, &v) in cells.iter().enumerate() {
                        assert!(
                            state_cells.contains(&c) || v == INF,
                            "{name} tau={tau} i={i}: off-state cell {c} holds {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn state_runs_on_the_worldcup_lattices() {
        // The lattices the crate docs describe: fig5's 7 worldcup days
        // and the smoke grid's 2-day tournament, both on table1.
        let fig5 = fig5_week();
        let tournament = bml_trace::registry::generate("worldcup-tournament", 2, 1998).unwrap();
        let bml = bml();
        for (name, trace, box_size, k, runs) in [
            ("fig5", fig5, 68, 34, 2),
            ("tournament", tournament, 170, 120, 11),
        ] {
            let index = SegmentIndex::new(&trace);
            let dp = Dp::build(&index, &bml, greedy());
            assert_eq!(
                (dp.box_size, dp.k(), dp.runs.len()),
                (box_size, k, runs),
                "{name}"
            );
            let contiguous = dp.lattice.iter().find(|a| a.stride == 1).unwrap();
            let longest = dp.lattice.iter().map(|a| a.gaps.len()).max().unwrap();
            assert_eq!(
                contiguous.gaps.len(),
                longest,
                "{name}: longest axis contiguous"
            );
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Exact optima survive the simulator replay cross-check, serve
        /// in full, and never cost more than holding the trace maximum's
        /// combination throughout (a feasible schedule the DP considers),
        /// over random step traces.
        #[test]
        fn exact_optima_replay_clean(
            levels in proptest::collection::vec(0usize..5, 1..8),
            durs in proptest::collection::vec(1u64..40, 1..8),
        ) {
            let palette = [0.0, 9.0, 40.0, 529.0, 1400.0];
            let mut rates = Vec::new();
            for (l, d) in levels.iter().zip(&durs) {
                rates.extend(vec![palette[*l]; *d as usize]);
            }
            let trace = LoadTrace::new(0, rates);
            let bml = bml();
            let (exact, replay) =
                solve_verified(&trace, &bml, greedy(), &OptOptions::default()).unwrap();
            prop_assert_eq!(replay.qos.violation_seconds, 0);
            let peak = trace.rates.iter().copied().fold(0.0, f64::max);
            let hold = bml.ideal_combination(peak).counts(bml.n_archs());
            let hold_j: f64 =
                trace.rates.iter().map(|&r| bml.config_power(&hold, r, greedy()).0).sum();
            prop_assert!(
                exact.energy_j <= hold_j + 1e-9 * hold_j.abs() + 1e-6,
                "exact {} above holding the peak fleet {}", exact.energy_j, hold_j
            );
        }
    }
}
