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
//! The backtrack needs every segment's cost vector, and an 87-day worldcup
//! trace has millions of segments. The forward pass therefore keeps one
//! checkpoint every `ceil(sqrt(S))` segments, `O(K * sqrt(S))` memory for
//! `K` states and `S` segments, and the backtrack re-runs each window of
//! `ceil(sqrt(S))` rows from its checkpoint, for the price of a second
//! forward pass. The windows go through a fixed pool of `T + 1` window
//! buffers, allocated before the backtrack starts (one buffer when
//! `T = 1`; `T` is below), so the buffers take `O(T * K * sqrt(S))`.
//! Checkpoints and window rows hold only the `K` state values, copied run
//! by run out of a lattice vector; a window restarts by copying its
//! checkpoint's runs back into its buffer's own lattice of `INF`.
//!
//! ## Concurrency
//!
//! The backtrack runs two steps per window. The first recomputes window
//! `c`'s rows from checkpoint `c` and depends on nothing else. The second
//! runs the argmin chain over those rows, last segment first; it needs
//! the state the chain chose just after the window, so windows chain
//! strictly in descending order. With `T = rayon::current_num_threads()`
//! above 1, `T` scoped workers recompute windows round-robin in
//! descending order while the calling thread chains them; at `T = 1` the
//! caller runs both steps itself and spawns nothing. A top-level solve
//! gets every core; a solve inside a parallel map gets its worker's share
//! of the map's cap, so the grid's concurrent solves under `--threads N`
//! never recompute on more than `N` threads (one each, inline, at `N = 2`
//! and six solves).
//!
//! No bit moves with `T`. A row is the same float computation from the
//! same checkpoint whichever thread runs it, and the chain reads the rows
//! in the same order on one thread. The forward pass and the chain stay
//! sequential, and they now bound the solve.
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
use std::sync::mpsc;

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
    segs: Vec<Seg>,
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
        let mut load_idx: HashMap<u64, u32> = HashMap::new();
        let mut loads: Vec<f64> = Vec::new();
        let mut segs: Vec<Seg> = Vec::new();
        for seg in trace.constant_runs() {
            let load = *load_idx.entry(seg.value.to_bits()).or_insert_with(|| {
                loads.push(seg.value);
                loads.len() as u32 - 1
            });
            segs.push(Seg {
                start: seg.start as u32,
                len: seg.len() as u32,
                load,
            });
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
            horizon: trace.len(),
            segs,
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
        let seg = self.segs[i];
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

    /// Forward pass + windowed backtrack, with up to `workers` threads
    /// recomputing the backtrack's windows (see [`pipeline`]). Returns the
    /// optimal state per segment.
    fn solve_path(&self, workers: usize) -> Vec<usize> {
        let k = self.k();
        let s_count = self.segs.len();
        let rows = window_rows(s_count);
        // The cost vector lives in the lattice for the whole pass.
        let mut cells = vec![INF; self.box_size];
        let seg = self.segs[0];
        let first: Vec<f64> = self.serve[seg.load as usize * k..][..k]
            .iter()
            .map(|&w| w * f64::from(seg.len))
            .collect();
        self.scatter(&first, &mut cells);
        // Forward pass, checkpointing the cost vector at every window start.
        let mut checkpoints = vec![INF; s_count.div_ceil(rows) * k];
        for i in 0..s_count - 1 {
            if i % rows == 0 {
                self.gather(&cells, &mut checkpoints[i / rows * k..][..k]);
            }
            self.cross(&mut cells, self.segs[i + 1]);
        }
        let (mut best_s, mut best_v) = (usize::MAX, INF);
        for (s, &cell) in self.cell_of.iter().enumerate() {
            if cells[cell] < best_v {
                best_v = cells[cell];
                best_s = s;
            }
        }
        debug_assert!(best_v.is_finite(), "the exact DP cannot dead-end");

        let mut path = vec![0usize; s_count];
        path[s_count - 1] = best_s;
        pipeline(
            (s_count - 1).div_ceil(rows),
            workers,
            || Window::new(self.box_size, rows * k),
            |c, window| self.recompute(c, rows, &checkpoints, window),
            |c, window| self.chain(c, rows, &window.rows, &mut path),
        );
        path
    }

    /// The segments backtrack window `c` covers: from its checkpoint to
    /// the next window's, or to the last segment, whose state the forward
    /// pass's argmin already fixed.
    fn window_span(&self, c: usize, rows: usize) -> std::ops::Range<usize> {
        let w0 = c * rows;
        w0..(w0 + rows).min(self.segs.len() - 1)
    }

    /// The backtrack's first step for window `c`: row `r` of
    /// `window.rows` becomes the cost vector through segment
    /// `c * rows + r`, re-run from checkpoint `c` alone, in lattice order.
    fn recompute(&self, c: usize, rows: usize, checkpoints: &[f64], window: &mut Window) {
        let k = self.k();
        let span = self.window_span(c, rows);
        let checkpoint = &checkpoints[c * k..][..k];
        let (cells, window_rows) = window.split();
        window_rows[..k].copy_from_slice(checkpoint);
        self.scatter(checkpoint, cells);
        for r in 1..span.len() {
            self.cross(cells, self.segs[span.start + r]);
            self.gather(cells, &mut window_rows[r * k..][..k]);
        }
    }

    /// The backtrack's second step for window `c`: the argmin chain over
    /// its recomputed `rows`, last segment first, each choice reading the
    /// state `path` already holds for the segment after it.
    fn chain(&self, c: usize, rows: usize, window: &[f64], path: &mut [usize]) {
        let k = self.k();
        let span = self.window_span(c, rows);
        for i in span.clone().rev() {
            let dp_i = &window[(i - span.start) * k..][..k];
            let b = path[i + 1];
            let tau = u64::from(self.segs[i + 1].start);
            // Seeding the scan with staying put lets it skip every `a`
            // whose cost is `>= best_c` unpriced: profiles forbid negative
            // energies, so transition prices are >= 0 and such an `a` can
            // never win. The seed cannot change the outcome: when staying
            // ties the minimum it is chosen by the tie rule below anyway,
            // and otherwise the scan still ends on the lowest-index
            // minimizer. The scan walks the states in index order through
            // `rank_of`, so that holds although the row is in lattice
            // order.
            let stay = dp_i[self.rank_of[b]];
            let (mut best_a, mut best_c) = (b, stay);
            for (a, &rank) in self.rank_of.iter().enumerate() {
                let v = dp_i[rank];
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
            // common no-reconfiguration case short-circuits.
            path[i] = if stay <= best_c + 1e-9 * best_c.abs() + 1e-6 {
                b
            } else {
                best_a
            };
        }
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

/// `f64`s of padding on each side of a [`Window`]'s lattice vector: 128
/// bytes, a cache line pair. Every boundary rewrites the whole vector, so
/// a line it shared with another worker's buffer would bounce between
/// cores on every segment; that cost the concurrent recompute a third of
/// its speed on a 2-core host.
const PAD: usize = 16;

/// One backtrack window buffer: the lattice vector its rows are re-run
/// in (padded by [`PAD`] on each side) and the rows themselves
/// (`ceil(sqrt(S))` rows of `K` state values).
struct Window {
    padded_cells: Vec<f64>,
    rows: Vec<f64>,
}

impl Window {
    fn new(box_size: usize, row_values: usize) -> Self {
        Window {
            padded_cells: vec![INF; box_size + 2 * PAD],
            rows: vec![INF; row_values],
        }
    }

    /// The lattice vector and the rows, both writable.
    fn split(&mut self) -> (&mut [f64], &mut [f64]) {
        let n = self.padded_cells.len() - 2 * PAD;
        (&mut self.padded_cells[PAD..][..n], &mut self.rows)
    }
}

/// Drive the backtrack's two steps over windows `n_windows - 1` down to
/// 0: `recompute(c, buf)` fills a buffer from window `c`'s checkpoint
/// alone, then `chain(c, buf)` reads it. `chain` runs on the calling
/// thread and sees every window once, in strictly descending order,
/// whatever `workers` is.
///
/// `workers` is clamped to the window count. At 1 the caller runs both
/// steps itself, one window at a time into one buffer, and spawns
/// nothing. Otherwise `workers` scoped threads recompute — worker `j`
/// takes the `j`-th, `(j + workers)`-th, ... window in descending order —
/// into a fixed pool of `workers + 1` buffers made before any worker
/// starts: one per worker and the caller's spare. Before the caller waits
/// for a window it queues its spare with that window's worker, for the
/// worker's next window, so a worker never waits for the caller to wake
/// up. The buffer for the window the caller waits for was queued one
/// round earlier, so the hand-off cannot deadlock.
///
/// A panicking worker drops its channel; the caller then resumes that
/// worker's panic instead of waiting for a window that never comes.
fn pipeline<B: Send>(
    n_windows: usize,
    workers: usize,
    mut new_buffer: impl FnMut() -> B,
    recompute: impl Fn(usize, &mut B) + Sync,
    mut chain: impl FnMut(usize, &B),
) {
    let workers = workers.min(n_windows);
    if workers <= 1 {
        let mut buf = new_buffer();
        for c in (0..n_windows).rev() {
            recompute(c, &mut buf);
            chain(c, &buf);
        }
        return;
    }
    let buffers: Vec<B> = (0..workers).map(|_| new_buffer()).collect();
    let mut spare = new_buffer();
    std::thread::scope(|scope| {
        let recompute = &recompute;
        let mut lanes: Vec<_> = buffers
            .into_iter()
            .enumerate()
            .map(|(j, buf)| {
                // A lane holds at most one filled buffer and two free ones
                // (this window's and the next's), so the sends never block,
                // and the channels allocate only here.
                let (filled_tx, filled_rx) = mpsc::sync_channel::<B>(1);
                let (free_tx, free_rx) = mpsc::sync_channel::<B>(2);
                free_tx.send(buf).expect("the receiver is in scope");
                let worker = scope.spawn(move || {
                    for c in (0..n_windows).rev().skip(j).step_by(workers) {
                        // A closed channel means the caller is unwinding.
                        let Ok(mut buf) = free_rx.recv() else { return };
                        recompute(c, &mut buf);
                        if filled_tx.send(buf).is_err() {
                            return;
                        }
                    }
                });
                (filled_rx, free_tx, Some(worker))
            })
            .collect();
        for (m, c) in (0..n_windows).rev().enumerate() {
            let (filled, free, worker) = &mut lanes[m % workers];
            if m + workers < n_windows {
                // The worker may have died; its panic surfaces below.
                let _ = free.send(spare);
            }
            let Ok(buf) = filled.recv() else {
                let worker = worker.take().expect("a lane fails once");
                let payload = worker
                    .join()
                    .expect_err("only a panic ends a worker before its last window");
                std::panic::resume_unwind(payload);
            };
            chain(c, &buf);
            spare = buf;
        }
        // Join the worker threads, not just their closures, as `rayon`'s parallel map does.
        for w in lanes.into_iter().filter_map(|(_, _, worker)| worker) {
            w.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
        }
    });
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
/// `bml`'s candidate infrastructure under `split`.
///
/// Always returns `Some`: the DP cannot dead-end (the combination for the
/// trace maximum is feasible everywhere, and the warm start makes it
/// reachable). The `Option` stays only because the `perfbench` harness
/// unwraps it, and goes when that harness does. An empty trace yields a
/// zero-energy schedule.
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
    let path = dp.solve_path(rayon::current_num_threads());
    Some(OptimalSchedule {
        energy_j: dp.path_energy(&path),
        initial: dp.states[path[0]].clone(),
        schedule: dp.schedule(&path),
        n_states: dp.k(),
        n_segments: dp.segs.len(),
        n_boundaries: dp.segs.len() - 1,
        states_pruned: 0,
    })
}

/// [`solve`], then replay the schedule through the simulator
/// ([`bml_sim::replay_schedule`]) and demand the claimed energy back to
/// 1e-9 relative. Returns the schedule and the full replay
/// [`ScenarioResult`] (named `"Offline Optimal"`, genuine QoS and daily
/// energies). Always `Some`, for the reason [`solve`] gives.
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
        extra_states: vec![knapsack],
    };
    let sched = solve(&trace, bml, split, &opts).expect("the exact DP cannot dead-end");
    (sched.energy_j, sched.initial)
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

    #[test]
    fn pipelined_backtrack_matches_inline() {
        // 1 and 2 segments; rows^2 and rows^2 + 1 segments (rows 4 -> 5
        // and 7 -> 8); and fewer windows than workers (2 segments make 1
        // window, 5 make 2, 16 and 17 make 4).
        let bml = bml();
        for n in [1, 2, 5, 16, 17, 49, 50] {
            let dp = Dp::build(&steps(n), &bml, greedy(), &OptOptions::default());
            assert_eq!(dp.segs.len(), n);
            let inline = dp.solve_path(1);
            for workers in [2, 3, 8] {
                assert_eq!(
                    dp.solve_path(workers),
                    inline,
                    "{n} segments, {workers} workers"
                );
            }
        }
    }

    #[test]
    fn pipeline_chains_every_window_once_in_descending_order() {
        let caller = std::thread::current().id();
        for (n_windows, workers) in [(0, 4), (1, 4), (2, 8), (7, 1), (7, 2), (7, 3), (40, 3)] {
            let mut made = 0;
            let mut seen = Vec::new();
            pipeline(
                n_windows,
                workers,
                || {
                    made += 1;
                    None
                },
                |c, buf| *buf = Some((c, std::thread::current().id())),
                |c, buf| seen.push((c, *buf)),
            );
            let active = workers.min(n_windows);
            for (i, (c, buf)) in seen.iter().enumerate() {
                let (filled_for, on) = buf.expect("recomputed before chained");
                assert_eq!((*c, filled_for), (n_windows - 1 - i, n_windows - 1 - i));
                // One active worker means the caller recomputes inline.
                assert_eq!(
                    on == caller,
                    active <= 1,
                    "{n_windows} windows, {workers} workers"
                );
            }
            assert_eq!(seen.len(), n_windows);
            let buffers = if active <= 1 { 1 } else { active + 1 };
            assert_eq!(made, buffers, "{n_windows} windows, {workers} workers");
        }
    }

    #[test]
    fn pipeline_resumes_a_worker_panic() {
        for workers in [1, 2, 3] {
            let caught = std::panic::catch_unwind(|| {
                pipeline(
                    6,
                    workers,
                    || (),
                    |c, ()| assert!(c != 3, "window 3 failed"),
                    |_, ()| {},
                );
            });
            let payload = caught.expect_err("the panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"window 3 failed"),
                "{workers} workers"
            );
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
        let build = |profiles: &[ArchProfile]| BmlInfrastructure::build(profiles).unwrap();
        let table1 = build(&catalog::table1());
        // An extra state on a new last position of the contiguous axis
        // puts a non-state cell between states the plain lattice holds
        // side by side, so the runs split.
        let (plain_runs, split_run) = {
            let plain = Dp::build(&trace, &table1, greedy(), &OptOptions::default());
            let contiguous = plain.lattice.iter().position(|a| a.stride == 1).unwrap();
            let mut extra = vec![0; plain.profiles.len()];
            extra[contiguous] = plain.states.iter().map(|s| s[contiguous]).max().unwrap() + 1;
            (plain.runs.len(), extra)
        };
        let split_opts = OptOptions {
            extra_states: vec![split_run],
        };
        let cases = [
            ("table1", table1.clone(), OptOptions::default()),
            (
                "big-medium",
                build(&[catalog::paravance(), catalog::chromebook()]),
                OptOptions::default(),
            ),
            (
                "big-little",
                build(&[catalog::paravance(), catalog::raspberry()]),
                OptOptions::default(),
            ),
            (
                "illustrative",
                build(&catalog::illustrative()),
                OptOptions::default(),
            ),
            ("table1+split-run", table1, split_opts),
        ];
        for (name, bml, opts) in cases {
            let dp = Dp::build(&trace, &bml, greedy(), &opts);
            let k = dp.k();
            assert!(k >= 5, "{name}: want a non-trivial state space, got {k}");
            assert!(
                dp.runs.len() > 1,
                "{name}: want states that are not adjacent"
            );
            if name == "table1+split-run" {
                assert!(dp.runs.len() > plain_runs, "the extra state splits a run");
            }
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
                        ..dp.segs[i]
                    };
                    let rate = trace.rates[dp.segs[i].start as usize];
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
        let fig5 = bml_trace::worldcup::generate(&bml_trace::worldcup::WorldCupParams {
            seed: 1998,
            n_days: 7,
            ..Default::default()
        });
        let tournament = bml_trace::registry::generate("worldcup-tournament", 2, 1998).unwrap();
        let bml = bml();
        for (name, trace, box_size, k, runs) in [
            ("fig5", fig5, 68, 34, 2),
            ("tournament", tournament, 170, 120, 11),
        ] {
            let dp = Dp::build(&trace, &bml, greedy(), &OptOptions::default());
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
            let hold = bml.combination_table().counts_for(peak);
            let hold_j: f64 =
                trace.rates.iter().map(|&r| bml.config_power(&hold, r, greedy()).0).sum();
            prop_assert!(
                exact.energy_j <= hold_j + 1e-9 * hold_j.abs() + 1e-6,
                "exact {} above holding the peak fleet {}", exact.energy_j, hold_j
            );
        }
    }
}
