//! Grid aggregation: per-dimension bests and the energy-vs-QoS Pareto
//! frontier.
//!
//! Both aggregations are pure functions of the cell summaries and fully
//! deterministic (ties broken by cell index), so they can be embedded in
//! the byte-stable artifact.

use bml_sim::CellSummary;

use crate::executor::GridOutcome;
use crate::spec::DIMENSIONS;

/// The best cell (lowest total energy, QoS shortfall as tie-break) among
/// all cells sharing one value of one dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct DimensionBest {
    /// Dimension name (one of [`DIMENSIONS`]).
    pub dimension: String,
    /// The dimension value this entry covers.
    pub value: String,
    /// Flat index of the winning cell.
    pub cell: usize,
    /// The winning cell's total energy (J).
    pub total_energy_j: f64,
    /// The winning cell's QoS shortfall fraction.
    pub qos_shortfall: f64,
}

/// Ordering key: energy, then shortfall, then index — a total order even
/// with equal floats, so winners are unique and deterministic.
fn better(a: &CellSummary, ai: usize, b: &CellSummary, bi: usize) -> bool {
    (a.total_energy_j, a.qos_shortfall, ai) < (b.total_energy_j, b.qos_shortfall, bi)
}

/// For every value of every dimension, the best cell carrying that value.
/// Entries are ordered dimension-major, values in spec order.
pub fn per_dimension_bests(out: &GridOutcome) -> Vec<DimensionBest> {
    let mut bests = Vec::new();
    for (d, name) in DIMENSIONS.iter().enumerate() {
        for value in out.spec.dimension_values(d) {
            let mut winner: Option<&crate::executor::CellRecord> = None;
            for c in out.cells.iter().filter(|c| c.labels[d] == value) {
                let replace = match winner {
                    None => true,
                    Some(w) => better(&c.summary, c.coords.index, &w.summary, w.coords.index),
                };
                if replace {
                    winner = Some(c);
                }
            }
            if let Some(w) = winner {
                bests.push(DimensionBest {
                    dimension: (*name).into(),
                    value,
                    cell: w.coords.index,
                    total_energy_j: w.summary.total_energy_j,
                    qos_shortfall: w.summary.qos_shortfall,
                });
            }
        }
    }
    bests
}

/// The Pareto frontier of the energy-vs-QoS trade-off: cells not
/// dominated by any other cell (dominated = some cell is no worse on both
/// total energy and QoS shortfall and strictly better on at least one).
/// Returned as positions into `out.cells`, sorted by ascending energy
/// (shortfall, then position, as tie-breaks). Positions equal enumeration
/// indices only when no cell is quarantined — artifact renderers map
/// through `coords.index` before publishing.
pub fn pareto_frontier(out: &GridOutcome) -> Vec<usize> {
    let cells = &out.cells;
    let mut frontier: Vec<usize> = (0..cells.len())
        .filter(|&i| {
            let si = &cells[i].summary;
            !cells.iter().enumerate().any(|(j, cj)| {
                let sj = &cj.summary;
                j != i
                    && sj.total_energy_j <= si.total_energy_j
                    && sj.qos_shortfall <= si.qos_shortfall
                    && (sj.total_energy_j < si.total_energy_j
                        || sj.qos_shortfall < si.qos_shortfall)
            })
        })
        .collect();
    frontier.sort_by(|&a, &b| {
        let (sa, sb) = (&cells[a].summary, &cells[b].summary);
        (sa.total_energy_j, sa.qos_shortfall, a)
            .partial_cmp(&(sb.total_energy_j, sb.qos_shortfall, b))
            .expect("summaries hold finite floats")
    });
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::CellRecord;
    use crate::spec::{CatalogSpec, GridSpec, SchedulerDim, TraceSpec};
    use bml_core::combination::SplitPolicy;
    use bml_sim::Stepping;

    /// Hand-build an outcome with known energies/shortfalls along a
    /// 1 x 1 x 1 x 2 x 2 x 1 x 1 grid (windows x sigmas).
    fn outcome(points: [(f64, f64); 4]) -> GridOutcome {
        let spec = GridSpec {
            name: "agg".into(),
            root_seed: 0,
            traces: vec![TraceSpec {
                source: "constant".into(),
                days: 1,
                seed: 0,
            }],
            catalogs: vec![CatalogSpec::paper_trio()],
            schedulers: vec![SchedulerDim::Baseline],
            windows: vec![None, Some(60)],
            noise_sigmas: vec![0.0, 0.1],
            splits: vec![SplitPolicy::EfficiencyGreedy],
            steppings: vec![Stepping::EventDriven],
        };
        let cells = spec
            .cells()
            .into_iter()
            .map(|coords| {
                let (e, q) = points[coords.index];
                CellRecord {
                    labels: spec.cell_labels(&coords),
                    coords,
                    summary: bml_sim::CellSummary {
                        total_energy_j: e,
                        mean_power_w: 0.0,
                        qos_shortfall: q,
                        violation_seconds: 0,
                        worst_shortfall: 0.0,
                        reconfigurations: 0,
                        nodes_switched_on: 0,
                        nodes_switched_off: 0,
                        reconfig_energy_j: 0.0,
                        instance_migrations: 0,
                        segments_batched: 0,
                        events_skipped: 0,
                        stepping_effective: Stepping::EventDriven,
                        optimal_energy_j: None,
                        optimality_gap: None,
                    },
                }
            })
            .collect();
        GridOutcome {
            spec,
            cells,
            failed_cells: Vec::new(),
        }
    }

    #[test]
    fn pareto_keeps_only_non_dominated() {
        // Cell 0: cheap but lossy; cell 1: dominated by 0 (worse on
        // both); cell 2: expensive and perfect; cell 3: dominated by 2.
        let out = outcome([(10.0, 0.5), (11.0, 0.6), (30.0, 0.0), (31.0, 0.2)]);
        assert_eq!(pareto_frontier(&out), vec![0, 2]);
    }

    #[test]
    fn pareto_duplicates_both_survive_in_index_order() {
        let out = outcome([(10.0, 0.1), (10.0, 0.1), (50.0, 0.0), (9.0, 0.4)]);
        assert_eq!(pareto_frontier(&out), vec![3, 0, 1, 2]);
    }

    #[test]
    fn bests_cover_every_dimension_value() {
        let out = outcome([(10.0, 0.5), (11.0, 0.6), (8.0, 0.0), (31.0, 0.2)]);
        let bests = per_dimension_bests(&out);
        // One entry per (dimension, value): 5 single-valued dimensions +
        // windows (2) + sigmas (2) = 9.
        assert_eq!(bests.len(), 9);
        // Window "paper" covers cells {0, 1} -> best is 0; window "60s"
        // covers {2, 3} -> best is 2 (also the global best).
        let windows: Vec<_> = bests.iter().filter(|b| b.dimension == "window").collect();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].value, "paper");
        assert_eq!(windows[0].cell, 0);
        assert_eq!(windows[1].value, "60s");
        assert_eq!(windows[1].cell, 2);
        // Single-valued dimensions all elect the global best (cell 2).
        let trace_best = bests.iter().find(|b| b.dimension == "trace").unwrap();
        assert_eq!(trace_best.cell, 2);
    }

    #[test]
    fn bests_tie_break_on_shortfall_then_index() {
        let out = outcome([(10.0, 0.3), (10.0, 0.1), (10.0, 0.1), (99.0, 0.0)]);
        let trace_best = per_dimension_bests(&out)
            .into_iter()
            .find(|b| b.dimension == "trace")
            .unwrap();
        assert_eq!(trace_best.cell, 1);
    }
}
