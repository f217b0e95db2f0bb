//! Schedule replay: drive the cluster through a pre-computed list of
//! [`ReconfigRecord`]s instead of a live scheduler.
//!
//! This is how `bml-opt` *proves* its claimed optimum: the DP prices
//! transitions analytically, then hands its schedule to this replay,
//! which runs the very same cluster lifecycle, power split, ramp
//! integration, zero-duration lump accounting and QoS bookkeeping as the
//! event-driven engine ([`crate::engine`]) — minus the scheduler and
//! predictor, with the record list as the only decision source. If the
//! two energies agree to 1e-9 relative, the DP's cost model matches the
//! simulator; if they ever drift apart, the optimality numbers are wrong
//! and the caller must fail loudly.
//!
//! Records are applied *sequentially at their timestamps*: each record's
//! `target` is interpreted against the configuration the previous record
//! left behind (exactly like the engine's believed configuration), so a
//! schedule may legally carry several records at the same instant —
//! e.g. a zero-lead boot and an immediate shutdown decided at the same
//! boundary — and they compose in list order.

use bml_core::bml::BmlInfrastructure;
use bml_core::combination::SplitPolicy;
use bml_core::reconfig::{plan_reconfiguration, Configuration};
use bml_metrics::EnergyMeter;
use bml_trace::LoadTrace;

use crate::cluster::Cluster;
use crate::engine::{ReconfigRecord, ScenarioResult, Stepping};
use crate::qos::QosReport;

/// Replay `schedule` against `trace` on a cluster warm-started with
/// `initial` machines per architecture, and account energy + QoS exactly
/// like the event-driven engine.
///
/// Records must be sorted by [`ReconfigRecord::at`] (ties allowed, applied
/// in list order); each record's `target` is diffed against the previous
/// target (starting from `initial`) via
/// [`bml_core::reconfig::plan_reconfiguration`], so the schedule is the
/// same believed-configuration protocol the engine's `reconfig_log`
/// speaks.
///
/// # Panics
///
/// Panics if the schedule is not sorted by time.
pub fn replay_schedule(
    trace: &LoadTrace,
    bml: &BmlInfrastructure,
    initial: &[u32],
    schedule: &[ReconfigRecord],
    split: SplitPolicy,
) -> ScenarioResult {
    assert!(
        schedule.windows(2).all(|w| w[0].at <= w[1].at),
        "schedule must be sorted by time"
    );
    let profiles = bml.candidates();
    let mut cluster = Cluster::with_online(profiles, initial, split);
    let mut believed = Configuration(initial.to_vec());
    let mut meter = EnergyMeter::new();
    let mut qos = QosReport::default();
    let mut log = Vec::new();
    let mut reconfigurations = 0u64;
    let mut nodes_on = 0u64;
    let mut nodes_off = 0u64;
    let mut reconfig_energy = 0.0;

    let n = trace.len();
    let mut next_rec = 0usize;
    let mut now = 0u64;
    while now < n {
        cluster.tick(now);
        while next_rec < schedule.len() && schedule[next_rec].at == now {
            let record = &schedule[next_rec];
            next_rec += 1;
            let target = Configuration(record.target.clone());
            let Some(plan) = plan_reconfiguration(profiles, &believed, &target) else {
                continue; // no-op record
            };
            // Zero-duration transitions cannot be spread over time; charge
            // them as an instantaneous lump (mirrors the engine's
            // `decide_at`).
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
                meter.add_energy(lump);
            }
            reconfigurations += 1;
            nodes_on += u64::from(plan.nodes_switched_on());
            nodes_off += u64::from(plan.nodes_switched_off());
            reconfig_energy += plan.energy;
            log.push(record.clone());
            cluster.apply(&plan, now);
            believed = target;
        }

        // Next replay event: a record application or a cluster lifecycle
        // epoch; between them pool states are constant, so accounting
        // batches over maximal constant-load runs.
        let mut next = n;
        if next_rec < schedule.len() {
            next = next.min(schedule[next_rec].at);
        }
        if let Some(t) = cluster.next_transition_event() {
            next = next.min(t);
        }
        let next = next.clamp(now + 1, n);

        let mut t = now;
        while t < next {
            let span_end = trace.run_end(t).min(next);
            let load = trace.get(t);
            let (power, served) = cluster.power(load);
            meter.accumulate_span(power, span_end - t);
            qos.record_span(load, served, span_end - t);
            t = span_end;
        }
        now = next;
    }

    ScenarioResult {
        name: "Offline Optimal".into(),
        total_energy_j: meter.total_joules(),
        mean_power_w: meter.mean_power(),
        qos,
        reconfigurations,
        nodes_switched_on: nodes_on,
        nodes_switched_off: nodes_off,
        reconfig_energy_j: reconfig_energy,
        instance_migrations: 0,
        failures_injected: 0,
        segments_batched: 0,
        events_skipped: 0,
        fallback_unsegmented: 0,
        stepping_effective: Stepping::EventDriven,
        reconfig_log: log,
        daily_energy_j: meter.into_daily_joules(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bml_core::catalog;

    fn bml() -> BmlInfrastructure {
        BmlInfrastructure::build(&catalog::table1()).unwrap()
    }

    #[test]
    fn empty_schedule_holds_the_initial_fleet() {
        let bml = bml();
        let trace = LoadTrace::new(0, vec![500.0; 100]);
        let r = replay_schedule(&trace, &bml, &[1, 0, 0], &[], SplitPolicy::EfficiencyGreedy);
        let (w, _) = bml.config_power(&[1, 0, 0], 500.0, SplitPolicy::EfficiencyGreedy);
        assert!((r.total_energy_j - w * 100.0).abs() < 1e-9);
        assert_eq!(r.reconfigurations, 0);
        assert_eq!(r.qos.violation_seconds, 0);
    }

    #[test]
    fn boot_record_charges_the_ramp_and_matures_on_time() {
        let bml = bml();
        // 300 s at load 0; boot one chromebook (12 s, 49.3 J) at t=100.
        let trace = LoadTrace::new(0, vec![0.0; 300]);
        let r = replay_schedule(
            &trace,
            &bml,
            &[0, 0, 0],
            &[ReconfigRecord {
                at: 100,
                target: vec![0, 1, 0],
            }],
            SplitPolicy::EfficiencyGreedy,
        );
        // Ramp 49.3 J over [100, 112), then chromebook idle (4 W) for the
        // remaining 188 s.
        let expected = 49.3 + 4.0 * 188.0;
        assert!(
            (r.total_energy_j - expected).abs() < 1e-9,
            "{} vs {expected}",
            r.total_energy_j
        );
        assert_eq!(r.reconfigurations, 1);
        assert_eq!(r.nodes_switched_on, 1);
        assert!((r.reconfig_energy_j - 49.3).abs() < 1e-12);
        assert_eq!(r.reconfig_log.len(), 1);
    }

    #[test]
    fn off_record_truncates_the_ramp_at_the_horizon() {
        let bml = bml();
        // Shut one paravance (10 s off ramp, 657 J) 5 s before the end:
        // only half the ramp is inside the horizon.
        let trace = LoadTrace::new(0, vec![0.0; 100]);
        let r = replay_schedule(
            &trace,
            &bml,
            &[1, 0, 0],
            &[ReconfigRecord {
                at: 95,
                target: vec![0, 0, 0],
            }],
            SplitPolicy::EfficiencyGreedy,
        );
        let expected = 69.9 * 95.0 + 657.0 / 10.0 * 5.0;
        assert!(
            (r.total_energy_j - expected).abs() < 1e-9,
            "{} vs {expected}",
            r.total_energy_j
        );
        assert_eq!(r.nodes_switched_off, 1);
    }

    #[test]
    fn unsorted_schedule_panics() {
        let bml = bml();
        let trace = LoadTrace::new(0, vec![0.0; 10]);
        let schedule = vec![
            ReconfigRecord {
                at: 5,
                target: vec![0, 1, 0],
            },
            ReconfigRecord {
                at: 2,
                target: vec![0, 0, 0],
            },
        ];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            replay_schedule(
                &trace,
                &bml,
                &[0, 0, 0],
                &schedule,
                SplitPolicy::EfficiencyGreedy,
            )
        }));
        assert!(result.is_err());
    }
}
