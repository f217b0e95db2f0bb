//! Schedule replay: drive the cluster through a pre-computed list of
//! [`ReconfigRecord`]s instead of a live scheduler.
//!
//! This is how `bml-opt` *proves* its claimed optimum: the DP prices
//! transitions analytically, then hands its schedule to this replay,
//! which applies and accounts every record through the engine's own
//! ledger ([`crate::engine`]) — the same cluster lifecycle, power split,
//! ramp integration, zero-duration lump and constant-load span accounting
//! — minus the scheduler and predictor, with the record list as the only
//! decision source. If the two energies agree to 1e-9 relative, the DP's
//! cost model matches the simulator; if they ever drift apart, the
//! optimality numbers are wrong and the caller must fail loudly. Like the
//! DP, the replay does not price instance migrations; only the engine
//! does.
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
use bml_trace::LoadTrace;

use crate::engine::{Ledger, ReconfigRecord, ScenarioResult};

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
    let mut ledger = Ledger::new(bml.candidates(), initial, split);
    let mut believed = Configuration(initial.to_vec());
    let n = trace.len();
    let mut next_rec = 0usize;
    let mut now = 0u64;
    while now < n {
        ledger.cluster.tick(now);
        while next_rec < schedule.len() && schedule[next_rec].at == now {
            let target = Configuration(schedule[next_rec].target.clone());
            next_rec += 1;
            // A record naming the believed configuration is a no-op.
            if let Some(plan) = plan_reconfiguration(bml.candidates(), &believed, &target) {
                ledger.apply(&plan, now);
                believed = target;
            }
        }

        // Next replay event: a record application or a cluster lifecycle
        // epoch; between them pool states are constant.
        let mut next = n;
        if next_rec < schedule.len() {
            next = next.min(schedule[next_rec].at);
        }
        if let Some(t) = ledger.cluster.next_transition_event() {
            next = next.min(t);
        }
        let next = next.clamp(now + 1, n);
        ledger.account_runs(trace, now, next);
        now = next;
    }
    ledger.into_result("Offline Optimal")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bml_core::catalog;
    use bml_core::profile::ArchProfile;

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
    fn zero_duration_transitions_charge_one_lump() {
        // No ramp can spread a zero-duration transition, so its energy is
        // charged once, as a lump at the decision instant.
        let profiles = vec![
            ArchProfile::new("big", 10.0, 50.0, 100.0, 0.0, 30.0, 0.0, 20.0).unwrap(),
            ArchProfile::new("little", 1.0, 3.0, 10.0, 0.0, 4.0, 0.0, 2.0).unwrap(),
        ];
        let bml = BmlInfrastructure::from_candidates(profiles).unwrap();
        let trace = LoadTrace::new(0, vec![0.0; 100]);
        let schedule =
            [(10, vec![1, 0]), (50, vec![0, 1])].map(|(at, target)| ReconfigRecord { at, target });
        let r = replay_schedule(
            &trace,
            &bml,
            &[0, 0],
            &schedule,
            SplitPolicy::EfficiencyGreedy,
        );
        // Boot the big (30 J) at 10; it is online from the next tick, so
        // it idles over [11, 50) at 10 W. Swap it for the little (20 J
        // off, at once, + 4 J on), which idles over [51, 100) at 1 W.
        let expected = 30.0 + 10.0 * 39.0 + 24.0 + 1.0 * 49.0;
        assert!(
            (r.total_energy_j - expected).abs() < 1e-9,
            "{} vs {expected}",
            r.total_energy_j
        );
        assert_eq!(r.reconfig_energy_j, 54.0);
        assert_eq!(r.reconfigurations, 2);
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
