//! The simulated heterogeneous cluster: per-architecture machine pools
//! with a four-state power model (Off -> Booting -> On -> ShuttingDown).
//!
//! The paper assumes "enough machines of each type are available", so the
//! cluster tracks machine *counts* per architecture and state rather than
//! individual machine objects — with the linear power model of Step 1 the
//! two are equivalent, and counts keep an 87-day x 1 Hz simulation cheap.
//!
//! Transition power: a booting machine draws `on_energy / on_duration`
//! Watts for `on_duration` seconds (and symmetrically for shutdown), so
//! integrating per-second power reproduces exactly the Table I transition
//! energies the paper charges to reconfigurations.

use std::collections::VecDeque;

use bml_core::combination::{PowerCurve, SplitPolicy};
use bml_core::profile::ArchProfile;
use bml_core::reconfig::ReconfigPlan;

/// Machine counts of one architecture in each lifecycle state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArchPool {
    /// Machines on and serving (including retiring machines that are still
    /// serving while their replacements boot).
    pub online: u32,
    /// `(completion_time, count)` batches currently booting.
    booting: VecDeque<(u64, u32)>,
    /// `(shutdown_start_time, count)` retiring batches: still online and
    /// serving, scheduled to begin shutdown once the plan's boots complete
    /// (graceful handover).
    pending_off: VecDeque<(u64, u32)>,
    /// `(completion_time, count)` batches currently shutting down.
    shutting: VecDeque<(u64, u32)>,
    /// `(reboot_start_time, count)` crashed machines under repair: they
    /// draw no power and serve nothing until the repair delay elapses,
    /// then reboot like a normal switch-on.
    repairing: VecDeque<(u64, u32)>,
}

impl ArchPool {
    /// Machines currently booting.
    pub fn booting_count(&self) -> u32 {
        self.booting.iter().map(|&(_, c)| c).sum()
    }

    /// Machines currently shutting down.
    pub fn shutting_count(&self) -> u32 {
        self.shutting.iter().map(|&(_, c)| c).sum()
    }

    /// Machines still serving but scheduled to retire.
    pub fn retiring_count(&self) -> u32 {
        self.pending_off.iter().map(|&(_, c)| c).sum()
    }

    /// Crashed machines waiting for repair.
    pub fn repairing_count(&self) -> u32 {
        self.repairing.iter().map(|&(_, c)| c).sum()
    }
}

/// The simulated cluster. Borrows the candidate profiles from the
/// infrastructure that owns them — a replay spins up one cluster per
/// scenario, and cloning the profile vector per run was a measurable
/// share of the sweep runners' allocations.
///
/// The power the pools draw is a function of the load alone until a pool
/// changes, so the cluster keeps it compiled: the [`PowerCurve`] of the
/// online machines and the ramp power of the in-flight transitions. Both
/// are rebuilt only when [`Cluster::tick`], [`Cluster::apply`] or
/// [`Cluster::fail_one`] actually changes a pool, which makes
/// [`Cluster::power`] an allocation-free evaluation per second or span.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster<'a> {
    profiles: &'a [ArchProfile],
    pools: Vec<ArchPool>,
    split: SplitPolicy,
    /// Serving power of the online machines.
    curve: PowerCurve,
    /// [`Cluster::transition_power`] of the current pools.
    ramp: f64,
}

impl<'a> Cluster<'a> {
    /// Empty cluster (everything off) over the candidate profiles.
    pub fn new(profiles: &'a [ArchProfile], split: SplitPolicy) -> Self {
        Cluster::with_online(profiles, &vec![0; profiles.len()], split)
    }

    /// Cluster with `counts[k]` machines of each architecture already
    /// online (warm start).
    pub fn with_online(profiles: &'a [ArchProfile], counts: &[u32], split: SplitPolicy) -> Self {
        assert_eq!(counts.len(), profiles.len());
        let pools = counts
            .iter()
            .map(|&online| ArchPool {
                online,
                ..ArchPool::default()
            })
            .collect();
        let mut c = Cluster {
            profiles,
            pools,
            split,
            curve: PowerCurve::new(profiles, counts, split),
            ramp: 0.0,
        };
        c.ramp = c.transition_power();
        c
    }

    /// Rebuild the cached serving curve and ramp power after a pool
    /// changed.
    fn recompile(&mut self) {
        self.curve = PowerCurve::new(self.profiles, &self.online_counts(), self.split);
        self.ramp = self.transition_power();
    }

    /// The candidate profiles (Big first).
    pub fn profiles(&self) -> &[ArchProfile] {
        self.profiles
    }

    /// Per-architecture pool states.
    pub fn pools(&self) -> &[ArchPool] {
        &self.pools
    }

    /// Promote matured transitions: machines whose boot completes at or
    /// before `now` come online, retiring machines whose handover point
    /// arrived begin their shutdown, and completed shutdowns disappear.
    /// Call once per second, before applying decisions and measuring
    /// power.
    pub fn tick(&mut self, now: u64) {
        let mut changed = false;
        for (p, pool) in self.profiles.iter().zip(&mut self.pools) {
            while let Some(&(until, count)) = pool.booting.front() {
                if until <= now {
                    pool.booting.pop_front();
                    pool.online += count;
                    changed = true;
                } else {
                    break;
                }
            }
            while let Some(&(start, count)) = pool.pending_off.front() {
                if start <= now {
                    pool.pending_off.pop_front();
                    debug_assert!(pool.online >= count);
                    pool.online -= count;
                    let until = start + p.off_duration.ceil() as u64;
                    pool.shutting.push_back((until, count));
                    changed = true;
                } else {
                    break;
                }
            }
            while let Some(&(until, _)) = pool.shutting.front() {
                if until <= now {
                    pool.shutting.pop_front();
                    changed = true;
                } else {
                    break;
                }
            }
            // Repaired machines start their reboot; sorted insertion keeps
            // the booting queue ordered even though repairs interleave
            // with planned switch-ons.
            while let Some(&(start, count)) = pool.repairing.front() {
                if start <= now {
                    pool.repairing.pop_front();
                    let until = start + p.on_duration.ceil() as u64;
                    let pos = pool
                        .booting
                        .iter()
                        .position(|&(u, _)| u > until)
                        .unwrap_or(pool.booting.len());
                    pool.booting.insert(pos, (until, count));
                    changed = true;
                } else {
                    break;
                }
            }
        }
        if changed {
            self.recompile();
        }
    }

    /// Crash one online machine of architecture `k` at time `now`: it
    /// leaves service immediately, stays dark for `repair_s`, then reboots
    /// (paying the normal boot duration and energy). Returns `false` when
    /// no machine of that architecture is online to crash.
    pub fn fail_one(&mut self, k: usize, now: u64, repair_s: u64) -> bool {
        let pool = &mut self.pools[k];
        if pool.online == 0 {
            return false;
        }
        pool.online -= 1;
        // A retiring machine may be the one that died; shrink the pending
        // retirement so the handover bookkeeping stays consistent.
        if pool.retiring_count() > pool.online {
            if let Some(front) = pool.pending_off.front_mut() {
                front.1 -= 1;
                if front.1 == 0 {
                    pool.pending_off.pop_front();
                }
            }
        }
        pool.repairing.push_back((now + repair_s, 1));
        self.recompile();
        true
    }

    /// Apply a reconfiguration plan decided at time `now`.
    ///
    /// Switch-ons start booting immediately and join service after their
    /// architecture's `on_duration`. Switch-offs follow the graceful
    /// handover: when the plan boots machines, retiring machines keep
    /// serving until the slowest boot completes and only then start their
    /// shutdown; a pure scale-down begins shutting down immediately.
    ///
    /// A switch-off is clamped to the machines actually available
    /// (online minus those already retiring): the scheduler plans against
    /// its *believed* configuration, and a machine that crashed since —
    /// it is dark in repair, not serving — cannot be switched off again.
    /// Without failure injection the scheduler's lock-out makes the clamp
    /// a no-op.
    pub fn apply(&mut self, plan: &ReconfigPlan, now: u64) {
        let boot_complete = now
            + plan
                .switch_on
                .iter()
                .map(|&(k, _)| self.profiles[k].on_duration.ceil() as u64)
                .max()
                .unwrap_or(0);
        let mut changed = !plan.switch_on.is_empty();
        for &(k, n) in &plan.switch_off {
            let pool = &mut self.pools[k];
            let n = n.min(pool.online - pool.retiring_count());
            if n == 0 {
                continue;
            }
            changed = true;
            if boot_complete <= now {
                pool.online -= n;
                let until = now + self.profiles[k].off_duration.ceil() as u64;
                pool.shutting.push_back((until, n));
            } else {
                pool.pending_off.push_back((boot_complete, n));
            }
        }
        for &(k, n) in &plan.switch_on {
            let until = now + self.profiles[k].on_duration.ceil() as u64;
            self.pools[k].booting.push_back((until, n));
        }
        if changed {
            self.recompile();
        }
        // Keep completion queues ordered (durations are per-arch constants,
        // so appends are already non-decreasing per pool).
        debug_assert!(self.pools.iter().all(|p| p
            .booting
            .iter()
            .zip(p.booting.iter().skip(1))
            .all(|(a, b)| a.0 <= b.0)));
    }

    /// Online machine counts per architecture.
    pub fn online_counts(&self) -> Vec<u32> {
        self.pools.iter().map(|p| p.online).collect()
    }

    /// Serving capacity (application metric units/s) of online machines.
    pub fn capacity(&self) -> f64 {
        self.profiles
            .iter()
            .zip(&self.pools)
            .map(|(p, pool)| f64::from(pool.online) * p.max_perf)
            .sum()
    }

    /// Power drawn by in-flight transitions (W): booting machines draw
    /// `on_energy / on_duration`, shutting machines `off_energy /
    /// off_duration`. Zero-duration transitions contribute nothing here
    /// (their energy is zero or accounted as an instantaneous lump by the
    /// caller).
    pub fn transition_power(&self) -> f64 {
        self.profiles
            .iter()
            .zip(&self.pools)
            .map(|(p, pool)| {
                let boot = if p.on_duration > 0.0 {
                    f64::from(pool.booting_count()) * p.on_energy / p.on_duration
                } else {
                    0.0
                };
                let shut = if p.off_duration > 0.0 {
                    f64::from(pool.shutting_count()) * p.off_energy / p.off_duration
                } else {
                    0.0
                };
                boot + shut
            })
            .sum()
    }

    /// Total power (W) and served load for this second or constant-load
    /// span: online machines serve `load` under the cluster's split
    /// policy, transitions add their ramp power. Evaluates the cached
    /// curve, so it allocates nothing and costs a few float operations;
    /// the value is bit-identical to
    /// `config_power(profiles, &online_counts(), load, split).0 +
    /// transition_power()`.
    #[inline]
    pub fn power(&self, load: f64) -> (f64, f64) {
        let (serving, served) = self.curve.eval(load);
        (serving + self.ramp, served)
    }

    /// Earliest pending lifecycle epoch across all pools — a boot
    /// completion, a retirement handover start, a shutdown completion, or
    /// a crashed machine's repair start — or `None` when no transition is
    /// in flight. The event-driven engine must [`Cluster::tick`] at every
    /// such instant; *between* them online counts and ramp power are
    /// constant, which is what makes span-wise integration exact.
    pub fn next_transition_event(&self) -> Option<u64> {
        self.pools
            .iter()
            .flat_map(|p| {
                p.booting
                    .iter()
                    .chain(&p.pending_off)
                    .chain(&p.shutting)
                    .chain(&p.repairing)
                    .map(|&(t, _)| t)
            })
            .min()
    }

    /// Transition-ramp energy (J) over a span of `secs` seconds that
    /// contains no transition epoch (see
    /// [`Cluster::next_transition_event`]): booting/shutting counts are
    /// constant over such a span, so the per-second ramps integrate
    /// exactly to `transition_power() * secs`.
    ///
    /// This is the span-integration *identity* the event-driven engine
    /// relies on — there the ramp is folded into the total power
    /// ([`Cluster::power`]) and integrated by
    /// `EnergyMeter::accumulate_span`, so this helper is for external
    /// substrates and tests that want the ramp share in isolation.
    pub fn transition_energy_over(&self, secs: u64) -> f64 {
        self.transition_power() * secs as f64
    }

    /// Machines tracked in any state (diagnostics).
    pub fn total_tracked(&self) -> u32 {
        self.pools
            .iter()
            .map(|p| p.online + p.booting_count() + p.shutting_count() + p.repairing_count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bml_core::catalog;
    use bml_core::reconfig::{plan_reconfiguration, Configuration};

    fn trio() -> Vec<ArchProfile> {
        catalog::paper_bml_trio()
    }

    fn plan(from: &[u32], to: &[u32]) -> ReconfigPlan {
        plan_reconfiguration(
            &catalog::paper_bml_trio(),
            &Configuration(from.to_vec()),
            &Configuration(to.to_vec()),
        )
        .unwrap()
    }

    #[test]
    fn boot_takes_on_duration() {
        let profiles = trio();
        let mut c = Cluster::new(&profiles, SplitPolicy::EfficiencyGreedy);
        c.apply(&plan(&[0, 0, 0], &[0, 1, 0]), 100); // chromebook: 12 s
        assert_eq!(c.online_counts(), vec![0, 0, 0]);
        assert_eq!(c.pools()[1].booting_count(), 1);
        c.tick(111);
        assert_eq!(c.online_counts(), vec![0, 0, 0]);
        c.tick(112);
        assert_eq!(c.online_counts(), vec![0, 1, 0]);
        assert_eq!(c.pools()[1].booting_count(), 0);
    }

    #[test]
    fn boot_power_integrates_to_on_energy() {
        let profiles = trio();
        let mut c = Cluster::new(&profiles, SplitPolicy::EfficiencyGreedy);
        c.apply(&plan(&[0, 0, 0], &[1, 0, 0]), 0); // paravance: 189 s, 21341 J
        let mut energy = 0.0;
        for t in 0..189 {
            c.tick(t);
            energy += c.transition_power();
        }
        assert!((energy - 21341.0).abs() < 1e-6, "boot energy {energy}");
        c.tick(189);
        assert_eq!(c.online_counts(), vec![1, 0, 0]);
        assert_eq!(c.transition_power(), 0.0);
    }

    #[test]
    fn span_integration_matches_per_second_ramp() {
        // The event-driven engine's span identity: over the whole boot
        // (no transition epoch strictly inside), ramp energy integrates
        // in one multiplication to exactly the Table I boot energy.
        let profiles = trio();
        let mut c = Cluster::new(&profiles, SplitPolicy::EfficiencyGreedy);
        c.apply(&plan(&[0, 0, 0], &[1, 0, 0]), 0); // paravance: 189 s, 21341 J
        c.tick(0);
        assert_eq!(c.next_transition_event(), Some(189));
        assert!((c.transition_energy_over(189) - 21341.0).abs() < 1e-6);
        // And the cached ramp is the one folded into the total power.
        assert_eq!(c.power(0.0).0, c.transition_power());
        c.tick(189);
        assert_eq!(c.next_transition_event(), None);
        assert_eq!(c.transition_energy_over(1_000), 0.0);
    }

    #[test]
    fn shutdown_leaves_service_immediately() {
        let profiles = trio();
        let mut c = Cluster::with_online(&profiles, &[1, 0, 0], SplitPolicy::EfficiencyGreedy);
        assert_eq!(c.capacity(), 1331.0);
        c.apply(&plan(&[1, 0, 0], &[0, 0, 0]), 50); // off: 10 s, 657 J
        assert_eq!(c.capacity(), 0.0);
        let mut energy = 0.0;
        for t in 50..60 {
            c.tick(t);
            energy += c.transition_power();
        }
        assert!((energy - 657.0).abs() < 1e-6, "shutdown energy {energy}");
        c.tick(60);
        assert_eq!(c.total_tracked(), 0);
    }

    #[test]
    fn serving_power_plus_transitions() {
        let profiles = trio();
        let mut c = Cluster::with_online(&profiles, &[0, 1, 0], SplitPolicy::EfficiencyGreedy);
        c.apply(&plan(&[0, 1, 0], &[0, 1, 1]), 0); // boot a raspberry
        c.tick(0);
        let (w, served) = c.power(20.0);
        // Chromebook serving 20 + raspberry booting (40.5 J / 16 s).
        let expected = 4.0 + (7.6 - 4.0) / 33.0 * 20.0 + 40.5 / 16.0;
        assert!((w - expected).abs() < 1e-9);
        assert_eq!(served, 20.0);
    }

    #[test]
    fn overload_served_capped() {
        let profiles = trio();
        let c = Cluster::with_online(&profiles, &[0, 0, 2], SplitPolicy::EfficiencyGreedy);
        let (_, served) = c.power(100.0);
        assert_eq!(served, 18.0);
    }

    #[test]
    fn switching_off_more_than_online_clamps_to_available() {
        // The scheduler plans against its believed configuration; crashed
        // machines are dark in repair and cannot be switched off again.
        let profiles = trio();
        let mut c = Cluster::new(&profiles, SplitPolicy::EfficiencyGreedy);
        c.apply(&plan(&[2, 0, 0], &[0, 0, 0]), 0);
        assert_eq!(c.online_counts(), vec![0, 0, 0]);
        assert_eq!(c.pools()[0].shutting_count(), 0, "nothing was online");
    }

    #[test]
    fn instant_transitions() {
        let profiles = vec![
            ArchProfile::without_transitions("big", 10.0, 50.0, 100.0).unwrap(),
            ArchProfile::without_transitions("little", 1.0, 3.0, 10.0).unwrap(),
        ];
        let plan = plan_reconfiguration(
            &profiles,
            &Configuration(vec![0, 0]),
            &Configuration(vec![1, 0]),
        )
        .unwrap();
        let mut c = Cluster::new(&profiles, SplitPolicy::EfficiencyGreedy);
        c.apply(&plan, 5);
        c.tick(5);
        assert_eq!(c.online_counts(), vec![1, 0]);
        assert_eq!(c.transition_power(), 0.0);
    }

    #[test]
    fn staggered_boots_complete_independently() {
        let profiles = trio();
        let mut c = Cluster::new(&profiles, SplitPolicy::EfficiencyGreedy);
        c.apply(&plan(&[0, 0, 0], &[0, 1, 0]), 0); // CB online at 12
                                                   // Lock-free in this unit test: apply another boot at t=5.
        c.apply(&plan(&[0, 1, 0], &[0, 2, 0]), 5); // second CB online at 17
        c.tick(12);
        assert_eq!(c.online_counts(), vec![0, 1, 0]);
        c.tick(17);
        assert_eq!(c.online_counts(), vec![0, 2, 0]);
    }

    #[test]
    fn mixed_plan_graceful_handover() {
        let profiles = trio();
        let mut c = Cluster::with_online(&profiles, &[1, 0, 0], SplitPolicy::EfficiencyGreedy);
        c.apply(&plan(&[1, 0, 0], &[0, 16, 1]), 0);
        // The Big keeps serving while the small machines boot.
        assert_eq!(c.online_counts(), vec![1, 0, 0]);
        assert_eq!(c.capacity(), 1331.0);
        assert_eq!(c.pools()[1].booting_count(), 16);
        assert_eq!(c.pools()[2].booting_count(), 1);
        assert_eq!(c.pools()[0].retiring_count(), 1);
        // Boots complete at t=16 (slowest: raspberry); the Big hands over
        // and starts its 10 s shutdown.
        // Chromebooks (12 s boot) are already up at t=15; the Big has not
        // handed over yet because the raspberry is still booting.
        c.tick(15);
        assert_eq!(c.online_counts(), vec![1, 16, 0]);
        c.tick(16);
        assert_eq!(c.online_counts(), vec![0, 16, 1]);
        assert_eq!(c.pools()[0].shutting_count(), 1);
        c.tick(26);
        assert_eq!(c.total_tracked(), 17);
    }

    /// `power(load)` must equal the from-scratch formula over the current
    /// pools bit for bit, at every load of interest.
    fn assert_power_is_fresh(c: &Cluster<'_>, stage: &str) {
        for load in [0.0, 0.5, 7.0, 20.0, 100.0, 600.0, 1_500.0, 5_000.0] {
            let (w, served) = c.power(load);
            let (serving, fresh_served) =
                bml_core::combination::config_power(c.profiles, &c.online_counts(), load, c.split);
            let fresh = serving + c.transition_power();
            assert_eq!(
                (w.to_bits(), served.to_bits()),
                (fresh.to_bits(), fresh_served.to_bits()),
                "{stage}, load {load}: cached ({w}, {served}) vs fresh ({fresh}, {fresh_served})"
            );
        }
    }

    #[test]
    fn cached_power_tracks_every_pool_change() {
        // Boot, handover, crash, repair and shutdown: a missed recompile
        // after any pool change shows up as a stale power.
        let profiles = trio();
        for split in [
            SplitPolicy::EfficiencyGreedy,
            SplitPolicy::ProportionalToCapacity,
        ] {
            let mut c = Cluster::new(&profiles, split);
            assert_power_is_fresh(&c, "new");
            c.apply(&plan(&[0, 0, 0], &[0, 2, 1]), 0); // boot 2 chromebooks + 1 pi
            assert_power_is_fresh(&c, "apply boot");
            for t in 0..=20 {
                c.tick(t);
                assert_power_is_fresh(&c, &format!("tick {t} after boot"));
            }
            assert_eq!(c.online_counts(), vec![0, 2, 1]);
            // Handover: a Big boots while the small machines keep serving.
            c.apply(&plan(&[0, 2, 1], &[1, 0, 0]), 20);
            assert_power_is_fresh(&c, "apply handover");
            assert!(c.fail_one(1, 30, 50), "a retiring chromebook crashes");
            assert_power_is_fresh(&c, "fail_one");
            assert!(!c.fail_one(0, 30, 50), "no Big online yet");
            assert_power_is_fresh(&c, "fail_one on an empty pool");
            for t in 21..=230 {
                c.tick(t);
                assert_power_is_fresh(&c, &format!("tick {t} after handover"));
            }
            // The crashed chromebook was repaired and rebooted; the
            // retirees handed over at 209 and finished shutting down.
            assert_eq!(c.online_counts(), vec![1, 1, 0]);
            c.apply(&plan(&[1, 1, 0], &[0, 0, 0]), 230);
            assert_power_is_fresh(&c, "apply shutdown");
            for t in 230..=255 {
                c.tick(t);
                assert_power_is_fresh(&c, &format!("tick {t} after shutdown"));
            }
            assert_eq!(c.total_tracked(), 0);
        }
    }

    #[test]
    fn capacity_never_drops_during_handover() {
        // The whole point of the handover: an architecture swap keeps the
        // old capacity until the new capacity is up.
        let profiles = trio();
        let mut c = Cluster::with_online(&profiles, &[0, 16, 0], SplitPolicy::EfficiencyGreedy);
        c.apply(&plan(&[0, 16, 0], &[1, 0, 0]), 0); // 16 CBs -> 1 Big
        for t in 0..189 {
            c.tick(t);
            assert!(c.capacity() >= 16.0 * 33.0, "capacity dipped at t={t}");
        }
        c.tick(189);
        assert_eq!(c.online_counts(), vec![1, 0, 0]);
        assert_eq!(c.pools()[1].shutting_count(), 16);
    }
}
