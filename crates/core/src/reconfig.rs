//! Reconfiguration planning: the switch-on / switch-off action sets that
//! move the data center from one machine configuration to another, with
//! their time and energy overheads (paper Secs. I, IV and V-C: "dynamic
//! resources management with switch on and off actions, whose time and
//! energy overheads are taken into account").

use crate::profile::ArchProfile;

/// A machine configuration: how many nodes of each candidate architecture
/// are powered on (indexed Big first, like the candidate list).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Configuration(pub Vec<u32>);

impl Configuration {
    /// All-off configuration for `n` architectures.
    pub fn off(n: usize) -> Self {
        Configuration(vec![0; n])
    }

    /// Number of architectures.
    pub fn n_archs(&self) -> usize {
        self.0.len()
    }

    /// Total machines powered on.
    pub fn total_nodes(&self) -> u32 {
        self.0.iter().sum()
    }

    /// Serving capacity of this configuration given the profiles.
    pub fn capacity(&self, profiles: &[ArchProfile]) -> f64 {
        profiles
            .iter()
            .zip(&self.0)
            .map(|(p, &c)| f64::from(c) * p.max_perf)
            .sum()
    }

    /// `true` when no machine is on.
    pub fn is_off(&self) -> bool {
        self.0.iter().all(|&c| c == 0)
    }
}

impl From<Vec<u32>> for Configuration {
    fn from(v: Vec<u32>) -> Self {
        Configuration(v)
    }
}

/// A planned transition between two configurations.
///
/// Switch-ons of every architecture boot in parallel. Switch-offs follow a
/// *graceful handover*: when the plan also boots machines, retiring
/// machines keep serving until the slowest boot completes and only then
/// begin their shutdown — otherwise an architecture swap (e.g. sixteen
/// Mediums replaced by one Big) would leave the application unserved for
/// the whole boot, violating the QoS the scheduler exists to protect.
/// The plan's `duration` is therefore `max(on durations) + max(off
/// durations)`; the scheduler takes no other decision until it elapses.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigPlan {
    /// Configuration before the transition.
    pub from: Configuration,
    /// Configuration after the transition.
    pub target: Configuration,
    /// `(architecture index, node count)` pairs to boot.
    pub switch_on: Vec<(usize, u32)>,
    /// `(architecture index, node count)` pairs to shut down.
    pub switch_off: Vec<(usize, u32)>,
    /// Wall-clock duration of the whole reconfiguration (s): the longest
    /// individual action.
    pub duration: f64,
    /// Total transition energy (J): sum of every action's On/Off energy.
    pub energy: f64,
}

impl ReconfigPlan {
    /// Number of machines booted by this plan.
    pub fn nodes_switched_on(&self) -> u32 {
        self.switch_on.iter().map(|&(_, c)| c).sum()
    }

    /// Number of machines shut down by this plan.
    pub fn nodes_switched_off(&self) -> u32 {
        self.switch_off.iter().map(|&(_, c)| c).sum()
    }

    /// Average extra power (W) the transition draws over its duration,
    /// if the transition energy is spread uniformly (how the simulator
    /// accounts it).
    pub fn mean_transition_power(&self) -> f64 {
        if self.duration > 0.0 {
            self.energy / self.duration
        } else {
            0.0
        }
    }
}

/// Compute the plan moving `from` to `to`; `None` when they are identical.
pub fn plan_reconfiguration(
    profiles: &[ArchProfile],
    from: &Configuration,
    to: &Configuration,
) -> Option<ReconfigPlan> {
    assert_eq!(from.n_archs(), profiles.len());
    assert_eq!(to.n_archs(), profiles.len());
    if from == to {
        return None;
    }
    let mut switch_on = Vec::new();
    let mut switch_off = Vec::new();
    let mut max_on = 0.0f64;
    let mut max_off = 0.0f64;
    let mut energy = 0.0f64;
    for (k, p) in profiles.iter().enumerate() {
        let (f, t) = (from.0[k], to.0[k]);
        if t > f {
            let n = t - f;
            switch_on.push((k, n));
            max_on = max_on.max(p.on_duration);
            energy += f64::from(n) * p.on_energy;
        } else if f > t {
            let n = f - t;
            switch_off.push((k, n));
            max_off = max_off.max(p.off_duration);
            energy += f64::from(n) * p.off_energy;
        }
    }
    // Graceful handover: shutdowns start only after the boots complete.
    let duration = max_on + max_off;
    Some(ReconfigPlan {
        from: from.clone(),
        target: to.clone(),
        switch_on,
        switch_off,
        duration,
        energy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn profiles() -> Vec<ArchProfile> {
        catalog::paper_bml_trio()
    }

    #[test]
    fn identical_configs_no_plan() {
        let p = profiles();
        let c = Configuration(vec![1, 2, 3]);
        assert!(plan_reconfiguration(&p, &c, &c).is_none());
    }

    #[test]
    fn boot_one_big() {
        let p = profiles();
        let plan = plan_reconfiguration(
            &p,
            &Configuration(vec![0, 0, 0]),
            &Configuration(vec![1, 0, 0]),
        )
        .unwrap();
        assert_eq!(plan.switch_on, vec![(0, 1)]);
        assert!(plan.switch_off.is_empty());
        assert_eq!(plan.duration, 189.0);
        assert_eq!(plan.energy, 21341.0);
        assert_eq!(plan.nodes_switched_on(), 1);
    }

    #[test]
    fn mixed_transition_handover_duration() {
        let p = profiles();
        // Boot 2 chromebooks (12 s each), then shut 1 raspberry (14 s):
        // graceful handover => 12 + 14 = 26 s; energy = 2*49.3 + 36.2.
        let plan = plan_reconfiguration(
            &p,
            &Configuration(vec![0, 0, 1]),
            &Configuration(vec![0, 2, 0]),
        )
        .unwrap();
        assert_eq!(plan.duration, 26.0);
        assert!((plan.energy - (2.0 * 49.3 + 36.2)).abs() < 1e-9);
        assert_eq!(plan.nodes_switched_on(), 2);
        assert_eq!(plan.nodes_switched_off(), 1);
    }

    #[test]
    fn scale_down_uses_off_costs() {
        let p = profiles();
        let plan = plan_reconfiguration(
            &p,
            &Configuration(vec![2, 0, 0]),
            &Configuration(vec![1, 0, 0]),
        )
        .unwrap();
        assert_eq!(plan.duration, 10.0);
        assert_eq!(plan.energy, 657.0);
    }

    #[test]
    fn mean_transition_power() {
        let p = profiles();
        let plan = plan_reconfiguration(
            &p,
            &Configuration(vec![0, 0, 0]),
            &Configuration(vec![1, 0, 0]),
        )
        .unwrap();
        assert!((plan.mean_transition_power() - 21341.0 / 189.0).abs() < 1e-9);
    }

    #[test]
    fn configuration_helpers() {
        let p = profiles();
        let c = Configuration(vec![1, 2, 3]);
        assert_eq!(c.total_nodes(), 6);
        assert_eq!(c.capacity(&p), 1331.0 + 66.0 + 27.0);
        assert!(!c.is_off());
        assert!(Configuration::off(3).is_off());
        let from_vec: Configuration = vec![1, 0, 0].into();
        assert_eq!(from_vec.n_archs(), 3);
    }

    #[test]
    fn zero_duration_plan_power_is_zero() {
        let instant = vec![ArchProfile::without_transitions("i", 1.0, 2.0, 10.0).unwrap()];
        let plan = plan_reconfiguration(&instant, &Configuration(vec![0]), &Configuration(vec![1]))
            .unwrap();
        assert_eq!(plan.duration, 0.0);
        assert_eq!(plan.mean_transition_power(), 0.0);
    }
}
