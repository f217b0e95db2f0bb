//! Instance migration accounting (paper Secs. III and V-A).
//!
//! A stateless web server migrates "by stopping a server instance and
//! launching a new one on the destination machine, and then updating the
//! load balancer". When a reconfiguration changes the machine mix, the
//! instances on machines being switched off move to machines being
//! switched on; surplus instances simply stop and new capacity simply
//! starts fresh.

/// Energy of one stateless web-server instance stop or start (J).
const INSTANCE_ACTION_J: f64 = 5.0;

/// Instance-level cost of moving from per-architecture instance counts
/// `from` to `to`: `(migrations, energy_j)`. A stopped instance whose
/// capacity is replaced on another architecture is one migration, so
/// migrations = min(stopped, started); every stop and every start costs
/// [`INSTANCE_ACTION_J`].
pub(crate) fn migration_cost(from: &[u32], to: &[u32]) -> (u32, f64) {
    assert_eq!(from.len(), to.len());
    let (mut stopped, mut started) = (0u32, 0u32);
    for (&f, &t) in from.iter().zip(to) {
        stopped += f.saturating_sub(t);
        started += t.saturating_sub(f);
    }
    let energy_j = f64::from(stopped + started) * INSTANCE_ACTION_J;
    (stopped.min(started), energy_j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_counts_noop() {
        assert_eq!(migration_cost(&[1, 2, 3], &[1, 2, 3]), (0, 0.0));
    }

    #[test]
    fn scale_up_is_pure_starts() {
        // 4 fresh starts, nothing stopped: no migration, 4 actions.
        assert_eq!(migration_cost(&[0, 1, 0], &[0, 3, 2]), (0, 20.0));
    }

    #[test]
    fn scale_down_is_pure_stops() {
        // 6 stops, nothing started: no migration, 6 actions.
        assert_eq!(migration_cost(&[2, 0, 5], &[1, 0, 0]), (0, 30.0));
    }

    #[test]
    fn architecture_swap_counts_migrations() {
        // 1 Big replaced by 16 Mediums + 1 Little: 1 stop and 17 starts
        // make one logical migration and 18 charged actions.
        assert_eq!(migration_cost(&[1, 0, 0], &[0, 16, 1]), (1, 90.0));
    }

    #[test]
    fn mixed_transition() {
        // 10 stops against 5 starts: 5 migrations, 15 actions.
        assert_eq!(migration_cost(&[2, 10, 0], &[3, 0, 4]), (5, 75.0));
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let _ = migration_cost(&[1, 2], &[1]);
    }
}
