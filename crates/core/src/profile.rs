//! Architecture profiles (paper Section IV, Step 1).
//!
//! A profile captures everything the BML methodology needs to know about one
//! machine type, obtained by profiling the target application on it:
//! idle/max power, maximum sustainable performance rate (in units of the
//! application metric, e.g. requests per second), and the duration/energy of
//! switch-on and switch-off transitions (paper Table I).
//!
//! Power between idle and max is modelled as *linear in the performance
//! rate*, exactly as the paper assumes ("We make the assumption of linear
//! power consumption", Sec. IV-A, citing Rivoire et al. for the error this
//! may introduce).

use crate::errors::BmlError;

/// Performance/power/transition profile of one machine architecture.
///
/// All power values are Watts, energies Joules, durations seconds and
/// performance rates are expressed in the application metric (the paper uses
/// HTTP requests processed per second).
#[derive(Debug, Clone, PartialEq)]
pub struct ArchProfile {
    /// Human-readable codename, e.g. `"paravance"`.
    pub name: String,
    /// Average power drawn when the machine is on but serving no load (W).
    pub idle_power: f64,
    /// Average power drawn at `max_perf` (W).
    pub max_power: f64,
    /// Maximum sustainable performance rate (application metric units/s).
    pub max_perf: f64,
    /// Duration of a switch-on (boot) transition (s).
    pub on_duration: f64,
    /// Energy consumed by one switch-on transition (J).
    pub on_energy: f64,
    /// Duration of a switch-off (shutdown) transition (s).
    pub off_duration: f64,
    /// Energy consumed by one switch-off transition (J).
    pub off_energy: f64,
}

impl ArchProfile {
    /// Build a profile, validating invariants (see [`ArchProfile::validate`]).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        idle_power: f64,
        max_power: f64,
        max_perf: f64,
        on_duration: f64,
        on_energy: f64,
        off_duration: f64,
        off_energy: f64,
    ) -> Result<Self, BmlError> {
        let p = Self {
            name: name.into(),
            idle_power,
            max_power,
            max_perf,
            on_duration,
            on_energy,
            off_duration,
            off_energy,
        };
        p.validate()?;
        Ok(p)
    }

    /// Profile with zero-cost instantaneous transitions; convenient for
    /// tests and for the theoretical lower bound scenario.
    pub fn without_transitions(
        name: impl Into<String>,
        idle_power: f64,
        max_power: f64,
        max_perf: f64,
    ) -> Result<Self, BmlError> {
        Self::new(name, idle_power, max_power, max_perf, 0.0, 0.0, 0.0, 0.0)
    }

    /// Check profile invariants: positive finite performance, power ordering
    /// `0 <= idle <= max`, non-negative transition costs.
    pub fn validate(&self) -> Result<(), BmlError> {
        let finite = [
            self.idle_power,
            self.max_power,
            self.max_perf,
            self.on_duration,
            self.on_energy,
            self.off_duration,
            self.off_energy,
        ]
        .iter()
        .all(|v| v.is_finite());
        if !finite {
            return Err(BmlError::InvalidProfile {
                name: self.name.clone(),
                reason: "all profile fields must be finite".into(),
            });
        }
        if self.max_perf <= 0.0 {
            return Err(BmlError::InvalidProfile {
                name: self.name.clone(),
                reason: format!("max_perf must be > 0, got {}", self.max_perf),
            });
        }
        if self.idle_power < 0.0 || self.max_power < self.idle_power {
            return Err(BmlError::InvalidProfile {
                name: self.name.clone(),
                reason: format!(
                    "power ordering violated: idle={} max={}",
                    self.idle_power, self.max_power
                ),
            });
        }
        if self.on_duration < 0.0
            || self.on_energy < 0.0
            || self.off_duration < 0.0
            || self.off_energy < 0.0
        {
            return Err(BmlError::InvalidProfile {
                name: self.name.clone(),
                reason: "transition durations/energies must be >= 0".into(),
            });
        }
        Ok(())
    }

    /// Dynamic power range (W): `max_power - idle_power`.
    #[inline]
    pub fn dynamic_range(&self) -> f64 {
        self.max_power - self.idle_power
    }

    /// Marginal power per unit of performance (W per metric unit):
    /// the slope of the linear power model.
    #[inline]
    pub fn slope(&self) -> f64 {
        self.dynamic_range() / self.max_perf
    }

    /// Power drawn by *one* node of this architecture serving `rate`
    /// (clamped to `[0, max_perf]`), per the linear model of Step 1.
    #[inline]
    pub fn power_at(&self, rate: f64) -> f64 {
        let r = rate.clamp(0.0, self.max_perf);
        self.idle_power + self.slope() * r
    }

    /// Watts consumed per unit of performance when the node is fully
    /// loaded — the architecture's best operating point ("architectures are
    /// the most energy efficient when fully loaded", Sec. IV-E).
    #[inline]
    pub fn full_load_cost(&self) -> f64 {
        self.max_power / self.max_perf
    }

    /// `true` if `self` performs no better than `other` while drawing at
    /// least as much peak power — i.e. `self` is dominated and can never
    /// improve energy proportionality (Step 2 removal criterion).
    pub fn is_dominated_by(&self, other: &ArchProfile) -> bool {
        self.max_perf <= other.max_perf
            && self.max_power >= other.max_power
            && (self.max_perf < other.max_perf || self.max_power > other.max_power)
    }
}

/// Power of the cheapest *homogeneous stack* of this architecture serving
/// `rate`: `ceil(rate / max_perf)` nodes, loads split among them.
///
/// With the linear model the split does not change total power: the total
/// is `n * idle + slope * rate`. This is the staircase curve of Figs. 1-2,
/// where each architecture's profile "is repeated to picture multiple
/// nodes".
pub fn stack_power(p: &ArchProfile, rate: f64) -> f64 {
    if rate <= 0.0 {
        return 0.0;
    }
    let nodes = (rate / p.max_perf).ceil().max(1.0);
    nodes * p.idle_power + p.slope() * rate
}

/// Number of nodes in the cheapest homogeneous stack serving `rate`.
pub fn stack_nodes(p: &ArchProfile, rate: f64) -> u32 {
    if rate <= 0.0 {
        0
    } else {
        (rate / p.max_perf).ceil() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rasp() -> ArchProfile {
        ArchProfile::new("raspberry", 3.1, 3.7, 9.0, 16.0, 40.5, 14.0, 36.2).unwrap()
    }

    #[test]
    fn linear_power_model_endpoints() {
        let p = rasp();
        assert!((p.power_at(0.0) - 3.1).abs() < 1e-12);
        assert!((p.power_at(9.0) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn power_clamps_outside_range() {
        let p = rasp();
        assert_eq!(p.power_at(-5.0), p.power_at(0.0));
        assert_eq!(p.power_at(100.0), p.power_at(9.0));
    }

    #[test]
    fn slope_and_range() {
        let p = rasp();
        assert!((p.dynamic_range() - 0.6).abs() < 1e-12);
        assert!((p.slope() - 0.6 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn full_load_cost_is_best_point() {
        let p = rasp();
        // W per req/s at full load must be below W per req/s at any partial load.
        for r in 1..9 {
            let partial = p.power_at(r as f64) / r as f64;
            assert!(p.full_load_cost() < partial, "rate {r}");
        }
    }

    #[test]
    fn validation_rejects_bad_profiles() {
        assert!(ArchProfile::new("x", 1.0, 0.5, 10.0, 0.0, 0.0, 0.0, 0.0).is_err());
        assert!(ArchProfile::new("x", 1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0).is_err());
        assert!(ArchProfile::new("x", -1.0, 2.0, 10.0, 0.0, 0.0, 0.0, 0.0).is_err());
        assert!(ArchProfile::new("x", 1.0, 2.0, 10.0, -1.0, 0.0, 0.0, 0.0).is_err());
        assert!(ArchProfile::new("x", f64::NAN, 2.0, 10.0, 0.0, 0.0, 0.0, 0.0).is_err());
    }

    #[test]
    fn stack_power_staircase() {
        let p = rasp();
        // 1 node up to 9 req/s.
        assert_eq!(stack_nodes(&p, 9.0), 1);
        // 2 nodes from 9+eps to 18.
        assert_eq!(stack_nodes(&p, 9.01), 2);
        assert_eq!(stack_nodes(&p, 18.0), 2);
        // Power at 10 req/s: 2 idles + slope * 10.
        let expected = 2.0 * 3.1 + (0.6 / 9.0) * 10.0;
        assert!((stack_power(&p, 10.0) - expected).abs() < 1e-9);
    }

    #[test]
    fn stack_power_zero_rate_is_zero_nodes() {
        let p = rasp();
        assert_eq!(stack_power(&p, 0.0), 0.0);
        assert_eq!(stack_nodes(&p, 0.0), 0);
    }

    #[test]
    fn domination() {
        // Taurus is dominated by Paravance: slower yet hungrier.
        let par = ArchProfile::new(
            "paravance",
            69.9,
            200.5,
            1331.0,
            189.0,
            21341.0,
            10.0,
            657.0,
        )
        .unwrap();
        let tau =
            ArchProfile::new("taurus", 95.8, 223.7, 860.0, 164.0, 20628.0, 11.0, 1173.0).unwrap();
        assert!(tau.is_dominated_by(&par));
        assert!(!par.is_dominated_by(&tau));
        // A profile never dominates itself.
        assert!(!par.is_dominated_by(&par));
    }
}
