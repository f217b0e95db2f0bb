//! Per-second workload traces.
//!
//! A [`LoadTrace`] stores the application load (in application-metric
//! units, e.g. requests per second) for every second of an experiment —
//! the same granularity as the paper's simulator, which slides its
//! prediction window "one time step forwards, a second in this case".

/// Seconds per day, the paper's Fig. 5 aggregation unit.
pub const SECONDS_PER_DAY: u64 = 86_400;

/// A per-second load trace.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadTrace {
    /// Label of the first day in the trace (the paper's World Cup slice
    /// starts at day 6).
    pub first_day: u32,
    /// One load value per second.
    pub rates: Vec<f64>,
}

impl LoadTrace {
    /// Build a trace from raw per-second rates.
    pub fn new(first_day: u32, rates: Vec<f64>) -> Self {
        LoadTrace { first_day, rates }
    }

    /// Number of seconds covered.
    pub fn len(&self) -> u64 {
        self.rates.len() as u64
    }

    /// `true` if the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Load at second `t` (0 outside the trace).
    #[inline]
    pub fn get(&self, t: u64) -> f64 {
        self.rates.get(t as usize).copied().unwrap_or(0.0)
    }

    /// End (exclusive) of the maximal constant-load run containing
    /// second `t` — the raw-load sub-segment boundary the event-driven
    /// replay batches power/QoS accounting over. `t` past the end of the
    /// trace returns `len()`.
    #[inline]
    pub fn run_end(&self, t: u64) -> u64 {
        crate::segments::run_end(&self.rates, t)
    }

    /// Iterate the maximal runs of constant load.
    pub fn constant_runs(&self) -> crate::segments::ConstantRuns<'_> {
        crate::segments::constant_runs(&self.rates)
    }

    /// Maximum load over the whole trace.
    pub fn max(&self) -> f64 {
        self.rates.iter().copied().fold(0.0, f64::max)
    }

    /// Mean load over the whole trace (0 for an empty trace).
    pub fn mean(&self) -> f64 {
        if self.rates.is_empty() {
            0.0
        } else {
            self.rates.iter().sum::<f64>() / self.rates.len() as f64
        }
    }

    /// Maximum load within `[from, to)` (clamped to the trace).
    pub fn max_in(&self, from: u64, to: u64) -> f64 {
        let from = (from as usize).min(self.rates.len());
        let to = (to as usize).min(self.rates.len());
        self.rates[from..to].iter().copied().fold(0.0, f64::max)
    }

    /// Number of complete or partial days covered.
    pub fn n_days(&self) -> u32 {
        self.rates.len().div_ceil(SECONDS_PER_DAY as usize) as u32
    }

    /// The rates of day `i` (0-based within the trace; day label is
    /// `first_day + i`). Empty slice when out of range.
    pub fn day(&self, i: u32) -> &[f64] {
        let start = (i as usize) * SECONDS_PER_DAY as usize;
        let end = (start + SECONDS_PER_DAY as usize).min(self.rates.len());
        if start >= self.rates.len() {
            &[]
        } else {
            &self.rates[start..end]
        }
    }

    /// Daily maximum loads, one entry per day — the dimensioning input of
    /// the paper's `UpperBound PerDay` scenario.
    pub fn daily_max(&self) -> Vec<f64> {
        (0..self.n_days())
            .map(|d| self.day(d).iter().copied().fold(0.0, f64::max))
            .collect()
    }

    /// Serialize to the simple CSV interchange format
    /// (`second,rate` rows; header line included).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.rates.len() * 12 + 32);
        out.push_str(&format!("# first_day={}\nsecond,rate\n", self.first_day));
        for (t, r) in self.rates.iter().enumerate() {
            out.push_str(&format!("{t},{r}\n"));
        }
        out
    }

    /// Parse the CSV interchange format produced by [`LoadTrace::to_csv`].
    /// Missing seconds are filled with 0; rows may arrive out of order.
    pub fn from_csv(text: &str) -> Result<Self, TraceParseError> {
        let mut first_day = 0u32;
        let mut samples: Vec<(u64, f64)> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line == "second,rate" {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                if let Some(v) = rest.trim().strip_prefix("first_day=") {
                    first_day = v.trim().parse().map_err(|_| TraceParseError {
                        line: lineno + 1,
                        message: format!("bad first_day value '{v}'"),
                    })?;
                }
                continue;
            }
            let (a, b) = line.split_once(',').ok_or_else(|| TraceParseError {
                line: lineno + 1,
                message: "expected 'second,rate'".into(),
            })?;
            let t: u64 = a.trim().parse().map_err(|_| TraceParseError {
                line: lineno + 1,
                message: format!("bad second '{a}'"),
            })?;
            let r: f64 = b.trim().parse().map_err(|_| TraceParseError {
                line: lineno + 1,
                message: format!("bad rate '{b}'"),
            })?;
            if !r.is_finite() || r < 0.0 {
                return Err(TraceParseError {
                    line: lineno + 1,
                    message: format!("rate must be finite and >= 0, got {r}"),
                });
            }
            samples.push((t, r));
        }
        let len = samples.iter().map(|&(t, _)| t + 1).max().unwrap_or(0);
        let mut rates = vec![0.0; len as usize];
        for (t, r) in samples {
            rates[t as usize] = r;
        }
        Ok(LoadTrace { first_day, rates })
    }
}

/// Error parsing a CSV trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending row.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for TraceParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> LoadTrace {
        LoadTrace::new(6, vec![1.0, 5.0, 3.0, 9.0, 2.0])
    }

    #[test]
    fn basic_accessors() {
        let t = trace();
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.get(3), 9.0);
        assert_eq!(t.get(99), 0.0);
        assert_eq!(t.max(), 9.0);
        assert!((t.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn max_in_window() {
        let t = trace();
        assert_eq!(t.max_in(0, 2), 5.0);
        assert_eq!(t.max_in(2, 4), 9.0);
        assert_eq!(t.max_in(4, 100), 2.0);
        assert_eq!(t.max_in(100, 200), 0.0);
        assert_eq!(t.max_in(3, 3), 0.0);
    }

    #[test]
    fn day_slicing() {
        let mut rates = vec![1.0; SECONDS_PER_DAY as usize];
        rates.extend(vec![2.0; 100]);
        let t = LoadTrace::new(6, rates);
        assert_eq!(t.n_days(), 2);
        assert_eq!(t.day(0).len(), SECONDS_PER_DAY as usize);
        assert_eq!(t.day(1).len(), 100);
        assert!(t.day(2).is_empty());
        assert_eq!(t.daily_max(), vec![1.0, 2.0]);
    }

    #[test]
    fn empty_trace() {
        let t = LoadTrace::new(0, vec![]);
        assert!(t.is_empty());
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max(), 0.0);
        assert_eq!(t.n_days(), 0);
        assert!(t.daily_max().is_empty());
    }

    #[test]
    fn csv_roundtrip() {
        let t = trace();
        let parsed = LoadTrace::from_csv(&t.to_csv()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn csv_out_of_order_and_gaps() {
        let t = LoadTrace::from_csv("second,rate\n3,9.5\n0,1\n").unwrap();
        assert_eq!(t.rates, vec![1.0, 0.0, 0.0, 9.5]);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(LoadTrace::from_csv("second,rate\nxyz").is_err());
        assert!(LoadTrace::from_csv("1,abc").is_err());
        assert!(LoadTrace::from_csv("a,1").is_err());
        assert!(LoadTrace::from_csv("0,-3").is_err());
        assert!(LoadTrace::from_csv("0,NaN").is_err());
        let err = LoadTrace::from_csv("second,rate\n0,1\nbad").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("line 3"));
    }

    #[test]
    fn csv_preserves_first_day() {
        let t = LoadTrace::new(42, vec![7.0]);
        let parsed = LoadTrace::from_csv(&t.to_csv()).unwrap();
        assert_eq!(parsed.first_day, 42);
    }
}
