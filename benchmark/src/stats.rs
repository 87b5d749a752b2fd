//! Small statistics: medians, the percentile a sample count can support,
//! and the regression-bound comparator `--selfcheck` uses.

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: both are bugs in the caller.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_SAMPLES_BEYOND: f64 = 10.0;
/// 100 - 99.9 is not exactly 0.1 in binary; without slack 10 000 samples
/// would not support p99.9.
const ROUNDING_SLACK: f64 = 1e-6;

/// The highest of `candidates` (percentiles, ascending) that still has at
/// least ten of `count` samples beyond it; `None` if not even the lowest.
pub fn highest_supported_percentile(count: u64, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .rfind(|p| count as f64 * (100.0 - p) / 100.0 + ROUNDING_SLACK >= MIN_SAMPLES_BEYOND)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How far a metric may move between two sets of runs of the same code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Worse by at most this share of the base value.
    Relative(f64),
    /// Worse by at most `rel` of the base or `floor` in the metric's own
    /// unit, whichever is larger (small bases are all noise).
    RelativeOrFloor { rel: f64, floor: f64 },
    /// Simulated results: must repeat exactly, in both directions.
    Exact,
}

impl Bound {
    /// Whether `new` is within this bound of `base`.
    pub fn holds(self, better: Better, base: f64, new: f64) -> bool {
        let worse_by = match better {
            Better::Higher => base - new,
            Better::Lower => new - base,
        };
        match self {
            Bound::Relative(rel) => worse_by <= rel * base.abs(),
            Bound::RelativeOrFloor { rel, floor } => worse_by <= (rel * base.abs()).max(floor),
            Bound::Exact => base == new,
        }
    }
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bound::Relative(rel) => write!(f, "{:.0}%", rel * 100.0),
            Bound::RelativeOrFloor { rel, floor } => {
                write!(f, "max({:.0}%, {floor})", rel * 100.0)
            }
            Bound::Exact => write!(f, "exact"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_picker_wants_ten_samples_beyond() {
        let c = [50.0, 90.0, 99.0, 99.9, 99.99];
        assert_eq!(highest_supported_percentile(19, &c), None);
        assert_eq!(highest_supported_percentile(20, &c), Some(50.0));
        assert_eq!(highest_supported_percentile(999, &c), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000, &c), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000, &c), Some(99.9));
        assert_eq!(highest_supported_percentile(1_000_000, &c), Some(99.99));
    }

    #[test]
    fn relative_bound_is_one_sided() {
        let b = Bound::Relative(0.10);
        assert!(b.holds(Better::Higher, 100.0, 90.0));
        assert!(!b.holds(Better::Higher, 100.0, 89.9));
        assert!(
            b.holds(Better::Higher, 100.0, 500.0),
            "better is never a breach"
        );
        assert!(b.holds(Better::Lower, 100.0, 110.0));
        assert!(!b.holds(Better::Lower, 100.0, 110.1));
        assert!(b.holds(Better::Lower, 100.0, 1.0));
    }

    #[test]
    fn floor_takes_over_for_small_bases() {
        let b = Bound::RelativeOrFloor {
            rel: 0.10,
            floor: 0.05,
        };
        assert!(
            b.holds(Better::Lower, 0.1, 0.149),
            "10% of 0.1 s is under the floor"
        );
        assert!(!b.holds(Better::Lower, 0.1, 0.151));
        assert!(
            b.holds(Better::Lower, 10.0, 10.9),
            "large bases use the share"
        );
        assert!(!b.holds(Better::Lower, 10.0, 11.1));
    }

    #[test]
    fn exact_bound_rejects_any_difference() {
        assert!(Bound::Exact.holds(Better::Lower, 123.456, 123.456));
        assert!(!Bound::Exact.holds(Better::Lower, 123.456, 123.455));
        assert!(!Bound::Exact.holds(Better::Higher, 123.456, 123.457));
    }
}
