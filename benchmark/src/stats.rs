//! Sample statistics: medians, the tail-percentile rule, and the
//! median-vs-bound regression test.

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `xs`; `NaN` for an empty slice.
pub fn minimum(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Percentiles a tail is reported at, lowest first.
const TAIL_LADDER: [f64; 7] = [50.0, 80.0, 90.0, 95.0, 98.0, 99.0, 99.9];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it, with its nearest-rank value: `(percentile,
/// value)`. `None` below 20 samples, where not even the median has ten
/// samples above it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    // 1-based nearest rank of percentile `p`.
    let rank = |p: f64| ((p * n as f64 / 100.0).ceil() as usize).max(1);
    let p = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n >= rank(p) + 10)?;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some((p, v[rank(p) - 1]))
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// Whether `new` is worse than `base` by more than `bound`, a share of
/// `base` (`0.1` = 10 %).
pub fn regressed(base: f64, new: f64, bound: f64, better: Better) -> bool {
    let worse_by = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    worse_by > bound * base.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_minimum() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(minimum(&[3.0, 1.0, 2.0]), 1.0);
        assert!(minimum(&[]).is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&samples(19)), None);
        // 20 samples: only the median keeps ten above it.
        assert_eq!(tail(&samples(20)), Some((50.0, 10.0)));
        // 64 samples: p80 leaves 12.8 beyond, p90 only 6.4.
        assert_eq!(tail(&samples(64)), Some((80.0, 52.0)));
        // 100 samples: p90 leaves exactly ten.
        assert_eq!(tail(&samples(100)), Some((90.0, 90.0)));
        // 600 samples: p98 leaves 12, p99 only 6.
        assert_eq!(tail(&samples(600)), Some((98.0, 588.0)));
        // Order of the input does not matter.
        let mut rev = samples(64);
        rev.reverse();
        assert_eq!(tail(&rev), Some((80.0, 52.0)));
    }

    #[test]
    fn regression_is_judged_against_the_bound_in_the_worse_direction() {
        // Lower is better: a rise beyond the bound regresses.
        assert!(!regressed(100.0, 109.0, 0.1, Better::Lower));
        assert!(regressed(100.0, 111.0, 0.1, Better::Lower));
        assert!(!regressed(100.0, 50.0, 0.1, Better::Lower));
        // Higher is better: a fall beyond the bound regresses.
        assert!(!regressed(100.0, 91.0, 0.1, Better::Higher));
        assert!(regressed(100.0, 89.0, 0.1, Better::Higher));
        assert!(!regressed(100.0, 150.0, 0.1, Better::Higher));
        // Exactly at the bound is not a regression.
        assert!(!regressed(100.0, 110.0, 0.1, Better::Lower));
    }
}
