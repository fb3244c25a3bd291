//! Order statistics over a run's samples.

use std::collections::BTreeMap;

/// The median (mean of the middle two for even counts); 0 when empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A tail order statistic and the percentile it sits at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Whole percentile, 50..=99.
    pub pct: u32,
    /// The nearest-rank sample at `pct`.
    pub value: f64,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest whole percentile, at most 99, with at least
/// [`TAIL_BEYOND`] samples beyond it, and its nearest-rank value. Too
/// few samples for any percentile above the median fall back to p50.
#[must_use]
pub fn tail(xs: &[f64]) -> Tail {
    let pct = tail_pct(xs.len());
    Tail {
        pct: u32::try_from(pct).expect("pct <= 99"),
        value: percentile(xs, pct),
    }
}

/// The percentile [`tail`] reports for `n` samples.
#[must_use]
pub fn tail_pct(n: usize) -> usize {
    (50..=99)
        .rev()
        .find(|&p| n >= rank(p, n) + TAIL_BEYOND)
        .unwrap_or(50)
}

/// The nearest-rank sample at whole percentile `pct`; 0 when empty.
#[must_use]
pub fn percentile(xs: &[f64], pct: usize) -> f64 {
    sorted(xs)
        .get(rank(pct, xs.len()) - 1)
        .copied()
        .unwrap_or(0.0)
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(pct: usize, n: usize) -> usize {
    (pct * n).div_ceil(100).max(1)
}

/// Quantile `q` of a bucketed distribution given as
/// `upper_bound -> count`: the upper bound of the bucket holding the
/// `q`-th sample; 0 when empty.
#[must_use]
pub fn bucket_quantile(buckets: &BTreeMap<u64, u64>, q: f64) -> u64 {
    let total: u64 = buckets.values().sum();
    if total == 0 {
        return 0;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (&ub, &c) in buckets {
        seen += c;
        if seen >= rank {
            return ub;
        }
    }
    0
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            tail(&xs),
            Tail {
                pct: 90,
                value: 90.0
            }
        );
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        // p75 is rank 30, leaving exactly ten beyond.
        assert_eq!(
            tail(&xs),
            Tail {
                pct: 75,
                value: 30.0
            }
        );
        let xs: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&xs).pct, 99);
        assert_eq!(tail(&[7.0; 12]).pct, 50);
    }

    #[test]
    fn bucket_quantile_walks_cumulative_counts() {
        let b: BTreeMap<u64, u64> = [(0, 5), (10, 4), (20, 1)].into_iter().collect();
        assert_eq!(bucket_quantile(&b, 0.5), 0);
        assert_eq!(bucket_quantile(&b, 0.9), 10);
        assert_eq!(bucket_quantile(&b, 0.99), 20);
    }
}
