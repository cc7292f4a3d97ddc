//! The benchmark's own arithmetic: medians and quantiles, the
//! tail-percentile rule, and the failure share.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty sample — every caller measures at least once.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of `xs`, `0 ≤ q ≤ 1`, interpolated linearly between
/// the two nearest ranks (`q = 0.5` is the [`median`]).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A tail latency read off a sample by [`tail`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the chosen rank.
    pub value: f64,
    /// The percentile that value stands for, in `(0, 1]`.
    pub percentile: f64,
    /// Samples strictly beyond the chosen rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Samples a tail percentile must leave beyond itself to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile, capped at `cap` (e.g. 0.99), that leaves at
/// least [`TAIL_BEYOND`] samples beyond it (nearest-rank). p99 needs 1000
/// samples and p90 needs 100; a sample with fewer reports the percentile
/// it can support. With `2 × TAIL_BEYOND` samples or fewer that
/// percentile would not lie above the median, and the maximum is reported
/// as percentile 1.
pub fn tail(xs: &[f64], cap: f64) -> Tail {
    assert!(!xs.is_empty(), "tail of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 2 * TAIL_BEYOND {
        return Tail {
            value: v[n - 1],
            percentile: 1.0,
            beyond: 0,
            samples: n,
        };
    }
    // Nearest rank of the cap is ceil(cap·n); the rule caps it at n − 10.
    let rank = ((cap * n as f64).ceil() as usize).clamp(1, n - TAIL_BEYOND);
    Tail {
        value: v[rank - 1],
        percentile: rank as f64 / n as f64,
        beyond: n - rank,
        samples: n,
    }
}

/// Share of attempted operations that failed.
pub fn failure_share(attempted: u64, failed: u64) -> f64 {
    assert!(attempted > 0, "failure share needs at least one attempt");
    failed as f64 / attempted as f64
}

/// Relative error with a floor of one unit on `|f|`: `|f − f̂| / max(|f|, 1)`.
/// Equal to the paper's `|f − f̂| / |f|` whenever `f ≠ 0`, and finite when
/// a boundary lands exactly on `f = 0`.
pub fn floored_rel_err(f: i64, fhat: i64) -> f64 {
    (f - fhat).unsigned_abs() as f64 / (f.unsigned_abs().max(1)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so sorting is exercised.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        assert_eq!(quantile(&ramp(5), 0.25), 2.0);
        assert_eq!(quantile(&ramp(4), 0.75), 3.25);
        assert_eq!(quantile(&ramp(4), 0.0), 1.0);
        assert_eq!(quantile(&ramp(4), 1.0), 4.0);
        assert_eq!(quantile(&[9.0], 0.25), 9.0);
        for n in [1, 2, 7, 10] {
            assert_eq!(quantile(&ramp(n), 0.5), median(&ramp(n)), "n = {n}");
        }
    }

    #[test]
    fn tail_is_p99_from_1000_samples() {
        let t = tail(&ramp(1000), 0.99);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 0.99);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 1000);
    }

    #[test]
    fn tail_above_1000_samples_stays_at_p99() {
        let t = tail(&ramp(5000), 0.99);
        assert_eq!(t.value, 4950.0);
        assert_eq!(t.beyond, 50);
        assert!((t.percentile - 0.99).abs() < 1e-12);
    }

    #[test]
    fn tail_below_1000_samples_keeps_ten_beyond() {
        for n in [21, 22, 57, 200, 999] {
            let t = tail(&ramp(n), 0.99);
            assert_eq!(t.beyond, TAIL_BEYOND, "n = {n}");
            assert_eq!(t.value, (n - TAIL_BEYOND) as f64, "n = {n}");
            assert!(t.percentile < 0.99, "n = {n}");
        }
        let t = tail(&ramp(500), 0.99);
        assert_eq!(t.percentile, 0.98);
    }

    #[test]
    fn tail_of_twenty_or_fewer_samples_is_the_maximum() {
        let t = tail(&ramp(20), 0.99);
        assert_eq!(t.value, 20.0);
        assert_eq!(t.percentile, 1.0);
        assert_eq!(t.beyond, 0);
        assert_eq!(tail(&[5.0], 0.9).value, 5.0);
    }

    #[test]
    fn tail_is_p90_from_100_samples_under_a_p90_cap() {
        let t = tail(&ramp(100), 0.9);
        assert_eq!((t.value, t.percentile, t.beyond), (90.0, 0.9, 10));
        let t = tail(&ramp(1000), 0.9);
        assert_eq!((t.value, t.beyond), (900.0, 100));
        let t = tail(&ramp(50), 0.9);
        assert_eq!((t.value, t.beyond), (40.0, 10));
    }

    #[test]
    fn failure_share_counts_failed_over_attempted() {
        assert_eq!(failure_share(1000, 0), 0.0);
        assert_eq!(failure_share(1000, 25), 0.025);
        assert_eq!(failure_share(4, 4), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn failure_share_needs_an_attempt() {
        failure_share(0, 0);
    }

    #[test]
    fn floored_error_matches_relative_error_off_zero() {
        assert_eq!(floored_rel_err(100, 90), 0.1);
        assert_eq!(floored_rel_err(-50, -40), 0.2);
        assert_eq!(floored_rel_err(0, 3), 3.0);
        assert_eq!(floored_rel_err(0, 0), 0.0);
    }
}
