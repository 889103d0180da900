//! Order statistics for the benchmark's timing metrics.
//!
//! Every timing is reported as a median and a *tail*: the highest
//! percentile on [`TAIL_LADDER`] that still has at least [`TAIL_BEYOND`]
//! samples beyond it, printed together with its sample count. Percentiles
//! use the nearest-rank method (`ceil(p/100 · n)`), the convention of
//! `psme_obs::Quantiles`.

/// Candidate tail percentiles, lowest first: the p50/p90/p99/p99.9 set
/// `psme_obs::Quantiles` reports.
pub const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples, in integer
/// hundredths of a percent so that e.g. p99.9 of 10000 is exactly 9990.
fn rank(p: f64, n: usize) -> usize {
    let bp = (p * 100.0).round() as usize;
    (bp * n).div_ceil(10_000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; NaN when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// Sort samples ascending (`+inf` marks a failed request and sorts last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The tail of a sample set, with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Chosen percentile.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Sample count.
    pub n: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Highest ladder percentile with at least [`TAIL_BEYOND`] samples beyond
/// its rank. With fewer than `2 · TAIL_BEYOND` samples no percentile
/// qualifies and the median is returned (its `beyond` says so).
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let pick = |p: f64| Tail {
        pct: p,
        value: percentile(sorted, p),
        n,
        beyond: n - rank(p, n).min(n),
    };
    TAIL_LADDER
        .iter()
        .rev()
        .map(|&p| pick(p))
        .find(|t| t.beyond >= TAIL_BEYOND)
        .unwrap_or_else(|| pick(50.0))
}

/// Median and tail of nanosecond samples, in milliseconds.
pub fn ms_p50_tail(ns: Vec<f64>) -> (f64, Tail) {
    let s = sorted(ns);
    let t = tail(&s);
    (
        percentile(&s, 50.0) * 1e-6,
        Tail {
            value: t.value * 1e-6,
            ..t
        },
    )
}

/// Median of unsorted values; NaN when empty.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&ramp(3), 50.0), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let t = tail(&ramp(1000));
        assert_eq!((t.pct, t.value, t.n, t.beyond), (99.0, 990.0, 1000, 10));
        // 999 samples: p99's rank is 990, leaving 9 — too few; p90 wins.
        let t = tail(&ramp(999));
        assert_eq!((t.pct, t.beyond), (90.0, 999 - 900));
        // 100 samples: p90 leaves exactly 10.
        let t = tail(&ramp(100));
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        // 10000 samples: p99.9 leaves exactly 10; 9999 fall back to p99.
        let t = tail(&ramp(10_000));
        assert_eq!((t.pct, t.value, t.beyond), (99.9, 9990.0, 10));
        assert_eq!(tail(&ramp(9_999)).pct, 99.0);
    }

    #[test]
    fn tail_falls_back_to_the_median_on_small_samples() {
        let t = tail(&ramp(15));
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 8.0, 7));
        let t = tail(&[]);
        assert_eq!((t.n, t.beyond), (0, 0));
    }

    #[test]
    fn failures_sort_last_and_count_as_missing_the_tail() {
        let mut v = ramp(90);
        v.extend(std::iter::repeat_n(f64::INFINITY, 10));
        let t = tail(&sorted(v));
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.value, 90.0);
        let mut v = ramp(89);
        v.extend(std::iter::repeat_n(f64::INFINITY, 11));
        assert!(tail(&sorted(v)).value.is_infinite());
    }
}
