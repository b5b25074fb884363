//! Order statistics for latency samples.
//!
//! Timings are reported as a median plus the highest percentile that
//! still has at least ten samples beyond it, with the sample count —
//! tails with fewer samples behind them are noise, not measurements.

/// Percentiles the tail selection may report, ascending.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted, non-empty slice:
/// the smallest sample with at least `p` percent of the samples at or
/// below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// epsilon keeps a product that is a whole number in exact arithmetic
/// (99.9 % of 10 000) from rounding up to the next rank.
fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// The highest ladder percentile with at least ten samples strictly
/// beyond its nearest rank, or `None` below 20 samples (where not even
/// the median qualifies).
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|&p| n.saturating_sub(nearest_rank(n, p)) >= MIN_BEYOND)
}

/// Median, supported tail, and count of one latency series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub count: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Highest percentile with ≥ 10 samples beyond it, if any.
    pub tail_pct: Option<f64>,
    /// The value at `tail_pct` (the median when no tail qualifies).
    pub tail: f64,
}

/// Summarizes `samples` (any order, non-empty).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = percentile(&sorted, 50.0);
    let tail_pct = supported_tail(sorted.len());
    Summary {
        count: sorted.len(),
        p50,
        tail_pct,
        tail: tail_pct.map_or(p50, |p| percentile(&sorted, p)),
    }
}

/// Nearest-rank median of `samples` (any order, non-empty).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 5.0), 15.0);
        assert_eq!(percentile(&s, 30.0), 20.0);
        assert_eq!(percentile(&s, 40.0), 20.0);
        assert_eq!(percentile(&s, 50.0), 35.0);
        assert_eq!(percentile(&s, 100.0), 50.0);
        // Even counts take the lower middle, never an interpolation.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert_eq!(percentile(&[7.0, 9.0], 0.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(19), None);
        // 20 samples: rank(p50) = 10, ten beyond.
        assert_eq!(supported_tail(20), Some(50.0));
        // 40 samples: rank(p75) = 30, ten beyond; p90 leaves four.
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(99), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn summary_is_order_independent() {
        let a = summarize(&[3.0, 1.0, 2.0]);
        let b = summarize(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
        assert_eq!(a.p50, 2.0);
        assert_eq!(a.tail_pct, None);
        assert_eq!(a.tail, 2.0);
        let many: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = summarize(&many);
        assert_eq!(
            (s.count, s.p50, s.tail_pct, s.tail),
            (100, 50.0, Some(90.0), 90.0)
        );
    }
}
