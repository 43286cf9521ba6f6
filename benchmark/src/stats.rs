//! Order statistics over timing samples.
//!
//! Latency percentiles are nearest-rank (the value reported was observed);
//! medians of a handful of repetitions or segments average the two middle
//! values, so an even count does not pick a side.

/// Ascending copy of `values`. Samples are finite by construction
/// (durations and counts), so `total_cmp` is a plain numeric order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `q` in `(0, 1]` of an ascending list: the
/// smallest sample with at least a share `q` of the samples at or below it.
/// Zero for an empty list.
pub fn percentile(ascending: &[f64], q: f64) -> f64 {
    if ascending.is_empty() {
        return 0.0;
    }
    let rank = ((q * ascending.len() as f64).ceil() as usize).clamp(1, ascending.len());
    ascending[rank - 1]
}

/// Median of an unordered list (mean of the two middle values for an even
/// count). Zero for an empty list.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median with quartiles and the sample count, as printed beside every
/// timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

pub fn summary(values: &[f64]) -> Summary {
    let v = sorted(values);
    Summary {
        median: median(&v),
        q1: percentile(&v, 0.25),
        q3: percentile(&v, 0.75),
        n: v.len(),
    }
}

/// The statistic of each slice of a sample, then the lowest across slices.
///
/// For per-request latency on a shared host: interference from outside the
/// process only ever adds latency, and it comes in bursts of a second or
/// more, so the least disturbed of twenty short slices says what the program
/// does, and the median of them says what the neighbours did (README,
/// "Steadiness").
pub fn best_slice<'a>(
    slices: impl Iterator<Item = &'a [f64]>,
    stat: impl Fn(&[f64]) -> f64,
) -> f64 {
    slices
        .map(|s| stat(&sorted(s)))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn summary_reports_quartiles_and_count() {
        let s = summary(&[8.0, 1.0, 5.0, 3.0, 2.0, 7.0, 4.0, 6.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 4.5, 6.0, 8));
    }

    #[test]
    fn best_slice_is_the_least_disturbed_one() {
        let samples = [100.0, 200.0, 300.0, 3.0, 1.0, 2.0, 2.0, 3.0, 4.0, 9.0];
        // The incomplete last slice is left out.
        let slices = || samples.chunks_exact(3);
        assert_eq!(best_slice(slices(), |s| percentile(s, 0.5)), 2.0);
        assert_eq!(best_slice(slices(), |s| percentile(s, 0.9)), 3.0);
    }
}
