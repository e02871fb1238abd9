//! Order statistics for the reported timings.

/// Percentile levels a tail may be reported at, in tenths of a percent,
/// highest first.
const TAIL_LEVELS: [u32; 6] = [999, 990, 950, 900, 750, 500];

/// Median, averaging the two middle values of an even-sized sample.
///
/// # Panics
///
/// Panics on an empty or non-finite sample: every timing is a finite
/// duration, so either is a bug in the benchmark.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Nearest-rank percentile (0–100).
///
/// # Panics
///
/// As [`median`].
pub fn percentile(samples: &[f64], level: f64) -> f64 {
    let sorted = sorted(samples);
    let rank = (level / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile level with at least ten of `n` samples beyond it,
/// or `None` when `n` is too small for even the median.
///
/// A workload fixes its tail level from the number of samples every run is
/// guaranteed to take, so runs that happen to take more samples still report
/// the same percentile.
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .into_iter()
        .find(|&level| n * (1000 - level as usize) / 1000 >= 10)
        .map(|level| f64::from(level) / 10.0)
}

/// Mean of a non-empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "order statistic of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(50.0));
        assert_eq!(tail_level(40), Some(75.0));
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(199), Some(90.0));
        assert_eq!(tail_level(200), Some(95.0));
        assert_eq!(tail_level(10_000), Some(99.9));
    }
}
