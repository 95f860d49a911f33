//! Percentiles of samples and the best/median/quartile summary of repeats.

/// Which way a metric improves.
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

/// The nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it.  0 for no samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail percentile needs this many samples beyond it to be worth quoting.
pub const SAMPLES_BEYOND_TAIL: usize = 10;

/// The highest of the 99th, 95th and 90th percentiles that leaves at least
/// [`SAMPLES_BEYOND_TAIL`] samples beyond it, as `(p, value)`; with too few
/// samples for any of them, the maximum (`p = 1`).
pub fn tail(sorted: &[u64]) -> (f64, u64) {
    [0.99, 0.95, 0.90]
        .into_iter()
        .find(|p| ((1.0 - p) * sorted.len() as f64).round() as usize >= SAMPLES_BEYOND_TAIL)
        .map_or((1.0, sorted.last().copied().unwrap_or(0)), |p| {
            (p, percentile(sorted, p))
        })
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method), so
/// a spread computed here equals one computed over the printed values.
/// One value is its own quartiles; none gives zeros.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("measured values are finite"));
    let n = sorted.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (sorted[0], sorted[0], sorted[0]),
        _ => {}
    }
    let at = |quarter: usize| {
        // Position quarter·(n+1)/4 on a 1-based scale, clamped to the data.
        let j = (quarter * (n + 1) / 4).clamp(1, n - 1);
        let delta = (quarter * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// The repeats of one metric, summarised.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The least-disturbed repeat: the maximum of a rate, the minimum of a
    /// time.  Every workload is deterministic, so interference from the host
    /// only ever makes a repeat worse.
    pub best: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The repeats in the order they ran.
    pub values: Vec<f64>,
}

impl Summary {
    pub fn of(values: Vec<f64>, better: Better) -> Summary {
        let fold = match better {
            Better::Higher => f64::max,
            Better::Lower => f64::min,
        };
        let best = values.iter().copied().reduce(fold).unwrap_or(0.0);
        let (q1, median, q3) = quartiles(&values);
        Summary {
            best,
            median,
            q1,
            q3,
            values,
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.50), 50);
        assert_eq!(percentile(&samples, 0.99), 99);
        assert_eq!(percentile(&samples, 1.0), 100);
        assert_eq!(percentile(&samples, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // 600 samples leave six beyond the 99th percentile.
        let six_hundred: Vec<u64> = (1..=600).collect();
        assert_eq!(percentile(&six_hundred, 0.99), 594);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let samples = |n: u64| (1..=n).collect::<Vec<u64>>();
        // 100 000 and 1 000 samples: the 99th percentile qualifies.
        assert_eq!(tail(&samples(100_000)), (0.99, 99_000));
        assert_eq!(tail(&samples(1_000)), (0.99, 990));
        // 600 samples leave 6 beyond p99 but 30 beyond p95.
        assert_eq!(tail(&samples(600)), (0.95, 570));
        // 160 samples leave 8 beyond p95 but 16 beyond p90.
        assert_eq!(tail(&samples(160)), (0.90, 144));
        // Too few for any percentile: the maximum.
        assert_eq!(tail(&samples(12)), (1.0, 12));
        assert_eq!(tail(&[42]), (1.0, 42));
        assert_eq!(tail(&[]), (1.0, 0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]),
            (15.0, 30.0, 45.0)
        );
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn best_follows_the_direction_of_the_metric() {
        let rate = Summary::of(vec![19.0, 21.0, 20.0], Better::Higher);
        assert_eq!(rate.best, 21.0);
        assert_eq!(rate.median, 20.0);
        let time = Summary::of(vec![19.0, 21.0, 20.0], Better::Lower);
        assert_eq!(time.best, 19.0);
        assert_eq!((time.q1, time.q3), (19.0, 21.0));
        assert!((time.spread() - 0.1).abs() < 1e-12);
        assert_eq!(Summary::of(vec![], Better::Lower).best, 0.0);
        assert_eq!(Summary::of(vec![0.0, 0.0], Better::Lower).spread(), 0.0);
    }
}
