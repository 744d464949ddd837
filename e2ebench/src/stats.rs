//! Order statistics for latency samples.

/// Percentiles tried, highest first, when choosing the tail percentile a
/// sample set supports.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps e.g. 99.9 % of 10 000 at rank 9990, not 9991.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples strictly
/// beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && n - nearest_rank(n, p) >= TAIL_BEYOND)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// A latency sample set (milliseconds) summarised the way the benchmark
/// reports it.
#[derive(Debug, Clone)]
pub struct Latencies {
    sorted: Vec<f64>,
}

impl Latencies {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile, `0.0` for an empty set.
    pub fn p(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            0.0
        } else {
            percentile(&self.sorted, p)
        }
    }

    /// One human-readable line: count, median, p99 and the tail percentile
    /// the count supports.
    pub fn describe(&self, what: &str) -> String {
        let tail = match tail_percentile(self.count()) {
            Some(p) => format!("p{p} = {:.3} ms", self.p(p)),
            None => "no percentile has 10 samples beyond it".to_owned(),
        };
        format!(
            "{what}: n = {}, p50 = {:.3} ms, p99 = {:.3} ms, highest supported tail {tail}",
            self.count(),
            self.p(50.0),
            self.p(99.0),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: rank 990 is p99, with exactly 10 beyond it.
        assert_eq!(tail_percentile(1000), Some(99.0));
        // One fewer and p99 has only 9 beyond; p95 still has 50.
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 1..5000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - nearest_rank(n, p) >= TAIL_BEYOND, "n = {n}, p = {p}");
            }
        }
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let lat = Latencies::new(samples.into_iter().rev().collect());
        assert_eq!(lat.count(), 100);
        assert_eq!(lat.p(50.0), 50.0);
        assert_eq!(lat.p(99.0), 99.0);
        assert_eq!(lat.p(100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(lat.describe("x").contains("n = 100"));
    }
}
