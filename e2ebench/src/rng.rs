//! Seeded input generation: a SplitMix64 stream and a Zipf sampler.
//!
//! Every input the benchmark feeds the program is drawn from these, so one
//! `--seed` always produces the same specs, sequences and store fixture.

/// SplitMix64: tiny, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream for sub-generator `salt` of the same seed.
    pub fn derive(seed: u64, salt: u64) -> Self {
        let mut mix = Self(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        Self(mix.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf distribution over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)^s`. Sampling inverts the cumulative table
/// by binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "a Zipf distribution needs at least one rank");
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                total += 1.0 / (k as f64).powf(s);
                total
            })
            .collect();
        for value in &mut cdf {
            *value /= total;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sampler_is_deterministic_for_a_seed() {
        let zipf = Zipf::new(500, 1.1);
        let draw = |seed| {
            let mut rng = SplitMix64::derive(seed, 7);
            (0..2000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn zipf_sampler_favours_low_ranks() {
        let zipf = Zipf::new(100, 1.1);
        let mut rng = SplitMix64::derive(1, 0);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[99]);
        // Rank 0 carries 1/H(100, 1.1) of the mass, about 0.23.
        let share = counts[0] as f64 / 20_000.0;
        assert!((0.20..0.26).contains(&share), "rank-0 share {share}");
    }
}
