//! The benchmark's own seeded generators. The library's data generators
//! use fixed seeds, so `--seed` reaches the system only through what is
//! built here: submission orders, query keys and mutation sequences.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for one purpose (`stream`) under one benchmark seed,
    /// so independent sequences never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seeded permutation of `0..len` (Fisher–Yates).
pub fn permutation(len: usize, seed: u64, stream: u64) -> Vec<usize> {
    let mut rng = SplitMix::new(seed, stream);
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// The submission order of round `round` of a batch workload: a fresh
/// seeded permutation per round, so one run's median covers many orders
/// and the seed's effect on load balance averages out.
pub fn round_order(len: usize, seed: u64, stream: u64, round: u64) -> Vec<usize> {
    permutation(len, seed, (stream << 32) | round)
}

/// Zipf-distributed ranks over `0..n` with exponent `s`, sampled by
/// inverting the cumulative distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks.
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let a = permutation(77, 1, 0);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..77).collect::<Vec<_>>());
        assert_eq!(a, permutation(77, 1, 0));
        assert_ne!(a, permutation(77, 2, 0));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(17, 1.0);
        let mut rng = SplitMix::new(3, 0);
        let mut counts = [0u32; 17];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[16]);
    }
}
