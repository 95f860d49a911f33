//! A small, dependency-free, deterministic pseudo-random number generator.
//!
//! The workspace must be exactly reproducible from a seed (experiments,
//! workload generation, randomised tests), and it deliberately carries no
//! external crates, so this module provides the one PRNG everything shares:
//! xoshiro256++ seeded through SplitMix64.  It is not cryptographic — it is
//! a fast, well-distributed generator whose streams are stable across
//! platforms and releases.

/// A deterministic PRNG: xoshiro256++ with SplitMix64 seeding.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Create a generator from a 64-bit seed.  Equal seeds yield equal
    /// sequences forever.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the 256-bit state; this is
        // the seeding procedure recommended by the xoshiro authors.
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        Xoshiro256 { s }
    }

    /// Derive an independent generator for a numbered sub-stream, leaving
    /// this one where it is.  Deriving with the same `stream` always yields
    /// the same generator.
    pub fn derive(&self, stream: u64) -> Xoshiro256 {
        let mix = self.clone().next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Xoshiro256::new(mix)
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniformly distributed integer in `[0, bound)`, bias-free via
    /// rejection sampling.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Reject values in the incomplete top interval so every residue is
        // equally likely: threshold = 2^64 mod bound.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let v = self.next_u64();
            if v >= threshold {
                return v % bound;
            }
        }
    }

    /// A uniformly distributed integer in `[lo, hi]` (inclusive).
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "invalid range");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(hi - lo + 1)
    }

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// An exponentially distributed value with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "mean must be positive");
        let u: f64 = 1.0 - self.unit(); // in (0, 1]
        -mean * u.ln()
    }

    /// A Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xoshiro256::new(7);
        let mut b = Xoshiro256::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256::new(1);
        let mut b = Xoshiro256::new(2);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn below_respects_bound_and_hits_all_residues() {
        let mut rng = Xoshiro256::new(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn range_inclusive_covers_endpoints() {
        let mut rng = Xoshiro256::new(11);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            let v = rng.range_inclusive(5, 8);
            assert!((5..=8).contains(&v));
            lo_seen |= v == 5;
            hi_seen |= v == 8;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn unit_is_in_half_open_interval_and_roughly_uniform() {
        let mut rng = Xoshiro256::new(5);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn derive_is_deterministic_and_independent() {
        let master = Xoshiro256::new(7);
        let mut a1 = master.derive(1);
        let mut a2 = master.derive(1);
        let mut b = master.derive(2);
        let x1: Vec<u64> = (0..16).map(|_| a1.below(100)).collect();
        let x2: Vec<u64> = (0..16).map(|_| a2.below(100)).collect();
        let y: Vec<u64> = (0..16).map(|_| b.below(100)).collect();
        assert_eq!(x1, x2);
        assert_ne!(x1, y);
    }

    #[test]
    fn exponential_has_positive_values_and_plausible_mean() {
        let mut rng = Xoshiro256::new(11);
        let n = 20_000;
        let mean_target = 250.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean_target)).sum();
        let mean = sum / n as f64;
        assert!(
            mean > 0.9 * mean_target && mean < 1.1 * mean_target,
            "mean {mean}"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Xoshiro256::new(9);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }
}
