//! A small deterministic random number generator.
//!
//! The simulator needs randomness (latency jitter, packet loss, crash
//! times) that is exactly reproducible from a seed, independent of any
//! external crate's algorithm choices. This is `xoshiro256**` seeded via
//! `splitmix64`, the de-facto standard small PRNG pair.

use crate::time::Duration;

/// Deterministic pseudo-random number generator (`xoshiro256**`).
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> SimRng {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Returns the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 uniform mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer in `[0, bound)`.
    ///
    /// Uses rejection sampling so every value is exactly equally likely.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Samples an exponentially distributed duration with the given mean.
    ///
    /// Used for latency jitter (§4.4.2 assumes exponentially distributed
    /// round-trip times) and for the failure/repair processes of the
    /// birth–death availability model (§6.4.2).
    pub fn exponential(&mut self, mean: Duration) -> Duration {
        if mean.is_zero() {
            return Duration::ZERO;
        }
        // Inverse CDF; 1 - U avoids ln(0).
        let u = 1.0 - self.next_f64();
        Duration::from_secs_f64(-mean.as_secs_f64() * u.ln())
    }

    /// Produces a random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(9);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(11);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::new(13);
        let mean = Duration::from_millis(10);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| r.exponential(mean).as_millis_f64()).sum();
        let avg = total / n as f64;
        assert!(
            (avg - 10.0).abs() < 0.3,
            "sample mean {avg} too far from 10"
        );
    }

    #[test]
    fn permutation_is_permutation() {
        let mut r = SimRng::new(17);
        let p = r.permutation(20);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn permutations_uniform_ish() {
        // All 6 permutations of 3 elements should appear with roughly equal
        // frequency.
        let mut r = SimRng::new(23);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..6000 {
            *counts.entry(r.permutation(3)).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 6);
        for &c in counts.values() {
            assert!((800..1200).contains(&c), "count {c} out of range");
        }
    }
}
