//! A tiny deterministic PRNG (SplitMix64).
//!
//! The fault layer cannot use the vendored `rand` stub: `mc-fault` sits
//! below every other crate and must stay dependency-free, and injection
//! decisions must come from a *private* stream so that enabling fault
//! injection never perturbs workload-side randomness. SplitMix64 is the
//! standard seed-expansion generator: one `u64` of state, full period,
//! passes BigCrush, and is trivially reproducible across platforms.

/// SplitMix64 pseudo-random generator with one word of state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform float in `[0, 1)` built from the top 53 bits.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// `p <= 0` returns `false` **without consuming generator state** —
    /// this is what makes a zero-rate [`crate::FaultInjector`] bit-identical
    /// to no injector at all. `p >= 1` consumes one draw and returns `true`.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn floats_stay_in_unit_interval() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn chance_zero_consumes_no_state() {
        let mut r = SplitMix64::new(9);
        let snapshot = r.clone();
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(!r.chance(-1.0));
        }
        assert_eq!(r, snapshot, "zero-rate draws must not advance the state");
    }

    #[test]
    fn chance_one_always_fires() {
        let mut r = SplitMix64::new(11);
        for _ in 0..100 {
            assert!(r.chance(1.0));
        }
    }

    #[test]
    fn chance_rate_is_roughly_respected() {
        let mut r = SplitMix64::new(13);
        let hits = (0..10_000).filter(|_| r.chance(0.2)).count();
        assert!((1_600..2_400).contains(&hits), "got {hits} hits for p=0.2");
    }
}
