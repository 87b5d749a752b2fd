//! Count-min sketch: sub-linear frequency tracking for HybridTier.
//!
//! HybridTier (arXiv 2312.04789) replaces full PTE scans with lightweight
//! probabilistic frequency counters: a count-min sketch maps every tracked
//! page to one saturating counter per row through seeded hashes, so hotness
//! estimation costs O(rows) per observation and O(width x rows) memory
//! regardless of machine size — no per-page metadata. Estimates only ever
//! over-count (hash collisions add, never subtract), which biases toward
//! promotion, the cheap direction to correct.
//!
//! Hashing is seed-deterministic in the house style: each row derives its
//! hash from an [`mc_fault::SplitMix64`] stream keyed by `seed ^ row`, so
//! the same seed reproduces the same counters bit-for-bit on every run.

use mc_fault::SplitMix64;

/// A count-min sketch over `u64` keys with saturating `u32` counters.
#[derive(Debug, Clone)]
pub(crate) struct CmSketch {
    /// `rows * width` counters, row-major.
    counters: Vec<u32>,
    /// Power-of-two row width.
    width: usize,
    rows: usize,
    /// Per-row hash seeds, fixed at construction.
    row_seeds: Vec<u64>,
    /// Total observations fed in (saturating).
    updates: u64,
}

impl CmSketch {
    /// Creates a sketch with `1 << width_log2` counters per row.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero or `width_log2` exceeds 24 (a 16M-counter
    /// row is past any sensible configuration).
    pub(crate) fn new(width_log2: u32, rows: usize, seed: u64) -> Self {
        assert!(rows > 0, "sketch needs at least one row");
        assert!(width_log2 <= 24, "sketch row width is unreasonably large");
        let width = 1usize << width_log2;
        let row_seeds = (0..rows as u64)
            .map(|r| SplitMix64::new(seed ^ r).next_u64())
            .collect();
        CmSketch {
            counters: vec![0; rows * width],
            width,
            rows,
            row_seeds,
            updates: 0,
        }
    }

    /// Total observations recorded.
    pub(crate) fn updates(&self) -> u64 {
        self.updates
    }

    /// The counter slot for `key` in `row`.
    fn slot(&self, row: usize, key: u64) -> usize {
        // One SplitMix64 scramble of (row seed, key) is a full-avalanche
        // hash; masking keeps it in the power-of-two row.
        let seed = self.row_seeds.get(row).copied().unwrap_or(0);
        let h = SplitMix64::new(seed ^ key).next_u64();
        row * self.width + (h as usize & (self.width - 1))
    }

    /// Records one observation of `key` and returns the updated estimate.
    ///
    /// Conservative update: only the rows currently at the minimum are
    /// incremented, which tightens over-counting under collisions without
    /// extra state.
    pub(crate) fn update(&mut self, key: u64) -> u32 {
        self.updates = self.updates.saturating_add(1);
        let mut min = u32::MAX;
        for row in 0..self.rows {
            let slot = self.slot(row, key);
            let v = self.counters.get(slot).copied().unwrap_or(u32::MAX);
            if v < min {
                min = v;
            }
        }
        let next = min.saturating_add(1);
        for row in 0..self.rows {
            let slot = self.slot(row, key);
            if let Some(c) = self.counters.get_mut(slot) {
                if *c < next {
                    *c = next;
                }
            }
        }
        next
    }

    /// The frequency estimate for `key`: the minimum over its row counters.
    pub(crate) fn estimate(&self, key: u64) -> u32 {
        let mut min = u32::MAX;
        for row in 0..self.rows {
            let v = self
                .counters
                .get(self.slot(row, key))
                .copied()
                .unwrap_or(u32::MAX);
            if v < min {
                min = v;
            }
        }
        min
    }

    /// Ages every counter by halving it — the periodic decay that keeps
    /// estimates tracking the *current* access frequency instead of the
    /// all-time count.
    pub(crate) fn halve(&mut self) {
        for c in &mut self.counters {
            *c >>= 1;
        }
    }

    /// A fingerprint of the full counter state, for determinism tests.
    #[cfg(test)]
    pub(crate) fn checksum(&self) -> u64 {
        let mut h = SplitMix64::new(0x5ce7_c0de);
        let mut acc = 0u64;
        for &c in &self.counters {
            acc = acc.wrapping_add(h.next_u64().wrapping_mul(u64::from(c) + 1));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_never_undercounts() {
        let mut s = CmSketch::new(8, 4, 42);
        for k in 0..500u64 {
            for _ in 0..(k % 7) {
                s.update(k);
            }
        }
        for k in 0..500u64 {
            assert!(u64::from(s.estimate(k)) >= k % 7, "undercount for {k}");
        }
    }

    #[test]
    fn same_seed_same_counters() {
        let mut a = CmSketch::new(10, 4, 7);
        let mut b = CmSketch::new(10, 4, 7);
        for k in 0..10_000u64 {
            a.update(k.wrapping_mul(0x9E37_79B9));
            b.update(k.wrapping_mul(0x9E37_79B9));
        }
        assert_eq!(a.checksum(), b.checksum());
        assert_eq!(a.updates(), b.updates());
    }

    #[test]
    fn different_seeds_hash_differently() {
        let mut a = CmSketch::new(10, 4, 1);
        let mut b = CmSketch::new(10, 4, 2);
        for k in 0..1_000u64 {
            a.update(k);
            b.update(k);
        }
        assert_ne!(a.checksum(), b.checksum());
    }

    #[test]
    fn halving_ages_estimates() {
        let mut s = CmSketch::new(8, 4, 42);
        for _ in 0..8 {
            s.update(99);
        }
        assert_eq!(s.estimate(99), 8);
        s.halve();
        assert_eq!(s.estimate(99), 4);
        s.halve();
        s.halve();
        assert_eq!(s.estimate(99), 1);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut s = CmSketch::new(2, 1, 42);
        for c in &mut s.counters {
            *c = u32::MAX - 1;
        }
        let est = s.update(1);
        assert_eq!(est, u32::MAX);
        assert_eq!(s.update(1), u32::MAX, "stays saturated");
    }

    #[test]
    fn update_returns_live_estimate() {
        let mut s = CmSketch::new(8, 4, 42);
        assert_eq!(s.update(5), 1);
        assert_eq!(s.update(5), 2);
        assert_eq!(s.estimate(5), 2);
        assert_eq!(s.estimate(6), 0);
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_rejected() {
        let _ = CmSketch::new(8, 0, 42);
    }
}
