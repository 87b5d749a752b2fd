//! YCSB request distributions: zipfian (Gray et al.), scrambled zipfian,
//! skewed-latest and uniform — the choosers the YCSB core workloads use.

use rand::Rng;

/// Fowler–Noll–Vo 64-bit hash, YCSB's scrambling function.
pub(crate) fn fnv1a_64(mut x: u64) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..8 {
        let octet = x & 0xff;
        hash ^= octet;
        hash = hash.wrapping_mul(PRIME);
        x >>= 8;
    }
    hash
}

/// The classic zipfian generator over `0..items` with parameter `theta`
/// (YCSB default 0.99): item 0 is the most popular.
#[derive(Debug, Clone)]
pub struct Zipfian {
    items: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
    /// `1 + 0.5^theta`: a scaled draw below this (and at least 1) is rank 1.
    rank1_cutoff: f64,
}

impl Zipfian {
    /// Creates a zipfian distribution over `items` items.
    ///
    /// # Panics
    ///
    /// Panics if `items == 0` or `theta` is not in `(0, 1)`.
    pub(crate) fn new(items: u64, theta: f64) -> Self {
        assert!(items > 0, "zipfian needs at least one item");
        assert!(
            (0.0..1.0).contains(&theta) && theta > 0.0,
            "theta must be in (0,1)"
        );
        let zetan = Self::zeta(items, theta);
        let zeta2 = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipfian {
            items,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
            rank1_cutoff: 1.0 + 0.5f64.powf(theta),
        }
    }

    /// YCSB's default skew (θ = 0.99).
    pub fn ycsb_default(items: u64) -> Self {
        Self::new(items, 0.99)
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Number of items.
    pub(crate) fn items(&self) -> u64 {
        self.items
    }

    /// Draws the next rank (0 = most popular).
    pub fn next<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.rank1_cutoff {
            return 1;
        }
        let v = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.items - 1)
    }

    /// Grows the item count incrementally (used by the latest
    /// distribution as records are inserted). Recomputes zeta lazily and
    /// cheaply by extending the partial sum.
    pub(crate) fn grow(&mut self, new_items: u64) {
        if new_items <= self.items {
            return;
        }
        for i in (self.items + 1)..=new_items {
            self.zetan += 1.0 / (i as f64).powf(self.theta);
        }
        self.items = new_items;
        self.eta = (1.0 - (2.0 / self.items as f64).powf(1.0 - self.theta))
            / (1.0 - self.zeta2 / self.zetan);
    }
}

/// Scrambled zipfian: zipfian popularity spread uniformly over the key
/// space by hashing, as in YCSB's `ScrambledZipfianGenerator`. This is the
/// chooser for workloads A, B, C, F and W.
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: Zipfian,
}

impl ScrambledZipfian {
    /// Creates a scrambled zipfian over `items` keys with YCSB's default
    /// skew.
    pub fn new(items: u64) -> Self {
        Zipfian::ycsb_default(items).into()
    }

    /// Draws the next key in `0..items`.
    pub fn next<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        fnv1a_64(self.inner.next(rng)) % self.inner.items()
    }
}

/// Scrambles the draws of an already built zipfian (its zeta is summed
/// once, however many choosers share it).
impl From<Zipfian> for ScrambledZipfian {
    fn from(inner: Zipfian) -> Self {
        ScrambledZipfian { inner }
    }
}

/// Skewed-latest: recency-weighted choice over a growing key space —
/// recently inserted records are most popular (YCSB workload D).
#[derive(Debug, Clone)]
pub struct Latest {
    zipf: Zipfian,
}

impl Latest {
    /// Creates a latest distribution over the first `items` records.
    pub fn new(items: u64) -> Self {
        Zipfian::ycsb_default(items).into()
    }

    /// Records that the key space has grown to `items` records.
    pub fn grow(&mut self, items: u64) {
        self.zipf.grow(items);
    }

    /// Draws the next key: `latest - zipf_rank`.
    pub fn next<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let max = self.zipf.items() - 1;
        max - self.zipf.next(rng)
    }
}

/// Counts back from the newest of the zipfian's items.
impl From<Zipfian> for Latest {
    fn from(zipf: Zipfian) -> Self {
        Latest { zipf }
    }
}

/// Uniform choice over `0..items`.
#[derive(Debug, Clone)]
pub struct Uniform {
    items: u64,
}

impl Uniform {
    /// Creates a uniform distribution over `items` keys.
    ///
    /// # Panics
    ///
    /// Panics if `items == 0`.
    pub fn new(items: u64) -> Self {
        assert!(items > 0, "uniform needs at least one item");
        Uniform { items }
    }

    /// Draws the next key.
    pub fn next<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.gen_range(0..self.items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn histogram(draws: impl Iterator<Item = u64>, n: usize) -> Vec<u64> {
        let mut h = vec![0u64; n];
        for d in draws {
            h[d as usize] += 1;
        }
        h
    }

    #[test]
    fn zipfian_rank_zero_is_most_popular() {
        let mut rng = StdRng::seed_from_u64(1);
        let z = Zipfian::ycsb_default(1000);
        let h = histogram((0..200_000).map(|_| z.next(&mut rng)), 1000);
        assert!(h[0] > h[1]);
        assert!(h[1] > h[10]);
        assert!(h[10] > h[500], "h10={} h500={}", h[10], h[500]);
        // Rank 0 of a theta=0.99, n=1000 zipfian draws roughly 1/zeta ~ 13%.
        let p0 = h[0] as f64 / 200_000.0;
        assert!((0.08..0.20).contains(&p0), "p0={p0}");
    }

    #[test]
    fn zipfian_draws_stay_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let z = Zipfian::ycsb_default(17);
        for _ in 0..10_000 {
            assert!(z.next(&mut rng) < 17);
        }
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_keys() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = ScrambledZipfian::new(1000);
        let h = histogram((0..200_000).map(|_| s.next(&mut rng)), 1000);
        // Still skewed: some key is much hotter than the median...
        let mut sorted = h.clone();
        sorted.sort_unstable();
        assert!(sorted[999] > 10 * sorted[500].max(1));
        // ...but the hottest key is not key 0 (scrambling moved it).
        let hottest = h.iter().enumerate().max_by_key(|(_, c)| **c).unwrap().0;
        assert_ne!(hottest, 0);
    }

    #[test]
    fn latest_prefers_recent_keys_and_tracks_growth() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut l = Latest::new(100);
        let h = histogram((0..50_000).map(|_| l.next(&mut rng)), 100);
        assert!(h[99] > h[50], "latest key beats the middle");
        assert!(h[99] > h[0] * 5, "latest key dwarfs the oldest");
        l.grow(200);
        let h2 = histogram((0..50_000).map(|_| l.next(&mut rng)), 200);
        assert!(
            h2[199] > h2[99],
            "popularity follows the insertion frontier"
        );
    }

    #[test]
    fn uniform_is_flat() {
        let mut rng = StdRng::seed_from_u64(5);
        let u = Uniform::new(10);
        let h = histogram((0..100_000).map(|_| u.next(&mut rng)), 10);
        for c in &h {
            let p = *c as f64 / 100_000.0;
            assert!((0.08..0.12).contains(&p), "p={p}");
        }
    }

    #[test]
    fn grow_matches_fresh_construction() {
        let mut grown = Zipfian::ycsb_default(100);
        grown.grow(500);
        let fresh = Zipfian::ycsb_default(500);
        assert!((grown.zetan - fresh.zetan).abs() < 1e-9);
        assert!((grown.eta - fresh.eta).abs() < 1e-9);
        assert_eq!(grown.items(), 500);
    }

    /// The draw `next` made before the rank-1 cutoff was computed once in
    /// `new`: the same formula with its `pow` evaluated on every draw.
    fn per_draw_formula<R: Rng + ?Sized>(z: &Zipfian, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * z.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(z.theta) {
            return 1;
        }
        let v = (z.items as f64 * (z.eta * u - z.eta + 1.0).powf(z.alpha)) as u64;
        v.min(z.items - 1)
    }

    #[test]
    fn draws_equal_the_per_draw_formula() {
        for seed in [1, 7, 42, 2024] {
            for items in [1, 2, 3, 17, 1000, 50_000] {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut old = StdRng::seed_from_u64(seed);
                let z = Zipfian::ycsb_default(items);
                for i in 0..20_000 {
                    let want = per_draw_formula(&z, &mut old);
                    assert_eq!(
                        z.next(&mut rng),
                        want,
                        "seed {seed}, {items} items, draw {i}"
                    );
                }
                let mut l = Latest::new(items);
                for grown in [items, items + 1, 3 * items + 5] {
                    l.grow(grown);
                    for i in 0..5_000 {
                        let want = grown - 1 - per_draw_formula(&l.zipf, &mut old);
                        let got = l.next(&mut rng);
                        assert_eq!(got, want, "seed {seed}, latest over {grown}, draw {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn fnv_is_deterministic_and_spreading() {
        assert_eq!(fnv1a_64(1), fnv1a_64(1));
        assert_ne!(fnv1a_64(1), fnv1a_64(2));
        // Consecutive inputs land far apart.
        let d = fnv1a_64(100) ^ fnv1a_64(101);
        assert!(d.count_ones() > 8);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zipfian_zero_items_rejected() {
        let _ = Zipfian::ycsb_default(0);
    }
}
