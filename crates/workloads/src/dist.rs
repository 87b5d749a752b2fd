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
        self.early_rank(u)
            .unwrap_or_else(|| self.rank_at(self.scaled(u)))
    }

    /// Ranks 0 and 1, read off `u · zetan` before any `pow`.
    #[inline]
    fn early_rank(&self, u: f64) -> Option<u64> {
        let uz = u * self.zetan;
        if uz < 1.0 {
            Some(0)
        } else if uz < self.rank1_cutoff {
            Some(1)
        } else {
            None
        }
    }

    /// `eta·u − eta + 1`: the scaled draw the formula raises to `alpha`.
    #[inline]
    fn scaled(&self, u: f64) -> f64 {
        self.eta * u - self.eta + 1.0
    }

    /// The formula's rank for the scaled draw `x`: `n · x^alpha`,
    /// truncated and clamped to the last item.
    #[inline]
    fn rank_at(&self, x: f64) -> u64 {
        let v = (self.items as f64 * x.powf(self.alpha)) as u64;
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
///
/// A draw returns exactly the key `fnv1a_64(rank) % items` of the rank
/// [`Zipfian::next`] draws from the same `u`, but takes both costs from
/// tables built with it: a draw of one of the top `min(items / 16,
/// 8192)` ranks finds its rank among thresholds certified against the
/// formula's own `powf` (none below 64 items), and each rank's key is
/// hashed once, on its first draw, into a rank → key memo.
#[derive(Debug, Clone)]
pub struct ScrambledZipfian {
    inner: Zipfian,
    head: HeadRanks,
    /// `keys[rank]` is `fnv1a_64(rank) % items + 1`, or 0 until the rank
    /// is first drawn (so the memo starts as untouched zeroed pages). It
    /// covers the first [`MEMO_RANKS`] ranks, and is empty when a key
    /// plus one might not fit a `u32`.
    keys: Vec<u32>,
}

/// The most ranks the rank → key memo covers (4 MiB of keys); rarer
/// ranks hash on every draw.
const MEMO_RANKS: u64 = 1 << 20;

impl ScrambledZipfian {
    /// Creates a scrambled zipfian over `items` keys with YCSB's default
    /// skew.
    pub fn new(items: u64) -> Self {
        Zipfian::ycsb_default(items).into()
    }

    /// Draws the next key in `0..items`.
    pub fn next<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let z = &self.inner;
        let rank = z.early_rank(u).unwrap_or_else(|| {
            let x = z.scaled(u);
            match self.head.rank(x) {
                Some(r) => {
                    debug_assert_eq!(r, z.rank_at(x), "head-rank table at x = {x:e}");
                    r
                }
                None => z.rank_at(x),
            }
        });
        self.key(rank)
    }

    /// The key of `rank`, from the memo when it has been drawn before.
    #[inline]
    fn key(&mut self, rank: u64) -> u64 {
        let items = self.inner.items;
        let Some(slot) = self.keys.get_mut(rank as usize) else {
            return fnv1a_64(rank) % items;
        };
        if *slot == 0 {
            // At most `u32::MAX`: the memo exists only when `items` fits a `u32`.
            *slot = (fnv1a_64(rank) % items + 1) as u32;
        }
        let key = u64::from(*slot) - 1;
        debug_assert_eq!(key, fnv1a_64(rank) % items, "memo of rank {rank}");
        key
    }
}

/// Scrambles the draws of an already built zipfian (its zeta is summed
/// once, however many choosers share it) and builds the two tables.
impl From<Zipfian> for ScrambledZipfian {
    fn from(inner: Zipfian) -> Self {
        let memo = if inner.items <= u64::from(u32::MAX) {
            inner.items.min(MEMO_RANKS)
        } else {
            0
        };
        ScrambledZipfian {
            head: HeadRanks::new(&inner),
            keys: vec![0; memo as usize],
            inner,
        }
    }
}

/// The head ranks of a [`Zipfian`] as thresholds in the scaled draw `x`
/// ([`Zipfian::scaled`]), so that a draw of one of them needs no `pow`.
///
/// `thresholds[r - 1]` is `X_r`, the least `x` the formula
/// ([`Zipfian::rank_at`]) maps to rank `r` or above, for `r` in `1..=K`:
/// a draw with `x < X_K` is rank `r` exactly when `X_r ≤ x < X_{r+1}`,
/// the number of thresholds at or below it. Each `X_r` starts at the
/// analytic inverse `(r/n)^(1−θ)` and moves one ULP at a time until the
/// formula reaches `r` at `X_r` and not at the next `f64` below it — a
/// certificate from the very `powf` the formula calls, which reproduces
/// the formula exactly as long as `powf` is monotone (the unit tests
/// check it over ±64 ULPs of every threshold; debug builds check every
/// draw). Draws at or above `X_K` keep the formula.
///
/// `K` is `n / 16`, at most [`HeadRanks::MAX_RANKS`], and there is no
/// table below [`HeadRanks::MIN_ITEMS`] items.
#[derive(Debug, Clone)]
struct HeadRanks {
    /// `X_1..X_K`, then [`HeadRanks::COMPARES`] of `+∞`, so that a draw
    /// may read that many past any guide entry.
    thresholds: Vec<f64>,
    /// `X_K`; `−∞` without a table.
    top: f64,
    /// `guide[g]` is the number of thresholds at or below the lower edge
    /// of bucket `g`, equal buckets of `x` from `X_1` to `X_K`, each no
    /// wider than `COMPARES − 1` of the smallest gaps between two
    /// thresholds: a bucket holds at most that many thresholds, so a
    /// draw's rank is its entry plus `COMPARES` branch-free compares (one
    /// spare for the rounding of the bucket index). The scan after them
    /// corrects a bad entry in either direction, so the guide costs
    /// speed, never exactness.
    guide: Vec<u16>,
    /// Buckets per unit of `x`.
    scale: f64,
}

impl HeadRanks {
    /// Fewest items with a table.
    const MIN_ITEMS: u64 = 64;
    /// Most head ranks in a table (64 KiB of thresholds).
    const MAX_RANKS: u64 = 8192;
    /// Thresholds a draw compares against after its guide entry.
    const COMPARES: usize = 4;

    fn new(z: &Zipfian) -> Self {
        let n = z.items;
        if n < Self::MIN_ITEMS {
            return HeadRanks {
                thresholds: Vec::new(),
                top: f64::NEG_INFINITY,
                guide: Vec::new(),
                scale: 0.0,
            };
        }
        let k = (n / 16).min(Self::MAX_RANKS) as usize;
        let reaches = |x: f64, r: u64| z.rank_at(x) >= r;
        let mut thresholds = Vec::with_capacity(k + Self::COMPARES);
        thresholds.extend((1..=k as u64).map(|r| {
            let mut x = (r as f64 / n as f64).powf(1.0 - z.theta);
            if reaches(x, r) {
                while reaches(x.next_down(), r) {
                    x = x.next_down();
                }
            } else {
                x = x.next_up();
                while !reaches(x, r) {
                    x = x.next_up();
                }
            }
            x
        }));
        let (lo, top) = (thresholds[0], thresholds[k - 1]);
        let min_gap = thresholds
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(f64::INFINITY, f64::min);
        let widest = min_gap * (Self::COMPARES - 1) as f64;
        // At most 16 buckets a rank, should the gaps ever shrink to
        // nothing (θ = 0.99 needs about three).
        let buckets = (((top - lo) / widest).ceil() as usize).clamp(1, 16 * k);
        let width = (top - lo) / buckets as f64;
        let mut below = 0;
        let guide = (0..buckets)
            .map(|g| {
                let edge = lo + g as f64 * width;
                while below < k && thresholds[below] <= edge {
                    below += 1;
                }
                below as u16
            })
            .collect();
        thresholds.extend([f64::INFINITY; Self::COMPARES]);
        HeadRanks {
            thresholds,
            top,
            guide,
            scale: buckets as f64 / (top - lo),
        }
    }

    /// The formula's rank for the scaled draw `x`, or `None` at or above
    /// `X_K` (and always without a table).
    #[inline]
    fn rank(&self, x: f64) -> Option<u64> {
        if x >= self.top {
            return None;
        }
        let t = &self.thresholds;
        let g = (((x - t[0]) * self.scale) as usize).min(self.guide.len() - 1);
        let base = usize::from(self.guide[g]);
        let window = &t[base..base + Self::COMPARES];
        let mut r = base + window.iter().map(|&y| usize::from(y <= x)).sum::<usize>();
        // `X_K > x` stops the climb inside the table.
        while t[r] <= x {
            r += 1;
        }
        while r > 0 && t[r - 1] > x {
            r -= 1;
        }
        Some(r as u64)
    }
}

/// Skewed-latest: recency-weighted choice over a growing key space —
/// recently inserted records are most popular (YCSB workload D).
///
/// Unlike [`ScrambledZipfian`] it keeps a `pow` per draw past ranks 0
/// and 1 and builds no tables: every insert grows the item count, which
/// moves every threshold, and a rank is counted back from the newest
/// record, so no rank keeps its key.
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
        let mut s = ScrambledZipfian::new(1000);
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
        // The scrambled chooser's tables against the formula and the hash,
        // at the benchmark's and `repro`'s key counts and around the
        // table's cut-in at 64 items.
        for seed in [3, 11, 42, 2024] {
            for items in [1, 2, 63, 64, 65, 6_000, 24_000, 96_000] {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut old = StdRng::seed_from_u64(seed);
                let z = Zipfian::ycsb_default(items);
                let mut s = ScrambledZipfian::from(z.clone());
                for i in 0..400_000 {
                    let want = fnv1a_64(per_draw_formula(&z, &mut old)) % items;
                    assert_eq!(
                        s.next(&mut rng),
                        want,
                        "seed {seed}, scrambled over {items}, draw {i}"
                    );
                }
            }
        }
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
    fn head_thresholds_are_certified_by_the_formula() {
        for items in [64, 65, 1000, 6_000, 24_000, 96_000] {
            let s = ScrambledZipfian::new(items);
            let (z, t) = (&s.inner, &s.head.thresholds);
            let (t, padding) = t.split_at(t.len() - HeadRanks::COMPARES);
            assert_eq!(t.len() as u64, (items / 16).min(HeadRanks::MAX_RANKS));
            assert_eq!((t[t.len() - 1], padding[0]), (s.head.top, f64::INFINITY));
            for (i, &x) in t.iter().enumerate() {
                let r = i as u64 + 1;
                assert!(
                    z.rank_at(x) >= r,
                    "{items} items: X_{r} = {x:e} misses rank {r}"
                );
                // Monotone around the threshold: below it the formula
                // stays under rank `r`, from it on it reaches `r`.
                let (mut below, mut above) = (x, x);
                for ulps in 1..=64 {
                    below = below.next_down();
                    assert!(
                        z.rank_at(below) < r,
                        "{items} items: {ulps} ULPs below X_{r} reaches rank {r}"
                    );
                    above = above.next_up();
                    assert!(
                        z.rank_at(above) >= r,
                        "{items} items: {ulps} ULPs above X_{r} misses rank {r}"
                    );
                }
            }
        }
        assert!(ScrambledZipfian::new(63).head.thresholds.is_empty());
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
