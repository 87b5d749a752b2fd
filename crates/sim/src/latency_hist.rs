//! A log-bucketed latency histogram (HdrHistogram-style, fixed memory)
//! for per-operation latency percentiles.
//!
//! Tail latency is where tiering shows up most vividly: an operation's
//! p99 is dominated by the accesses that still hit the slow tier.

use mc_mem::Nanos;

/// Sub-buckets per power of two (relative error <= 1/8).
const SUB: usize = 8;
/// Powers of two covered (1 ns .. ~1.1 s).
const POW: usize = 30;

/// A fixed-size latency histogram.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
    sum: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; POW * SUB],
            count: 0,
            max: 0,
            sum: 0,
        }
    }

    fn bucket_of(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let pow = 63 - ns.leading_zeros() as usize; // floor(log2)
        let sub = ((ns >> (pow.saturating_sub(3))) & (SUB as u64 - 1)) as usize;
        ((pow.min(POW - 1)) * SUB + sub).min(POW * SUB - 1)
    }

    /// The representative (upper-bound) value of a bucket.
    fn value_of(bucket: usize) -> u64 {
        if bucket < SUB {
            return bucket as u64;
        }
        let pow = bucket / SUB;
        let sub = bucket % SUB;
        let base = 1u64 << pow;
        base + ((base / SUB as u64).max(1)) * (sub as u64 + 1)
    }

    /// Records one sample.
    pub fn record(&mut self, v: Nanos) {
        let ns = v.as_nanos();
        // Indexing: bucket_of clamps to POW * SUB - 1.
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum += ns;
        self.max = self.max.max(ns);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample value.
    pub(crate) fn mean(&self) -> Option<Nanos> {
        self.sum.checked_div(self.count).map(Nanos::from_nanos)
    }

    /// The value at percentile `p` in [0, 100] (upper-bound estimate with
    /// <= 12.5% relative error); `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<Nanos> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Nanos::from_nanos(Self::value_of(i).min(self.max)));
            }
        }
        Some(Nanos::from_nanos(self.max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_value() {
        let mut h = LatencyHistogram::new();
        h.record(Nanos::from_nanos(1000));
        assert_eq!(h.count(), 1);
        let p50 = h.percentile(50.0).unwrap().as_nanos();
        assert!((900..=1125).contains(&p50), "p50={p50}");
        assert_eq!(h.mean().unwrap().as_nanos(), 1000);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record(Nanos::from_nanos(i));
        }
        let p = |x: f64| h.percentile(x).unwrap().as_nanos();
        assert!(p(10.0) <= p(50.0));
        assert!(p(50.0) <= p(99.0));
        assert!(p(99.0) <= p(100.0));
        assert_eq!(p(100.0), 10_000);
        // p50 within 12.5% of 5000.
        let p50 = p(50.0);
        assert!((4_300..=5_700).contains(&p50), "p50={p50}");
        // p99 within 12.5% of 9900.
        let p99 = p(99.0);
        assert!((8_600..=11_200).contains(&p99), "p99={p99}");
    }

    #[test]
    fn bimodal_distribution_separates_cleanly() {
        // 90% fast (500 ns), 10% slow (50 us) — like DRAM hits vs PM tail.
        let mut h = LatencyHistogram::new();
        for _ in 0..900 {
            h.record(Nanos::from_nanos(500));
        }
        for _ in 0..100 {
            h.record(Nanos::from_micros(50));
        }
        let p50 = h.percentile(50.0).unwrap().as_nanos();
        let p99 = h.percentile(99.0).unwrap().as_nanos();
        assert!(p50 < 1_000, "p50={p50}");
        assert!(p99 > 40_000, "p99={p99}");
    }

    #[test]
    fn tiny_values_use_exact_buckets() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 2, 3] {
            h.record(Nanos::from_nanos(v));
        }
        assert_eq!(h.percentile(1.0).unwrap().as_nanos(), 0);
        assert_eq!(h.percentile(100.0).unwrap().as_nanos(), 3);
    }
}
