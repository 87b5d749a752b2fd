//! An exact latency histogram for per-operation latency percentiles.
//!
//! Tail latency is where tiering shows up most vividly: an operation's
//! p99 is dominated by the accesses that still hit the slow tier. A
//! simulated latency is a sum of a few model constants, so a run sees few
//! distinct values (thousands at most): the histogram keeps one count per
//! distinct nanosecond value, and its percentiles are exact.

use mc_mem::Nanos;
use std::collections::BTreeMap;

/// Values below this are counted in a vector indexed by value, the rest
/// in a map.
const DENSE: u64 = 1 << 12;

/// A count per distinct latency value.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    /// `dense[v]` samples of `v` ns, for `v < DENSE`; as long as the
    /// largest such value seen needs.
    dense: Vec<u64>,
    /// Samples of `DENSE` ns or more, by value.
    sparse: BTreeMap<u64, u64>,
    count: u64,
    sum: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: Nanos) {
        let ns = v.as_nanos();
        self.count += 1;
        self.sum += ns;
        match usize::try_from(ns).ok().and_then(|i| self.dense.get_mut(i)) {
            Some(c) => *c += 1,
            None => self.record_new(ns),
        }
    }

    /// [`Self::record`] of a value past the dense vector's end.
    #[cold]
    fn record_new(&mut self, ns: u64) {
        match usize::try_from(ns) {
            Ok(i) if ns < DENSE => {
                self.dense.resize(i, 0);
                self.dense.push(1);
            }
            _ => *self.sparse.entry(ns).or_default() += 1,
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample value.
    pub(crate) fn mean(&self) -> Option<Nanos> {
        self.sum.checked_div(self.count).map(Nanos::from_nanos)
    }

    /// The sample at percentile `p` in [0, 100] by the nearest-rank rule:
    /// the `ceil(p / 100 · count)`-th smallest, the smallest at `p = 0`;
    /// `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<Nanos> {
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let dense = (0u64..).zip(self.dense.iter().copied());
        let mut seen = 0u64;
        dense
            .chain(self.sparse.iter().map(|(v, c)| (*v, *c)))
            .find(|(_, c)| {
                seen += c;
                seen >= rank
            })
            .map(|(v, _)| Nanos::from_nanos(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(h.percentile(p).unwrap().as_nanos(), 1000, "p{p}");
        }
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
        // Exact nearest ranks, across the dense part and the map.
        assert_eq!(p(0.0), 1);
        assert_eq!(p(10.0), 1_000);
        assert_eq!(p(50.0), 5_000);
        assert_eq!(p(99.0), 9_900);
        assert_eq!(p(100.0), 10_000);
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
        let p = |x: f64| h.percentile(x).unwrap().as_nanos();
        assert_eq!(p(50.0), 500);
        assert_eq!(p(90.0), 500);
        assert_eq!(p(90.1), 50_000);
        assert_eq!(p(99.0), 50_000);
    }

    #[test]
    fn tiny_values_use_exact_buckets() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 1, 2, 3] {
            h.record(Nanos::from_nanos(v));
        }
        assert_eq!(h.percentile(1.0).unwrap().as_nanos(), 0);
        assert_eq!(h.percentile(50.0).unwrap().as_nanos(), 1);
        assert_eq!(h.percentile(100.0).unwrap().as_nanos(), 3);
    }

    /// Values in the dense part, at its edge and in the map.
    fn arb_ns() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..16,
            0u64..DENSE,
            DENSE - 2..DENSE + 2,
            DENSE..1 << 20,
            Just(u64::MAX >> 16),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn percentiles_are_the_nearest_rank_of_the_sorted_samples(
            samples in prop::collection::vec(arb_ns(), 0..300),
            p in 0.0f64..=100.0,
        ) {
            let mut h = LatencyHistogram::new();
            for &ns in &samples {
                h.record(Nanos::from_nanos(ns));
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let n = sorted.len();
            prop_assert_eq!(h.count(), n as u64);
            let sum: u64 = sorted.iter().sum();
            prop_assert_eq!(h.mean(), sum.checked_div(n as u64).map(Nanos::from_nanos));
            for q in [0.0, 0.1, 1.0, 25.0, 50.0, 99.0, 99.9, 100.0, p] {
                let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as usize;
                let oracle = sorted.get(rank - 1).copied().map(Nanos::from_nanos);
                prop_assert_eq!(h.percentile(q), oracle, "p{} of {:?}", q, sorted);
            }
        }
    }
}
