//! Per-node free-memory watermarks.
//!
//! Linux proactively marks a zone as under memory pressure when its free
//! page count crosses watermark levels "calculated by the system according
//! to the amount of memory in the tier vs. the total amount of memory in the
//! system" (paper §III-C). We reproduce the kernel's rule: the global
//! reserve is `4 * sqrt(total_kB)` kilobytes (`min_free_kbytes`),
//! distributed to nodes proportionally to their size, with
//! `low = min + min/4` and `high = min + min/2`.

/// Free-page thresholds for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watermarks {
    /// Below `min`, only atomic/kernel allocations may dip in; ordinary
    /// allocations fail and direct reclaim runs.
    pub min: usize,
    /// Below `low`, the background reclaim daemon (kswapd / our demotion
    /// path) is woken.
    pub low: usize,
    /// Reclaim stops once free pages climb back above `high`.
    pub high: usize,
}

impl Watermarks {
    /// Computes watermarks for a node holding `node_pages` pages out of
    /// `total_pages` in the whole system, with 4 KiB pages.
    ///
    /// Mirrors `init_per_zone_wmark_min()`: `min_free_kbytes =
    /// 4 * sqrt(total_kB)`, clamped to [128 kB, 256 MB], then scaled by the
    /// node's share of total memory.
    ///
    /// # Panics
    ///
    /// Panics if `node_pages > total_pages` or `total_pages == 0`.
    pub fn for_node(node_pages: usize, total_pages: usize) -> Self {
        assert!(total_pages > 0, "system must have memory");
        assert!(node_pages <= total_pages, "node cannot exceed system size");
        let total_kb = total_pages as f64 * 4.0;
        let min_free_kb = (4.0 * total_kb.sqrt()).clamp(128.0, 262_144.0);
        let min_free_pages = (min_free_kb / 4.0).ceil() as usize;
        let share = node_pages as f64 / total_pages as f64;
        let min = ((min_free_pages as f64 * share).ceil() as usize).max(1);
        // Never reserve more than a quarter of the node.
        let min = min.min((node_pages / 4).max(1));
        Watermarks {
            min,
            low: min + min / 4 + 1,
            high: min + min / 2 + 2,
        }
    }

    /// Whether `free` pages means the node is under pressure (kswapd wakes).
    pub(crate) fn under_pressure(&self, free: usize) -> bool {
        free < self.low
    }

    /// Whether reclaim has restored enough free memory to stop.
    pub(crate) fn balanced(&self, free: usize) -> bool {
        free >= self.high
    }

    /// Whether an ordinary allocation is allowed with `free` pages left.
    pub(crate) fn can_allocate(&self, free: usize) -> bool {
        free > self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_invariant() {
        for (node, total) in [(256, 1024), (1024, 1024), (16, 100_000), (100_000, 100_000)] {
            let w = Watermarks::for_node(node, total);
            assert!(w.min < w.low, "{w:?}");
            assert!(w.low < w.high, "{w:?}");
            assert!(w.high < node, "watermarks must leave usable memory: {w:?}");
        }
    }

    #[test]
    fn bigger_nodes_get_bigger_reserves() {
        let small = Watermarks::for_node(1_000, 100_000);
        let large = Watermarks::for_node(50_000, 100_000);
        assert!(large.min > small.min);
    }

    #[test]
    fn pressure_and_balance_transitions() {
        let w = Watermarks::for_node(4096, 20_480);
        assert!(w.under_pressure(w.low - 1));
        assert!(!w.under_pressure(w.low));
        assert!(w.balanced(w.high));
        assert!(!w.balanced(w.high - 1));
        assert!(w.can_allocate(w.min + 1));
        assert!(!w.can_allocate(w.min));
    }

    #[test]
    fn tiny_node_still_has_valid_watermarks() {
        let w = Watermarks::for_node(8, 4096);
        assert!(w.min >= 1);
        assert!(w.min < w.low && w.low < w.high);
    }

    #[test]
    #[should_panic(expected = "node cannot exceed")]
    fn rejects_node_bigger_than_system() {
        let _ = Watermarks::for_node(10, 5);
    }
}
