//! Motivation-study workloads (paper §II-A, Figs. 1 and 2).
//!
//! The paper samples 50 pages from four applications (RUBiS, SPECpower,
//! DaCapo xalan and lusearch) and plots per-page access frequency over
//! time, observing three page populations:
//!
//! * **DRAM-friendly** pages: frequently accessed throughout execution;
//! * **tier-friendly** pages: *bimodal* — long phases of heavy access
//!   alternating with cold phases;
//! * **cold** pages: touched rarely.
//!
//! Since the original traces are not redistributable, each workload here
//! is a synthetic population with explicitly parameterised class mixes
//! (documented per constructor) that reproduces the heat-map structure —
//! which is all Figs. 1-2 (and the promotion-policy motivation) depend on.

use crate::memory::Memory;
use mc_mem::{PageKind, VAddr, PAGE_SIZE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Access behaviour of one page class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Behavior {
    /// Steadily hot: `rate` accesses per time slice.
    Hot {
        /// Accesses per slice.
        rate: u32,
    },
    /// Rarely touched: one access with probability `p` per slice.
    Cold {
        /// Access probability per slice.
        p: f64,
    },
    /// Bimodal ("tier-friendly"): alternates `on` slices at `hot_rate`
    /// with `off` slices at (at most) one access.
    Bimodal {
        /// Hot-phase length in slices.
        on: u32,
        /// Cold-phase length in slices.
        off: u32,
        /// Accesses per slice while hot.
        hot_rate: u32,
        /// Phase offset in slices (so pages are not synchronised).
        phase: u32,
    },
}

/// A class of pages sharing one behaviour.
#[derive(Debug, Clone)]
pub struct PageClass {
    /// Number of pages in the class.
    pub pages: usize,
    /// Their shared behaviour.
    pub behavior: Behavior,
}

/// A synthetic motivation workload: a set of page classes driven slice by
/// slice.
#[derive(Debug)]
pub struct MotivationWorkload {
    name: &'static str,
    classes: Vec<PageClass>,
    base: Option<VAddr>,
    rng: StdRng,
    slice: u64,
}

impl MotivationWorkload {
    /// Builds a workload from explicit classes.
    pub(crate) fn new(name: &'static str, classes: Vec<PageClass>, seed: u64) -> Self {
        assert!(!classes.is_empty(), "workload needs at least one class");
        MotivationWorkload {
            name,
            classes,
            base: None,
            rng: StdRng::seed_from_u64(seed),
            slice: 0,
        }
    }

    /// RUBiS-like (OLTP): a solid set of always-hot pages (buffer pool
    /// core), a band of bimodal pages (per-session state) and a cold tail.
    pub fn rubis(pages: usize, seed: u64) -> Self {
        Self::new(
            "RUBiS",
            vec![
                PageClass {
                    pages: pages * 30 / 100,
                    behavior: Behavior::Hot { rate: 24 },
                },
                PageClass {
                    pages: pages * 40 / 100,
                    behavior: Behavior::Bimodal {
                        on: 6,
                        off: 10,
                        hot_rate: 16,
                        phase: 3,
                    },
                },
                PageClass {
                    pages: pages - pages * 30 / 100 - pages * 40 / 100,
                    behavior: Behavior::Cold { p: 0.05 },
                },
            ],
            seed,
        )
    }

    /// SPECpower-like (at 80% load): mostly steady traffic with a smaller
    /// bimodal band (GC cycles) and few cold pages.
    pub(crate) fn specpower(pages: usize, seed: u64) -> Self {
        Self::new(
            "SPECpower",
            vec![
                PageClass {
                    pages: pages * 50 / 100,
                    behavior: Behavior::Hot { rate: 18 },
                },
                PageClass {
                    pages: pages * 30 / 100,
                    behavior: Behavior::Bimodal {
                        on: 8,
                        off: 8,
                        hot_rate: 14,
                        phase: 5,
                    },
                },
                PageClass {
                    pages: pages - pages * 50 / 100 - pages * 30 / 100,
                    behavior: Behavior::Cold { p: 0.1 },
                },
            ],
            seed,
        )
    }

    /// DaCapo xalan-like (XML transform): strongly phased — most pages are
    /// bimodal with long phases, small hot core.
    pub(crate) fn xalan(pages: usize, seed: u64) -> Self {
        Self::new(
            "xalan",
            vec![
                PageClass {
                    pages: pages * 15 / 100,
                    behavior: Behavior::Hot { rate: 20 },
                },
                PageClass {
                    pages: pages * 60 / 100,
                    behavior: Behavior::Bimodal {
                        on: 12,
                        off: 14,
                        hot_rate: 22,
                        phase: 7,
                    },
                },
                PageClass {
                    pages: pages - pages * 15 / 100 - pages * 60 / 100,
                    behavior: Behavior::Cold { p: 0.03 },
                },
            ],
            seed,
        )
    }

    /// DaCapo lusearch-like (Lucene search): scattered short bursts over a
    /// large cold corpus with a modest hot core (index roots).
    pub(crate) fn lusearch(pages: usize, seed: u64) -> Self {
        Self::new(
            "lusearch",
            vec![
                PageClass {
                    pages: pages * 20 / 100,
                    behavior: Behavior::Hot { rate: 14 },
                },
                PageClass {
                    pages: pages * 25 / 100,
                    behavior: Behavior::Bimodal {
                        on: 3,
                        off: 9,
                        hot_rate: 18,
                        phase: 2,
                    },
                },
                PageClass {
                    pages: pages - pages * 20 / 100 - pages * 25 / 100,
                    behavior: Behavior::Cold { p: 0.15 },
                },
            ],
            seed,
        )
    }

    /// All four paper workload generators, Fig. 1 order.
    pub fn all_paper_workloads(pages: usize, seed: u64) -> Vec<MotivationWorkload> {
        vec![
            Self::rubis(pages, seed),
            Self::specpower(pages, seed + 1),
            Self::xalan(pages, seed + 2),
            Self::lusearch(pages, seed + 3),
        ]
    }

    /// The workload's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Total pages across classes.
    pub(crate) fn total_pages(&self) -> usize {
        self.classes.iter().map(|c| c.pages).sum()
    }

    /// Runs one time slice: touches pages according to their class
    /// behaviour and returns the per-page access counts of this slice.
    /// The region is mapped on first use.
    pub(crate) fn step<M: Memory + ?Sized>(&mut self, mem: &mut M) -> Vec<u32> {
        let total = self.total_pages();
        let base = *self
            .base
            .get_or_insert_with(|| mem.mmap(total * PAGE_SIZE, PageKind::Anon));
        let mut counts = vec![0u32; total];
        let mut idx = 0usize;
        let slice = self.slice;
        for class in self.classes.clone() {
            for _ in 0..class.pages {
                let c = match class.behavior {
                    Behavior::Hot { rate } => rate,
                    Behavior::Cold { p } => u32::from(self.rng.gen_bool(p)),
                    Behavior::Bimodal {
                        on,
                        off,
                        hot_rate,
                        phase,
                    } => {
                        let pos = (slice + phase as u64 + idx as u64) % (on + off) as u64;
                        if pos < on as u64 {
                            hot_rate
                        } else {
                            u32::from(self.rng.gen_bool(0.05))
                        }
                    }
                };
                if c > 0 {
                    let addr = base.add((idx * PAGE_SIZE) as u64);
                    for _ in 0..c {
                        mem.read(addr.add(self.rng.gen_range(0..PAGE_SIZE as u64 / 2)), 8);
                    }
                    counts[idx] = c;
                }
                idx += 1;
            }
        }
        self.slice += 1;
        counts
    }

    /// Runs `slices` slices, returning the access-count matrix
    /// (slice-major: `matrix[t][page]`) — the data behind a Fig. 1 heat
    /// map.
    pub fn heatmap<M: Memory + ?Sized>(&mut self, mem: &mut M, slices: usize) -> Vec<Vec<u32>> {
        (0..slices).map(|_| self.step(mem)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::SimpleMemory;

    #[test]
    fn class_mix_covers_all_pages() {
        for w in MotivationWorkload::all_paper_workloads(50, 1) {
            assert_eq!(w.total_pages(), 50, "{}", w.name());
        }
    }

    #[test]
    #[expect(
        clippy::needless_range_loop,
        reason = "parallel-matrix indexing reads clearer"
    )]
    fn hot_pages_are_hot_every_slice() {
        let mut mem = SimpleMemory::new();
        let mut w = MotivationWorkload::rubis(50, 1);
        let m = w.heatmap(&mut mem, 20);
        // The first 15 pages (30%) are the Hot class at rate 24.
        for t in 0..20 {
            for p in 0..15 {
                assert_eq!(m[t][p], 24, "hot page {p} at slice {t}");
            }
        }
    }

    #[test]
    #[expect(
        clippy::needless_range_loop,
        reason = "parallel-matrix indexing reads clearer"
    )]
    fn bimodal_pages_alternate() {
        let mut mem = SimpleMemory::new();
        let mut w = MotivationWorkload::xalan(50, 2);
        let m = w.heatmap(&mut mem, 60);
        // Pages 7..37 are bimodal (60%): each must show both hot and cold
        // slices.
        for p in 8..37 {
            let series: Vec<u32> = (0..60).map(|t| m[t][p]).collect();
            let hot_slices = series.iter().filter(|c| **c >= 22).count();
            let cold_slices = series.iter().filter(|c| **c <= 1).count();
            assert!(hot_slices >= 10, "page {p}: {series:?}");
            assert!(cold_slices >= 10, "page {p}: {series:?}");
        }
    }

    #[test]
    #[expect(
        clippy::needless_range_loop,
        reason = "parallel-matrix indexing reads clearer"
    )]
    fn cold_pages_access_rarely() {
        let mut mem = SimpleMemory::new();
        let mut w = MotivationWorkload::rubis(100, 3);
        let m = w.heatmap(&mut mem, 50);
        // Last 30 pages are cold with p=0.05: expect ~2.5 accesses each.
        for p in 70..100 {
            let total: u32 = (0..50).map(|t| m[t][p]).sum();
            assert!(total <= 10, "cold page {p} accessed {total} times");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut mem = SimpleMemory::new();
            MotivationWorkload::lusearch(50, seed).heatmap(&mut mem, 10)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn step_touches_simulated_memory() {
        let mut mem = SimpleMemory::new();
        let mut w = MotivationWorkload::specpower(50, 1);
        w.step(&mut mem);
        assert!(mem.accesses > 0);
    }
}
