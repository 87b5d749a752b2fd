//! PageRank (GAPBS `pr`), push-based with dangling-mass redistribution.

use crate::graph::builder::Csr;
use crate::graph::mem_vec::MemVec;
use crate::memory::Memory;

/// Damping factor used by GAPBS.
pub(crate) const DAMPING: f64 = 0.85;

/// Runs `iters` synchronous PageRank iterations; the returned ranks sum
/// to ~1.
pub fn pagerank<M: Memory + ?Sized>(csr: &mut Csr, mem: &mut M, iters: usize) -> MemVec<f64> {
    let n = csr.num_vertices();
    let mut rank: MemVec<f64> = csr.vertex_array(mem, 1.0 / n as f64);
    let mut next: MemVec<f64> = csr.vertex_array(mem, 0.0);
    for _ in 0..iters {
        let mut dangling = 0.0f64;
        for u in 0..n {
            let r = rank.get(mem, u);
            let deg = csr.degree(mem, u as u32);
            if deg == 0 {
                dangling += r;
                continue;
            }
            let share = DAMPING * r / deg as f64;
            for &v in csr.neighbors(mem, u as u32) {
                let cur = next.get(mem, v as usize);
                next.set(mem, v as usize, cur + share);
            }
        }
        let base = (1.0 - DAMPING) / n as f64 + DAMPING * dangling / n as f64;
        for v in 0..n {
            let nv = next.get(mem, v) + base;
            next.set(mem, v, nv);
        }
        std::mem::swap(&mut rank, &mut next);
        next.fill(mem, 0.0);
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::builder::GraphConfig;
    use crate::memory::SimpleMemory;

    fn cfg(scale: u32, symmetric: bool) -> GraphConfig {
        GraphConfig {
            scale,
            symmetric,
            max_weight: 0,
            ..Default::default()
        }
    }

    #[test]
    fn ranks_sum_to_one() {
        let mut mem = SimpleMemory::new();
        let mut csr = Csr::build(
            &GraphConfig {
                scale: 7,
                degree: 4,
                max_weight: 0,
                ..Default::default()
            },
            &mut mem,
        );
        let rank = pagerank(&mut csr, &mut mem, 20);
        let total: f64 = rank.as_slice_unaccounted().iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "sum={total}");
    }

    #[test]
    fn star_center_outranks_leaves() {
        let mut mem = SimpleMemory::new();
        // Star: 0 at the centre of 1..=6 (symmetric).
        let edges = (1..=6).map(|v| (0u32, v as u32)).collect();
        let mut csr = Csr::from_edges(&cfg(3, true), &mut mem, edges);
        let rank = pagerank(&mut csr, &mut mem, 30);
        let r = rank.as_slice_unaccounted();
        for v in 1..=6 {
            assert!(r[0] > r[v], "centre {} vs leaf {}", r[0], r[v]);
        }
        // Leaves are symmetric, so their ranks agree.
        for v in 2..=6 {
            assert!((r[1] - r[v]).abs() < 1e-12);
        }
    }

    #[test]
    fn ring_is_uniform() {
        let mut mem = SimpleMemory::new();
        let n = 8u32;
        let edges = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let mut csr = Csr::from_edges(&cfg(3, false), &mut mem, edges);
        let rank = pagerank(&mut csr, &mut mem, 50);
        let r = rank.as_slice_unaccounted();
        for v in 1..n as usize {
            assert!((r[0] - r[v]).abs() < 1e-9, "ring must be uniform");
        }
    }

    #[test]
    fn dangling_mass_is_conserved() {
        let mut mem = SimpleMemory::new();
        // 0 -> 1, 1 dangles.
        let mut csr = Csr::from_edges(&cfg(1, false), &mut mem, vec![(0, 1)]);
        let rank = pagerank(&mut csr, &mut mem, 40);
        let r = rank.as_slice_unaccounted();
        let total: f64 = r.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(r[1] > r[0], "1 receives 0's rank plus base");
    }
}
