//! Single-source shortest paths (GAPBS `sssp`) on the weighted graph.
//!
//! GAPBS uses delta-stepping; we use Dijkstra with a binary heap, which
//! computes the same distances with the same memory character the tiering
//! system cares about (random-access distance array + sequential edge
//! scans per settled vertex).

use crate::graph::builder::Csr;
use crate::graph::mem_vec::MemVec;
use crate::memory::Memory;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Distance assigned to unreachable vertices.
pub(crate) const UNREACHABLE: u64 = u64::MAX;

/// Computes shortest-path distances from `source`.
///
/// # Panics
///
/// Panics if the graph has no edge weights.
pub fn sssp<M: Memory + ?Sized>(csr: &mut Csr, mem: &mut M, source: u32) -> MemVec<u64> {
    assert!(csr.has_weights(), "SSSP needs a weighted graph");
    let mut dist: MemVec<u64> = csr.vertex_array(mem, UNREACHABLE);
    dist.set(mem, source as usize, 0);
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    heap.push(Reverse((0, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist.get(mem, u as usize) {
            continue; // stale entry
        }
        let (nbrs, ws) = csr.neighbors_weighted(mem, u);
        for (&v, &w) in nbrs.iter().zip(ws) {
            let nd = d + w as u64;
            if nd < dist.get(mem, v as usize) {
                dist.set(mem, v as usize, nd);
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::builder::{rmat_edges, GraphConfig};
    use crate::memory::SimpleMemory;

    #[test]
    fn line_graph_distances_accumulate_weights() {
        let mut mem = SimpleMemory::new();
        let cfg = GraphConfig {
            scale: 2,
            symmetric: false,
            max_weight: 9,
            seed: 5,
            ..Default::default()
        };
        let mut csr = Csr::from_edges(&cfg, &mut mem, vec![(0, 1), (1, 2), (2, 3)]);
        // Read the generated weights back to compute the expectation.
        let (n0, w0) = csr.neighbors_weighted(&mut mem, 0);
        assert_eq!(n0, &[1]);
        let w01 = w0[0] as u64;
        let (_, w1) = csr.neighbors_weighted(&mut mem, 1);
        let w12 = w1[0] as u64;
        let dist = sssp(&mut csr, &mut mem, 0);
        let d = dist.as_slice_unaccounted();
        assert_eq!(d[0], 0);
        assert_eq!(d[1], w01);
        assert_eq!(d[2], w01 + w12);
        assert!(
            (d[2] + 1..=d[2] + 9).contains(&d[3]),
            "last hop within weight range"
        );
    }

    #[test]
    fn unreachable_is_max() {
        let mut mem = SimpleMemory::new();
        let cfg = GraphConfig {
            scale: 3,
            symmetric: false,
            max_weight: 5,
            ..Default::default()
        };
        let mut csr = Csr::from_edges(&cfg, &mut mem, vec![(0, 1), (5, 6)]);
        let dist = sssp(&mut csr, &mut mem, 0);
        assert_eq!(dist.as_slice_unaccounted()[5], UNREACHABLE);
        assert_eq!(dist.as_slice_unaccounted()[6], UNREACHABLE);
    }

    #[test]
    fn matches_native_dijkstra_on_rmat() {
        let mut mem = SimpleMemory::new();
        let cfg = GraphConfig {
            scale: 7,
            degree: 4,
            symmetric: true,
            max_weight: 16,
            seed: 11,
            ..Default::default()
        };
        let raw = rmat_edges(7, 4, 11);
        let mut csr = Csr::from_edges(&cfg, &mut mem, raw);
        let src = csr.source_vertex(0);

        // Native reference over the exact same (deduped, weighted) CSR.
        let n = csr.num_vertices();
        let mut adj: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        for u in 0..n as u32 {
            let (nbrs, ws) = csr.neighbors_weighted(&mut mem, u);
            adj[u as usize] = nbrs.iter().copied().zip(ws.iter().copied()).collect();
        }
        let mut want = vec![u64::MAX; n];
        want[src as usize] = 0;
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(std::cmp::Reverse((0u64, src)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > want[u as usize] {
                continue;
            }
            for &(v, w) in &adj[u as usize] {
                let nd = d + w as u64;
                if nd < want[v as usize] {
                    want[v as usize] = nd;
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }

        let got = sssp(&mut csr, &mut mem, src);
        assert_eq!(got.as_slice_unaccounted(), &want[..]);
    }

    #[test]
    #[should_panic(expected = "weighted")]
    fn unweighted_graph_rejected() {
        let mut mem = SimpleMemory::new();
        let cfg = GraphConfig {
            scale: 2,
            max_weight: 0,
            ..Default::default()
        };
        let mut csr = Csr::from_edges(&cfg, &mut mem, vec![(0, 1)]);
        let _ = sssp(&mut csr, &mut mem, 0);
    }
}
