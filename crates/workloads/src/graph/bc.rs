//! Betweenness centrality (GAPBS `bc`): Brandes' algorithm on unweighted
//! graphs, approximated from `k` high-degree source vertices as GAPBS does
//! with its `-i` iterations parameter.

use crate::graph::builder::Csr;
use crate::graph::mem_vec::MemVec;
use crate::memory::Memory;

/// Computes (unnormalised, directed-contribution) betweenness scores from
/// `num_sources` sources.
pub fn bc<M: Memory + ?Sized>(csr: &mut Csr, mem: &mut M, num_sources: usize) -> MemVec<f64> {
    let mut centrality: MemVec<f64> = csr.vertex_array(mem, 0.0);
    let mut depth: MemVec<i32> = csr.vertex_array(mem, -1);
    let mut sigma: MemVec<f64> = csr.vertex_array(mem, 0.0);
    let mut delta: MemVec<f64> = csr.vertex_array(mem, 0.0);

    for k in 0..num_sources {
        let s = csr.source_vertex(k);
        depth.fill(mem, -1);
        sigma.fill(mem, 0.0);
        delta.fill(mem, 0.0);
        depth.set(mem, s as usize, 0);
        sigma.set(mem, s as usize, 1.0);

        // Forward phase: BFS recording visitation order and path counts.
        let mut order: Vec<u32> = Vec::new();
        let mut frontier = vec![s];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                order.push(u);
                let du = depth.get(mem, u as usize);
                let su = sigma.get(mem, u as usize);
                for &v in csr.neighbors(mem, u) {
                    let dv = depth.get(mem, v as usize);
                    if dv == -1 {
                        depth.set(mem, v as usize, du + 1);
                        sigma.set(mem, v as usize, su);
                        next.push(v);
                    } else if dv == du + 1 {
                        let sv = sigma.get(mem, v as usize);
                        sigma.set(mem, v as usize, sv + su);
                    }
                }
            }
            frontier = next;
        }

        // Backward phase: dependency accumulation in reverse BFS order.
        for &v in order.iter().rev() {
            let dv = depth.get(mem, v as usize);
            let sv = sigma.get(mem, v as usize);
            let mut acc = 0.0;
            for &w in csr.neighbors(mem, v) {
                if depth.get(mem, w as usize) == dv + 1 {
                    let sw = sigma.get(mem, w as usize);
                    let dw = delta.get(mem, w as usize);
                    acc += sv / sw * (1.0 + dw);
                }
            }
            let cur = delta.get(mem, v as usize);
            delta.set(mem, v as usize, cur + acc);
            if v != s {
                let c = centrality.get(mem, v as usize);
                centrality.set(mem, v as usize, c + cur + acc);
            }
        }
    }
    centrality
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::builder::GraphConfig;
    use crate::memory::SimpleMemory;

    fn cfg(scale: u32) -> GraphConfig {
        GraphConfig {
            scale,
            symmetric: true,
            max_weight: 0,
            arena_slots: 8,
            ..Default::default()
        }
    }

    #[test]
    fn path_midpoint_has_highest_centrality() {
        let mut mem = SimpleMemory::new();
        // Path 0-1-2-3-4: vertex 2 lies on the most shortest paths. With
        // one source the scores are partial, so use every vertex as a
        // source by asking for >= n sources? bc() picks by degree; on a
        // path the interior vertices (degree 2) come first. Use 5 sources.
        let mut csr = Csr::from_edges(&cfg(3), &mut mem, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
        let c = bc(&mut csr, &mut mem, 5);
        let s = c.as_slice_unaccounted();
        assert!(s[2] > s[1] && s[2] > s[3], "midpoint wins: {s:?}");
        assert!(s[1] > s[0] && s[3] > s[4]);
    }

    #[test]
    fn star_center_carries_all_paths() {
        let mut mem = SimpleMemory::new();
        let edges = (1..=5).map(|v| (0u32, v as u32)).collect();
        let mut csr = Csr::from_edges(&cfg(3), &mut mem, edges);
        let c = bc(&mut csr, &mut mem, 6);
        let s = c.as_slice_unaccounted();
        for v in 1..=5 {
            assert!(s[0] > s[v]);
        }
    }

    #[test]
    fn matches_native_brandes_single_source() {
        let mut mem = SimpleMemory::new();
        // A small fixed graph with branching shortest paths:
        //   0-1, 0-2, 1-3, 2-3, 3-4  (two shortest 0->3 paths)
        let edges = vec![(0u32, 1u32), (0, 2), (1, 3), (2, 3), (3, 4)];
        let mut csr = Csr::from_edges(&cfg(3), &mut mem, edges);
        // Force source 0 by checking source_vertex: vertex 3 and 0 have
        // degree 3 and 2... compute with k=1 (highest degree = 3).
        let c = bc(&mut csr, &mut mem, 1);
        let s = c.as_slice_unaccounted();
        // Source is vertex 3 (degree 3). From 3: paths 3->0 via 1 or 2
        // split sigma. delta(1)=delta(2)=0.5, delta(4)=0, delta(0)=0.
        assert_eq!(csr.source_vertex(0), 3);
        assert!((s[1] - 0.5).abs() < 1e-9, "{s:?}");
        assert!((s[2] - 0.5).abs() < 1e-9);
        assert!(s[0].abs() < 1e-9);
        assert!(s[4].abs() < 1e-9);
        assert!(s[3].abs() < 1e-9, "source excluded");
    }
}
