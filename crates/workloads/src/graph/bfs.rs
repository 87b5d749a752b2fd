//! Breadth-first search (GAPBS `bfs`), top-down, returning the parent
//! array.

use crate::graph::builder::Csr;
use crate::graph::mem_vec::MemVec;
use crate::memory::Memory;

/// Runs BFS from `source`; `parent[v] == -1` for unreached vertices and
/// `parent[source] == source`.
pub fn bfs<M: Memory + ?Sized>(csr: &mut Csr, mem: &mut M, source: u32) -> MemVec<i64> {
    let mut parent: MemVec<i64> = csr.vertex_array(mem, -1);
    parent.set(mem, source as usize, source as i64);
    let mut frontier = vec![source];
    let mut next = Vec::new();
    while !frontier.is_empty() {
        for &u in &frontier {
            for &v in csr.neighbors(mem, u) {
                if parent.get(mem, v as usize) == -1 {
                    parent.set(mem, v as usize, u as i64);
                    next.push(v);
                }
            }
        }
        frontier.clear();
        std::mem::swap(&mut frontier, &mut next);
    }
    parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::builder::{rmat_edges, GraphConfig};
    use crate::memory::SimpleMemory;
    use std::collections::VecDeque;

    fn native_bfs_depths(n: usize, adj: &[Vec<u32>], src: u32) -> Vec<i64> {
        let mut depth = vec![-1i64; n];
        depth[src as usize] = 0;
        let mut q = VecDeque::from([src]);
        while let Some(u) = q.pop_front() {
            for &v in &adj[u as usize] {
                if depth[v as usize] == -1 {
                    depth[v as usize] = depth[u as usize] + 1;
                    q.push_back(v);
                }
            }
        }
        depth
    }

    fn adjacency(n: usize, edges: &[(u32, u32)], symmetric: bool) -> Vec<Vec<u32>> {
        let mut adj = vec![Vec::new(); n];
        for (u, v) in edges {
            if u == v {
                continue;
            }
            adj[*u as usize].push(*v);
            if symmetric {
                adj[*v as usize].push(*u);
            }
        }
        adj
    }

    #[test]
    fn path_graph_parents() {
        let mut mem = SimpleMemory::new();
        let cfg = GraphConfig {
            scale: 2,
            symmetric: true,
            max_weight: 0,
            ..Default::default()
        };
        let mut csr = Csr::from_edges(&cfg, &mut mem, vec![(0, 1), (1, 2), (2, 3)]);
        let parent = bfs(&mut csr, &mut mem, 0);
        let p = parent.as_slice_unaccounted();
        assert_eq!(p[0], 0);
        assert_eq!(p[1], 0);
        assert_eq!(p[2], 1);
        assert_eq!(p[3], 2);
    }

    #[test]
    fn unreachable_vertices_stay_unparented() {
        let mut mem = SimpleMemory::new();
        let cfg = GraphConfig {
            scale: 3,
            symmetric: true,
            max_weight: 0,
            ..Default::default()
        };
        let mut csr = Csr::from_edges(&cfg, &mut mem, vec![(0, 1), (4, 5)]);
        let parent = bfs(&mut csr, &mut mem, 0);
        let p = parent.as_slice_unaccounted();
        assert_eq!(p[4], -1);
        assert_eq!(p[5], -1);
        assert_eq!(p[1], 0);
    }

    #[test]
    fn bfs_tree_is_valid_on_rmat() {
        // GAPBS's BFS verifier logic: parents must be real neighbours and
        // the implied depths must match a reference BFS.
        let mut mem = SimpleMemory::new();
        let cfg = GraphConfig {
            scale: 8,
            degree: 4,
            symmetric: true,
            max_weight: 0,
            ..Default::default()
        };
        let raw = rmat_edges(8, 4, 3);
        let adj = adjacency(256, &raw, true);
        let mut csr = Csr::from_edges(&cfg, &mut mem, raw);
        let src = csr.source_vertex(0);
        let parent = bfs(&mut csr, &mut mem, src);
        let p = parent.as_slice_unaccounted();
        let depth = native_bfs_depths(256, &adj, src);
        // Compute depths from the parent tree.
        for v in 0..256usize {
            if depth[v] == -1 {
                assert_eq!(p[v], -1, "vertex {v} unreachable but parented");
                continue;
            }
            assert_ne!(p[v], -1, "vertex {v} reachable but unparented");
            if v as u32 != src {
                let pu = p[v] as usize;
                assert!(adj[pu].contains(&(v as u32)), "parent edge missing");
                assert_eq!(depth[v], depth[pu] + 1, "vertex {v} has non-tree depth");
            }
        }
    }
}
