//! Connected components (GAPBS `cc`) by label propagation on the
//! symmetric graph: every vertex converges to the minimum vertex id of
//! its component.

use crate::graph::builder::Csr;
use crate::graph::mem_vec::MemVec;
use crate::memory::Memory;

/// Computes component labels; `label[v]` is the smallest vertex id in
/// `v`'s component.
pub fn cc<M: Memory + ?Sized>(csr: &mut Csr, mem: &mut M) -> MemVec<u32> {
    let n = csr.num_vertices();
    let mut label: MemVec<u32> = csr.vertex_array(mem, 0);
    for v in 0..n {
        label.set(mem, v, v as u32);
    }
    let mut changed = true;
    while changed {
        changed = false;
        for u in 0..n {
            let lu = label.get(mem, u);
            let nbrs = csr.neighbors(mem, u as u32);
            let mut best = lu;
            for v in nbrs {
                let lv = label.get(mem, *v as usize);
                if lv < best {
                    best = lv;
                }
            }
            if best < lu {
                label.set(mem, u, best);
                changed = true;
            }
            // Push the improved label back out (speeds convergence).
            if best < lu {
                for &v in nbrs {
                    if label.get(mem, v as usize) > best {
                        label.set(mem, v as usize, best);
                        changed = true;
                    }
                }
            }
        }
    }
    label
}

/// Counts distinct components in a label array.
pub fn component_count(label: &MemVec<u32>) -> usize {
    let mut ids: Vec<u32> = label.as_slice_unaccounted().to_vec();
    ids.sort_unstable();
    ids.dedup();
    ids.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::builder::{uniform_edges, GraphConfig};
    use crate::memory::SimpleMemory;

    fn cfg(scale: u32) -> GraphConfig {
        GraphConfig {
            scale,
            symmetric: true,
            max_weight: 0,
            ..Default::default()
        }
    }

    #[test]
    fn two_cliques_two_components() {
        let mut mem = SimpleMemory::new();
        let mut edges = Vec::new();
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                edges.push((u, v));
            }
        }
        for u in 4..8u32 {
            for v in (u + 1)..8 {
                edges.push((u, v));
            }
        }
        let mut csr = Csr::from_edges(&cfg(3), &mut mem, edges);
        let label = cc(&mut csr, &mut mem);
        let l = label.as_slice_unaccounted();
        assert!(l[..4].iter().all(|x| *x == 0));
        assert!(l[4..8].iter().all(|x| *x == 4));
        assert_eq!(component_count(&label), 2);
    }

    #[test]
    fn isolated_vertices_are_their_own_components() {
        let mut mem = SimpleMemory::new();
        let mut csr = Csr::from_edges(&cfg(3), &mut mem, vec![(0, 1)]);
        let label = cc(&mut csr, &mut mem);
        assert_eq!(component_count(&label), 7, "one pair + six singletons");
    }

    #[test]
    #[expect(
        clippy::needless_range_loop,
        reason = "parallel-matrix indexing reads clearer"
    )]
    fn matches_native_union_find_on_random_graph() {
        let mut mem = SimpleMemory::new();
        let raw = uniform_edges(8, 1, 9);
        let n = 256usize;

        // Native union-find reference.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        for (u, v) in &raw {
            if u == v {
                continue;
            }
            let (ru, rv) = (
                find(&mut parent, *u as usize),
                find(&mut parent, *v as usize),
            );
            if ru != rv {
                parent[ru.max(rv)] = ru.min(rv);
            }
        }
        let mut want = vec![0u32; n];
        for v in 0..n {
            want[v] = find(&mut parent, v) as u32;
        }
        // Canonicalise: label = min id in component (true for union-find
        // with min-root union as written).
        let mut csr = Csr::from_edges(&cfg(8), &mut mem, raw);
        let label = cc(&mut csr, &mut mem);
        let got = label.as_slice_unaccounted();
        // Same partition: compare label equivalence classes.
        for a in 0..n {
            for b in (a + 1)..n.min(a + 40) {
                assert_eq!(
                    got[a] == got[b],
                    want[a] == want[b],
                    "partition mismatch at ({a},{b})"
                );
            }
        }
    }
}
