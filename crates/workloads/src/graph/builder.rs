//! Graph generation and CSR construction.
//!
//! GAPBS's synthetic input is a Kronecker/R-MAT graph (`-g scale`, degree
//! 16, partition probabilities A=0.57, B=0.19, C=0.19); we implement that
//! generator plus a uniform (Erdős–Rényi-style) one, both deterministic
//! under a seed.

use crate::graph::mem_vec::MemVec;
use crate::memory::Memory;
use mc_mem::{PageKind, VAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for graph construction.
#[derive(Debug, Clone)]
pub struct GraphConfig {
    /// log2 of the vertex count (GAPBS `-g`).
    pub scale: u32,
    /// Average directed degree (GAPBS `-k`, default 16).
    pub degree: usize,
    /// Make the graph undirected by adding reverse edges (required by CC,
    /// TC, BC; GAPBS symmetrises for those kernels).
    pub symmetric: bool,
    /// Attach uniform random weights in `1..=max_weight` (SSSP).
    pub max_weight: u32,
    /// RNG seed.
    pub seed: u64,
    /// Vertex-array slots pre-reserved in the arena (each `n * 8` bytes).
    pub arena_slots: usize,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            scale: 12,
            degree: 16,
            symmetric: true,
            max_weight: 255,
            seed: 27491095, // GAPBS's default generator seed
            arena_slots: 8,
        }
    }
}

/// Generates R-MAT edges: `2^scale` vertices, `degree * 2^scale` edges.
pub fn rmat_edges(scale: u32, degree: usize, seed: u64) -> Vec<(u32, u32)> {
    const A: f64 = 0.57;
    const B: f64 = 0.19;
    const C: f64 = 0.19;
    let n = 1u32 << scale;
    let m = (n as usize) * degree;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut src, mut dst) = (0u32, 0u32);
        for bit in (0..scale).rev() {
            let r: f64 = rng.gen();
            if r < A {
                // top-left: no bits set
            } else if r < A + B {
                dst |= 1 << bit;
            } else if r < A + B + C {
                src |= 1 << bit;
            } else {
                src |= 1 << bit;
                dst |= 1 << bit;
            }
        }
        edges.push((src, dst));
    }
    edges
}

/// Generates uniform random edges.
#[cfg(test)]
pub(crate) fn uniform_edges(scale: u32, degree: usize, seed: u64) -> Vec<(u32, u32)> {
    let n = 1u32 << scale;
    let m = (n as usize) * degree;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect()
}

/// A compressed-sparse-row graph in simulated memory.
#[derive(Debug)]
pub struct Csr {
    n: usize,
    m: usize,
    offsets: MemVec<u64>,
    edges: MemVec<u32>,
    weights: Option<MemVec<u32>>,
    arena_base: VAddr,
    arena_slot_bytes: usize,
    arena_slots: usize,
    arena_used: usize,
}

impl Csr {
    /// Builds a CSR from the configured generator. Allocation order:
    /// offsets, vertex arena, then the edge (and weight) arrays — hottest
    /// data first, as the paper assumes for GAPBS.
    pub fn build<M: Memory + ?Sized>(cfg: &GraphConfig, mem: &mut M) -> Self {
        let raw = rmat_edges(cfg.scale, cfg.degree, cfg.seed);
        Self::from_edges(cfg, mem, raw)
    }

    /// Builds a CSR from an explicit edge list (tests, uniform graphs).
    pub(crate) fn from_edges<M: Memory + ?Sized>(
        cfg: &GraphConfig,
        mem: &mut M,
        mut raw: Vec<(u32, u32)>,
    ) -> Self {
        let n = 1usize << cfg.scale;
        // Drop self loops; symmetrise if requested.
        raw.retain(|(u, v)| u != v);
        if cfg.symmetric {
            // Appended in place: a separate reversed list would be a third
            // full-size buffer alive next to the old and the grown `raw`.
            let forward = raw.len();
            raw.reserve_exact(forward);
            for i in 0..forward {
                let (u, v) = raw[i];
                raw.push((v, u));
            }
        }
        // Sort and dedupe so neighbour lists are ordered (TC needs this).
        raw.sort_unstable();
        raw.dedup();
        let m = raw.len();

        // Native CSR construction.
        let mut offsets = vec![0u64; n + 1];
        for (u, _) in &raw {
            offsets[*u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let edges_native: Vec<u32> = raw.iter().map(|(_, v)| *v).collect();
        // The pair list is the builder's largest buffer and nothing below
        // reads it: free it before the simulated-memory placement and the
        // weights, so the host peak is `raw` + edges, not `raw` + all three.
        drop(raw);

        // Simulated-memory placement: offsets, arena, edges, weights.
        // The arena is *written* (faulted) before the edge array so its
        // frames are allocated first — physical placement follows fault
        // order, not mmap order, and GAPBS's builder really does populate
        // its vertex-indexed arrays while constructing the CSR. This is
        // what makes the paper's observation hold ("GAPBS workloads first
        // allocate memory that would be accessed the most"): under static
        // tiering the hot vertex data starts in DRAM.
        let offsets = MemVec::from_vec(mem, PageKind::Anon, offsets);
        let arena_slot_bytes = (n * 8).next_multiple_of(mc_mem::PAGE_SIZE);
        let arena_bytes = arena_slot_bytes * cfg.arena_slots.max(1);
        let arena_base = mem.mmap(arena_bytes, PageKind::Anon);
        mem.write(arena_base, arena_bytes);
        let edges = MemVec::from_vec(mem, PageKind::Anon, edges_native);
        let weights = if cfg.max_weight > 0 {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed_ca11);
            let w: Vec<u32> = (0..m).map(|_| rng.gen_range(1..=cfg.max_weight)).collect();
            Some(MemVec::from_vec(mem, PageKind::Anon, w))
        } else {
            None
        };

        Csr {
            n,
            m,
            offsets,
            edges,
            weights,
            arena_base,
            arena_slot_bytes,
            arena_slots: cfg.arena_slots.max(1),
            arena_used: 0,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of (directed) edges after symmetrisation/dedup.
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Whether edge weights are attached.
    pub(crate) fn has_weights(&self) -> bool {
        self.weights.is_some()
    }

    /// Total simulated bytes of the graph structure.
    pub fn footprint_bytes(&self) -> usize {
        self.offsets.bytes()
            + self.edges.bytes()
            + self.weights.as_ref().map_or(0, |w| w.bytes())
            + self.arena_slot_bytes * self.arena_slots
    }

    /// The out-degree of `u`.
    pub(crate) fn degree<M: Memory + ?Sized>(&self, mem: &mut M, u: u32) -> usize {
        let s = self.offsets.get(mem, u as usize);
        let e = self.offsets.get(mem, u as usize + 1);
        (e - s) as usize
    }

    /// The neighbour list of `u` (one offsets touch + a sequential edge
    /// range read).
    pub(crate) fn neighbors<M: Memory + ?Sized>(&self, mem: &mut M, u: u32) -> &[u32] {
        let s = self.offsets.get(mem, u as usize) as usize;
        let e = self.offsets.get(mem, u as usize + 1) as usize;
        self.edges.range(mem, s, e)
    }

    /// The neighbour list of `u` with edge weights.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no weights.
    pub(crate) fn neighbors_weighted<M: Memory + ?Sized>(
        &self,
        mem: &mut M,
        u: u32,
    ) -> (&[u32], &[u32]) {
        let s = self.offsets.get(mem, u as usize) as usize;
        let e = self.offsets.get(mem, u as usize + 1) as usize;
        let w = self.weights.as_ref().expect("graph has no weights");
        (self.edges.range(mem, s, e), w.range(mem, s, e))
    }

    /// Allocates a vertex-indexed array, preferring the pre-reserved arena
    /// (allocated before the edge array, hence likely DRAM-resident).
    // Inline so each kernel's codegen unit has its own copy. When a
    // caller crate's unit split left it out of line, PageRank's whole loop
    // compiled differently and ran ~5 % slower (2-vCPU Xeon host).
    #[inline]
    pub(crate) fn vertex_array<M, T>(&mut self, mem: &mut M, init: T) -> MemVec<T>
    where
        M: Memory + ?Sized,
        T: Copy,
    {
        let bytes = self.n * std::mem::size_of::<T>();
        if self.arena_used < self.arena_slots && bytes <= self.arena_slot_bytes {
            let base = self
                .arena_base
                .add((self.arena_used * self.arena_slot_bytes) as u64);
            self.arena_used += 1;
            MemVec::at(base, vec![init; self.n])
        } else {
            MemVec::new(mem, PageKind::Anon, self.n, init)
        }
    }

    /// Releases all arena slots (between benchmark trials; the arrays
    /// handed out must be dropped first).
    pub fn reset_arena(&mut self) {
        self.arena_used = 0;
    }

    /// A well-connected vertex to start traversals from (GAPBS picks
    /// random non-isolated sources; we pick the highest-degree vertex
    /// deterministically, then the k-th distinct ones for multi-source
    /// kernels).
    pub fn source_vertex(&self, k: usize) -> u32 {
        let off = self.offsets.as_slice_unaccounted();
        let mut degs: Vec<(usize, u32)> = (0..self.n)
            .map(|u| ((off[u + 1] - off[u]) as usize, u as u32))
            .collect();
        degs.sort_unstable_by_key(|(d, u)| (std::cmp::Reverse(*d), *u));
        degs[k % degs.len()].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::SimpleMemory;

    fn tiny_cfg(scale: u32) -> GraphConfig {
        GraphConfig {
            scale,
            degree: 4,
            ..Default::default()
        }
    }

    #[test]
    fn rmat_is_deterministic_and_sized() {
        let a = rmat_edges(8, 4, 1);
        let b = rmat_edges(8, 4, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 256 * 4);
        assert!(a.iter().all(|(u, v)| *u < 256 && *v < 256));
        let c = rmat_edges(8, 4, 2);
        assert_ne!(a, c, "different seed, different graph");
    }

    #[test]
    fn rmat_is_skewed() {
        // R-MAT hubs: max degree far above average.
        let edges = rmat_edges(10, 8, 7);
        let mut deg = vec![0usize; 1024];
        for (u, _) in &edges {
            deg[*u as usize] += 1;
        }
        let max = *deg.iter().max().unwrap();
        assert!(max > 8 * 4, "hub degree {max} should dwarf the average 8");
    }

    #[test]
    fn uniform_is_not_skewed() {
        let edges = uniform_edges(10, 8, 7);
        let mut deg = vec![0usize; 1024];
        for (u, _) in &edges {
            deg[*u as usize] += 1;
        }
        let max = *deg.iter().max().unwrap();
        assert!(max < 8 * 4, "uniform max degree {max} stays near the mean");
    }

    #[test]
    fn csr_adjacency_matches_edge_list() {
        let mut mem = SimpleMemory::new();
        let cfg = GraphConfig {
            scale: 3,
            symmetric: false,
            max_weight: 0,
            ..tiny_cfg(3)
        };
        let raw = vec![(0u32, 1u32), (0, 3), (1, 2), (5, 0), (0, 1)]; // dup kept once
        let csr = Csr::from_edges(&cfg, &mut mem, raw);
        assert_eq!(csr.num_vertices(), 8);
        assert_eq!(csr.num_edges(), 4);
        assert_eq!(csr.neighbors(&mut mem, 0), &[1, 3]);
        assert_eq!(csr.neighbors(&mut mem, 1), &[2]);
        assert_eq!(csr.neighbors(&mut mem, 5), &[0]);
        assert_eq!(csr.neighbors(&mut mem, 7), &[] as &[u32]);
        assert_eq!(csr.degree(&mut mem, 0), 2);
    }

    #[test]
    fn symmetrise_adds_reverse_edges() {
        let mut mem = SimpleMemory::new();
        let cfg = GraphConfig {
            scale: 3,
            symmetric: true,
            max_weight: 0,
            ..tiny_cfg(3)
        };
        let csr = Csr::from_edges(&cfg, &mut mem, vec![(0, 1), (2, 1)]);
        assert_eq!(csr.neighbors(&mut mem, 1), &[0, 2]);
        assert_eq!(csr.num_edges(), 4);
    }

    #[test]
    fn self_loops_dropped_neighbors_sorted() {
        let mut mem = SimpleMemory::new();
        let cfg = GraphConfig {
            scale: 3,
            symmetric: false,
            max_weight: 0,
            ..tiny_cfg(3)
        };
        let csr = Csr::from_edges(&cfg, &mut mem, vec![(0, 5), (0, 0), (0, 2), (0, 7)]);
        assert_eq!(csr.neighbors(&mut mem, 0), &[2, 5, 7]);
    }

    #[test]
    fn weights_align_with_edges() {
        let mut mem = SimpleMemory::new();
        let cfg = GraphConfig {
            scale: 3,
            symmetric: false,
            max_weight: 10,
            ..tiny_cfg(3)
        };
        let csr = Csr::from_edges(&cfg, &mut mem, vec![(0, 1), (0, 2), (3, 4)]);
        assert!(csr.has_weights());
        let (nbrs, ws) = csr.neighbors_weighted(&mut mem, 0);
        assert_eq!(nbrs.len(), ws.len());
        assert!(ws.iter().all(|w| (1..=10).contains(w)));
    }

    #[test]
    fn arena_hands_out_distinct_slots_before_edges_region() {
        let mut mem = SimpleMemory::new();
        let mut csr = Csr::build(&tiny_cfg(6), &mut mem);
        let a: MemVec<u64> = csr.vertex_array(&mut mem, 0);
        let b: MemVec<u64> = csr.vertex_array(&mut mem, 0);
        assert_ne!(a.base(), b.base());
        // Arena addresses precede the edge array (allocated after it).
        assert!(a.base().raw() < csr.edges.base().raw());
        csr.reset_arena();
        let c: MemVec<u64> = csr.vertex_array(&mut mem, 0);
        assert_eq!(c.base(), a.base(), "arena reuse after reset");
    }

    #[test]
    fn source_vertex_is_high_degree() {
        let mut mem = SimpleMemory::new();
        let csr = Csr::build(&tiny_cfg(8), &mut mem);
        let s = csr.source_vertex(0);
        let ds = csr.degree(&mut mem, s);
        // Must be at least average degree.
        assert!(ds >= csr.num_edges() / csr.num_vertices());
        assert_ne!(csr.source_vertex(0), csr.source_vertex(1));
    }

    #[test]
    fn footprint_accounts_all_regions() {
        let mut mem = SimpleMemory::new();
        let csr = Csr::build(&tiny_cfg(8), &mut mem);
        let fp = csr.footprint_bytes();
        assert!(fp > csr.num_edges() * 8, "edges + weights dominate");
    }
}
