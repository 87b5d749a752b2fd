//! Graph generation and CSR construction.
//!
//! GAPBS's synthetic input is a Kronecker/R-MAT graph (`-g scale`, degree
//! 16, partition probabilities A=0.57, B=0.19, C=0.19); we implement that
//! generator plus a uniform (Erdős–Rényi-style) one, both deterministic
//! under a seed.
//!
//! [`Csr::from_edges`] builds the CSR the way GAPBS's `MakeCSR` →
//! `SquishCSR` does, without sorting the pair list: *count* each vertex's
//! degree (self-loops dropped, both directions when symmetric), prefix-sum
//! the counts into offsets and *scatter* every neighbour into its slot,
//! then *squish*: sort and dedup each neighbour slice in place and compact
//! the array, rewriting the offsets as it goes. The result equals a sort
//! and dedup of the pairs; the tests keep that as the oracle.
//!
//! Edge weights are lazy on the host. Their simulated region is mapped and
//! written at build time, so placement and every simulated result are as
//! if they were eager, but the host array is generated from its seeded
//! stream on the first [`Csr::neighbors_weighted`] call. Only SSSP reads
//! weights, so a graph built for any other kernel never holds them.

use crate::graph::mem_vec::MemVec;
use crate::memory::Memory;
use mc_mem::{PageKind, VAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::OnceCell;

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
            // One draw picks a quadrant: below A neither bit, then dst
            // only, then src only, then both. Comparisons, not branches:
            // the quadrant is random, so a branch on it mispredicts often.
            let r: f64 = rng.gen();
            let lower = r >= A + B;
            let right = ((r >= A) & !lower) | (r >= A + B + C);
            src |= u32::from(lower) << bit;
            dst |= u32::from(right) << bit;
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
    weights: Option<Weights>,
    arena_base: VAddr,
    arena_slot_bytes: usize,
    arena_slots: usize,
    arena_used: usize,
}

/// Edge weights: a simulated region mapped and written at build time, and
/// a host array generated on the first read.
#[derive(Debug)]
struct Weights {
    base: VAddr,
    len: usize,
    max_weight: u32,
    seed: u64,
    host: OnceCell<MemVec<u32>>,
}

impl Weights {
    /// The weights, generated on first use: `len` draws from
    /// `1..=max_weight`, one per edge in CSR order.
    fn host(&self) -> &MemVec<u32> {
        self.host.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(self.seed);
            let w = (0..self.len)
                .map(|_| rng.gen_range(1..=self.max_weight))
                .collect();
            MemVec::at(self.base, w)
        })
    }
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
        raw: Vec<(u32, u32)>,
    ) -> Self {
        let n = 1usize << cfg.scale;
        // `raw` is freed inside, before anything below maps or allocates.
        let (offsets, edges_native) = count_scatter_squish(n, cfg.symmetric, raw);
        let m = edges_native.len();

        // Simulated-memory placement: offsets, arena, edges, weights.
        // The arena is *written* (faulted) before the edge array so its
        // frames are allocated first — physical placement follows fault
        // order, not mmap order, and GAPBS's builder really does populate
        // its vertex-indexed arrays while constructing the CSR. This is
        // what makes the paper's observation hold ("GAPBS workloads first
        // allocate memory that would be accessed the most"): under static
        // tiering the hot vertex data starts in DRAM.
        let offsets = MemVec::from_vec(mem, offsets);
        let arena_slot_bytes = (n * 8).next_multiple_of(mc_mem::PAGE_SIZE);
        let arena_bytes = arena_slot_bytes * cfg.arena_slots.max(1);
        let arena_base = mem.mmap(arena_bytes, PageKind::Anon);
        mem.write(arena_base, arena_bytes);
        let edges = MemVec::from_vec(mem, edges_native);
        let weights = (cfg.max_weight > 0).then(|| {
            let bytes = m * std::mem::size_of::<u32>();
            let base = mem.mmap(bytes, PageKind::Anon);
            mem.write(base, bytes);
            Weights {
                base,
                len: m,
                max_weight: cfg.max_weight,
                seed: cfg.seed ^ 0x5eed_ca11,
                host: OnceCell::new(),
            }
        });

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
            + self
                .weights
                .as_ref()
                .map_or(0, |w| w.len * std::mem::size_of::<u32>())
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

    /// The neighbour list of `u` with edge weights. The first call
    /// generates the weights on the host (no simulated access).
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
        let w = self.weights.as_ref().expect("graph has no weights").host();
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
            MemVec::new(mem, self.n, init)
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
        let k = k % degs.len();
        let (_, &mut (_, u), _) =
            degs.select_nth_unstable_by_key(k, |&(d, u)| (std::cmp::Reverse(d), u));
        u
    }
}

/// GAPBS's `MakeCSR` + `SquishCSR`: the offsets (`n + 1`) and the
/// concatenated neighbour lists of `raw`, self-loops dropped, each list
/// sorted (TC's intersections need this) and deduplicated, the reverse of
/// every edge added if `symmetric`.
///
/// The host peak is the pair list plus the scatter buffer: `raw` is freed
/// as soon as the neighbours are scattered, before the offsets are
/// allocated, and the scatter buffer becomes the edge array, shrunk in
/// place to its exact size.
fn count_scatter_squish(n: usize, symmetric: bool, raw: Vec<(u32, u32)>) -> (Vec<u64>, Vec<u32>) {
    // Count: `ends[u]` is `u`'s degree before dedup, then (prefix sum)
    // where `u`'s list starts in the scatter buffer.
    let mut ends = vec![0usize; n];
    for &(u, v) in &raw {
        if u != v {
            ends[u as usize] += 1;
            if symmetric {
                ends[v as usize] += 1;
            }
        }
    }
    let mut total = 0;
    for e in &mut ends {
        total += std::mem::replace(e, total);
    }

    // Scatter each neighbour into the next free slot of its list; after
    // this `ends[u]` is where `u`'s list ends.
    let mut scattered = vec![0u32; total];
    let mut place = |u: u32, v: u32| {
        let slot = &mut ends[u as usize];
        scattered[*slot] = v;
        *slot += 1;
    };
    for &(u, v) in &raw {
        if u != v {
            place(u, v);
            if symmetric {
                place(v, u);
            }
        }
    }
    drop(raw);

    // Squish: sort each list and copy its distinct neighbours down to
    // `write`, which never passes the list being read, writing the
    // offsets as it goes.
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u64);
    let (mut start, mut write) = (0usize, 0usize);
    for &end in &ends {
        scattered[start..end].sort_unstable();
        let first = write;
        for i in start..end {
            let v = scattered[i];
            if write == first || scattered[write - 1] != v {
                scattered[write] = v;
                write += 1;
            }
        }
        offsets.push(write as u64);
        start = end;
    }
    scattered.truncate(write);
    scattered.shrink_to_fit();
    (offsets, scattered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::pagerank::pagerank;
    use crate::memory::SimpleMemory;
    use mc_mem::Nanos;
    use proptest::prelude::*;

    /// Whether the host weights have been generated yet.
    fn weights_made(csr: &Csr) -> bool {
        csr.weights.as_ref().is_some_and(|w| w.host.get().is_some())
    }

    /// The per-bit branch R-MAT generator that [`rmat_edges`] replaced.
    fn rmat_edges_branchy(scale: u32, degree: usize, seed: u64) -> Vec<(u32, u32)> {
        const A: f64 = 0.57;
        const B: f64 = 0.19;
        const C: f64 = 0.19;
        let n = 1u32 << scale;
        let mut rng = StdRng::seed_from_u64(seed);
        (0..(n as usize) * degree)
            .map(|_| {
                let (mut src, mut dst) = (0u32, 0u32);
                for bit in (0..scale).rev() {
                    let r: f64 = rng.gen();
                    if r < A {
                    } else if r < A + B {
                        dst |= 1 << bit;
                    } else if r < A + B + C {
                        src |= 1 << bit;
                    } else {
                        src |= 1 << bit;
                        dst |= 1 << bit;
                    }
                }
                (src, dst)
            })
            .collect()
    }

    /// A [`Memory`] that logs every call, so two builds can be compared
    /// call for call.
    #[derive(Default)]
    struct Recorder {
        inner: SimpleMemory,
        log: Vec<(char, u64, usize)>,
    }

    impl Memory for Recorder {
        fn mmap(&mut self, bytes: usize, kind: PageKind) -> VAddr {
            let base = self.inner.mmap(bytes, kind);
            self.log.push(('m', base.raw(), bytes));
            base
        }
        fn read(&mut self, addr: VAddr, len: usize) {
            self.log.push(('r', addr.raw(), len));
            self.inner.read(addr, len);
        }
        fn write(&mut self, addr: VAddr, len: usize) {
            self.log.push(('w', addr.raw(), len));
            self.inner.write(addr, len);
        }
        fn write_bytes(&mut self, addr: VAddr, data: &[u8]) {
            self.log.push(('W', addr.raw(), data.len()));
            self.inner.write_bytes(addr, data);
        }
        fn read_bytes(&mut self, addr: VAddr, buf: &mut [u8]) {
            self.log.push(('R', addr.raw(), buf.len()));
            self.inner.read_bytes(addr, buf);
        }
        fn now(&self) -> Nanos {
            self.inner.now()
        }
        fn compute(&mut self, t: Nanos) {
            self.inner.compute(t);
        }
    }

    /// The pair sort + dedup builder that [`Csr::from_edges`] replaced:
    /// the host offsets, edges and eager weights, with the same simulated
    /// calls made on `mem`.
    fn pair_sort_oracle<M: Memory + ?Sized>(
        cfg: &GraphConfig,
        mem: &mut M,
        mut raw: Vec<(u32, u32)>,
    ) -> (Vec<u64>, Vec<u32>, Option<Vec<u32>>) {
        let n = 1usize << cfg.scale;
        raw.retain(|(u, v)| u != v);
        if cfg.symmetric {
            let reversed: Vec<_> = raw.iter().map(|&(u, v)| (v, u)).collect();
            raw.extend(reversed);
        }
        raw.sort_unstable();
        raw.dedup();
        let mut offsets = vec![0u64; n + 1];
        for (u, _) in &raw {
            offsets[*u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let edges: Vec<u32> = raw.iter().map(|(_, v)| *v).collect();
        let _ = MemVec::from_vec(mem, offsets.clone());
        let arena_bytes = (n * 8).next_multiple_of(mc_mem::PAGE_SIZE) * cfg.arena_slots.max(1);
        let arena = mem.mmap(arena_bytes, PageKind::Anon);
        mem.write(arena, arena_bytes);
        let _ = MemVec::from_vec(mem, edges.clone());
        let weights = (cfg.max_weight > 0).then(|| {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed_ca11);
            let w: Vec<u32> = (0..edges.len())
                .map(|_| rng.gen_range(1..=cfg.max_weight))
                .collect();
            let _ = MemVec::from_vec(mem, w.clone());
            w
        });
        (offsets, edges, weights)
    }

    /// Random edge lists over `2^scale` vertices, small enough that
    /// self-loops, duplicates and isolated vertices are all common, with
    /// at least one edge that is not a self-loop.
    fn edge_lists() -> impl Strategy<Value = (GraphConfig, Vec<(u32, u32)>)> {
        (1u32..=6)
            .prop_flat_map(|scale| {
                let n = 1u32 << scale;
                (
                    Just(scale),
                    prop::collection::vec((0..n, 0..n), 1..160),
                    any::<bool>(),
                    prop_oneof![Just(0u32), 1u32..300],
                    any::<u64>(),
                )
            })
            .prop_map(|(scale, mut raw, symmetric, max_weight, seed)| {
                // An empty CSR cannot be mapped: keep one real edge.
                if raw.iter().all(|(u, v)| u == v) {
                    raw.push((0, 1));
                }
                let cfg = GraphConfig {
                    scale,
                    degree: 4,
                    symmetric,
                    max_weight,
                    seed,
                    arena_slots: 2,
                };
                (cfg, raw)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn from_edges_equals_the_pair_sort_oracle((cfg, raw) in edge_lists()) {
            let mut want_mem = Recorder::default();
            let (offsets, edges, weights) = pair_sort_oracle(&cfg, &mut want_mem, raw.clone());
            let mut mem = Recorder::default();
            let csr = Csr::from_edges(&cfg, &mut mem, raw);
            prop_assert_eq!(&mem.log, &want_mem.log, "simulated calls differ");
            prop_assert_eq!(csr.offsets.as_slice_unaccounted(), &offsets[..]);
            prop_assert_eq!(csr.edges.as_slice_unaccounted(), &edges[..]);
            prop_assert_eq!(csr.edges.as_slice_unaccounted().len(), csr.num_edges());
            let got = csr.weights.as_ref().map(|w| w.host().as_slice_unaccounted().to_vec());
            prop_assert_eq!(got, weights);
        }
    }

    #[test]
    fn rmat_equals_the_branchy_reference() {
        for (scale, degree, seed) in [(1, 16, 0), (5, 3, 9), (10, 16, 27491095), (16, 16, 42)] {
            assert_eq!(
                rmat_edges(scale, degree, seed),
                rmat_edges_branchy(scale, degree, seed),
                "scale {scale}, degree {degree}, seed {seed}"
            );
        }
    }

    #[test]
    fn weights_are_made_on_the_first_weighted_read_only() {
        let mut mem = SimpleMemory::new();
        let cfg = tiny_cfg(8);
        let mut csr = Csr::build(&cfg, &mut mem);
        assert!(csr.has_weights());
        assert!(!weights_made(&csr), "built without host weights");
        let _ = pagerank(&mut csr, &mut mem, 2);
        assert!(!weights_made(&csr), "PageRank reads no weights");

        let accesses = mem.accesses;
        let u = csr.source_vertex(0);
        let (nbrs, _) = csr.neighbors_weighted(&mut mem, u);
        let touched = mem.accesses - accesses;
        let mut unweighted = SimpleMemory::new();
        let _ = Csr::build(&cfg, &mut unweighted);
        let before = unweighted.accesses;
        let _ = csr.neighbors(&mut unweighted, u);
        assert!(
            touched > unweighted.accesses - before,
            "the weight range is read too"
        );
        assert!(!nbrs.is_empty());
        assert!(weights_made(&csr));

        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed_ca11);
        let eager: Vec<u32> = (0..csr.num_edges())
            .map(|_| rng.gen_range(1..=cfg.max_weight))
            .collect();
        let made = csr
            .weights
            .as_ref()
            .map(|w| w.host().as_slice_unaccounted());
        assert_eq!(made, Some(&eager[..]), "the eager stream, in CSR order");
    }

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
