//! The YCSB op path performs no heap allocation once the store is loaded
//! and warm: the store builds each item, its value written in place, in
//! one reused buffer, and a read copies no item out. A PageRank trial
//! allocates only its vertex arrays, however large the graph: neighbour
//! lists are read in place. A warm SSSP trial allocates only its distance
//! array and its heap's growth, not a buffer per settled vertex.
//!
//! A counting global allocator, local to this test binary, counts the
//! allocations made on the calling thread, so tests running on other
//! threads do not disturb the count.

use mc_workloads::graph::pagerank::pagerank;
use mc_workloads::graph::sssp::sssp;
use mc_workloads::graph::{Csr, GraphConfig};
use mc_workloads::ycsb::{YcsbClient, YcsbConfig, YcsbWorkload};
use mc_workloads::SimpleMemory;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments to `System` unchanged; the
// only addition is a thread-local counter bump, which does not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn ycsb_ops_allocate_nothing_after_load_and_warm_up() {
    // D is left out: its inserts append rows, which regrow the table once
    // they pass the rows the load reserved, and carve new slabs, and a
    // first write to a page allocates that page's bytes in SimpleMemory.
    for w in [
        YcsbWorkload::A,
        YcsbWorkload::B,
        YcsbWorkload::C,
        YcsbWorkload::F,
        YcsbWorkload::W,
    ] {
        let mut mem = SimpleMemory::new();
        let cfg = YcsbConfig {
            records: 2_000,
            ..Default::default()
        };
        let mut client = YcsbClient::load(cfg, &mut mem);
        client.run(w, &mut mem, 1_000);
        let before = ALLOCS.with(Cell::get);
        client.run(w, &mut mem, 10_000);
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(
            allocs, 0,
            "workload {w}: 10 000 ops allocated {allocs} times"
        );
    }
}

/// Allocations of one PageRank trial on a warm graph of `2^scale` vertices.
fn pagerank_trial_allocs(scale: u32) -> u64 {
    let mut mem = SimpleMemory::new();
    let cfg = GraphConfig {
        scale,
        degree: 8,
        max_weight: 0,
        ..Default::default()
    };
    let mut csr = Csr::build(&cfg, &mut mem);
    let mut trial = |csr: &mut Csr| {
        csr.reset_arena();
        let before = ALLOCS.with(Cell::get);
        let ranks = pagerank(csr, &mut mem, 3);
        let allocs = ALLOCS.with(Cell::get) - before;
        drop(ranks);
        allocs
    };
    trial(&mut csr);
    trial(&mut csr)
}

#[test]
fn a_pagerank_trial_allocates_only_its_vertex_arrays() {
    let (small, large) = (pagerank_trial_allocs(8), pagerank_trial_allocs(11));
    assert_eq!(small, large, "allocations grow with the graph");
    assert_eq!(small, 2, "one allocation each for `rank` and `next`");
}

#[test]
fn a_warm_sssp_trial_allocates_nothing_per_vertex() {
    let mut mem = SimpleMemory::new();
    let cfg = GraphConfig {
        scale: 11,
        degree: 8,
        ..Default::default()
    };
    let mut csr = Csr::build(&cfg, &mut mem);
    let source = csr.source_vertex(0);
    let mut trial = |csr: &mut Csr| {
        csr.reset_arena();
        let before = ALLOCS.with(Cell::get);
        let dist = sssp(csr, &mut mem, source);
        let allocs = ALLOCS.with(Cell::get) - before;
        drop(dist);
        allocs
    };
    // The first trial also generates the host edge weights.
    trial(&mut csr);
    let allocs = trial(&mut csr);
    assert!(
        allocs < 64,
        "a warm SSSP trial over 2048 vertices allocated {allocs} times"
    );
}
