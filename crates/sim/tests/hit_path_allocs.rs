//! The engine's hit path performs no heap allocation: an access to a
//! mapped page, with no daemon tick due, translates, sets the frame's
//! accessed (and dirty) bit, charges the device time and tests the
//! pending substrate effects and promotions for emptiness — none of which
//! may allocate.
//!
//! A counting global allocator, local to this test binary, counts the
//! allocations made on the calling thread, so tests running on other
//! threads do not disturb the count.

use mc_mem::{Nanos, PageKind, PAGE_SIZE};
use mc_sim::{SimConfig, Simulation, SystemKind};
use mc_workloads::Memory;
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

const PAGES: u64 = 64;
const HITS: u64 = 100_000;

#[test]
fn hits_on_mapped_pages_allocate_nothing() {
    // Sync MULTI-CLOCK, and Nomad, whose transaction and shadow tables
    // stay empty until its first tick.
    for system in [SystemKind::MultiClock, SystemKind::Nomad] {
        let mut cfg = SimConfig::new(system, 256, 2048);
        cfg.scan_interval = Nanos::from_secs(3_600);
        let mut sim = Simulation::new(cfg);
        let base = sim.mmap(PAGE_SIZE * PAGES as usize, PageKind::Anon);
        let page = |p: u64| base.add((p % PAGES) * PAGE_SIZE as u64);
        // Fault every page in, then one warm round of each access kind.
        for p in 0..PAGES {
            sim.write(page(p), 8);
            sim.read(page(p), 8);
        }
        let accesses = |sim: &Simulation| sim.mem().stats().reads + sim.mem().stats().writes;
        let (before_accesses, faults) = (accesses(&sim), sim.metrics().costs().minor_faults);
        let before = ALLOCS.with(Cell::get);
        for i in 0..HITS {
            if i % 4 == 0 {
                sim.write(page(i * 7), 64);
            } else {
                sim.read(page(i * 13), 64);
            }
        }
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(accesses(&sim) - before_accesses, HITS, "{system:?}");
        assert_eq!(
            sim.metrics().costs().minor_faults,
            faults,
            "{system:?}: every access hit"
        );
        assert!(
            sim.time().now() < sim.config().scan_interval,
            "{system:?}: no tick came due"
        );
        assert_eq!(
            allocs, 0,
            "{system:?}: {HITS} hits allocated {allocs} times"
        );
    }
}

#[test]
fn stores_over_written_lines_allocate_nothing() {
    // Every page holds two key-value items (a 12-byte header and a 1 KiB
    // value in each 2 KiB chunk) before the count starts, so every later
    // store finds its lines present: the touch hits and the bytes land in
    // place.
    let mut cfg = SimConfig::new(SystemKind::MultiClock, 256, 2048);
    cfg.scan_interval = Nanos::from_secs(3_600);
    let mut sim = Simulation::new(cfg);
    let base = sim.mmap(PAGE_SIZE * PAGES as usize, PageKind::Anon);
    let item = |i: u64| base.add((i % (2 * PAGES)) * PAGE_SIZE as u64 / 2);
    let mut value = vec![0u8; 1036];
    for i in 0..2 * PAGES {
        sim.write_bytes(item(i), &value);
    }
    let faults = sim.metrics().costs().minor_faults;
    let before = ALLOCS.with(Cell::get);
    for i in 0..HITS / 10 {
        value[..8].copy_from_slice(&i.to_le_bytes());
        sim.write_bytes(item(i * 7), &value);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(
        sim.metrics().costs().minor_faults,
        faults,
        "every store hit"
    );
    assert!(
        sim.time().now() < sim.config().scan_interval,
        "no tick came due"
    );
    assert_eq!(allocs, 0, "{} stores allocated {allocs} times", HITS / 10);
    let mut back = vec![0u8; 1036];
    sim.read_bytes(item((HITS / 10 - 1) * 7), &mut back);
    assert_eq!(back, value, "the last store reads back");
}
