//! The house differential workload: the one run the golden fingerprints
//! pin and the batching, perf-hook and machine harnesses compare.

use mc_mem::{Nanos, PageKind, PAGE_SIZE};
use mc_sim::{SimConfig, Simulation};
use mc_workloads::Memory;

/// Virtual pages the workload maps, `0..PAGES`.
pub const PAGES: u64 = 192;

/// Runs the workload to completion on `cfg`: a first-touch fill spills the
/// tail of the working set into the capacity tier, a hot set deep in that
/// tail is hammered every round (so the scanner must promote it), a stride
/// keeps the lists churning, and compute gaps let the daemon tick.
pub fn run(cfg: SimConfig) -> Simulation {
    let mut s = Simulation::new(cfg);
    let a = s.mmap(PAGE_SIZE * PAGES as usize, PageKind::Anon);
    for p in 0..PAGES {
        s.write(a.add(p * PAGE_SIZE as u64), 64);
    }
    for round in 0..400u64 {
        for h in 0..8u64 {
            s.read(a.add((160 + h) * PAGE_SIZE as u64), 64);
        }
        let page = (round * 7) % PAGES;
        let addr = a.add(page * PAGE_SIZE as u64);
        if round % 3 == 0 {
            s.write(addr, 256);
        } else {
            s.read(addr, 64);
        }
        s.compute(Nanos::from_millis(25));
        s.record_op();
    }
    s.finish();
    s
}
