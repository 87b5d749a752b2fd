//! Isolation passes of the traced run: the same touch stream fed to one
//! layer at a time, from outside, through public functions only.

use crate::workloads::{App, Spec};
use mc_clock::IndexedList;
use mc_mem::{FrameId, MemorySystem, PageKind, SimpleMemory};
use mc_obs::{PerfHooks, Phase};
use mc_sim::{SimConfig, Simulation};
use mc_trace::{replay, Recorder, Trace};
use std::time::Instant;

/// Touches recorded for the replay and bare-substrate passes.
const RECORDED_TOUCHES: u64 = 2_000_000;
/// Frames cycled through the list micro-pass.
const LIST_FRAMES: u32 = 64 * 1024;

/// Records the first [`RECORDED_TOUCHES`] page touches of the workload
/// (load phase included, so the replayed machine faults pages in as the
/// real run does) on the flat memory.
pub fn record_touches(spec: &Spec, seed: u64, max_ops: u64) -> Trace {
    let mut rec = Recorder::new(SimpleMemory::new());
    let mut app = App::build(spec, seed, None, &mut rec);
    let mut ops = 0;
    while rec.inner().accesses < RECORDED_TOUCHES && ops < max_ops {
        app.run_op(&mut rec);
        ops += 1;
    }
    rec.finish()
}

/// Host ns per touch of `mc_trace::replay` into a fresh simulation, daemon
/// ticks subtracted: the engine's access path with one region, no data
/// plane and no workload code.
pub fn replay_ns_per_touch(trace: &Trace, mut cfg: SimConfig) -> f64 {
    let hooks = PerfHooks::new();
    cfg.instrument.perf = Some(hooks.clone());
    let mut sim = Simulation::new(cfg);
    let t = Instant::now();
    let stats = replay(trace, &mut sim);
    let total_ns = t.elapsed().as_nanos() as f64;
    let tick_ns = hooks.profiler().summary(Phase::Tick).total_nanos as f64;
    (total_ns - tick_ns) / stats.events_replayed.max(1) as f64
}

/// Host ns per touch of the bare substrate: `alloc_page` + `map` on first
/// touch, then `access`; no engine, no policy.
///
/// # Panics
///
/// Panics if the machine cannot hold the recorded pages: the workload was
/// sized wrongly.
pub fn bare_access_ns(trace: &Trace, cfg: &SimConfig) -> f64 {
    let mut mem = MemorySystem::new(cfg.mem.clone());
    let t = Instant::now();
    for e in trace.events() {
        if mem.translate(e.vpage).is_none() {
            let frame = mem
                .alloc_page(PageKind::Anon)
                .expect("the machine holds the workload without reclaim");
            mem.map(e.vpage, frame).expect("fresh page maps");
        }
        let out = mem.access(e.vpage, e.kind).expect("page is mapped");
        std::hint::black_box(out);
    }
    t.elapsed().as_nanos() as f64 / trace.len().max(1) as f64
}

/// Host ns per `IndexedList` operation: push_back, move_to_back and remove
/// over [`LIST_FRAMES`] frames, the three operations a scan does per page.
pub fn list_cycle_ns() -> f64 {
    let mut list = IndexedList::new();
    let t = Instant::now();
    for f in 0..LIST_FRAMES {
        list.push_back(FrameId::new(f));
    }
    for f in 0..LIST_FRAMES {
        std::hint::black_box(list.move_to_back(FrameId::new(f)));
    }
    for f in 0..LIST_FRAMES {
        std::hint::black_box(list.remove(FrameId::new(f)));
    }
    t.elapsed().as_nanos() as f64 / (3 * LIST_FRAMES) as f64
}
