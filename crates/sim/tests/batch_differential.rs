//! Differential harness for batched migration.
//!
//! The headline guarantee of PR 4: `migrate_batch_size = 1` is
//! *bit-identical* to the historical page-at-a-time behaviour — same
//! virtual time, same `MemStats`, same per-tick CSV, same tracepoint
//! JSONL, same final page placement. Batch 1 flushes each promoted frame
//! immediately, so the exact event/cost sequence is reproduced; on the
//! default machine each tier is one node, hence one list shard and the
//! single historical list walk.
//!
//! The second half checks the batched side, on a two-socket machine so
//! every tier's lists are split into two shards: larger batches are
//! deterministic, lose no page, still promote, and shave overhead.

mod common;

use common::Fingerprint;
use mc_mem::MachineDesc;
use mc_sim::experiments::house;
use mc_sim::{SimConfig, SystemKind};

fn run(cfg: SimConfig) -> Fingerprint {
    Fingerprint::of(&house::run(cfg), house::PAGES)
}

fn base_cfg() -> SimConfig {
    let mut cfg = SimConfig::new(SystemKind::MultiClock, 64, 512);
    cfg.instrument.obs = mc_sim::ObsConfig::on();
    cfg
}

/// The same 64 + 512 pages as two sockets (two list shards per tier),
/// promoting `batch` pages per migration call.
fn sharded_cfg(batch: usize) -> SimConfig {
    let mut cfg = base_cfg();
    cfg.mem = MachineDesc::dual_socket(32, 256);
    cfg.engine.migrate_batch_size = batch;
    cfg
}

#[test]
fn batch_one_shard_one_is_bit_identical_to_default() {
    // The default *is* batch 1 (on a one-shard-per-tier machine); setting
    // it explicitly must change nothing at all, down to the tracepoint
    // stream.
    let implicit = run(base_cfg());
    let mut cfg = base_cfg();
    cfg.engine.migrate_batch_size = 1;
    let explicit = run(cfg);
    assert_eq!(implicit, explicit);
}

#[test]
fn batched_sharded_run_is_deterministic() {
    let a = run(sharded_cfg(4));
    let b = run(sharded_cfg(4));
    assert_eq!(a, b);
    assert!(a.promotions > 0, "sharded scanner still promotes");
}

#[test]
fn batched_run_conserves_pages() {
    let fp = run(sharded_cfg(8));
    // Every page the workload touched is still mapped somewhere.
    for (p, slot) in fp.placement.iter().enumerate() {
        assert!(slot.is_some(), "page {p} was lost under batching");
    }
    // No two virtual pages share a frame.
    let mut frames: Vec<u32> = fp.placement.iter().flatten().map(|(f, _)| *f).collect();
    frames.sort_unstable();
    let before = frames.len();
    frames.dedup();
    assert_eq!(frames.len(), before, "double-mapped frame under batching");
}

#[test]
fn batching_amortizes_migration_setup_cost() {
    // The latency model charges the fixed migration setup once per batch
    // call, so total background time must not grow with batch size.
    let single = run(base_cfg());
    let mut cfg = base_cfg();
    cfg.engine.migrate_batch_size = 8;
    let batched = run(cfg);
    assert!(batched.promotions > 0, "batched run still promotes");
    let overhead =
        |f: &Fingerprint| f.costs.stall_time + f.costs.daemon_time + f.costs.background_time;
    assert!(
        overhead(&batched) <= overhead(&single),
        "batch 8 overhead {:?} exceeds page-at-a-time {:?}",
        overhead(&batched),
        overhead(&single),
    );
}
