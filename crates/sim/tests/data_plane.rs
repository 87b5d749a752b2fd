//! Both `Memory` implementations keep the bytes a workload stores: random
//! `write_bytes` / `read_bytes` sequences over four pages read back, on
//! `Simulation` and on `SimpleMemory` alike, what a flat byte array holds.
//! The cases lean on the page store's edges — whole-page writes, the last
//! byte of a page, spans that straddle a page or a 64-byte line, and
//! lines and pages never written.

use mc_mem::{PageKind, SimpleMemory, VAddr, PAGE_SIZE};
use mc_sim::{SimConfig, Simulation, SystemKind};
use mc_workloads::Memory;
use proptest::prelude::*;

const PAGES: usize = 4;
const SPAN: usize = PAGES * PAGE_SIZE;

/// `Write(at, len, seed)` stores [`payload`]; `Read(at, len)` loads.
#[derive(Debug, Clone)]
enum Op {
    Write(usize, usize, u8),
    Read(usize, usize),
}

/// `len` bytes derived from `seed`, never zero, so a lost byte cannot
/// pass for an unwritten one.
fn payload(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ seed | 1)
        .collect()
}

/// Runs `ops` on `mem` from a fresh four-page region and a zeroed model;
/// the first read that differs is the error.
fn replay(mem: &mut dyn Memory, ops: &[Op]) -> Result<(), String> {
    let base = mem.mmap(SPAN, PageKind::Anon);
    let addr = |at: usize| VAddr::new(base.raw() + at as u64);
    let mut model = vec![0u8; SPAN];
    let reads = ops.iter().chain([&Op::Read(0, SPAN)]);
    for (i, op) in reads.enumerate() {
        match *op {
            Op::Write(at, len, seed) => {
                let data = payload(seed, len);
                mem.write_bytes(addr(at), &data);
                model[at..at + len].copy_from_slice(&data);
            }
            Op::Read(at, len) => {
                let mut buf = vec![0xee; len];
                mem.read_bytes(addr(at), &mut buf);
                if buf[..] != model[at..at + len] {
                    return Err(format!("op {i}: read of {len} bytes at {at} differs"));
                }
            }
        }
    }
    Ok(())
}

fn both(ops: &[Op]) {
    let mut sim = Simulation::new(SimConfig::new(SystemKind::MultiClock, 256, 2048));
    assert_eq!(replay(&mut sim, ops), Ok(()), "Simulation");
    assert_eq!(
        replay(&mut SimpleMemory::new(), ops),
        Ok(()),
        "SimpleMemory"
    );
}

#[test]
fn page_store_edges_round_trip_on_both_memories() {
    let page = PAGE_SIZE;
    both(&[
        Op::Read(0, SPAN),
        Op::Write(page, page, 1),
        Op::Write(page - 1, 1, 2),
        Op::Write(3 * page - 3, 7, 3),
        Op::Write(2 * page + 70, 5, 4),
        Op::Read(2 * page, 200),
        Op::Write(2 * page + 60, 200, 5),
        Op::Read(page - 1, 1),
        Op::Read(3 * page + 64, 64),
    ]);
}

fn span() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        (0..PAGES).prop_map(|p| (p * PAGE_SIZE, PAGE_SIZE)),
        (0..PAGES).prop_map(|p| (p * PAGE_SIZE + PAGE_SIZE - 1, 1usize)),
        (1..PAGES, 1..200usize, 1..400usize).prop_map(|(p, back, len)| (p * PAGE_SIZE - back, len)),
        (0..SPAN, 1..2 * PAGE_SIZE),
    ]
    .prop_map(|(at, len): (usize, usize)| (at, len.min(SPAN - at)))
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (span(), any::<u8>()).prop_map(|((at, len), seed)| Op::Write(at, len, seed)),
        span().prop_map(|(at, len)| Op::Read(at, len)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_byte_traffic_round_trips_on_both_memories(
        ops in prop::collection::vec(op(), 1..30),
    ) {
        both(&ops);
    }
}
