//! Criterion micro-benchmarks of the building blocks: list machinery,
//! reference-bit harvesting, policy scan ticks, KV operations and the
//! request distributions. These quantify the paper's "low overhead" claim
//! for the CLOCK-based machinery (§V-F).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mc_clock::IndexedList;
use mc_mem::{
    AccessKind, FrameId, MachineDesc, MemorySystem, Nanos, PageKind, TieringPolicy, VPage,
};
use mc_workloads::dist::{ScrambledZipfian, Zipfian};
use mc_workloads::kv::KvStore;
use mc_workloads::SimpleMemory;
use multi_clock::{MultiClock, MultiClockConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_indexed_list(c: &mut Criterion) {
    c.bench_function("indexed_list_push_pop", |b| {
        b.iter(|| {
            let mut l = IndexedList::new();
            for i in 0..1024u32 {
                l.push_back(FrameId::new(i));
            }
            while l.pop_front().is_some() {}
            black_box(l.len())
        })
    });
    c.bench_function("indexed_list_rotate_1024", |b| {
        let mut l = IndexedList::new();
        for i in 0..1024u32 {
            l.push_back(FrameId::new(i));
        }
        b.iter(|| {
            for _ in 0..1024 {
                let f = l.pop_front().unwrap();
                l.push_back(f);
            }
        })
    });
}

fn bench_multi_clock_tick(c: &mut Criterion) {
    // A full kpromoted scan over a populated PM tier: the per-tick CPU
    // cost the paper keeps low by bounding the scan batch.
    c.bench_function("multi_clock_tick_8k_pages", |b| {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(1024, 8192));
        let mut mc = MultiClock::new(MultiClockConfig::default(), mem.topology());
        let mut v = 0u64;
        while let Ok(f) = mem.alloc_page(PageKind::Anon) {
            mem.map(VPage::new(v), f).unwrap();
            mc.on_page_mapped(&mut mem, f);
            v += 1;
        }
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            black_box(mc.tick(&mut mem, Nanos::from_secs(t)))
        })
    });
}

fn bench_harvest(c: &mut Criterion) {
    c.bench_function("reference_bit_harvest", |b| {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(1024, 1024));
        let f = mem.alloc_page(PageKind::Anon).unwrap();
        mem.map(VPage::new(0), f).unwrap();
        b.iter(|| {
            mem.access(VPage::new(0), AccessKind::Read).unwrap();
            black_box(mem.harvest_referenced(f))
        })
    });
}

fn bench_distributions(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let z = Zipfian::ycsb_default(100_000);
    c.bench_function("zipfian_next", |b| b.iter(|| black_box(z.next(&mut rng))));
    let s = ScrambledZipfian::new(100_000);
    c.bench_function("scrambled_zipfian_next", |b| {
        b.iter(|| black_box(s.next(&mut rng)))
    });
}

fn bench_kv(c: &mut Criterion) {
    c.bench_function("kv_get_hit", |b| {
        let mut mem = SimpleMemory::new();
        let mut kv = KvStore::new(&mut mem, 10_000);
        let value = vec![7u8; 1024];
        for k in 0..10_000u64 {
            kv.set(&mut mem, k, &value);
        }
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 7) % 10_000;
            black_box(kv.get(&mut mem, k))
        })
    });
}

criterion_group!(
    benches,
    bench_indexed_list,
    bench_multi_clock_tick,
    bench_harvest,
    bench_distributions,
    bench_kv
);
criterion_main!(benches);
