//! The four benchmark workloads: what machine and system each runs on,
//! how much work `--seconds` buys, and the application that generates the
//! accesses. README.md records why each was chosen.

use mc_mem::{Memory, MigrationMode, Nanos, VAddr};
use mc_sim::{SimConfig, SystemKind};
use mc_workloads::graph::{pagerank, Csr, GraphConfig};
use mc_workloads::ycsb::{YcsbClient, YcsbConfig, YcsbWorkload};

/// YCSB record payload (the YCSB default, 10 fields x 100 B).
const VALUE_SIZE: usize = 1024;
/// Item header the KV store writes before each value (key + length).
const ITEM_HEADER: usize = 12;
/// Keys re-read and compared against `fill_value` after the run.
const VERIFY_KEYS: u64 = 1024;

/// The application half of a workload.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A YCSB mix over the memcached-like store. `ops_per_second` is the
    /// op rate of one cell at the seed commit on the reference host: it
    /// converts `--seconds` into a fixed op count, so a run is op-bound
    /// and its touch count does not depend on how fast the host is.
    Ycsb {
        mix: YcsbWorkload,
        records: usize,
        ops_per_second: f64,
    },
    /// GAPBS PageRank on an R-MAT graph; one op is one trial of `iters`
    /// iterations.
    PageRank {
        scale: u32,
        degree: usize,
        iters: usize,
        trials_per_second: f64,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Systems run one after the other, each on a fresh machine (a cell).
    pub systems: &'static [SystemKind],
    pub dram_pages: usize,
    pub pm_pages: usize,
    pub interval: Nanos,
    pub scan_batch: usize,
    pub migration: MigrationMode,
    pub kind: Kind,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "ycsb_b_large",
        why: "access-path-bound: read-mostly zipfian KV on a 288 MiB machine that exceeds the host L2, working set 6x DRAM",
        systems: &[SystemKind::MultiClock],
        dram_pages: 8192,
        pm_pages: 65536,
        interval: Nanos::from_millis(20),
        scan_batch: 73_728,
        migration: MigrationMode::Sync,
        kind: Kind::Ycsb {
            mix: YcsbWorkload::B,
            records: 96_000,
            ops_per_second: 310_000.0,
        },
    },
    Spec {
        name: "ycsb_w_txn",
        why: "same layers driven by stores: 100% updates under transactional migration with shadow pages (txn aborts, shadow invalidation)",
        systems: &[SystemKind::MultiClock],
        dram_pages: 2048,
        pm_pages: 16384,
        interval: Nanos::from_millis(10),
        scan_batch: 18_432,
        migration: MigrationMode::Transactional,
        kind: Kind::Ycsb {
            mix: YcsbWorkload::W,
            records: 24_000,
            ops_per_second: 360_000.0,
        },
    },
    Spec {
        name: "gapbs_pr_scan",
        why: "daemon-bound: PageRank streaming over few large regions with a 0.5 ms scan interval, so tick/scan time dominates and the access path is cheap",
        systems: &[SystemKind::MultiClock],
        dram_pages: 1024,
        pm_pages: 16384,
        interval: Nanos::from_micros(500),
        scan_batch: 8192,
        migration: MigrationMode::Sync,
        kind: Kind::PageRank {
            scale: 16,
            degree: 16,
            iters: 2,
            trials_per_second: 0.75,
        },
    },
    Spec {
        name: "policy_grid_a",
        why: "the fig5 grid a user waits for: all seven tiered systems on the tiny L2-resident machine, YCSB-A; only workload that runs mc-policies",
        systems: &SystemKind::TIERED_COMPARISON,
        dram_pages: 512,
        pm_pages: 4096,
        interval: Nanos::from_millis(5),
        scan_batch: 4096,
        migration: MigrationMode::Sync,
        kind: Kind::Ycsb {
            mix: YcsbWorkload::A,
            records: 6_000,
            ops_per_second: 85_000.0,
        },
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Measured ops per cell for a run of `seconds`.
    pub fn measured_ops(&self, seconds: f64) -> u64 {
        let rate = match self.kind {
            Kind::Ycsb { ops_per_second, .. } => ops_per_second,
            Kind::PageRank {
                trials_per_second, ..
            } => trials_per_second,
        };
        ((rate * seconds).round() as u64).max(1)
    }

    /// Untimed ops that fill DRAM and let the lists converge first.
    pub fn warmup_ops(&self, seconds: f64) -> u64 {
        match self.kind {
            Kind::Ycsb { .. } => self.measured_ops(seconds) / 4,
            Kind::PageRank { .. } => 1,
        }
    }

    /// The machine and system of one cell.
    pub fn config(&self, system: SystemKind) -> SimConfig {
        let mut cfg = SimConfig::new(system, self.dram_pages, self.pm_pages);
        cfg.scan_interval = self.interval;
        cfg.scan_batch = self.scan_batch;
        cfg.window = self.interval.saturating_mul(20);
        cfg.engine.migration_mode = self.migration;
        cfg
    }
}

/// The running application: generates the op stream against any
/// [`Memory`] — the simulation, the probe around it, or the flat
/// reference memory.
#[derive(Debug)]
pub enum App {
    Ycsb {
        client: YcsbClient,
        mix: YcsbWorkload,
    },
    PageRank {
        csr: Csr,
        iters: usize,
        /// Ranks of the first trial run anywhere; every later trial must
        /// reproduce them bit for bit (PageRank's arithmetic does not
        /// depend on where pages live).
        reference: Option<Vec<f64>>,
        mismatched_trials: u64,
    },
}

impl App {
    /// Set-up: loads the store or builds the graph in `mem`. `reference`
    /// is the output of an earlier run on the flat memory, if there is one
    /// to compare against.
    pub fn build<M: Memory + ?Sized>(
        spec: &Spec,
        seed: u64,
        reference: Option<Vec<f64>>,
        mem: &mut M,
    ) -> App {
        match spec.kind {
            Kind::Ycsb { mix, records, .. } => App::Ycsb {
                client: YcsbClient::load(
                    YcsbConfig {
                        records,
                        value_size: VALUE_SIZE,
                        op_compute: Nanos::from_nanos(500),
                        insert_scale: 0.01,
                        seed,
                    },
                    mem,
                ),
                mix,
            },
            Kind::PageRank {
                scale,
                degree,
                iters,
                ..
            } => App::PageRank {
                csr: Csr::build(
                    &GraphConfig {
                        scale,
                        degree,
                        symmetric: true,
                        max_weight: 255,
                        seed,
                        arena_slots: 8,
                    },
                    mem,
                ),
                iters,
                reference,
                mismatched_trials: 0,
            },
        }
    }

    /// The output later runs must reproduce (PageRank only).
    pub fn reference(&self) -> Option<Vec<f64>> {
        match self {
            App::Ycsb { .. } => None,
            App::PageRank { reference, .. } => reference.clone(),
        }
    }

    /// One operation: a YCSB request or a PageRank trial.
    pub fn run_op<M: Memory + ?Sized>(&mut self, mem: &mut M) {
        match self {
            App::Ycsb { client, mix } => client.run_op(*mix, mem),
            App::PageRank {
                csr,
                iters,
                reference,
                mismatched_trials,
            } => {
                csr.reset_arena();
                let ranks = pagerank::pagerank(csr, mem, *iters);
                let ranks = ranks.as_slice_unaccounted();
                match reference {
                    Some(expect) => {
                        let same = expect
                            .iter()
                            .map(|r| r.to_bits())
                            .eq(ranks.iter().map(|r| r.to_bits()));
                        *mismatched_trials += u64::from(!same);
                    }
                    None => *reference = Some(ranks.to_vec()),
                }
            }
        }
    }

    /// Post-run output check: `(checked, failed)`. YCSB: GETs that missed
    /// a loaded key, plus sampled keys whose stored bytes no longer match
    /// `fill_value` (the data plane must survive migration). PageRank:
    /// trials whose ranks differ from the reference.
    pub fn verify<M: Memory + ?Sized>(&self, mem: &mut M) -> (u64, u64) {
        match self {
            App::Ycsb { client, .. } => {
                let stats = client.store().stats();
                let mut failed = stats.gets - stats.hits;
                let step = (client.record_count() / VERIFY_KEYS).max(1);
                let mut checked = 0;
                let mut expect = vec![0u8; VALUE_SIZE];
                let mut item = vec![0u8; ITEM_HEADER + VALUE_SIZE];
                for key in (0..client.record_count()).step_by(step as usize) {
                    checked += 1;
                    YcsbClient::fill_value(key, &mut expect);
                    let intact = client.store().item_addr(key).is_some_and(|addr: VAddr| {
                        mem.read_bytes(addr, &mut item);
                        item[..8] == key.to_le_bytes() && item[ITEM_HEADER..] == expect[..]
                    });
                    failed += u64::from(!intact);
                }
                (checked, failed)
            }
            App::PageRank {
                mismatched_trials, ..
            } => (0, *mismatched_trials),
        }
    }
}
