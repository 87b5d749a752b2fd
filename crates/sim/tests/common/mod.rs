//! The one run fingerprint the differential harnesses compare: each
//! `*_differential.rs` drives a workload — the house one
//! (`mc_sim::experiments::house`), or its own — and then digests the
//! finished simulation with [`Fingerprint::of`].

mod time;

use mc_mem::Nanos;
use mc_sim::Simulation;
use mc_workloads::Memory;

/// Fingerprint of everything a run can observably produce.
#[derive(Debug, PartialEq)]
pub struct Fingerprint {
    pub now: Nanos,
    pub stats: mc_mem::MemStats,
    pub ticks_csv: String,
    pub events_jsonl: String,
    /// `(frame, tier)` of each of the workload's pages, `None` if unmapped.
    pub placement: Vec<Option<(u32, u8)>>,
    pub promotions: u64,
    pub demotions: u64,
    /// Includes `stall_time`, which the Nomad harness compares on its own.
    pub costs: mc_sim::CostBreakdown,
    /// Transactions still in their copy window when the run ended (the
    /// last tick's begins never get a settle tick); zero in `Sync` mode.
    pub open_txns: u64,
}

impl Fingerprint {
    /// Digests a finished run whose workload mapped virtual pages
    /// `0..pages`, after holding it to the time-accounting identity.
    pub fn of(s: &Simulation, pages: u64) -> Self {
        time::assert_time_balanced(s, "at the fingerprint");
        let placement = (0..pages)
            .map(|p| {
                s.mem().translate(mc_mem::VPage::new(p)).map(|f| {
                    let fr = s.mem().frame(f);
                    (f.raw(), fr.tier().index() as u8)
                })
            })
            .collect();
        Fingerprint {
            now: s.now(),
            stats: s.mem().stats().clone(),
            ticks_csv: s.obs_ticks_csv().unwrap_or_default(),
            events_jsonl: s.obs_events_jsonl().unwrap_or_default(),
            placement,
            promotions: s.metrics().total_promotions(),
            demotions: s.metrics().total_demotions(),
            costs: s.metrics().costs(),
            open_txns: s.mem().migration_txns().len() as u64,
        }
    }
}
