//! Implementing your own tiering policy against the substrate API.
//!
//! This example writes a deliberately simple "promote on first touch"
//! policy — every lower-tier page that was referenced since the last scan
//! is migrated up, evicting round-robin when DRAM is full — and runs it
//! head-to-head with MULTI-CLOCK on the same access pattern, showing why
//! frequency-aware selection matters.
//!
//! ```sh
//! cargo run --release --example custom_policy
//! ```

use mc_clock::IndexedList;
use mc_mem::{
    AccessKind, FrameId, MachineDesc, MemorySystem, Nanos, PageKind, PolicyTraits, TickOutcome,
    TierId, TieringPolicy, Topology, VPage,
};
use multi_clock::{MultiClock, MultiClockConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Promotes any lower-tier page seen referenced — no frequency filter.
struct EagerPolicy {
    rings: Vec<IndexedList>,
}

impl EagerPolicy {
    fn new(topology: &Topology) -> Self {
        EagerPolicy {
            rings: (0..topology.tier_count())
                .map(|_| IndexedList::new())
                .collect(),
        }
    }
}

impl TieringPolicy for EagerPolicy {
    fn name(&self) -> &'static str {
        "eager"
    }

    fn traits(&self) -> PolicyTraits {
        PolicyTraits {
            name: "Eager",
            page_access_tracking: "Reference Bit",
            selection_promotion: "Recency (single observation)",
            selection_demotion: "Round robin",
            numa_aware: true,
            space_overhead: false,
            generality: "All",
            key_insight: "promote everything touched",
        }
    }

    fn on_page_mapped(&mut self, mem: &mut MemorySystem, frame: FrameId) {
        let tier = mem.frame(frame).tier();
        self.rings[tier.index()].push_back(frame);
    }

    fn on_supervised_access(&mut self, _: &mut MemorySystem, _: FrameId, _: AccessKind) {}

    fn tick(&mut self, mem: &mut MemorySystem, _now: Nanos) -> TickOutcome {
        let mut out = TickOutcome::default();
        // Scan the PM ring; promote anything referenced.
        let pm = TierId::new(1);
        let len = self.rings[pm.index()].len();
        for _ in 0..len {
            let Some(frame) = self.rings[pm.index()].pop_front() else {
                break;
            };
            self.rings[pm.index()].push_back(frame);
            out.pages_scanned += 1;
            if mem.harvest_referenced(frame) {
                // Make room by demoting round-robin, then migrate.
                if mem.tier_free(TierId::TOP) == 0 {
                    if let Some(victim) = self.rings[TierId::TOP.index()].pop_front() {
                        if let Ok(nf) = mem.migrate(victim, pm) {
                            self.rings[pm.index()].push_back(nf);
                            out.demoted += 1;
                        } else {
                            self.rings[TierId::TOP.index()].push_back(victim);
                        }
                    }
                }
                self.rings[pm.index()].remove(frame);
                match mem.migrate(frame, TierId::TOP) {
                    Ok(nf) => {
                        self.rings[TierId::TOP.index()].push_back(nf);
                        out.promoted += 1;
                    }
                    Err(_) => self.rings[pm.index()].push_back(frame),
                }
            }
        }
        out
    }

    fn on_pressure(&mut self, _: &mut MemorySystem, _: TierId, _: Nanos) -> TickOutcome {
        TickOutcome::default()
    }

    fn tick_interval(&self) -> Option<Nanos> {
        Some(Nanos::from_secs(1))
    }
}

/// Drives a synthetic skewed workload: a small hot set plus a cold sweep
/// that makes one-touch pages look attractive to an eager policy.
fn drive(policy: &mut dyn TieringPolicy, mem: &mut MemorySystem) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(7);
    // Map 600 pages: DRAM (256) fills first, the rest land in PM.
    let mut pages = Vec::new();
    for v in 0..600u64 {
        let frame = mem.alloc_page(PageKind::Anon).expect("fits");
        mem.map(VPage::new(v), frame).unwrap();
        policy.on_page_mapped(mem, frame);
        pages.push(VPage::new(v));
    }
    // Hot set: 64 PM-resident pages; plus a cold scan over everything.
    let hot: Vec<VPage> = (300..364).map(VPage::new).collect();
    for second in 1..=30u64 {
        for h in &hot {
            for _ in 0..4 {
                mem.access(*h, AccessKind::Read).unwrap();
            }
        }
        // One-touch sweep over 200 random cold pages.
        for _ in 0..200 {
            let p = pages[rng.gen_range(0..pages.len())];
            mem.access(p, AccessKind::Read).unwrap();
        }
        policy.tick(mem, Nanos::from_secs(second));
    }
    // Score: how many hot pages ended up in DRAM, and total migrations.
    let resident = hot
        .iter()
        .filter(|p| {
            mem.translate(**p)
                .map(|f| mem.frame(f).tier().is_top())
                .unwrap_or(false)
        })
        .count() as u64;
    (resident, mem.stats().promotions + mem.stats().demotions)
}

fn main() {
    let run = |name: &str, make: &dyn Fn(&Topology) -> Box<dyn TieringPolicy>| {
        let mut mem = MemorySystem::new(MachineDesc::dram_pm(256, 2048));
        let mut policy = make(mem.topology());
        let (resident, migrations) = drive(policy.as_mut(), &mut mem);
        println!("{name:<12} hot pages in DRAM: {resident:>2}/64   total migrations: {migrations}");
    };
    run("eager", &|t| Box::new(EagerPolicy::new(t)));
    run("multi-clock", &|t| {
        Box::new(MultiClock::new(MultiClockConfig::default(), t))
    });
    println!("\nthe eager policy chases one-touch pages and churns; MULTI-CLOCK's");
    println!("recency+frequency ladder promotes the stable hot set with far fewer");
    println!("migrations — the paper's core argument in one example.");
}
