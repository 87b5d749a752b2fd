//! Table I — qualitative comparison of the tiering techniques,
//! regenerated from each policy's self-reported [`mc_mem::PolicyTraits`].
//!
//! Regenerate with `cargo run -p mc-bench --bin table1_comparison`.

use mc_mem::{MachineDesc, MemorySystem, TieringPolicy};
use mc_policies::{Amp, AutoNuma, AutoTiering, Nimble, OracleKind, OraclePolicy, StaticTiering};
use mc_sim::report::format_table;
use multi_clock::MultiClock;

fn main() {
    let mem = MemorySystem::new(MachineDesc::dram_pm(64, 256));
    let topo = mem.topology();
    let policies: Vec<Box<dyn TieringPolicy>> = vec![
        Box::new(StaticTiering::new(topo)),
        Box::new(Nimble::with_defaults(topo)),
        Box::new(AutoNuma::with_defaults(topo)),
        Box::new(Amp::with_defaults(topo)),
        Box::new(AutoTiering::cpm(topo)),
        Box::new(AutoTiering::opm(topo)),
        Box::new(MultiClock::new(Default::default(), topo)),
        Box::new(OraclePolicy::new(OracleKind::Lru, topo)),
        Box::new(OraclePolicy::new(OracleKind::Lfu, topo)),
    ];
    let rows: Vec<Vec<String>> = policies
        .iter()
        .map(|p| {
            let t = p.traits();
            vec![
                t.name.to_string(),
                t.page_access_tracking.to_string(),
                t.selection_promotion.to_string(),
                t.selection_demotion.to_string(),
                if t.numa_aware { "Yes" } else { "No" }.to_string(),
                if t.space_overhead { "Yes" } else { "No" }.to_string(),
                t.generality.to_string(),
                t.key_insight.to_string(),
            ]
        })
        .collect();
    println!("Table I: comparison of memory tiering techniques\n");
    println!(
        "{}",
        format_table(
            &[
                "Tiering",
                "Page Access Tracking",
                "Selection (Promotion)",
                "Selection (Demotion)",
                "NUMA Aware",
                "Space Overhead",
                "Generality",
                "Key Insight",
            ],
            &rows,
        )
    );
    println!("(AMP and the oracles run in simulation only — full-memory profiling is");
    println!("undeployable at kernel scale, the paper's §II-D argument. Thermostat is");
    println!("not implemented: closed source, as in the paper.)");
}
