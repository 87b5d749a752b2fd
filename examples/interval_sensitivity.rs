//! The paper's §V-E sensitivity study in miniature: sweep the `kpromoted`
//! scan interval and watch throughput peak at the 1-(paper-)second
//! operating point.
//!
//! ```sh
//! cargo run --release --example interval_sensitivity
//! ```

use mc_sim::experiments::{Experiment, Scale};
use mc_sim::SystemKind;
use mc_workloads::ycsb::YcsbWorkload;

fn main() {
    let scale = Scale::tiny();
    let base = Experiment::ycsb(YcsbWorkload::A, SystemKind::Static, &scale)
        .run()
        .expect("the scale's footprint fits its machine")
        .ops_per_sec;
    println!("YCSB-A, MULTI-CLOCK, throughput normalised to static tiering:\n");
    println!(
        "{:<22} {:>10} {:>12}",
        "interval (paper time)", "norm tput", "promotions"
    );
    for (factor, label) in [
        (0.1, "100ms"),
        (0.25, "250ms"),
        (0.5, "500ms"),
        (1.0, "1s"),
        (5.0, "5s"),
        (60.0, "60s"),
    ] {
        let r = Experiment::ycsb(YcsbWorkload::A, SystemKind::MultiClock, &scale)
            .interval(scale.paper_interval(factor))
            .run()
            .expect("the scale's footprint fits its machine");
        println!(
            "{:<22} {:>10.2} {:>12}",
            label,
            r.ops_per_sec / base,
            r.promotions
        );
    }
    println!("\nexpected: a sweet spot near 1s; little difference beyond 5s because");
    println!("the daemon reacts too slowly to matter (paper Fig. 10).");
}
