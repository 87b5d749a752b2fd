//! The time-accounting identity every finished (or paused) run must
//! satisfy, shared by the fingerprint, the soak and `time_ledger.rs`.

use mc_mem::{Charge, Nanos};
use mc_sim::Simulation;
use mc_workloads::Memory;

/// `now()` is exactly the on-clock categories, recomputed here from the
/// public slots, and `costs()` is the §V-F grouping of the same ledger.
pub fn assert_time_balanced(s: &Simulation, when: &str) {
    let t = s.time();
    let on_clock = Charge::ALL
        .into_iter()
        .filter(|c| c.on_clock())
        .fold(Nanos::ZERO, |sum, c| sum + t.get(c));
    assert_eq!(s.now(), on_clock, "{when}: the clock left its ledger");
    let stalls = t.get(Charge::MinorFault)
        + t.get(Charge::HintFault)
        + t.get(Charge::MigrationStall)
        + t.get(Charge::SwapIn);
    let c = s.metrics().costs();
    assert_eq!(c.access_time, t.get(Charge::Device), "{when}");
    assert_eq!(c.stall_time, stalls, "{when}");
    assert_eq!(c.daemon_time, t.get(Charge::DaemonCpu), "{when}");
    assert_eq!(c.background_time, t.get(Charge::Background), "{when}");
}
