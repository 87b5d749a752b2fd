//! # mc-sim — the simulation engine
//!
//! Wires the pieces together: a [`Simulation`] owns the memory substrate
//! ([`mc_mem::MemorySystem`]), a system frontend (a tiering policy or the
//! Memory-mode cache), a virtual clock and the metrics collectors, and
//! implements [`mc_workloads::Memory`] so any workload can drive it.
//!
//! Time model:
//!
//! * every application access advances virtual time by the device latency
//!   of the tier holding the page (plus streaming cost for large spans);
//! * daemon work (scans) is charged at a configurable contention factor —
//!   the daemon runs on its own core, but migrations' unmap/TLB costs and
//!   hint faults stall the application in full;
//! * the tiering daemon is the paper's one `kpromoted` thread: the engine
//!   keeps its next wake-up, and whenever virtual time crosses it the
//!   policy ticks at that instant and re-arms one (possibly adapted)
//!   interval later. Memory-mode and policies that never tick arm nothing.
//!
//! [`experiments`] contains the canned experiment drivers `mc-bench`'s
//! `repro` sections and the integration tests share.
//!
//! ```
//! use mc_sim::{SimConfig, Simulation, SystemKind};
//! use mc_workloads::{kv::KvStore, Memory};
//!
//! let mut sim = Simulation::new(SimConfig::new(SystemKind::MultiClock, 256, 2048));
//! let mut kv = KvStore::new(&mut sim, 100);
//! kv.set(&mut sim, 1, b"hello");
//! assert_eq!(kv.get(&mut sim, 1), Some(&b"hello"[..]));
//! assert!(sim.now().as_nanos() > 0);
//! ```

// Engine-reachable code: failure is a value, iteration order is fixed (DESIGN.md §9).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::unimplemented,
    clippy::todo,
    clippy::iter_over_hash_type,
    clippy::let_underscore_must_use,
    clippy::unused_result_ok
)]

pub mod config;
pub mod engine;
pub mod error;
pub mod experiments;
pub mod latency_hist;
pub mod metrics;
mod obs;

pub use config::{EngineKnobs, InstrumentKnobs, SimConfig, SystemKind};
pub use engine::Simulation;
pub use error::RunError;
pub use experiments::{Experiment, RunOutcome, Scale};
pub use latency_hist::LatencyHistogram;
pub use mc_fault::{FaultConfig, FaultPlan, RetryPolicy};
pub use mc_mem::MigrationMode;
pub use mc_obs::ObsConfig;
pub use metrics::{CostBreakdown, Metrics, WindowStats};
