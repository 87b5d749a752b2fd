//! Deterministic fault injection for the MULTI-CLOCK reproduction.
//!
//! The paper's kernel setting is exactly where `migrate_pages(2)` fails
//! transiently: locked or unevictable pages (`-EAGAIN`/`-EBUSY`), full
//! destination nodes under watermark pressure (`-ENOMEM`), nodes going
//! away mid-run. Nimble and AutoTiering both treat migration failure as a
//! first-class concern. This crate lets the simulated substrate *perturb*
//! those paths on purpose, so the tiering daemon's retry/backoff logic can
//! be exercised and verified instead of assumed.
//!
//! The crate is dependency-free and sits at the very bottom of the
//! layering DAG (beside `mc-obs`): it speaks raw integers (tier indices,
//! nanosecond timestamps) so that `mc-mem` itself can consult it.
//!
//! Everything is **seed-deterministic**: a [`FaultPlan`] plus a seed fully
//! determines every injection decision, so a faulted run replays
//! bit-identically — the property the chaos/differential test harness is
//! built on. A disabled [`FaultConfig`] builds no injector at all, and a
//! zero-rate injector draws no randomness, so the zero-fault configuration
//! is byte-identical to an engine without the fault layer.

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

mod injector;
mod plan;
mod retry;
mod rng;

pub use injector::{FaultInjector, InjectedFault};
pub use plan::{FaultConfig, FaultPlan, OfflineWindow, StallWindow};
pub use retry::RetryPolicy;
pub use rng::SplitMix64;
