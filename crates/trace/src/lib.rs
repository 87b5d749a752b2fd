//! # mc-trace — page-access record and replay
//!
//! Record a workload's page touches once, then drive any memory with the
//! same sequence:
//!
//! * [`Recorder`] — a [`mc_mem::Memory`] decorator that records every page
//!   touch of the workload running above it while passing accesses through
//!   to the underlying memory;
//! * [`Trace`] — the recorded event sequence, in time order;
//! * [`replay()`](replay::replay) — drives any [`mc_mem::Memory`] (including the full tiering
//!   simulation) from a trace, reproducing the original page-touch
//!   sequence without the original application.
//!
//! ```
//! use mc_trace::{Recorder, replay};
//! use mc_mem::{Memory, PageKind, SimpleMemory};
//!
//! // Record a workload.
//! let mut rec = Recorder::new(SimpleMemory::new());
//! let a = rec.mmap(4096 * 4, PageKind::Anon);
//! rec.read(a, 8);
//! rec.write(a.add(4096), 16);
//! let trace = rec.finish();
//! assert_eq!(trace.len(), 2);
//!
//! // Replay it elsewhere.
//! let mut target = SimpleMemory::new();
//! let stats = replay(&trace, &mut target);
//! assert_eq!(stats.events_replayed, 2);
//! ```

mod record;
mod replay;
mod trace;

pub use record::Recorder;
pub use replay::{replay, ReplayStats};
pub use trace::{Trace, TraceEvent};
