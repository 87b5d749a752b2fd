//! # mc-trace — page-access tracing, sampling and replay
//!
//! The paper's motivation study (§II-A) is built on page-access traces:
//! "we randomly sampled pages from memory, assigned them unique
//! identifiers, and traced the accesses to these sampled pages". This
//! crate provides that methodology as reusable infrastructure:
//!
//! * [`Recorder`] — a [`mc_mem::Memory`] decorator that records every page touch
//!   of the workload running above it (optionally restricted to a sampled
//!   page set, like the paper's tracer) while passing accesses through to
//!   the underlying memory;
//! * [`Trace`] — the recorded event sequence, with a compact binary
//!   serialisation for storing and sharing traces;
//! * [`replay()`](replay::replay) — drives any [`mc_mem::Memory`] (including the full tiering
//!   simulation) from a trace, reproducing the original page-touch
//!   sequence without the original application;
//! * [`Heatmap`] — per-page × per-window access counts computed from a
//!   trace (the data behind Fig. 1), plus the Fig. 2
//!   observation/performance-window statistic.
//!
//! ```
//! use mc_trace::{Recorder, replay};
//! use mc_mem::{Memory, SimpleMemory};
//! use mc_mem::PageKind;
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

mod heatmap;
mod record;
mod replay;
mod trace;

pub use heatmap::Heatmap;
pub use record::Recorder;
pub use replay::{replay, ReplayStats};
pub use trace::{Trace, TraceEvent};
