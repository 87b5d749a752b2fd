//! The nine lint classes (plus the suppression audit in
//! [`crate::suppress`]). Each submodule exposes
//! `check(&Workspace) -> Vec<Diagnostic>` and is independently runnable so
//! the test harness can report them as separate cases; the semantic passes
//! additionally expose `check_with` taking the shared item index and/or
//! suppression registry, which [`crate::run_passes`] threads through one
//! invocation.

pub mod boundary;
pub mod determinism;
pub mod docs;
pub mod layering;
pub mod panic_reach;
pub mod panics;
pub mod results;
pub mod state_machine;
pub mod wallclock;
