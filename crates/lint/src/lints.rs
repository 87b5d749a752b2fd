//! The three lint classes. Each submodule exposes
//! `check(&Workspace) -> Vec<Diagnostic>` and is independently runnable so
//! the test harness can report them as separate cases.

pub mod boundary;
pub mod layering;
pub mod state_machine;
