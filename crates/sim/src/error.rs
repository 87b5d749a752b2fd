//! How a run fails: exhaustion and wild addresses are outcomes of the
//! system under test (PAPER.md §III-C ends the demotion path in "OOM
//! killed"), so they come back as values the caller must handle.

use mc_mem::{Nanos, VPage};

/// Why a run did not produce a [`crate::RunOutcome`].
///
/// The [`mc_workloads::Memory`] trait the workloads write through is
/// infallible, so a [`crate::Simulation`] latches the first of these
/// ([`crate::Simulation::error`]) and skips every later access that
/// faults; [`crate::Experiment::run`] returns it.
#[derive(Debug)]
pub enum RunError {
    /// Every tier was exhausted and reclaim freed nothing: the fault on
    /// `vpage` at virtual time `at` could not be given a frame.
    OutOfMemory {
        /// Virtual time of the fault.
        at: Nanos,
        /// The page that could not be faulted in.
        vpage: VPage,
    },
    /// The workload touched `vpage`, at or past
    /// [`mc_mem::PageTable::MAX_VPAGES`]: a wild pointer, refused before
    /// any frame is taken for it.
    AddressOutOfRange {
        /// Virtual time of the access.
        at: Nanos,
        /// The page past the page table's span.
        vpage: VPage,
    },
    /// Writing the obs artifacts failed.
    Io(std::io::Error),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::OutOfMemory { at, vpage } => {
                write!(f, "out of memory at {at}: no tier can hold {vpage}")
            }
            RunError::AddressOutOfRange { at, vpage } => {
                write!(f, "{vpage} accessed at {at} is beyond the address space")
            }
            RunError::Io(e) => write!(f, "writing obs artifacts: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError::Io(e)
    }
}
