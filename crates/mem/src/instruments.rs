//! The substrate's instruments — tracepoint recorder, fault injector and
//! host-time perf hooks — held as one value on one virtual timestamp.

use mc_fault::{FaultConfig, FaultInjector};
use mc_obs::{EventKind, ObsConfig, PerfHooks, Phase, PhaseSpan, Recorder};

/// The run's instruments, the [`crate::MemorySystem::instruments`] field:
/// all off by default, built once per run by [`Instruments::new`]. The
/// substrate and the policies emit and time through it, so one dump
/// interleaves the whole pipeline; obs and perf never move a result.
#[derive(Debug, Clone, Default)]
pub struct Instruments {
    /// Read through [`crate::MemorySystem::recorder`].
    pub(crate) recorder: Recorder,
    fault: Option<FaultInjector>,
    perf: Option<PerfHooks>,
}

impl Instruments {
    /// A recorder ringing `obs.ring_capacity` events when `obs` is on, an
    /// injector when `fault` is enabled, and `perf` as given.
    pub fn new(obs: &ObsConfig, fault: &FaultConfig, perf: Option<PerfHooks>) -> Self {
        Instruments {
            recorder: if obs.enabled {
                Recorder::enabled(obs.ring_capacity)
            } else {
                Recorder::disabled()
            },
            fault: FaultInjector::from_config(fault),
            perf,
        }
    }

    /// Advances the virtual timestamp the recorder stamps on events and
    /// the injector keys its offline and stall windows by.
    #[inline]
    pub fn set_now(&mut self, now_ns: u64) {
        self.recorder.set_now(now_ns);
        if let Some(fault) = self.fault.as_mut() {
            fault.set_now(now_ns);
        }
    }

    /// Records one tracepoint; the payload closure runs only with obs on.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> EventKind) {
        self.recorder.emit(f);
    }

    /// Opens a host-time span around `phase`, recorded when dropped; `None`
    /// without perf hooks. It does not keep the substrate borrowed.
    pub fn span(&self, phase: Phase) -> Option<PhaseSpan> {
        self.perf.as_ref().map(|p| p.span(phase))
    }

    /// The fault injector, if the run has one: consulted at every
    /// allocation, migration and access; tests read and toggle it here.
    #[inline]
    pub fn injector(&mut self) -> Option<&mut FaultInjector> {
        self.fault.as_mut()
    }
}
