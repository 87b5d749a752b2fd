//! Observability configuration knob, embedded by consumers (the sim's
//! `SimConfig` carries one) so a single flag threads the whole pipeline.

use crate::recorder::DEFAULT_RING_CAPACITY;

/// What to record during a run. The default is fully disabled, which
/// keeps the instrumented hot paths at a single predictable branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch; when false nothing is recorded anywhere.
    pub enabled: bool,
    /// Event-ring capacity (oldest events are overwritten beyond this).
    pub ring_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: false,
            ring_capacity: DEFAULT_RING_CAPACITY,
        }
    }
}

impl ObsConfig {
    /// Disabled (the default).
    pub fn off() -> Self {
        ObsConfig::default()
    }

    /// Enabled with default capacities.
    pub fn on() -> Self {
        ObsConfig {
            enabled: true,
            ..ObsConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        assert!(!ObsConfig::default().enabled);
        assert!(ObsConfig::on().enabled);
        assert!(ObsConfig::on().ring_capacity > 0);
    }
}
