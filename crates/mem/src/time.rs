//! Virtual time.
//!
//! The simulation never reads wall-clock time: every latency charged by the
//! substrate advances a nanosecond counter. [`Nanos`] is both an instant and
//! a duration (the distinction is not load-bearing at this scale and keeping
//! one type makes arithmetic in policies terse). The counter is the
//! [`TimeLedger`]: time passes only by charging it to a [`Charge`], so the
//! clock and the account of where it went cannot disagree.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A virtual-time instant or duration, in nanoseconds.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Nanos(u64);

impl Nanos {
    /// Zero time.
    pub const ZERO: Nanos = Nanos(0);

    /// Creates a value from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a value from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a value from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates a value from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication by a scalar.
    pub const fn saturating_mul(self, k: u64) -> Nanos {
        Nanos(self.0.saturating_mul(k))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// What a span of virtual time was spent on. The first seven pass on the
/// application's clock; the last two run beside it and are only recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Charge {
    /// Device time of the accesses themselves (latency plus streaming).
    Device,
    /// First-touch page faults, including the ones that gave up.
    MinorFault,
    /// Software faults on poisoned PTEs.
    HintFault,
    /// Migration work the application waits for: unmap/TLB shootdown, the
    /// transactional remap, AutoTiering's fault-path exchange copies.
    MigrationStall,
    /// Major faults on pages evicted to backing storage.
    SwapIn,
    /// The share of daemon CPU that contends with the application.
    DaemonLeak,
    /// CPU work between memory accesses ([`crate::Memory::compute`]).
    Compute,
    /// Daemon CPU in full (scans), before the contention factor.
    DaemonCpu,
    /// Copies and write-backs on a spare core (migration, swap-out,
    /// Memory-mode fills).
    Background,
}

impl Charge {
    /// Every category, on-clock first.
    pub const ALL: [Charge; 9] = [
        Charge::Device,
        Charge::MinorFault,
        Charge::HintFault,
        Charge::MigrationStall,
        Charge::SwapIn,
        Charge::DaemonLeak,
        Charge::Compute,
        Charge::DaemonCpu,
        Charge::Background,
    ];

    /// Whether time charged here passes on the application's clock.
    pub const fn on_clock(self) -> bool {
        !matches!(self, Charge::DaemonCpu | Charge::Background)
    }

    /// The category's snake-case name, as artifacts print it.
    pub const fn name(self) -> &'static str {
        match self {
            Charge::Device => "device",
            Charge::MinorFault => "minor_fault",
            Charge::HintFault => "hint_fault",
            Charge::MigrationStall => "migration_stall",
            Charge::SwapIn => "swap_in",
            Charge::DaemonLeak => "daemon_leak",
            Charge::Compute => "compute",
            Charge::DaemonCpu => "daemon_cpu",
            Charge::Background => "background",
        }
    }
}

/// The virtual clock and the account of where its time went, as one value:
/// [`Self::charge`] is the only mutator, so [`Self::now`] equals the sum of
/// the on-clock categories by construction. The engine owns the run's; the
/// substrate holds a second for what is charged between two absorptions.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TimeLedger {
    spent: [Nanos; Charge::ALL.len()],
    now: Nanos,
}

impl TimeLedger {
    /// Spends `t` on `category`, advancing the clock if it is on-clock.
    pub fn charge(&mut self, category: Charge, t: Nanos) {
        self.spent[category as usize] += t;
        if category.on_clock() {
            self.now += t;
        }
    }

    /// Current virtual time: everything charged on-clock so far.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Total charged to one category.
    pub fn get(&self, category: Charge) -> Nanos {
        self.spent[category as usize]
    }

    /// Whether nothing has been charged (three compares: an on-clock
    /// charge shows in `now`).
    pub(crate) fn is_empty(&self) -> bool {
        self.now == Nanos::ZERO
            && self.get(Charge::DaemonCpu) == Nanos::ZERO
            && self.get(Charge::Background) == Nanos::ZERO
    }

    /// Charges everything `other` holds, category by category.
    pub fn merge(&mut self, other: &TimeLedger) {
        for category in Charge::ALL {
            self.charge(category, other.get(category));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(Nanos::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(Nanos::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(Nanos::from_micros(5).as_nanos(), 5_000);
    }

    #[test]
    fn arithmetic() {
        let a = Nanos::from_nanos(100);
        let b = Nanos::from_nanos(40);
        assert_eq!((a + b).as_nanos(), 140);
        assert_eq!((a - b).as_nanos(), 60);
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
        assert_eq!(b.saturating_mul(3).as_nanos(), 120);
    }

    #[test]
    fn clock_advances() {
        let mut all = TimeLedger::default();
        assert!(all.is_empty());
        for (i, c) in Charge::ALL.into_iter().enumerate() {
            let mut one = TimeLedger::default();
            one.charge(c, Nanos::from_nanos(1 << i));
            assert!(!one.is_empty(), "{} alone shows", c.name());
            assert_eq!(one.now() > Nanos::ZERO, c.on_clock());
            all.merge(&one);
            all.merge(&one);
        }
        // Seven on-clock categories, each merged twice; two beside them.
        assert_eq!(all.now().as_nanos(), 2 * ((1 << 7) - 1));
        assert_eq!(all.get(Charge::Background).as_nanos(), 2 << 8);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Nanos::from_nanos(5)), "5ns");
        assert!(format!("{}", Nanos::from_micros(5)).ends_with("us"));
        assert!(format!("{}", Nanos::from_millis(5)).ends_with("ms"));
        assert!(format!("{}", Nanos::from_secs(5)).ends_with('s'));
    }
}
