//! Retry/backoff policy for transient migration failures.
//!
//! The kernel's `migrate_pages` loop retries pages that fail with
//! `-EAGAIN` up to ten times before giving up; MULTI-CLOCK's kpromoted
//! analogue adopts the same shape, but measures backoff in *scan ticks*
//! (the daemon's natural time unit) and requeues deferred pages at the
//! promote-list tail so fresh candidates are not starved.
//!
//! The policy type lives here — at the bottom of the layering DAG — so
//! `multi-clock` (which executes it) and `mc-sim` (which configures it)
//! share one definition without a sideways dependency.

use serde::{Deserialize, Serialize};

/// Bounded-retry policy with exponential backoff, measured in kpromoted
/// ticks.
///
/// An *attempt* is one failed migration try for a page's current
/// promotion episode. After attempt `n` fails (`n` counted from 1), the
/// page becomes eligible again `backoff_ticks(n)` ticks later; once
/// `max_attempts` attempts fail, the daemon gives up on the episode and
/// degrades gracefully (the page returns to the active list and must earn
/// promotion again — it is never dropped).
///
/// The default, [`RetryPolicy::immediate`], allows a single attempt with
/// no backoff, which is exactly the pre-fault-layer behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum failed attempts per promotion episode before giving up.
    /// The minimum meaningful value is 1 (try once, never retry).
    pub max_attempts: u32,
    /// Backoff after the first failed attempt, in ticks. `0` retries on
    /// the very next drain of the promote list.
    pub backoff_base_ticks: u64,
    /// Upper bound on the (exponentially growing) backoff, in ticks.
    pub backoff_cap_ticks: u64,
}

impl RetryPolicy {
    /// One attempt, no backoff: identical to the engine before the fault
    /// layer existed. This is the default.
    pub fn immediate() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base_ticks: 0,
            backoff_cap_ticks: 0,
        }
    }

    /// The chaos-harness default: up to 4 attempts backing off 1, 2, 4
    /// ticks (mirrors `migrate_pages`' bounded retry loop).
    pub fn backoff() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base_ticks: 1,
            backoff_cap_ticks: 8,
        }
    }

    /// Whether `attempts` failed attempts exhaust the policy.
    pub fn exhausted(&self, attempts: u32) -> bool {
        attempts >= self.max_attempts
    }

    /// Ticks to wait after failed attempt number `attempt` (1-based):
    /// `min(base << (attempt-1), cap)`, saturating. Attempt `0` is treated
    /// as attempt `1`.
    pub fn backoff_ticks(&self, attempt: u32) -> u64 {
        if self.backoff_base_ticks == 0 {
            return 0;
        }
        let shift = attempt.saturating_sub(1).min(63);
        self.backoff_base_ticks
            .saturating_mul(1u64 << shift)
            .min(self.backoff_cap_ticks)
    }

    /// Whether the policy is well-formed: at least one attempt, and the
    /// cap not below the base when backoff is in use.
    pub fn is_valid(&self) -> bool {
        self.max_attempts >= 1
            && (self.backoff_base_ticks == 0 || self.backoff_cap_ticks >= self.backoff_base_ticks)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::immediate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_is_default_and_exhausts_after_one() {
        let p = RetryPolicy::default();
        assert_eq!(p, RetryPolicy::immediate());
        assert!(p.is_valid());
        assert!(!p.exhausted(0));
        assert!(p.exhausted(1));
        assert_eq!(p.backoff_ticks(1), 0);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::backoff();
        assert!(p.is_valid());
        assert_eq!(p.backoff_ticks(1), 1);
        assert_eq!(p.backoff_ticks(2), 2);
        assert_eq!(p.backoff_ticks(3), 4);
        assert_eq!(p.backoff_ticks(4), 8);
        assert_eq!(p.backoff_ticks(5), 8, "capped");
        assert_eq!(p.backoff_ticks(0), 1, "attempt 0 treated as 1");
        assert!(!p.exhausted(3));
        assert!(p.exhausted(4));
    }

    #[test]
    fn huge_attempt_counts_saturate() {
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            backoff_base_ticks: u64::MAX / 2,
            backoff_cap_ticks: u64::MAX,
        };
        assert_eq!(p.backoff_ticks(200), p.backoff_cap_ticks);
    }

    #[test]
    fn invalid_shapes_detected() {
        assert!(!RetryPolicy {
            max_attempts: 0,
            backoff_base_ticks: 0,
            backoff_cap_ticks: 0
        }
        .is_valid());
        assert!(!RetryPolicy {
            max_attempts: 2,
            backoff_base_ticks: 4,
            backoff_cap_ticks: 1
        }
        .is_valid());
    }
}
