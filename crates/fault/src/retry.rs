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

/// Bounded-retry policy with exponential backoff, measured in kpromoted
/// ticks.
///
/// An *attempt* is one failed migration try for a page's current
/// promotion episode. After attempt `n` fails (`n` counted from 1), the
/// page becomes eligible again [`RetryPolicy::backoff_ticks`]`(n)` ticks
/// later; once [`RetryPolicy::max_attempts`] attempts fail, the daemon
/// gives up on the episode and degrades gracefully (the page returns to
/// the active list and must earn promotion again — it is never dropped).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RetryPolicy {
    /// One attempt, no backoff: identical to the engine before the fault
    /// layer existed. This is the default.
    #[default]
    Immediate,
    /// The chaos-harness policy: up to 4 attempts backing off 1, 2, 4
    /// ticks, capped at 8 (mirrors `migrate_pages`' bounded retry loop).
    Backoff,
}

impl RetryPolicy {
    /// Failed attempts per promotion episode before giving up.
    pub fn max_attempts(self) -> u32 {
        match self {
            RetryPolicy::Immediate => 1,
            RetryPolicy::Backoff => 4,
        }
    }

    /// Whether `attempts` failed attempts exhaust the policy.
    pub fn exhausted(self, attempts: u32) -> bool {
        attempts >= self.max_attempts()
    }

    /// Ticks to wait after failed attempt number `attempt` (1-based):
    /// none under [`RetryPolicy::Immediate`], `min(2^(attempt-1), 8)`
    /// under [`RetryPolicy::Backoff`]. Attempt `0` is treated as attempt
    /// `1`.
    pub fn backoff_ticks(self, attempt: u32) -> u64 {
        match self {
            RetryPolicy::Immediate => 0,
            RetryPolicy::Backoff => 1 << attempt.saturating_sub(1).min(3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_is_default_and_exhausts_after_one() {
        let p = RetryPolicy::default();
        assert_eq!(p, RetryPolicy::Immediate);
        assert!(!p.exhausted(0));
        assert!(p.exhausted(1));
        assert_eq!(p.backoff_ticks(1), 0);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::Backoff;
        assert_eq!(p.backoff_ticks(1), 1);
        assert_eq!(p.backoff_ticks(2), 2);
        assert_eq!(p.backoff_ticks(3), 4);
        assert_eq!(p.backoff_ticks(4), 8);
        assert_eq!(p.backoff_ticks(5), 8, "capped");
        assert_eq!(p.backoff_ticks(u32::MAX), 8, "capped");
        assert_eq!(p.backoff_ticks(0), 1, "attempt 0 treated as 1");
        assert!(!p.exhausted(3));
        assert!(p.exhausted(4));
    }
}
