//! Structured trace events — the reproduction's tracepoint payloads.
//!
//! Each variant mirrors a kernel tracepoint the paper's evaluation relies
//! on (`trace_mm_lru_activate`, `trace_mm_migrate_pages`, ...) or a
//! MULTI-CLOCK-specific event (Fig. 4 state-machine transitions, promote
//! drains, pressure runs). Payloads are raw integers because `mc-obs`
//! sits below every other crate in the layering DAG.

use crate::json;

/// Number of edges in the Fig. 4 state machine (ids 1..=13).
pub(crate) const FIG4_EDGES: usize = 13;

/// A recorded trace event: a monotone sequence number, the virtual
/// timestamp the recorder carried when the event fired, and the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Monotone per-recorder sequence number (gap-free until the ring
    /// overwrites; gaps then indicate dropped events).
    pub seq: u64,
    /// Virtual time of the event in nanoseconds, as last set via
    /// [`crate::Recorder::set_now`].
    pub at_ns: u64,
    /// The event payload.
    pub kind: EventKind,
}

/// The tracepoint payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A `kpromoted` tick started.
    TickBegin {
        /// Tick ordinal (the policy's `ticks` counter value).
        tick: u64,
    },
    /// A `kpromoted` tick finished.
    TickEnd {
        /// Tick ordinal (matches the preceding [`EventKind::TickBegin`]).
        tick: u64,
        /// Pages examined during this tick.
        scanned: u64,
        /// Pages promoted during this tick.
        promoted: u64,
        /// Pages demoted during this tick.
        demoted: u64,
    },
    /// One list scan step (inactive/active/promote list of one tier).
    ScanList {
        /// Tier whose list was scanned.
        tier: u8,
        /// Static list name: `"inactive"`, `"active"` or `"promote"`.
        list: &'static str,
        /// Pages examined in this step.
        scanned: u32,
    },
    /// A Fig. 4 state-machine transition fired for a page.
    Fig4 {
        /// Edge id, 1..=13, matching the `// fig4: N` source markers and
        /// the DESIGN.md transition table.
        edge: u8,
        /// Frame index of the page that moved.
        frame: u64,
        /// Tier holding the page when the transition fired.
        tier: u8,
    },
    /// A promote-list drain batch completed (transition 13 batches).
    PromoteDrain {
        /// Tier whose promote list was drained.
        tier: u8,
        /// Candidates taken off the list in this batch.
        drained: u32,
    },
    /// A pressure/reclaim pass ran over a tier.
    PressureRun {
        /// Tier the pass ran against.
        tier: u8,
        /// Pages freed (demoted or evicted) by the pass.
        freed: u32,
    },
    /// The substrate allocated a page.
    Alloc {
        /// Frame index chosen.
        frame: u64,
        /// Tier the frame belongs to.
        tier: u8,
    },
    /// The substrate migrated a page between tiers.
    Migrate {
        /// Virtual page that moved, if the frame was mapped.
        vpage: Option<u64>,
        /// Source tier.
        src: u8,
        /// Destination tier.
        dst: u8,
    },
    /// The substrate migrated a batch of pages between tiers in one
    /// amortized `migrate_pages()`-style call (Nomad-style batching).
    MigrateBatch {
        /// Source tier of the batch.
        src: u8,
        /// Destination tier of the batch.
        dst: u8,
        /// Pages the caller submitted in the batch.
        pages: u32,
        /// Pages that actually moved (the rest failed individually or were
        /// aborted by a mid-batch fault).
        migrated: u32,
    },
    /// A migration attempt failed.
    MigrateFail {
        /// Frame index that stayed put.
        frame: u64,
        /// Tier holding the frame.
        src: u8,
        /// Static failure reason, one of six: `"txn-pending"` (the page
        /// already has an open migration transaction),
        /// `"tier-full"` (the destination has no free frame),
        /// `"batch-aborted"` (an injected fault earlier in the same sync
        /// batch aborted the rest), and the injected faults
        /// `"injected-tier-full"`, `"injected-locked"` and
        /// `"injected-offline"`.
        reason: &'static str,
    },
    /// A failed migration was scheduled for a bounded retry: the page was
    /// requeued at the promote-list tail with a backoff deadline.
    MigrateRetry {
        /// Frame index being retried.
        frame: u64,
        /// Failed attempts so far in this promotion episode (1-based).
        attempt: u32,
        /// Tick ordinal at which the page becomes eligible again.
        eligible_tick: u64,
    },
    /// The retry budget for a page's promotion episode ran out (or the
    /// failure was permanent); the daemon degraded gracefully by returning
    /// the page to the active list.
    MigrateGaveUp {
        /// Frame index abandoned.
        frame: u64,
        /// Failed attempts the episode accumulated.
        attempts: u32,
    },
    /// A transactional migration opened: the destination frame is
    /// reserved and the background copy started while the source stays
    /// mapped and live.
    TxnBegin {
        /// Source frame being copied.
        frame: u64,
        /// Tier holding the source.
        src: u8,
        /// Destination tier of the copy.
        dst: u8,
    },
    /// A transactional migration aborted before commit.
    TxnAbort {
        /// Source frame whose copy was discarded.
        frame: u64,
        /// Static abort reason (`"dirty-write"`, `"unmapped"`, or an
        /// injected-fault reason).
        reason: &'static str,
    },
    /// A transactional migration committed with an atomic remap.
    TxnCommit {
        /// Source frame the page left.
        frame: u64,
        /// Destination frame the page now occupies.
        new_frame: u64,
    },
    /// A demotion was satisfied by flipping the mapping to a retained
    /// shadow copy — no page copy happened.
    ShadowDemote {
        /// Upper-tier frame the page left.
        frame: u64,
        /// Lower-tier shadow frame the page now occupies.
        new_frame: u64,
    },
    /// A page was evicted from the lowest tier to backing storage.
    Evict {
        /// Virtual page evicted.
        vpage: u64,
    },
    /// A page was faulted back in from backing storage.
    SwapIn {
        /// Virtual page brought back.
        vpage: u64,
    },
    /// A hint page fault (poisoned PTE) was taken on an access.
    HintFault {
        /// Virtual page accessed.
        vpage: u64,
        /// Tier serving the access.
        tier: u8,
    },
    /// A policy-defined event (e.g. an AutoNUMA poison batch).
    Custom {
        /// Static tag naming the event; kept short and kebab-case.
        tag: &'static str,
        /// First payload word (meaning is tag-specific).
        a: u64,
        /// Second payload word (meaning is tag-specific).
        b: u64,
    },
}

impl EventKind {
    /// The event's stable name, used as the `"ev"` field in JSONL dumps
    /// and as the tracepoint name in DESIGN.md's mapping table.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::TickBegin { .. } => "tick_begin",
            EventKind::TickEnd { .. } => "tick_end",
            EventKind::ScanList { .. } => "scan_list",
            EventKind::Fig4 { .. } => "fig4_transition",
            EventKind::PromoteDrain { .. } => "promote_drain",
            EventKind::PressureRun { .. } => "pressure_run",
            EventKind::Alloc { .. } => "alloc",
            EventKind::Migrate { .. } => "migrate",
            EventKind::MigrateBatch { .. } => "migrate_batch",
            EventKind::MigrateFail { .. } => "migrate_fail",
            EventKind::MigrateRetry { .. } => "migrate_retry",
            EventKind::MigrateGaveUp { .. } => "migrate_gave_up",
            EventKind::TxnBegin { .. } => "txn_begin",
            EventKind::TxnAbort { .. } => "txn_abort",
            EventKind::TxnCommit { .. } => "txn_commit",
            EventKind::ShadowDemote { .. } => "shadow_demote",
            EventKind::Evict { .. } => "evict",
            EventKind::SwapIn { .. } => "swap_in",
            EventKind::HintFault { .. } => "hint_fault",
            EventKind::Custom { tag, .. } => tag,
        }
    }
}

impl Event {
    /// Serialises the event as one flat JSON object (one JSONL line,
    /// without the trailing newline).
    pub(crate) fn to_json(self) -> String {
        let mut w = json::ObjectWriter::new();
        w.str_field("ev", self.kind.name());
        w.num_field("seq", self.seq);
        w.num_field("at_ns", self.at_ns);
        match self.kind {
            EventKind::TickBegin { tick } => {
                w.num_field("tick", tick);
            }
            EventKind::TickEnd {
                tick,
                scanned,
                promoted,
                demoted,
            } => {
                w.num_field("tick", tick);
                w.num_field("scanned", scanned);
                w.num_field("promoted", promoted);
                w.num_field("demoted", demoted);
            }
            EventKind::ScanList {
                tier,
                list,
                scanned,
            } => {
                w.num_field("tier", u64::from(tier));
                w.str_field("list", list);
                w.num_field("scanned", u64::from(scanned));
            }
            EventKind::Fig4 { edge, frame, tier } => {
                w.num_field("edge", u64::from(edge));
                w.num_field("frame", frame);
                w.num_field("tier", u64::from(tier));
            }
            EventKind::PromoteDrain { tier, drained } => {
                w.num_field("tier", u64::from(tier));
                w.num_field("drained", u64::from(drained));
            }
            EventKind::PressureRun { tier, freed } => {
                w.num_field("tier", u64::from(tier));
                w.num_field("freed", u64::from(freed));
            }
            EventKind::Alloc { frame, tier } => {
                w.num_field("frame", frame);
                w.num_field("tier", u64::from(tier));
            }
            EventKind::Migrate { vpage, src, dst } => {
                match vpage {
                    Some(v) => w.num_field("vpage", v),
                    None => w.null_field("vpage"),
                }
                w.num_field("src", u64::from(src));
                w.num_field("dst", u64::from(dst));
            }
            EventKind::MigrateBatch {
                src,
                dst,
                pages,
                migrated,
            } => {
                w.num_field("src", u64::from(src));
                w.num_field("dst", u64::from(dst));
                w.num_field("pages", u64::from(pages));
                w.num_field("migrated", u64::from(migrated));
            }
            EventKind::MigrateFail { frame, src, reason } => {
                w.num_field("frame", frame);
                w.num_field("src", u64::from(src));
                w.str_field("reason", reason);
            }
            EventKind::MigrateRetry {
                frame,
                attempt,
                eligible_tick,
            } => {
                w.num_field("frame", frame);
                w.num_field("attempt", u64::from(attempt));
                w.num_field("eligible_tick", eligible_tick);
            }
            EventKind::MigrateGaveUp { frame, attempts } => {
                w.num_field("frame", frame);
                w.num_field("attempts", u64::from(attempts));
            }
            EventKind::TxnBegin { frame, src, dst } => {
                w.num_field("frame", frame);
                w.num_field("src", u64::from(src));
                w.num_field("dst", u64::from(dst));
            }
            EventKind::TxnAbort { frame, reason } => {
                w.num_field("frame", frame);
                w.str_field("reason", reason);
            }
            EventKind::TxnCommit { frame, new_frame } => {
                w.num_field("frame", frame);
                w.num_field("new_frame", new_frame);
            }
            EventKind::ShadowDemote { frame, new_frame } => {
                w.num_field("frame", frame);
                w.num_field("new_frame", new_frame);
            }
            EventKind::Evict { vpage } => {
                w.num_field("vpage", vpage);
            }
            EventKind::SwapIn { vpage } => {
                w.num_field("vpage", vpage);
            }
            EventKind::HintFault { vpage, tier } => {
                w.num_field("vpage", vpage);
                w.num_field("tier", u64::from(tier));
            }
            EventKind::Custom { a, b, .. } => {
                w.num_field("a", a);
                w.num_field("b", b);
            }
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_parse_back() {
        let events = [
            EventKind::TickBegin { tick: 1 },
            EventKind::Fig4 {
                edge: 13,
                frame: 42,
                tier: 1,
            },
            EventKind::Migrate {
                vpage: None,
                src: 0,
                dst: 1,
            },
            EventKind::MigrateBatch {
                src: 1,
                dst: 0,
                pages: 16,
                migrated: 12,
            },
            EventKind::MigrateFail {
                frame: 9,
                src: 1,
                reason: "tier-full",
            },
            EventKind::MigrateRetry {
                frame: 9,
                attempt: 2,
                eligible_tick: 17,
            },
            EventKind::MigrateGaveUp {
                frame: 9,
                attempts: 4,
            },
            EventKind::TxnBegin {
                frame: 5,
                src: 1,
                dst: 0,
            },
            EventKind::TxnAbort {
                frame: 5,
                reason: "dirty-write",
            },
            EventKind::TxnCommit {
                frame: 5,
                new_frame: 3,
            },
            EventKind::ShadowDemote {
                frame: 3,
                new_frame: 5,
            },
            EventKind::Custom {
                tag: "poison_batch",
                a: 7,
                b: 0,
            },
        ];
        for (i, kind) in events.into_iter().enumerate() {
            let ev = Event {
                seq: i as u64,
                at_ns: 1_000 + i as u64,
                kind,
            };
            let line = ev.to_json();
            let obj = json::parse_flat_object(&line).expect("valid json");
            assert_eq!(json::get_str(&obj, "ev"), Some(kind.name()), "line: {line}");
            assert_eq!(json::get_num(&obj, "seq"), Some(i as f64));
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EventKind::TickBegin { tick: 0 }.name(), "tick_begin");
        assert_eq!(
            EventKind::Fig4 {
                edge: 1,
                frame: 0,
                tier: 0
            }
            .name(),
            "fig4_transition"
        );
        assert_eq!(
            EventKind::Custom {
                tag: "x",
                a: 0,
                b: 0
            }
            .name(),
            "x"
        );
        assert_eq!(
            EventKind::TxnBegin {
                frame: 0,
                src: 1,
                dst: 0
            }
            .name(),
            "txn_begin"
        );
        assert_eq!(
            EventKind::TxnAbort {
                frame: 0,
                reason: "dirty-write"
            }
            .name(),
            "txn_abort"
        );
        assert_eq!(
            EventKind::TxnCommit {
                frame: 0,
                new_frame: 1
            }
            .name(),
            "txn_commit"
        );
        assert_eq!(
            EventKind::ShadowDemote {
                frame: 0,
                new_frame: 1
            }
            .name(),
            "shadow_demote"
        );
    }
}
