//! The list boundary's own regression suite (DESIGN.md §9). Planted
//! violations, compiled as a crate outside `multi-clock`, must each be
//! rejected by rustc with the privacy or borrow error that enforces the
//! boundary — and the read-only equivalent must compile, so a rejection
//! is never just a broken test setup.

mod outside;

use outside::{assert_rejected, compile};

#[test]
fn boundary_flags_foreign_list_mutation() {
    // What `MultiClock::node_lists` hands out: readable, not writable.
    compile(
        "foreign_read",
        "pub fn peek(lists: &multi_clock::TierLists) -> bool {
             let frame = lists.anon.inactive.front().unwrap();
             lists.anon.inactive.contains(frame)
         }",
    )
    .unwrap();
    assert_rejected(
        "foreign_push",
        "pub fn rogue(lists: &multi_clock::TierLists) {
             let frame = lists.anon.inactive.front().unwrap();
             lists.anon.inactive.push_back(frame);
         }",
        "E0596",
        "lists.anon.inactive",
    );
    // Even with the whole engine borrowed mutably, the lists are private.
    assert_rejected(
        "foreign_nodes",
        "pub fn rogue(mc: &mut multi_clock::MultiClock) {
             mc.nodes.clear();
         }",
        "E0616",
        "nodes",
    );
}

#[test]
fn boundary_flags_mut_accessors_and_assignment() {
    assert_rejected(
        "set_mut",
        "pub fn rogue(lists: &mut multi_clock::TierLists) {
             let _ = |kind| {
                 lists.set_mut(kind);
             };
         }",
        "E0624",
        "set_mut",
    );
    assert_rejected(
        "list_mut",
        "pub fn rogue(lists: &mut multi_clock::ListSet) {
             lists.list_mut(multi_clock::WhichList::Active);
         }",
        "E0624",
        "list_mut",
    );
    assert_rejected(
        "assign",
        "pub fn rogue(lists: &multi_clock::TierLists) {
             lists.anon.active = Default::default();
         }",
        "E0594",
        "lists.anon.active",
    );
}
