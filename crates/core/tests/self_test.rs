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
        "pub fn peek(lists: &multi_clock::ListSet) -> bool {
             let frame = lists.inactive.front().unwrap();
             lists.inactive.contains(frame)
         }",
    )
    .unwrap();
    assert_rejected(
        "foreign_push",
        "pub fn rogue(lists: &multi_clock::ListSet) {
             let frame = lists.inactive.front().unwrap();
             lists.inactive.push_back(frame);
         }",
        "E0596",
        "lists.inactive",
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
        "list_mut",
        "pub fn rogue(lists: &mut multi_clock::ListSet) {
             lists.list_mut(multi_clock::WhichList::Active);
         }",
        "E0624",
        "list_mut",
    );
    assert_rejected(
        "assign",
        "pub fn rogue(lists: &multi_clock::ListSet) {
             lists.active = Default::default();
         }",
        "E0594",
        "lists.active",
    );
}
