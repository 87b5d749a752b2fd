//! The real tree keeps list mutation inside `multi-clock` (DESIGN.md §9).
//! The rest of the workspace only ever holds a `MultiClock` through the
//! `TieringPolicy` methods and `node_lists`; this checks, as an outside
//! crate, that every list stays readable that way and that no door —
//! field, accessor or `&mut self` method — leads to a mutable list.

mod outside;

use outside::{assert_rejected, compile};

#[test]
fn list_mutation_stays_inside_core_machinery() {
    // Every list the invariant checkers and reports read is reachable.
    compile(
        "read_every_list",
        "use multi_clock::{ListSet, MultiClock, WhichList};
         fn set_len(set: &ListSet) -> usize {
             [WhichList::Inactive, WhichList::Active, WhichList::Promote]
                 .map(|w| set.list(w).len())
                 .iter()
                 .sum()
         }
         pub fn census(mc: &MultiClock) {
             let _ = |node| -> usize {
                 set_len(mc.node_lists(node))
             };
         }",
    )
    .unwrap();
    // `&mut MultiClock` is as much as any other crate ever gets.
    for (name, body, code, item) in [
        ("door_field", "mc.nodes.clear();", "E0616", "nodes"),
        (
            "door_remove",
            "let _ = |node, frame| mc.node_lists(node).active.remove(frame);",
            "E0596",
            "mc.node_lists(node).active",
        ),
        (
            "door_node",
            "let _ = |node| { mc.node_lists(node).promote.drain(); };",
            "E0596",
            "mc.node_lists(node).promote",
        ),
    ] {
        let src = format!("pub fn rogue(mc: &mut multi_clock::MultiClock) {{ {body} }}");
        assert_rejected(name, &src, code, item);
    }
}
