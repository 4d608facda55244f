//! Schedule transformations.
//!
//! The most important operation here is [`refine_leaves`], the practical
//! refinement described at the end of Section 3 of the paper: the greedy
//! algorithm delivers to fast nodes first, which is the right choice for
//! *internal* (forwarding) nodes but exactly backwards for *leaves* — a leaf
//! with a large receiving overhead should be handed the message early so
//! that its long receive does not extend the completion time. The paper
//! proposes reversing the delivery order of the leaves; [`refine_leaves`]
//! implements the natural generalisation (assign leaves with larger
//! receiving overheads to earlier delivery slots), which for greedy-built
//! schedules coincides with the reversal and is never worse for arbitrary
//! schedules.

use crate::error::CoreError;
use crate::schedule::times::evaluate;
use crate::schedule::tree::ScheduleTree;
use hnow_model::{MulticastSet, NetParams, NodeId};

/// Re-assigns the leaves of a complete schedule to its leaf delivery slots so
/// that leaves with larger receiving overheads are delivered earlier.
///
/// The tree's internal structure (every forwarding node, its parent and its
/// delivery rank) is unchanged; only which leaf occupies which leaf position
/// changes. Because a delivery slot's time depends only on the *parent*'s
/// reception time and rank — never on the occupant — this transformation
/// never increases any internal node's times, and by a standard exchange
/// argument it minimises, over all leaf permutations, the maximum leaf
/// reception time. Consequently the reception completion time never
/// increases.
///
/// Returns the refined tree (the input is not modified).
pub fn refine_leaves(
    tree: &ScheduleTree,
    set: &MulticastSet,
    net: NetParams,
) -> Result<ScheduleTree, CoreError> {
    let timing = evaluate(tree, set, net)?;
    // Leaf delivery slots: (delivery time, parent, position in parent's list).
    let mut slots: Vec<(hnow_model::Time, NodeId, usize)> = Vec::new();
    let mut leaves: Vec<NodeId> = Vec::new();
    for v in tree.bfs() {
        for (pos, &c) in tree.children(v).iter().enumerate() {
            if tree.is_leaf(c) {
                slots.push((timing.delivery(c), v, pos));
                leaves.push(c);
            }
        }
    }
    // Earliest slots first; slowest receivers first. Ties broken by node id
    // so the refinement is deterministic.
    slots.sort_by_key(|&(d, p, pos)| (d, p, pos));
    leaves.sort_by_key(|&v| (std::cmp::Reverse(set.spec(v).recv()), v));

    // Rebuild the tree with the same internal structure but with each leaf
    // position overwritten by its newly assigned leaf.
    let mut child_lists: Vec<Vec<NodeId>> = (0..tree.num_nodes())
        .map(|i| tree.children(NodeId(i)).to_vec())
        .collect();
    for (&(_, parent, pos), &leaf) in slots.iter().zip(leaves.iter()) {
        child_lists[parent.index()][pos] = leaf;
    }
    ScheduleTree::from_child_lists(child_lists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::times::reception_completion;
    use hnow_model::NodeSpec;

    fn figure1() -> (MulticastSet, NetParams) {
        let slow = NodeSpec::new(2, 3);
        let fast = NodeSpec::new(1, 1);
        (
            MulticastSet::new(slow, vec![fast, fast, fast, slow]).unwrap(),
            NetParams::new(1),
        )
    }

    /// The Figure 1(a) schedule (completion 10).
    fn figure1a_tree() -> ScheduleTree {
        let mut tree = ScheduleTree::new(5);
        tree.attach(NodeId(0), NodeId(1)).unwrap();
        tree.attach(NodeId(0), NodeId(2)).unwrap();
        tree.attach(NodeId(1), NodeId(3)).unwrap();
        tree.attach(NodeId(1), NodeId(4)).unwrap();
        tree
    }

    #[test]
    fn leaf_refinement_improves_figure1() {
        let (set, net) = figure1();
        let tree = figure1a_tree();
        assert_eq!(reception_completion(&tree, &set, net).unwrap().raw(), 10);
        let refined = refine_leaves(&tree, &set, net).unwrap();
        // The slow leaf now takes the earliest leaf slot (the source's second
        // transmission, delivery time 5), giving completion 8.
        let r = reception_completion(&refined, &set, net).unwrap();
        assert_eq!(r.raw(), 8);
    }

    #[test]
    fn refinement_never_increases_completion() {
        let (set, net) = figure1();
        // Try several hand-built schedules.
        let trees = vec![
            figure1a_tree(),
            {
                let mut t = ScheduleTree::new(5);
                for i in 1..=4 {
                    t.attach(NodeId(0), NodeId(i)).unwrap();
                }
                t
            },
            {
                let mut t = ScheduleTree::new(5);
                t.attach(NodeId(0), NodeId(4)).unwrap();
                t.attach(NodeId(0), NodeId(1)).unwrap();
                t.attach(NodeId(4), NodeId(2)).unwrap();
                t.attach(NodeId(1), NodeId(3)).unwrap();
                t
            },
        ];
        for tree in trees {
            let before = reception_completion(&tree, &set, net).unwrap();
            let refined = refine_leaves(&tree, &set, net).unwrap();
            let after = reception_completion(&refined, &set, net).unwrap();
            assert!(
                after <= before,
                "refinement must not hurt: {after} > {before}"
            );
        }
    }

    #[test]
    fn refinement_preserves_internal_structure() {
        let (set, net) = figure1();
        let tree = figure1a_tree();
        let refined = refine_leaves(&tree, &set, net).unwrap();
        // Node 1 is internal; it must keep its parent and rank.
        assert_eq!(refined.parent(NodeId(1)), Some(NodeId(0)));
        assert_eq!(refined.child_rank(NodeId(1)), Some(1));
        // The leaf set is unchanged.
        let mut before: Vec<_> = tree.leaves();
        let mut after: Vec<_> = refined.leaves();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
        assert!(refined.is_complete());
    }

    #[test]
    fn refinement_is_idempotent() {
        let (set, net) = figure1();
        let refined = refine_leaves(&figure1a_tree(), &set, net).unwrap();
        let twice = refine_leaves(&refined, &set, net).unwrap();
        assert_eq!(
            reception_completion(&refined, &set, net).unwrap(),
            reception_completion(&twice, &set, net).unwrap()
        );
    }

    #[test]
    fn homogeneous_refinement_is_neutral() {
        let set = MulticastSet::homogeneous(NodeSpec::new(2, 2), 6);
        let net = NetParams::new(1);
        let mut tree = ScheduleTree::new(7);
        for i in 1..=6 {
            tree.attach(NodeId((i - 1) / 2), NodeId(i)).unwrap();
        }
        let before = reception_completion(&tree, &set, net).unwrap();
        let refined = refine_leaves(&tree, &set, net).unwrap();
        assert_eq!(reception_completion(&refined, &set, net).unwrap(), before);
    }
}
