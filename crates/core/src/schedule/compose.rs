//! Hierarchical schedule composition: grafting per-shard subtrees onto a
//! gateway tree.
//!
//! A sharded multicast service plans a session that spans several shards in
//! two levels (cf. hierarchical reliable multicast, where local subtrees
//! hang off designated relay nodes):
//!
//! 1. a **gateway tree** over one designated gateway node per touched shard
//!    (the source is the home shard's gateway), planned like any small
//!    multicast over the gateway class vector, and
//! 2. one **per-shard subtree** rooted at each gateway, covering that
//!    shard's members.
//!
//! [`compose`] stitches these into a single flat [`ScheduleTree`] whose
//! timing is then re-evaluated from scratch
//! ([`evaluate_with_specs`]), so the stitched analytic
//! `R_T`/`D_T` obeys the ordinary receive-send occupancy semantics: each
//! gateway first forwards to its child gateways (keeping the cross-shard
//! critical path short), then serves its own shard's subtree, all back to
//! back on its single port.
//!
//! The session pipeline in `hnow-sim` does not call [`compose`]: it
//! stitches each cross-shard session from its cached plans, shifting every
//! subtree by its block offset in node ids and by its gateway's reception
//! plus gateway-tree sends in time. [`compose`], with
//! [`RepairPlacement::assign_composed`](crate::RepairPlacement::assign_composed),
//! is the from-scratch reference its differential test checks the stitch
//! against.

use crate::error::CoreError;
use crate::schedule::times::{evaluate_with_specs, ScheduleTiming};
use crate::schedule::tree::ScheduleTree;
use hnow_model::{NetParams, NodeId, NodeSpec};

/// The result of grafting per-shard subtrees onto a gateway tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposedSchedule {
    /// The stitched flat schedule over all participants. Node 0 is the
    /// source (the root of subtree 0); every other participant appears
    /// exactly once.
    pub tree: ScheduleTree,
    /// Per-node overheads of the stitched tree, indexed by composed id.
    pub specs: Vec<NodeSpec>,
    /// Timing of the stitched tree, re-evaluated from scratch.
    pub timing: ScheduleTiming,
    /// `maps[i][l]` is the composed id of subtree `i`'s local node `l` (so
    /// `maps[i][0]` is gateway `i`'s composed id). Callers use this to bind
    /// composed ids back to concrete cluster nodes.
    pub maps: Vec<Vec<NodeId>>,
}

/// Grafts one complete subtree per gateway-tree node onto the gateway tree
/// and re-evaluates the stitched timing.
///
/// `gateway` is a complete schedule over `g` gateways (node `i` of the
/// gateway tree is gateway `i`); `subtrees[i]` is gateway `i`'s shard-local
/// schedule — a complete tree whose node 0 *is* gateway `i` — paired with
/// its per-node overheads. A shard whose gateway has nothing local to serve
/// contributes a trivial one-node subtree.
///
/// In the stitched tree, gateway `i` transmits to its gateway-tree children
/// first (in gateway-tree order) and to its subtree children after (in
/// subtree order); all other nodes keep their subtree child lists. The
/// returned timing is recomputed from the stitched tree alone, so it is
/// valid under the occupancy constraint by construction — no timing from
/// the input plans is trusted.
///
/// # Errors
///
/// * [`CoreError::SizeMismatch`] if the gateway tree and subtree count
///   disagree, or a subtree disagrees with its spec vector.
/// * [`CoreError::IncompleteSchedule`] if the gateway tree or any subtree is
///   incomplete.
pub fn compose(
    gateway: &ScheduleTree,
    subtrees: &[(&ScheduleTree, &[NodeSpec])],
    net: NetParams,
) -> Result<ComposedSchedule, CoreError> {
    if gateway.num_nodes() != subtrees.len() {
        return Err(CoreError::SizeMismatch {
            tree_nodes: gateway.num_nodes(),
            set_nodes: subtrees.len(),
        });
    }
    if !gateway.is_complete() {
        return Err(CoreError::IncompleteSchedule {
            missing: gateway.num_unattached(),
        });
    }
    for (tree, specs) in subtrees {
        if tree.num_nodes() != specs.len() {
            return Err(CoreError::SizeMismatch {
                tree_nodes: tree.num_nodes(),
                set_nodes: specs.len(),
            });
        }
        if !tree.is_complete() {
            return Err(CoreError::IncompleteSchedule {
                missing: tree.num_unattached(),
            });
        }
    }

    // Composed ids are blockwise: subtree i occupies the contiguous range
    // [offset_i, offset_i + |subtree i|), its root (gateway i) first. The
    // source is subtree 0's root, so composed id 0 is the source.
    let total: usize = subtrees.iter().map(|(t, _)| t.num_nodes()).sum();
    let mut maps = Vec::with_capacity(subtrees.len());
    let mut specs = Vec::with_capacity(total);
    let mut offset = 0usize;
    for (tree, sub_specs) in subtrees {
        maps.push((0..tree.num_nodes()).map(|l| NodeId(offset + l)).collect());
        specs.extend_from_slice(sub_specs);
        offset += tree.num_nodes();
    }
    let maps: Vec<Vec<NodeId>> = maps;

    let mut child_lists: Vec<Vec<NodeId>> = vec![Vec::new(); total];
    for (i, (tree, _)) in subtrees.iter().enumerate() {
        let map = &maps[i];
        // Gateway i sends to its child gateways first…
        child_lists[map[0].index()] = gateway
            .children(NodeId(i))
            .iter()
            .map(|&c| maps[c.index()][0])
            .collect();
        // …then to its shard subtree, and interior nodes keep their lists.
        for l in 0..tree.num_nodes() {
            let composed = map[l].index();
            child_lists[composed].extend(tree.children(NodeId(l)).iter().map(|&c| map[c.index()]));
        }
    }
    let tree = ScheduleTree::from_child_lists(child_lists)?;
    let timing = evaluate_with_specs(&tree, &specs, net)?;
    Ok(ComposedSchedule {
        tree,
        specs,
        timing,
        maps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnow_model::Time;

    /// Two-shard fixture: the source (slow, (2,3)) forwards to one remote
    /// gateway (fast, (1,1)); each gateway serves one local destination.
    fn fixture() -> (ScheduleTree, Vec<(ScheduleTree, Vec<NodeSpec>)>) {
        let mut gateway = ScheduleTree::new(2);
        gateway.attach(NodeId(0), NodeId(1)).unwrap();

        let mut home = ScheduleTree::new(2);
        home.attach(NodeId(0), NodeId(1)).unwrap();
        let home_specs = vec![NodeSpec::new(2, 3), NodeSpec::new(2, 3)];

        let mut remote = ScheduleTree::new(2);
        remote.attach(NodeId(0), NodeId(1)).unwrap();
        let remote_specs = vec![NodeSpec::new(1, 1), NodeSpec::new(1, 1)];

        (gateway, vec![(home, home_specs), (remote, remote_specs)])
    }

    #[test]
    fn stitched_timing_matches_hand_computation() {
        let (gateway, subs) = fixture();
        let subtrees: Vec<(&ScheduleTree, &[NodeSpec])> =
            subs.iter().map(|(t, s)| (t, s.as_slice())).collect();
        let composed = compose(&gateway, &subtrees, NetParams::new(1)).unwrap();
        assert_eq!(composed.tree.num_nodes(), 4);
        assert!(composed.tree.is_complete());
        // Composed ids: 0 = source, 1 = home member, 2 = remote gateway,
        // 3 = remote member.
        assert_eq!(composed.maps[0], vec![NodeId(0), NodeId(1)]);
        assert_eq!(composed.maps[1], vec![NodeId(2), NodeId(3)]);
        // Source sends gateway-first: children [2, 1].
        assert_eq!(composed.tree.children(NodeId(0)), &[NodeId(2), NodeId(1)]);
        // Remote gateway: delivered at o_send(src) + L = 3, received at 4.
        assert_eq!(composed.timing.reception(NodeId(2)), Time::new(4));
        // Home member is the source's *second* send: 2*2 + 1 + 3 = 8.
        assert_eq!(composed.timing.reception(NodeId(1)), Time::new(8));
        // Remote member: 4 + 1 + 1 + 1 = 7.
        assert_eq!(composed.timing.reception(NodeId(3)), Time::new(7));
        assert_eq!(composed.timing.reception_completion(), Time::new(8));
        // Specs follow the composition order.
        assert_eq!(composed.specs[2], NodeSpec::new(1, 1));
    }

    #[test]
    fn trivial_subtrees_graft_cleanly() {
        // Three shards, the remote two with no local members: the composed
        // schedule is exactly the gateway tree.
        let mut gateway = ScheduleTree::new(3);
        gateway.attach(NodeId(0), NodeId(1)).unwrap();
        gateway.attach(NodeId(1), NodeId(2)).unwrap();
        let spec = NodeSpec::new(1, 2);
        let singles: Vec<(ScheduleTree, Vec<NodeSpec>)> =
            (0..3).map(|_| (ScheduleTree::new(1), vec![spec])).collect();
        let subtrees: Vec<(&ScheduleTree, &[NodeSpec])> =
            singles.iter().map(|(t, s)| (t, s.as_slice())).collect();
        let composed = compose(&gateway, &subtrees, NetParams::new(2)).unwrap();
        assert_eq!(composed.tree.num_nodes(), 3);
        assert_eq!(composed.tree.children(NodeId(0)), &[NodeId(1)]);
        assert_eq!(composed.tree.children(NodeId(1)), &[NodeId(2)]);
        // Chain: recv at 1+2+2 = 5, then 5+1+2+2 = 10.
        assert_eq!(composed.timing.reception_completion(), Time::new(10));
    }

    #[test]
    fn composition_errors_are_reported() {
        let (gateway, subs) = fixture();
        let subtrees: Vec<(&ScheduleTree, &[NodeSpec])> =
            subs.iter().map(|(t, s)| (t, s.as_slice())).collect();
        // Wrong subtree count.
        assert!(matches!(
            compose(&gateway, &subtrees[..1], NetParams::new(1)),
            Err(CoreError::SizeMismatch { .. })
        ));
        // Incomplete gateway tree.
        let detached = ScheduleTree::new(2);
        assert!(matches!(
            compose(&detached, &subtrees, NetParams::new(1)),
            Err(CoreError::IncompleteSchedule { .. })
        ));
        // Incomplete subtree.
        let holey = ScheduleTree::new(2);
        let holey_specs = vec![NodeSpec::new(1, 1), NodeSpec::new(1, 1)];
        let bad: Vec<(&ScheduleTree, &[NodeSpec])> =
            vec![subtrees[0], (&holey, holey_specs.as_slice())];
        assert!(matches!(
            compose(&gateway, &bad, NetParams::new(1)),
            Err(CoreError::IncompleteSchedule { .. })
        ));
        // Spec vector of the wrong length.
        let short: Vec<(&ScheduleTree, &[NodeSpec])> =
            vec![subtrees[0], (subtrees[1].0, &subtrees[1].1[..1])];
        assert!(matches!(
            compose(&gateway, &short, NetParams::new(1)),
            Err(CoreError::SizeMismatch { .. })
        ));
    }
}
