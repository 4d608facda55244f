//! Repairer placement for reliable multicast under message loss.
//!
//! When deliveries can be lost (the simulator's fault model), every tree
//! node needs a designated **repairer**: the upstream node that answers its
//! NACKs with retransmissions. Placement matters the same way gateway
//! placement matters for cross-shard makespan (cf. *Reducing the Makespan
//! in Hierarchical Reliable Multicast Tree*, Byun): repairs charged to one
//! node serialize on its one-port occupancy, while repairs spread over the
//! tree run in parallel and stay close to the losses.
//!
//! A [`RepairPlacement`] policy annotates a [`ScheduleTree`], or a tree
//! given as child lists, with one repairer per node
//! ([`RepairPlacement::assign`], [`RepairPlacement::assign_lists`]), and a
//! stitched cross-shard tree per shard block, the way gateways are
//! designated ([`RepairPlacement::assign_stitched`]; its from-scratch
//! reference over a [`compose`](super::compose::compose)d schedule is
//! [`RepairPlacement::assign_composed`]). Every
//! policy yields an *acyclic* assignment that walks strictly upstream:
//! following `repairer[v]` repeatedly always terminates at the source,
//! which holds the payload from time zero, so repair-request escalation
//! (past failed repairers) can never cycle or deadlock.

use super::compose::ComposedSchedule;
use super::tree::ScheduleTree;
use hnow_model::NodeSpec;
use serde::{Deserialize, Serialize};

/// Who retransmits to a receiver that missed its delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairPlacement {
    /// The source answers every NACK — the centralized baseline. All repair
    /// traffic serializes on the source's one-port send occupancy.
    SourceOnly,
    /// Each node is repaired by the root of its top-level subtree (the
    /// ancestor that is a direct child of the source); direct children of
    /// the source are repaired by the source. Repair load distributes over
    /// the source's children, mirroring how shards designate gateways.
    SubtreeRoot,
    /// Each node is repaired by the fastest of its proper ancestors
    /// ([`NodeSpec::speed_cmp`], ties by lowest tree id) — local repair
    /// biased toward capable workstations on the upstream path.
    FastestInSubtree,
    /// Cross-shard placement: each node is repaired by its shard subtree's
    /// gateway, and gateways by the source
    /// ([`RepairPlacement::assign_composed`]). On a flat (non-composed)
    /// tree this degrades to [`RepairPlacement::SubtreeRoot`].
    Gateway,
}

/// All policy names accepted by [`RepairPlacement::from_name`].
pub const REPAIR_PLACEMENTS: [&str; 4] = [
    "source-only",
    "subtree-root",
    "fastest-in-subtree",
    "gateway",
];

impl RepairPlacement {
    /// The policy's registry name.
    pub fn name(&self) -> &'static str {
        match self {
            RepairPlacement::SourceOnly => "source-only",
            RepairPlacement::SubtreeRoot => "subtree-root",
            RepairPlacement::FastestInSubtree => "fastest-in-subtree",
            RepairPlacement::Gateway => "gateway",
        }
    }

    /// Looks a policy up by its registry name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "source-only" => Some(RepairPlacement::SourceOnly),
            "subtree-root" => Some(RepairPlacement::SubtreeRoot),
            "fastest-in-subtree" => Some(RepairPlacement::FastestInSubtree),
            "gateway" => Some(RepairPlacement::Gateway),
            _ => None,
        }
    }

    /// Assigns one repairer per tree node (`result[v]` is the tree id of
    /// `v`'s repairer; the source repairs itself: `result[0] == 0`).
    ///
    /// `specs` are the per-node overheads (tree-id indexed, source first)
    /// and are only consulted by [`RepairPlacement::FastestInSubtree`];
    /// they must cover every tree node. The tree must be complete (every
    /// node attached).
    pub fn assign(&self, tree: &ScheduleTree, specs: &[NodeSpec]) -> Vec<usize> {
        debug_assert!(tree.is_complete(), "repairers need an attached tree");
        debug_assert!(specs.len() >= tree.num_nodes());
        let edges = tree
            .bfs()
            .into_iter()
            .filter_map(|v| Some((tree.parent(v)?.index(), v.index())));
        self.assign_edges(tree.num_nodes(), edges, |v| specs[v])
    }

    /// [`RepairPlacement::assign`] over a tree given as child lists:
    /// `children[v]` holds node `v`'s children, node 0 is the source, and
    /// `spec(v)` is node `v`'s overheads.
    pub fn assign_lists(
        &self,
        children: &[Vec<usize>],
        spec: impl Fn(usize) -> NodeSpec,
    ) -> Vec<usize> {
        // Breadth-first, so every parent is visited before its children.
        let mut order = vec![0];
        let mut next = 0;
        while let Some(&v) = order.get(next) {
            order.extend_from_slice(&children[v]);
            next += 1;
        }
        let edges = order
            .iter()
            .flat_map(|&parent| children[parent].iter().map(move |&child| (parent, child)));
        self.assign_edges(children.len(), edges, spec)
    }

    /// The placement rules over a tree's `(parent, child)` edges, listed
    /// parents first.
    fn assign_edges(
        &self,
        n: usize,
        edges: impl Iterator<Item = (usize, usize)>,
        spec: impl Fn(usize) -> NodeSpec,
    ) -> Vec<usize> {
        let mut repairer = vec![0usize; n];
        match self {
            RepairPlacement::SourceOnly => {}
            RepairPlacement::SubtreeRoot | RepairPlacement::Gateway => {
                // A node's repairer is its top-level ancestor (the source's
                // child on its path). Only those children are repaired by
                // the source, so a parent repaired by 0 is top-level.
                for (parent, child) in edges {
                    repairer[child] = match (parent, repairer[parent]) {
                        (0, _) => 0,
                        (_, 0) => parent,
                        (_, top) => top,
                    };
                }
            }
            RepairPlacement::FastestInSubtree => {
                // `best[v]` = fastest node on the path source..=v; a node's
                // repairer is the best over its *proper* ancestors.
                let mut best = vec![0usize; n];
                for (parent, child) in edges {
                    let b = best[parent];
                    repairer[child] = b;
                    best[child] = if spec(child).speed_cmp(&spec(b)).then(child.cmp(&b)).is_lt() {
                        child
                    } else {
                        b
                    };
                }
            }
        }
        repairer
    }

    /// Assigns repairers on a stitched cross-shard schedule: every node of
    /// shard subtree `i` is repaired by that subtree's gateway
    /// (`composed.maps[i][0]`), and gateways (plus the home subtree, whose
    /// gateway *is* the source) by the source. Non-[`Gateway`] policies
    /// ignore the composition and assign over the composed tree directly.
    ///
    /// The from-scratch reference of [`RepairPlacement::assign_stitched`].
    ///
    /// [`Gateway`]: RepairPlacement::Gateway
    pub fn assign_composed(&self, composed: &ComposedSchedule) -> Vec<usize> {
        if *self != RepairPlacement::Gateway {
            return self.assign(&composed.tree, &composed.specs);
        }
        let mut repairer = vec![0usize; composed.tree.num_nodes()];
        for map in &composed.maps {
            let gateway = map[0].index();
            for &composed_id in &map[1..] {
                repairer[composed_id.index()] = gateway;
            }
            // Gateways fall back to the source (repairer[gateway] stays 0).
        }
        repairer
    }

    /// [`RepairPlacement::assign_composed`] over a stitched tree given as
    /// child lists (see [`RepairPlacement::assign_lists`]) numbered
    /// blockwise as [`compose`](super::compose::compose) numbers it: shard
    /// subtree `i` occupies `offsets[i]..offsets[i + 1]`, its gateway
    /// first, and the last offset is the node count. Under [`Gateway`]
    /// every node of a block is repaired by the block's gateway, and
    /// gateways by the source.
    ///
    /// [`Gateway`]: RepairPlacement::Gateway
    pub fn assign_stitched(
        &self,
        children: &[Vec<usize>],
        offsets: &[usize],
        spec: impl Fn(usize) -> NodeSpec,
    ) -> Vec<usize> {
        debug_assert_eq!(offsets.last(), Some(&children.len()));
        if *self != RepairPlacement::Gateway {
            return self.assign_lists(children, spec);
        }
        let mut repairer = vec![0usize; children.len()];
        for block in offsets.windows(2) {
            repairer[block[0] + 1..block[1]].fill(block[0]);
        }
        repairer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::compose::compose;
    use hnow_model::{NetParams, NodeId};

    /// 0 -> {1, 4}; 1 -> {2, 3}; 4 -> {5}; 5 -> {6}.
    fn deep_tree() -> ScheduleTree {
        ScheduleTree::from_child_lists(vec![
            vec![NodeId(1), NodeId(4)],
            vec![NodeId(2), NodeId(3)],
            vec![],
            vec![],
            vec![NodeId(5)],
            vec![NodeId(6)],
            vec![],
        ])
        .unwrap()
    }

    fn specs(n: usize) -> Vec<NodeSpec> {
        (0..n).map(|i| NodeSpec::new(2 + i as u64, 3)).collect()
    }

    #[test]
    fn names_round_trip() {
        for name in REPAIR_PLACEMENTS {
            let policy = RepairPlacement::from_name(name).unwrap();
            assert_eq!(policy.name(), name);
        }
        assert_eq!(RepairPlacement::from_name("nope"), None);
    }

    #[test]
    fn source_only_points_everything_at_the_source() {
        let tree = deep_tree();
        let repairer = RepairPlacement::SourceOnly.assign(&tree, &specs(7));
        assert_eq!(repairer, vec![0; 7]);
    }

    #[test]
    fn subtree_root_uses_depth_one_ancestors() {
        let tree = deep_tree();
        let repairer = RepairPlacement::SubtreeRoot.assign(&tree, &specs(7));
        assert_eq!(repairer, vec![0, 0, 1, 1, 0, 4, 4]);
    }

    #[test]
    fn fastest_in_subtree_picks_the_best_proper_ancestor() {
        let tree = deep_tree();
        // Node 5 is the fastest overall but is below 4; node 6's ancestors
        // are {0, 4, 5}.
        let mut s = specs(7);
        s[5] = NodeSpec::new(1, 1);
        let repairer = RepairPlacement::FastestInSubtree.assign(&tree, &s);
        // Ancestor speeds: 0 is fastest among {0}, {0,1}, {0,4}; 5 wins for 6.
        assert_eq!(repairer, vec![0, 0, 0, 0, 0, 0, 5]);
    }

    #[test]
    fn every_policy_is_acyclic_and_upstream_terminating() {
        let tree = deep_tree();
        let s = specs(7);
        for policy in [
            RepairPlacement::SourceOnly,
            RepairPlacement::SubtreeRoot,
            RepairPlacement::FastestInSubtree,
            RepairPlacement::Gateway,
        ] {
            let repairer = policy.assign(&tree, &s);
            assert_eq!(repairer[0], 0, "{}: source repairs itself", policy.name());
            for v in 1..7 {
                // The repairer must be a proper ancestor: walking repairers
                // strictly decreases depth and reaches the source.
                let mut cur = v;
                let mut steps = 0;
                while cur != 0 {
                    let up = repairer[cur];
                    assert!(
                        tree.is_ancestor(NodeId(up), NodeId(cur)),
                        "{}: repairer {up} of {cur} is not an ancestor",
                        policy.name()
                    );
                    cur = up;
                    steps += 1;
                    assert!(steps <= 7, "{}: repairer cycle at {v}", policy.name());
                }
            }
        }
    }

    #[test]
    fn gateway_policy_repairs_through_composed_gateways() {
        // Gateway tree 0 -> 1; home subtree {0 -> a}; remote subtree
        // rooted at the gateway {1 -> b, c}.
        let gateway_tree = ScheduleTree::from_child_lists(vec![vec![NodeId(1)], vec![]]).unwrap();
        let home = ScheduleTree::from_child_lists(vec![vec![NodeId(1)], vec![]]).unwrap();
        let remote =
            ScheduleTree::from_child_lists(vec![vec![NodeId(1), NodeId(2)], vec![], vec![]])
                .unwrap();
        let home_specs = vec![NodeSpec::new(2, 3), NodeSpec::new(2, 3)];
        let remote_specs = vec![
            NodeSpec::new(4, 5),
            NodeSpec::new(4, 5),
            NodeSpec::new(4, 5),
        ];
        let composed = compose(
            &gateway_tree,
            &[(&home, &home_specs), (&remote, &remote_specs)],
            NetParams::new(1),
        )
        .unwrap();
        let repairer = RepairPlacement::Gateway.assign_composed(&composed);
        let gw = composed.maps[1][0].index();
        assert_eq!(repairer[0], 0);
        assert_eq!(repairer[gw], 0, "gateways are repaired by the source");
        for &member in &composed.maps[1][1..] {
            assert_eq!(repairer[member.index()], gw);
        }
        for &member in &composed.maps[0][1..] {
            assert_eq!(repairer[member.index()], 0);
        }
        // Non-gateway policies see the composed tree as a flat tree.
        let flat = RepairPlacement::SubtreeRoot.assign_composed(&composed);
        assert_eq!(flat.len(), composed.tree.num_nodes());
    }

    /// Every policy, in registry order.
    const POLICIES: [RepairPlacement; 4] = [
        RepairPlacement::SourceOnly,
        RepairPlacement::SubtreeRoot,
        RepairPlacement::FastestInSubtree,
        RepairPlacement::Gateway,
    ];

    /// A tree's child lists as plain indices.
    fn lists(tree: &ScheduleTree) -> Vec<Vec<usize>> {
        (0..tree.num_nodes())
            .map(|v| tree.children(NodeId(v)).iter().map(|c| c.index()).collect())
            .collect()
    }

    #[test]
    fn child_lists_assign_as_the_tree_does() {
        let tree = deep_tree();
        let mut s = specs(7);
        s[5] = NodeSpec::new(1, 1);
        for policy in POLICIES {
            assert_eq!(
                policy.assign_lists(&lists(&tree), |v| s[v]),
                policy.assign(&tree, &s),
                "{}",
                policy.name()
            );
        }
    }

    #[test]
    fn stitched_lists_assign_as_the_composed_schedule_does() {
        // Gateway tree 0 -> 1 -> 2; the home block serves two members, the
        // middle one none, the last one a chain of two.
        let gateway_tree =
            ScheduleTree::from_child_lists(vec![vec![NodeId(1)], vec![NodeId(2)], vec![]]).unwrap();
        let home = ScheduleTree::from_child_lists(vec![vec![NodeId(1), NodeId(2)], vec![], vec![]])
            .unwrap();
        let single = ScheduleTree::new(1);
        let chain =
            ScheduleTree::from_child_lists(vec![vec![NodeId(1)], vec![NodeId(2)], vec![]]).unwrap();
        let all = specs(7);
        let composed = compose(
            &gateway_tree,
            &[
                (&home, &all[..3]),
                (&single, &all[3..4]),
                (&chain, &all[4..]),
            ],
            NetParams::new(1),
        )
        .unwrap();
        let offsets = [0, 3, 4, 7];
        for policy in POLICIES {
            assert_eq!(
                policy.assign_stitched(&lists(&composed.tree), &offsets, |v| composed.specs[v]),
                policy.assign_composed(&composed),
                "{}",
                policy.name()
            );
        }
    }
}
