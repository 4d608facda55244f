//! Delivery and reception time evaluation.
//!
//! Given a complete [`ScheduleTree`], a [`MulticastSet`] and the network
//! parameters, this module computes the quantities defined in Section 2 of
//! the paper:
//!
//! * the **delivery time** `d_T(v)` of every destination — the instant the
//!   message arrives at `v` (the `i`-th child of `p` is delivered at
//!   `r_T(p) + i·o_send(p) + L`),
//! * the **reception time** `r_T(v) = d_T(v) + o_recv(v)` — the instant `v`
//!   has finished incurring its receiving overhead and may begin forwarding,
//! * the **delivery completion time** `D_T = max_v d_T(v)` and the
//!   **reception completion time** `R_T = max_v r_T(v)`, the paper's
//!   optimisation objective.

use crate::error::CoreError;
use crate::schedule::tree::ScheduleTree;
use hnow_model::{MulticastSet, NetParams, NodeId, NodeSpec, Time};
use serde::{Deserialize, Serialize};

/// Evaluated timing of a complete multicast schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleTiming {
    /// `delivery[v]` = `d_T(v)`; the source's entry is 0 by convention (it
    /// holds the message from the start).
    delivery: Vec<Time>,
    /// `reception[v]` = `r_T(v)`; the source's entry is 0.
    reception: Vec<Time>,
    /// `D_T`: maximum delivery time over the destinations (0 when there are
    /// no destinations).
    delivery_completion: Time,
    /// `R_T`: maximum reception time over the destinations.
    reception_completion: Time,
}

impl ScheduleTiming {
    /// Delivery time of a node (`Time::ZERO` for the source).
    #[inline]
    pub fn delivery(&self, v: NodeId) -> Time {
        self.delivery[v.index()]
    }

    /// Reception time of a node (`Time::ZERO` for the source).
    #[inline]
    pub fn reception(&self, v: NodeId) -> Time {
        self.reception[v.index()]
    }

    /// The delivery completion time `D_T`.
    #[inline]
    pub fn delivery_completion(&self) -> Time {
        self.delivery_completion
    }

    /// The reception completion time `R_T` — the multicast latency the paper
    /// minimises.
    #[inline]
    pub fn reception_completion(&self) -> Time {
        self.reception_completion
    }

    /// All delivery times, indexed by node id.
    #[inline]
    pub fn deliveries(&self) -> &[Time] {
        &self.delivery
    }

    /// All reception times, indexed by node id.
    #[inline]
    pub fn receptions(&self) -> &[Time] {
        &self.reception
    }
}

/// Evaluates the timing of a complete schedule.
///
/// # Errors
///
/// * [`CoreError::SizeMismatch`] if the tree and the multicast set disagree
///   on the number of participants.
/// * [`CoreError::IncompleteSchedule`] if some destination is not attached.
pub fn evaluate(
    tree: &ScheduleTree,
    set: &MulticastSet,
    net: NetParams,
) -> Result<ScheduleTiming, CoreError> {
    if tree.num_nodes() != set.num_nodes() {
        return Err(CoreError::SizeMismatch {
            tree_nodes: tree.num_nodes(),
            set_nodes: set.num_nodes(),
        });
    }
    let specs: Vec<NodeSpec> = (0..set.num_nodes()).map(|i| set.spec(NodeId(i))).collect();
    evaluate_with_specs(tree, &specs, net)
}

/// Evaluates the timing of a complete schedule with explicit per-node
/// overheads, `specs[v]` being node `v`'s overheads.
///
/// This is the id-order-agnostic core of [`evaluate`]: a [`MulticastSet`]
/// fixes the canonical speed-sorted numbering, whereas composed schedules
/// (gateway trees with grafted per-shard subtrees, see
/// [`compose`](crate::schedule::compose::compose)) number nodes by
/// composition order. The spec vector carries whatever numbering the tree
/// uses.
///
/// # Errors
///
/// * [`CoreError::SizeMismatch`] if `specs` and the tree disagree on the
///   number of participants.
/// * [`CoreError::IncompleteSchedule`] if some destination is not attached.
pub fn evaluate_with_specs(
    tree: &ScheduleTree,
    specs: &[NodeSpec],
    net: NetParams,
) -> Result<ScheduleTiming, CoreError> {
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
    let n = tree.num_nodes();
    let mut delivery = vec![Time::ZERO; n];
    let mut reception = vec![Time::ZERO; n];
    // BFS guarantees parents are timed before children.
    for v in tree.bfs() {
        let spec = specs[v.index()];
        let r_v = reception[v.index()];
        for (i, &child) in tree.children(v).iter().enumerate() {
            let rank = (i + 1) as u64;
            let d = r_v + rank * spec.send() + net.latency();
            delivery[child.index()] = d;
            reception[child.index()] = d + specs[child.index()].recv();
        }
    }
    let delivery_completion = delivery[1..].iter().copied().max().unwrap_or(Time::ZERO);
    let reception_completion = reception[1..].iter().copied().max().unwrap_or(Time::ZERO);
    Ok(ScheduleTiming {
        delivery,
        reception,
        delivery_completion,
        reception_completion,
    })
}

/// Convenience: evaluates a schedule and returns only `R_T`.
pub fn reception_completion(
    tree: &ScheduleTree,
    set: &MulticastSet,
    net: NetParams,
) -> Result<Time, CoreError> {
    Ok(evaluate(tree, set, net)?.reception_completion())
}

/// Convenience: evaluates a schedule and returns only `D_T`.
pub fn delivery_completion(
    tree: &ScheduleTree,
    set: &MulticastSet,
    net: NetParams,
) -> Result<Time, CoreError> {
    Ok(evaluate(tree, set, net)?.delivery_completion())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnow_model::NodeSpec;

    /// The Figure 1(a) schedule: a slow source sends to two fast nodes; the
    /// first fast node forwards to the remaining fast node and then to the
    /// slow destination. Completion time 10.
    fn figure1a() -> (ScheduleTree, MulticastSet, NetParams) {
        let slow = NodeSpec::new(2, 3);
        let fast = NodeSpec::new(1, 1);
        // Canonical order: destinations 1..=3 fast, 4 slow.
        let set = MulticastSet::new(slow, vec![fast, fast, fast, slow]).unwrap();
        let mut tree = ScheduleTree::new(5);
        tree.attach(NodeId(0), NodeId(1)).unwrap(); // source -> fast (first)
        tree.attach(NodeId(0), NodeId(2)).unwrap(); // source -> fast (second)
        tree.attach(NodeId(1), NodeId(3)).unwrap(); // fast -> fast
        tree.attach(NodeId(1), NodeId(4)).unwrap(); // fast -> slow
        (tree, set, NetParams::new(1))
    }

    #[test]
    fn figure1a_times_match_paper() {
        let (tree, set, net) = figure1a();
        let t = evaluate(&tree, &set, net).unwrap();
        // First fast node: delivered at o_send(src)+L = 3, received at 4.
        assert_eq!(t.delivery(NodeId(1)), Time::new(3));
        assert_eq!(t.reception(NodeId(1)), Time::new(4));
        // Second fast node from the source: delivered 2*2+1 = 5, received 6.
        assert_eq!(t.reception(NodeId(2)), Time::new(6));
        // Fast child of node 1: 4 + 1 + 1 + 1 = 7.
        assert_eq!(t.reception(NodeId(3)), Time::new(7));
        // Slow child of node 1: 4 + 2 + 1 + 3 = 10.
        assert_eq!(t.reception(NodeId(4)), Time::new(10));
        assert_eq!(t.reception_completion(), Time::new(10));
        assert_eq!(t.delivery_completion(), Time::new(7));
    }

    #[test]
    fn figure1b_completes_at_nine() {
        // Same tree but node 1 sends to the slow node first: the paper's
        // improved schedule completing at time 9.
        let (mut tree, set, net) = figure1a();
        tree.reorder_children(NodeId(1), vec![NodeId(4), NodeId(3)])
            .unwrap();
        let t = evaluate(&tree, &set, net).unwrap();
        assert_eq!(t.reception(NodeId(4)), Time::new(9)); // 4+1+1+3
        assert_eq!(t.reception(NodeId(3)), Time::new(8)); // 4+2+1+1
        assert_eq!(t.reception_completion(), Time::new(9));
    }

    #[test]
    fn star_schedule_times() {
        // Source sends to every destination directly ("separate addressing").
        let set = MulticastSet::new(
            NodeSpec::new(2, 2),
            vec![
                NodeSpec::new(1, 1),
                NodeSpec::new(1, 1),
                NodeSpec::new(3, 4),
            ],
        )
        .unwrap();
        let net = NetParams::new(5);
        let mut tree = ScheduleTree::new(4);
        for i in 1..=3 {
            tree.attach(NodeId(0), NodeId(i)).unwrap();
        }
        let t = evaluate(&tree, &set, net).unwrap();
        // i-th child delivered at i*2 + 5.
        assert_eq!(t.delivery(NodeId(1)), Time::new(7));
        assert_eq!(t.delivery(NodeId(2)), Time::new(9));
        assert_eq!(t.delivery(NodeId(3)), Time::new(11));
        assert_eq!(t.reception(NodeId(3)), Time::new(15));
        assert_eq!(t.reception_completion(), Time::new(15));
        assert_eq!(t.delivery_completion(), Time::new(11));
    }

    #[test]
    fn trivial_multicast_has_zero_completion() {
        let set = MulticastSet::new(NodeSpec::new(2, 2), vec![]).unwrap();
        let tree = ScheduleTree::new(1);
        let t = evaluate(&tree, &set, NetParams::new(1)).unwrap();
        assert_eq!(t.reception_completion(), Time::ZERO);
        assert_eq!(t.delivery_completion(), Time::ZERO);
    }

    #[test]
    fn errors_on_incomplete_or_mismatched() {
        let set = MulticastSet::new(NodeSpec::new(1, 1), vec![NodeSpec::new(1, 1)]).unwrap();
        let tree = ScheduleTree::new(2);
        assert!(matches!(
            evaluate(&tree, &set, NetParams::new(1)),
            Err(CoreError::IncompleteSchedule { missing: 1 })
        ));
        let tree3 = ScheduleTree::new(3);
        assert!(matches!(
            evaluate(&tree3, &set, NetParams::new(1)),
            Err(CoreError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn evaluate_with_specs_matches_set_evaluation() {
        let (tree, set, net) = figure1a();
        let specs: Vec<NodeSpec> = (0..set.num_nodes()).map(|i| set.spec(NodeId(i))).collect();
        let via_set = evaluate(&tree, &set, net).unwrap();
        let via_specs = evaluate_with_specs(&tree, &specs, net).unwrap();
        assert_eq!(via_set, via_specs);
        // And it accepts spec vectors no MulticastSet could produce (an
        // inverted overhead pair), since composed/perturbed schedules need
        // that freedom.
        let weird = vec![NodeSpec::new(1, 9), NodeSpec::new(2, 3)];
        let mut tiny = ScheduleTree::new(2);
        tiny.attach(NodeId(0), NodeId(1)).unwrap();
        let t = evaluate_with_specs(&tiny, &weird, NetParams::new(1)).unwrap();
        assert_eq!(t.reception_completion(), Time::new(1 + 1 + 3));
        assert!(matches!(
            evaluate_with_specs(&tiny, &weird[..1], NetParams::new(1)),
            Err(CoreError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn convenience_wrappers() {
        let (tree, set, net) = figure1a();
        assert_eq!(
            reception_completion(&tree, &set, net).unwrap(),
            Time::new(10)
        );
        assert_eq!(delivery_completion(&tree, &set, net).unwrap(), Time::new(7));
    }
}
