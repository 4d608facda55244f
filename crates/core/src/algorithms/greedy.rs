//! The greedy multicast scheduling algorithm (Section 2, Lemma 1).
//!
//! Destinations are considered in non-decreasing order of overhead (fastest
//! workstations first). At iteration `i`, the algorithm finds the node
//! already holding the message that can *complete a delivery the earliest*
//! and makes it send to destination `p_i`. A binary heap keyed by each
//! holder's next possible delivery-completion time implements each iteration
//! in `O(log n)`, for a total running time of `O(n log n)` including the
//! initial sort (Lemma 1).
//!
//! Every schedule produced this way is **layered** (faster destinations are
//! delivered strictly before slower ones), and by the paper's Lemma 2 /
//! Corollary 1 it attains the minimum *delivery* completion time over all
//! layered schedules. Theorem 1 turns this into an approximation guarantee
//! for the *reception* completion time:
//! `GREEDY_R < 2·(α_max/α_min)·OPT_R + β`.
//!
//! The end of Section 3 observes that delivering to *leaf* nodes fast-first
//! is counter-productive; [`GreedyOptions::refine_leaves`] applies the
//! corresponding post-pass ([`crate::schedule::ops::refine_leaves`]).

use crate::schedule::ops::refine_leaves;
use crate::schedule::tree::ScheduleTree;
use hnow_model::{MulticastSet, NetParams, NodeId, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Options controlling the greedy construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GreedyOptions {
    /// Apply the leaf-delivery refinement after the tree is built
    /// (the practical modification recommended at the end of Section 3).
    pub refine_leaves: bool,
}

impl GreedyOptions {
    /// Plain greedy, exactly as analysed by Theorem 1.
    pub const PLAIN: GreedyOptions = GreedyOptions {
        refine_leaves: false,
    };
    /// Greedy followed by the leaf refinement.
    pub const REFINED: GreedyOptions = GreedyOptions {
        refine_leaves: true,
    };
}

/// Runs the greedy algorithm and returns the schedule tree.
///
/// Destinations are attached in the multicast set's canonical order
/// (non-decreasing overhead), so the result is deterministic; ties between
/// holders with equal next-delivery times are broken in favour of the
/// smaller node id (i.e. the source, then faster destinations).
pub fn greedy_schedule(set: &MulticastSet, net: NetParams) -> ScheduleTree {
    greedy_with_options(set, net, GreedyOptions::PLAIN)
}

/// Runs the greedy algorithm with explicit options.
pub fn greedy_with_options(
    set: &MulticastSet,
    net: NetParams,
    options: GreedyOptions,
) -> ScheduleTree {
    let n = set.num_destinations();
    let mut tree = ScheduleTree::new(set.num_nodes());
    if n == 0 {
        return tree;
    }
    // Min-heap over (next possible delivery-completion time, node id).
    let mut heap: BinaryHeap<Reverse<(Time, NodeId)>> = BinaryHeap::with_capacity(n + 1);
    let source_first_delivery = set.source().send() + net.latency();
    heap.push(Reverse((source_first_delivery, NodeId::SOURCE)));

    for i in 1..=n {
        let dest = NodeId(i);
        let Reverse((delivery_time, holder)) = heap.pop().expect("heap is never empty");
        tree.attach(holder, dest)
            .expect("greedy attaches each destination exactly once");
        // The new holder's first possible delivery completion.
        let dest_spec = set.spec(dest);
        let dest_key = delivery_time + dest_spec.recv() + dest_spec.send() + net.latency();
        heap.push(Reverse((dest_key, dest)));
        // The sender can complete its next delivery one sending overhead
        // later.
        let holder_key = delivery_time + set.spec(holder).send();
        heap.push(Reverse((holder_key, holder)));
    }

    if options.refine_leaves {
        refine_leaves(&tree, set, net).expect("greedy trees are complete and well-formed")
    } else {
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::times::{evaluate, reception_completion};
    use crate::schedule::validate::{is_layered, validate};
    use hnow_model::NodeSpec;

    fn figure1() -> (MulticastSet, NetParams) {
        let slow = NodeSpec::new(2, 3);
        let fast = NodeSpec::new(1, 1);
        (
            MulticastSet::new(slow, vec![fast, fast, fast, slow]).unwrap(),
            NetParams::new(1),
        )
    }

    #[test]
    fn greedy_reproduces_figure1a() {
        let (set, net) = figure1();
        let tree = greedy_schedule(&set, net);
        let timing = evaluate(&tree, &set, net).unwrap();
        // The greedy schedule is the paper's Figure 1(a): completion time 10,
        // with the fast nodes received at 4, 6 and 7.
        assert_eq!(timing.reception_completion(), Time::new(10));
        let mut receptions: Vec<u64> = set
            .destination_ids()
            .map(|v| timing.reception(v).raw())
            .collect();
        receptions.sort_unstable();
        assert_eq!(receptions, vec![4, 6, 7, 10]);
    }

    #[test]
    fn refined_greedy_improves_figure1() {
        let (set, net) = figure1();
        let plain = greedy_schedule(&set, net);
        let refined = greedy_with_options(&set, net, GreedyOptions::REFINED);
        let plain_r = reception_completion(&plain, &set, net).unwrap();
        let refined_r = reception_completion(&refined, &set, net).unwrap();
        assert_eq!(plain_r, Time::new(10));
        // The refinement hands the slow leaf the earliest leaf slot; for this
        // instance the completion drops to 8 (better than the paper's
        // illustrative 9-unit schedule, which it never claims is optimal).
        assert_eq!(refined_r, Time::new(8));
    }

    #[test]
    fn greedy_schedules_are_valid_and_layered() {
        let sets = vec![
            figure1().0,
            MulticastSet::homogeneous(NodeSpec::new(3, 4), 9),
            MulticastSet::new(
                NodeSpec::new(1, 1),
                vec![
                    NodeSpec::new(1, 1),
                    NodeSpec::new(2, 2),
                    NodeSpec::new(2, 3),
                    NodeSpec::new(5, 9),
                    NodeSpec::new(8, 11),
                    NodeSpec::new(8, 12),
                ],
            )
            .unwrap(),
        ];
        for set in sets {
            for latency in [0u64, 1, 5] {
                let net = NetParams::new(latency);
                let tree = greedy_schedule(&set, net);
                validate(&tree, &set).unwrap();
                assert!(is_layered(&tree, &set, net).unwrap());
            }
        }
    }

    #[test]
    fn trivial_and_single_destination() {
        let net = NetParams::new(2);
        let empty = MulticastSet::new(NodeSpec::new(3, 3), vec![]).unwrap();
        let tree = greedy_schedule(&empty, net);
        assert!(tree.is_complete());
        assert_eq!(
            reception_completion(&tree, &empty, net).unwrap(),
            Time::ZERO
        );

        let single = MulticastSet::new(NodeSpec::new(3, 6), vec![NodeSpec::new(2, 5)]).unwrap();
        let tree = greedy_schedule(&single, net);
        // o_send(src) + L + o_recv(dest) = 3 + 2 + 5.
        assert_eq!(
            reception_completion(&tree, &single, net).unwrap(),
            Time::new(10)
        );
    }

    #[test]
    fn homogeneous_greedy_matches_binomial_growth() {
        // With identical nodes, zero latency and recv = 0, greedy reduces to
        // the classic one-port doubling schedule: completion ⌈log2(n+1)⌉·s.
        for n in [1usize, 2, 3, 7, 8, 15, 16, 31] {
            let set = MulticastSet::homogeneous(NodeSpec::new(4, 0), n);
            let net = NetParams::new(0);
            let tree = greedy_schedule(&set, net);
            let r = reception_completion(&tree, &set, net).unwrap();
            let rounds = usize::BITS - n.leading_zeros();
            assert_eq!(r, Time::new(4 * u64::from(rounds)), "n = {n}");
        }
    }

    #[test]
    fn fast_destinations_receive_before_slow_ones() {
        let set = MulticastSet::new(
            NodeSpec::new(2, 2),
            vec![
                NodeSpec::new(1, 1),
                NodeSpec::new(1, 1),
                NodeSpec::new(4, 5),
                NodeSpec::new(4, 5),
                NodeSpec::new(10, 14),
            ],
        )
        .unwrap();
        let net = NetParams::new(3);
        let tree = greedy_schedule(&set, net);
        let timing = evaluate(&tree, &set, net).unwrap();
        // Layered: delivery times respect the speed order.
        assert!(timing.delivery(NodeId(1)) < timing.delivery(NodeId(3)));
        assert!(timing.delivery(NodeId(4)) < timing.delivery(NodeId(5)));
    }

    #[test]
    fn refinement_never_hurts_on_assorted_instances() {
        let instances = vec![
            figure1().0,
            MulticastSet::new(
                NodeSpec::new(5, 7),
                vec![
                    NodeSpec::new(1, 1),
                    NodeSpec::new(2, 3),
                    NodeSpec::new(3, 5),
                    NodeSpec::new(5, 7),
                    NodeSpec::new(5, 7),
                ],
            )
            .unwrap(),
            MulticastSet::homogeneous(NodeSpec::new(2, 9), 12),
        ];
        for set in instances {
            for latency in [0u64, 1, 4] {
                let net = NetParams::new(latency);
                let plain = greedy_schedule(&set, net);
                let refined = greedy_with_options(&set, net, GreedyOptions::REFINED);
                assert!(
                    reception_completion(&refined, &set, net).unwrap()
                        <= reception_completion(&plain, &set, net).unwrap()
                );
            }
        }
    }
}
