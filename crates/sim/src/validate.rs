//! Cross-checking the simulator against the analytic timing.

use crate::engine::execute;
use crate::error::SimError;
use hnow_core::schedule::evaluate;
use hnow_core::ScheduleTree;
use hnow_model::{MulticastSet, NetParams, NodeId};

/// Executes the schedule on the simulator and verifies that every delivery
/// and reception time matches the closed-form evaluation of
/// [`hnow_core::schedule::times`]. Returns the node ids that disagree (empty
/// when the two agree everywhere, which is the expected outcome).
pub fn check_against_analytic(
    tree: &ScheduleTree,
    set: &MulticastSet,
    net: NetParams,
) -> Result<Vec<NodeId>, SimError> {
    let trace = execute(tree, set, net)?;
    let timing = evaluate(tree, set, net)?;
    let mut mismatches = Vec::new();
    for v in set.destination_ids() {
        if trace.delivery(v) != timing.delivery(v) || trace.reception(v) != timing.reception(v) {
            mismatches.push(v);
        }
    }
    if trace.completion != timing.reception_completion() && mismatches.is_empty() {
        mismatches.push(NodeId::SOURCE);
    }
    Ok(mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnow_core::planner::{find, PlanContext, PlanRequest};
    use hnow_model::NodeSpec;

    #[test]
    fn simulator_agrees_with_analytic_times_for_every_strategy() {
        let set = MulticastSet::new(
            NodeSpec::new(2, 3),
            vec![
                NodeSpec::new(1, 1),
                NodeSpec::new(1, 1),
                NodeSpec::new(2, 3),
                NodeSpec::new(4, 6),
                NodeSpec::new(4, 6),
                NodeSpec::new(9, 14),
            ],
        )
        .unwrap();
        let strategies = [
            "greedy",
            "greedy+leaf",
            "fnf",
            "binomial",
            "chain",
            "star",
            "random",
        ];
        for latency in [0u64, 1, 7] {
            let net = NetParams::new(latency);
            for name in strategies {
                let request = PlanRequest::new(set.clone(), net).with_seed(11);
                let tree = find(name)
                    .unwrap()
                    .construct(&request, &PlanContext::new())
                    .unwrap()
                    .tree;
                let mismatches = check_against_analytic(&tree, &set, net).unwrap();
                assert!(mismatches.is_empty(), "{name}: {mismatches:?}");
            }
        }
    }
}
