//! Property-based tests of the unified planner facade: every registered
//! planner, on random valid instances, produces a structurally valid
//! schedule whose reported timing matches a fresh evaluation, never beats
//! the always-valid lower bound, and — when it claims proven optimality —
//! is never beaten by any other planner.

use hnow_core::lower_bound;
use hnow_core::planner::{registry, PlanRequest};
use hnow_core::schedule::{evaluate, validate};
use hnow_model::{MulticastSet, NetParams, NodeSpec, Time};
use proptest::prelude::*;

/// Random valid multicast sets: overhead pairs are drawn, then massaged so
/// the receive overheads are monotone in the send overheads (the model's
/// correlation assumption). Sizes stay small enough for branch-and-bound to
/// prove optimality within a modest budget.
fn arb_set(max_destinations: usize) -> impl Strategy<Value = MulticastSet> {
    prop::collection::vec((1u64..=9, 0u64..=9), 2..=max_destinations + 1).prop_map(|raw| {
        let mut raw: Vec<(u64, u64)> = raw.into_iter().map(|(s, e)| (s, s + e)).collect();
        raw.sort_unstable();
        let mut last = 0;
        let specs: Vec<NodeSpec> = raw
            .into_iter()
            .map(|(s, r)| {
                let r = r.max(last);
                last = r;
                NodeSpec::new(s, r)
            })
            .collect();
        MulticastSet::new(specs[0], specs[1..].to_vec()).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness of every registered planner on random instances.
    #[test]
    fn every_supporting_planner_is_sound(
        set in arb_set(6),
        latency in 0u64..4,
        seed in 0u64..10_000,
    ) {
        let net = NetParams::new(latency);
        let request = PlanRequest::new(set.clone(), net)
            .with_seed(seed)
            .with_node_budget(2_000_000);
        let lb = lower_bound(&set, net);

        let mut proven: Vec<(&str, Time)> = Vec::new();
        let mut completions: Vec<(&str, Time)> = Vec::new();
        for planner in registry() {
            if !planner.capabilities().supports(&set) {
                continue;
            }
            let plan = planner.plan(&request).unwrap();
            prop_assert_eq!(plan.planner, planner.name());

            // The tree is structurally valid and the reported timing is
            // exactly what a fresh evaluation of the tree yields.
            validate(&plan.tree, &set).unwrap();
            let fresh = evaluate(&plan.tree, &set, net).unwrap();
            prop_assert_eq!(&plan.timing, &fresh, "{} timing drifted", planner.name());

            // No planner — exact ones included — beats the lower bound.
            prop_assert!(
                plan.reception_completion() >= lb.value,
                "{} completed at {} below the lower bound {}",
                planner.name(),
                plan.reception_completion(),
                lb.value
            );

            if plan.proven_optimal {
                prop_assert!(planner.capabilities().exact());
                proven.push((planner.name(), plan.reception_completion()));
            }
            completions.push((planner.name(), plan.reception_completion()));
        }

        // Exact planners agree with each other and are never beaten.
        if let Some(&(_, optimum)) = proven.first() {
            for &(name, value) in &proven {
                prop_assert_eq!(value, optimum, "exact planners disagree ({})", name);
            }
            for &(name, value) in &completions {
                prop_assert!(
                    value >= optimum,
                    "{} at {} beat the proven optimum {}",
                    name,
                    value,
                    optimum
                );
            }
        }
    }

    /// The batched facade returns exactly the plans sequential planning
    /// returns, for every planner supporting the instance.
    #[test]
    fn plan_many_equals_sequential_on_random_instances(
        set in arb_set(5),
        latency in 0u64..3,
        seed in 0u64..10_000,
    ) {
        let net = NetParams::new(latency);
        let requests = vec![
            PlanRequest::new(set.clone(), net).with_seed(seed).with_node_budget(500_000),
            PlanRequest::new(set.clone(), net).with_seed(seed ^ 1).with_node_budget(500_000),
        ];
        let planners = hnow_core::planner::supporting_planners(&set);
        let batched = hnow_core::planner::plan_many(&planners, &requests);
        for (request, row) in requests.iter().zip(&batched) {
            for (planner, result) in planners.iter().zip(row) {
                prop_assert_eq!(result, &planner.plan(request), "{}", planner.name());
            }
        }
    }
}
