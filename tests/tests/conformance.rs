//! Cross-algorithm conformance suite.
//!
//! Runs every planner in `hnow_core::planner::registry()` against the
//! generated scenario grid of `hnow_integration::conformance_scenarios()`
//! and turns the paper's invariants into machine-checked contracts:
//!
//! * every produced schedule passes structural validation,
//! * the closed-form `R_T`/`D_T` evaluation agrees **exactly** with the
//!   event-driven replay of `hnow-sim`, node by node,
//! * Theorem 1's guarantee `R_greedy ≤ C·OPT_R + β` (with
//!   `C = 2·⌈α_max⌉/α_min`) and the always-valid lower bounds of
//!   `hnow_core::bounds` hold, and
//! * the Theorem 2 dynamic program matches the branch-and-bound optimum on
//!   every limited-heterogeneity instance small enough to search exactly.
//!
//! There is no per-algorithm dispatch here: the suite asks the registry
//! which planners support each scenario, so a future planner is covered by
//! every test below the moment it is registered.
//!
//! This suite is the regression floor for later performance work: any
//! planner or evaluator change that breaks a theorem or diverges from the
//! simulator fails here with the scenario name in the message.

use hnow_core::bounds::{lower_bound, theorem1_bound};
use hnow_core::planner::{
    find, plan_many, plan_many_with, registry, supporting_planners, Plan, PlanContext, PlanRequest,
    Planner,
};
use hnow_core::schedule::{evaluate, validate};
use hnow_integration::{conformance_scenarios, ConformanceScenario};
use hnow_model::Time;
use hnow_sim::{check_against_analytic, execute};

/// Destination count up to which the branch-and-bound search is exercised
/// as the exact reference (mirrored by the `branch-bound` planner's
/// capability envelope).
const EXACT_SEARCH_MAX_N: usize = 9;

/// Node budget for the exact reference search.
const SEARCH_BUDGET: u64 = 3_000_000;

/// Seed for the `random` planner, fixed for reproducibility.
const RANDOM_PLANNER_SEED: u64 = 0xC0FFEE;

/// The uniform planning request for a scenario.
fn request_for(scenario: &ConformanceScenario) -> PlanRequest {
    PlanRequest::new(scenario.set.clone(), scenario.net)
        .with_seed(RANDOM_PLANNER_SEED)
        .with_node_budget(SEARCH_BUDGET)
}

/// Every registered planner whose capability envelope covers the scenario,
/// with each one's plan.
fn plans_for(scenario: &ConformanceScenario) -> Vec<Plan> {
    let request = request_for(scenario);
    supporting_planners(&scenario.set)
        .iter()
        .map(|p| {
            p.plan(&request)
                .unwrap_or_else(|e| panic!("{}: {} failed to plan: {e:?}", scenario.name, p.name()))
        })
        .collect()
}

#[test]
fn scenario_grid_is_large_and_diverse() {
    let scenarios = conformance_scenarios();
    assert!(
        scenarios.len() >= 10,
        "conformance grid must exercise at least 10 scenarios, got {}",
        scenarios.len()
    );
    // The grid must cover limited heterogeneity (DP-friendly), general
    // heterogeneity, and at least one exactly-searchable size.
    assert!(
        scenarios
            .iter()
            .any(|s| s.set.num_distinct_types() <= 2
                && s.set.num_destinations() <= EXACT_SEARCH_MAX_N)
    );
    assert!(scenarios.iter().any(|s| s.set.num_distinct_types() > 3));
    assert!(scenarios
        .iter()
        .any(|s| s.set.num_destinations() > EXACT_SEARCH_MAX_N));
    // Scenario names are unique so failure messages identify the input.
    let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), scenarios.len(), "duplicate scenario names");

    // Every registered planner supports at least one scenario, and the
    // always-applicable planners support all of them.
    for planner in registry() {
        let supported = scenarios
            .iter()
            .filter(|s| planner.capabilities().supports(&s.set))
            .count();
        assert!(
            supported > 0,
            "{} supports no conformance scenario",
            planner.name()
        );
    }
}

/// (a) Every supporting planner produces a structurally valid schedule on
/// every scenario.
#[test]
fn every_planner_builds_valid_schedules_on_every_scenario() {
    for scenario in conformance_scenarios() {
        for plan in plans_for(&scenario) {
            validate(&plan.tree, &scenario.set).unwrap_or_else(|e| {
                panic!(
                    "{}: {} produced an invalid schedule: {e:?}",
                    scenario.name, plan.planner
                )
            });
            // The plan's reported timing is a fresh evaluation of its tree.
            let fresh = evaluate(&plan.tree, &scenario.set, scenario.net).unwrap();
            assert_eq!(
                plan.timing, fresh,
                "{}: {} reported timing differs from its tree's evaluation",
                scenario.name, plan.planner
            );
        }
    }
}

/// (b) The analytic `R_T`/`D_T` evaluation equals the event-driven replay
/// exactly — per node and in the completion time — for every planner ×
/// scenario.
#[test]
fn analytic_times_match_event_driven_replay_exactly() {
    for scenario in conformance_scenarios() {
        for plan in plans_for(&scenario) {
            let mismatches = check_against_analytic(&plan.tree, &scenario.set, scenario.net)
                .unwrap_or_else(|e| {
                    panic!(
                        "{}: {} failed to replay: {e:?}",
                        scenario.name, plan.planner
                    )
                });
            assert!(
                mismatches.is_empty(),
                "{}: {} sim/analytic divergence at nodes {mismatches:?}",
                scenario.name,
                plan.planner
            );

            let trace = execute(&plan.tree, &scenario.set, scenario.net).expect("replay succeeds");
            assert_eq!(
                trace.completion,
                plan.timing.reception_completion(),
                "{}: {} completion mismatch",
                scenario.name,
                plan.planner
            );
            let max_delivery = scenario
                .set
                .destination_ids()
                .map(|v| trace.delivery(v))
                .max()
                .unwrap_or(Time::ZERO);
            assert_eq!(
                max_delivery,
                plan.timing.delivery_completion(),
                "{}: {} delivery-completion mismatch",
                scenario.name,
                plan.planner
            );
        }
    }
}

/// (c) Theorem 1's bound and the always-valid lower bounds hold on every
/// scenario. `OPT_R` is a proven-optimal plan (branch-and-bound or the DP)
/// where one exists; otherwise any planner's completion time is a valid
/// stand-in (it only weakens the right-hand side).
#[test]
fn theorem1_bound_and_lower_bounds_hold() {
    for scenario in conformance_scenarios() {
        let plans = plans_for(&scenario);
        let mut greedy_completion: Option<Time> = None;
        let mut best_completion: Option<Time> = None;
        let mut proven_optimum: Option<Time> = None;
        let lb = lower_bound(&scenario.set, scenario.net);

        for plan in &plans {
            let completion = plan.timing.reception_completion();
            assert!(
                completion >= lb.value,
                "{}: {} completed at {completion}, below the lower bound {}",
                scenario.name,
                plan.planner,
                lb.value
            );
            if plan.planner == "greedy" {
                greedy_completion = Some(completion);
            }
            if plan.proven_optimal {
                if let Some(previous) = proven_optimum {
                    assert_eq!(
                        previous, completion,
                        "{}: exact planners disagree on the optimum",
                        scenario.name
                    );
                }
                proven_optimum = Some(completion);
            }
            best_completion = Some(match best_completion {
                Some(best) => best.min(completion),
                None => completion,
            });
        }
        let best_completion = best_completion.expect("at least one planner ran");

        let opt_ref = match proven_optimum {
            Some(optimum) => {
                assert!(
                    lb.value <= optimum,
                    "{}: lower bound {} exceeds the proven optimum {optimum}",
                    scenario.name,
                    lb.value
                );
                assert!(
                    optimum <= best_completion,
                    "{}: proven optimum {optimum} above a heuristic completion {best_completion}",
                    scenario.name
                );
                optimum
            }
            None => best_completion,
        };

        let greedy_r = greedy_completion.expect("greedy is always among the planners");
        let bound = theorem1_bound(&scenario.set, opt_ref);
        assert!(
            greedy_r.as_f64() <= bound,
            "{}: Theorem 1 violated — greedy {greedy_r} > {bound} (OPT_R reference {opt_ref})",
            scenario.name
        );
    }
}

/// (d) The Theorem 2 dynamic program matches the branch-and-bound optimum
/// on every scenario inside both exact planners' capability envelopes, and
/// both reconstructed schedules attain that optimum.
#[test]
fn dp_matches_branch_and_bound_on_limited_heterogeneity() {
    let dp = find("dp-optimal").expect("dp planner is registered");
    let bb = find("branch-bound").expect("branch-and-bound planner is registered");
    let mut cross_checked = 0usize;
    for scenario in conformance_scenarios() {
        if !dp.capabilities().supports(&scenario.set)
            || !bb.capabilities().supports(&scenario.set)
            || scenario.set.num_destinations() > EXACT_SEARCH_MAX_N
        {
            continue;
        }
        let request = request_for(&scenario);
        let exact = bb.plan(&request).expect("branch-and-bound plans");
        assert!(
            exact.proven_optimal,
            "{}: exact search exhausted its budget on a small instance",
            scenario.name
        );
        let dp_plan = dp.plan(&request).expect("DP plans");
        assert!(dp_plan.proven_optimal);
        assert_eq!(
            dp_plan.timing.reception_completion(),
            exact.timing.reception_completion(),
            "{}: DP optimum != branch-and-bound optimum",
            scenario.name
        );
        for plan in [&exact, &dp_plan] {
            validate(&plan.tree, &scenario.set)
                .unwrap_or_else(|e| panic!("{}: {} invalid: {e:?}", scenario.name, plan.planner));
        }
        cross_checked += 1;
    }
    assert!(
        cross_checked >= 4,
        "expected at least 4 DP-vs-exact cross-checks, ran {cross_checked}"
    );
}

/// (e) The batched `plan_many` facade returns byte-identical plans to
/// sequential per-request planning across the whole scenario grid.
#[test]
fn plan_many_matches_sequential_planning_across_the_grid() {
    let scenarios = conformance_scenarios();
    let requests: Vec<PlanRequest> = scenarios.iter().map(request_for).collect();
    // Planners inside their envelope on *every* scenario (the heuristics);
    // the exact planners are batch-checked per-scenario in (d) and in the
    // core crate's planner tests.
    let planners: Vec<&dyn Planner> = registry()
        .iter()
        .copied()
        .filter(|p| scenarios.iter().all(|s| p.capabilities().supports(&s.set)))
        .collect();
    assert!(planners.len() >= 7, "the seven unrestricted planners");

    let batched = plan_many(&planners, &requests);
    assert_eq!(batched.len(), requests.len());
    for ((scenario, request), row) in scenarios.iter().zip(&requests).zip(&batched) {
        for (planner, result) in planners.iter().zip(row) {
            let sequential = planner.plan(request);
            assert_eq!(
                result,
                &sequential,
                "{}: {} diverged between batched and sequential planning",
                scenario.name,
                planner.name()
            );
        }
    }
}

/// (f) Across a batch of requests drawn from one class table at one
/// latency, the DP planner's whole-network table is built once and then
/// served from the cache, without changing any plan.
#[test]
fn dp_table_cache_is_shared_across_same_class_table_requests() {
    use hnow_workload::{default_message_size, fast_slow_mix, two_class_table};

    let table = two_class_table();
    let size = default_message_size();
    let requests: Vec<PlanRequest> = [(8usize, 0.5), (6, 0.25), (4, 0.5), (8, 0.25)]
        .into_iter()
        .map(|(n, slow_fraction)| {
            let spec = fast_slow_mix(&table, 0, 1, n, slow_fraction, true);
            let set = spec.multicast_set(size).expect("valid cluster");
            PlanRequest::new(set, hnow_model::NetParams::new(2))
        })
        .collect();

    let dp = find("dp-optimal").expect("dp planner is registered");
    let ctx = PlanContext::new();
    // Plan sequentially against the shared context: with a fixed request
    // order, a miss widens the cached table to cover everything seen so
    // far, so the hit pattern is deterministic even if the vendored
    // sequential rayon is later swapped for the real, parallel one.
    let plans: Vec<_> = requests
        .iter()
        .map(|request| dp.plan_with(request, &ctx).expect("DP plans every request"))
        .collect();
    assert_eq!(ctx.dp_cache().lookups(), requests.len());
    assert!(
        ctx.dp_cache().hits() >= 1,
        "same-class-table requests must share a DP table"
    );
    // The cache never changes results, batched or sequential.
    let batched = plan_many_with(&[dp], &requests, &PlanContext::new());
    for ((request, cached), row) in requests.iter().zip(&plans).zip(&batched) {
        let fresh = dp.plan(request).expect("DP plans every request");
        assert_eq!(cached, &fresh);
        assert_eq!(row[0].as_ref().expect("DP plans every request"), cached);
        validate(&cached.tree, &request.set).unwrap();
        assert!(cached.proven_optimal);
    }
}
