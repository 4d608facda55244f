//! Property tests of the traffic engine against the single-shot planner.
//!
//! With zero contention (arrivals spaced beyond any completion) and batch
//! size 1, sessions are independent, so the engine must degenerate to the
//! single-shot planner: every session's achieved reception and delivery
//! latency equals the analytic `R_T`/`D_T` of its own plan, computed
//! independently of the engine.

use hnow_core::planner::{find, PlanRequest};
use hnow_model::{NetParams, Time};
use hnow_sim::sessions::TrafficEngine;
use hnow_sim::RunConfig;
use hnow_workload::traffic::{GroupSizeDist, NodePool, TrafficPattern};
use hnow_workload::{default_message_size, two_class_table};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn zero_contention_batch_one_reproduces_analytic_times(
        seed in 0u64..10_000,
        latency in 0u64..4,
        fast in 2usize..7,
        slow in 1usize..5,
        sessions in 1usize..10,
        min_group in 1usize..4,
        span in 0usize..5,
    ) {
        let pool = NodePool::new(
            two_class_table(),
            default_message_size(),
            &[fast, slow],
        ).unwrap();
        let pattern = TrafficPattern {
            group_size: GroupSizeDist::Uniform {
                min: min_group,
                max: min_group + span,
            },
            ..TrafficPattern::poisson(5.0, 1)
        };
        let mut requests = pattern.generate(&pool, sessions, seed).unwrap();
        // Space arrivals far beyond any completion time: no two sessions
        // ever overlap, so no node is ever contended.
        for (i, r) in requests.iter_mut().enumerate() {
            r.arrival = Time::new(i as u64 * 10_000_000);
            r.patience = None;
        }
        let net = NetParams::new(latency);
        for planner_name in ["greedy", "greedy+leaf", "dp-optimal", "binomial"] {
            let config = RunConfig {
                planner: planner_name.to_string(),
                batch_size: 1,
                dp_cache_capacity: Some(8),
                ..RunConfig::default()
            };
            let report = TrafficEngine::with_config(&pool, net, &config)
                .run(&requests)
                .unwrap();
            prop_assert_eq!(report.total.completed, sessions);
            prop_assert_eq!(report.total.abandoned, 0);
            let planner = find(planner_name).unwrap();
            for (request, record) in requests.iter().zip(&report.per_session) {
                // Independent single-shot reference plan for this session's
                // multicast set (same class reduction the engine performs).
                let mut dests = Vec::new();
                for &member in &request.members {
                    dests.push(pool.spec_of_node(member));
                }
                let set = hnow_model::MulticastSet::new(
                    pool.spec_of_node(request.source),
                    dests,
                ).unwrap();
                let single = planner
                    .plan(&PlanRequest::new(set, net).with_seed(request.id))
                    .unwrap();
                prop_assert_eq!(
                    record.reception_latency,
                    single.reception_completion().raw(),
                    "planner {}: engine diverged from single-shot R_T", planner_name
                );
                prop_assert_eq!(
                    record.delivery_latency,
                    single.delivery_completion().raw(),
                    "planner {}: engine diverged from single-shot D_T", planner_name
                );
                prop_assert_eq!(record.planned_reception, record.reception_latency);
                prop_assert_eq!(record.planned_delivery, record.delivery_latency);
                prop_assert_eq!(record.queue_delay, 0);
            }
        }
    }
}
