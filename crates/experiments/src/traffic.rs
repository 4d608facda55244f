//! Experiment E10 — multicast as a service: throughput and latency of the
//! traffic engine under increasing offered load.
//!
//! The paper evaluates planners one multicast at a time; the ROADMAP's
//! north star is a *service* under sustained session traffic. This study
//! offers the same seeded Poisson session stream to several planners at a
//! range of offered loads (decreasing mean inter-arrival gaps) over one
//! shared two-class cluster, and reports, per (load, planner):
//! throughput, p50/p99 reception latency, mean queue delay, and the DP
//! cache's hit rate. Expected shape: at low load every planner matches its
//! analytic single-shot times (queue delay ≈ 0); as load rises, queueing
//! dominates and the heterogeneity-aware planners sustain materially more
//! throughput before saturating — the single-shot quality gap compounds
//! under contention, because slow nodes kept off critical paths are also
//! kept available for the *next* session.

use crate::table::Table;
use hnow_model::NetParams;
use hnow_sim::sessions::{TrafficEngine, TrafficReport};
use hnow_sim::RunConfig;
use hnow_workload::traffic::{NodePool, TrafficPattern};
use hnow_workload::{default_message_size, two_class_table};
use serde::Serialize;

/// Registry names of the planners compared by default. The DP is included —
/// the default cluster has two classes, and the canonically-keyed cache
/// makes its per-session cost a table lookup.
pub const DEFAULT_PLANNERS: [&str; 3] = ["greedy+leaf", "dp-optimal", "fnf"];

/// Configuration of the traffic study.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrafficStudyConfig {
    /// Fast-class and slow-class node counts of the shared cluster.
    pub pool_counts: [usize; 2],
    /// Sessions offered at every load point.
    pub sessions: usize,
    /// Destination-group size of every session.
    pub group_size: usize,
    /// Mean inter-arrival gaps to sweep, largest (lightest load) first.
    pub mean_gaps: Vec<f64>,
    /// Network latency `L`.
    pub latency: u64,
    /// Seed of the session streams (one stream per load point, shared by
    /// all planners so they face identical traffic).
    pub seed: u64,
}

impl Default for TrafficStudyConfig {
    /// A CI-sized study: 24 nodes, 150 sessions per point, 4 load points.
    fn default() -> Self {
        TrafficStudyConfig {
            pool_counts: [16, 8],
            sessions: 150,
            group_size: 6,
            mean_gaps: vec![200.0, 60.0, 20.0, 5.0],
            latency: 2,
            seed: 0x7AFF1C,
        }
    }
}

/// One (offered load, planner) measurement.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrafficPoint {
    /// Mean inter-arrival gap of the offered stream (smaller = heavier).
    pub mean_gap: f64,
    /// Planner name.
    pub planner: String,
    /// Completed sessions per 1000 time units.
    pub throughput_per_kilotick: f64,
    /// Median reception latency.
    pub p50_latency: u64,
    /// 99th-percentile reception latency.
    pub p99_latency: u64,
    /// Mean time sessions queued before their source started serving them.
    pub mean_queue_delay: f64,
    /// DP-cache hit rate of the planning phase (1.0 when the planner never
    /// consults the cache after its first table build; 0.0 for non-DP
    /// planners, which never look up).
    pub cache_hit_rate: f64,
    /// Mean per-node utilization.
    pub mean_utilization: f64,
}

/// Runs the study: one engine run per (load point, planner).
pub fn run(config: &TrafficStudyConfig) -> Vec<TrafficPoint> {
    let pool = NodePool::new(
        two_class_table(),
        default_message_size(),
        &[config.pool_counts[0], config.pool_counts[1]],
    )
    .expect("study pool is non-empty");
    let net = NetParams::new(config.latency);
    let mut points = Vec::new();
    for &mean_gap in &config.mean_gaps {
        let pattern = TrafficPattern::poisson(mean_gap, config.group_size);
        let requests = pattern
            .generate(&pool, config.sessions, config.seed)
            .expect("study pattern is valid");
        for planner in DEFAULT_PLANNERS {
            // Plan caching never changes a result; off, every session
            // reaches the DP cache, so its hit rate measures table sharing.
            let config = RunConfig::for_planner(planner).with_plan_cache(false, None);
            let engine = TrafficEngine::with_config(&pool, net, &config);
            let report = engine.run(&requests).expect("study sessions plan cleanly");
            points.push(point_from(mean_gap, planner, &report));
        }
    }
    points
}

fn point_from(mean_gap: f64, planner: &str, report: &TrafficReport) -> TrafficPoint {
    TrafficPoint {
        mean_gap,
        planner: planner.to_string(),
        throughput_per_kilotick: report.total.throughput_per_kilotick,
        p50_latency: report.total.p50_reception_latency,
        p99_latency: report.total.p99_reception_latency,
        mean_queue_delay: report.total.mean_queue_delay,
        cache_hit_rate: report.per_shard[0].dp_hit_rate,
        mean_utilization: report.total.mean_node_utilization,
    }
}

/// Renders the study as a table: one row per (load, planner).
pub fn table(points: &[TrafficPoint]) -> Table {
    let mut t = Table::new(
        "E10 / traffic engine: throughput vs offered load",
        &[
            "mean gap",
            "planner",
            "throughput/kt",
            "p50 latency",
            "p99 latency",
            "queue delay",
            "cache hit rate",
            "utilization",
        ],
    );
    for p in points {
        t.push_row(vec![
            p.mean_gap.into(),
            p.planner.clone().into(),
            p.throughput_per_kilotick.into(),
            p.p50_latency.into(),
            p.p99_latency.into(),
            p.mean_queue_delay.into(),
            p.cache_hit_rate.into(),
            p.mean_utilization.into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> TrafficStudyConfig {
        TrafficStudyConfig {
            pool_counts: [6, 3],
            sessions: 30,
            group_size: 4,
            mean_gaps: vec![500.0, 5.0],
            ..TrafficStudyConfig::default()
        }
    }

    #[test]
    fn study_produces_one_point_per_load_and_planner() {
        let points = run(&tiny_config());
        assert_eq!(points.len(), 2 * DEFAULT_PLANNERS.len());
        for p in &points {
            assert!(
                p.throughput_per_kilotick > 0.0,
                "{}: no throughput",
                p.planner
            );
            assert!(p.p50_latency <= p.p99_latency);
        }
        let t = table(&points);
        assert!(t.to_markdown().contains("dp-optimal"));
    }

    #[test]
    fn heavier_load_increases_queueing() {
        let points = run(&tiny_config());
        for planner in DEFAULT_PLANNERS {
            let light = points
                .iter()
                .find(|p| p.planner == planner && p.mean_gap == 500.0)
                .unwrap();
            let heavy = points
                .iter()
                .find(|p| p.planner == planner && p.mean_gap == 5.0)
                .unwrap();
            assert!(
                heavy.mean_queue_delay >= light.mean_queue_delay,
                "{planner}: queueing should not shrink under heavier load"
            );
            assert!(
                heavy.p99_latency >= light.p99_latency,
                "{planner}: tail latency should not shrink under heavier load"
            );
        }
    }

    #[test]
    fn dp_planner_reuses_one_cached_table() {
        let points = run(&tiny_config());
        for p in points.iter().filter(|p| p.planner == "dp-optimal") {
            // The first few sessions may widen the shared table (one miss
            // per element-wise-larger shape); after that everything hits.
            assert!(
                p.cache_hit_rate > 0.75,
                "expected near-total sharing, got {}",
                p.cache_hit_rate
            );
        }
    }
}
