//! Experiment E11 — sharded cluster service: wall-clock and quality of a
//! sharded pool versus one flat shard at equal total nodes.
//!
//! This study fixes one large pool and one offered session stream per
//! cross-shard fraction, then serves the *identical request vector* two
//! ways: through the flat [`TrafficEngine`] (the session pipeline over one
//! shard holding the whole pool), and through a [`ShardedCluster`] at each
//! swept shard count. Per (shard count × cross-shard fraction) point it
//! reports both runs' wall-clock, the speedup, throughput/p99/queue-delay
//! quality deltas, and how many cross-shard sessions hit their stitched
//! analytic timing exactly. Both runs share one pipeline — plan caches,
//! contact-grouped components and the one occupancy kernel — so the deltas
//! are pure sharding effects: routing, gateway stitching and per-shard
//! caches. Expected shape: quality stays comparable and wall-clock close;
//! under zero contention every cross-shard session matches its stitched
//! planned `R_T`/`D_T` exactly.

use crate::table::Table;
use hnow_model::NetParams;
use hnow_sim::cluster::ShardedCluster;
use hnow_sim::sessions::TrafficEngine;
use hnow_sim::RunConfig;
use hnow_workload::traffic::NodePool;
use hnow_workload::{default_message_size, two_class_table, ShardMap, ShardedPattern};
use serde::Serialize;
use std::time::Instant;

/// Configuration of the sharded-cluster study.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardedStudyConfig {
    /// Fast-class and slow-class node counts of the *total* pool.
    pub pool_counts: [usize; 2],
    /// Shard counts to sweep (each compared against the flat engine).
    pub shard_counts: Vec<usize>,
    /// Cross-shard fractions to sweep.
    pub cross_fractions: Vec<f64>,
    /// Sessions offered per point.
    pub sessions: usize,
    /// Destination-group size.
    pub group_size: usize,
    /// Mean inter-arrival gap of the Poisson stream.
    pub mean_gap: f64,
    /// Network latency `L`.
    pub latency: u64,
    /// Seed of the session streams.
    pub seed: u64,
    /// Registry planner serving both engines.
    pub planner: String,
}

impl Default for ShardedStudyConfig {
    /// A CI-sized study: 48 nodes, 300 sessions, 2 shard counts × 2
    /// fractions.
    fn default() -> Self {
        ShardedStudyConfig {
            pool_counts: [32, 16],
            shard_counts: vec![2, 4],
            cross_fractions: vec![0.0, 0.2],
            sessions: 300,
            group_size: 5,
            mean_gap: 8.0,
            latency: 2,
            seed: 0x5AAD,
            planner: "greedy+leaf".to_string(),
        }
    }
}

impl ShardedStudyConfig {
    /// The acceptance-scale soak: 384 nodes, 50k sessions, 8 shards, at a
    /// per-node load matching the flat engine's saturation regime.
    pub fn soak() -> Self {
        ShardedStudyConfig {
            pool_counts: [256, 128],
            shard_counts: vec![8],
            cross_fractions: vec![0.05],
            sessions: 50_000,
            group_size: 6,
            mean_gap: 1.5,
            ..ShardedStudyConfig::default()
        }
    }
}

/// One (shard count, cross-shard fraction) measurement.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardedPoint {
    /// Shard count of the sharded run.
    pub shards: usize,
    /// Requested cross-shard fraction of the offered stream.
    pub cross_fraction: f64,
    /// Fraction of sessions that actually spanned shards.
    pub observed_cross_fraction: f64,
    /// Wall-clock of the sharded run, milliseconds.
    pub sharded_wall_ms: f64,
    /// Wall-clock of the flat one-shard run, milliseconds.
    pub flat_wall_ms: f64,
    /// `flat_wall_ms / sharded_wall_ms` (> 1 means the sharded service is
    /// faster).
    pub speedup: f64,
    /// Sharded-run throughput (completed sessions per kilotick).
    pub sharded_throughput: f64,
    /// Flat-run throughput.
    pub flat_throughput: f64,
    /// Sharded-run p99 reception latency.
    pub sharded_p99: u64,
    /// Flat-run p99 reception latency.
    pub flat_p99: u64,
    /// Sharded-run mean queue delay.
    pub sharded_queue_delay: f64,
    /// Flat-run mean queue delay.
    pub flat_queue_delay: f64,
    /// Cross-shard sessions in the stream.
    pub cross_sessions: usize,
    /// Cross-shard sessions whose achieved `R_T` *and* `D_T` equal their
    /// stitched planned timing (equals `cross_sessions` in an uncontended,
    /// zero-jitter run; lower under queueing, where achieved ≥ planned).
    pub cross_stitched_exact: usize,
}

/// Runs the study: per (fraction, shard count), the same request vector
/// through both engines.
pub fn run(config: &ShardedStudyConfig) -> Vec<ShardedPoint> {
    let pool = NodePool::new(
        two_class_table(),
        default_message_size(),
        &[config.pool_counts[0], config.pool_counts[1]],
    )
    .expect("study pool is non-empty");
    let net = NetParams::new(config.latency);
    let mut points = Vec::new();
    for &frac in &config.cross_fractions {
        for &shards in &config.shard_counts {
            let map = ShardMap::partition(&pool, shards).expect("valid shard count");
            let pattern = ShardedPattern {
                base: hnow_workload::TrafficPattern::poisson(config.mean_gap, config.group_size),
                cross_shard_fraction: frac,
            };
            let requests = pattern
                .generate(&map, config.sessions, config.seed)
                .expect("study pattern is valid");

            let flat_engine =
                TrafficEngine::with_config(&pool, net, &RunConfig::for_planner(&config.planner));
            let flat_start = Instant::now();
            let flat = flat_engine.run(&requests).expect("flat run succeeds");
            let flat_wall_ms = flat_start.elapsed().as_secs_f64() * 1000.0;

            let cluster = ShardedCluster::with_config(
                &pool,
                net,
                &RunConfig::for_planner(&config.planner).sharded(shards),
            )
            .expect("valid cluster config");
            let sharded_start = Instant::now();
            let sharded = cluster.run(&requests).expect("sharded run succeeds");
            let sharded_wall_ms = sharded_start.elapsed().as_secs_f64() * 1000.0;

            let cross_stitched_exact = sharded
                .per_session
                .iter()
                .filter(|s| {
                    s.cross()
                        && !s.abandoned
                        && s.reception_latency == s.planned_reception
                        && s.delivery_latency == s.planned_delivery
                })
                .count();
            points.push(ShardedPoint {
                shards,
                cross_fraction: frac,
                observed_cross_fraction: sharded.observed_cross_fraction,
                sharded_wall_ms,
                flat_wall_ms,
                speedup: if sharded_wall_ms > 0.0 {
                    flat_wall_ms / sharded_wall_ms
                } else {
                    0.0
                },
                sharded_throughput: sharded.total.throughput_per_kilotick,
                flat_throughput: flat.total.throughput_per_kilotick,
                sharded_p99: sharded.total.p99_reception_latency,
                flat_p99: flat.total.p99_reception_latency,
                sharded_queue_delay: sharded.total.mean_queue_delay,
                flat_queue_delay: flat.total.mean_queue_delay,
                cross_sessions: sharded.cross_sessions,
                cross_stitched_exact,
            });
        }
    }
    points
}

/// Renders the study as a table: one row per (fraction, shard count).
pub fn table(points: &[ShardedPoint]) -> Table {
    let mut t = Table::new(
        "E11 / sharded cluster: wall-clock and quality vs the flat engine",
        &[
            "shards",
            "cross frac",
            "sharded ms",
            "flat ms",
            "speedup",
            "sharded tput/kt",
            "flat tput/kt",
            "sharded p99",
            "flat p99",
            "cross exact",
        ],
    );
    for p in points {
        t.push_row(vec![
            (p.shards as u64).into(),
            p.cross_fraction.into(),
            p.sharded_wall_ms.into(),
            p.flat_wall_ms.into(),
            p.speedup.into(),
            p.sharded_throughput.into(),
            p.flat_throughput.into(),
            p.sharded_p99.into(),
            p.flat_p99.into(),
            format!("{}/{}", p.cross_stitched_exact, p.cross_sessions).into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ShardedStudyConfig {
        ShardedStudyConfig {
            pool_counts: [8, 4],
            shard_counts: vec![2],
            cross_fractions: vec![0.0, 0.3],
            sessions: 60,
            group_size: 3,
            mean_gap: 50.0,
            ..ShardedStudyConfig::default()
        }
    }

    #[test]
    fn study_produces_one_point_per_fraction_and_shard_count() {
        let points = run(&tiny_config());
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.shards, 2);
            assert!(p.sharded_wall_ms > 0.0);
            assert!(p.flat_wall_ms > 0.0);
            assert!(p.sharded_throughput > 0.0);
        }
        let zero_cross = &points[0];
        assert_eq!(zero_cross.cross_sessions, 0);
        assert_eq!(zero_cross.observed_cross_fraction, 0.0);
        let mixed = &points[1];
        assert!(mixed.cross_sessions > 0);
        let t = table(&points);
        assert!(t.to_markdown().contains("speedup"));
    }

    #[test]
    #[ignore = "acceptance-scale soak; run explicitly with --release -- --ignored"]
    fn acceptance_soak_keeps_sharding_overhead_small() {
        // The flat run is the same pipeline over one shard, plan cache
        // included, so sharding no longer buys a speedup at one thread: on
        // a 2-vCPU Xeon virtual machine the 8-shard run took 0.93–0.94x
        // the flat run's speed. Routing, gateway stitching and per-shard
        // caches must keep costing less than a quarter of the wall clock.
        let points = run(&ShardedStudyConfig::soak());
        for p in &points {
            eprintln!(
                "soak: {} shards frac {:.2}: sharded {:.1} ms vs flat {:.1} ms = {:.2}x, cross exact {}/{}",
                p.shards, p.cross_fraction, p.sharded_wall_ms, p.flat_wall_ms, p.speedup,
                p.cross_stitched_exact, p.cross_sessions
            );
            assert!(p.cross_sessions > 0);
            assert!(p.speedup >= 0.8, "soak speedup {:.2}x < 0.8x", p.speedup);
        }
    }

    #[test]
    fn uncontended_cross_sessions_hit_their_stitched_timing_exactly() {
        // The zero-jitter, zero-contention configuration: a huge mean gap
        // serializes the sessions, so every cross session must land exactly
        // on its stitched analytic R_T/D_T.
        let config = ShardedStudyConfig {
            mean_gap: 100_000.0,
            cross_fractions: vec![0.5],
            sessions: 40,
            ..tiny_config()
        };
        let points = run(&config);
        assert_eq!(points.len(), 1);
        assert!(points[0].cross_sessions > 0);
        assert_eq!(
            points[0].cross_stitched_exact, points[0].cross_sessions,
            "every uncontended cross session must match its stitched timing"
        );
    }
}
