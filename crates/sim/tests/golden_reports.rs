//! Golden reports: small seeded runs of both engine entry points whose
//! pretty-printed JSON reports are checked in under `tests/golden/` and
//! compared byte for byte.
//!
//! The cross-thread `cmp` gates compare a binary with itself, so they
//! cannot see a deterministic change of behaviour between two versions of
//! the code. These files can: any change to a report byte fails here, and
//! the diff of the regenerated files shows exactly what moved. To accept an
//! intended change, regenerate them with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p hnow-sim --test golden_reports
//! ```
//!
//! and review the diff. Each file stays under 50 kB.

use hnow_core::RepairPlacement;
use hnow_model::{ChunkProfile, NetParams};
use hnow_sim::cluster::{ControlConfig, RebalanceConfig, ShardedCluster};
use hnow_sim::sessions::TrafficEngine;
use hnow_sim::{LossProfile, RunConfig};
use hnow_telemetry::TelemetryConfig;
use hnow_workload::{
    default_message_size, two_class_table, ChurnProfile, GroupSizeDist, HotSpotPattern, NodePool,
    SessionRequest, ShardMap, ShardedPattern, TrafficPattern,
};
use std::path::PathBuf;

/// Largest checked-in golden, in bytes.
const MAX_GOLDEN_BYTES: usize = 50_000;
/// Network latency of every golden run.
const LATENCY: u64 = 2;

fn pool() -> NodePool {
    NodePool::new(two_class_table(), default_message_size(), &[12, 8]).unwrap()
}

/// A contended flat stream with a third of the sessions impatient, so
/// queueing and the churn gate both show up in the records.
fn flat_requests(pool: &NodePool) -> Vec<SessionRequest> {
    let pattern = TrafficPattern {
        arrivals: hnow_workload::ArrivalProfile::Poisson { mean_gap: 4.0 },
        group_size: GroupSizeDist::Uniform { min: 3, max: 6 },
        class_weights: None,
        churn: Some(ChurnProfile {
            impatient_fraction: 0.3,
            mean_patience: 30.0,
        }),
    };
    pattern.generate(pool, 36, 101).unwrap()
}

/// A 4-shard stream with 30% cross-shard sessions.
fn sharded_requests(pool: &NodePool) -> Vec<SessionRequest> {
    let map = ShardMap::partition(pool, 4).unwrap();
    ShardedPattern::poisson(4.0, 5, 0.3)
        .generate(&map, 32, 101)
        .unwrap()
}

fn lossy(config: RunConfig) -> RunConfig {
    config
        .with_loss(LossProfile::iid(0.05, 101))
        .with_repair(RepairPlacement::SubtreeRoot)
}

fn chunked(config: RunConfig) -> RunConfig {
    lossy(config).with_chunks(ChunkProfile::new(8, 8).with_deadline(6000))
}

fn flat(config: &RunConfig) -> String {
    let pool = pool();
    let report = TrafficEngine::with_config(&pool, NetParams::new(LATENCY), config)
        .run(&flat_requests(&pool))
        .unwrap();
    serde_json::to_string_pretty(&report).unwrap()
}

fn sharded(config: &RunConfig, requests: impl Fn(&NodePool) -> Vec<SessionRequest>) -> String {
    let pool = pool();
    let report = ShardedCluster::with_config(&pool, NetParams::new(LATENCY), config)
        .unwrap()
        .run(&requests(&pool))
        .unwrap();
    serde_json::to_string_pretty(&report).unwrap()
}

/// Compares `json` with `tests/golden/<name>.json`, or rewrites the file
/// when `UPDATE_GOLDEN=1`.
fn check(name: &str, json: String) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden"]
        .iter()
        .collect::<PathBuf>()
        .join(format!("{name}.json"));
    let json = json + "\n";
    assert!(
        json.len() <= MAX_GOLDEN_BYTES,
        "{name}: {} bytes exceeds the {MAX_GOLDEN_BYTES}-byte golden budget",
        json.len()
    );
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &json).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!(
            "{}: {err}; run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if golden != json {
        let line = golden
            .lines()
            .zip(json.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| golden.lines().count().min(json.lines().count()));
        panic!(
            "{name}: report differs from {} at line {}: golden {:?}, now {:?}; \
             rerun with UPDATE_GOLDEN=1 and review the diff if the change is intended",
            path.display(),
            line + 1,
            golden.lines().nth(line),
            json.lines().nth(line)
        );
    }
}

#[test]
fn flat_lossless_report_matches_its_golden() {
    check("flat_lossless", flat(&RunConfig::for_planner("dp-optimal")));
}

#[test]
fn flat_lossy_report_matches_its_golden() {
    let config = lossy(RunConfig::default()).telemetry(TelemetryConfig::new().with_timeseries(64));
    check("flat_lossy", flat(&config));
}

#[test]
fn flat_chunked_report_matches_its_golden() {
    check("flat_chunked", flat(&chunked(RunConfig::default())));
}

#[test]
fn sharded_lossless_report_matches_its_golden() {
    let config = RunConfig::for_planner("dp-optimal").sharded(4);
    check("sharded_lossless", sharded(&config, sharded_requests));
}

#[test]
fn sharded_lossy_report_matches_its_golden() {
    let config = lossy(RunConfig::default().sharded(4))
        .telemetry(TelemetryConfig::new().with_timeseries(64));
    check("sharded_lossy", sharded(&config, sharded_requests));
}

#[test]
fn sharded_chunked_report_matches_its_golden() {
    let config = chunked(RunConfig::default().sharded(4));
    check("sharded_chunked", sharded(&config, sharded_requests));
}

#[test]
fn sharded_controlled_report_matches_its_golden() {
    // Churny rotating hot spots: admission sheds and reorders, and the
    // rebalancer migrates between epochs.
    let hot = |pool: &NodePool| {
        let map = ShardMap::partition(pool, 4).unwrap();
        let mut pattern = HotSpotPattern::bursty(4, 30, 2, 4, 16, 0.8);
        pattern.base.churn = Some(ChurnProfile {
            impatient_fraction: 0.5,
            mean_patience: 120.0,
        });
        pattern.generate(&map, 40, 101).unwrap()
    };
    let config = RunConfig::default()
        .sharded(4)
        .with_control(ControlConfig {
            epoch: 8,
            admission: true,
            policy: "load-aware".to_string(),
            rebalance: Some(RebalanceConfig {
                enter_gap: 1.0,
                exit_gap: 0.5,
                max_moves: 1,
                min_shard_nodes: 2,
            }),
        })
        .telemetry(TelemetryConfig::new().with_timeseries(64));
    check("sharded_controlled", sharded(&config, hot));
}
