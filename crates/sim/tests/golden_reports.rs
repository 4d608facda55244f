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
//!
//! Each configuration also runs once with a [`MemorySink`] attached, and
//! its kernel trace stream is pinned by `tests/golden/traces.txt`: one line
//! `<name> <event count> <digest>` per configuration. The traces are far
//! over the report budget, so only an FNV-1a-64 digest of every field of
//! every event, in emission order, is checked in. The same
//! `UPDATE_GOLDEN=1` run rewrites it.

use hnow_core::RepairPlacement;
use hnow_model::{ChunkProfile, NetParams};
use hnow_sim::cluster::{ControlConfig, RebalanceConfig, ShardedCluster};
use hnow_sim::sessions::TrafficEngine;
use hnow_sim::{BurstProfile, LossProfile, RunConfig};
use hnow_telemetry::{MemorySink, TelemetryConfig, TraceEvent};
use hnow_workload::{
    default_message_size, two_class_table, ChurnProfile, GroupSizeDist, HotSpotPattern, NodePool,
    SessionRequest, ShardMap, ShardedPattern, TrafficPattern,
};
use std::path::PathBuf;
use std::sync::Arc;

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

/// Churny rotating hot spots: admission sheds and reorders, and the
/// rebalancer migrates between epochs.
fn hot_requests(pool: &NodePool) -> Vec<SessionRequest> {
    let map = ShardMap::partition(pool, 4).unwrap();
    let mut pattern = HotSpotPattern::bursty(4, 30, 2, 4, 16, 0.8);
    pattern.base.churn = Some(ChurnProfile {
        impatient_fraction: 0.5,
        mean_patience: 120.0,
    });
    pattern.generate(&map, 40, 101).unwrap()
}

fn lossy(config: RunConfig) -> RunConfig {
    config
        .with_loss(LossProfile::iid(0.05, 101))
        .with_repair(RepairPlacement::SubtreeRoot)
}

fn chunked(config: RunConfig) -> RunConfig {
    lossy(config).with_chunks(ChunkProfile::new(8, 8).with_deadline(6000))
}

/// 30% bursty loss with two retries, a repair deadline and sequential
/// 4-chunk trains on the sharded stream: give-ups, escalation past failed
/// repairers, deadline expiry and repair requests parked on unreached
/// repairers all show up in the records.
fn heavy(repair: RepairPlacement) -> RunConfig {
    let burst = BurstProfile {
        frequency: 0.3,
        rate: 0.7,
        bucket: 64,
    };
    RunConfig::default()
        .sharded(4)
        .with_loss(LossProfile {
            max_retries: 2,
            repair_deadline: Some(400),
            ..LossProfile::iid(0.3, 101).with_burst(burst)
        })
        .with_repair(repair)
        .with_chunks(ChunkProfile::new(4, 8).sequential())
}

fn series(config: RunConfig) -> RunConfig {
    config.telemetry(TelemetryConfig::new().with_timeseries(64))
}

/// The engine entry point a golden configuration runs through.
enum Entry {
    Flat,
    Sharded(fn(&NodePool) -> Vec<SessionRequest>),
}

/// The golden configuration named `name`.
fn configuration(name: &str) -> (RunConfig, Entry) {
    match name {
        "flat_lossless" => (RunConfig::for_planner("dp-optimal"), Entry::Flat),
        "flat_lossy" => (series(lossy(RunConfig::default())), Entry::Flat),
        "flat_chunked" => (chunked(RunConfig::default()), Entry::Flat),
        "sharded_lossless" => (
            RunConfig::for_planner("dp-optimal").sharded(4),
            Entry::Sharded(sharded_requests),
        ),
        "sharded_lossy" => (
            series(lossy(RunConfig::default().sharded(4))),
            Entry::Sharded(sharded_requests),
        ),
        "sharded_chunked" => (
            chunked(RunConfig::default().sharded(4)),
            Entry::Sharded(sharded_requests),
        ),
        "sharded_controlled" => {
            let config = RunConfig::default().sharded(4).with_control(ControlConfig {
                epoch: 8,
                admission: true,
                policy: "load-aware".to_string(),
                rebalance: Some(RebalanceConfig {
                    enter_gap: 1.0,
                    exit_gap: 0.5,
                    max_moves: 1,
                    min_shard_nodes: 2,
                }),
            });
            (series(config), Entry::Sharded(hot_requests))
        }
        "sharded_lossy_gateway" => (
            lossy(RunConfig::default().sharded(4)).with_repair(RepairPlacement::Gateway),
            Entry::Sharded(sharded_requests),
        ),
        "sharded_lossy_fastest" => (
            lossy(RunConfig::default().sharded(4)).with_repair(RepairPlacement::FastestInSubtree),
            Entry::Sharded(sharded_requests),
        ),
        "sharded_heavy_source" => (
            heavy(RepairPlacement::SourceOnly),
            Entry::Sharded(sharded_requests),
        ),
        "sharded_heavy_subtree" => (
            heavy(RepairPlacement::SubtreeRoot),
            Entry::Sharded(sharded_requests),
        ),
        "sharded_heavy_fastest" => (
            heavy(RepairPlacement::FastestInSubtree),
            Entry::Sharded(sharded_requests),
        ),
        "sharded_heavy_gateway" => (
            heavy(RepairPlacement::Gateway),
            Entry::Sharded(sharded_requests),
        ),
        _ => panic!("no golden configuration named {name}"),
    }
}

/// Every golden configuration, in `traces.txt` order.
const NAMES: [&str; 13] = [
    "flat_lossless",
    "flat_lossy",
    "flat_chunked",
    "sharded_lossless",
    "sharded_lossy",
    "sharded_chunked",
    "sharded_controlled",
    "sharded_lossy_gateway",
    "sharded_lossy_fastest",
    "sharded_heavy_source",
    "sharded_heavy_subtree",
    "sharded_heavy_fastest",
    "sharded_heavy_gateway",
];

/// Runs `config` through `entry` and pretty-prints the report.
fn report(config: &RunConfig, entry: &Entry) -> String {
    let pool = pool();
    let report = match entry {
        Entry::Flat => TrafficEngine::with_config(&pool, NetParams::new(LATENCY), config)
            .run(&flat_requests(&pool))
            .unwrap(),
        Entry::Sharded(requests) => {
            ShardedCluster::with_config(&pool, NetParams::new(LATENCY), config)
                .unwrap()
                .run(&requests(&pool))
                .unwrap()
        }
    };
    serde_json::to_string_pretty(&report).unwrap()
}

/// Compares `text` with `tests/golden/<file>`, or rewrites the file when
/// `UPDATE_GOLDEN=1`.
fn compare(file: &str, text: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", file]
        .iter()
        .collect();
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!(
            "{}: {err}; run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if golden != text {
        let line = golden
            .lines()
            .zip(text.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| golden.lines().count().min(text.lines().count()));
        panic!(
            "{file} differs from {} at line {}: golden {:?}, now {:?}; \
             rerun with UPDATE_GOLDEN=1 and review the diff if the change is intended",
            path.display(),
            line + 1,
            golden.lines().nth(line),
            text.lines().nth(line)
        );
    }
}

/// Runs the golden configuration `name` and compares its report with
/// `tests/golden/<name>.json`.
fn check(name: &str) {
    let (config, entry) = configuration(name);
    let json = report(&config, &entry) + "\n";
    assert!(
        json.len() <= MAX_GOLDEN_BYTES,
        "{name}: {} bytes exceeds the {MAX_GOLDEN_BYTES}-byte golden budget",
        json.len()
    );
    compare(&format!("{name}.json"), &json);
}

/// FNV-1a-64 over every field of every event, in emission order. The
/// algorithm is fixed, unlike `DefaultHasher`'s, so a digest never moves
/// with the toolchain. Options hash as a tag byte plus the value; integers
/// as little-endian `u64`s, apart from the one-byte kind and band.
fn digest(events: &[TraceEvent]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for &TraceEvent {
        time,
        kind,
        session,
        node,
        shard,
        band,
        chunk,
        seq,
        dur,
    } in events
    {
        eat(&time.to_le_bytes());
        eat(&[kind as u8]);
        eat(&session.to_le_bytes());
        for port in [node, shard] {
            match port {
                Some(id) => {
                    eat(&[1]);
                    eat(&(id as u64).to_le_bytes());
                }
                None => eat(&[0]),
            }
        }
        eat(&[band]);
        eat(&u64::from(chunk).to_le_bytes());
        eat(&seq.to_le_bytes());
        eat(&dur.to_le_bytes());
    }
    hash
}

#[test]
fn flat_lossless_report_matches_its_golden() {
    check("flat_lossless");
}

#[test]
fn flat_lossy_report_matches_its_golden() {
    check("flat_lossy");
}

#[test]
fn flat_chunked_report_matches_its_golden() {
    check("flat_chunked");
}

#[test]
fn sharded_lossless_report_matches_its_golden() {
    check("sharded_lossless");
}

#[test]
fn sharded_lossy_report_matches_its_golden() {
    check("sharded_lossy");
}

#[test]
fn sharded_chunked_report_matches_its_golden() {
    check("sharded_chunked");
}

#[test]
fn sharded_controlled_report_matches_its_golden() {
    check("sharded_controlled");
}

#[test]
fn sharded_lossy_gateway_report_matches_its_golden() {
    check("sharded_lossy_gateway");
}

#[test]
fn sharded_lossy_fastest_report_matches_its_golden() {
    check("sharded_lossy_fastest");
}

#[test]
fn sharded_heavy_source_report_matches_its_golden() {
    check("sharded_heavy_source");
}

#[test]
fn sharded_heavy_subtree_report_matches_its_golden() {
    check("sharded_heavy_subtree");
}

#[test]
fn sharded_heavy_fastest_report_matches_its_golden() {
    check("sharded_heavy_fastest");
}

#[test]
fn sharded_heavy_gateway_report_matches_its_golden() {
    check("sharded_heavy_gateway");
}

#[test]
fn kernel_traces_match_their_digests() {
    let lines: String = NAMES
        .iter()
        .map(|&name| {
            let (config, entry) = configuration(name);
            let sink = Arc::new(MemorySink::new());
            let telemetry = config
                .telemetry
                .clone()
                .unwrap_or_default()
                .with_sink(sink.clone());
            let traced = report(&config.clone().telemetry(telemetry), &entry);
            assert_eq!(
                traced,
                report(&config, &entry),
                "{name}: attaching a trace sink changed the report"
            );
            let events = sink.take();
            format!("{name} {} {:016x}\n", events.len(), digest(&events))
        })
        .collect();
    compare("traces.txt", &lines);
}
