//! Thread-count-invariance soaks for the sharded cluster: the serialized
//! report must be byte-identical no matter how many rayon workers dispatch
//! the simulation components (the hard invariant of the unified occupancy
//! kernel), while multiple threads make wall-clock progress on a
//! multi-core host.
//!
//! The large acceptance soak (≥8 shards, ≥100k sessions) is `#[ignore]`d;
//! run it with `cargo test --release -p hnow-sim --test parallel_soak --
//! --ignored`.

use hnow_model::{NetParams, Time};
use hnow_sim::{RunConfig, ShardedCluster, TrafficReport};
use hnow_workload::{
    default_message_size, two_class_table, NodePool, SessionRequest, ShardMap, ShardedPattern,
};

/// One deterministic sharded run serialized to JSON under a rayon pool of
/// the given size, plus its wall-clock time.
fn run_serialized(
    pool: &NodePool,
    shards: usize,
    requests: &[SessionRequest],
    threads: usize,
) -> (String, std::time::Duration) {
    let config = RunConfig::default().sharded(shards).with_threads(threads);
    let started = std::time::Instant::now();
    let report: TrafficReport = ShardedCluster::with_config(pool, NetParams::new(2), &config)
        .unwrap()
        .run(requests)
        .unwrap();
    let elapsed = started.elapsed();
    (serde_json::to_string(&report).unwrap(), elapsed)
}

/// Intra-shard-only traffic (cross fraction 0) over `shards` shards, with
/// arrivals compressed enough to keep every shard's nodes contended.
fn soak_requests(
    pool: &NodePool,
    shards: usize,
    sessions: usize,
    seed: u64,
) -> Vec<SessionRequest> {
    let map = ShardMap::partition(pool, shards).unwrap();
    let mut requests = ShardedPattern::poisson(2.0, 5, 0.0)
        .generate(&map, sessions, seed)
        .unwrap();
    // A third of the stream is impatient so the churn gate's tie-breaks
    // are exercised at scale too.
    for (i, r) in requests.iter_mut().enumerate() {
        r.patience = (i % 3 == 0).then_some(Time::new(200));
    }
    requests
}

#[test]
fn sharded_reports_are_byte_identical_across_thread_counts() {
    let pool = NodePool::new(two_class_table(), default_message_size(), &[64, 32]).unwrap();
    let requests = soak_requests(&pool, 8, 10_000, 7);
    let (one, _) = run_serialized(&pool, 8, &requests, 1);
    for threads in [2, 4, 8] {
        let (many, _) = run_serialized(&pool, 8, &requests, threads);
        assert_eq!(
            one, many,
            "report bytes diverged between 1 and {threads} threads"
        );
    }
}

#[test]
#[ignore = "acceptance soak: run with --release -- --ignored"]
fn acceptance_soak_is_byte_identical_and_scales() {
    // ≥8 shards, ≥100k sessions, no cross traffic — 8 node-disjoint
    // components, so an 8-thread pool can run all of them concurrently.
    let pool = NodePool::new(two_class_table(), default_message_size(), &[256, 128]).unwrap();
    let requests = soak_requests(&pool, 8, 120_000, 42);
    let (one, t1) = run_serialized(&pool, 8, &requests, 1);
    let (eight, t8) = run_serialized(&pool, 8, &requests, 8);
    assert_eq!(one, eight, "report bytes diverged between 1 and 8 threads");
    eprintln!("soak wall-clock: 1 thread {t1:?}, 8 threads {t8:?}");
    // The speedup assertion needs real cores: on a single-CPU host the 8
    // workers time-slice one core and can only tie (plus scheduling
    // noise), which proves determinism but not scaling.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 2 {
        assert!(
            t8 < t1,
            "8 threads over 8 disjoint components must beat sequential \
             wall-clock on a {cores}-core host (1 thread {t1:?}, 8 threads {t8:?})"
        );
    } else {
        eprintln!("single-core host: skipping the wall-clock speedup assertion");
    }
}
