//! The kernel invariant checker over a large traced run: band order,
//! one-port occupancy, per-port FIFO and causality must hold on millions
//! of events, not only on the small scenarios the unit and property tests
//! trace.
//!
//! The soak is `#[ignore]`d (a few seconds in release, about 15 s in a
//! debug build); run it with
//! `cargo test --release -p hnow-sim --test invariant_soak -- --ignored`.
//! A debug build also runs the kernel's `debug_assert!`s over every event:
//! monotone queue pushes, no event popped for an abandoned session, and a
//! NACK-marked miss behind every retransmission. CI runs it in both.

use hnow_core::RepairPlacement;
use hnow_model::{ChunkProfile, NetParams};
use hnow_sim::{LossProfile, RunConfig, ShardedCluster};
use hnow_telemetry::{check_invariants, MemorySink, TelemetryConfig};
use hnow_workload::{default_message_size, two_class_table, NodePool, ShardMap, ShardedPattern};
use std::sync::Arc;

#[test]
#[ignore = "large soak: run with --release -- --ignored"]
fn lossy_chunked_sharded_soak_passes_the_invariant_checker() {
    // 20k sessions over 8 shards with cross-shard traffic, 5% loss repaired
    // at subtree roots, and 8-chunk trains: all three kernel bands (session
    // opens; transfers and chunk releases; NACKs and repairs) are traced.
    let pool = NodePool::new(two_class_table(), default_message_size(), &[32, 16]).unwrap();
    let shards = 8;
    let map = ShardMap::partition(&pool, shards).unwrap();
    let requests = ShardedPattern::poisson(12.0, 6, 0.2)
        .generate(&map, 20_000, 101)
        .unwrap();
    for chunks in [
        ChunkProfile::new(8, 16),
        ChunkProfile::new(8, 16).sequential(),
    ] {
        let sink = Arc::new(MemorySink::new());
        let config = RunConfig::default()
            .sharded(shards)
            .with_loss(LossProfile::iid(0.05, 101))
            .with_repair(RepairPlacement::SubtreeRoot)
            .with_chunks(chunks)
            .telemetry(TelemetryConfig::new().with_sink(sink.clone()));
        let report = ShardedCluster::with_config(&pool, NetParams::new(2), &config)
            .unwrap()
            .run(&requests)
            .unwrap();
        assert!(report.reliability.nacks > 0, "the soak must repair losses");
        let events = sink.take();
        check_invariants(&events).unwrap_or_else(|violation| {
            panic!("{chunks:?}: {violation} ({} events)", events.len())
        });
        eprintln!("{chunks:?}: {} events hold every invariant", events.len());
    }
}
