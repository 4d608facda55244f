//! Drives the session service — one shard by default, a sharded cluster
//! with `--shards N` — and prints its report.
//!
//! Usage:
//!
//! ```text
//! traffic_demo [--sessions N] [--seed S] [--planner NAME] [--mean-gap G]
//!              [--group N] [--churn] [--shards N] [--cross-shard-frac F]
//!              [--policy NAME] [--rebalance] [--loss RATE] [--repair NAME]
//!              [--chunks N] [--chunk-interval T] [--sequential]
//!              [--threads N] [--out PATH] [--trace PATH]
//! ```
//!
//! A seeded Poisson session stream (default: 1000 sessions, mean gap 12,
//! groups of 6) is offered to a 48-node two-class cluster and served by the
//! chosen planner (default `greedy+leaf`). With `--shards N` (N ≥ 2) the
//! pool is partitioned into N class-aware shards, and
//! `--cross-shard-frac F` makes the given fraction of sessions span at
//! least two shards (gateway-stitched planning; requires `--shards`).
//! `--policy NAME` turns the run into the online control-plane loop
//! (epoch-batched admission with the named gateway policy —
//! `fastest-member`, `load-aware` or `stitched-rt-min`) and
//! `--rebalance` additionally enables the hysteresis-gated shard
//! rebalancer (implies the default policy when `--policy` is omitted;
//! both require `--shards`). `--loss RATE` injects seeded iid message loss
//! at the given rate (keyed off the run seed) with NACK-driven repair, and
//! `--repair NAME` picks the repairer placement (`source-only`,
//! `subtree-root`, `fastest-in-subtree` or `gateway`; default
//! `source-only`; requires `--loss`). `--chunks N` streams every session
//! as a train of N chunks released every `--chunk-interval T` ticks
//! (default 25; requires `--chunks`), pipelined through the session's tree
//! unless `--sequential` asks for one-shot re-sends per chunk; the report
//! gains a streaming section (steady-state throughput, deadline misses,
//! inter-chunk jitter). `--threads N` runs the whole pipeline inside a
//! rayon pool of N worker threads (0 = automatic). Either way the run
//! is deterministic: the same arguments — at *any* `--threads` value —
//! always produce a byte-identical report, which `--out` writes as JSON.
//! `--churn` makes 30% of the sessions impatient. `--trace PATH` attaches
//! an in-memory kernel trace sink and writes the collected event stream to
//! PATH as Chrome `trace_event` JSON (load it in `chrome://tracing` or
//! Perfetto: one process per shard, one thread lane per node port);
//! tracing is observation-only, so the report — and `--out` — stay
//! byte-identical with the flag on or off.
//!
//! Every flag maps 1:1 onto a [`RunConfig`] field, so a demo invocation is
//! a readable specification of the engine configuration it measured.

use hnow_core::RepairPlacement;
use hnow_model::{ChunkProfile, NetParams};
use hnow_sim::cluster::{ControlConfig, RebalanceConfig, ShardedCluster};
use hnow_sim::{LossProfile, ReliabilityReport, RunConfig, StreamingReport};
use hnow_telemetry::{chrome_trace_json, MemorySink, TelemetryConfig};
use hnow_workload::traffic::{ChurnProfile, NodePool, TrafficPattern};
use hnow_workload::{default_message_size, two_class_table, ShardMap, ShardedPattern};
use std::process::ExitCode;
use std::sync::Arc;

/// Parses a flag's value, exiting with a diagnostic on malformed input —
/// silently substituting a default would misreport what was measured.
fn parse<T: std::str::FromStr>(what: &str, raw: String) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{what} requires a valid value, got {raw:?}");
        std::process::exit(2);
    })
}

fn main() -> ExitCode {
    let mut sessions = 1000usize;
    let mut seed = 0u64;
    let mut planner = String::from("greedy+leaf");
    let mut mean_gap = 12.0f64;
    let mut group = 6usize;
    let mut churn = false;
    let mut shards = 1usize;
    let mut cross_frac: Option<f64> = None;
    let mut policy: Option<String> = None;
    let mut rebalance = false;
    let mut loss: Option<f64> = None;
    let mut repair: Option<String> = None;
    let mut chunks: Option<u32> = None;
    let mut chunk_interval: Option<u64> = None;
    let mut sequential = false;
    let mut threads: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{what} requires an argument");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--sessions" => sessions = parse("--sessions", take("--sessions")),
            "--seed" => seed = parse("--seed", take("--seed")),
            "--planner" => planner = take("--planner"),
            "--mean-gap" => mean_gap = parse("--mean-gap", take("--mean-gap")),
            "--group" => group = parse("--group", take("--group")),
            "--churn" => churn = true,
            "--shards" => shards = parse("--shards", take("--shards")),
            "--cross-shard-frac" => {
                cross_frac = Some(parse("--cross-shard-frac", take("--cross-shard-frac")));
            }
            "--policy" => policy = Some(take("--policy")),
            "--rebalance" => rebalance = true,
            "--loss" => loss = Some(parse("--loss", take("--loss"))),
            "--repair" => repair = Some(take("--repair")),
            "--chunks" => chunks = Some(parse("--chunks", take("--chunks"))),
            "--chunk-interval" => {
                chunk_interval = Some(parse("--chunk-interval", take("--chunk-interval")));
            }
            "--sequential" => sequential = true,
            "--threads" => threads = Some(parse("--threads", take("--threads"))),
            "--out" => out = Some(take("--out")),
            "--trace" => trace_out = Some(take("--trace")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: traffic_demo [--sessions N] [--seed S] [--planner NAME] \
                     [--mean-gap G] [--group N] [--churn] [--shards N] \
                     [--cross-shard-frac F] [--policy NAME] [--rebalance] \
                     [--loss RATE] [--repair NAME] [--chunks N] [--chunk-interval T] \
                     [--sequential] [--threads N] [--out PATH] [--trace PATH]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if shards == 0 {
        eprintln!("--shards requires at least 1 shard");
        return ExitCode::FAILURE;
    }
    if cross_frac.is_some() && shards < 2 {
        eprintln!("--cross-shard-frac requires --shards with at least 2 shards");
        return ExitCode::FAILURE;
    }
    if cross_frac.is_some_and(|f| !(0.0..=1.0).contains(&f) || !f.is_finite()) {
        eprintln!("--cross-shard-frac must be a finite value in [0, 1]");
        return ExitCode::FAILURE;
    }
    if (policy.is_some() || rebalance) && shards < 2 {
        eprintln!("--policy and --rebalance require --shards with at least 2 shards");
        return ExitCode::FAILURE;
    }
    if loss.is_some_and(|rate| !(0.0..=1.0).contains(&rate) || !rate.is_finite()) {
        eprintln!("--loss must be a finite rate in [0, 1]");
        return ExitCode::FAILURE;
    }
    if repair.is_some() && loss.is_none() {
        eprintln!("--repair requires --loss");
        return ExitCode::FAILURE;
    }
    if chunks == Some(0) {
        eprintln!("--chunks requires at least 1 chunk");
        return ExitCode::FAILURE;
    }
    if (chunk_interval.is_some() || sequential) && chunks.is_none() {
        eprintln!("--chunk-interval and --sequential require --chunks");
        return ExitCode::FAILURE;
    }
    let placement = match repair.as_deref() {
        None => RepairPlacement::SourceOnly,
        Some(name) => match RepairPlacement::from_name(name) {
            Some(placement) => placement,
            None => {
                eprintln!(
                    "--repair: unknown placement {name:?} (expected one of {})",
                    hnow_core::schedule::REPAIR_PLACEMENTS.join(", ")
                );
                std::process::exit(2);
            }
        },
    };
    // The loss draws are keyed off the run seed, so a lossy run is as
    // reproducible as a lossless one.
    let faults = loss.map(|rate| LossProfile::iid(rate, seed));
    let control = (policy.is_some() || rebalance).then(|| ControlConfig {
        policy: policy.unwrap_or_else(|| String::from("fastest-member")),
        rebalance: rebalance.then(RebalanceConfig::default),
        ..ControlConfig::default()
    });
    let profile = chunks.map(|n| {
        let p = ChunkProfile::new(n, chunk_interval.unwrap_or(25));
        if sequential {
            p.sequential()
        } else {
            p
        }
    });

    // Every flag lands on one unified RunConfig, served by the one
    // session pipeline.
    let mut config = RunConfig::for_planner(&planner).sharded(shards);
    config.loss = faults;
    config.repair = placement;
    config.chunks = profile;
    config.threads = threads;
    config.control = control;
    // Observation-only: attaching the sink never changes the report.
    let sink = trace_out
        .map(|path| (path, Arc::new(MemorySink::new())))
        .inspect(|(_, sink)| {
            config.telemetry = Some(TelemetryConfig::new().with_sink(sink.clone()));
        });

    let pool = match NodePool::new(two_class_table(), default_message_size(), &[32, 16]) {
        Ok(pool) => pool,
        Err(err) => {
            eprintln!("failed to build the pool: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut pattern = TrafficPattern::poisson(mean_gap, group);
    if churn {
        pattern.churn = Some(ChurnProfile {
            impatient_fraction: 0.3,
            mean_patience: 4.0 * mean_gap,
        });
    }

    run(
        &pool,
        pattern,
        sessions,
        seed,
        &config,
        cross_frac.unwrap_or(0.0),
        out,
        sink,
    )
}

/// Exports the collected trace as Chrome `trace_event` JSON (no-op without
/// `--trace`).
fn write_trace(trace: Option<(String, Arc<MemorySink>)>) -> Result<(), ExitCode> {
    if let Some((path, sink)) = trace {
        let events = sink.take();
        if let Err(err) = std::fs::write(&path, chrome_trace_json(&events) + "\n") {
            eprintln!("failed to write {path}: {err}");
            return Err(ExitCode::FAILURE);
        }
        println!("wrote {} trace events to {path}", events.len());
    }
    Ok(())
}

/// Prints the reliability section of a lossy run's report.
fn print_reliability(rel: &ReliabilityReport, placement: RepairPlacement) {
    println!(
        "  reliability ({}): delivered {:.4}  residual {:.4}  degraded {}  failed {}",
        placement.name(),
        rel.delivered_fraction,
        rel.residual_loss,
        rel.degraded_sessions,
        rel.failed
    );
    println!(
        "  repair: {} nacks, {} retransmissions, recovery delay p50 {} p95 {} p99 {}",
        rel.nacks,
        rel.repair_sends,
        rel.p50_repair_delay,
        rel.p95_repair_delay,
        rel.p99_repair_delay
    );
}

/// Prints the streaming section of a chunked run's report (no-op when the
/// run carried no chunk trains).
fn print_streaming(streaming: &StreamingReport) {
    if streaming.streaming_sessions == 0 {
        return;
    }
    println!(
        "  streaming: {} sessions, {} chunks offered, throughput {:.3} chunk-deliveries/kilotick",
        streaming.streaming_sessions, streaming.offered_chunks, streaming.steady_state_throughput
    );
    println!(
        "  deadline misses {} ({:.4})   inter-chunk jitter p50 {} p95 {} p99 {}",
        streaming.deadline_misses,
        streaming.deadline_miss_rate,
        streaming.p50_interchunk_jitter,
        streaming.p95_interchunk_jitter,
        streaming.p99_interchunk_jitter
    );
}

/// Generates the traffic (cross-shard-aware over two or more shards),
/// serves it through the session pipeline and prints the report.
#[allow(clippy::too_many_arguments)]
fn run(
    pool: &NodePool,
    base: TrafficPattern,
    sessions: usize,
    seed: u64,
    config: &RunConfig,
    cross_frac: f64,
    out: Option<String>,
    trace: Option<(String, Arc<MemorySink>)>,
) -> ExitCode {
    let generated = if config.shards >= 2 {
        ShardMap::partition(pool, config.shards)
            .map_err(|err| format!("failed to partition the pool: {err}"))
            .and_then(|map| {
                let pattern = ShardedPattern {
                    base,
                    cross_shard_fraction: cross_frac,
                };
                pattern
                    .generate(&map, sessions, seed)
                    .map_err(|err| format!("failed to generate traffic: {err}"))
            })
    } else {
        base.generate(pool, sessions, seed)
            .map_err(|err| format!("failed to generate traffic: {err}"))
    };
    let requests = match generated {
        Ok(requests) => requests,
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::FAILURE;
        }
    };
    let report = match ShardedCluster::with_config(pool, NetParams::new(2), config)
        .and_then(|cluster| cluster.run(&requests))
    {
        Ok(report) => report,
        Err(err) => {
            eprintln!("traffic run failed: {err}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "planner {} served {} sessions over {} nodes in {} shard(s) (seed {seed})",
        report.planner,
        report.sessions,
        pool.len(),
        report.shards
    );
    println!(
        "  completed {}  abandoned {}  makespan {}  cross-shard {} ({:.3})",
        report.total.completed,
        report.total.abandoned,
        report.total.makespan,
        report.cross_sessions,
        report.observed_cross_fraction
    );
    println!(
        "  throughput {:.3} sessions/kilotick   utilization mean {:.3} peak {:.3}   components {}",
        report.total.throughput_per_kilotick,
        report.total.mean_node_utilization,
        report.total.peak_node_utilization,
        report.components
    );
    println!(
        "  reception latency mean {:.1}  p50 {}  p99 {}   queue delay mean {:.1}",
        report.total.mean_reception_latency,
        report.total.p50_reception_latency,
        report.total.p99_reception_latency,
        report.total.mean_queue_delay
    );
    if let Some(control) = &report.control {
        println!(
            "  control: policy {}  admitted {}  reordered {}  shed {}  migrations {}  cache invalidations {}",
            control.policy,
            control.admitted,
            control.reordered,
            control.shed,
            control.migrations.len(),
            control.plan_cache_invalidations
        );
    }
    if config.loss.is_some() {
        print_reliability(&report.reliability, config.repair);
    }
    print_streaming(&report.streaming);
    for shard in &report.per_shard {
        println!(
            "  shard {}: {} nodes, {} sessions, p99 {}, dp hit rate {:.3} ({} evictions), {} plan signatures ({} evictions)",
            shard.shard,
            shard.nodes,
            shard.metrics.sessions,
            shard.metrics.p99_reception_latency,
            shard.dp_hit_rate,
            shard.dp_cache.evictions,
            shard.plan_signatures,
            shard.plan_cache.evictions
        );
    }

    if let Err(code) = write_trace(trace) {
        return code;
    }
    write_json(out, &report)
}

/// Serializes a report to `--out` as pretty JSON (no-op without `--out`).
fn write_json<T: serde::Serialize>(out: Option<String>, report: &T) -> ExitCode {
    if let Some(path) = out {
        let json = match serde_json::to_string_pretty(report) {
            Ok(json) => json,
            Err(err) => {
                eprintln!("failed to serialize report: {err}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(err) = std::fs::write(&path, json + "\n") {
            eprintln!("failed to write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("wrote report to {path}");
    }
    ExitCode::SUCCESS
}
