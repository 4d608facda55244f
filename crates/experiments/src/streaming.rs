//! Experiment E14 — chunked streaming sessions: pipelined chunk trains vs
//! sequential re-sends, swept over chunk count and injected loss.
//!
//! A streaming session moves its payload as a train of chunks released
//! every `interval` ticks. The kernel offers two disciplines: *pipelined*
//! (the streaming default) opens chunk `c + 1` as soon as its release time
//! arrives, so consecutive chunks overlap in the tree wherever ports are
//! free; *sequential* holds chunk `c + 1` back until chunk `c` has settled
//! group-wide, so the train degenerates to back-to-back one-shot
//! multicasts. Both run the same `(time, band, seq)` tie-break and the same
//! one-port occupancy, and per-chunk NACK/repair rides the PR 8 fault
//! bands, so a lost chunk degrades only itself.
//!
//! Every point serves one offered request vector (same arrivals, same
//! groups), and the points of one chunk count and loss rate share their
//! loss draws, so the sweep varies only the release discipline. Expected
//! shape — and the pinned acceptance claim — is that pipelining strictly
//! wins steady-state throughput once the train is long enough to overlap
//! (≥ 4 chunks), lossless and at 5% injected loss alike:
//! a sequential train serializes `chunks` full settle rounds on the
//! session's critical path, while the pipelined train hides all but the
//! last round behind the release schedule.

use crate::table::Table;
use hnow_core::RepairPlacement;
use hnow_model::{ChunkProfile, NetParams};
use hnow_sim::{LossProfile, RunConfig, TrafficEngine};
use hnow_workload::traffic::NodePool;
use hnow_workload::{default_message_size, two_class_table, GroupSizeDist, TrafficPattern};
use serde::Serialize;

/// Release disciplines swept by the study.
pub const MODES: [&str; 2] = ["pipelined", "sequential"];

/// Configuration of the streaming study.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StreamingStudyConfig {
    /// Fast-class and slow-class node counts of the pool.
    pub pool_counts: [usize; 2],
    /// Sessions offered per point (every point serves the same arrival
    /// vector).
    pub sessions: usize,
    /// Mean inter-arrival gap of the Poisson request stream.
    pub mean_gap: f64,
    /// Destination-group size range (uniform, inclusive).
    pub group: (usize, usize),
    /// Chunk counts swept (1 is the atomic sanity row: the disciplines
    /// coincide byte for byte).
    pub chunk_counts: Vec<u32>,
    /// Release interval between consecutive chunks, in time units.
    pub interval: u64,
    /// Per-chunk playout deadline past each chunk's release.
    pub deadline: Option<u64>,
    /// Base iid loss rates swept (0 is the lossless row).
    pub rates: Vec<f64>,
    /// Repair retransmissions allowed per receiver before giving up.
    pub max_retries: u32,
    /// Base retry backoff in time units.
    pub backoff: u64,
    /// Network latency `L`.
    pub latency: u64,
    /// Seed of the request stream.
    pub seed: u64,
    /// Seed of the keyed loss draws.
    pub fault_seed: u64,
    /// Registry planner serving every point.
    pub planner: String,
}

impl Default for StreamingStudyConfig {
    /// The pinned CI-sized preset: 20 nodes, 80 sessions arriving slowly
    /// enough (mean gap 60) that each session's duration is dominated by
    /// its own critical path rather than pool saturation — under heavy
    /// contention both disciplines drain the same queued work and the
    /// comparison washes out. Chunk trains of 1/2/4/8 are released every 8
    /// ticks, far under one settle round (a legacy receive alone costs
    /// 135), so a sequential train visibly stalls its own tail; the
    /// 600-tick playout deadline is missed only by pathological stalls.
    /// The seeds are part of the preset: the headline
    /// pipelined-vs-sequential strict win is a claim about this exact
    /// request vector and these exact loss draws.
    fn default() -> Self {
        StreamingStudyConfig {
            pool_counts: [12, 8],
            sessions: 80,
            mean_gap: 60.0,
            group: (3, 7),
            chunk_counts: vec![1, 2, 4, 8],
            interval: 8,
            deadline: Some(600),
            rates: vec![0.0, 0.05],
            max_retries: 3,
            backoff: 4,
            latency: 2,
            seed: 29,
            fault_seed: 31,
            planner: "greedy+leaf".to_string(),
        }
    }
}

/// One `(chunks, mode, rate)` outcome on the shared arrival vector.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StreamingPoint {
    /// Chunks per session at this point.
    pub chunks: u32,
    /// Release discipline (`"pipelined"` or `"sequential"`).
    pub mode: String,
    /// Base iid loss rate of the point.
    pub rate: f64,
    /// Sessions whose every chunk-delivery eventually settled.
    pub completed: usize,
    /// Achieved makespan (last reception over served sessions).
    pub makespan: u64,
    /// Steady-state throughput: completed chunk-deliveries per 1000 ticks
    /// of makespan.
    pub throughput: f64,
    /// Fraction of offered chunks that settled past their playout
    /// deadline.
    pub deadline_miss_rate: f64,
    /// Median inter-chunk completion jitter.
    pub p50_jitter: u64,
    /// 95th-percentile inter-chunk completion jitter.
    pub p95_jitter: u64,
    /// 99th-percentile inter-chunk completion jitter.
    pub p99_jitter: u64,
    /// Total repair retransmissions charged.
    pub repair_sends: u64,
}

/// Runs the sweep: every chunk count × release discipline × loss rate,
/// all on one arrival vector generated once.
pub fn run(config: &StreamingStudyConfig) -> Vec<StreamingPoint> {
    let pool = NodePool::new(
        two_class_table(),
        default_message_size(),
        &[config.pool_counts[0], config.pool_counts[1]],
    )
    .expect("study pool is non-empty");
    let base = TrafficPattern {
        group_size: GroupSizeDist::Uniform {
            min: config.group.0,
            max: config.group.1,
        },
        ..TrafficPattern::poisson(config.mean_gap, config.group.0)
    };
    let requests = base
        .generate(&pool, config.sessions, config.seed)
        .expect("study pattern is valid");
    let net = NetParams::new(config.latency);

    let mut points = Vec::new();
    for &chunks in &config.chunk_counts {
        for mode in MODES {
            let train = ChunkProfile {
                chunks,
                interval: config.interval,
                deadline: config.deadline,
                pipelined: mode == "pipelined",
            };
            for &rate in &config.rates {
                let mut run_config = RunConfig::for_planner(&config.planner).with_chunks(train);
                if rate > 0.0 {
                    run_config = run_config
                        .with_loss(LossProfile {
                            max_retries: config.max_retries,
                            backoff: config.backoff,
                            ..LossProfile::iid(rate, config.fault_seed)
                        })
                        .with_repair(RepairPlacement::SubtreeRoot);
                }
                let engine = TrafficEngine::with_config(&pool, net, &run_config);
                let report = engine.run(&requests).expect("study run succeeds");
                points.push(StreamingPoint {
                    chunks,
                    mode: mode.to_string(),
                    rate,
                    completed: report.total.completed,
                    makespan: report.total.makespan,
                    throughput: report.streaming.steady_state_throughput,
                    deadline_miss_rate: report.streaming.deadline_miss_rate,
                    p50_jitter: report.streaming.p50_interchunk_jitter,
                    p95_jitter: report.streaming.p95_interchunk_jitter,
                    p99_jitter: report.streaming.p99_interchunk_jitter,
                    repair_sends: report.reliability.repair_sends,
                });
            }
        }
    }
    points
}

/// Renders the sweep as a table: one row per `(chunks, mode, rate)`.
pub fn table(points: &[StreamingPoint]) -> Table {
    let mut t = Table::new(
        "E14 / streaming: chunk count × release discipline × loss rate on one arrival vector",
        &[
            "chunks",
            "mode",
            "loss rate",
            "completed",
            "makespan",
            "throughput",
            "deadline misses",
            "p50 jitter",
            "p95 jitter",
            "p99 jitter",
            "repairs",
        ],
    );
    for p in points {
        t.push_row(vec![
            u64::from(p.chunks).into(),
            p.mode.clone().into(),
            p.rate.into(),
            (p.completed as u64).into(),
            p.makespan.into(),
            p.throughput.into(),
            p.deadline_miss_rate.into(),
            p.p50_jitter.into(),
            p.p95_jitter.into(),
            p.p99_jitter.into(),
            p.repair_sends.into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by<'a>(
        points: &'a [StreamingPoint],
        chunks: u32,
        mode: &str,
        rate: f64,
    ) -> &'a StreamingPoint {
        points
            .iter()
            .find(|p| p.chunks == chunks && p.mode == mode && p.rate == rate)
            .expect("swept point exists")
    }

    #[test]
    fn sweep_covers_the_grid_and_one_chunk_rows_coincide() {
        let config = StreamingStudyConfig::default();
        let points = run(&config);
        assert_eq!(
            points.len(),
            config.chunk_counts.len() * MODES.len() * config.rates.len()
        );
        // At one chunk the disciplines are the same atomic run: every
        // measured quantity agrees exactly.
        for &rate in &config.rates {
            let pipelined = by(&points, 1, "pipelined", rate);
            let sequential = by(&points, 1, "sequential", rate);
            assert_eq!(pipelined.makespan, sequential.makespan, "rate {rate}");
            assert_eq!(pipelined.throughput, sequential.throughput, "rate {rate}");
            assert_eq!(pipelined.completed, sequential.completed, "rate {rate}");
        }
        assert_eq!(table(&points).rows.len(), points.len());
    }

    #[test]
    fn pipelining_strictly_wins_at_four_chunks_and_beyond() {
        // The pinned acceptance claim of the streaming PR: on the preset
        // arrival vector, once the train is long enough to overlap (≥ 4
        // chunks), the pipelined discipline strictly beats the sequential
        // one on steady-state throughput — lossless and at 5% injected
        // loss alike. A sequential train pays `chunks` full settle rounds
        // on its critical path; the pipelined train hides all but the last
        // behind the 16-tick release schedule.
        let config = StreamingStudyConfig::default();
        let points = run(&config);
        for &chunks in config.chunk_counts.iter().filter(|&&c| c >= 4) {
            for &rate in &config.rates {
                let pipelined = by(&points, chunks, "pipelined", rate);
                let sequential = by(&points, chunks, "sequential", rate);
                assert!(
                    pipelined.throughput > sequential.throughput,
                    "chunks {chunks}, rate {rate}: pipelined {} vs sequential {}",
                    pipelined.throughput,
                    sequential.throughput
                );
                assert!(
                    pipelined.makespan < sequential.makespan,
                    "chunks {chunks}, rate {rate}: pipelined makespan {} vs sequential {}",
                    pipelined.makespan,
                    sequential.makespan
                );
            }
        }
    }

    #[test]
    fn lossy_streaming_repairs_per_chunk() {
        // Under injected loss the chunked rows must actually exercise the
        // per-chunk repair path, and losing chunks costs throughput
        // relative to the lossless row of the same discipline.
        let config = StreamingStudyConfig::default();
        let points = run(&config);
        for mode in MODES {
            let lossy = by(&points, 8, mode, 0.05);
            let clean = by(&points, 8, mode, 0.0);
            assert!(lossy.repair_sends > 0, "{mode}: 5% loss must repair");
            assert_eq!(clean.repair_sends, 0, "{mode}: lossless run repaired");
            assert!(
                lossy.makespan >= clean.makespan,
                "{mode}: repairs cannot shorten the run"
            );
        }
    }

    #[test]
    fn trace_backed_chunk_trains_release_on_schedule_and_share_ports_cleanly() {
        // The study's headline point (8-chunk pipelined train at 5% loss),
        // re-verified from the kernel's event stream: every session opens
        // once and releases exactly `chunks - 1` follow-up chunks, send
        // ports open and close in pairs, and the full stream — pipelined
        // overlaps plus band-2 repairs — passes the kernel invariant
        // checker (one-port, FIFO, bands, causality).
        use hnow_telemetry::{check_invariants, MemorySink, TelemetryConfig, TraceEventKind};
        use std::sync::Arc;
        let config = StreamingStudyConfig::default();
        let pool = NodePool::new(
            two_class_table(),
            default_message_size(),
            &[config.pool_counts[0], config.pool_counts[1]],
        )
        .unwrap();
        let chunks = 8;
        let base = TrafficPattern {
            group_size: GroupSizeDist::Uniform {
                min: config.group.0,
                max: config.group.1,
            },
            ..TrafficPattern::poisson(config.mean_gap, config.group.0)
        };
        let requests = base.generate(&pool, config.sessions, config.seed).unwrap();
        let sink = Arc::new(MemorySink::new());
        let run_config = RunConfig::for_planner(&config.planner)
            .with_chunks(ChunkProfile {
                chunks,
                interval: config.interval,
                deadline: config.deadline,
                pipelined: true,
            })
            .with_loss(LossProfile {
                max_retries: config.max_retries,
                backoff: config.backoff,
                ..LossProfile::iid(0.05, config.fault_seed)
            })
            .with_repair(RepairPlacement::SubtreeRoot)
            .telemetry(TelemetryConfig::new().with_sink(sink.clone()));
        let report = TrafficEngine::with_config(&pool, NetParams::new(config.latency), &run_config)
            .run(&requests)
            .unwrap();
        let events = sink.take();
        check_invariants(&events).unwrap();
        let count = |kind: TraceEventKind| events.iter().filter(|ev| ev.kind == kind).count();
        assert_eq!(count(TraceEventKind::SessionOpen), config.sessions);
        assert_eq!(
            count(TraceEventKind::ChunkRelease),
            config.sessions * (chunks as usize - 1),
            "a pipelined train releases every follow-up chunk"
        );
        assert_eq!(
            count(TraceEventKind::SendStart),
            count(TraceEventKind::SendFinish)
        );
        assert!(count(TraceEventKind::Repair) > 0, "5% loss must repair");
        assert_eq!(report.streaming.streaming_sessions, config.sessions);
    }
}
