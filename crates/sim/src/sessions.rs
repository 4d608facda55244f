//! Sessions at scale: the per-session records and the one report of the
//! session service, and the flat [`TrafficEngine`] entry point.
//!
//! [`execute`](crate::execute) plays *one* schedule on an otherwise idle
//! cluster. A multicast **service** instead sees a stream of sessions
//! against the *same* workstations: while node `w` incurs sending overhead
//! for session A it cannot receive or forward for session B, so overlapping
//! sessions contend for node time. The crate serves such streams through
//! one pipeline, [`ShardedCluster`]:
//!
//! 1. **Planning** — [`SessionRequest`]s (from [`hnow_workload::traffic`])
//!    are planned sequentially in submission order, so the report's
//!    [`CacheStats`] are deterministic. Each session reduces to its class
//!    signature; a plan cache reuses one tree shape per signature, and the
//!    canonically-keyed [`DpCache`](hnow_core::planner::DpCache) shares one
//!    Theorem 2 table across every session of a shard (bounded by
//!    [`RunConfig::dp_cache_capacity`]).
//! 2. **Delivery** — the shared occupancy kernel (the crate-private
//!    `kernel` module) executes the planned trees against per-node busy
//!    state: an activity wanting a busy node is deferred to the node's
//!    release time, with same-instant ties broken by the kernel's
//!    documented `(time, band, seq)` rule, so runs are reproducible. With
//!    no contention each session reproduces its schedule's analytic times
//!    exactly.
//! 3. **Churn** — a session whose source cannot start serving it within its
//!    patience ([`SessionRequest::patience`]) abandons and leaves the
//!    system unserved.
//!
//! [`TrafficEngine`] is that pipeline over a single shard holding the whole
//! pool. Both entry points return the same serializable [`TrafficReport`]:
//! per-session latency records plus run-wide, per-shard and cross-shard
//! throughput, queueing, utilization and cache statistics. The same
//! requests over the same pool yield a byte-identical JSON report.

use crate::cluster::{ControlPlaneReport, ShardReport, ShardedCluster};
use crate::config::RunConfig;
use crate::error::SimError;
use hnow_core::planner::PlanContext;
use hnow_core::ScheduleTree;
use hnow_model::{ChunkProfile, NetParams, Time};
use hnow_telemetry::{
    LogHistogram, MemorySink, TelemetryConfig, TelemetryReport, TimeSeries, TraceSink,
};
use hnow_workload::{NodePool, SessionRequest};
use serde::Serialize;
use std::sync::Arc;

/// DP-cache statistics of one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Table lookups performed while planning.
    pub lookups: usize,
    /// Lookups served from a cached table.
    pub hits: usize,
    /// Lookups that built a table (exactly one per build).
    pub misses: usize,
    /// Tables evicted by the LRU capacity bound.
    pub evictions: usize,
}

impl CacheStats {
    /// Snapshot of a context's DP-cache counters.
    pub fn from_context(ctx: &PlanContext) -> Self {
        CacheStats {
            lookups: ctx.dp_cache().lookups(),
            hits: ctx.dp_cache().hits(),
            misses: ctx.dp_cache().misses(),
            evictions: ctx.dp_cache().evictions(),
        }
    }

    /// Fraction of lookups served from cache — 0 (never `NaN`) when the run
    /// performed no lookups at all, which is the steady state of every
    /// non-DP planner and of an empty shard.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Outcome of one session.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SessionRecord {
    /// Session id from the request.
    pub id: u64,
    /// Home shard: the shard owning the session's source.
    pub home_shard: usize,
    /// The other shards the session's members live on, ascending; empty
    /// when the home shard served the whole session.
    pub remote_shards: Vec<usize>,
    /// Arrival time.
    pub arrival: u64,
    /// Number of destinations.
    pub group_size: usize,
    /// The planner's analytic reception completion `R_T` for the session's
    /// schedule on an idle cluster (latency the session would see with zero
    /// contention). For a cross-shard session this is the *stitched* time
    /// of the two-level schedule.
    pub planned_reception: u64,
    /// The analytic delivery completion `D_T` on an idle cluster.
    pub planned_delivery: u64,
    /// Whether the session left unserved (patience exceeded, or shed by
    /// the admission controller).
    pub abandoned: bool,
    /// When the source actually started serving the session (`None` if
    /// abandoned).
    pub started: Option<u64>,
    /// `started - arrival`: time spent queued behind other sessions.
    pub queue_delay: u64,
    /// Reception completion relative to arrival (0 if abandoned).
    pub reception_latency: u64,
    /// Delivery completion relative to arrival (0 if abandoned).
    pub delivery_latency: u64,
    /// Members given up on after exhausting repair retries (0 on lossless
    /// runs; a session with `failed_members > 0` completed *partially*).
    pub failed_members: usize,
    /// Repair requests the session's receivers issued.
    pub nacks: u64,
    /// Repair retransmissions charged against repairer occupancy.
    pub repair_sends: u64,
    /// Per repaired receiver: reception completion minus the instant the
    /// receiver first learned it missed a delivery, in completion order.
    pub repair_delays: Vec<u64>,
    /// Chunks of the session's payload train (1 = the atomic base model).
    pub chunks: u32,
    /// Chunks that settled past their playout deadline at some member
    /// (always 0 on atomic, abandoned or deadline-less sessions).
    pub chunk_deadline_misses: u64,
    /// `|inter-chunk completion gap − release interval|` per consecutive
    /// chunk pair (empty on atomic and abandoned sessions).
    pub chunk_jitters: Vec<u64>,
}

impl SessionRecord {
    /// Whether the session spanned more than its home shard.
    pub fn cross(&self) -> bool {
        !self.remote_shards.is_empty()
    }
}

/// Loss, repair and degradation aggregates of one run (the report's
/// `reliability` section, schema 3; unchanged in schema 4 apart from
/// counting per *chunk*-delivery on streaming runs).
///
/// Like [`TrafficMetrics`], every ratio is defined on an empty denominator:
/// [`delivered_fraction`](ReliabilityReport::delivered_fraction) is **1**
/// (an empty or lossless run delivered everything it was offered) and
/// [`residual_loss`](ReliabilityReport::residual_loss) is **0**, so empty
/// runs serialize as the lossless fixed point rather than `NaN`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReliabilityReport {
    /// Deliveries offered by non-abandoned sessions: group size × chunks,
    /// so a streaming session's chunks count individually (an atomic
    /// session offers its group size, as before).
    pub offered_deliveries: usize,
    /// Deliveries that completed reception (originally or via repair).
    pub delivered: usize,
    /// Deliveries given up on after exhausting repair retries.
    pub failed: usize,
    /// `delivered / offered` (1 when nothing was offered).
    pub delivered_fraction: f64,
    /// `failed / offered` (0 when nothing was offered).
    pub residual_loss: f64,
    /// Non-abandoned sessions that completed partially (≥ 1 failed
    /// member).
    pub degraded_sessions: usize,
    /// Total repair requests issued by receivers.
    pub nacks: u64,
    /// Total repair retransmissions charged against repairer occupancy.
    pub repair_sends: u64,
    /// Median repair delay over repaired receivers (0 when none).
    pub p50_repair_delay: u64,
    /// 95th-percentile repair delay over repaired receivers.
    pub p95_repair_delay: u64,
    /// 99th-percentile repair delay over repaired receivers.
    pub p99_repair_delay: u64,
}

impl ReliabilityReport {
    /// Aggregates the reliability section from per-session records.
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a SessionRecord>) -> Self {
        let mut offered = 0usize;
        let mut failed = 0usize;
        let mut degraded = 0usize;
        let mut nacks = 0u64;
        let mut repair_sends = 0u64;
        let mut delays = LogHistogram::new();
        for record in records {
            nacks += record.nacks;
            repair_sends += record.repair_sends;
            if record.abandoned {
                continue;
            }
            offered += record.group_size * record.chunks.max(1) as usize;
            failed += record.failed_members;
            if record.failed_members > 0 {
                degraded += 1;
            }
            for &delay in &record.repair_delays {
                delays.record(delay);
            }
        }
        ReliabilityReport {
            offered_deliveries: offered,
            delivered: offered - failed,
            failed,
            delivered_fraction: if offered == 0 {
                1.0
            } else {
                (offered - failed) as f64 / offered as f64
            },
            residual_loss: if offered == 0 {
                0.0
            } else {
                failed as f64 / offered as f64
            },
            degraded_sessions: degraded,
            nacks,
            repair_sends,
            p50_repair_delay: delays.percentile(50),
            p95_repair_delay: delays.percentile(95),
            p99_repair_delay: delays.percentile(99),
        }
    }
}

/// Streaming aggregates of one run (the report's `streaming` section,
/// schema 4).
///
/// A *chunk* here is one link of a session's payload train (session
/// granularity: released once, delivered group-wide); a *chunk-delivery*
/// is one chunk reaching one member. Atomic sessions contribute their
/// group size to the chunk-delivery counts (they move exactly one payload)
/// but nothing to the chunk counts, deadline statistics or jitter — so a
/// fully atomic run serializes the all-zero fixed point for those fields
/// and every ratio is 0 (never `NaN`) on an empty denominator.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StreamingReport {
    /// Non-abandoned streaming sessions (`chunks > 1`).
    pub streaming_sessions: usize,
    /// Chunks offered by non-abandoned streaming sessions.
    pub offered_chunks: u64,
    /// Chunk-deliveries offered by non-abandoned sessions (group size ×
    /// chunks).
    pub offered_chunk_deliveries: u64,
    /// Chunk-deliveries that completed reception, originally or via
    /// repair.
    pub completed_chunk_deliveries: u64,
    /// Chunks that settled past their playout deadline at some member.
    pub deadline_misses: u64,
    /// `deadline_misses / offered_chunks` (0 when no chunks were offered).
    pub deadline_miss_rate: f64,
    /// Steady-state throughput: completed chunk-deliveries per 1000 time
    /// units of makespan (0 for a zero makespan).
    pub steady_state_throughput: f64,
    /// Median `|inter-chunk completion gap − release interval|` over
    /// consecutive chunk pairs of streaming sessions (0 when none).
    pub p50_interchunk_jitter: u64,
    /// 95th-percentile inter-chunk jitter.
    pub p95_interchunk_jitter: u64,
    /// 99th-percentile inter-chunk jitter.
    pub p99_interchunk_jitter: u64,
}

impl StreamingReport {
    /// Aggregates the streaming section from per-session records;
    /// `makespan` is the run's reception makespan (the throughput
    /// denominator, shared with [`TrafficMetrics`]).
    pub fn from_records<'a>(
        records: impl IntoIterator<Item = &'a SessionRecord>,
        makespan: u64,
    ) -> Self {
        let mut streaming_sessions = 0usize;
        let mut offered_chunks = 0u64;
        let mut offered_deliveries = 0u64;
        let mut failed_deliveries = 0u64;
        let mut deadline_misses = 0u64;
        let mut jitters = LogHistogram::new();
        for record in records {
            if record.abandoned {
                continue;
            }
            let chunks = u64::from(record.chunks.max(1));
            offered_deliveries += record.group_size as u64 * chunks;
            failed_deliveries += record.failed_members as u64;
            if record.chunks > 1 {
                streaming_sessions += 1;
                offered_chunks += chunks;
                deadline_misses += record.chunk_deadline_misses;
                for &jitter in &record.chunk_jitters {
                    jitters.record(jitter);
                }
            }
        }
        let completed = offered_deliveries - failed_deliveries;
        StreamingReport {
            streaming_sessions,
            offered_chunks,
            offered_chunk_deliveries: offered_deliveries,
            completed_chunk_deliveries: completed,
            deadline_misses,
            deadline_miss_rate: if offered_chunks == 0 {
                0.0
            } else {
                deadline_misses as f64 / offered_chunks as f64
            },
            steady_state_throughput: if makespan == 0 {
                0.0
            } else {
                completed as f64 * 1000.0 / makespan as f64
            },
            p50_interchunk_jitter: jitters.percentile(50),
            p95_interchunk_jitter: jitters.percentile(95),
            p99_interchunk_jitter: jitters.percentile(99),
        }
    }
}

/// NaN-free aggregate statistics over a set of session records.
///
/// Every mean, rate and percentile is defined to be **0 when its
/// denominator is empty** (no sessions, no completions, zero makespan), so
/// aggregates of an idle or empty shard serialize as plain zeros instead of
/// poisoning the JSON report with `NaN`. The run-wide, cross-shard and
/// per-shard aggregates of a [`TrafficReport`] are all computed through
/// this one implementation.
///
/// Percentiles (here and in the reliability/streaming sections) stream
/// through a fixed-allocation [`LogHistogram`] instead of sorting a cloned
/// sample vector: the reported value is the lower bound of the log bucket
/// holding the exact rank-`q` sample — identical below 64 and at most 1/64
/// low above — while means stay exact (the histogram keeps exact
/// sum/count).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrafficMetrics {
    /// Number of offered sessions.
    pub sessions: usize,
    /// Sessions fully delivered.
    pub completed: usize,
    /// Sessions that left unserved (churn).
    pub abandoned: usize,
    /// Absolute time at which the last covered session completed (0 when
    /// nothing completed).
    pub makespan: u64,
    /// Completed sessions per 1000 time units of makespan.
    pub throughput_per_kilotick: f64,
    /// Mean reception latency over completed sessions.
    pub mean_reception_latency: f64,
    /// Median reception latency over completed sessions.
    pub p50_reception_latency: u64,
    /// 95th-percentile reception latency over completed sessions.
    pub p95_reception_latency: u64,
    /// 99th-percentile reception latency over completed sessions.
    pub p99_reception_latency: u64,
    /// Mean queue delay (start − arrival) over completed sessions.
    pub mean_queue_delay: f64,
    /// Mean of per-node busy-time / makespan over the covered nodes.
    pub mean_node_utilization: f64,
    /// Maximum per-node busy-time / makespan over the covered nodes.
    pub peak_node_utilization: f64,
}

impl TrafficMetrics {
    /// Aggregates a set of session records against the busy times of the
    /// nodes they ran on (`busy_time` is indexed by whatever node subset the
    /// caller accounts — the whole pool for the run-wide aggregate, one
    /// shard's nodes for a per-shard aggregate).
    pub fn from_records<'a>(
        records: impl IntoIterator<Item = &'a SessionRecord>,
        busy_time: &[u64],
    ) -> Self {
        let mut sessions = 0usize;
        let mut completed = 0usize;
        let mut abandoned = 0usize;
        let mut makespan = 0u64;
        let mut latencies = LogHistogram::new();
        // 128 bits: a few long delays overflow a 64-bit sum.
        let mut queue_delay_sum = 0u128;
        for record in records {
            sessions += 1;
            if record.abandoned {
                abandoned += 1;
            } else {
                completed += 1;
                makespan = makespan.max(record.arrival + record.reception_latency);
                latencies.record(record.reception_latency);
                queue_delay_sum += u128::from(record.queue_delay);
            }
        }
        TrafficMetrics {
            sessions,
            completed,
            abandoned,
            makespan,
            throughput_per_kilotick: if makespan == 0 {
                0.0
            } else {
                completed as f64 * 1000.0 / makespan as f64
            },
            // The histogram keeps the exact sum and count, so the mean is
            // exact; only the percentiles are bucket-quantized (≤ 1/64 low).
            mean_reception_latency: latencies.mean(),
            p50_reception_latency: latencies.percentile(50),
            p95_reception_latency: latencies.percentile(95),
            p99_reception_latency: latencies.percentile(99),
            mean_queue_delay: if completed == 0 {
                0.0
            } else {
                queue_delay_sum as f64 / completed as f64
            },
            mean_node_utilization: Self::utilization_over(busy_time, makespan).0,
            peak_node_utilization: Self::utilization_over(busy_time, makespan).1,
        }
    }

    /// Mean and peak busy-time / horizon over a node subset — 0 (never
    /// `NaN`) for a zero horizon or an empty subset. Callers accounting a
    /// node subset whose busy time includes work for sessions *outside* the
    /// aggregated record set (a shard's nodes serving cross-shard traffic)
    /// must pass the run-wide horizon here rather than rely on
    /// [`TrafficMetrics::from_records`]'s record-derived makespan, or the
    /// ratio can exceed 1.
    pub fn utilization_over(busy_time: &[u64], horizon: u64) -> (f64, f64) {
        if horizon == 0 || busy_time.is_empty() {
            return (0.0, 0.0);
        }
        let mean = busy_time.iter().sum::<u64>() as f64 / (busy_time.len() as f64 * horizon as f64);
        let peak = busy_time.iter().copied().max().unwrap_or(0) as f64 / horizon as f64;
        (mean, peak)
    }
}

/// The serializable result of one run of the session service — the one
/// report both [`TrafficEngine::run`] and [`ShardedCluster::run`] return.
///
/// Determinism contract: for a fixed pool, request vector and config, every
/// field — including the full `per_session` vector — is identical across
/// runs, thread counts and platforms with the same float formatting, so
/// serialized reports can be compared byte for byte.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrafficReport {
    /// Schema version of this artifact.
    pub schema: u32,
    /// Planner serving every shard and the gateway trees.
    pub planner: String,
    /// Number of shards at the end of the run (1 for the flat engine).
    pub shards: usize,
    /// Whether per-shard plan caches were active.
    pub plan_cache: bool,
    /// Network latency `L`.
    pub net_latency: u64,
    /// Offered sessions.
    pub sessions: usize,
    /// Sessions that spanned at least two shards.
    pub cross_sessions: usize,
    /// `cross_sessions / sessions` (0 when no sessions were offered).
    pub observed_cross_fraction: f64,
    /// Independent simulation components the admitted sessions split into
    /// under session-node contact grouping (sessions sharing a pool node
    /// merge), summed over epochs: 1 per epoch when traffic connects
    /// everything, and at least the number of session-bearing shards when
    /// nothing crosses — possibly more, since even one shard's sessions
    /// split when their node sets are disjoint.
    pub components: usize,
    /// Aggregates over every session, with utilization over every node.
    pub total: TrafficMetrics,
    /// Aggregates over cross-shard sessions only (utilization fields are 0
    /// here — cross sessions borrow nodes accounted to their shards).
    pub cross: TrafficMetrics,
    /// Loss, repair and degradation aggregates over every session
    /// (all-zero/fixed-point on lossless runs).
    pub reliability: ReliabilityReport,
    /// Streaming aggregates over every session (all-zero/fixed-point on
    /// atomic runs).
    pub streaming: StreamingReport,
    /// The dispatcher's DP-cache statistics (gateway-tree planning).
    pub gateway_dp_cache: CacheStats,
    /// Gateway DP-cache hit rate (0 when nothing was looked up).
    pub gateway_dp_hit_rate: f64,
    /// The dispatcher's plan-cache statistics (gateway trees).
    pub gateway_plan_cache: CacheStats,
    /// Control-plane accounting; `None` unless
    /// [`RunConfig::control`] was set.
    pub control: Option<ControlPlaneReport>,
    /// Per-shard aggregates, in shard order.
    pub per_shard: Vec<ShardReport>,
    /// One record per offered session, in request order.
    pub per_session: Vec<SessionRecord>,
    /// Fixed-window time series over the run's trace; present only when the
    /// run config attached a
    /// [`TelemetryConfig::with_timeseries`](hnow_telemetry::TelemetryConfig::with_timeseries)
    /// window. Always the report's last field, so a time series never
    /// moves another byte of the report.
    pub telemetry: Option<TelemetryReport>,
}

/// Run-scoped trace destinations: the user's sink (from
/// [`TelemetryConfig::with_sink`]), the internal memory sink backing the
/// report's `telemetry` time-series section
/// ([`TelemetryConfig::with_timeseries`]), or both. `None` when neither is
/// attached — the kernel then sees no recorder and skips every emission
/// site.
pub(crate) struct TraceDest {
    user: Option<Arc<dyn TraceSink>>,
    internal: Option<(u64, MemorySink)>,
}

impl TraceDest {
    /// The run's destinations, or `None` when nothing needs the trace.
    pub(crate) fn from(telemetry: Option<&TelemetryConfig>) -> Option<TraceDest> {
        let user = telemetry.and_then(|t| t.sink.clone());
        let internal = telemetry
            .and_then(|t| t.timeseries)
            .map(|window| (window, MemorySink::new()));
        if user.is_none() && internal.is_none() {
            None
        } else {
            Some(TraceDest { user, internal })
        }
    }

    /// The sink fan-out list a [`Recorder`](hnow_telemetry::Recorder) is
    /// built over.
    pub(crate) fn sinks(&self) -> Vec<&dyn TraceSink> {
        let mut sinks: Vec<&dyn TraceSink> = Vec::new();
        if let Some(sink) = self.user.as_deref() {
            sinks.push(sink);
        }
        if let Some((_, sink)) = self.internal.as_ref() {
            sinks.push(sink);
        }
        sinks
    }

    /// Folds the internal sink into the report's `telemetry` section
    /// (`None` when no time-series window was attached).
    pub(crate) fn report(self, shard_sizes: &[usize]) -> Option<TelemetryReport> {
        self.internal
            .map(|(window, sink)| TimeSeries::over(&sink.take(), window, shard_sizes))
    }
}

/// The flat entry point: the session pipeline ([`ShardedCluster`]) over a
/// single shard holding the whole pool. See the [module docs](self).
#[derive(Debug)]
pub struct TrafficEngine<'a> {
    pool: &'a NodePool,
    net: NetParams,
    /// The caller's config with its shard count forced to 1.
    config: RunConfig,
}

impl<'a> TrafficEngine<'a> {
    /// Creates an engine from a [`RunConfig`]; its shard count is forced
    /// to 1, every other field (control plane included) applies as on
    /// [`ShardedCluster::with_config`].
    pub fn with_config(pool: &'a NodePool, net: NetParams, config: &RunConfig) -> Self {
        TrafficEngine {
            pool,
            net,
            config: config.clone().sharded(1),
        }
    }

    /// Plans and simulates the given sessions, returning the full report.
    ///
    /// Requests are planned in slice order; the simulation then interleaves
    /// all sessions by arrival time against shared per-node busy state.
    /// With [`RunConfig::threads`] pinned, the whole run executes on a
    /// dedicated rayon pool of that size — the report is byte-identical at
    /// every thread count.
    pub fn run(&self, requests: &[SessionRequest]) -> Result<TrafficReport, SimError> {
        ShardedCluster::with_config(self.pool, self.net, &self.config)?.run(requests)
    }
}

/// Most `(chunk, node)` slots one session may hold: (members + 1) ×
/// chunks. The kernel keeps one repair status byte per slot on lossy runs
/// and 16 bytes per chunk, so the bound caps a session's kernel state at
/// about 10 MB, and keeps every local index of the kernel's flat arrays
/// within 32 bits.
pub const MAX_TRAIN_SLOTS: u64 = 1 << 20;

/// Per-session state during planning and simulation: the pipeline builds
/// one per admitted request, with pool-global node maps (trees stitched
/// from their cached block plans for cross-shard sessions), and hands them
/// to the occupancy kernel, which reads them once at entry and writes the
/// outcome fields back once at exit.
pub(crate) struct SessionRuntime {
    /// Request id; the loss model keys its draws by it (never by slot or
    /// event order), so epoch slicing and sharding cannot change draws.
    pub(crate) id: u64,
    pub(crate) arrival: Time,
    pub(crate) deadline: Option<Time>,
    /// The session's routing, carried into its record.
    pub(crate) home_shard: usize,
    pub(crate) remote_shards: Vec<usize>,
    /// Local schedule-tree node index → pool node id.
    pub(crate) node_map: Vec<usize>,
    /// Local children lists of the schedule tree (delivery order). Shared so
    /// the plan cache can reuse one tree shape across thousands of
    /// same-signature sessions.
    pub(crate) children: Arc<Vec<Vec<usize>>>,
    /// Local node → local id of its designated repairer (a
    /// [`RepairPlacement`](hnow_core::RepairPlacement) assignment; `None`
    /// means source-only). Only consulted by faulted kernel runs.
    pub(crate) repairer: Option<Arc<Vec<usize>>>,
    pub(crate) planned_reception: Time,
    pub(crate) planned_delivery: Time,
    pub(crate) started: Option<Time>,
    pub(crate) abandoned: bool,
    pub(crate) completed_at: Time,
    pub(crate) delivered_at: Time,
    /// Repair requests issued by this session's receivers.
    pub(crate) nacks: u64,
    /// Repair retransmissions charged against repairer occupancy.
    pub(crate) repair_sends: u64,
    /// Members given up on after exhausting retries. On streaming sessions
    /// each `(chunk, member)` give-up counts once.
    pub(crate) failed_members: usize,
    /// Reception minus first-missed instant per repaired receiver.
    pub(crate) repair_delays: Vec<u64>,
    /// Chunks of the session's payload train (1 = the atomic base model;
    /// the kernel takes no streaming branch at 1).
    pub(crate) chunks: u32,
    /// Release interval between consecutive chunks.
    pub(crate) chunk_interval: Time,
    /// Per-chunk playout deadline past each chunk's release, for the
    /// report's deadline-miss accounting.
    pub(crate) chunk_deadline: Option<Time>,
    /// Pipelined train (source opens the next chunk as soon as its port
    /// frees) vs sequential one-shot re-sends.
    pub(crate) pipelined: bool,
    /// Latest reception completion per chunk, written by the kernel at exit
    /// (empty unless `chunks > 1` and the session was simulated).
    pub(crate) chunk_completed_at: Vec<Time>,
}

impl SessionRuntime {
    /// A fresh atomic, patient, home-shard session over a bound tree:
    /// `node_map[0]` is the source and every other tree node a member.
    /// Callers fill in deadlines, plans and repairers, then stamp chunks.
    pub(crate) fn new(
        id: u64,
        arrival: Time,
        node_map: Vec<usize>,
        children: Arc<Vec<Vec<usize>>>,
    ) -> Self {
        SessionRuntime {
            id,
            arrival,
            deadline: None,
            home_shard: 0,
            remote_shards: Vec::new(),
            node_map,
            children,
            repairer: None,
            planned_reception: Time::ZERO,
            planned_delivery: Time::ZERO,
            started: None,
            abandoned: false,
            completed_at: arrival,
            delivered_at: arrival,
            nacks: 0,
            repair_sends: 0,
            failed_members: 0,
            repair_delays: Vec::new(),
            chunks: 1,
            chunk_interval: Time::ZERO,
            chunk_deadline: None,
            pipelined: true,
            chunk_completed_at: Vec::new(),
        }
    }

    /// Stamps a chunk profile onto a planned runtime. `None` — or a
    /// degenerate 1-chunk profile — leaves the atomic defaults untouched.
    /// Nothing is sized here: the kernel sizes its per-chunk state from the
    /// checked product below.
    ///
    /// Rejects with [`SimError::TrainTooLarge`] a session whose
    /// `(members + 1) × chunks` exceeds [`MAX_TRAIN_SLOTS`], and with
    /// [`SimError::TimeOverflow`] one whose last chunk release
    /// (`arrival + interval × (chunks − 1)`) plus its planned completion
    /// (the later of `R_T` and `D_T`) does not fit in [`Time`], so hostile
    /// trains surface as errors instead of failed allocations or wrapped
    /// times.
    pub(crate) fn apply_chunks(&mut self, profile: Option<ChunkProfile>) -> Result<(), SimError> {
        let (chunks, interval) = profile.map_or((1, 0), |p| (p.chunks.max(1), p.interval));
        let slots = (self.node_map.len() as u64).saturating_mul(u64::from(chunks));
        if slots > MAX_TRAIN_SLOTS {
            return Err(SimError::TrainTooLarge {
                session: self.id,
                slots,
            });
        }
        let planned = self.planned_reception.max(self.planned_delivery);
        interval
            .checked_mul(u64::from(chunks - 1))
            .and_then(|train| self.arrival.raw().checked_add(train))
            .and_then(|last_release| last_release.checked_add(planned.raw()))
            .ok_or(SimError::TimeOverflow { session: self.id })?;
        let Some(profile) = profile else {
            return Ok(());
        };
        self.chunks = chunks;
        self.chunk_interval = Time::new(interval);
        self.chunk_deadline = profile.deadline.map(Time::new);
        self.pipelined = profile.pipelined;
        Ok(())
    }
}

/// The delivery-ordered child lists of a schedule tree, by node index.
pub(crate) fn children_lists(tree: &ScheduleTree) -> Vec<Vec<usize>> {
    (0..tree.num_nodes())
        .map(|v| {
            tree.children(hnow_model::NodeId(v))
                .iter()
                .map(|c| c.index())
                .collect()
        })
        .collect()
}

/// Builds the serializable record of one finished session, moving the
/// runtime's routing and repair delays into it.
pub(crate) fn record_for(request: &SessionRequest, session: &mut SessionRuntime) -> SessionRecord {
    let reception_latency = session.completed_at.saturating_sub(session.arrival).raw();
    let delivery_latency = session.delivered_at.saturating_sub(session.arrival).raw();
    let queue_delay = session
        .started
        .map(|s| s.saturating_sub(session.arrival).raw())
        .unwrap_or(0);
    let streamed = !session.abandoned && session.chunks > 1;
    let chunk_deadline_misses = match (streamed, session.chunk_deadline) {
        (true, Some(deadline)) => session
            .chunk_completed_at
            .iter()
            .enumerate()
            .filter(|&(c, &done)| {
                let release = session.arrival + session.chunk_interval * c as u64;
                done > release.saturating_add(deadline)
            })
            .count() as u64,
        _ => 0,
    };
    let chunk_jitters = if streamed {
        // Completion gaps can invert when a late repair drags an earlier
        // chunk past its successor; the saturating gap folds that case into
        // a full-interval jitter rather than going negative.
        session
            .chunk_completed_at
            .windows(2)
            .map(|w| {
                w[1].saturating_sub(w[0])
                    .raw()
                    .abs_diff(session.chunk_interval.raw())
            })
            .collect()
    } else {
        Vec::new()
    };
    SessionRecord {
        id: request.id,
        home_shard: session.home_shard,
        remote_shards: std::mem::take(&mut session.remote_shards),
        arrival: session.arrival.raw(),
        group_size: request.members.len(),
        planned_reception: session.planned_reception.raw(),
        planned_delivery: session.planned_delivery.raw(),
        abandoned: session.abandoned,
        started: session.started.map(|s| s.raw()),
        queue_delay,
        reception_latency: if session.abandoned {
            0
        } else {
            reception_latency
        },
        delivery_latency: if session.abandoned {
            0
        } else {
            delivery_latency
        },
        failed_members: session.failed_members,
        nacks: session.nacks,
        repair_sends: session.repair_sends,
        repair_delays: std::mem::take(&mut session.repair_delays),
        chunks: session.chunks,
        chunk_deadline_misses,
        chunk_jitters,
    }
}

/// The pre-unification flat event loop, kept verbatim as the executable
/// specification of the kernel's tie-break rule (the same role
/// `build_reference` plays for the DP kernel). The property test in
/// [`tests`] replays random contended traffic through both this loop and
/// [`crate::kernel::simulate`] and demands identical outcomes.
#[cfg(test)]
pub(crate) mod reference {
    use super::SessionRuntime;
    use hnow_model::{NetParams, NodeSpec, Time};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum SessionEvent {
        WantSend { local: usize, child_idx: usize },
        Arrival { local: usize },
        WantRecv { local: usize },
        NodeFree { node: usize },
    }

    type QueueItem = Reverse<(Time, u64, usize, SessionEvent)>;

    /// The shared-resource discrete-event pass over every session. Returns
    /// the accumulated busy time per pool node (utilization numerator).
    pub(crate) fn simulate(
        specs: &[NodeSpec],
        net: NetParams,
        sessions: &mut [SessionRuntime],
    ) -> Vec<u64> {
        let n = specs.len();
        let mut busy_until = vec![Time::ZERO; n];
        let mut busy_time = vec![0u64; n];
        // Per-node FIFO of parked "want" events. Every activity schedules a
        // NodeFree wake at its end, and every wake re-injects exactly one
        // waiter, so the event count stays linear in the activity count even
        // when hundreds of sessions pile onto one hot node.
        let mut waiting: Vec<std::collections::VecDeque<(usize, SessionEvent)>> =
            vec![std::collections::VecDeque::new(); n];
        let mut heap: BinaryHeap<QueueItem> = BinaryHeap::new();
        let mut seq = 0u64;
        // Destinations still to complete reception, per session.
        let mut pending: Vec<usize> = sessions.iter().map(|s| s.node_map.len() - 1).collect();
        let push = |heap: &mut BinaryHeap<QueueItem>,
                    seq: &mut u64,
                    time: Time,
                    session: usize,
                    event: SessionEvent| {
            heap.push(Reverse((time, *seq, session, event)));
            *seq += 1;
        };
        for (s, session) in sessions.iter().enumerate() {
            if !session.children[0].is_empty() {
                push(
                    &mut heap,
                    &mut seq,
                    session.arrival,
                    s,
                    SessionEvent::WantSend {
                        local: 0,
                        child_idx: 0,
                    },
                );
            }
        }
        while let Some(Reverse((t, _, s, event))) = heap.pop() {
            if let SessionEvent::NodeFree { node } = event {
                // Obsolete when a same-instant event already re-claimed the
                // node; the claimant scheduled its own wake.
                if busy_until[node] <= t {
                    if let Some((waiter, parked)) = waiting[node].pop_front() {
                        push(&mut heap, &mut seq, t, waiter, parked);
                    }
                }
                continue;
            }
            let session = &mut sessions[s];
            if session.abandoned {
                continue;
            }
            match event {
                SessionEvent::WantSend { local, child_idx } => {
                    let node = session.node_map[local];
                    if busy_until[node] > t {
                        waiting[node].push_back((s, event));
                        continue;
                    }
                    if session.started.is_none() {
                        // First activity of the session: the churn gate.
                        if session.deadline.is_some_and(|d| t > d) {
                            session.abandoned = true;
                            // The session declined a free node; pass it on
                            // so parked waiters never starve.
                            if let Some((waiter, parked)) = waiting[node].pop_front() {
                                push(&mut heap, &mut seq, t, waiter, parked);
                            }
                            continue;
                        }
                        session.started = Some(t);
                    }
                    let dur = specs[node].send();
                    let end = t + dur;
                    busy_until[node] = end;
                    busy_time[node] += dur.raw();
                    let child = session.children[local][child_idx];
                    push(
                        &mut heap,
                        &mut seq,
                        end + net.latency(),
                        s,
                        SessionEvent::Arrival { local: child },
                    );
                    if child_idx + 1 < session.children[local].len() {
                        push(
                            &mut heap,
                            &mut seq,
                            end,
                            s,
                            SessionEvent::WantSend {
                                local,
                                child_idx: child_idx + 1,
                            },
                        );
                    }
                    push(&mut heap, &mut seq, end, s, SessionEvent::NodeFree { node });
                }
                SessionEvent::Arrival { local } => {
                    // Delivery is the message hitting the node, busy or not;
                    // the receive overhead queues for node time separately.
                    session.delivered_at = session.delivered_at.max(t);
                    push(&mut heap, &mut seq, t, s, SessionEvent::WantRecv { local });
                }
                SessionEvent::WantRecv { local } => {
                    let node = session.node_map[local];
                    if busy_until[node] > t {
                        waiting[node].push_back((s, event));
                        continue;
                    }
                    let dur = specs[node].recv();
                    let end = t + dur;
                    busy_until[node] = end;
                    busy_time[node] += dur.raw();
                    pending[s] -= 1;
                    session.completed_at = session.completed_at.max(end);
                    if !session.children[local].is_empty() {
                        push(
                            &mut heap,
                            &mut seq,
                            end,
                            s,
                            SessionEvent::WantSend {
                                local,
                                child_idx: 0,
                            },
                        );
                    }
                    push(&mut heap, &mut seq, end, s, SessionEvent::NodeFree { node });
                }
                SessionEvent::NodeFree { .. } => unreachable!("handled before the session borrow"),
            }
        }
        debug_assert!(sessions
            .iter()
            .zip(&pending)
            .all(|(session, &pending)| session.abandoned || pending == 0));
        busy_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::LossProfile;
    use crate::kernel;
    use hnow_core::RepairPlacement;
    use hnow_model::NodeSpec;
    use hnow_telemetry::{MemorySink, TelemetryConfig};
    use hnow_workload::{
        default_message_size, two_class_table, ChurnProfile, GroupSizeDist, TrafficPattern,
    };

    fn pool() -> NodePool {
        NodePool::new(two_class_table(), default_message_size(), &[8, 4]).unwrap()
    }

    fn spaced_requests(pool: &NodePool, n: usize, gap: u64) -> Vec<SessionRequest> {
        // Arrivals spaced far beyond any completion time: zero contention.
        let pattern = TrafficPattern::poisson(1.0, 4);
        let mut requests = pattern.generate(pool, n, 5).unwrap();
        for (i, r) in requests.iter_mut().enumerate() {
            r.arrival = Time::new(i as u64 * gap);
            r.patience = None;
        }
        requests
    }

    #[test]
    fn uncontended_sessions_match_their_analytic_times() {
        let pool = pool();
        let requests = spaced_requests(&pool, 12, 1_000_000);
        for planner in ["greedy", "greedy+leaf", "dp-optimal", "chain", "star"] {
            let engine = TrafficEngine::with_config(
                &pool,
                NetParams::new(2),
                &RunConfig::for_planner(planner),
            );
            let report = engine.run(&requests).unwrap();
            assert_eq!(report.total.completed, 12);
            assert_eq!(report.total.abandoned, 0);
            for record in &report.per_session {
                assert_eq!(
                    record.reception_latency, record.planned_reception,
                    "{planner}: session {} diverged from analytic R_T",
                    record.id
                );
                assert_eq!(
                    record.delivery_latency, record.planned_delivery,
                    "{planner}: session {} diverged from analytic D_T",
                    record.id
                );
                assert_eq!(record.queue_delay, 0);
            }
        }
    }

    #[test]
    fn contention_delays_but_never_loses_sessions() {
        let pool = pool();
        // Everyone arrives at once: heavy contention on the shared nodes.
        let mut requests = spaced_requests(&pool, 30, 1_000_000);
        for r in &mut requests {
            r.arrival = Time::ZERO;
        }
        let engine = TrafficEngine::with_config(&pool, NetParams::new(2), &RunConfig::default());
        let report = engine.run(&requests).unwrap();
        assert_eq!(report.total.completed, 30);
        assert_eq!(report.total.abandoned, 0);
        // At least one session must have waited for a busy node.
        assert!(
            report
                .per_session
                .iter()
                .any(|r| r.reception_latency > r.planned_reception),
            "30 simultaneous sessions on 12 nodes cannot all run contention-free"
        );
        assert!(report.total.mean_queue_delay >= 0.0);
        assert!(report.total.peak_node_utilization > 0.0);
        assert!(report.total.peak_node_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn reports_are_byte_identical_per_seed() {
        let pool = pool();
        let pattern = TrafficPattern {
            arrivals: hnow_workload::ArrivalProfile::Poisson { mean_gap: 30.0 },
            group_size: GroupSizeDist::Uniform { min: 2, max: 6 },
            class_weights: None,
            churn: Some(ChurnProfile {
                impatient_fraction: 0.3,
                mean_patience: 60.0,
            }),
        };
        let requests = pattern.generate(&pool, 100, 42).unwrap();
        let engine = TrafficEngine::with_config(&pool, NetParams::new(2), &RunConfig::default());
        let a = serde_json::to_string(&engine.run(&requests).unwrap()).unwrap();
        let b = serde_json::to_string(&engine.run(&requests).unwrap()).unwrap();
        assert_eq!(a, b, "same requests must serialize byte-identically");
        let other = pattern.generate(&pool, 100, 43).unwrap();
        let c = serde_json::to_string(&engine.run(&other).unwrap()).unwrap();
        assert_ne!(a, c, "a different seed must change the report");
    }

    #[test]
    fn impatient_sessions_abandon_under_contention() {
        let pool = pool();
        let pattern = TrafficPattern::poisson(1.0, 6);
        // A stampede with tiny patience: some sessions must give up.
        let mut requests = pattern.generate(&pool, 40, 9).unwrap();
        for r in &mut requests {
            r.arrival = Time::ZERO;
            r.patience = Some(Time::new(1));
        }
        let engine = TrafficEngine::with_config(&pool, NetParams::new(2), &RunConfig::default());
        let report = engine.run(&requests).unwrap();
        assert!(report.total.abandoned > 0, "tiny patience under a stampede");
        assert_eq!(report.total.completed + report.total.abandoned, 40);
        for record in report.per_session.iter().filter(|r| r.abandoned) {
            assert_eq!(record.started, None);
            assert_eq!(record.reception_latency, 0);
        }
        // With infinite patience nobody abandons.
        for r in &mut requests {
            r.patience = None;
        }
        let report = engine.run(&requests).unwrap();
        assert_eq!(report.total.abandoned, 0);
    }

    #[test]
    fn dp_tables_are_shared_across_a_session_stream() {
        let pool = pool();
        let requests = spaced_requests(&pool, 50, 10_000);
        // With the plan cache on, only its misses would reach the DP; off,
        // every session looks its table up.
        let engine = TrafficEngine::with_config(
            &pool,
            NetParams::new(2),
            &RunConfig::for_planner("dp-optimal").with_plan_cache(false, None),
        );
        let report = engine.run(&requests).unwrap();
        let dp = report.per_shard[0].dp_cache;
        assert_eq!(dp.lookups, 50);
        assert_eq!(dp.lookups, dp.hits + dp.misses);
        // All sessions share one canonical two-class signature; after the
        // widest table exists everything hits.
        assert!(
            dp.misses <= 5,
            "expected near-total table sharing, got {} misses",
            dp.misses
        );
        assert_eq!(dp.evictions, 0);
    }

    #[test]
    fn config_errors_are_reported() {
        let pool = pool();
        let requests = spaced_requests(&pool, 2, 1000);
        let engine = TrafficEngine::with_config(
            &pool,
            NetParams::new(1),
            &RunConfig::for_planner("no-such-planner"),
        );
        assert!(matches!(
            engine.run(&requests),
            Err(SimError::UnknownPlanner { .. })
        ));

        let engine = TrafficEngine::with_config(&pool, NetParams::new(1), &RunConfig::default());
        let mut bad = requests.clone();
        bad[1].members = vec![0, 0];
        bad[1].source = 3;
        assert!(matches!(
            engine.run(&bad),
            Err(SimError::MalformedSession { id }) if id == bad[1].id
        ));
        let mut oob = requests;
        oob[0].members = vec![pool.len()];
        assert!(matches!(
            engine.run(&oob),
            Err(SimError::MalformedSession { .. })
        ));
    }

    #[test]
    fn empty_runs_and_aggregates_are_nan_free() {
        // An engine offered zero sessions must produce all-zero aggregates
        // (never NaN), and the serialized report must not contain NaN — the
        // empty-shard case of the sharded cluster.
        let pool = pool();
        let engine = TrafficEngine::with_config(&pool, NetParams::new(2), &RunConfig::default());
        let report = engine.run(&[]).unwrap();
        assert_eq!(report.sessions, 0);
        assert_eq!(report.total.completed, 0);
        assert_eq!(report.total.makespan, 0);
        assert_eq!(report.total.throughput_per_kilotick, 0.0);
        assert_eq!(report.total.mean_reception_latency, 0.0);
        assert_eq!(report.total.mean_queue_delay, 0.0);
        assert_eq!(report.total.mean_node_utilization, 0.0);
        assert_eq!(report.total.peak_node_utilization, 0.0);
        assert_eq!(report.observed_cross_fraction, 0.0);
        assert_eq!(
            report.per_shard[0].dp_cache.hit_rate(),
            0.0,
            "0 lookups must not be NaN"
        );
        let json = serde_json::to_string(&report).unwrap();
        assert!(!json.contains("NaN"));

        // The shared aggregate helper: empty record set, zero busy time.
        let metrics = TrafficMetrics::from_records(std::iter::empty(), &[]);
        assert_eq!(metrics.sessions, 0);
        assert_eq!(metrics.throughput_per_kilotick, 0.0);
        assert_eq!(metrics.mean_reception_latency, 0.0);
        assert_eq!(metrics.mean_queue_delay, 0.0);
        assert_eq!(metrics.mean_node_utilization, 0.0);
        assert_eq!(metrics.peak_node_utilization, 0.0);
        assert!(!serde_json::to_string(&metrics).unwrap().contains("NaN"));

        // All-abandoned runs have completions = 0 but sessions > 0.
        let record = SessionRecord {
            id: 0,
            home_shard: 0,
            remote_shards: Vec::new(),
            arrival: 5,
            group_size: 3,
            planned_reception: 10,
            planned_delivery: 8,
            abandoned: true,
            started: None,
            queue_delay: 0,
            reception_latency: 0,
            delivery_latency: 0,
            failed_members: 0,
            nacks: 0,
            repair_sends: 0,
            repair_delays: Vec::new(),
            chunks: 1,
            chunk_deadline_misses: 0,
            chunk_jitters: Vec::new(),
        };
        let metrics = TrafficMetrics::from_records([&record], &[0, 0]);
        assert_eq!(metrics.sessions, 1);
        assert_eq!(metrics.abandoned, 1);
        assert_eq!(metrics.throughput_per_kilotick, 0.0);
        assert_eq!(metrics.mean_queue_delay, 0.0);
    }

    #[test]
    fn hostile_chunk_intervals_are_rejected_on_both_engines() {
        // A 3-chunk train released every u64::MAX / 2 ticks ends past the
        // largest representable time: both entry points must refuse it
        // with a typed error instead of overflowing the clock.
        let pool = pool();
        let net = NetParams::new(2);
        let requests = spaced_requests(&pool, 4, 10);
        let hostile = RunConfig::default().with_chunks(ChunkProfile::new(3, u64::MAX / 2));
        let flat = TrafficEngine::with_config(&pool, net, &hostile).run(&requests);
        assert!(
            matches!(flat, Err(SimError::TimeOverflow { session }) if session == requests[0].id),
            "the flat engine must reject the train"
        );
        let sharded = ShardedCluster::with_config(&pool, net, &hostile.clone().sharded(2))
            .unwrap()
            .run(&requests);
        assert!(
            matches!(sharded, Err(SimError::TimeOverflow { .. })),
            "the sharded cluster must reject the train"
        );
    }

    #[test]
    fn oversized_chunk_trains_are_rejected_before_allocating_on_both_engines() {
        // A u32::MAX-chunk train at interval 0 fits the clock, but its
        // (members + 1) × chunks state would take tens of GB per session:
        // both entry points must refuse it with a typed error before
        // sizing anything from the chunk count.
        let pool = pool();
        let net = NetParams::new(2);
        let requests = spaced_requests(&pool, 4, 10);
        let hostile = RunConfig::default().with_chunks(ChunkProfile::new(u32::MAX, 0));
        let slots = (requests[0].members.len() as u64 + 1) * u64::from(u32::MAX);
        let flat = TrafficEngine::with_config(&pool, net, &hostile).run(&requests);
        assert_eq!(
            flat.map(|_| ()),
            Err(SimError::TrainTooLarge {
                session: requests[0].id,
                slots
            })
        );
        let sharded = ShardedCluster::with_config(&pool, net, &hostile.clone().sharded(2))
            .unwrap()
            .run(&requests);
        assert!(
            matches!(sharded, Err(SimError::TrainTooLarge { .. })),
            "the sharded cluster must reject the train"
        );
        // The longest train within the bound is accepted.
        let members = requests[0].members.len() as u64 + 1;
        let fits = ChunkProfile::new((MAX_TRAIN_SLOTS / members) as u32, 0);
        let mut runtime = admit_all(&pool, net, &RunConfig::default(), &requests[..1]).remove(0);
        assert_eq!(runtime.apply_chunks(Some(fits)), Ok(()));
    }

    #[test]
    fn hostile_retry_backoff_is_rejected_on_both_engines() {
        // A retry waits up to 65 × backoff. At u64::MAX the jitter divisor
        // wraps to zero; at 2^62 the shift drops bits and the retry clock
        // overflows. Both entry points must refuse either backoff up front.
        let pool = pool();
        let net = NetParams::new(2);
        let requests = spaced_requests(&pool, 4, 10);
        for backoff in [u64::MAX, 1 << 62] {
            let hostile = RunConfig::default().with_loss(LossProfile {
                backoff,
                ..LossProfile::iid(0.5, 7)
            });
            let flat = TrafficEngine::with_config(&pool, net, &hostile).run(&requests);
            let sharded = ShardedCluster::with_config(&pool, net, &hostile.clone().sharded(2))
                .unwrap()
                .run(&requests);
            for (engine, result) in [("flat", flat), ("sharded", sharded)] {
                assert_eq!(
                    result.map(|_| ()),
                    Err(SimError::RetryBackoffOverflow { backoff }),
                    "{engine}: backoff {backoff}"
                );
            }
        }
    }

    #[test]
    fn extreme_chunk_intervals_aggregate_exact_means_on_both_engines() {
        // A 2-chunk train released every u64::MAX / 2 ticks ends within the
        // clock, but the latencies of four such sessions overflow a 64-bit
        // sum: both entry points must still report their exact mean.
        let pool = pool();
        let net = NetParams::new(2);
        let requests = spaced_requests(&pool, 4, 10);
        let extreme = RunConfig::default().with_chunks(ChunkProfile::new(2, u64::MAX / 2));
        let flat = TrafficEngine::with_config(&pool, net, &extreme).run(&requests);
        let sharded = ShardedCluster::with_config(&pool, net, &extreme.clone().sharded(2))
            .unwrap()
            .run(&requests);
        for report in [flat, sharded] {
            let report = report.expect("the train fits the clock");
            let latencies: Vec<u128> = report
                .per_session
                .iter()
                .map(|r| u128::from(r.reception_latency))
                .collect();
            assert_eq!(latencies.len(), requests.len());
            let sum: u128 = latencies.iter().sum();
            assert!(
                sum > u128::from(u64::MAX),
                "the run must exercise the overflow"
            );
            let exact = sum as f64 / latencies.len() as f64;
            assert_eq!(report.total.mean_reception_latency, exact);
        }
    }

    #[test]
    fn cache_hit_rate_is_zero_without_lookups_and_a_ratio_with() {
        let zero = CacheStats {
            lookups: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        };
        assert_eq!(zero.hit_rate(), 0.0);
        let half = CacheStats {
            lookups: 10,
            hits: 5,
            misses: 5,
            evictions: 0,
        };
        assert!((half.hit_rate() - 0.5).abs() < 1e-12);
    }

    /// Plans `requests` into runtimes exactly the way the one-shard
    /// pipeline does, without simulating. Planning is deterministic, so
    /// calling this twice yields interchangeable session vectors for two
    /// loops.
    fn admit_all(
        pool: &NodePool,
        net: NetParams,
        config: &RunConfig,
        requests: &[SessionRequest],
    ) -> Vec<SessionRuntime> {
        ShardedCluster::with_config(pool, net, config)
            .unwrap()
            .plan_all(requests)
    }

    #[test]
    fn kernel_reproduces_the_reference_loop_on_random_traffic() {
        // The unified kernel against the pre-unification flat loop (kept
        // verbatim in `reference`): random seeded traffic across light and
        // saturating loads, with and without churn, must produce identical
        // per-session outcomes and per-node busy time.
        let pool = pool();
        let specs: Vec<NodeSpec> = (0..pool.len()).map(|g| pool.spec_of_node(g)).collect();
        let net = NetParams::new(2);
        let config = RunConfig::default();
        let scenarios: &[(f64, bool)] = &[(1.0, false), (4.0, true), (0.5, true), (12.0, false)];
        for seed in 0..12u64 {
            for &(mean_gap, churn) in scenarios {
                let pattern = TrafficPattern {
                    arrivals: hnow_workload::ArrivalProfile::Poisson { mean_gap },
                    group_size: GroupSizeDist::Uniform { min: 2, max: 6 },
                    class_weights: None,
                    churn: churn.then_some(ChurnProfile {
                        impatient_fraction: 0.4,
                        mean_patience: 30.0,
                    }),
                };
                let requests = pattern.generate(&pool, 60, seed).unwrap();
                let mut unified = admit_all(&pool, net, &config, &requests);
                let mut old = admit_all(&pool, net, &config, &requests);
                let unified_busy = kernel::simulate(&specs, net, &mut unified, None, None).unwrap();
                let old_busy = reference::simulate(&specs, net, &mut old);
                let tag = format!("seed {seed}, mean_gap {mean_gap}, churn {churn}");
                assert_eq!(unified_busy, old_busy, "busy time diverged ({tag})");
                for (slot, (a, b)) in unified.iter().zip(&old).enumerate() {
                    assert_eq!(
                        a.started, b.started,
                        "started diverged, slot {slot} ({tag})"
                    );
                    assert_eq!(
                        a.abandoned, b.abandoned,
                        "abandoned diverged, slot {slot} ({tag})"
                    );
                    assert_eq!(
                        a.completed_at, b.completed_at,
                        "completion diverged, slot {slot} ({tag})"
                    );
                    assert_eq!(
                        a.delivered_at, b.delivered_at,
                        "delivery diverged, slot {slot} ({tag})"
                    );
                }
            }
        }
    }

    fn lossy_config(rate: f64, seed: u64, repair: RepairPlacement) -> RunConfig {
        RunConfig::default()
            .with_loss(LossProfile::iid(rate, seed))
            .with_repair(repair)
    }

    fn contended_requests(pool: &NodePool, n: usize, seed: u64) -> Vec<SessionRequest> {
        let pattern = TrafficPattern {
            arrivals: hnow_workload::ArrivalProfile::Poisson { mean_gap: 4.0 },
            group_size: GroupSizeDist::Uniform { min: 3, max: 7 },
            class_weights: None,
            churn: None,
        };
        pattern.generate(pool, n, seed).unwrap()
    }

    /// Contended sessions confined to three disjoint four-node blocks of
    /// [`pool`]: the stream splits into three components.
    fn split_requests(n: usize) -> Vec<SessionRequest> {
        (0..n)
            .map(|i| {
                let block = (i % 3) * 4;
                SessionRequest {
                    id: i as u64,
                    arrival: Time::new(i as u64 * 3),
                    source: block,
                    members: (block + 1..block + 4).collect(),
                    patience: None,
                    chunks: None,
                }
            })
            .collect()
    }

    #[test]
    fn rate_zero_loss_reproduces_the_lossless_report_byte_for_byte() {
        // The determinism contract's structural anchor: a configured loss
        // profile that can never lose anything must not perturb a single
        // event — the serialized reports are compared as bytes.
        let pool = pool();
        for seed in [3u64, 17, 99] {
            let requests = contended_requests(&pool, 80, seed);
            let lossless =
                TrafficEngine::with_config(&pool, NetParams::new(2), &RunConfig::default())
                    .run(&requests)
                    .unwrap();
            for repair in [RepairPlacement::SourceOnly, RepairPlacement::SubtreeRoot] {
                let zero = TrafficEngine::with_config(
                    &pool,
                    NetParams::new(2),
                    &lossy_config(0.0, seed, repair),
                )
                .run(&requests)
                .unwrap();
                assert_eq!(
                    serde_json::to_string(&lossless).unwrap(),
                    serde_json::to_string(&zero).unwrap(),
                    "rate-0 run diverged (seed {seed}, {})",
                    repair.name()
                );
            }
            assert_eq!(lossless.reliability.delivered_fraction, 1.0);
            assert_eq!(lossless.reliability.residual_loss, 0.0);
            assert_eq!(lossless.reliability.nacks, 0);
        }
    }

    #[test]
    fn lossy_runs_repair_deterministically_and_report_reliability() {
        let pool = pool();
        let requests = contended_requests(&pool, 120, 21);
        let engine = TrafficEngine::with_config(
            &pool,
            NetParams::new(2),
            &lossy_config(0.1, 77, RepairPlacement::SubtreeRoot),
        );
        let report = engine.run(&requests).unwrap();
        assert_eq!(report.schema, 6);
        let rel = &report.reliability;
        assert!(rel.nacks > 0, "10% loss over 120 sessions must NACK");
        assert!(rel.repair_sends > 0);
        assert!(rel.delivered_fraction > 0.9, "8 retries recover nearly all");
        assert!(rel.delivered_fraction <= 1.0);
        assert_eq!(rel.delivered + rel.failed, rel.offered_deliveries);
        // Repaired receivers pay for their repairs: the delay percentiles
        // are populated and ordered.
        assert!(rel.p50_repair_delay > 0);
        assert!(rel.p50_repair_delay <= rel.p95_repair_delay);
        assert!(rel.p95_repair_delay <= rel.p99_repair_delay);
        // Byte-identical on a second run.
        let again = engine.run(&requests).unwrap();
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
        // A different fault seed draws different losses.
        let other = TrafficEngine::with_config(
            &pool,
            NetParams::new(2),
            &lossy_config(0.1, 78, RepairPlacement::SubtreeRoot),
        )
        .run(&requests)
        .unwrap();
        assert_ne!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&other).unwrap()
        );
    }

    #[test]
    fn exhausted_retries_degrade_gracefully_to_partial_completion() {
        // Heavy loss with zero retries: failures must surface as partial
        // completions (degraded sessions), never hangs or panics.
        let pool = pool();
        let requests = contended_requests(&pool, 60, 5);
        let config = RunConfig::default().with_loss(LossProfile {
            max_retries: 0,
            ..LossProfile::iid(0.4, 13)
        });
        let report = TrafficEngine::with_config(&pool, NetParams::new(2), &config)
            .run(&requests)
            .unwrap();
        let rel = &report.reliability;
        assert!(rel.failed > 0, "40% loss with no retries must fail members");
        assert!(rel.degraded_sessions > 0);
        assert!(rel.residual_loss > 0.0);
        assert_eq!(report.total.completed + report.total.abandoned, 60);
        for record in &report.per_session {
            assert!(record.failed_members <= record.group_size);
        }
        // With ample retries the same traffic recovers everything.
        let recovered = TrafficEngine::with_config(
            &pool,
            NetParams::new(2),
            &lossy_config(0.4, 13, RepairPlacement::SubtreeRoot),
        )
        .run(&requests)
        .unwrap();
        assert!(recovered.reliability.residual_loss < rel.residual_loss);
    }

    #[test]
    fn repair_traffic_respects_one_port_occupancy() {
        // Property: the full activity log of a lossy run — planned sends,
        // receives and band-2 repair retransmissions alike — never
        // double-books a node.
        let pool = pool();
        let specs: Vec<NodeSpec> = (0..pool.len()).map(|g| pool.spec_of_node(g)).collect();
        let net = NetParams::new(2);
        for seed in 0..6u64 {
            let requests = contended_requests(&pool, 50, seed);
            let config = lossy_config(0.15, seed, RepairPlacement::FastestInSubtree);
            let mut sessions = admit_all(&pool, net, &config, &requests);
            let (_, log) =
                kernel::simulate_logged(&specs, net, &mut sessions, config.loss.as_ref());
            let offenders = crate::validate::check_one_port(pool.len(), &log);
            assert!(
                offenders.is_empty(),
                "seed {seed}: overlap on {offenders:?}"
            );
            assert!(
                sessions.iter().any(|s| s.repair_sends > 0),
                "seed {seed}: the check must actually cover repair traffic"
            );
        }
    }

    #[test]
    fn a_one_chunk_profile_reproduces_the_atomic_report_byte_for_byte() {
        // The streaming acceptance anchor: `chunks == 1` takes no streaming
        // branch anywhere in the kernel, so stamping a one-chunk profile on
        // every session must reproduce the atomic run byte for byte —
        // lossless and under 5% injected loss alike.
        let pool = pool();
        let net = NetParams::new(2);
        for seed in [3u64, 21] {
            let requests = contended_requests(&pool, 80, seed);
            for lossy in [false, true] {
                let mut base = RunConfig::default();
                if lossy {
                    base = base
                        .with_loss(LossProfile::iid(0.05, seed))
                        .with_repair(RepairPlacement::SubtreeRoot);
                }
                let atomic = TrafficEngine::with_config(&pool, net, &base)
                    .run(&requests)
                    .unwrap();
                let one_chunk = base.clone().with_chunks(ChunkProfile::new(1, 25));
                let chunked = TrafficEngine::with_config(&pool, net, &one_chunk)
                    .run(&requests)
                    .unwrap();
                assert_eq!(
                    serde_json::to_string(&atomic).unwrap(),
                    serde_json::to_string(&chunked).unwrap(),
                    "seed {seed}, lossy {lossy}: one-chunk run drifted from atomic"
                );
                assert_eq!(chunked.streaming.streaming_sessions, 0);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Per-chunk pipelining never double-books a port: the full
        /// activity log of a chunked run — every chunk's planned sends and
        /// receives plus band-2 repair retransmissions — passes the
        /// one-port check, across pipelined and sequential trains, tight
        /// and loose release intervals, lossless and lossy draws.
        #[test]
        fn chunk_trains_never_double_book_a_port(
            seed in 0u64..64,
            chunks in 2u32..=8,
            interval in 0u64..=40,
            sequential in proptest::bool::ANY,
            lossy in proptest::bool::ANY,
        ) {
            use proptest::prelude::prop_assert;
            let pool = pool();
            let specs: Vec<NodeSpec> = (0..pool.len()).map(|g| pool.spec_of_node(g)).collect();
            let net = NetParams::new(2);
            let requests = contended_requests(&pool, 25, seed);
            let mut profile = ChunkProfile::new(chunks, interval);
            if sequential {
                profile = profile.sequential();
            }
            let mut config = RunConfig::default().with_chunks(profile);
            if lossy {
                config = config
                    .with_loss(LossProfile::iid(0.15, seed))
                    .with_repair(RepairPlacement::FastestInSubtree);
            }
            let mut sessions = admit_all(&pool, net, &config, &requests);
            let (_, log) = kernel::simulate_logged(&specs, net, &mut sessions, config.loss.as_ref());
            prop_assert!(!log.is_empty());
            let offenders = crate::validate::check_one_port(pool.len(), &log);
            prop_assert!(offenders.is_empty(), "overlap on {:?}", offenders);
        }
    }

    #[test]
    fn an_abandoning_session_passes_the_freed_node_on() {
        // Three sessions race for source node 0 at t = 0. The FIFO admits
        // session 0; sessions 1 and 2 park. The node's release wakes session
        // 1, whose zero patience has expired — it abandons while holding the
        // only wake for an idle node, so unless the abandon path re-arms the
        // wake, session 2 starves forever.
        let pool = pool();
        let mut requests = spaced_requests(&pool, 3, 0);
        for (i, r) in requests.iter_mut().enumerate() {
            r.arrival = Time::ZERO;
            r.source = 0;
            r.members = vec![i + 1];
            r.patience = None;
        }
        requests[1].patience = Some(Time::ZERO);
        let engine = TrafficEngine::with_config(&pool, NetParams::new(2), &RunConfig::default());
        let report = engine.run(&requests).unwrap();
        assert!(
            report.per_session[1].abandoned,
            "session 1's deadline passes while node 0 serves session 0"
        );
        assert_eq!(
            report.total.completed, 2,
            "the node declined by the abandoning session must reach session 2"
        );
        assert!(!report.per_session[0].abandoned);
        assert!(!report.per_session[2].abandoned);
    }

    #[test]
    fn tracing_is_observation_only_and_thread_count_free() {
        // The telemetry determinism gate: attaching a trace sink and a
        // phase profiler never changes a single report byte — lossless and
        // under 5% injected loss, at 1 and at 8 rayon threads — and the
        // trace stream itself is seed-stable: repeated runs produce
        // identical event sequences, and both thread counts produce the
        // same sequence, also when the stream splits into components
        // simulated in parallel.
        use hnow_telemetry::PhaseProfiler;
        let pool = pool();
        let net = NetParams::new(2);
        let workloads = [
            ("contended", contended_requests(&pool, 60, 9)),
            ("split", split_requests(60)),
        ];
        for ((name, requests), lossy) in workloads
            .iter()
            .flat_map(|w| [false, true].map(|lossy| (w, lossy)))
        {
            let mut base = RunConfig::default();
            if lossy {
                base = base
                    .with_loss(LossProfile::iid(0.05, 9))
                    .with_repair(RepairPlacement::SubtreeRoot);
            }
            let mut streams = Vec::new();
            for threads in [1usize, 8] {
                let plain = base.clone().with_threads(threads);
                let untraced = TrafficEngine::with_config(&pool, net, &plain)
                    .run(requests)
                    .unwrap();
                if *name == "split" {
                    assert_eq!(untraced.components, 3);
                }
                let sink = Arc::new(MemorySink::new());
                let profiler = Arc::new(PhaseProfiler::new());
                let traced_config = plain.telemetry(
                    TelemetryConfig::new()
                        .with_sink(sink.clone())
                        .with_profiler(profiler.clone()),
                );
                let traced = TrafficEngine::with_config(&pool, net, &traced_config)
                    .run(requests)
                    .unwrap();
                assert_eq!(
                    serde_json::to_string(&untraced).unwrap(),
                    serde_json::to_string(&traced).unwrap(),
                    "{name}, lossy {lossy}, threads {threads}: tracing changed the report"
                );
                let first = sink.take();
                assert!(!first.is_empty());
                TrafficEngine::with_config(&pool, net, &traced_config)
                    .run(requests)
                    .unwrap();
                assert_eq!(
                    first,
                    sink.take(),
                    "{name}, lossy {lossy}, threads {threads}: trace not seed-stable"
                );
                for phase in ["plan", "simulate"] {
                    assert!(
                        profiler.spans().iter().any(|s| s.phase == phase),
                        "missing {phase} span"
                    );
                }
                assert!(
                    profiler
                        .spans()
                        .iter()
                        .all(|s| s.phase != "admit" && s.phase != "rebalance"),
                    "a run without a control plane opens no control-plane span"
                );
                streams.push(first);
            }
            assert!(
                streams[0] == streams[1],
                "{name}, lossy {lossy}: the event stream must not depend on the thread count"
            );
        }
    }

    #[test]
    fn the_timeseries_section_rides_after_an_unchanged_report() {
        // With a time-series window set, the report gains its optional
        // trailing `telemetry` section — and nothing else: stripping the
        // section reproduces the untraced serialization, and the section
        // itself is byte-identical across thread counts.
        let pool = pool();
        let net = NetParams::new(2);
        let requests = contended_requests(&pool, 60, 5);
        let base = RunConfig::default()
            .with_loss(LossProfile::iid(0.05, 5))
            .with_repair(RepairPlacement::SubtreeRoot);
        let untraced = TrafficEngine::with_config(&pool, net, &base)
            .run(&requests)
            .unwrap();
        assert!(untraced.telemetry.is_none());
        let run = |threads: usize| {
            let config = base
                .clone()
                .with_threads(threads)
                .telemetry(TelemetryConfig::new().with_timeseries(64));
            TrafficEngine::with_config(&pool, net, &config)
                .run(&requests)
                .unwrap()
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(
            serde_json::to_string(&one).unwrap(),
            serde_json::to_string(&eight).unwrap(),
            "the telemetry section must not depend on the thread count"
        );
        let telemetry = one.telemetry.as_ref().unwrap();
        assert_eq!(telemetry.window, 64);
        assert!(telemetry.events > 0);
        assert!(telemetry.buckets > 0);
        assert!(telemetry.nacks.iter().sum::<u64>() > 0, "5% loss must NACK");
        let mut stripped = one;
        stripped.telemetry = None;
        assert_eq!(
            serde_json::to_string(&untraced).unwrap(),
            serde_json::to_string(&stripped).unwrap(),
            "outside the telemetry section the report must be unchanged"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The kernel invariant checker over the engine's trace stream, on
        /// the same scenario grid as `chunk_trains_never_double_book_a_port`:
        /// no port double-booking, FIFO park/wake per node, correct band
        /// labels and session-open causality — across pipelined and
        /// sequential chunk trains, tight and loose release intervals,
        /// lossless and lossy draws.
        #[test]
        fn traced_runs_satisfy_the_kernel_invariants(
            seed in 0u64..64,
            chunks in 2u32..=8,
            interval in 0u64..=40,
            sequential in proptest::bool::ANY,
            lossy in proptest::bool::ANY,
        ) {
            use proptest::prelude::prop_assert;
            let pool = pool();
            let net = NetParams::new(2);
            let requests = contended_requests(&pool, 25, seed);
            let mut profile = ChunkProfile::new(chunks, interval);
            if sequential {
                profile = profile.sequential();
            }
            let mut config = RunConfig::default().with_chunks(profile);
            if lossy {
                config = config
                    .with_loss(LossProfile::iid(0.15, seed))
                    .with_repair(RepairPlacement::FastestInSubtree);
            }
            let sink = Arc::new(MemorySink::new());
            config = config.telemetry(TelemetryConfig::new().with_sink(sink.clone()));
            TrafficEngine::with_config(&pool, net, &config)
                .run(&requests)
                .unwrap();
            let events = sink.take();
            prop_assert!(!events.is_empty());
            if let Err(violation) = hnow_telemetry::check_invariants(&events) {
                prop_assert!(false, "{}", violation);
            }
        }
    }
}
