//! The unified run configuration.
//!
//! [`RunConfig`] is the one builder-style configuration of every execution
//! surface: pick a planner, dial loss/repair, stamp a default chunk
//! profile, opt into sharding or the control plane ([`ControlConfig`]),
//! and pin a thread count — then hand the same value to
//! [`TrafficEngine::with_config`](crate::sessions::TrafficEngine::with_config)
//! or
//! [`ShardedCluster::with_config`](crate::cluster::ShardedCluster::with_config).
//! Both run the one session pipeline and keep the `RunConfig` itself.

use crate::cluster::ControlConfig;
use crate::error::SimError;
use crate::faults::LossProfile;
use hnow_core::RepairPlacement;
use hnow_model::ChunkProfile;
use hnow_telemetry::TelemetryConfig;

/// Runs `f` on a freshly built rayon pool of `threads` workers, or inline
/// on the inherited pool when `threads` is `None`.
pub(crate) fn install_pool<T: Send>(
    threads: Option<usize>,
    f: impl FnOnce() -> T + Send,
) -> Result<T, SimError> {
    match threads {
        None => Ok(f()),
        Some(n) => Ok(rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .map_err(|e| SimError::ThreadPool {
                reason: e.to_string(),
            })?
            .install(f)),
    }
}

/// One builder-style configuration for both entry points of the session
/// pipeline: the flat [`TrafficEngine`](crate::sessions::TrafficEngine)
/// forces one shard, the [`ShardedCluster`](crate::cluster::ShardedCluster)
/// partitions the pool into [`RunConfig::shards`] shards; every other
/// field means the same on both.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Registry name of the planner serving every session and every
    /// gateway tree.
    pub planner: String,
    /// Kept for callers that replay a stream's plan requests in batches of
    /// this size; no engine reads it, because the pipeline plans every
    /// session sequentially in submission order.
    pub batch_size: usize,
    /// LRU capacity of the shared DP-table cache; `None` = unbounded.
    pub dp_cache_capacity: Option<usize>,
    /// Seeded message-loss injection; `None` runs the lossless model. A
    /// rate-0 profile reproduces the `None` report byte for byte.
    pub loss: Option<LossProfile>,
    /// Repairer placement annotated onto admitted plans (consulted only
    /// when [`RunConfig::loss`] is active).
    pub repair: RepairPlacement,
    /// Run-wide default chunk profile for streaming sessions. A request
    /// carrying its own [`SessionRequest::chunks`](hnow_workload::SessionRequest::chunks)
    /// wins; `None` leaves profile-less requests atomic.
    pub chunks: Option<ChunkProfile>,
    /// Shard count for [`ShardedCluster::with_config`](crate::cluster::ShardedCluster::with_config);
    /// `0` (the default) means "flat" and is clamped to one shard. The
    /// flat engine always runs one shard.
    pub shards: usize,
    /// Whether per-shard plan caches reuse one planned tree shape across
    /// same-signature sessions. Ignored (treated as `false`) for planners
    /// that consume the request seed, whose plans are not a pure function
    /// of the signature.
    pub plan_cache: bool,
    /// LRU capacity of each plan cache (`None` = unbounded). Evictions and
    /// hit rates surface per shard in the report.
    pub plan_cache_capacity: Option<usize>,
    /// Online control plane; `None` runs the whole stream as one epoch
    /// with admission off, no rebalancer and the `fastest-member` gateway
    /// policy.
    pub control: Option<ControlConfig>,
    /// Rayon worker threads the run installs; `None` inherits the global
    /// pool. Any value must produce byte-identical reports — the
    /// determinism contract is thread-count-independent and CI pins a
    /// 1-vs-8 comparison.
    pub threads: Option<usize>,
    /// Telemetry attachments (trace sink, time-series window, phase
    /// profiler); `None` — the default — runs fully untraced. Telemetry is
    /// observation-only: attaching any combination never changes a report
    /// outside its optional `telemetry` section.
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for RunConfig {
    /// Refined greedy, `batch_size` 64, at most 128 cached DP tables, no
    /// loss, source-only repair, atomic sessions, flat, plan caching ready
    /// at capacity 256, no control plane, inherited thread pool.
    fn default() -> Self {
        RunConfig {
            planner: "greedy+leaf".to_string(),
            batch_size: 64,
            dp_cache_capacity: Some(128),
            loss: None,
            repair: RepairPlacement::SourceOnly,
            chunks: None,
            shards: 0,
            plan_cache: true,
            plan_cache_capacity: Some(256),
            control: None,
            threads: None,
            telemetry: None,
        }
    }
}

impl RunConfig {
    /// The default configuration (same as [`Default`]).
    pub fn new() -> Self {
        RunConfig::default()
    }

    /// Default configuration with a named planner.
    pub fn for_planner(planner: &str) -> Self {
        RunConfig {
            planner: planner.to_string(),
            ..RunConfig::default()
        }
    }

    /// Partitions the pool into `shards` shards on
    /// [`ShardedCluster::with_config`](crate::cluster::ShardedCluster::with_config).
    pub fn sharded(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Injects seeded message loss.
    pub fn with_loss(mut self, loss: LossProfile) -> Self {
        self.loss = Some(loss);
        self
    }

    /// Sets the repairer-placement policy.
    pub fn with_repair(mut self, repair: RepairPlacement) -> Self {
        self.repair = repair;
        self
    }

    /// Stamps a run-wide default chunk profile (requests carrying their
    /// own profile still win).
    pub fn with_chunks(mut self, chunks: ChunkProfile) -> Self {
        self.chunks = Some(chunks);
        self
    }

    /// Turns on the online control plane.
    pub fn with_control(mut self, control: ControlConfig) -> Self {
        self.control = Some(control);
        self
    }

    /// Pins the rayon thread count for the run.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the plan-cache switch and capacity.
    pub fn with_plan_cache(mut self, on: bool, capacity: Option<usize>) -> Self {
        self.plan_cache = on;
        self.plan_cache_capacity = capacity;
        self
    }

    /// Attaches telemetry to the run: a kernel trace sink, a time-series
    /// window, a phase profiler, or any combination. Telemetry is strictly
    /// observation-only — reports stay byte-identical outside the optional
    /// `telemetry` section they gain when a time-series window is set.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use hnow_sim::RunConfig;
    /// use hnow_telemetry::{MemorySink, TelemetryConfig};
    ///
    /// let sink = Arc::new(MemorySink::new());
    /// let config = RunConfig::default().telemetry(
    ///     TelemetryConfig::new()
    ///         .with_sink(sink.clone())
    ///         .with_timeseries(100),
    /// );
    /// assert!(config.telemetry.as_ref().unwrap().is_active());
    /// ```
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let run = RunConfig::for_planner("fnf")
            .sharded(4)
            .with_chunks(ChunkProfile::new(8, 25))
            .with_threads(2);
        assert_eq!(run.planner, "fnf");
        assert_eq!(run.shards, 4);
        assert_eq!(run.chunks, Some(ChunkProfile::new(8, 25)));
        assert_eq!(run.threads, Some(2));
    }

    #[test]
    fn flat_configs_project_to_one_shard() {
        let pool = hnow_workload::NodePool::new(
            hnow_workload::two_class_table(),
            hnow_workload::default_message_size(),
            &[4, 2],
        )
        .unwrap();
        let shards = |config: RunConfig| {
            crate::cluster::ShardedCluster::with_config(
                &pool,
                hnow_model::NetParams::new(1),
                &config,
            )
            .unwrap()
            .shard_map()
            .num_shards()
        };
        assert_eq!(shards(RunConfig::default()), 1);
        assert_eq!(shards(RunConfig::default().sharded(0)), 1);
        assert_eq!(shards(RunConfig::default().sharded(3)), 3);
    }
}
