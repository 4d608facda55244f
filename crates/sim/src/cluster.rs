//! The session service: one epoch pipeline that dispatches, plans, admits,
//! binds and simulates streams of multicast sessions over a sharded pool.
//!
//! [`ShardedCluster`] is the crate's only pipeline; the flat
//! [`TrafficEngine`](crate::sessions::TrafficEngine) runs it over a single
//! shard holding the whole pool. A run consumes its requests in **epochs**
//! — slices of [`ControlConfig::epoch`] sessions when the control plane is
//! on, one epoch over the whole stream otherwise — and every epoch passes
//! through the same stages:
//!
//! 1. **Dispatch** — a [`ShardMap`] partitions the pool into class-aware
//!    shards; each [`SessionRequest`] is validated (node ids in range and
//!    distinct) and routed to the *home shard* of its source. Sessions whose
//!    members stay inside the home shard are served entirely by that shard.
//! 2. **Planning**, sequential in submission order — every shard owns a
//!    [`PlanContext`]/DP-cache and a *plan cache*: sessions reduce to their
//!    class signature, and all sessions sharing a signature reuse one
//!    planned tree shape (bound to their concrete nodes per session).
//!    Deterministic planners only; a seeded planner bypasses the plan cache.
//! 3. **Gateway stitching** — a session spanning shards is planned in two
//!    levels: a *gateway tree* over one designated gateway per touched
//!    shard (the source for the home shard; for remote shards the member a
//!    [`GatewayPolicy`] elects), planned by the same registry planner over
//!    the gateway class vector, then one per-shard subtree rooted at each
//!    gateway. Both levels come from the plan caches, and the stitch
//!    shifts the cached plans by block offsets instead of rebuilding a
//!    tree: subtree `i` occupies one contiguous block of the session's
//!    node ids, gateway `i` sends to its gateway-tree children first and
//!    then to its subtree, and every subtree node keeps its cached time
//!    shifted by gateway `i`'s reception plus its gateway-tree sends. The
//!    session's planned `R_T`/`D_T` are exactly those of the grafted tree
//!    re-timed from scratch by
//!    [`compose()`](hnow_core::schedule::compose::compose), the reference
//!    a differential test holds the stitch to, so they obey the ordinary
//!    occupancy semantics and planned-vs-achieved accounting holds exactly
//!    as for intra-shard sessions (in a zero-jitter, zero-contention run
//!    they are equal).
//! 4. **Binding** — admitted sessions are grouped by union-find over the
//!    *session-node contact graph*: two sessions sharing any pool node land
//!    in one component, so one hot shard can still split into independently
//!    simulable components and cross traffic only merges the sessions it
//!    actually connects.
//! 5. **Component simulation** — each component compacts its nodes to a
//!    dense range and runs the crate's one occupancy kernel (`kernel`) from
//!    the per-node busy horizons carried in from earlier epochs. Components
//!    fan out over rayon's real worker threads and merge positionally, so
//!    the serialized report is byte-identical at every thread count. A
//!    traced run with several workers buffers each component's events and
//!    flushes them in component order, so the raw trace stream is too.
//!
//! The result is a [`TrafficReport`]: per-session records (with home shard
//! and remote shards), run-wide, per-shard and cross-shard aggregates (all
//! NaN-free via [`TrafficMetrics`]), and per-shard cache statistics. The
//! whole pipeline is deterministic: the same `(pool, config, requests)`
//! produce a byte-identical serialized report.
//!
//! # The control plane
//!
//! With a [`ControlConfig`] the run becomes an online service loop:
//! requests are consumed in fixed-size epochs, and between epochs the
//! control plane observes and acts. Without one, the run is a single epoch
//! with admission off, no rebalancer and the `fastest-member` gateway
//! policy.
//!
//! * **Admission** ([`hnow_control::admission`]) — within each epoch,
//!   admitted sessions execute shortest-planned-`R_T`-first among
//!   same-instant arrivals, and sessions whose *predicted* queue delay
//!   (from per-node busy horizons carried across epochs) already exceeds
//!   their churn patience are shed before any planning effort is wasted
//!   on simulation. Every session gets an explicit
//!   `admitted`/`reordered`/`shed` decision in the report.
//! * **Rebalancing** ([`hnow_control::rebalance`]) — a hysteresis
//!   controller watches per-shard mean queue delay; when the hot/cold
//!   divergence crosses the enter threshold, it migrates nodes (class-
//!   aware, deterministic tie-breaks) from the hottest to the coldest
//!   shard via [`ShardMap::migrate`], invalidating only the plan-cache
//!   entries the shrunken shard can no longer satisfy.
//! * **Gateway policy** ([`hnow_control::policy`]) — cross-shard gateway
//!   election is pluggable: the fastest-member baseline, a load-aware
//!   variant reading carried busy horizons, or a stitched-`R_T` estimate
//!   minimizer, selected by name.
//!
//! Epochs couple through per-node busy horizons: each epoch's kernel run
//! starts from the carried horizons and returns the next carry, so load
//! admitted in epoch `e` delays epoch `e + 1` exactly as a service queue
//! would. These *epoch-synchronous* semantics are intentionally not the
//! one-global-pass semantics of a single epoch — a session arriving in a
//! later epoch cannot overtake work already committed, even if its arrival
//! time precedes an earlier epoch's completion. Within one configuration
//! the loop keeps the full determinism contract: byte-identical serialized
//! reports per `(pool, config, requests)` at every thread count.

use crate::config::RunConfig;
use crate::error::SimError;
use crate::kernel;
use crate::sessions::{
    children_lists, record_for, CacheStats, ReliabilityReport, SessionRecord, SessionRuntime,
    StreamingReport, TraceDest, TrafficMetrics, TrafficReport,
};
use hnow_control::{
    admit, find_policy, AdmissionDecision, AdmissionIntent, GatewayCandidate, GatewayPolicy,
    Rebalancer,
};
use hnow_core::planner::{find, PlanContext, PlanRequest, Planner};
use hnow_core::{RepairPlacement, ScheduleTiming};
use hnow_model::{NetParams, NodeId, NodeSpec, Time, TypedMulticast};
use hnow_telemetry::{
    MemorySink, Recorder, TelemetryReport, TraceEvent, TraceEventKind, TraceSink,
};
use hnow_workload::{NodePool, SessionRequest, ShardMap};

pub use hnow_control::RebalanceConfig;
use rayon::prelude::*;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;

/// Gateway policy of a run without a control plane: the fastest member,
/// ties by lowest id.
const BATCH_POLICY: &str = "fastest-member";

/// Configuration of the online control loop (see the
/// [module docs](self#the-control-plane)).
#[derive(Debug, Clone, PartialEq)]
pub struct ControlConfig {
    /// Sessions consumed per epoch (clamped to at least 1). Smaller epochs
    /// react faster but amortize less planning.
    pub epoch: usize,
    /// Whether the admission controller reorders and sheds within epochs.
    /// Off, every session is admitted in submission order.
    pub admission: bool,
    /// Gateway-election policy by name (see
    /// [`hnow_control::policies()`](hnow_control::policies)).
    pub policy: String,
    /// Shard rebalancer; `None` keeps the partition static.
    pub rebalance: Option<RebalanceConfig>,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            epoch: 64,
            admission: true,
            policy: BATCH_POLICY.to_string(),
            rebalance: None,
        }
    }
}

/// Aggregates of one shard's intra-shard traffic.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardReport {
    /// Shard id.
    pub shard: usize,
    /// Nodes owned by the shard.
    pub nodes: usize,
    /// NaN-free aggregates over the sessions homed (and contained) in this
    /// shard. The two node-utilization fields are the exception to the
    /// record-subset rule: they cover *all* work the shard's nodes
    /// performed — cross-shard sessions included — over the run-wide
    /// makespan, so they stay in `[0, 1]` and are meaningful even for a
    /// shard with no intra-shard sessions of its own.
    pub metrics: TrafficMetrics,
    /// The shard's DP-cache statistics.
    pub dp_cache: CacheStats,
    /// The shard's DP-cache hit rate (0, never NaN, when nothing was looked
    /// up — e.g. an empty shard or a non-DP planner).
    pub dp_hit_rate: f64,
    /// The shard's plan-cache statistics (all zeros when caching is off).
    /// Evictions count both LRU pressure and rebalancing invalidations.
    pub plan_cache: CacheStats,
    /// Distinct class signatures resident in the shard's plan cache after
    /// the run (0 when plan caching is off).
    pub plan_signatures: usize,
}

/// One node migration committed by the rebalancer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MigrationRecord {
    /// Epoch after which the move was committed (0-based).
    pub epoch: usize,
    /// Global id of the migrated node.
    pub node: usize,
    /// Source (hot) shard.
    pub from: usize,
    /// Destination (cold) shard.
    pub to: usize,
    /// Workstation class of the node.
    pub class: usize,
}

/// What the control plane decided and did over one run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ControlPlaneReport {
    /// Gateway policy that served cross-shard elections.
    pub policy: String,
    /// Whether the admission controller was active.
    pub admission: bool,
    /// Whether the rebalancer was active.
    pub rebalance: bool,
    /// Sessions consumed per epoch.
    pub epoch: usize,
    /// Sessions admitted at their submission rank.
    pub admitted: usize,
    /// Sessions admitted but executed at a different rank.
    pub reordered: usize,
    /// Sessions shed by predicted queue delay exceeding patience.
    pub shed: usize,
    /// Plan-cache entries invalidated by shard migrations.
    pub plan_cache_invalidations: usize,
    /// Committed node migrations, in commit order.
    pub migrations: Vec<MigrationRecord>,
    /// Per-session decision labels (`admitted`/`reordered`/`shed`), in
    /// request order.
    pub decisions: Vec<String>,
}

/// A planned tree shape shared by every session with one class signature.
struct CachedPlan {
    /// The schedule tree's child lists (canonical instance numbering, node
    /// 0 the root), shared into each session's runtime.
    children: Arc<Vec<Vec<usize>>>,
    /// The destinations' tree node ids, class by class, for binding them
    /// to a session's members.
    locals: Vec<usize>,
    /// Repairer assignment over the tree's local ids: `Some` only for shard
    /// plans on lossy runs (the policy is constant per run, so it cannot
    /// split cache keys). Gateway plans carry none: a cross-shard session's
    /// repairers come from [`stitch`] over its stitched child lists.
    repairer: Option<Arc<Vec<usize>>>,
    /// The tree's timing: its `R_T`/`D_T`, and the per-node receptions a
    /// gateway plan's subtrees are shifted by.
    timing: ScheduleTiming,
}

/// Plan-cache key: `[source class, per-class member counts…]`.
type PlanKey = Vec<usize>;

/// LRU cache of planned tree shapes keyed by class signature.
///
/// The map is never iterated for output — only keyed lookups, `len()` (the
/// report's `plan_signatures`) and evictions — and eviction picks the
/// entry with the *unique* minimum use stamp, so HashMap iteration order
/// cannot leak into report bytes.
struct PlanCache {
    map: HashMap<PlanKey, (u64, Arc<CachedPlan>)>,
    /// Monotone use counter; every stamp in `map` is distinct.
    clock: u64,
    capacity: Option<usize>,
    lookups: usize,
    hits: usize,
    misses: usize,
    evictions: usize,
}

impl PlanCache {
    fn new(capacity: Option<usize>) -> Self {
        PlanCache {
            map: HashMap::new(),
            clock: 0,
            capacity,
            lookups: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up a signature, counting the hit or miss and refreshing the
    /// entry's use stamp.
    fn get(&mut self, key: &[usize]) -> Option<Arc<CachedPlan>> {
        self.lookups += 1;
        match self.map.get_mut(key) {
            Some((stamp, plan)) => {
                self.hits += 1;
                self.clock += 1;
                *stamp = self.clock;
                Some(Arc::clone(plan))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly planned shape, evicting least-recently-used
    /// entries while over capacity.
    fn insert(&mut self, key: PlanKey, plan: Arc<CachedPlan>) {
        self.clock += 1;
        self.map.insert(key, (self.clock, plan));
        if let Some(cap) = self.capacity {
            let cap = cap.max(1);
            while self.map.len() > cap {
                let oldest = self
                    .map
                    .iter()
                    .min_by_key(|(_, (stamp, _))| *stamp)
                    .map(|(key, _)| key.clone())
                    .expect("invariant: len > cap >= 1, so the map has an oldest entry");
                self.map.remove(&oldest);
                self.evictions += 1;
            }
        }
    }

    /// Drops every entry matching `pred`, counting the drops as evictions,
    /// and returns how many were dropped (rebalancing invalidation).
    fn evict_where(&mut self, mut pred: impl FnMut(&[usize]) -> bool) -> usize {
        let before = self.map.len();
        self.map.retain(|key, _| !pred(key));
        let dropped = before - self.map.len();
        self.evictions += dropped;
        dropped
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

/// Planning state that lives for a whole run: the registry planner, and
/// the DP contexts and plan caches of every shard and of the dispatcher's
/// gateway trees.
struct Planning {
    planner: &'static dyn Planner,
    /// Whether plan caches are consulted (never for seeded planners, whose
    /// plans are not a pure function of the signature).
    caching: bool,
    shard_ctxs: Vec<PlanContext>,
    shard_caches: Vec<PlanCache>,
    gateway_ctx: PlanContext,
    gateway_cache: PlanCache,
    /// The plan-cache key of the lookup at hand, reused so that only a
    /// miss allocates an owned key.
    key: PlanKey,
    /// Reused `(class, node)` sort buffer of a plan's binding.
    by_class: Vec<(usize, usize)>,
}

/// A plan bound to one session's concrete pool nodes.
struct Bound {
    node_map: Vec<usize>,
    children: Arc<Vec<Vec<usize>>>,
    repairer: Option<Arc<Vec<usize>>>,
    planned_reception: Time,
    planned_delivery: Time,
}

/// A cross-shard session planned and bound block by block, ready for
/// [`stitch`]. Subtree `i`, rooted at gateway-tree node `i`, occupies the
/// block `offsets[i]..offsets[i + 1]` of the session's node ids (the last
/// offset is the node count): tree node `l` of subtree `i` is session node
/// `offsets[i] + l`, bound to pool node `node_map[offsets[i] + l]`.
#[cfg_attr(test, derive(Clone))]
struct Blocks {
    gateway: Arc<CachedPlan>,
    /// `None` for a gateway with no local members to serve.
    subtrees: Vec<Option<Arc<CachedPlan>>>,
    offsets: Vec<usize>,
    node_map: Vec<usize>,
}

/// Sessions of one epoch in some execution order: their positions in the
/// epoch, and their runtimes.
type Group = (Vec<usize>, Vec<SessionRuntime>);

/// `(node, busy time, busy horizon)` per node a simulated component touched.
type Horizons = Vec<(usize, u64, Time)>;

/// Plans and simulates session streams over a sharded pool. See the
/// [module docs](self) for the pipeline.
#[derive(Debug)]
pub struct ShardedCluster<'a> {
    pool: &'a NodePool,
    map: ShardMap,
    net: NetParams,
    config: RunConfig,
}

impl<'a> ShardedCluster<'a> {
    /// Partitions `pool` into [`RunConfig::shards`] shards; a flat config
    /// (`shards == 0`) is clamped to one shard.
    pub fn with_config(
        pool: &'a NodePool,
        net: NetParams,
        config: &RunConfig,
    ) -> Result<Self, SimError> {
        let map = ShardMap::partition(pool, config.shards.max(1)).map_err(SimError::Sharding)?;
        Ok(ShardedCluster {
            pool,
            map,
            net,
            config: config.clone(),
        })
    }

    /// The shard partition in use.
    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    /// Plans and simulates the given sessions (global node ids), returning
    /// the merged report. With [`RunConfig::control`] set the run is the
    /// epoch-synchronous control loop, otherwise a single epoch. With
    /// [`RunConfig::threads`] pinned, the whole run executes on a dedicated
    /// rayon pool of that size — the report is byte-identical at every
    /// thread count.
    pub fn run(&self, requests: &[SessionRequest]) -> Result<TrafficReport, SimError> {
        crate::config::install_pool(self.config.threads, || self.serve(requests))?
    }

    /// Plans and binds `requests` as one epoch of the pipeline does,
    /// without simulating: input for the kernel's property tests.
    #[cfg(test)]
    pub(crate) fn plan_all(&self, requests: &[SessionRequest]) -> Vec<SessionRuntime> {
        let planner = find(&self.config.planner).expect("a registered planner");
        let policy = find_policy(BATCH_POLICY).expect("the baseline policy is registered");
        let mut planning = self.planning(planner);
        let idle = vec![Time::ZERO; self.pool.len()];
        requests
            .iter()
            .map(|request| {
                self.admit(&mut planning, &self.map, request, policy, &idle)
                    .expect("test requests plan cleanly")
            })
            .collect()
    }

    /// Fresh planning state for one run.
    fn planning(&self, planner: &'static dyn Planner) -> Planning {
        let new_ctx = || match self.config.dp_cache_capacity {
            Some(cap) => PlanContext::with_dp_capacity(cap),
            None => PlanContext::new(),
        };
        let shards = self.map.num_shards();
        Planning {
            planner,
            caching: self.config.plan_cache && !planner.capabilities().uses_seed,
            shard_ctxs: (0..shards).map(|_| new_ctx()).collect(),
            shard_caches: (0..shards)
                .map(|_| PlanCache::new(self.config.plan_cache_capacity))
                .collect(),
            gateway_ctx: new_ctx(),
            gateway_cache: PlanCache::new(self.config.plan_cache_capacity),
            key: Vec::new(),
            by_class: Vec::new(),
        }
    }

    /// The pipeline (see the [module docs](self)): per epoch, plan →
    /// admit → bind → simulate from carried busy horizons, then maybe
    /// rebalance.
    fn serve(&self, requests: &[SessionRequest]) -> Result<TrafficReport, SimError> {
        let planner = find(&self.config.planner).ok_or_else(|| SimError::UnknownPlanner {
            name: self.config.planner.clone(),
        })?;
        let control = self.config.control.as_ref();
        let policy_name = control.map_or(BATCH_POLICY, |c| c.policy.as_str());
        let policy = find_policy(policy_name).ok_or_else(|| SimError::UnknownPolicy {
            name: policy_name.to_string(),
        })?;
        if let Some(loss) = self
            .config
            .loss
            .as_ref()
            .filter(|l| l.max_retry_delay().is_none())
        {
            return Err(SimError::RetryBackoffOverflow {
                backoff: loss.backoff,
            });
        }
        let admission = control.is_some_and(|c| c.admission);
        let mut rebalancer = control
            .and_then(|c| c.rebalance.clone())
            .map(Rebalancer::new);
        let epoch_len = control.map_or(requests.len(), |c| c.epoch).max(1);
        let epochs = requests.len().div_ceil(epoch_len);
        let shards = self.map.num_shards();
        let nodes = self.pool.len();
        let mut planning = self.planning(planner);
        let profiler = self
            .config
            .telemetry
            .as_ref()
            .and_then(|t| t.profiler.as_deref());
        let span = |phase| profiler.map(|p| p.span(phase));
        let trace = TraceDest::from(self.config.telemetry.as_ref(), nodes, shards);
        // Admission decisions carry no node, so one run-wide recorder (no
        // remap) serves every epoch; runs without a control plane decide
        // nothing.
        let decision_recorder = trace
            .as_ref()
            .filter(|_| control.is_some())
            .map(|t| Recorder::fanout(t.sinks()));

        // State carried across epochs: the (mutable) partition and the
        // per-node busy horizons coupling epochs.
        let mut map = self.map.clone();
        let specs: Vec<NodeSpec> = (0..nodes).map(|g| self.pool.spec_of_node(g)).collect();
        let mut busy_until = vec![Time::ZERO; nodes];
        let mut busy_time = vec![0u64; nodes];
        let mut records: Vec<SessionRecord> = Vec::with_capacity(requests.len());
        let mut decisions: Vec<&'static str> = Vec::new();
        let (mut n_admitted, mut n_reordered, mut n_shed) = (0usize, 0usize, 0usize);
        let mut migrations: Vec<MigrationRecord> = Vec::new();
        let mut invalidations = 0usize;
        let mut components = 0usize;
        let mut stamp = vec![0u32; nodes];
        let mut generation = 0u32;

        for (epoch_no, batch) in requests.chunks(epoch_len).enumerate() {
            // Plan every session of the epoch against the *current* map,
            // in submission order (plan caches make repeats cheap).
            let plan_span = span("plan");
            let mut sessions: Vec<(usize, SessionRuntime)> = Vec::with_capacity(batch.len());
            for (j, request) in batch.iter().enumerate() {
                generation += 1;
                check_ids(nodes, request, &mut stamp, generation)?;
                let runtime = self.admit(&mut planning, &map, request, policy, &busy_until)?;
                sessions.push((j, runtime));
            }
            drop(plan_span);

            // Admission: reorder same-instant arrivals shortest-planned-R_T
            // first and shed sessions already doomed by their patience.
            let mut shed: Vec<(usize, SessionRuntime)> = Vec::new();
            if control.is_some() {
                let admit_span = if admission { span("admit") } else { None };
                let epoch_decisions = if admission {
                    let intents: Vec<AdmissionIntent> = sessions
                        .iter()
                        .map(|(_, runtime)| AdmissionIntent {
                            arrival: runtime.arrival.raw(),
                            deadline: runtime.deadline.map(|d| d.raw()),
                            planned_reception: runtime.planned_reception.raw(),
                            source: runtime.node_map[0],
                            charges: charges_for(runtime, &specs),
                        })
                        .collect();
                    let mut clock: Vec<u64> = busy_until.iter().map(|t| t.raw()).collect();
                    let outcome = admit(&intents, &mut clock);
                    // Execution order: admitted sessions by rank, then the
                    // shed ones, which never reach the kernel.
                    let mut rank = vec![usize::MAX; sessions.len()];
                    for (r, &j) in outcome.order.iter().enumerate() {
                        rank[j] = r;
                    }
                    sessions.sort_unstable_by_key(|&(j, _)| rank[j]);
                    shed = sessions.split_off(outcome.order.len());
                    outcome.decisions
                } else {
                    vec![AdmissionDecision::Admitted; sessions.len()]
                };
                for (request, decision) in batch.iter().zip(&epoch_decisions) {
                    decisions.push(decision.label());
                    let kind = match decision {
                        AdmissionDecision::Admitted => {
                            n_admitted += 1;
                            TraceEventKind::Admitted
                        }
                        AdmissionDecision::Reordered => {
                            n_reordered += 1;
                            TraceEventKind::Reordered
                        }
                        AdmissionDecision::Shed => {
                            n_shed += 1;
                            TraceEventKind::Shed
                        }
                    };
                    if let Some(recorder) = decision_recorder.as_ref() {
                        // Stamped with the session's arrival: the decision
                        // is taken at epoch granularity, but arrival is the
                        // deterministic sim-time instant it concerns.
                        recorder.emit(TraceEvent::new(request.arrival.raw(), kind, request.id));
                    }
                }
                for (_, runtime) in &mut shed {
                    runtime.abandoned = true;
                }
                drop(admit_span);
            }

            // Contact-group the admitted sessions. Execution order — the
            // kernel's slice-position tie-break — is the admission order,
            // which is how reordering takes effect; component slots are
            // assigned in first-appearance order along it.
            let bind_span = span("bind");
            let mut dsu = Dsu::new(nodes);
            // The dense id of every node a session touches (marked 0 here).
            let mut dense_of = vec![usize::MAX; nodes];
            for (_, runtime) in &sessions {
                let first = runtime.node_map[0];
                dense_of[first] = 0;
                for &node in &runtime.node_map[1..] {
                    dsu.union(first, node);
                    dense_of[node] = 0;
                }
            }
            let mut slot_of_root = vec![usize::MAX; nodes];
            let mut grouped: Vec<Group> = Vec::new();
            // Drained, not consumed: the emptied buffer is freed only after
            // simulation. Freeing a multi-megabyte block first would raise
            // the allocator's mmap threshold, and the kernel's large
            // transient tables would then stay resident after the run.
            for (j, runtime) in sessions.drain(..) {
                let root = dsu.find(runtime.node_map[0]);
                if slot_of_root[root] == usize::MAX {
                    slot_of_root[root] = grouped.len();
                    grouped.push((Vec::new(), Vec::new()));
                }
                let (positions, runtimes) = &mut grouped[slot_of_root[root]];
                positions.push(j);
                runtimes.push(runtime);
            }
            components += grouped.len();
            // Each component's nodes in ascending order, which numbers its
            // dense range: one pass over the pool, not a sort per component.
            let mut touched: Vec<Vec<usize>> = vec![Vec::new(); grouped.len()];
            for (g, dense) in dense_of.iter_mut().enumerate() {
                if *dense != usize::MAX {
                    let component = &mut touched[slot_of_root[dsu.find(g)]];
                    *dense = component.len();
                    component.push(g);
                }
            }
            drop(bind_span);

            // Simulate each component from the carried busy horizons, fanned
            // over rayon's workers. Sessions keep their execution order
            // within a component and each component's nodes compact to a
            // dense range, so the kernel sees the same input — and results
            // merge positionally — however many threads ran the components.
            let simulate_span = span("simulate");
            // The partition migrates between epochs, so traced events carry
            // the shard that owned their node *when they happened*.
            let shard_of: Vec<usize> = match &trace {
                Some(_) => (0..nodes).map(|g| map.shard_of(g)).collect(),
                None => Vec::new(),
            };
            // Components running on several workers would interleave their
            // events in the shared sinks by thread scheduling. Each buffers
            // its own instead, flushed below in component order: the order
            // a single worker emits in, so the raw stream is the same at
            // every thread count. One worker or one component writes
            // straight through, sparing a second copy of the events.
            let buffered = trace.is_some() && grouped.len() > 1 && rayon::current_num_threads() > 1;
            let simulated: Vec<(Group, Horizons, Vec<TraceEvent>)> = grouped
                .into_iter()
                .zip(touched)
                .collect::<Vec<_>>()
                .into_par_iter()
                .map(|((positions, mut runtimes), touched)| {
                    let dense_specs: Vec<NodeSpec> = touched.iter().map(|&g| specs[g]).collect();
                    let dense_busy0: Vec<Time> = touched.iter().map(|&g| busy_until[g]).collect();
                    for runtime in &mut runtimes {
                        for node in &mut runtime.node_map {
                            *node = dense_of[*node];
                        }
                    }
                    let buffer = buffered.then(MemorySink::new);
                    let recorder = trace.as_ref().map(|t| {
                        let sinks = match &buffer {
                            Some(buffer) => vec![buffer as &dyn TraceSink],
                            None => t.sinks(),
                        };
                        Recorder::fanout(sinks)
                            .with_node_map(&touched)
                            .with_shards(&shard_of)
                    });
                    let carry = kernel::simulate(
                        &dense_specs,
                        self.net,
                        &mut runtimes,
                        &dense_busy0,
                        self.config.loss.as_ref(),
                        recorder.as_ref(),
                    )?;
                    let horizons = touched
                        .into_iter()
                        .zip(carry.busy_time.into_iter().zip(carry.busy_until))
                        .map(|(g, (busy, until))| (g, busy, until))
                        .collect();
                    let events = buffer.map_or_else(Vec::new, |buffer| buffer.take());
                    Ok(((positions, runtimes), horizons, events))
                })
                .collect::<Result<_, SimError>>()?;

            // Positional merge: untouched nodes keep their horizons, and the
            // records are built in request order straight from the groups.
            let flush = trace.as_ref().map(|t| Recorder::fanout(t.sinks()));
            let mut groups: Vec<Group> = Vec::with_capacity(simulated.len() + 1);
            for (group, horizons, events) in simulated {
                for (g, busy, until) in horizons {
                    busy_time[g] += busy;
                    busy_until[g] = until;
                }
                if let Some(flush) = flush.as_ref() {
                    for ev in events {
                        flush.emit(ev);
                    }
                }
                groups.push(group);
            }
            // A series this epoch outgrew could not render: stop here
            // rather than simulate the epochs after it.
            if let Some(trace) = trace.as_ref() {
                trace.check()?;
            }
            groups.push(shed.into_iter().unzip());
            let mut slot = vec![(0, 0); batch.len()];
            for (c, (positions, _)) in groups.iter().enumerate() {
                for (o, &j) in positions.iter().enumerate() {
                    slot[j] = (c, o);
                }
            }
            let base = records.len();
            records.extend(
                batch
                    .iter()
                    .zip(slot)
                    .map(|(request, (c, o))| record_for(request, &mut groups[c].1[o])),
            );
            drop(groups);
            drop(sessions);
            drop(simulate_span);

            // Rebalance between epochs (never after the last — the loop
            // only migrates where a future epoch can benefit).
            if let Some(rebalancer) = rebalancer.as_mut() {
                let _rebalance_span = span("rebalance");
                if epoch_no + 1 < epochs {
                    let mut delay_sum = vec![0u64; shards];
                    let mut delay_n = vec![0usize; shards];
                    for record in records[base..].iter().filter(|r| !r.abandoned) {
                        delay_sum[record.home_shard] += record.queue_delay;
                        delay_n[record.home_shard] += 1;
                    }
                    let delays: Vec<f64> = (0..shards)
                        .map(|s| {
                            if delay_n[s] == 0 {
                                0.0
                            } else {
                                delay_sum[s] as f64 / delay_n[s] as f64
                            }
                        })
                        .collect();
                    let class_counts: Vec<Vec<usize>> = (0..shards)
                        .map(|s| {
                            (0..self.pool.k())
                                .map(|c| map.shard(s).nodes_of_class(c).len())
                                .collect()
                        })
                        .collect();
                    for mv in rebalancer.decide(&delays, &class_counts) {
                        // Concrete node: the least-loaded of the class in
                        // the hot shard, ties by lowest global id.
                        let node = map
                            .globals_of(mv.from)
                            .iter()
                            .copied()
                            .filter(|&g| map.class_of(g) == mv.class)
                            .min_by_key(|&g| (busy_time[g], g))
                            .expect(
                                "invariant: the rebalancer moves only classes the hot shard \
                                 still holds (pinned by hnow_control::rebalance's \
                                 never_proposes_a_move_the_cluster_cannot_carry_out test)",
                            );
                        map = map.migrate(node, mv.to).map_err(SimError::Sharding)?;
                        // Cached plans are keyed by class signature over the
                        // shared class table, so the only entries migration
                        // invalidates are those the shrunken shard can no
                        // longer bind to distinct nodes.
                        let capacity: Vec<usize> = (0..self.pool.k())
                            .map(|c| map.shard(mv.from).nodes_of_class(c).len())
                            .collect();
                        invalidations += planning.shard_caches[mv.from].evict_where(|key| {
                            key[1..]
                                .iter()
                                .enumerate()
                                .any(|(c, &need)| need + usize::from(key[0] == c) > capacity[c])
                        });
                        migrations.push(MigrationRecord {
                            epoch: epoch_no,
                            node,
                            from: mv.from,
                            to: mv.to,
                            class: mv.class,
                        });
                    }
                }
            }
        }

        let control_report = control.map(|control| ControlPlaneReport {
            policy: control.policy.clone(),
            admission: control.admission,
            rebalance: control.rebalance.is_some(),
            epoch: epoch_len,
            admitted: n_admitted,
            reordered: n_reordered,
            shed: n_shed,
            plan_cache_invalidations: invalidations,
            migrations,
            decisions: decisions.into_iter().map(str::to_string).collect(),
        });
        let telemetry = match trace {
            Some(trace) => {
                let sizes: Vec<usize> = (0..shards).map(|s| map.shard(s).len()).collect();
                trace.report(&sizes)?
            }
            None => None,
        };
        Ok(self.report(
            &map,
            records,
            &busy_time,
            &planning,
            components,
            control_report,
            telemetry,
        ))
    }

    /// The repairer-placement policy for plan annotation — `Some` only
    /// when loss injection is configured.
    fn repair_policy(&self) -> Option<RepairPlacement> {
        self.config.loss.as_ref().map(|_| self.config.repair)
    }

    /// Plans one (validated) session against the current partition, binds
    /// it to its concrete nodes and sets up its runtime. `busy` holds the
    /// carried per-node busy horizons the gateway policy may read.
    fn admit(
        &self,
        planning: &mut Planning,
        map: &ShardMap,
        request: &SessionRequest,
        policy: &dyn GatewayPolicy,
        busy: &[Time],
    ) -> Result<SessionRuntime, SimError> {
        let home = map.shard_of(request.source);
        let mut remote: Vec<usize> = request
            .members
            .iter()
            .map(|&m| map.shard_of(m))
            .filter(|&s| s != home)
            .collect();
        remote.sort_unstable();
        remote.dedup();
        let bound = if remote.is_empty() {
            let mut node_map = vec![0; request.members.len() + 1];
            let plan = self.planned_for(
                planning,
                Some(home),
                request.id,
                request.source,
                request.members.iter().copied(),
                &mut node_map,
            )?;
            Bound {
                node_map,
                children: Arc::clone(&plan.children),
                repairer: plan.repairer.clone(),
                planned_reception: plan.timing.reception_completion(),
                planned_delivery: plan.timing.delivery_completion(),
            }
        } else {
            let blocks = self.blocks(planning, map, request, &remote, policy, busy)?;
            stitch(blocks, self.pool, self.repair_policy())
        };
        let mut runtime =
            SessionRuntime::new(request.id, request.arrival, bound.node_map, bound.children);
        runtime.deadline = request.patience.map(|p| request.arrival.saturating_add(p));
        runtime.home_shard = home;
        runtime.remote_shards = remote;
        runtime.repairer = bound.repairer;
        runtime.planned_reception = bound.planned_reception;
        runtime.planned_delivery = bound.planned_delivery;
        runtime.apply_chunks(request.chunks.or(self.config.chunks))?;
        Ok(runtime)
    }

    /// Plans one cross-shard session in blocks: elects a gateway per remote
    /// shard, plans the gateway tree over the gateways and one subtree per
    /// gateway, and binds them all to global ids. `remote` lists the
    /// touched shards other than home, ascending; `policy` elects each
    /// remote shard's gateway from the members' carried busy horizons
    /// `busy`. Lookups run in a fixed order: the gateway tree, then the
    /// subtrees in gateway-tree order.
    fn blocks(
        &self,
        planning: &mut Planning,
        map: &ShardMap,
        request: &SessionRequest,
        remote: &[usize],
        policy: &dyn GatewayPolicy,
        busy: &[Time],
    ) -> Result<Blocks, SimError> {
        // Members grouped by shard, ascending ids within each group.
        let mut members: Vec<(usize, usize)> = request
            .members
            .iter()
            .map(|&m| (map.shard_of(m), m))
            .collect();
        members.sort_unstable();
        let of_shard = |s: usize| {
            let start = members.partition_point(|&(t, _)| t < s);
            let end = members.partition_point(|&(t, _)| t <= s);
            &members[start..end]
        };
        // Gateway selection: the source at home; elsewhere per policy.
        // Candidates arrive in ascending-id order, and every policy's key
        // ends in the node id, so the election is the same in any order.
        let mut candidates: Vec<GatewayCandidate> = Vec::new();
        let gateways: Vec<usize> = remote
            .iter()
            .map(|&s| {
                let group = of_shard(s);
                candidates.clear();
                candidates.extend(group.iter().map(|&(_, m)| GatewayCandidate {
                    node: m,
                    spec: self.pool.spec_of_node(m),
                    load: busy[m].raw(),
                    shard_members: group.len(),
                }));
                group[policy.select(&candidates)].1
            })
            .collect();

        // Level 1: the gateway tree over the gateway class vector. The
        // chunk profile stays off planning — chunking never changes the
        // tree, only how the payload moves through it.
        // `roots` maps gateway-tree node ids to global gateway ids.
        let mut roots = vec![0; gateways.len() + 1];
        let gateway = self.planned_for(
            planning,
            None,
            request.id,
            request.source,
            gateways.iter().copied(),
            &mut roots,
        )?;

        // Level 2: one block per gateway-tree node, rooted at its gateway
        // and holding the rest of its shard's members. The source is never
        // a member, so the home block is one node larger than its group.
        let mut offsets = Vec::with_capacity(roots.len() + 1);
        offsets.push(0);
        for (i, &root) in roots.iter().enumerate() {
            let size = of_shard(map.shard_of(root)).len() + usize::from(i == 0);
            offsets.push(offsets[i] + size);
        }
        let mut node_map = vec![0; request.members.len() + 1];
        let mut subtrees = Vec::with_capacity(roots.len());
        for (&root, block) in roots.iter().zip(offsets.windows(2)) {
            let s = map.shard_of(root);
            let local = of_shard(s)
                .iter()
                .map(|&(_, m)| m)
                .filter(move |&m| m != root);
            let nodes = &mut node_map[block[0]..block[1]];
            let subtree = if nodes.len() > 1 {
                Some(self.planned_for(planning, Some(s), request.id, root, local, nodes)?)
            } else {
                nodes[0] = root;
                None
            };
            subtrees.push(subtree);
        }
        debug_assert_eq!(offsets.last(), Some(&node_map.len()));
        Ok(Blocks {
            gateway,
            subtrees,
            offsets,
            node_map,
        })
    }

    /// Returns the (possibly cached) plan shape for the class signature of
    /// `source` → `members` (global ids, already validated), planned in
    /// `shard`'s context and plan cache, or the gateway trees' for `None`,
    /// bound to those nodes: `node_map[l]` receives tree node `l`'s pool
    /// node. Shards share the pool's class table, so the signature over
    /// global ids equals the one over shard-local ids; it is computed in
    /// `O(group + k)` into the reused key buffer, so a cache hit costs no
    /// planner work and allocates nothing.
    fn planned_for(
        &self,
        planning: &mut Planning,
        shard: Option<usize>,
        id: u64,
        source: usize,
        members: impl Iterator<Item = usize> + Clone,
        node_map: &mut [usize],
    ) -> Result<Arc<CachedPlan>, SimError> {
        let key = &mut planning.key;
        key.clear();
        key.push(self.pool.class_of(source));
        key.resize(1 + self.pool.k(), 0);
        for member in members.clone() {
            key[1 + self.pool.class_of(member)] += 1;
        }
        let (ctx, cache) = match shard {
            Some(s) => (&planning.shard_ctxs[s], &mut planning.shard_caches[s]),
            None => (&planning.gateway_ctx, &mut planning.gateway_cache),
        };
        let mut cache = planning.caching.then_some(cache);
        let hit = cache.as_deref_mut().and_then(|cache| cache.get(key));
        let plan = match hit {
            Some(cached) => cached,
            None => {
                let instance_error = |error| SimError::Instance { session: id, error };
                let typed =
                    TypedMulticast::new(self.pool.specs().to_vec(), key[0], key[1..].to_vec())
                        .map_err(instance_error)?;
                let set = typed.to_multicast_set().map_err(instance_error)?;
                let plan_request = PlanRequest::new(set, self.net).with_seed(id);
                let plan = planning.planner.plan_with(&plan_request, ctx)?;
                let repairer = shard.and(self.repair_policy()).map(|policy| {
                    let set = &plan_request.set;
                    let tree_specs: Vec<NodeSpec> =
                        (0..set.num_nodes()).map(|v| set.spec(NodeId(v))).collect();
                    Arc::new(policy.assign(&plan.tree, &tree_specs))
                });
                let cached = Arc::new(CachedPlan {
                    children: Arc::new(children_lists(&plan.tree)),
                    locals: typed
                        .node_ids_by_class()
                        .iter()
                        .flatten()
                        .map(|local| local.index())
                        .collect(),
                    repairer,
                    timing: plan.timing,
                });
                if let Some(cache) = cache {
                    cache.insert(key.clone(), Arc::clone(&cached));
                }
                cached
            }
        };
        // Binding: tree node 0 is the source, and the members, sorted by
        // `(class, id)`, take the tree ids `plan.locals` lists class by
        // class, so within a class ascending ids take the class's tree ids
        // in order.
        let by_class = &mut planning.by_class;
        by_class.clear();
        by_class.extend(members.map(|m| (self.pool.class_of(m), m)));
        by_class.sort_unstable();
        debug_assert_eq!(by_class.len(), plan.locals.len());
        node_map[0] = source;
        for (&local, &(_, m)) in plan.locals.iter().zip(by_class.iter()) {
            node_map[local] = m;
        }
        Ok(plan)
    }

    /// Assembles the merged report. `map` is the partition at the end of
    /// the run, after every committed migration.
    #[allow(clippy::too_many_arguments)]
    fn report(
        &self,
        map: &ShardMap,
        per_session: Vec<SessionRecord>,
        busy_time: &[u64],
        planning: &Planning,
        components: usize,
        control: Option<ControlPlaneReport>,
        telemetry: Option<TelemetryReport>,
    ) -> TrafficReport {
        let total = TrafficMetrics::from_records(&per_session, busy_time);
        let cross_records: Vec<&SessionRecord> = per_session.iter().filter(|r| r.cross()).collect();
        let cross_sessions = cross_records.len();
        let cross = TrafficMetrics::from_records(cross_records, &[]);
        let per_shard: Vec<ShardReport> = (0..map.num_shards())
            .map(|s| {
                let records = per_session
                    .iter()
                    .filter(|r| !r.cross() && r.home_shard == s);
                let shard_busy: Vec<u64> =
                    map.globals_of(s).iter().map(|&g| busy_time[g]).collect();
                let dp_cache = CacheStats::from_context(&planning.shard_ctxs[s]);
                let mut metrics = TrafficMetrics::from_records(records, &shard_busy);
                // The shard's nodes also serve cross-shard sessions, whose
                // completions are not in this record subset — utilization
                // must therefore be taken over the run-wide makespan, or a
                // cross-heavy shard whose intra traffic finished early
                // would report a ratio above 1.
                let (mean_util, peak_util) =
                    TrafficMetrics::utilization_over(&shard_busy, total.makespan);
                metrics.mean_node_utilization = mean_util;
                metrics.peak_node_utilization = peak_util;
                ShardReport {
                    shard: s,
                    nodes: map.shard(s).len(),
                    metrics,
                    dp_cache,
                    dp_hit_rate: dp_cache.hit_rate(),
                    plan_cache: planning.shard_caches[s].stats(),
                    plan_signatures: planning.shard_caches[s].len(),
                }
            })
            .collect();
        let gateway_dp_cache = CacheStats::from_context(&planning.gateway_ctx);
        let reliability = ReliabilityReport::from_records(&per_session);
        let streaming = StreamingReport::from_records(&per_session, total.makespan);
        TrafficReport {
            // Schema 6: one report for every entry point, per-session
            // routing as plain record fields (5 added the optional trailing
            // `telemetry` section, 4 streaming, 3 reliability).
            schema: 6,
            planner: self.config.planner.clone(),
            shards: map.num_shards(),
            plan_cache: self.config.plan_cache,
            net_latency: self.net.latency().raw(),
            sessions: per_session.len(),
            cross_sessions,
            observed_cross_fraction: if per_session.is_empty() {
                0.0
            } else {
                cross_sessions as f64 / per_session.len() as f64
            },
            components,
            total,
            cross,
            reliability,
            streaming,
            gateway_dp_cache,
            gateway_dp_hit_rate: gateway_dp_cache.hit_rate(),
            gateway_plan_cache: planning.gateway_cache.stats(),
            control,
            per_shard,
            per_session,
            telemetry,
        }
    }
}

/// Validates that a request's node ids are in range (`< nodes`) and
/// distinct, using a caller-provided stamp buffer (a node is "seen" when
/// its stamp equals the current generation), so each check costs
/// `O(group)` instead of an `O(pool)` refill.
fn check_ids(
    nodes: usize,
    request: &SessionRequest,
    stamp: &mut [u32],
    generation: u32,
) -> Result<(), SimError> {
    if request.source >= nodes {
        return Err(SimError::MalformedSession { id: request.id });
    }
    stamp[request.source] = generation;
    for &member in &request.members {
        if member >= nodes || stamp[member] == generation {
            return Err(SimError::MalformedSession { id: request.id });
        }
        stamp[member] = generation;
    }
    Ok(())
}

/// The admission charge of a session: its root's own send occupancy,
/// charged to the root node only.
///
/// The charge is deliberately conservative. The admission clock starts
/// from the carried per-node busy horizons, so `max(arrival,
/// clock[source])` is a *lower bound* on when the session's first send
/// can claim its source — earlier admitted sessions sharing the source
/// claim it first (they sort ahead) and hold it for at least their own
/// back-to-back sends. Shedding only when patience provably cannot
/// outlast that bound means a shed session is one the kernel's churn
/// gate would have abandoned anyway: shedding never costs goodput, it
/// only converts a would-be abandonment into an explicit decision before
/// any queue slot is taken. Charging whole trees instead would serialize
/// work the FIFO kernel actually interleaves and over-shed badly.
fn charges_for(runtime: &SessionRuntime, specs: &[NodeSpec]) -> Vec<(usize, u64)> {
    let root = runtime.node_map[0];
    let sends = runtime.children[0].len() as u64 * specs[root].send().raw();
    vec![(root, sends)]
}

/// Stitches a cross-shard session from its cached block plans, without
/// building or re-timing a tree. Gateway `i` sends to its `g_i`
/// gateway-tree children first, then to its subtree, exactly as
/// [`compose`](hnow_core::schedule::compose::compose) orders them, so
/// every node of subtree `i` keeps its cached time shifted by
/// `shift_i = r_i + g_i·send(gateway i)`, where `r_i` is gateway `i`'s
/// reception in the gateway plan. Hence `R_T` is the larger of the
/// gateways' receptions and, over the non-trivial subtrees, of
/// `shift_i + R_T(subtree i)`; `D_T` likewise from delivery times. On a
/// lossy run (`repair` set) the repairers follow that placement's rules
/// over the stitched child lists and blocks.
fn stitch(blocks: Blocks, pool: &NodePool, repair: Option<RepairPlacement>) -> Bound {
    let Blocks {
        gateway,
        subtrees,
        offsets,
        node_map,
    } = blocks;
    let mut children: Vec<Vec<usize>> = Vec::with_capacity(node_map.len());
    let (mut reception, mut delivery) = (Time::ZERO, Time::ZERO);
    for (i, (subtree, &offset)) in subtrees.iter().zip(&offsets).enumerate() {
        let up = &gateway.children[i];
        let own: &[usize] = subtree.as_ref().map_or(&[], |plan| &plan.children[0]);
        let mut root = Vec::with_capacity(up.len() + own.len());
        root.extend(up.iter().map(|&c| offsets[c]));
        root.extend(own.iter().map(|&l| offset + l));
        children.push(root);
        let r = gateway.timing.reception(NodeId(i));
        reception = reception.max(r);
        delivery = delivery.max(gateway.timing.delivery(NodeId(i)));
        if let Some(plan) = subtree {
            children.extend(
                plan.children[1..]
                    .iter()
                    .map(|list| list.iter().map(|&l| offset + l).collect()),
            );
            let shift = r + up.len() as u64 * pool.spec_of_node(node_map[offset]).send();
            reception = reception.max(shift + plan.timing.reception_completion());
            delivery = delivery.max(shift + plan.timing.delivery_completion());
        }
    }
    let repairer = repair.map(|policy| {
        Arc::new(policy.assign_stitched(&children, &offsets, |v| pool.spec_of_node(node_map[v])))
    });
    Bound {
        node_map,
        children: Arc::new(children),
        repairer,
        planned_reception: reception,
        planned_delivery: delivery,
    }
}

/// Deterministic union-find over pool node ids (the session-node contact
/// graph).
struct Dsu(Vec<usize>);

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu((0..n).collect())
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.0[root] != root {
            root = self.0[root];
        }
        let mut cur = x;
        while self.0[cur] != root {
            let next = self.0[cur];
            self.0[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        // Smaller root wins, so component identity is order-independent.
        let (lo, hi) = (ra.min(rb), ra.max(rb));
        self.0[hi] = lo;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sessions::TrafficEngine;
    use hnow_core::RepairPlacement;
    use hnow_telemetry::TelemetryConfig;
    use hnow_workload::{
        default_message_size, two_class_table, ChurnProfile, HotSpotPattern, ShardedPattern,
    };

    fn pool() -> NodePool {
        NodePool::new(two_class_table(), default_message_size(), &[12, 8]).unwrap()
    }

    /// Bursty shifting-hot-spot traffic with churn: the control plane's
    /// target regime.
    fn hot_requests(pool: &NodePool, shards: usize, n: usize, seed: u64) -> Vec<SessionRequest> {
        let map = ShardMap::partition(pool, shards).unwrap();
        let mut pattern = HotSpotPattern::bursty(4, 30, 2, 4, 24, 0.8);
        pattern.base.churn = Some(ChurnProfile {
            impatient_fraction: 0.5,
            mean_patience: 120.0,
        });
        pattern.generate(&map, n, seed).unwrap()
    }

    /// Sharded requests with arrivals spaced far beyond any completion
    /// time: zero contention.
    fn spaced_requests(pool: &NodePool, shards: usize, frac: f64, n: usize) -> Vec<SessionRequest> {
        let map = ShardMap::partition(pool, shards).unwrap();
        let pattern = ShardedPattern::poisson(5.0, 4, frac);
        let mut requests = pattern.generate(&map, n, 21).unwrap();
        for (i, r) in requests.iter_mut().enumerate() {
            r.arrival = Time::new(i as u64 * 1_000_000);
            r.patience = None;
        }
        requests
    }

    #[test]
    fn uncontended_sessions_match_their_stitched_analytic_times() {
        let pool = pool();
        let requests = spaced_requests(&pool, 4, 0.5, 24);
        for planner in ["greedy", "greedy+leaf", "dp-optimal", "chain"] {
            let cluster = ShardedCluster::with_config(
                &pool,
                NetParams::new(2),
                &RunConfig::for_planner(planner).sharded(4),
            )
            .unwrap();
            let report = cluster.run(&requests).unwrap();
            assert_eq!(report.total.completed, 24);
            assert!(report.cross_sessions > 0, "the mix must include cross");
            for s in &report.per_session {
                assert_eq!(
                    s.reception_latency,
                    s.planned_reception,
                    "{planner}: session {} diverged from its {} analytic R_T",
                    s.id,
                    if s.cross() { "stitched" } else { "flat" }
                );
                assert_eq!(
                    s.delivery_latency, s.planned_delivery,
                    "{planner}: session {} diverged from analytic D_T",
                    s.id
                );
                assert_eq!(s.queue_delay, 0);
            }
        }
    }

    #[test]
    fn uncontended_intra_sessions_match_the_flat_engine() {
        // With zero contention and zero cross traffic, the sharded service
        // must reproduce the flat engine's per-session results exactly —
        // shard-local planning sees the same class signatures.
        let pool = pool();
        let requests = spaced_requests(&pool, 4, 0.0, 20);
        let cluster =
            ShardedCluster::with_config(&pool, NetParams::new(2), &RunConfig::default().sharded(4))
                .unwrap();
        let sharded = cluster.run(&requests).unwrap();
        let flat = TrafficEngine::with_config(&pool, NetParams::new(2), &RunConfig::default())
            .run(&requests)
            .unwrap();
        assert!(
            sharded.components >= 4,
            "no cross traffic: the four shards' node sets cannot merge (got {})",
            sharded.components
        );
        for (s, f) in sharded.per_session.iter().zip(&flat.per_session) {
            assert!(!s.cross());
            // Identical apart from the home shard, which the flat engine's
            // single shard numbers 0.
            let homed = SessionRecord {
                home_shard: 0,
                ..s.clone()
            };
            assert_eq!(homed, *f);
        }
    }

    #[test]
    fn reports_are_byte_identical_per_seed() {
        let pool = pool();
        let map = ShardMap::partition(&pool, 4).unwrap();
        let pattern = ShardedPattern::poisson(6.0, 5, 0.3);
        let requests = pattern.generate(&map, 120, 42).unwrap();
        let cluster =
            ShardedCluster::with_config(&pool, NetParams::new(2), &RunConfig::default().sharded(4))
                .unwrap();
        let a = serde_json::to_string(&cluster.run(&requests).unwrap()).unwrap();
        let b = serde_json::to_string(&cluster.run(&requests).unwrap()).unwrap();
        assert_eq!(a, b, "same requests must serialize byte-identically");
        let other = pattern.generate(&map, 120, 43).unwrap();
        let c = serde_json::to_string(&cluster.run(&other).unwrap()).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn a_one_chunk_profile_matches_atomic_on_the_sharded_surface() {
        // Sharded leg of the chunks=1 acceptance anchor: stamping a
        // one-chunk profile run-wide must reproduce the atomic sharded
        // report byte for byte, with and without 5% injected loss (gateway
        // stitching, plan caches and repair traffic included).
        use hnow_model::ChunkProfile;
        let pool = pool();
        let map = ShardMap::partition(&pool, 4).unwrap();
        let requests = ShardedPattern::poisson(6.0, 5, 0.3)
            .generate(&map, 100, 42)
            .unwrap();
        for lossy in [false, true] {
            let base = if lossy {
                lossy_run(0.05, 42, hnow_core::RepairPlacement::SubtreeRoot, 4)
            } else {
                RunConfig::default().sharded(4)
            };
            let atomic = ShardedCluster::with_config(&pool, NetParams::new(2), &base)
                .unwrap()
                .run(&requests)
                .unwrap();
            let one_chunk = base.clone().with_chunks(ChunkProfile::new(1, 25));
            let chunked = ShardedCluster::with_config(&pool, NetParams::new(2), &one_chunk)
                .unwrap()
                .run(&requests)
                .unwrap();
            assert_eq!(
                serde_json::to_string(&atomic).unwrap(),
                serde_json::to_string(&chunked).unwrap(),
                "lossy {lossy}: sharded one-chunk run drifted from atomic"
            );
            assert_eq!(chunked.streaming.streaming_sessions, 0);
        }
    }

    fn lossy_run(rate: f64, seed: u64, repair: RepairPlacement, shards: usize) -> RunConfig {
        RunConfig::default()
            .sharded(shards)
            .with_loss(crate::faults::LossProfile::iid(rate, seed))
            .with_repair(repair)
    }

    #[test]
    fn sharded_rate_zero_loss_reproduces_the_lossless_report() {
        let pool = pool();
        let map = ShardMap::partition(&pool, 4).unwrap();
        let requests = ShardedPattern::poisson(6.0, 5, 0.3)
            .generate(&map, 100, 42)
            .unwrap();
        let lossless =
            ShardedCluster::with_config(&pool, NetParams::new(2), &RunConfig::default().sharded(4))
                .unwrap()
                .run(&requests)
                .unwrap();
        let zero = ShardedCluster::with_config(
            &pool,
            NetParams::new(2),
            &lossy_run(0.0, 42, RepairPlacement::Gateway, 4),
        )
        .unwrap()
        .run(&requests)
        .unwrap();
        assert_eq!(
            serde_json::to_string(&lossless).unwrap(),
            serde_json::to_string(&zero).unwrap(),
            "a rate-0 profile must not perturb a single event"
        );
        assert_eq!(lossless.schema, 6);
        assert_eq!(lossless.reliability.delivered_fraction, 1.0);
    }

    #[test]
    fn lossy_sharded_runs_repair_cross_shard_traffic_deterministically() {
        let pool = pool();
        let map = ShardMap::partition(&pool, 4).unwrap();
        let requests = ShardedPattern::poisson(4.0, 6, 0.4)
            .generate(&map, 120, 11)
            .unwrap();
        for repair in [RepairPlacement::SubtreeRoot, RepairPlacement::Gateway] {
            let cluster = ShardedCluster::with_config(
                &pool,
                NetParams::new(2),
                &lossy_run(0.08, 19, repair, 4),
            )
            .unwrap();
            let report = cluster.run(&requests).unwrap();
            assert!(report.cross_sessions > 0, "{}", repair.name());
            let rel = &report.reliability;
            assert!(rel.nacks > 0, "{}: 8% loss must NACK", repair.name());
            assert!(rel.repair_sends > 0, "{}", repair.name());
            assert!(
                rel.delivered_fraction > 0.9,
                "{}: retries recover nearly everything, got {}",
                repair.name(),
                rel.delivered_fraction
            );
            let again = cluster.run(&requests).unwrap();
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                serde_json::to_string(&again).unwrap(),
                "{}: lossy sharded runs must stay byte-identical",
                repair.name()
            );
        }
    }

    #[test]
    fn admission_lower_bound_survives_repair_traffic() {
        // The admission controller sheds a session only when the virtual
        // clock proves its patience cannot outlast its queue delay; that
        // proof is a *lower bound* built from carried busy horizons. Repair
        // traffic inflates those horizons, which must keep the bound
        // conservative — admission may never shed a session the churn gate
        // would have served. Pinned regression: under identical loss, a run
        // with admission on completes at least as many sessions as the
        // admission-off run, while actually shedding.
        let pool = pool();
        let requests = hot_requests(&pool, 4, 320, 23);
        let run = |admission: bool| {
            let cluster = ShardedCluster::with_config(
                &pool,
                NetParams::new(2),
                &lossy_run(0.1, 31, RepairPlacement::SubtreeRoot, 4).with_control(ControlConfig {
                    admission,
                    ..ControlConfig::default()
                }),
            )
            .unwrap();
            cluster.run(&requests).unwrap()
        };
        let on = run(true);
        let off = run(false);
        let control = on.control.as_ref().expect("controlled run");
        assert!(
            control.shed > 0,
            "the lossy stampede must trigger some shedding"
        );
        assert!(
            on.total.completed >= off.total.completed,
            "shedding lost goodput under loss: {} with admission vs {} without — \
             the virtual-clock bound is no longer a lower bound",
            on.total.completed,
            off.total.completed
        );
        // And the controlled lossy run keeps the byte-determinism contract.
        let again = run(true);
        assert_eq!(
            serde_json::to_string(&on).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    #[test]
    fn plan_cache_never_changes_results() {
        let pool = pool();
        let map = ShardMap::partition(&pool, 4).unwrap();
        let requests = ShardedPattern::poisson(3.0, 5, 0.25)
            .generate(&map, 150, 9)
            .unwrap();
        let run = |plan_cache: bool, planner: &str| {
            let config = RunConfig::for_planner(planner)
                .sharded(4)
                .with_plan_cache(plan_cache, Some(256));
            ShardedCluster::with_config(&pool, NetParams::new(2), &config)
                .unwrap()
                .run(&requests)
                .unwrap()
        };
        for planner in ["greedy+leaf", "dp-optimal"] {
            let cached = run(true, planner);
            let uncached = run(false, planner);
            assert_eq!(cached.per_session, uncached.per_session, "{planner}");
            assert!(
                cached.per_shard.iter().any(|s| s.plan_signatures > 0),
                "{planner}: the cache must have been populated"
            );
            assert!(uncached.per_shard.iter().all(|s| s.plan_signatures == 0));
        }
        // A seeded planner silently bypasses the cache but stays
        // deterministic.
        let a = run(true, "random");
        let b = run(true, "random");
        assert_eq!(a.per_session, b.per_session);
        assert!(a.per_shard.iter().all(|s| s.plan_signatures == 0));
    }

    /// Reference component count: union-find over the session-node contact
    /// graph, computed straight from the requests (source + members are
    /// exactly the nodes each session's runtime touches).
    fn contact_components(pool: &NodePool, requests: &[SessionRequest]) -> usize {
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            root
        }
        let mut parent: Vec<usize> = (0..pool.len()).collect();
        for request in requests {
            for &member in &request.members {
                let (a, b) = (find(&mut parent, request.source), find(&mut parent, member));
                parent[a.max(b)] = a.min(b);
            }
        }
        let mut roots: Vec<usize> = requests
            .iter()
            .map(|request| find(&mut parent, request.source))
            .collect();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    }

    #[test]
    fn cross_traffic_merges_simulation_components() {
        let pool = pool();
        let map = ShardMap::partition(&pool, 4).unwrap();
        let intra_only = ShardedPattern::poisson(5.0, 4, 0.0)
            .generate(&map, 60, 5)
            .unwrap();
        let mixed = ShardedPattern::poisson(5.0, 4, 0.5)
            .generate(&map, 60, 5)
            .unwrap();
        let cluster =
            ShardedCluster::with_config(&pool, NetParams::new(2), &RunConfig::default().sharded(4))
                .unwrap();
        let separate = cluster.run(&intra_only).unwrap();
        assert_eq!(separate.components, contact_components(&pool, &intra_only));
        assert!(
            separate.components >= 4,
            "intra-only sessions cannot merge across shard node sets"
        );
        assert_eq!(separate.cross_sessions, 0);
        assert_eq!(separate.observed_cross_fraction, 0.0);
        let merged = cluster.run(&mixed).unwrap();
        assert!(merged.cross_sessions > 0);
        assert_eq!(merged.components, contact_components(&pool, &mixed));
        assert!(
            merged.components < separate.components,
            "cross sessions connect shard node sets"
        );
        // Routing metadata is consistent with the shard map.
        for (request, record) in mixed.iter().zip(&merged.per_session) {
            assert_eq!(
                record.home_shard,
                cluster.shard_map().shard_of(request.source)
            );
            assert_eq!(record.cross(), cluster.shard_map().is_cross_shard(request));
            assert!(!record.remote_shards.contains(&record.home_shard));
            assert!(record.remote_shards.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn empty_shards_report_nan_free_zeros() {
        let pool = pool();
        let cluster =
            ShardedCluster::with_config(&pool, NetParams::new(2), &RunConfig::default().sharded(4))
                .unwrap();
        // Every session lives entirely in shard 0 (nodes 0, 4, 8, …).
        let shard0: Vec<usize> = cluster.shard_map().globals_of(0).to_vec();
        let requests: Vec<SessionRequest> = (0..6)
            .map(|i| SessionRequest {
                id: i,
                arrival: Time::new(i * 100_000),
                source: shard0[i as usize % shard0.len()],
                members: shard0
                    .iter()
                    .copied()
                    .filter(|&g| g != shard0[i as usize % shard0.len()])
                    .take(3)
                    .collect(),
                patience: None,
                chunks: None,
            })
            .collect();
        let report = cluster.run(&requests).unwrap();
        assert_eq!(report.per_shard[0].metrics.sessions, 6);
        for shard in &report.per_shard[1..] {
            assert_eq!(shard.metrics.sessions, 0);
            assert_eq!(shard.metrics.throughput_per_kilotick, 0.0);
            assert_eq!(shard.metrics.mean_reception_latency, 0.0);
            assert_eq!(shard.metrics.mean_node_utilization, 0.0);
            assert_eq!(shard.dp_hit_rate, 0.0);
        }
        let json = serde_json::to_string(&report).unwrap();
        assert!(!json.contains("NaN"), "empty shards must serialize clean");
    }

    #[test]
    fn shard_utilization_stays_in_unit_range_under_cross_heavy_load() {
        // Shard 1 serves *only* cross-shard work: its intra record subset is
        // empty, but its nodes are busy. Utilization must be taken over the
        // run-wide makespan — positive, and never above 1.
        let pool = pool();
        let cluster =
            ShardedCluster::with_config(&pool, NetParams::new(2), &RunConfig::default().sharded(2))
                .unwrap();
        let shard0 = cluster.shard_map().globals_of(0).to_vec();
        let shard1 = cluster.shard_map().globals_of(1).to_vec();
        let requests: Vec<SessionRequest> = (0..8)
            .map(|i| SessionRequest {
                id: i,
                arrival: Time::new(i * 5),
                source: shard0[i as usize % shard0.len()],
                members: vec![
                    shard1[i as usize % shard1.len()],
                    shard1[(i as usize + 1) % shard1.len()],
                ],
                patience: None,
                chunks: None,
            })
            .collect();
        let report = cluster.run(&requests).unwrap();
        assert_eq!(report.cross_sessions, 8);
        let remote = &report.per_shard[1];
        assert_eq!(remote.metrics.sessions, 0, "no intra sessions homed here");
        assert!(
            remote.metrics.mean_node_utilization > 0.0,
            "cross work on the shard's nodes must show up"
        );
        for shard in &report.per_shard {
            assert!(shard.metrics.mean_node_utilization <= 1.0 + 1e-9);
            assert!(shard.metrics.peak_node_utilization <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn churn_applies_to_sharded_sessions() {
        let pool = pool();
        let map = ShardMap::partition(&pool, 2).unwrap();
        let mut requests = ShardedPattern::poisson(1.0, 6, 0.4)
            .generate(&map, 40, 9)
            .unwrap();
        for r in &mut requests {
            r.arrival = Time::ZERO;
            r.patience = Some(Time::new(1));
        }
        let cluster =
            ShardedCluster::with_config(&pool, NetParams::new(2), &RunConfig::default().sharded(2))
                .unwrap();
        let report = cluster.run(&requests).unwrap();
        assert!(report.total.abandoned > 0, "a stampede with tiny patience");
        assert_eq!(report.total.completed + report.total.abandoned, 40);
        for s in report.per_session.iter().filter(|s| s.abandoned) {
            assert_eq!(s.started, None);
            assert_eq!(s.reception_latency, 0);
        }
    }

    #[test]
    fn config_errors_are_reported() {
        let pool = pool();
        // The unified surface treats `shards == 0` as "flat": one shard.
        assert_eq!(
            ShardedCluster::with_config(&pool, NetParams::new(1), &RunConfig::default().sharded(0))
                .unwrap()
                .shard_map()
                .num_shards(),
            1
        );
        assert!(matches!(
            ShardedCluster::with_config(
                &pool,
                NetParams::new(1),
                &RunConfig::default().sharded(pool.len() + 1),
            ),
            Err(SimError::Sharding(_))
        ));
        let cluster = ShardedCluster::with_config(
            &pool,
            NetParams::new(1),
            &RunConfig::for_planner("no-such-planner").sharded(2),
        )
        .unwrap();
        let requests = spaced_requests(&pool, 2, 0.0, 2);
        assert!(matches!(
            cluster.run(&requests),
            Err(SimError::UnknownPlanner { .. })
        ));
        let cluster =
            ShardedCluster::with_config(&pool, NetParams::new(1), &RunConfig::default().sharded(2))
                .unwrap();
        let mut bad = spaced_requests(&pool, 2, 0.0, 2);
        bad[1].members = vec![bad[1].source];
        assert!(matches!(
            cluster.run(&bad),
            Err(SimError::MalformedSession { id }) if id == bad[1].id
        ));
        let mut oob = spaced_requests(&pool, 2, 0.0, 1);
        oob[0].members = vec![pool.len()];
        assert!(matches!(
            cluster.run(&oob),
            Err(SimError::MalformedSession { .. })
        ));
    }

    #[test]
    fn contention_delays_but_never_loses_sharded_sessions() {
        let pool = pool();
        let map = ShardMap::partition(&pool, 2).unwrap();
        let mut requests = ShardedPattern::poisson(5.0, 5, 0.3)
            .generate(&map, 40, 3)
            .unwrap();
        for r in &mut requests {
            r.arrival = Time::ZERO;
            r.patience = None;
        }
        let cluster =
            ShardedCluster::with_config(&pool, NetParams::new(2), &RunConfig::default().sharded(2))
                .unwrap();
        let report = cluster.run(&requests).unwrap();
        assert_eq!(report.total.completed, 40);
        assert_eq!(report.total.abandoned, 0);
        assert!(
            report
                .per_session
                .iter()
                .any(|s| s.reception_latency > s.planned_reception),
            "40 simultaneous sessions on 20 nodes cannot all run contention-free"
        );
        assert!(report.total.peak_node_utilization > 0.0);
        assert!(report.total.peak_node_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn controlled_runs_are_byte_identical_and_decide_every_session() {
        let pool = pool();
        let requests = hot_requests(&pool, 4, 120, 7);
        let config = RunConfig::default().sharded(4).with_control(ControlConfig {
            epoch: 32,
            admission: true,
            policy: "load-aware".to_string(),
            rebalance: Some(RebalanceConfig::default()),
        });
        let cluster = ShardedCluster::with_config(&pool, NetParams::new(2), &config).unwrap();
        let a = serde_json::to_string(&cluster.run(&requests).unwrap()).unwrap();
        let b = serde_json::to_string(&cluster.run(&requests).unwrap()).unwrap();
        assert_eq!(a, b, "controlled runs must serialize byte-identically");
        assert!(!a.contains("NaN"));
        let report = cluster.run(&requests).unwrap();
        let control = report.control.expect("controlled runs report control data");
        assert_eq!(control.decisions.len(), 120);
        assert!(control
            .decisions
            .iter()
            .all(|d| matches!(d.as_str(), "admitted" | "reordered" | "shed")));
        assert_eq!(control.admitted + control.reordered + control.shed, 120);
        assert!(
            control.reordered > 0,
            "same-instant bursts of mixed group sizes must reorder"
        );
        assert_eq!(report.total.completed + report.total.abandoned, 120);
    }

    #[test]
    fn shed_sessions_are_abandoned_without_starting() {
        let pool = pool();
        let map = ShardMap::partition(&pool, 2).unwrap();
        let mut requests = ShardedPattern::poisson(1.0, 5, 0.2)
            .generate(&map, 60, 5)
            .unwrap();
        // A zero-instant stampede with tiny patience: the admission
        // controller must predict the pile-up and shed.
        for r in &mut requests {
            r.arrival = Time::ZERO;
            r.patience = Some(Time::new(30));
        }
        let config = RunConfig::default().sharded(2).with_control(ControlConfig {
            epoch: 16,
            ..ControlConfig::default()
        });
        let cluster = ShardedCluster::with_config(&pool, NetParams::new(2), &config).unwrap();
        let report = cluster.run(&requests).unwrap();
        let control = report.control.unwrap();
        assert!(control.shed > 0, "the stampede must shed");
        assert_eq!(
            report.total.abandoned,
            control.shed
                + report
                    .per_session
                    .iter()
                    .zip(&control.decisions)
                    .filter(|(s, d)| s.abandoned && d.as_str() != "shed")
                    .count()
        );
        for (s, decision) in report.per_session.iter().zip(&control.decisions) {
            if decision == "shed" {
                assert!(s.abandoned, "shed implies abandoned");
                assert_eq!(s.started, None);
                assert_eq!(s.reception_latency, 0);
            }
        }
    }

    #[test]
    fn rebalancer_migrates_under_sustained_skew() {
        let pool = pool();
        let map = ShardMap::partition(&pool, 4).unwrap();
        // One shard stays hot for 60 sessions straight while the others
        // idle: the divergence signal the rebalancer exists for.
        let pattern = HotSpotPattern::bursty(6, 20, 2, 4, 60, 1.0);
        let requests = pattern.generate(&map, 180, 13).unwrap();
        let config = RunConfig::default().sharded(4).with_control(ControlConfig {
            epoch: 30,
            admission: false,
            policy: "fastest-member".to_string(),
            rebalance: Some(RebalanceConfig {
                enter_gap: 1.0,
                exit_gap: 0.5,
                max_moves: 1,
                min_shard_nodes: 2,
            }),
        });
        let cluster = ShardedCluster::with_config(&pool, NetParams::new(2), &config).unwrap();
        let report = cluster.run(&requests).unwrap();
        let control = report.control.unwrap();
        assert!(
            !control.migrations.is_empty(),
            "sustained skew must trigger at least one migration"
        );
        for m in &control.migrations {
            assert_ne!(m.from, m.to);
            assert!(m.node < pool.len());
        }
        // The report reflects the final partition, which still covers the
        // whole pool.
        assert_eq!(
            report.per_shard.iter().map(|s| s.nodes).sum::<usize>(),
            pool.len()
        );
        assert_eq!(report.total.completed + report.total.abandoned, 180);
    }

    #[test]
    fn migrated_and_reverted_map_reports_byte_identically() {
        let pool = pool();
        let config = RunConfig::default()
            .sharded(4)
            .with_control(ControlConfig::default());
        let cluster = ShardedCluster::with_config(&pool, NetParams::new(2), &config).unwrap();
        // A twin whose map took a migration round-trip: same partition,
        // so every decision and record must serialize identically.
        let node = cluster.shard_map().globals_of(0)[0];
        let roundtrip = cluster
            .shard_map()
            .migrate(node, 1)
            .unwrap()
            .migrate(node, 0)
            .unwrap();
        let twin = ShardedCluster {
            pool: &pool,
            map: roundtrip,
            net: NetParams::new(2),
            config: config.clone(),
        };
        let requests = hot_requests(&pool, 4, 96, 17);
        let a = serde_json::to_string(&cluster.run(&requests).unwrap()).unwrap();
        let b = serde_json::to_string(&twin.run(&requests).unwrap()).unwrap();
        assert_eq!(a, b, "a migration round-trip must be observationally void");
    }

    #[test]
    fn plan_cache_lru_evicts_and_counts() {
        let pool = pool();
        let map = ShardMap::partition(&pool, 1).unwrap();
        let requests = ShardedPattern::poisson(4.0, 6, 0.0)
            .generate(&map, 80, 3)
            .unwrap();
        let run = |capacity: Option<usize>| {
            let config = RunConfig::default()
                .sharded(1)
                .with_plan_cache(true, capacity);
            ShardedCluster::with_config(&pool, NetParams::new(2), &config)
                .unwrap()
                .run(&requests)
                .unwrap()
        };
        let tight = run(Some(2));
        let stats = tight.per_shard[0].plan_cache;
        assert_eq!(stats.lookups, stats.hits + stats.misses);
        assert!(stats.lookups > 0);
        assert!(
            stats.evictions > 0,
            "80 sessions of varied signatures must overflow capacity 2"
        );
        assert!(tight.per_shard[0].plan_signatures <= 2);
        let unbounded = run(None);
        assert_eq!(unbounded.per_shard[0].plan_cache.evictions, 0);
        assert_eq!(
            tight.per_session, unbounded.per_session,
            "eviction must never change results"
        );
    }

    #[test]
    fn unknown_policy_is_reported() {
        let pool = pool();
        let config = RunConfig::default().sharded(2).with_control(ControlConfig {
            policy: "no-such-policy".to_string(),
            ..ControlConfig::default()
        });
        let cluster = ShardedCluster::with_config(&pool, NetParams::new(2), &config).unwrap();
        let requests = spaced_requests(&pool, 2, 0.0, 2);
        let err = cluster.run(&requests).unwrap_err();
        assert!(matches!(err, SimError::UnknownPolicy { ref name } if name == "no-such-policy"));
        assert!(err.to_string().contains("no-such-policy"));
    }

    #[test]
    fn sharded_tracing_is_observation_only_and_thread_count_free() {
        // The sharded leg of the telemetry determinism gate: attaching a
        // trace sink never changes a report byte — lossless and under 5%
        // injected loss, at 1 and at 8 rayon threads — the raw event stream
        // is identical at both thread counts, also when a stream without
        // cross-shard sessions splits into components simulated in
        // parallel, every port-tied event is shard-attributed, and the
        // stream passes the kernel invariant checker.
        use hnow_telemetry::{check_invariants, MemorySink};
        let pool = pool();
        let net = NetParams::new(2);
        let map = ShardMap::partition(&pool, 4).unwrap();
        for (cross, lossy) in [(0.3, false), (0.3, true), (0.0, false), (0.0, true)] {
            let requests = ShardedPattern::poisson(6.0, 5, cross)
                .generate(&map, 100, 42)
                .unwrap();
            let base = if lossy {
                lossy_run(0.05, 42, RepairPlacement::SubtreeRoot, 4)
            } else {
                RunConfig::default().sharded(4)
            };
            let mut streams = Vec::new();
            for threads in [1usize, 8] {
                let plain = base.clone().with_threads(threads);
                let untraced = ShardedCluster::with_config(&pool, net, &plain)
                    .unwrap()
                    .run(&requests)
                    .unwrap();
                if cross == 0.0 {
                    assert!(untraced.components > 1, "the run must split");
                }
                let sink = Arc::new(MemorySink::new());
                let traced_config = plain.telemetry(TelemetryConfig::new().with_sink(sink.clone()));
                let traced = ShardedCluster::with_config(&pool, net, &traced_config)
                    .unwrap()
                    .run(&requests)
                    .unwrap();
                assert_eq!(
                    serde_json::to_string(&untraced).unwrap(),
                    serde_json::to_string(&traced).unwrap(),
                    "cross {cross}, lossy {lossy}, threads {threads}: tracing changed the report"
                );
                let events = sink.take();
                assert!(!events.is_empty());
                check_invariants(&events).unwrap();
                assert!(
                    events
                        .iter()
                        .filter(|ev| ev.node.is_some())
                        .all(|ev| ev.shard.is_some()),
                    "every port-tied event must carry its owning shard"
                );
                streams.push(events);
            }
            assert!(
                streams[0] == streams[1],
                "cross {cross}, lossy {lossy}: the event stream must not depend on the thread count"
            );
        }
    }

    #[test]
    fn the_sharded_timeseries_section_attributes_shards() {
        // A time-series window adds the trailing `telemetry` section — one
        // utilization row per shard — and nothing else: stripping it
        // reproduces the untraced serialization byte for byte.
        let pool = pool();
        let net = NetParams::new(2);
        let map = ShardMap::partition(&pool, 4).unwrap();
        let requests = ShardedPattern::poisson(6.0, 5, 0.3)
            .generate(&map, 100, 42)
            .unwrap();
        let base = lossy_run(0.05, 42, RepairPlacement::SubtreeRoot, 4);
        let untraced = ShardedCluster::with_config(&pool, net, &base)
            .unwrap()
            .run(&requests)
            .unwrap();
        assert!(untraced.telemetry.is_none());
        let traced_config = base.telemetry(TelemetryConfig::new().with_timeseries(64));
        let traced = ShardedCluster::with_config(&pool, net, &traced_config)
            .unwrap()
            .run(&requests)
            .unwrap();
        let telemetry = traced.telemetry.as_ref().unwrap();
        assert_eq!(telemetry.window, 64);
        assert!(telemetry.events > 0);
        assert_eq!(telemetry.per_shard_utilization.len(), 4);
        assert_eq!(telemetry.per_node_busy.len(), pool.len());
        let mut stripped = traced;
        stripped.telemetry = None;
        assert_eq!(
            serde_json::to_string(&untraced).unwrap(),
            serde_json::to_string(&stripped).unwrap(),
            "outside the telemetry section the report must be unchanged"
        );
    }

    #[test]
    fn the_inline_series_fold_matches_the_reference_over_the_raw_stream() {
        // The run folds its series as events are recorded: straight through
        // on one worker, from per-component buffers on several, under live
        // migrations. `TimeSeries::over` folds the user sink's copy of the
        // same stream after the run, over the final partition's shard
        // sizes. Both must render the same section.
        use hnow_telemetry::{MemorySink, TimeSeries};
        let pool = pool();
        let net = NetParams::new(2);
        let map = ShardMap::partition(&pool, 4).unwrap();
        let initial: Vec<usize> = (0..4).map(|s| map.shard(s).len()).collect();
        let controlled = RunConfig::default().sharded(4).with_control(ControlConfig {
            epoch: 30,
            admission: true,
            policy: "load-aware".to_string(),
            rebalance: Some(RebalanceConfig {
                enter_gap: 1.0,
                exit_gap: 0.5,
                max_moves: 1,
                min_shard_nodes: 2,
            }),
        });
        let hot = HotSpotPattern::bursty(6, 20, 2, 4, 60, 1.0)
            .generate(&map, 180, 13)
            .unwrap();
        let split = ShardedPattern::poisson(6.0, 5, 0.0)
            .generate(&map, 100, 42)
            .unwrap();
        let lossy = lossy_run(0.05, 42, RepairPlacement::SubtreeRoot, 4);
        for (name, config, requests) in [("controlled", controlled, hot), ("split", lossy, split)] {
            for threads in [1usize, 8] {
                let sink = Arc::new(MemorySink::new());
                let traced = config.clone().with_threads(threads).telemetry(
                    TelemetryConfig::new()
                        .with_sink(sink.clone())
                        .with_timeseries(64),
                );
                let report = ShardedCluster::with_config(&pool, net, &traced)
                    .unwrap()
                    .run(&requests)
                    .unwrap();
                let sizes: Vec<usize> = report.per_shard.iter().map(|s| s.nodes).collect();
                match report.control.as_ref() {
                    Some(control) => {
                        assert!(!control.migrations.is_empty(), "{name}: no migration");
                        assert_ne!(sizes, initial, "{name}: the partition must change");
                    }
                    None => assert!(report.components > 1, "{name}: the run must split"),
                }
                let reference = TimeSeries::over(&sink.take(), 64, &sizes).unwrap();
                assert_eq!(
                    report.telemetry,
                    Some(reference),
                    "{name}, threads {threads}: the inline fold drifted from the reference"
                );
            }
        }
    }

    #[test]
    fn controlled_runs_trace_admission_decisions() {
        // The control plane emits one decision event per session, stamped
        // with its arrival time; the per-kind counts must reconcile with
        // the control report, tracing must not move a byte of the report,
        // and the stream (decisions plus per-epoch kernel events under
        // live migrations) must satisfy the kernel invariants.
        use hnow_telemetry::{check_invariants, MemorySink};
        let pool = pool();
        let net = NetParams::new(2);
        let requests = hot_requests(&pool, 4, 120, 7);
        let config = RunConfig::default().sharded(4).with_control(ControlConfig {
            epoch: 32,
            admission: true,
            policy: "load-aware".to_string(),
            rebalance: Some(RebalanceConfig::default()),
        });
        let untraced = ShardedCluster::with_config(&pool, net, &config)
            .unwrap()
            .run(&requests)
            .unwrap();
        let sink = Arc::new(MemorySink::new());
        let traced_config = config.telemetry(TelemetryConfig::new().with_sink(sink.clone()));
        let traced = ShardedCluster::with_config(&pool, net, &traced_config)
            .unwrap()
            .run(&requests)
            .unwrap();
        assert_eq!(
            serde_json::to_string(&untraced).unwrap(),
            serde_json::to_string(&traced).unwrap(),
            "tracing changed the controlled report"
        );
        let events = sink.take();
        check_invariants(&events).unwrap();
        let control = traced.control.as_ref().unwrap();
        let count = |kind: TraceEventKind| events.iter().filter(|ev| ev.kind == kind).count();
        assert_eq!(count(TraceEventKind::Admitted), control.admitted);
        assert_eq!(count(TraceEventKind::Reordered), control.reordered);
        assert_eq!(count(TraceEventKind::Shed), control.shed);
        assert!(
            count(TraceEventKind::Shed) > 0,
            "churny hot spots must shed"
        );
    }

    /// The from-scratch reference of [`stitch`]: the same block plans
    /// grafted by `compose`, which rebuilds the tree and re-times it by
    /// BFS, with repairers from `assign_composed`.
    fn composed_reference(
        blocks: &Blocks,
        pool: &NodePool,
        net: NetParams,
        repair: RepairPlacement,
    ) -> Bound {
        use hnow_core::schedule::compose::compose;
        use hnow_core::ScheduleTree;
        let tree = |children: &[Vec<usize>]| {
            ScheduleTree::from_child_lists(
                children
                    .iter()
                    .map(|list| list.iter().map(|&c| NodeId(c)).collect())
                    .collect(),
            )
            .unwrap()
        };
        let gateway = tree(&blocks.gateway.children);
        let subtrees: Vec<ScheduleTree> = blocks
            .subtrees
            .iter()
            .map(|subtree| {
                subtree
                    .as_ref()
                    .map_or_else(|| ScheduleTree::new(1), |plan| tree(&plan.children))
            })
            .collect();
        let specs: Vec<NodeSpec> = blocks
            .node_map
            .iter()
            .map(|&g| pool.spec_of_node(g))
            .collect();
        let grafted: Vec<(&ScheduleTree, &[NodeSpec])> = subtrees
            .iter()
            .zip(blocks.offsets.windows(2))
            .map(|(subtree, block)| (subtree, &specs[block[0]..block[1]]))
            .collect();
        let composed = compose(&gateway, &grafted, net).unwrap();
        let mut node_map = vec![usize::MAX; composed.tree.num_nodes()];
        for (map, block) in composed.maps.iter().zip(blocks.offsets.windows(2)) {
            for (l, composed_id) in map.iter().enumerate() {
                node_map[composed_id.index()] = blocks.node_map[block[0] + l];
            }
        }
        Bound {
            node_map,
            children: Arc::new(children_lists(&composed.tree)),
            repairer: Some(Arc::new(repair.assign_composed(&composed))),
            planned_reception: composed.timing.reception_completion(),
            planned_delivery: composed.timing.delivery_completion(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Differential test of the stitch: for random three-class pools,
        /// shard counts, planners, gateway policies, busy horizons and
        /// latencies, every cross-shard session's blocks, stitched from
        /// their cached plans, give the child lists, node map, `R_T`,
        /// `D_T` and repairers (under every placement) of the tree
        /// `compose` grafts and re-times from scratch, and every stitched
        /// repairer is a proper ancestor.
        #[test]
        fn stitching_matches_the_composed_reference(
            raw in proptest::collection::vec((1u64..=6, 0u64..=6), 3),
            counts in proptest::collection::vec(2usize..=6, 3),
            shards in 2usize..=4,
            group in 2usize..=8,
            planner in 0usize..5,
            policy in 0usize..3,
            latency in 0u64..4,
            seed in 0u64..1_000_000,
        ) {
            use hnow_model::{ClassTable, NodeClass};
            use proptest::prelude::prop_assert_eq;
            // Correlation-safe classes: receive overheads ascend with send.
            let mut overheads: Vec<(u64, u64)> = raw.iter().map(|&(s, e)| (s, s + e)).collect();
            overheads.sort_unstable();
            let mut last_recv = 0;
            let classes: Vec<NodeClass> = overheads
                .into_iter()
                .enumerate()
                .map(|(c, (send, recv))| {
                    last_recv = recv.max(last_recv);
                    NodeClass::constant(format!("c{c}"), send, last_recv)
                })
                .collect();
            let pool = NodePool::new(
                ClassTable::new(classes).unwrap(),
                default_message_size(),
                &counts,
            )
            .unwrap();
            let net = NetParams::new(latency);
            let planner = ["greedy", "greedy+leaf", "dp-optimal", "fnf", "chain"][planner];
            let config = RunConfig::for_planner(planner).sharded(shards);
            let cluster = ShardedCluster::with_config(&pool, net, &config).unwrap();
            let map = cluster.shard_map();
            let requests = ShardedPattern::poisson(3.0, group, 1.0)
                .generate(map, 24, seed)
                .unwrap();
            let policy = hnow_control::policies()[policy];
            let busy: Vec<Time> = (0..pool.len())
                .map(|g| Time::new((seed ^ g as u64).wrapping_mul(0x9E37_79B9) % 97))
                .collect();
            let mut planning = cluster.planning(find(planner).unwrap());
            for request in &requests {
                let home = map.shard_of(request.source);
                let mut remote: Vec<usize> = request
                    .members
                    .iter()
                    .map(|&m| map.shard_of(m))
                    .filter(|&s| s != home)
                    .collect();
                remote.sort_unstable();
                remote.dedup();
                if remote.is_empty() {
                    continue;
                }
                let blocks = cluster
                    .blocks(&mut planning, map, request, &remote, policy, &busy)
                    .unwrap();
                for repair in [
                    RepairPlacement::SourceOnly,
                    RepairPlacement::SubtreeRoot,
                    RepairPlacement::FastestInSubtree,
                    RepairPlacement::Gateway,
                ] {
                    let reference = composed_reference(&blocks, &pool, net, repair);
                    let stitched = stitch(blocks.clone(), &pool, Some(repair));
                    prop_assert_eq!(&stitched.node_map, &reference.node_map);
                    prop_assert_eq!(&stitched.children, &reference.children);
                    prop_assert_eq!(stitched.planned_reception, reference.planned_reception);
                    prop_assert_eq!(stitched.planned_delivery, reference.planned_delivery);
                    prop_assert_eq!(&stitched.repairer, &reference.repairer, "{}", repair.name());
                    // Escalation's precondition (the kernel's "Repairer
                    // readiness"): every repairer is a proper ancestor in
                    // the stitched tree, so walking repairers climbs
                    // strictly upstream to the source.
                    let table = stitched.repairer.as_deref().unwrap();
                    let mut parent = vec![None; table.len()];
                    for (p, list) in stitched.children.iter().enumerate() {
                        for &c in list {
                            parent[c] = Some(p);
                        }
                    }
                    for (v, &rp) in table.iter().enumerate().skip(1) {
                        let mut up = parent[v];
                        while up.is_some_and(|a| a != rp) {
                            up = up.and_then(|a| parent[a]);
                        }
                        prop_assert_eq!(up, Some(rp), "{}: repairer of {}", repair.name(), v);
                    }
                }
            }
        }
    }

    #[test]
    fn permuted_members_leave_cross_shard_reports_unchanged() {
        // Gateway candidates reach the policy grouped by `(shard, id)`, and
        // every policy's key ends in the node id, so the order a request
        // lists its members in never changes a report byte.
        let pool = pool();
        let map = ShardMap::partition(&pool, 4).unwrap();
        let requests = ShardedPattern::poisson(3.0, 7, 0.7)
            .generate(&map, 120, 29)
            .unwrap();
        let permuted: Vec<SessionRequest> = requests
            .iter()
            .map(|request| {
                let mut request = request.clone();
                request.members.reverse();
                let shift = request.id as usize % request.members.len();
                request.members.rotate_left(shift);
                request
            })
            .collect();
        assert_ne!(requests, permuted);
        for policy in hnow_control::policies() {
            let config =
                lossy_run(0.05, 29, RepairPlacement::Gateway, 4).with_control(ControlConfig {
                    policy: policy.name().to_string(),
                    ..ControlConfig::default()
                });
            let cluster = ShardedCluster::with_config(&pool, NetParams::new(2), &config).unwrap();
            let report = cluster.run(&requests).unwrap();
            assert!(report.cross_sessions > 0);
            assert_eq!(
                serde_json::to_string(&report).unwrap(),
                serde_json::to_string(&cluster.run(&permuted).unwrap()).unwrap(),
                "{}: permuting members changed the report",
                policy.name()
            );
        }
    }

    #[test]
    fn a_request_s_own_chunk_profile_wins_over_the_run_s() {
        // With zero contention a session's record depends on its own train
        // only. In a mixed run, requests carrying a profile must match a
        // run whose run-wide train is theirs, and the rest the run-wide
        // train, on the flat and the sharded surface alike.
        use hnow_model::ChunkProfile;
        let pool = pool();
        let net = NetParams::new(2);
        let own = ChunkProfile::new(3, 40).with_deadline(500);
        let run_wide = ChunkProfile::new(5, 12).sequential();
        let requests = spaced_requests(&pool, 4, 0.5, 24);
        let mixed: Vec<SessionRequest> = requests
            .iter()
            .map(|request| SessionRequest {
                chunks: (request.id % 2 == 0).then_some(own),
                ..request.clone()
            })
            .collect();
        for shards in [1, 4] {
            let run = |requests: &[SessionRequest], chunks: ChunkProfile| {
                let config = RunConfig::default().sharded(shards).with_chunks(chunks);
                if shards == 1 {
                    TrafficEngine::with_config(&pool, net, &config)
                        .run(requests)
                        .unwrap()
                } else {
                    ShardedCluster::with_config(&pool, net, &config)
                        .unwrap()
                        .run(requests)
                        .unwrap()
                }
            };
            let mixed_report = run(&mixed, run_wide);
            let own_report = run(&requests, own);
            let wide_report = run(&requests, run_wide);
            if shards > 1 {
                assert!(mixed_report.cross_sessions > 0);
            }
            for (i, record) in mixed_report.per_session.iter().enumerate() {
                let (expected, chunks) = if record.id % 2 == 0 {
                    (&own_report.per_session[i], 3)
                } else {
                    (&wide_report.per_session[i], 5)
                };
                assert_eq!(
                    record.chunks, chunks,
                    "shards {shards}, session {}",
                    record.id
                );
                assert_eq!(record, expected, "shards {shards}, session {}", record.id);
            }
        }
    }
}
