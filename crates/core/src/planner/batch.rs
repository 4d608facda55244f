//! Batched planning: fan requests across planners, share DP tables.

use crate::algorithms::dp::DpTable;
use crate::error::CoreError;
use crate::planner::registry::Planner;
use crate::planner::request::{Plan, PlanRequest};
use hnow_model::{NetParams, NodeSpec, TypedMulticast};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Memoized Theorem 2 whole-network DP tables, shared across every request
/// of a batch.
///
/// Section 4 of the paper recommends precomputing the DP table for a whole
/// network once, because the completed table answers *every* multicast over
/// the same workstation types. The cache implements exactly that: tables are
/// keyed by `(canonical class overheads, network latency)`, and a cached
/// table serves any request whose per-class counts fit inside its
/// dimensions. A request that outgrows the cached table widens it once to
/// the element-wise maximum dimensions, after which both shapes hit.
/// Widening copies every state the old table holds and fills only the new
/// ones (see the [fill kernel](crate::algorithms::dp#fill-kernel) docs);
/// the widened table equals a fresh build of the wider instance.
///
/// The key is the **canonical** class signature
/// ([`TypedMulticast::canonical`]): classes sorted by overhead with
/// duplicates merged. Every multicast drawn from one physical cluster —
/// regardless of which node is the source or in which order
/// [`TypedMulticast::from_multicast_set`] happened to number the classes —
/// therefore shares a single table, which is what makes the cache effective
/// across thousands of overlapping traffic sessions. The returned table is
/// in canonical class order; reconstruct schedules from it with a canonical
/// instance (as [`table_for`](DpCache::table_for) documents).
///
/// Long-running services bound the cache with
/// [`DpCache::with_capacity`]: once more than `capacity` distinct signatures
/// are resident, the least-recently-used table is evicted (an evicted
/// signature is built afresh on its next use).
#[derive(Debug, Default)]
pub struct DpCache {
    inner: Mutex<CacheInner>,
    capacity: Option<usize>,
    lookups: AtomicUsize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

/// Cache key: the canonical class overheads plus the network parameters.
type DpCacheKey = (Vec<NodeSpec>, NetParams);

#[derive(Debug, Default)]
struct CacheInner {
    tables: HashMap<DpCacheKey, CacheEntry>,
    /// Monotone logical clock stamping every access; unique per entry, so
    /// LRU eviction is deterministic.
    clock: u64,
}

#[derive(Debug)]
struct CacheEntry {
    table: Arc<DpTable>,
    last_used: u64,
}

impl DpCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        DpCache::default()
    }

    /// Creates an empty cache holding at most `capacity` tables (≥ 1),
    /// evicting the least-recently-used signature beyond that.
    pub fn with_capacity(capacity: usize) -> Self {
        DpCache {
            capacity: Some(capacity.max(1)),
            ..DpCache::default()
        }
    }

    /// Returns a table covering `typed` at latency `net`, building (or
    /// widening) one on miss.
    ///
    /// The instance is canonicalized ([`TypedMulticast::canonical`]) before
    /// keying, so the returned table's class order is the canonical one.
    /// Callers that reconstruct schedules via
    /// [`DpTable::schedule_for`] must therefore pass a canonical instance —
    /// cheapest is to canonicalize once up front and use that form for both
    /// the lookup and the reconstruction.
    ///
    /// Table builds are the expensive part of a batch, so they never happen
    /// while holding the cache lock: the lock is taken briefly to probe (and
    /// plan the widened dimensions), released for the build or widening,
    /// then retaken for a double-checked insert. A racing thread that
    /// inserted an at-least-as-wide table meanwhile wins and the local table
    /// is discarded — either table answers the request identically. If two
    /// racing builds have incomparable dimensions the later insert wins and
    /// the other shape misses once more; that miss probes the now-cached
    /// table and widens it to the element-wise union, so the cache converges
    /// after at most one extra widening per raced shape.
    ///
    /// Metrics contract: every call counts one lookup, and every lookup is
    /// either a hit or a miss (`lookups == hits + misses`, always). The miss
    /// counter is incremented exactly once per table *built* (fresh or
    /// widened) — on the miss path, before the build — so a racing build
    /// that loses the double-checked insert still counts the one miss for
    /// the one build it performed, and no path counts twice.
    pub fn table_for(&self, typed: &TypedMulticast, net: NetParams) -> Arc<DpTable> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let canonical;
        let typed = if typed.is_canonical() {
            typed
        } else {
            canonical = typed.canonical();
            &canonical
        };
        let key = (typed.specs().to_vec(), net);
        // Probe, and on an undersized table plan dimensions that also cover
        // everything previously cached under this key.
        let mut dims = typed.counts().to_vec();
        let mut outgrown = None;
        {
            let mut inner = self.inner.lock().expect("DP cache lock poisoned");
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(entry) = inner.tables.get_mut(&key) {
                entry.last_used = clock;
                if entry.table.covers(typed.counts()) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Arc::clone(&entry.table);
                }
                for (dim, &old) in dims.iter_mut().zip(entry.table.dims()) {
                    *dim = (*dim).max(old);
                }
                outgrown = Some(Arc::clone(&entry.table));
            }
        }
        // A miss: exactly one increment per table built, recorded before the
        // build so the racing-discard path below cannot skip or double it.
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Build, or widen the outgrown table, outside the lock.
        let widened = TypedMulticast::new(typed.specs().to_vec(), typed.source_class(), dims)
            .expect("widening preserves validity of a typed instance");
        let table = Arc::new(DpTable::widen(outgrown.as_deref(), &widened, net));
        // Double-checked insert.
        let mut inner = self.inner.lock().expect("DP cache lock poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        let result = match inner.tables.get_mut(&key) {
            Some(existing) if existing.table.covers(table.dims()) => {
                existing.last_used = clock;
                Arc::clone(&existing.table)
            }
            _ => {
                inner.tables.insert(
                    key.clone(),
                    CacheEntry {
                        table: Arc::clone(&table),
                        last_used: clock,
                    },
                );
                table
            }
        };
        // Evict least-recently-used signatures beyond capacity (never the
        // one just touched). `last_used` stamps are unique, so the victim —
        // and thus the whole cache state — is deterministic.
        if let Some(cap) = self.capacity {
            while inner.tables.len() > cap {
                let victim = inner
                    .tables
                    .iter()
                    .filter(|(k, _)| **k != key)
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone());
                match victim {
                    Some(v) => {
                        inner.tables.remove(&v);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    None => break,
                }
            }
        }
        result
    }

    /// Number of [`DpCache::table_for`] calls so far.
    pub fn lookups(&self) -> usize {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Number of lookups served from a cached table without a build.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that built or widened a table — exactly one per
    /// build, even when a racing build is discarded by the double-checked
    /// insert.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of tables evicted by the LRU capacity bound.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of tables currently resident.
    pub fn resident(&self) -> usize {
        self.inner
            .lock()
            .expect("DP cache lock poisoned")
            .tables
            .len()
    }

    /// Fraction of lookups served from cache (0.0 when nothing was looked
    /// up yet).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits() as f64 / lookups as f64
        }
    }
}

/// Shared state of one planning batch: today, the [`DpCache`].
#[derive(Debug, Default)]
pub struct PlanContext {
    dp: DpCache,
}

impl PlanContext {
    /// Creates a fresh context with an empty, unbounded DP cache.
    pub fn new() -> Self {
        PlanContext::default()
    }

    /// Creates a fresh context whose DP cache holds at most `capacity`
    /// tables (LRU eviction beyond that) — the right shape for long-running
    /// services that see an open-ended stream of cluster signatures.
    pub fn with_dp_capacity(capacity: usize) -> Self {
        PlanContext {
            dp: DpCache::with_capacity(capacity),
        }
    }

    /// The batch's DP table cache.
    pub fn dp_cache(&self) -> &DpCache {
        &self.dp
    }
}

/// Plans every request with every planner, in parallel over requests, with
/// a fresh shared [`PlanContext`].
///
/// Returns one row per request, each row holding one result per planner in
/// the order given. The output is identical to planning each `(request,
/// planner)` pair sequentially with [`Planner::plan`] — parallelism and the
/// DP cache change throughput, never results.
pub fn plan_many(
    planners: &[&dyn Planner],
    requests: &[PlanRequest],
) -> Vec<Vec<Result<Plan, CoreError>>> {
    plan_many_with(planners, requests, &PlanContext::new())
}

/// [`plan_many`] with an explicit context, so callers can reuse one DP
/// cache across several batches or read its statistics afterwards.
pub fn plan_many_with(
    planners: &[&dyn Planner],
    requests: &[PlanRequest],
    ctx: &PlanContext,
) -> Vec<Vec<Result<Plan, CoreError>>> {
    requests
        .par_iter()
        .map(|request| {
            planners
                .iter()
                .map(|planner| planner.plan_with(request, ctx))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::registry::{find, registry};
    use hnow_model::{MulticastSet, NodeSpec};

    fn two_class_requests() -> Vec<PlanRequest> {
        // Four instances over the same two classes with the same (slow)
        // source class, at one latency: one DP table can serve them all.
        let fast = NodeSpec::new(1, 1);
        let slow = NodeSpec::new(2, 3);
        let net = NetParams::new(1);
        [(3usize, 3usize), (3, 1), (2, 2), (1, 3)]
            .into_iter()
            .map(|(nf, ns)| {
                let mut dests = vec![fast; nf];
                dests.extend(std::iter::repeat_n(slow, ns));
                PlanRequest::new(MulticastSet::new(slow, dests).unwrap(), net).with_seed(7)
            })
            .collect()
    }

    #[test]
    fn plan_many_matches_sequential_planning() {
        let requests = two_class_requests();
        let planners: Vec<&dyn Planner> = registry().to_vec();
        let batched = plan_many(&planners, &requests);
        assert_eq!(batched.len(), requests.len());
        for (request, row) in requests.iter().zip(&batched) {
            assert_eq!(row.len(), planners.len());
            for (planner, result) in planners.iter().zip(row) {
                let sequential = planner.plan(request);
                assert_eq!(result, &sequential, "{} diverged in batch", planner.name());
            }
        }
    }

    #[test]
    fn dp_tables_are_shared_across_same_class_table_requests() {
        let requests = two_class_requests();
        let ctx = PlanContext::new();
        let dp = find("dp-optimal").unwrap();
        // Plan sequentially against one shared context so the hit pattern is
        // deterministic even if the vendored rayon is swapped for the real,
        // parallel one.
        let plans: Vec<_> = requests
            .iter()
            .map(|request| dp.plan_with(request, &ctx).unwrap())
            .collect();
        assert_eq!(ctx.dp_cache().lookups(), requests.len());
        // The first (widest) request builds the table; every later request
        // fits inside its dimensions and hits.
        assert_eq!(ctx.dp_cache().hits(), requests.len() - 1);
        // Cached plans equal fresh uncached plans.
        for (request, cached) in requests.iter().zip(&plans) {
            assert_eq!(cached, &dp.plan(request).unwrap());
        }
    }

    #[test]
    fn outgrown_tables_are_rebuilt_with_union_dimensions() {
        // A request bigger than the cached table forces one widening whose
        // dimensions cover both shapes; afterwards both shapes hit. Also
        // exercises the build-outside-the-lock path end to end: the returned
        // tables must answer their requests despite probe/build/insert being
        // three separate critical sections.
        let specs = vec![NodeSpec::new(1, 1), NodeSpec::new(2, 3)];
        let net = NetParams::new(1);
        let cache = DpCache::new();

        let tall = TypedMulticast::new(specs.clone(), 0, vec![4, 1]).unwrap();
        let wide = TypedMulticast::new(specs.clone(), 0, vec![1, 4]).unwrap();
        let t1 = cache.table_for(&tall, net);
        assert_eq!(t1.dims(), &[4, 1]);
        assert_eq!(cache.misses(), 1, "one miss for the fresh build");
        let t2 = cache.table_for(&wide, net);
        assert_eq!(t2.dims(), &[4, 4], "widening takes element-wise max dims");
        assert_eq!(cache.misses(), 2, "one miss for the widening");
        assert_eq!(cache.hits(), 0);

        // Both original shapes (and anything inside the union) now hit.
        let t3 = cache.table_for(&tall, net);
        let t4 = cache.table_for(&wide, net);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 2, "hits build nothing");
        assert!(Arc::ptr_eq(&t3, &t4));
        assert_eq!(t3.query(0, tall.counts()), t1.query(0, tall.counts()));
    }

    #[test]
    fn widened_tables_equal_fresh_builds() {
        // One canonical three-class signature walked through a chain of
        // growing instances: each lookup widens the cached table, and every
        // widened table must equal a fresh build of the widened instance in
        // its dimensions, every state value and every reconstructed tree.
        let specs = vec![
            NodeSpec::new(1, 1),
            NodeSpec::new(2, 3),
            NodeSpec::new(4, 7),
        ];
        let net = NetParams::new(2);
        let cache = DpCache::new();
        let chain = [
            (1, vec![1, 0, 2]),
            (0, vec![2, 3, 1]),
            (2, vec![4, 1, 1]),
            (1, vec![3, 4, 3]),
        ];
        let mut dims = vec![0usize; specs.len()];
        for (step, (source, counts)) in chain.into_iter().enumerate() {
            let typed = TypedMulticast::new(specs.clone(), source, counts).unwrap();
            assert!(typed.is_canonical());
            let table = cache.table_for(&typed, net);
            assert_eq!(cache.misses(), step + 1, "one miss per table built");
            for (dim, &count) in dims.iter_mut().zip(typed.counts()) {
                *dim = (*dim).max(count);
            }
            let fresh = DpTable::build(
                &TypedMulticast::new(specs.clone(), source, dims.clone()).unwrap(),
                net,
            );
            assert_eq!(table.dims(), fresh.dims(), "step {step}");
            assert_eq!(
                table.reconstruct_schedule().unwrap(),
                fresh.reconstruct_schedule().unwrap(),
                "step {step}"
            );
            let mut sub = vec![0usize; dims.len()];
            loop {
                for s in 0..specs.len() {
                    let sub_typed = TypedMulticast::new(specs.clone(), s, sub.clone()).unwrap();
                    assert_eq!(
                        table.schedule_for(&sub_typed).unwrap(),
                        fresh.schedule_for(&sub_typed).unwrap(),
                        "step {step}, s={s}, counts={sub:?}"
                    );
                }
                let Some(j) = (0..sub.len()).find(|&j| sub[j] < dims[j]) else {
                    break;
                };
                sub[..j].fill(0);
                sub[j] += 1;
            }
        }
    }

    #[test]
    fn lookups_split_exactly_into_hits_and_misses() {
        // Invariant of the metrics contract, across hit, build and widening
        // paths alike.
        let specs = vec![NodeSpec::new(1, 1), NodeSpec::new(2, 3)];
        let net = NetParams::new(1);
        let cache = DpCache::new();
        let tall = TypedMulticast::new(specs.clone(), 0, vec![4, 1]).unwrap();
        let wide = TypedMulticast::new(specs.clone(), 0, vec![1, 4]).unwrap();
        cache.table_for(&tall, net); // build
        cache.table_for(&tall, net); // hit
        cache.table_for(&wide, net); // widening
        cache.table_for(&tall, net); // hit (covered by the union)
        assert_eq!(cache.lookups(), 4);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 2, "one miss per table built");
        assert_eq!(cache.lookups(), cache.hits() + cache.misses());
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn metrics_stay_consistent_under_concurrent_hammering() {
        // The racing-build audit: whatever interleaving the threads produce,
        // every lookup is exactly one hit or one miss, and misses equal the
        // number of builds performed (discarded racing builds included).
        let net = NetParams::new(1);
        let cache = std::sync::Arc::new(DpCache::new());
        let shapes: Vec<TypedMulticast> = [(3usize, 1usize), (1, 3), (3, 3), (2, 2)]
            .into_iter()
            .map(|(a, b)| {
                TypedMulticast::new(
                    vec![NodeSpec::new(1, 1), NodeSpec::new(2, 3)],
                    0,
                    vec![a, b],
                )
                .unwrap()
            })
            .collect();
        let per_thread = 8;
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let cache = std::sync::Arc::clone(&cache);
                let shapes = shapes.clone();
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let typed = &shapes[(t + i) % shapes.len()];
                        let table = cache.table_for(typed, net);
                        assert!(table.covers(typed.counts()));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(cache.lookups(), 4 * per_thread);
        assert_eq!(cache.lookups(), cache.hits() + cache.misses());
        assert!(cache.misses() >= 1);
        // All shapes share one canonical signature; after convergence a
        // single table is resident.
        assert_eq!(cache.resident(), 1);
    }

    #[test]
    fn canonicalization_shares_tables_across_source_classes_and_orderings() {
        // Two requests over the same physical two-class cluster, one rooted
        // at a slow node and one at a fast node: from_multicast_set numbers
        // their classes differently, but the canonical signature is shared,
        // so the second request hits the first one's table.
        let fast = NodeSpec::new(1, 1);
        let slow = NodeSpec::new(2, 3);
        let net = NetParams::new(1);
        let ctx = PlanContext::new();
        let dp = find("dp-optimal").unwrap();
        let from_slow = PlanRequest::new(
            MulticastSet::new(slow, vec![fast, fast, slow]).unwrap(),
            net,
        );
        let from_fast = PlanRequest::new(MulticastSet::new(fast, vec![fast, slow]).unwrap(), net);
        let p1 = dp.plan_with(&from_slow, &ctx).unwrap();
        let p2 = dp.plan_with(&from_fast, &ctx).unwrap();
        assert_eq!(ctx.dp_cache().lookups(), 2);
        assert_eq!(ctx.dp_cache().misses(), 1, "one shared table build");
        assert_eq!(ctx.dp_cache().hits(), 1);
        // Cached plans equal fresh uncached ones.
        assert_eq!(&p1, &dp.plan(&from_slow).unwrap());
        assert_eq!(&p2, &dp.plan(&from_fast).unwrap());
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let net = NetParams::new(1);
        let cache = DpCache::with_capacity(2);
        let sig = |send: u64| {
            TypedMulticast::new(vec![NodeSpec::new(send, send), NodeSpec::new(20, 30)], 0, {
                vec![2, 1]
            })
            .unwrap()
        };
        let (a, b, c) = (sig(1), sig(2), sig(3));
        cache.table_for(&a, net);
        cache.table_for(&b, net);
        assert_eq!(cache.resident(), 2);
        assert_eq!(cache.evictions(), 0);
        // Touch `a`, then insert `c`: `b` is the LRU victim.
        cache.table_for(&a, net);
        cache.table_for(&c, net);
        assert_eq!(cache.resident(), 2);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.hits(), 1);
        // `a` survived (hit), `b` was evicted (miss + fresh build).
        cache.table_for(&a, net);
        assert_eq!(cache.hits(), 2);
        cache.table_for(&b, net);
        assert_eq!(cache.misses(), 4, "evicted signature rebuilds");
        assert_eq!(cache.lookups(), cache.hits() + cache.misses());
    }

    #[test]
    fn cache_distinguishes_latency_and_class_tables() {
        let set = MulticastSet::new(
            NodeSpec::new(2, 3),
            vec![NodeSpec::new(1, 1), NodeSpec::new(2, 3)],
        )
        .unwrap();
        let ctx = PlanContext::new();
        let dp = find("dp-optimal").unwrap();
        let r1 = PlanRequest::new(set.clone(), NetParams::new(1));
        let r2 = PlanRequest::new(set, NetParams::new(5));
        let p1 = dp.plan_with(&r1, &ctx).unwrap();
        let p2 = dp.plan_with(&r2, &ctx).unwrap();
        assert_eq!(ctx.dp_cache().lookups(), 2);
        assert_eq!(ctx.dp_cache().hits(), 0, "different latencies never share");
        assert!(p1.reception_completion() < p2.reception_completion());
    }
}
