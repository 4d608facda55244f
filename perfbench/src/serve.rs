//! The session-service workloads: a seeded request stream handed to an
//! engine's `run`, and the report emitted with `to_string_pretty` (the call
//! `traffic_demo --out` makes). One pass serves the whole stream; passes
//! repeat until the measured time is up.
//!
//! - `soak_batch`: the sharded batch pipeline at the reference soak size.
//! - `stream_lossy`: the flat engine moving 8-chunk trains under 5% loss
//!   with subtree-root repair, offered above saturation.
//! - `control_hotspot`: the sharded control loop (admission, load-aware
//!   gateways, rebalancer) on rotating hot-spot bursts, with the report's
//!   time series attached.

use crate::measure::{fastest, median, percentile, ratio, setup_sample, timed};
use crate::scan::ReportFacts;
use crate::Outcome;
use hnow_core::planner::{find, PlanContext, PlanRequest, Planner};
use hnow_core::{lower_bound, RepairPlacement};
use hnow_model::{ChunkProfile, MessageSize, MulticastSet, NetParams};
use hnow_sim::cluster::{ControlConfig, RebalanceConfig, ShardedCluster};
use hnow_sim::sessions::TrafficEngine;
use hnow_sim::{LossProfile, RunConfig, SimError};
use hnow_telemetry::{
    check_invariants, MemorySink, PhaseProfiler, TelemetryConfig, TraceEventKind,
};
use hnow_workload::traffic::{NodePool, SessionRequest, TrafficPattern};
use hnow_workload::{two_class_table, HotSpotPattern, ShardMap, ShardedPattern};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Measured passes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Replays of the stream's plan requests after every measured pass. A
/// replay costs a fraction of a served pass, and a batch's latency is its
/// fastest over all replays, so more replays leave less host jitter in it.
const REPLAYS_PER_PASS: usize = 3;
/// Profiled passes in a traced run; each layer reports its median.
const PROFILED_PASSES: usize = 3;
/// Network latency of every workload.
const NET: u64 = 2;

/// One workload's fixed shape; only the request stream depends on the seed.
struct Workload {
    /// Nodes per class of the two-class pool.
    pool: [usize; 2],
    /// Shard count; 0 serves the stream on the flat engine.
    shards: usize,
    config: RunConfig,
    sessions: usize,
    arrivals: Arrivals,
}

/// The generator of a workload's request stream.
enum Arrivals {
    Flat(TrafficPattern),
    Sharded(ShardedPattern),
    HotSpot(HotSpotPattern),
}

fn workload(name: &str, seed: u64) -> Result<Workload, String> {
    Ok(match name {
        "soak_batch" => Workload {
            pool: [256, 128],
            shards: 8,
            config: RunConfig::for_planner("greedy+leaf").sharded(8),
            sessions: 100_000,
            arrivals: Arrivals::Sharded(ShardedPattern::poisson(6.0, 5, 0.1)),
        },
        "stream_lossy" => Workload {
            pool: [32, 16],
            shards: 0,
            config: RunConfig::for_planner("greedy+leaf")
                .with_loss(LossProfile::iid(0.05, seed))
                .with_repair(RepairPlacement::SubtreeRoot)
                .with_chunks(ChunkProfile::new(8, 8)),
            sessions: 20_000,
            arrivals: Arrivals::Flat(TrafficPattern::poisson(20.0, 6)),
        },
        "control_hotspot" => Workload {
            pool: [64, 32],
            shards: 8,
            config: RunConfig::for_planner("dp-optimal")
                .sharded(8)
                .with_control(ControlConfig {
                    epoch: 64,
                    admission: true,
                    policy: "load-aware".to_string(),
                    rebalance: Some(RebalanceConfig::default()),
                })
                .telemetry(TelemetryConfig::new().with_timeseries(4096)),
            sessions: 20_000,
            arrivals: Arrivals::HotSpot(HotSpotPattern::bursty(8, 2500, 3, 8, 500, 0.7)),
        },
        other => return Err(format!("no serve workload named {other}")),
    })
}

/// The seeded request stream of a workload.
fn requests(w: &Workload, pool: &NodePool, seed: u64) -> Result<Vec<SessionRequest>, String> {
    let map = || ShardMap::partition(pool, w.shards).map_err(|e| e.to_string());
    let generated = match &w.arrivals {
        Arrivals::Flat(pattern) => pattern.generate(pool, w.sessions, seed),
        Arrivals::Sharded(pattern) => pattern.generate(&map()?, w.sessions, seed),
        Arrivals::HotSpot(pattern) => pattern.generate(&map()?, w.sessions, seed),
    };
    generated.map_err(|e| format!("request generation: {e}"))
}

fn new_pool(w: &Workload) -> Result<NodePool, String> {
    NodePool::new(two_class_table(), MessageSize::from_kib(4), &w.pool).map_err(|e| e.to_string())
}

/// Either engine behind its public constructor.
enum Engine<'p> {
    Flat(TrafficEngine<'p>),
    Sharded(ShardedCluster<'p>),
}

/// One served stream: the emitted report and where its wall time went.
struct Served {
    json: String,
    run: Duration,
    emit: Duration,
}

impl Served {
    fn total(&self) -> f64 {
        (self.run + self.emit).as_secs_f64()
    }

    fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.json.hash(&mut h);
        h.finish()
    }
}

/// Times `run`, then the emission of its report; the report is dropped
/// after the clock stops.
fn serve_with<R: serde::Serialize>(
    run: impl FnOnce() -> Result<R, SimError>,
) -> Result<Served, String> {
    let start = Instant::now();
    let report = run().map_err(|e| format!("run failed: {e}"))?;
    let ran = start.elapsed();
    let json =
        serde_json::to_string_pretty(&report).map_err(|e| format!("emission failed: {e}"))?;
    let total = start.elapsed();
    drop(report);
    Ok(Served {
        json,
        run: ran,
        emit: total - ran,
    })
}

impl<'p> Engine<'p> {
    fn new(pool: &'p NodePool, sharded: bool, config: &RunConfig) -> Result<Self, String> {
        let net = NetParams::new(NET);
        Ok(if sharded {
            Engine::Sharded(
                ShardedCluster::with_config(pool, net, config).map_err(|e| e.to_string())?,
            )
        } else {
            Engine::Flat(TrafficEngine::with_config(pool, net, config))
        })
    }

    fn serve(&self, requests: &[SessionRequest]) -> Result<Served, String> {
        match self {
            Engine::Flat(engine) => serve_with(|| engine.run(requests)),
            Engine::Sharded(cluster) => serve_with(|| cluster.run(requests)),
        }
    }
}

/// The plan request each session makes, as the engines build it, by id.
fn plan_requests(pool: &NodePool, requests: &[SessionRequest]) -> Result<Vec<PlanRequest>, String> {
    requests
        .iter()
        .map(|r| {
            let dests = r.members.iter().map(|&m| pool.spec_of_node(m)).collect();
            let set =
                MulticastSet::new(pool.spec_of_node(r.source), dests).map_err(|e| e.to_string())?;
            Ok(PlanRequest::new(set, NetParams::new(NET)).with_seed(r.id))
        })
        .collect()
}

/// Plans the stream's requests once through a fresh context, one admission
/// batch (the workload's batch size) at a time as the engines do, and lowers
/// each batch's entry in `best_us` to this replay's latency for it in
/// microseconds when that is faster.
fn replay(
    planner: &dyn Planner,
    w: &Workload,
    requests: &[PlanRequest],
    best_us: &mut [f64],
) -> Result<(), String> {
    let ctx = w
        .config
        .dp_cache_capacity
        .map_or_else(PlanContext::new, PlanContext::with_dp_capacity);
    for (batch, best) in requests.chunks(w.config.batch_size).zip(best_us) {
        let (planned, took) = timed(|| {
            batch
                .iter()
                .try_for_each(|request| planner.plan_with(request, &ctx).map(drop))
        });
        planned.map_err(|e| format!("plan request failed: {e}"))?;
        *best = best.min(took.as_secs_f64() * 1e6);
    }
    Ok(())
}

/// Checks one emitted report against the offered stream; returns the number
/// of failed sessions and the mean reception latency over lower bound.
fn check_report(facts: &ReportFacts, lbs: &[u64], outcome: &mut Outcome) -> (u64, f64) {
    let offered = lbs.len();
    match facts.number("sessions") {
        Some(n) if n as usize == offered => {}
        Some(n) => outcome.problem(format!(
            "report counts {n} sessions, {offered} were offered"
        )),
        None => outcome.problem("report has no session count"),
    }
    if facts.sessions.len() != offered {
        outcome.problem(format!(
            "report lists {} sessions, {offered} were offered",
            facts.sessions.len()
        ));
    }
    let mut ratios = Vec::with_capacity(offered);
    let mut below = 0usize;
    for s in facts.sessions.iter().filter(|s| !s.abandoned) {
        let (Some(id), Some(latency)) = (s.id, s.reception_latency) else {
            outcome.problem("a session record lacks its id or reception latency");
            break;
        };
        let Some(&lb) = lbs.get(id as usize) else {
            outcome.problem(format!("report lists unknown session {id}"));
            break;
        };
        below += usize::from(latency < lb as f64);
        ratios.push(ratio(latency, lb as f64));
    }
    if below > 0 {
        outcome.problem(format!(
            "{below} sessions completed faster than their lower bound"
        ));
    }
    let missing = offered.saturating_sub(facts.sessions.len()) as u64;
    (
        facts.failed_sessions() + missing,
        crate::measure::mean(&ratios),
    )
}

pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut w = workload(name, seed)?;
    w.config = w.config.with_threads(1);
    let sharded = w.shards > 0;
    let mut outcome = Outcome::default();

    // Inputs: generated from the seed, outside every timed region.
    let gen_pool = new_pool(&w)?;
    let stream = requests(&w, &gen_pool, seed)?;
    let plans = plan_requests(&gen_pool, &stream)?;
    let lbs: Vec<u64> = plans
        .iter()
        .map(|r| lower_bound(&r.set, r.net).value.raw())
        .collect();
    drop(gen_pool);
    let planner = find(&w.config.planner).ok_or("unknown planner")?;

    let pool = new_pool(&w)?;
    let engine = Engine::new(&pool, sharded, &w.config)?;

    // Warm-up pass: fixes the reference bytes and is the one scanned.
    let reference = engine.serve(&stream)?;
    let digest = reference.digest();
    let bytes = reference.json.len();
    let facts = ReportFacts::scan(&reference.json)?;
    drop(reference);
    let peak_rss = crate::measure::peak_rss_mb()?;
    let (failed, rt_over_lb) = check_report(&facts, &lbs, &mut outcome);

    let mut wall = Vec::new();
    let mut setup = Vec::new();
    let mut best_us = vec![f64::INFINITY; plans.len().div_ceil(w.config.batch_size)];
    let start = Instant::now();
    while wall.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        // Set-up: pool, partition and engine construction.
        setup.push(setup_sample(|| {
            let pool = new_pool(&w)?;
            black_box(Engine::new(&pool, sharded, &w.config)?);
            Ok(())
        })?);
        let served = engine.serve(&stream)?;
        if served.digest() != digest {
            outcome.problem("emitted bytes differ between passes of one process");
        }
        wall.push(served.total());
        drop(served);
        for _ in 0..REPLAYS_PER_PASS {
            replay(planner, &w, &plans, &mut best_us)?;
        }
    }

    // Every pass serves the same stream, so the fastest one shows what the
    // service costs; slower ones add host stalls.
    let fastest_pass = fastest(wall.iter().copied());
    outcome.attempted = (w.sessions * wall.len()) as u64;
    outcome.failed = failed * wall.len() as u64;
    outcome.set("ops_per_s", w.sessions as f64 / fastest_pass);
    outcome.set("op_p50_us", percentile(&best_us, 50.0));
    outcome.set("op_p99_us", percentile(&best_us, 99.0));
    outcome.set("setup_s", fastest(setup));
    outcome.set("peak_rss_mb", peak_rss);
    outcome.set("p99_reception_ticks", facts.number("p99_reception_latency"));
    outcome.set("rt_over_lb", rt_over_lb);
    println!(
        "{name}: {} sessions per pass, {} measured passes (median {:.4} s, fastest {:.4} s), report {bytes} bytes",
        w.sessions,
        wall.len(),
        median(&wall),
        fastest_pass
    );

    // Counters read from the report, whichever run is traced.
    outcome.set("emit.bytes", bytes as f64);
    outcome.set("sim.plan_cache_hit_rate", facts.plan_cache.hit_rate());
    outcome.set("sim.dp_hit_rate", facts.dp_cache.hit_rate());
    outcome.set("sim.components", facts.number("components"));
    outcome.set("control.shed", facts.number("shed"));
    outcome.set(
        "control.migrations",
        facts.array_len("migrations").map(|n| n as f64),
    );
    outcome.set("faults.nacks", facts.number("nacks"));
    outcome.set("faults.repair_sends", facts.number("repair_sends"));

    if trace {
        traced(&w, &pool, &stream, digest, fastest_pass, &mut outcome)?;
    }
    Ok(outcome)
}

/// The traced passes: phase profiles for the layer split, then one pass
/// with an in-memory trace sink for event counts, tracing overhead and the
/// invariant check.
fn traced(
    w: &Workload,
    pool: &NodePool,
    stream: &[SessionRequest],
    digest: u64,
    untraced_wall: f64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let sharded = w.shards > 0;
    let base = w.config.telemetry.clone().unwrap_or_default();
    // The profiler's phases and the metric each one feeds.
    const PHASES: [(&str, &str); 5] = [
        ("plan", "sim.plan_s"),
        ("admit", "control.admit_s"),
        ("bind", "sim.bind_s"),
        ("simulate", "sim.simulate_s"),
        ("rebalance", "control.rebalance_s"),
    ];
    let mut phase_s: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len()];
    let (mut report_s, mut emit_s, mut pass_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut epochs = 0usize;
    for _ in 0..PROFILED_PASSES {
        let profiler = Arc::new(PhaseProfiler::new());
        let mut config = w.config.clone();
        config.telemetry = Some(base.clone().with_profiler(profiler.clone()));
        let served = Engine::new(pool, sharded, &config)?.serve(stream)?;
        if served.digest() != digest {
            outcome.problem("a profiled pass emitted different bytes");
        }
        let spans = profiler.spans();
        let mut spanned = 0.0;
        for (i, (phase, _)) in PHASES.iter().enumerate() {
            // A phase the run never entered has no reading at all.
            if spans.iter().any(|s| s.phase == *phase) {
                let s = profiler.total_nanos(phase) as f64 / 1e9;
                spanned += s;
                phase_s[i].push(s);
            }
        }
        epochs = spans.iter().filter(|s| s.phase == "admit").count();
        report_s.push(served.run.as_secs_f64() - spanned);
        emit_s.push(served.emit.as_secs_f64());
        pass_s.push(served.total());
    }

    let sink = Arc::new(MemorySink::new());
    let mut config = w.config.clone();
    config.telemetry = Some(base.with_sink(sink.clone()));
    let served = Engine::new(pool, sharded, &config)?.serve(stream)?;
    if served.digest() != digest {
        outcome.problem("the sink-traced pass emitted different bytes");
    }
    let events = sink.take();
    let kernel_events = events
        .iter()
        .filter(|e| {
            !matches!(
                e.kind,
                TraceEventKind::Admitted | TraceEventKind::Reordered | TraceEventKind::Shed
            )
        })
        .count();
    let (verdict, invariants) = timed(|| check_invariants(&events));
    if let Err(err) = verdict {
        outcome.problem(format!("trace invariants: {err}"));
    }
    drop(events);

    for ((_, metric), samples) in PHASES.iter().zip(&phase_s) {
        if !samples.is_empty() {
            outcome.set(metric, median(samples));
        }
    }
    let simulate = median(&phase_s[3]);
    let emit = median(&emit_s);
    outcome.set("emit.s", emit);
    outcome.set(
        "emit.ns_per_byte",
        ratio(emit * 1e9, served.json.len() as f64),
    );
    outcome.set("sim.kernel_events", kernel_events as f64);
    outcome.set(
        "sim.kernel_ns_per_event",
        ratio(simulate * 1e9, kernel_events as f64),
    );
    outcome.set("sim.report_s", median(&report_s));
    if epochs > 0 {
        outcome.set("control.epochs", epochs as f64);
    }
    outcome.set("telemetry.trace_overhead", served.total() / untraced_wall);
    outcome.set("telemetry.invariants_s", invariants.as_secs_f64());

    let profiled = median(&pass_s);
    println!(
        "layer accounting: layer spans + report + emit = {:.4} s per profiled pass, {:.3}x the untraced {:.4} s (sink-traced pass {:.3}x)",
        profiled,
        profiled / untraced_wall,
        untraced_wall,
        served.total() / untraced_wall
    );
    Ok(())
}
