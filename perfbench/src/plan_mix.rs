//! `plan_mix`: the paper's own operation, one multicast plan at a time.
//!
//! A seeded list of single multicasts over the standard four-class table
//! (message size, latency, per-class counts and source class all vary) is
//! planned by `greedy+leaf` and then by `dp-optimal`, request by request,
//! through one `PlanContext` whose DP-table cache holds fewer tables than
//! the list has distinct signatures. A pass plans the whole list with a
//! fresh context, so every pass does the same work; passes repeat until the
//! measured time is up. Only `Planner::plan_with` is timed.

use crate::measure::{fastest, mean, median, percentile, ratio, setup_sample, timed, SplitMix};
use crate::Outcome;
use hnow_core::planner::{find, PlanContext, PlanRequest, Planner};
use hnow_core::{lower_bound, schedule};
use hnow_model::{MessageSize, NetParams, TypedMulticast};
use hnow_workload::standard_class_table;
use std::hint::black_box;
use std::time::Instant;

/// Distinct multicasts per pass; each is planned by both planners.
const INSTANCES: usize = 4000;
/// Largest destination count drawn per taking-part class.
const MAX_PER_CLASS: u64 = 6;
/// Message sizes drawn, KiB.
const SIZES_KIB: [u64; 6] = [1, 2, 4, 8, 16, 32];
/// Network latencies drawn: `1..=LATENCIES`.
const LATENCIES: u64 = 6;
/// DP-cache capacity of the context (the service default). The draws above
/// span 4 class subsets × 6 sizes × 6 latencies = 144 signatures.
const DP_CAPACITY: usize = 128;
/// Planners, in the order each instance is planned.
const PLANNERS: [&str; 2] = ["greedy+leaf", "dp-optimal"];

/// What one pass over the list measured.
struct Pass {
    /// Wall seconds of every `plan_with` call, in request order.
    latency_s: Vec<f64>,
    /// Whether the call built or widened a DP table.
    built: Vec<bool>,
    /// Planned reception completion `R_T` per request (0 on error).
    rt: Vec<u64>,
    /// Lower bound per request.
    lb: Vec<u64>,
    /// Requests that errored or failed a check.
    failed: u64,
    problems: Vec<String>,
    dp_builds: usize,
    dp_evictions: usize,
    dp_hit_rate: f64,
}

/// The seeded instance list.
fn instances(seed: u64) -> Result<Vec<PlanRequest>, String> {
    let table = standard_class_table();
    let k = table.k() as u64;
    let mut rng = SplitMix::new(seed);
    (0..INSTANCES)
        .map(|_| {
            let size = MessageSize::from_kib(SIZES_KIB[rng.below(SIZES_KIB.len() as u64) as usize]);
            let net = NetParams::new(1 + rng.below(LATENCIES));
            // Leave one class out, so every DP table has three dimensions
            // (dp-optimal is practical up to three types); the source is
            // one of the other three.
            let absent = rng.below(k) as usize;
            let present: Vec<usize> = (0..k as usize).filter(|&c| c != absent).collect();
            let source = present[rng.below(present.len() as u64) as usize];
            let counts: Vec<usize> = (0..k as usize)
                .map(|c| {
                    if c == absent {
                        0
                    } else {
                        1 + rng.below(MAX_PER_CLASS) as usize
                    }
                })
                .collect();
            let set = TypedMulticast::from_classes(&table, size, source, counts)
                .and_then(|typed| typed.to_multicast_set())
                .map_err(|e| format!("instance generation: {e}"))?;
            Ok(PlanRequest::new(set, net))
        })
        .collect()
}

/// Plans the whole list once with a fresh context, checking every plan.
fn pass(requests: &[PlanRequest], planners: &[&'static dyn Planner]) -> Pass {
    let ctx = PlanContext::with_dp_capacity(DP_CAPACITY);
    let n = requests.len() * planners.len();
    let mut out = Pass {
        latency_s: Vec::with_capacity(n),
        built: Vec::with_capacity(n),
        rt: Vec::with_capacity(n),
        lb: Vec::with_capacity(n),
        failed: 0,
        problems: Vec::new(),
        dp_builds: 0,
        dp_evictions: 0,
        dp_hit_rate: 0.0,
    };
    for (i, request) in requests.iter().enumerate() {
        let lb = lower_bound(&request.set, request.net).value.raw();
        let mut greedy_rt = None;
        for planner in planners {
            let misses = ctx.dp_cache().misses();
            let (plan, took) = timed(|| planner.plan_with(request, &ctx));
            out.latency_s.push(took.as_secs_f64());
            out.built.push(ctx.dp_cache().misses() > misses);
            out.lb.push(lb);
            let plan = match plan {
                Ok(plan) => plan,
                Err(err) => {
                    out.failed += 1;
                    out.problems
                        .push(format!("instance {i}: {} errored: {err}", planner.name()));
                    out.rt.push(0);
                    continue;
                }
            };
            let rt = plan.reception_completion().raw();
            out.rt.push(rt);
            let mut bad = Vec::new();
            if let Err(err) = schedule::validate(&plan.tree, &request.set) {
                bad.push(format!("invalid schedule: {err}"));
            }
            if rt < lb {
                bad.push(format!("R_T {rt} below the lower bound {lb}"));
            }
            match greedy_rt {
                None => greedy_rt = Some(rt),
                Some(greedy) if rt > greedy => {
                    bad.push(format!("R_T {rt} worse than greedy's {greedy}"));
                }
                Some(_) => {}
            }
            if !bad.is_empty() {
                out.failed += 1;
                out.problems.push(format!(
                    "instance {i}: {}: {}",
                    planner.name(),
                    bad.join("; ")
                ));
            }
        }
    }
    let cache = ctx.dp_cache();
    out.dp_builds = cache.misses();
    out.dp_evictions = cache.evictions();
    out.dp_hit_rate = cache.hit_rate();
    out
}

/// Runs the workload pinned to a one-thread pool, so DP table builds cannot
/// fan out either.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| format!("thread pool: {e}"))?;
    pool.install(|| measure(seed, seconds))
}

fn measure(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let requests = instances(seed)?;
    let mut outcome = Outcome::default();

    let planners: Vec<&'static dyn Planner> = PLANNERS
        .iter()
        .map(|name| find(name).ok_or_else(|| format!("planner {name} is not registered")))
        .collect::<Result<_, _>>()?;

    // The first pass warms up and fixes the reference plans; the measured
    // passes must reproduce them exactly.
    let reference = pass(&requests, &planners);
    // Peak memory of one pass, before the benchmark's own latency samples
    // from the measured passes accumulate.
    let peak_rss = crate::measure::peak_rss_mb()?;
    let mut passes = Vec::new();
    let mut setup = Vec::new();
    let start = Instant::now();
    while passes.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        // Set-up: the class table, the planners and the planning context.
        setup.push(setup_sample(|| {
            let planners: Option<Vec<_>> = PLANNERS.iter().map(|name| find(name)).collect();
            black_box((
                standard_class_table(),
                planners,
                PlanContext::with_dp_capacity(DP_CAPACITY),
            ));
            Ok(())
        })?);
        let p = pass(&requests, &planners);
        if p.rt != reference.rt {
            outcome.problem("plans differ between passes over the same requests");
        }
        passes.push(p);
    }

    // Every pass does the same work per request, so a request's latency is
    // its fastest call over the passes: host jitter leaves the tail, and the
    // percentiles across requests show what the requests themselves cost.
    let requests_per_pass = reference.latency_s.len() as f64;
    let best_us: Vec<f64> = (0..reference.latency_s.len())
        .map(|i| fastest(passes.iter().map(|p| p.latency_s[i] * 1e6)))
        .collect();
    let split_p50_us = |built: bool| {
        let picked: Vec<f64> = best_us
            .iter()
            .zip(&reference.built)
            .filter(|(_, &b)| b == built)
            .map(|(us, _)| *us)
            .collect();
        median(&picked)
    };
    // A pass's service time, rebuilt from the fastest call of every request:
    // the time of a whole pass sums every host stall that lands in it.
    let service_s = best_us.iter().sum::<f64>() / 1e6;
    let rt_over_lb: Vec<f64> = reference
        .rt
        .iter()
        .zip(&reference.lb)
        .map(|(&rt, &lb)| ratio(rt as f64, lb as f64))
        .collect();
    let rts: Vec<f64> = reference.rt.iter().map(|&rt| rt as f64).collect();

    outcome.attempted = passes.iter().map(|p| p.latency_s.len() as u64).sum();
    outcome.failed = passes.iter().map(|p| p.failed).sum();
    // Plans repeat exactly across passes (checked above), so the warm-up
    // pass's failed checks stand for every pass's.
    outcome
        .problems
        .extend(reference.problems.iter().take(5).cloned());
    outcome.set("ops_per_s", requests_per_pass / service_s);
    outcome.set("op_p50_us", percentile(&best_us, 50.0));
    outcome.set("op_p99_us", percentile(&best_us, 99.0));
    outcome.set("setup_s", fastest(setup));
    outcome.set("peak_rss_mb", peak_rss);
    outcome.set("p99_reception_ticks", percentile(&rts, 99.0));
    outcome.set("rt_over_lb", mean(&rt_over_lb));

    outcome.set("core.plan_hit_us", split_p50_us(false));
    outcome.set("core.plan_miss_us", split_p50_us(true));
    outcome.set("core.dp_builds", reference.dp_builds as f64);
    outcome.set("core.dp_hit_rate", reference.dp_hit_rate);
    outcome.set("core.dp_evictions", reference.dp_evictions as f64);
    println!(
        "plan_mix: {requests_per_pass} requests per pass ({} built a DP table), {} measured passes",
        reference.built.iter().filter(|&&b| b).count(),
        passes.len()
    );
    Ok(outcome)
}
