//! `perfbench`: the end-to-end and per-layer benchmark of the multicast
//! planning and session service.
//!
//! ```text
//! python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! (`run.py` builds this crate and runs it with a fixed address layout.)
//!
//! Every run generates its inputs from `--seed`, measures untraced passes
//! for `--seconds`, checks the outputs, and prints one line per metric
//! followed by a final JSON line. `--trace 0` puts the end-to-end metrics in
//! that line; `--trace 1` adds traced passes and puts the per-layer metrics
//! there instead. `README.md` next to this crate describes the workloads
//! and which layer metric moves which end-to-end metric.

mod measure;
mod plan_mix;
mod scan;
mod serve;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, `(name, unit)`, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 7] = [
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p99_reception_ticks", "ticks"),
    ("rt_over_lb", "ratio"),
];

/// Per-layer metrics, `(name, unit)`, as `BENCHMARK.json` lists them.
const PER_LAYER: [(&str, &str); 29] = [
    ("emit.s", "s"),
    ("emit.bytes", "bytes"),
    ("emit.ns_per_byte", "ns/byte"),
    ("sim.simulate_s", "s"),
    ("sim.kernel_events", "count"),
    ("sim.kernel_ns_per_event", "ns"),
    ("sim.plan_s", "s"),
    ("sim.plan_cache_hit_rate", "ratio"),
    ("sim.dp_hit_rate", "ratio"),
    ("sim.bind_s", "s"),
    ("sim.components", "count"),
    ("sim.report_s", "s"),
    ("core.plan_hit_us", "us"),
    ("core.plan_miss_us", "us"),
    ("core.dp_builds", "count"),
    ("core.dp_hit_rate", "ratio"),
    ("core.dp_evictions", "count"),
    ("control.admit_s", "s"),
    ("control.rebalance_s", "s"),
    ("control.epochs", "count"),
    ("control.shed", "count"),
    ("control.migrations", "count"),
    ("faults.nacks", "count"),
    ("faults.repair_sends", "count"),
    ("telemetry.trace_overhead", "ratio"),
    ("telemetry.invariants_s", "s"),
    ("host.nproc", "count"),
    ("host.parallel_capacity", "ratio"),
    ("host.spin_s", "s"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["plan_mix", "soak_batch", "stream_lossy", "control_hotspot"];

/// One metric's reading.
#[derive(Debug, Clone, Copy)]
pub enum Reading {
    /// A measured value.
    Value(f64),
    /// The emitted report has no key this metric is read from.
    NotReported,
}

impl From<f64> for Reading {
    fn from(v: f64) -> Self {
        Reading::Value(v)
    }
}

impl From<Option<f64>> for Reading {
    fn from(v: Option<f64>) -> Self {
        v.map_or(Reading::NotReported, Reading::Value)
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured passes.
    pub attempted: u64,
    /// Operations among them that failed.
    pub failed: u64,
    /// Output checks that did not hold; any entry fails the run.
    pub problems: Vec<String>,
    /// Readings by metric name; a metric left out does not apply.
    pub readings: BTreeMap<&'static str, Reading>,
}

impl Outcome {
    /// Records a reading.
    pub fn set(&mut self, name: &'static str, reading: impl Into<Reading>) {
        self.readings.insert(name, reading.into());
    }

    /// Records a failed output check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |_| format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = match args.workload.as_str() {
        "plan_mix" => plan_mix::run(args.seed, args.seconds)?,
        name => serve::run(name, args.seed, args.seconds, args.trace)?,
    };
    // Host capacity is probed after the measured passes so the probe never
    // competes with them.
    let host = measure::probe_host();
    outcome.set("host.nproc", host.nproc as f64);
    outcome.set("host.parallel_capacity", host.parallel_capacity);
    outcome.set("host.spin_s", host.spin_s);
    Ok(outcome)
}

fn render(reading: Option<&Reading>) -> String {
    match reading {
        Some(Reading::Value(v)) => format!("{v}"),
        Some(Reading::NotReported) => "not reported".into(),
        None => "n/a".into(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: {} failed: {err}", args.workload);
            return ExitCode::from(2);
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("attempted {} failed {}", outcome.attempted, outcome.failed);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        println!(
            "  {name:<26} {:>22} {unit}",
            render(outcome.readings.get(name))
        );
    }
    outcome.problems.dedup();
    for problem in &outcome.problems {
        println!("CHECK FAILED: {problem}");
    }

    // The JSON line carries every metric of the selected set; a metric
    // without a reading (the table above says why) is written as 0.
    let selected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = selected
        .iter()
        .map(|(name, unit)| {
            let value = match outcome.readings.get(name) {
                Some(Reading::Value(v)) if v.is_finite() => *v,
                _ => 0.0,
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
