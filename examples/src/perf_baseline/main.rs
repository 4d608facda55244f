//! Runs the JSON perf-baseline harness and writes `BENCH_core.json`.
//!
//! Usage:
//!
//! ```text
//! perf_baseline [--quick] [--out PATH] [--compare OLD.json] [--gate-factor F]
//! ```
//!
//! `--quick` runs the small CI smoke grid (well under a second), a subset of
//! the full trajectory grid's cases; the default is the full grid. `--out` overrides the output path (default
//! `BENCH_core.json` in the current directory). The report is also
//! summarised on stdout, one line per case.
//!
//! `--compare OLD.json` additionally diffs the fresh report against a
//! previously written one, prints a per-entry delta table, and exits
//! non-zero if any `dp_build` entry regressed by more than the gate factor
//! (default 3×, override with `--gate-factor`). Entries present on only one
//! side inform but never gate, so the quick CI grid can be compared against
//! a checked-in full-grid trajectory point. This is the engine of the CI
//! `perf-gate` job and works identically for local A/B runs.

mod baseline;

use baseline::{compare, render_comparison, run, BaselineMode, BaselineReport};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut mode = BaselineMode::Full;
    let mut out = String::from("BENCH_core.json");
    let mut compare_path: Option<String> = None;
    let mut gate_factor = 3.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => mode = BaselineMode::Quick,
            "--full" => mode = BaselineMode::Full,
            "--out" => match args.next() {
                Some(path) => out = path,
                None => {
                    eprintln!("--out requires a path argument");
                    return ExitCode::FAILURE;
                }
            },
            "--compare" => match args.next() {
                Some(path) => compare_path = Some(path),
                None => {
                    eprintln!("--compare requires a path argument");
                    return ExitCode::FAILURE;
                }
            },
            "--gate-factor" => match args.next().and_then(|f| f.parse::<f64>().ok()) {
                Some(f) if f > 0.0 => gate_factor = f,
                _ => {
                    eprintln!("--gate-factor requires a positive number");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: perf_baseline [--quick|--full] [--out PATH] \
                     [--compare OLD.json] [--gate-factor F]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let report = run(mode);
    for case in &report.cases {
        println!(
            "{:<28} size {:>5}  min {:>12} ns  median {:>12} ns  mean {:>12} ns",
            case.name, case.size, case.min_ns, case.median_ns, case.mean_ns
        );
    }
    let json = match serde_json::to_string_pretty(&report) {
        Ok(json) => json,
        Err(err) => {
            eprintln!("failed to serialize report: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(err) = std::fs::write(&out, json + "\n") {
        eprintln!("failed to write {out}: {err}");
        return ExitCode::FAILURE;
    }
    println!("wrote {} cases to {out}", report.cases.len());

    if let Some(old_path) = compare_path {
        let old: BaselineReport = match std::fs::read_to_string(&old_path)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
        {
            Ok(old) => old,
            Err(err) => {
                eprintln!("failed to load {old_path}: {err}");
                return ExitCode::FAILURE;
            }
        };
        let comparison = compare(&old, &report, "dp_build", gate_factor);
        println!("\ncomparison against {old_path} (gate: dp_build > {gate_factor}x):");
        print!("{}", render_comparison(&comparison));
        if !comparison.passed() {
            eprintln!(
                "perf gate FAILED: {} regression(s)",
                comparison.regressions.len()
            );
            return ExitCode::FAILURE;
        }
        println!("perf gate passed");
    }
    ExitCode::SUCCESS
}
