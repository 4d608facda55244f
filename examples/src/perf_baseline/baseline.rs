//! Machine-readable perf-baseline harness.
//!
//! This module times a **fixed grid** over the paper's planning kernels —
//! Theorem 2 DP table builds (`dp_build`: fresh builds, and one table
//! widened twice through the DP cache), the Lemma 1 greedy with the leaf
//! refinement (`greedy`), the exact branch-and-bound search
//! (`branch_bound`) and Section 4's shared-table batch facade
//! (`plan_many`) — and renders the results as a serializable
//! [`BaselineReport`], written to `BENCH_core.json` by the `perf_baseline`
//! binary. The session service is timed end to end by the separate
//! `perfbench` benchmark, not here. The checked-in file is the repo's perf
//! trajectory: one point per PR that touches a kernel, and [`compare`]
//! diffs two reports entry by entry — the CI perf-gate runs it
//! (`perf_baseline --compare BENCH_core.json`) to fail on gross `dp_build`
//! regressions. Every quick-grid case is also a full-grid case, so a quick
//! run compares with the full trajectory by name.
//!
//! Wall-clock numbers vary across machines; the grid, case names and JSON
//! schema are what stay fixed, so trajectory diffs are apples-to-apples on
//! any single machine (such as the CI runner, which regenerates the quick
//! grid on every push).

use hnow_core::algorithms::dp::DpTable;
use hnow_core::algorithms::greedy::{greedy_with_options, GreedyOptions};
use hnow_core::algorithms::optimal::{search, SearchOptions};
use hnow_core::planner::{find, plan_many_with, DpCache, PlanContext, PlanRequest, Planner};
use hnow_model::{MessageSize, NetParams, TypedMulticast};
use hnow_workload::{standard_class_table, two_class_table, RandomClusterConfig};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;

/// Grid size of the harness run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineMode {
    /// Small grid for CI smoke runs, a subset of the full grid's cases:
    /// well under a second.
    Quick,
    /// The full trajectory grid: a few seconds on a 2-vCPU VM.
    Full,
}

impl BaselineMode {
    fn label(self) -> &'static str {
        match self {
            BaselineMode::Quick => "quick",
            BaselineMode::Full => "full",
        }
    }
}

/// One timed case of the grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineCase {
    /// Stable case identifier, `group/variant/size`.
    pub name: String,
    /// Hot-path family (`dp_build`, `greedy`, `branch_bound`, ...).
    pub group: String,
    /// Problem size: destinations for single-instance cases, total requests
    /// for batch cases.
    pub size: u64,
    /// Timed iterations (after one untimed warm-up).
    pub iters: u64,
    /// Fastest iteration, nanoseconds.
    pub min_ns: u64,
    /// Median iteration, nanoseconds.
    pub median_ns: u64,
    /// Mean iteration, nanoseconds.
    pub mean_ns: u64,
}

/// The serialized baseline artifact (`BENCH_core.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineReport {
    /// Schema version of this artifact; bump when cases are renamed.
    pub schema: u32,
    /// Grid size the report was produced with (`quick` or `full`).
    pub mode: String,
    /// All timed cases, in grid order.
    pub cases: Vec<BaselineCase>,
}

/// Times `routine` for `iters` iterations after one untimed warm-up.
pub fn time_case(
    group: &str,
    name: String,
    size: u64,
    iters: u64,
    mut routine: impl FnMut(),
) -> BaselineCase {
    routine();
    let mut samples: Vec<u64> = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let start = Instant::now();
        routine();
        samples.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    samples.sort_unstable();
    let min_ns = samples.first().copied().unwrap_or(0);
    let median_ns = samples.get(samples.len() / 2).copied().unwrap_or(0);
    let mean_ns = samples.iter().sum::<u64>() / samples.len().max(1) as u64;
    BaselineCase {
        name,
        group: group.to_string(),
        size,
        iters,
        min_ns,
        median_ns,
        mean_ns,
    }
}

/// Runs the whole grid and returns the report.
pub fn run(mode: BaselineMode) -> BaselineReport {
    let mut cases = Vec::new();
    dp_build_cases(mode, &mut cases);
    greedy_cases(mode, &mut cases);
    branch_bound_cases(&mut cases);
    plan_many_cases(&mut cases);
    BaselineReport {
        schema: 1,
        mode: mode.label().to_string(),
        cases,
    }
}

/// DP table builds over the standard workload class tables, and one table
/// widened twice through a `DpCache`. Every quick-grid case is also in the
/// full grid.
fn dp_build_cases(mode: BaselineMode, cases: &mut Vec<BaselineCase>) {
    let net = NetParams::new(2);
    let size = MessageSize::from_kib(4);
    let two = two_class_table();
    let four = standard_class_table();

    // The quick grid keeps k2/64 (~3 ms/build): it is the least noisy case
    // shared with the full grid, which is what the CI perf-gate compares.
    let (k2_sizes, k4_per_class, iters): (&[usize], &[usize], u64) = match mode {
        BaselineMode::Quick => (&[16, 64], &[2], 3),
        BaselineMode::Full => (&[16, 64, 128, 256], &[2, 4], 5),
    };

    for &n in k2_sizes {
        let typed = TypedMulticast::from_classes(&two, size, 0, vec![n / 2, n - n / 2]).unwrap();
        cases.push(time_case(
            "dp_build",
            format!("dp_build/k2/{n}"),
            n as u64,
            iters,
            || {
                black_box(DpTable::build(black_box(&typed), net));
            },
        ));
    }
    for &per_class in k4_per_class {
        let typed = TypedMulticast::from_classes(&four, size, 0, vec![per_class; 4]).unwrap();
        let n = per_class * 4;
        cases.push(time_case(
            "dp_build",
            format!("dp_build/k4/{n}"),
            n as u64,
            iters,
            || {
                black_box(DpTable::build(black_box(&typed), net));
            },
        ));
    }

    // Widening through the DP cache, the same case in both grids: a fresh
    // cache builds one canonical three-class signature (three of the four
    // standard classes, as `dp-optimal` serves them) and widens it twice,
    // up to dims (6, 6, 6).
    let specs = four.specs_at(size).expect("standard classes are valid");
    let chain: Vec<TypedMulticast> = [[2, 2, 2], [4, 4, 4], [6, 6, 6]]
        .into_iter()
        .map(|counts| {
            TypedMulticast::new(specs[..3].to_vec(), 0, counts.to_vec())
                .expect("valid instance")
                .canonical()
        })
        .collect();
    cases.push(time_case(
        "dp_build",
        "dp_build/k3-widen/18".to_string(),
        18,
        10,
        || {
            let cache = DpCache::new();
            for typed in &chain {
                black_box(cache.table_for(black_box(typed), net));
            }
        },
    ));
}

/// Refined greedy planning across cluster sizes. The quick grid keeps
/// `1024`, the smallest full-grid size that plans in more than the
/// [`GATE_MIN_NS`] noise floor.
fn greedy_cases(mode: BaselineMode, cases: &mut Vec<BaselineCase>) {
    let net = NetParams::new(2);
    let size = MessageSize::from_kib(4);
    let four = standard_class_table();
    let (sizes, iters): (&[usize], u64) = match mode {
        BaselineMode::Quick => (&[1024], 5),
        BaselineMode::Full => (&[64, 1024, 4096], 10),
    };
    for &n in sizes {
        let typed = TypedMulticast::from_classes(
            &four,
            size,
            0,
            vec![n / 4, n / 4, n / 4, n - 3 * (n / 4)],
        )
        .unwrap();
        let set = typed.to_multicast_set().unwrap();
        cases.push(time_case(
            "greedy",
            format!("greedy/refined/{n}"),
            n as u64,
            iters,
            || {
                black_box(greedy_with_options(
                    black_box(&set),
                    net,
                    GreedyOptions::REFINED,
                ));
            },
        ));
    }
}

/// The exact branch-and-bound search (E3's reference solver) on one fixed
/// 9-destination instance. The case is the same in both grids, so a quick
/// run compares with the full trajectory by name. Tests pin the search's
/// `nodes_explored`; this case pins its constant factor.
fn branch_bound_cases(cases: &mut Vec<BaselineCase>) {
    let net = NetParams::new(2);
    let set = RandomClusterConfig {
        destinations: 9,
        min_send: 5,
        max_send: 40,
        min_ratio: 1.05,
        max_ratio: 1.85,
        random_source: true,
    }
    .generate(0xBADCAFE)
    .expect("valid instance");
    let options = SearchOptions {
        node_budget: 5_000_000,
        ..SearchOptions::default()
    };
    cases.push(time_case(
        "branch_bound",
        "branch_bound/exact/9".to_string(),
        9,
        10,
        || {
            black_box(search(black_box(&set), net, options));
        },
    ));
}

/// Batched planning through the `plan_many` facade with a shared DP cache:
/// every sub-multicast of up to 12 nodes per class over one two-class
/// cluster (168 requests), planned by the greedy and exact-DP planners —
/// the paper's precompute-once, answer-everything usage. The same case in
/// both grids.
fn plan_many_cases(cases: &mut Vec<BaselineCase>) {
    let net = NetParams::new(1);
    let size = MessageSize::from_kib(4);
    let two = two_class_table();
    let mut requests = Vec::new();
    for a in 0..=12 {
        for b in 0..=12 {
            if a + b == 0 {
                continue;
            }
            let typed = TypedMulticast::from_classes(&two, size, 0, vec![a, b]).unwrap();
            requests.push(PlanRequest::new(typed.to_multicast_set().unwrap(), net).with_seed(7));
        }
    }
    let planners: Vec<&dyn Planner> = ["greedy+leaf", "dp-optimal"]
        .iter()
        .map(|name| find(name).expect("registry planner"))
        .collect();
    let batch = requests.len() as u64;
    cases.push(time_case(
        "plan_many",
        format!("plan_many/greedy+dp/{batch}"),
        batch,
        5,
        || {
            // A fresh context per iteration: the measurement includes the
            // one shared table build plus every cache-served request.
            let ctx = PlanContext::new();
            black_box(plan_many_with(&planners, black_box(&requests), &ctx));
        },
    ));
}

/// How one baseline entry moved between two reports.
#[derive(Debug, Clone, Serialize)]
pub struct CaseDelta {
    /// Case name shared by both reports (or present in only one).
    pub name: String,
    /// Minimum-iteration time in the old report, if present.
    pub old_min_ns: Option<u64>,
    /// Minimum-iteration time in the new report, if present.
    pub new_min_ns: Option<u64>,
    /// `new / old` (minimum times); `None` unless both sides are present
    /// and the old time is non-zero.
    pub ratio: Option<f64>,
}

/// The result of comparing two baseline reports.
#[derive(Debug, Clone, Serialize)]
pub struct BaselineComparison {
    /// One delta per case name appearing in either report, in new-report
    /// order (cases only in the old report follow at the end).
    pub deltas: Vec<CaseDelta>,
    /// Human-readable descriptions of every gate violation.
    pub regressions: Vec<String>,
}

impl BaselineComparison {
    /// Whether the gate passed (no regression beyond the factor).
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Old-side minimum below which a case informs but never gates:
/// microsecond-scale entries are dominated by machine differences and
/// shared-runner jitter, so gating them would make CI flaky with no code
/// change. 100 µs keeps the millisecond-scale DP kernels (the cases a
/// regression would actually show up in) under the gate.
pub const GATE_MIN_NS: u64 = 100_000;

/// Compares `new` against `old`, gating on the cases of `gate_group`: any
/// such case present in both reports, with an old minimum of at least
/// [`GATE_MIN_NS`], whose minimum time grew by more than `gate_factor`× is
/// a regression. The minimum over iterations is used because it is the most
/// noise-robust statistic a small sample offers; `gate_factor` should stay
/// generous (the CI gate uses 3×) since the two reports may come from
/// differently loaded machines.
pub fn compare(
    old: &BaselineReport,
    new: &BaselineReport,
    gate_group: &str,
    gate_factor: f64,
) -> BaselineComparison {
    let mut deltas = Vec::new();
    let mut regressions = Vec::new();
    let old_case = |name: &str| old.cases.iter().find(|c| c.name == name);
    for case in &new.cases {
        let old_min = old_case(&case.name).map(|c| c.min_ns);
        let ratio = old_min
            .filter(|&m| m > 0)
            .map(|m| case.min_ns as f64 / m as f64);
        if case.group == gate_group && old_min.is_some_and(|m| m >= GATE_MIN_NS) {
            if let Some(r) = ratio {
                if r > gate_factor {
                    regressions.push(format!(
                        "{}: min {} ns -> {} ns ({:.2}x > {:.2}x budget)",
                        case.name,
                        old_min.unwrap_or(0),
                        case.min_ns,
                        r,
                        gate_factor
                    ));
                }
            }
        }
        deltas.push(CaseDelta {
            name: case.name.clone(),
            old_min_ns: old_min,
            new_min_ns: Some(case.min_ns),
            ratio,
        });
    }
    for case in &old.cases {
        if !new.cases.iter().any(|c| c.name == case.name) {
            deltas.push(CaseDelta {
                name: case.name.clone(),
                old_min_ns: Some(case.min_ns),
                new_min_ns: None,
                ratio: None,
            });
        }
    }
    BaselineComparison {
        deltas,
        regressions,
    }
}

/// Renders a comparison as an aligned text table, one line per case.
pub fn render_comparison(comparison: &BaselineComparison) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34} {:>14} {:>14} {:>8}\n",
        "case", "old min (ns)", "new min (ns)", "ratio"
    ));
    for delta in &comparison.deltas {
        let fmt_side = |v: Option<u64>| match v {
            Some(v) => v.to_string(),
            None => "-".to_string(),
        };
        let ratio = match delta.ratio {
            Some(r) => format!("{r:.2}x"),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<34} {:>14} {:>14} {:>8}\n",
            delta.name,
            fmt_side(delta.old_min_ns),
            fmt_side(delta.new_min_ns),
            ratio
        ));
    }
    for regression in &comparison.regressions {
        out.push_str(&format!("REGRESSION: {regression}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_produces_the_expected_cases() {
        let report = run(BaselineMode::Quick);
        assert_eq!(report.schema, 1);
        assert_eq!(report.mode, "quick");
        let names: Vec<&str> = report.cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "dp_build/k2/16",
                "dp_build/k2/64",
                "dp_build/k4/8",
                "dp_build/k3-widen/18",
                "greedy/refined/1024",
                "branch_bound/exact/9",
                "plan_many/greedy+dp/168",
            ]
        );
        for case in &report.cases {
            assert!(case.iters > 0);
            assert!(case.min_ns <= case.median_ns);
            assert!(case.min_ns > 0, "{} measured nothing", case.name);
        }
    }

    #[test]
    fn report_serializes_to_json() {
        let report = run(BaselineMode::Quick);
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"schema\""));
        assert!(json.contains("dp_build/k2/16"));
        assert!(json.contains("plan_many/greedy+dp/168"));
        // The artifact round-trips, which is what `--compare` relies on.
        let back: BaselineReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cases.len(), report.cases.len());
        assert_eq!(back.cases[0].min_ns, report.cases[0].min_ns);
    }

    fn synthetic_report(entries: &[(&str, &str, u64)]) -> BaselineReport {
        BaselineReport {
            schema: 1,
            mode: "quick".to_string(),
            cases: entries
                .iter()
                .map(|&(name, group, min_ns)| BaselineCase {
                    name: name.to_string(),
                    group: group.to_string(),
                    size: 1,
                    iters: 1,
                    min_ns,
                    median_ns: min_ns,
                    mean_ns: min_ns,
                })
                .collect(),
        }
    }

    #[test]
    fn comparison_gates_only_the_requested_group() {
        let old = synthetic_report(&[
            ("dp_build/k2/64", "dp_build", 4 * GATE_MIN_NS),
            ("dp_build/k2/16", "dp_build", 100),
            ("greedy/refined/256", "greedy", 4 * GATE_MIN_NS),
            ("dp_build/gone", "dp_build", 50),
        ]);
        let new = synthetic_report(&[
            ("dp_build/k2/64", "dp_build", 10 * GATE_MIN_NS),
            ("dp_build/k2/16", "dp_build", 10_000),
            ("greedy/refined/256", "greedy", 400 * GATE_MIN_NS),
            ("traffic_soak/new/64", "traffic_soak", 9),
        ]);
        // 2.5x on the gated group's above-floor entry with a 3x budget:
        // passes. The 100x greedy blow-up is outside the gated group, and
        // the 100x on the microsecond-scale dp_build/k2/16 is under the
        // noise floor — both only inform.
        let ok = compare(&old, &new, "dp_build", 3.0);
        assert!(ok.passed(), "{:?}", ok.regressions);
        assert_eq!(ok.deltas.len(), 5, "union of both case sets");
        let gone = ok
            .deltas
            .iter()
            .find(|d| d.name == "dp_build/gone")
            .unwrap();
        assert_eq!(gone.new_min_ns, None);
        let added = ok
            .deltas
            .iter()
            .find(|d| d.name == "traffic_soak/new/64")
            .unwrap();
        assert_eq!(added.old_min_ns, None);
        assert_eq!(added.ratio, None);

        // A tighter budget trips the gate, on the above-floor entry only.
        let bad = compare(&old, &new, "dp_build", 2.0);
        assert!(!bad.passed());
        assert_eq!(bad.regressions.len(), 1);
        assert!(bad.regressions[0].contains("dp_build/k2/64"));
        let rendered = render_comparison(&bad);
        assert!(rendered.contains("REGRESSION"));
        assert!(rendered.contains("2.50x"));
    }

    #[test]
    fn comparing_a_report_against_itself_passes() {
        let report = run(BaselineMode::Quick);
        let comparison = compare(&report, &report, "dp_build", 3.0);
        assert!(comparison.passed());
        assert!(comparison
            .deltas
            .iter()
            .all(|d| d.ratio.is_none() || (d.ratio.unwrap() - 1.0).abs() < 1e-12));
    }
}
