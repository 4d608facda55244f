//! Experiment E3 — empirical validation of the Theorem 1 bound.
//!
//! Theorem 1: `GREEDY_R < 2·(α_max/α_min)·OPT_R + β`. This experiment draws
//! random instances with receive-send ratios inside the published 1.05–1.85
//! band, computes the exact optimum (branch-and-bound for small instances),
//! and reports the observed ratio `GREEDY_R / OPT_R` alongside the bound.
//! The expected shape: the bound always holds, and the observed ratios are
//! far below it (typically under 1.3), which is the empirical argument the
//! greedy algorithm's practicality rests on.

use crate::table::Table;
use hnow_core::bounds::theorem1_bound;
use hnow_core::planner::{self, PlanRequest};
use hnow_model::Instance;
use hnow_workload::RandomClusterConfig;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// One measured instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundSample {
    /// Number of destinations.
    pub destinations: usize,
    /// Seed that generated the instance.
    pub seed: u64,
    /// Greedy reception completion time.
    pub greedy: u64,
    /// Leaf-refined greedy completion time.
    pub greedy_refined: u64,
    /// Exact optimal completion time.
    pub optimal: u64,
    /// Whether the optimum was proven (node budget not exhausted).
    pub proven: bool,
    /// `greedy / optimal`.
    pub ratio: f64,
    /// The Theorem 1 right-hand side for this instance.
    pub bound: f64,
    /// Whether `greedy < bound` (Theorem 1) held.
    pub bound_holds: bool,
}

/// Configuration of the bound-validation experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundCheckConfig {
    /// Destination counts to sample.
    pub sizes: [usize; 3],
    /// Instances per size.
    pub samples_per_size: usize,
    /// Network latency.
    pub latency: u64,
    /// Base seed.
    pub seed: u64,
}

impl Default for BoundCheckConfig {
    fn default() -> Self {
        BoundCheckConfig {
            sizes: [5, 7, 9],
            samples_per_size: 20,
            latency: 2,
            seed: 0xB0B,
        }
    }
}

fn measure(instance: &Instance, destinations: usize, seed: u64) -> BoundSample {
    let request = PlanRequest::new(instance.set.clone(), instance.net)
        .with_node_budget(5_000_000)
        .with_seed(seed);
    let plan_with = |name: &str| {
        planner::find(name)
            .unwrap_or_else(|| panic!("planner {name} is registered"))
            .plan(&request)
            .expect("planning a valid instance succeeds")
    };
    let greedy = plan_with("greedy").timing.reception_completion();
    let refined = plan_with("greedy+leaf").timing.reception_completion();
    let exact = plan_with("branch-bound");
    let optimal = exact.timing.reception_completion();
    let bound = theorem1_bound(&instance.set, optimal);
    BoundSample {
        destinations,
        seed,
        greedy: greedy.raw(),
        greedy_refined: refined.raw(),
        optimal: optimal.raw(),
        proven: exact.proven_optimal,
        ratio: greedy.as_f64() / optimal.as_f64().max(1.0),
        bound,
        bound_holds: greedy.as_f64() < bound,
    }
}

/// Runs the experiment, parallelising over instances.
pub fn run(config: &BoundCheckConfig) -> Vec<BoundSample> {
    let mut jobs = Vec::new();
    for &n in &config.sizes {
        for i in 0..config.samples_per_size {
            jobs.push((n, config.seed ^ ((n as u64) << 32) ^ i as u64));
        }
    }
    jobs.par_iter()
        .map(|&(n, seed)| {
            let cfg = RandomClusterConfig {
                destinations: n,
                min_send: 5,
                max_send: 40,
                min_ratio: 1.05,
                max_ratio: 1.85,
                random_source: true,
            };
            let set = cfg
                .generate(seed)
                .expect("generator produces valid instances");
            let instance = Instance::new(set, hnow_model::NetParams::new(config.latency));
            measure(&instance, n, seed)
        })
        .collect()
}

/// Summarises samples into the experiment table (one row per size).
pub fn table(samples: &[BoundSample]) -> Table {
    let mut t = Table::new(
        "E3 / Theorem 1 — greedy vs exact optimum (ratios within the published 1.05–1.85 band)",
        &[
            "destinations",
            "samples",
            "mean ratio",
            "max ratio",
            "mean bound/OPT",
            "violations",
        ],
    );
    let mut sizes: Vec<usize> = samples.iter().map(|s| s.destinations).collect();
    sizes.sort_unstable();
    sizes.dedup();
    for n in sizes {
        let group: Vec<&BoundSample> = samples.iter().filter(|s| s.destinations == n).collect();
        let count = group.len() as f64;
        let mean_ratio = group.iter().map(|s| s.ratio).sum::<f64>() / count;
        let max_ratio = group.iter().map(|s| s.ratio).fold(0.0, f64::max);
        let mean_bound = group
            .iter()
            .map(|s| s.bound / s.optimal.max(1) as f64)
            .sum::<f64>()
            / count;
        let violations = group.iter().filter(|s| !s.bound_holds).count();
        t.push_row(vec![
            n.into(),
            group.len().into(),
            mean_ratio.into(),
            max_ratio.into(),
            mean_bound.into(),
            violations.into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_holds_on_a_small_batch() {
        let config = BoundCheckConfig {
            sizes: [4, 5, 6],
            samples_per_size: 4,
            latency: 1,
            seed: 77,
        };
        let samples = run(&config);
        assert_eq!(samples.len(), 12);
        for s in &samples {
            assert!(s.proven, "small instances must be solved exactly");
            assert!(s.bound_holds, "Theorem 1 violated: {s:?}");
            assert!(s.ratio >= 1.0 - 1e-9);
            assert!(s.greedy_refined <= s.greedy);
            assert!(s.optimal <= s.greedy_refined);
        }
    }

    #[test]
    fn table_has_one_row_per_size() {
        let config = BoundCheckConfig {
            sizes: [4, 5, 6],
            samples_per_size: 2,
            latency: 1,
            seed: 3,
        };
        let t = table(&run(&config));
        assert_eq!(t.rows.len(), 3);
    }
}
