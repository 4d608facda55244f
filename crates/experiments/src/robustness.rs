//! Experiment E9 — execution on the simulator and robustness to overhead
//! perturbation.
//!
//! Two questions: (i) does the discrete-event execution of every schedule
//! agree with the closed-form times (model-fidelity check — the stand-in for
//! the paper's testbed validation of the model), and (ii) how gracefully do
//! the strategies degrade when the *actual* overheads at run time deviate
//! from the nominal values the schedule was planned with? Perturbed replays
//! go through the simulator crate's unified occupancy kernel
//! ([`PerturbConfig::replay`]), the same loop that executes traffic-engine
//! and sharded-cluster sessions.

use crate::comparison::resolve_planners;
use crate::table::Table;
use hnow_core::planner::PlanRequest;
use hnow_model::Instance;
use hnow_sim::{check_against_analytic, PerturbConfig};
use hnow_workload::RandomClusterConfig;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Robustness measurement for one strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessSample {
    /// Strategy name.
    pub strategy: String,
    /// Nominal (planned) completion time.
    pub nominal: u64,
    /// Mean completion over perturbed executions.
    pub perturbed_mean: f64,
    /// Worst completion over perturbed executions.
    pub perturbed_max: u64,
    /// Whether the simulator matched the analytic times on the nominal run.
    pub matches_analytic: bool,
}

/// Configuration of the robustness experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobustnessConfig {
    /// Number of destinations.
    pub destinations: usize,
    /// Network latency.
    pub latency: u64,
    /// Relative jitter applied to every overhead.
    pub jitter: f64,
    /// Number of perturbed executions per strategy.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            destinations: 32,
            latency: 3,
            jitter: 0.25,
            trials: 20,
            seed: 0x5EED,
        }
    }
}

/// Registry names of the planners evaluated by default.
pub const DEFAULT_PLANNERS: [&str; 5] = ["greedy", "greedy+leaf", "fnf", "binomial", "star"];

/// Runs the robustness experiment.
pub fn run(config: &RobustnessConfig) -> Vec<RobustnessSample> {
    let cluster = RandomClusterConfig {
        destinations: config.destinations,
        ..RandomClusterConfig::default()
    };
    let set = cluster.generate(config.seed).expect("valid instance");
    let net = hnow_model::NetParams::new(config.latency);
    let instance = Instance::new(set, net);
    let request = PlanRequest::new(instance.set.clone(), instance.net).with_seed(config.seed);

    resolve_planners(&DEFAULT_PLANNERS)
        .par_iter()
        .map(|planner| {
            let plan = planner
                .plan(&request)
                .expect("planning a valid instance succeeds");
            let matches = check_against_analytic(&plan.tree, &instance.set, instance.net)
                .map(|m| m.is_empty())
                .unwrap_or(false);
            let nominal = plan.timing.reception_completion();
            let mut total = 0u64;
            let mut worst = 0u64;
            for trial in 0..config.trials {
                let perturb = PerturbConfig::new(config.jitter, config.seed ^ (trial as u64 + 1));
                let (_, reception) = perturb.replay(&plan.tree, &instance.set, instance.net);
                total += reception.raw();
                worst = worst.max(reception.raw());
            }
            RobustnessSample {
                strategy: plan.planner.to_string(),
                nominal: nominal.raw(),
                perturbed_mean: total as f64 / config.trials.max(1) as f64,
                perturbed_max: worst,
                matches_analytic: matches,
            }
        })
        .collect()
}

/// Renders the experiment table.
pub fn table(samples: &[RobustnessSample]) -> Table {
    let mut t = Table::new(
        "E9 / simulator fidelity and robustness to ±jitter in the overheads",
        &[
            "strategy",
            "nominal",
            "perturbed mean",
            "perturbed max",
            "sim matches analytic",
        ],
    );
    for s in samples {
        t.push_row(vec![
            s.strategy.clone().into(),
            s.nominal.into(),
            s.perturbed_mean.into(),
            s.perturbed_max.into(),
            if s.matches_analytic { "yes" } else { "NO" }.into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulator_matches_and_perturbation_stays_bounded() {
        let config = RobustnessConfig {
            destinations: 12,
            latency: 2,
            jitter: 0.2,
            trials: 5,
            seed: 31,
        };
        let samples = run(&config);
        assert_eq!(samples.len(), DEFAULT_PLANNERS.len());
        for s in &samples {
            assert!(s.matches_analytic, "{}", s.strategy);
            // With ±20% jitter the completion cannot exceed the nominal value
            // by more than ~20% plus integer rounding slack.
            assert!(
                (s.perturbed_max as f64)
                    <= s.nominal as f64 * 1.2 + 2.0 * config.destinations as f64,
                "{}: perturbed {} vs nominal {}",
                s.strategy,
                s.perturbed_max,
                s.nominal
            );
            assert!(s.perturbed_mean > 0.0);
        }
        let greedy = samples
            .iter()
            .find(|s| s.strategy == "greedy+leaf")
            .unwrap();
        let star = samples.iter().find(|s| s.strategy == "star").unwrap();
        assert!(greedy.nominal <= star.nominal);
        assert_eq!(table(&samples).rows.len(), samples.len());
    }
}
