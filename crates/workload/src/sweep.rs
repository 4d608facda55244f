//! Parameter sweeps.
//!
//! Experiments report series over a swept parameter. A [`Sweep`] is simply
//! a named list of points, each of which materialises into a multicast
//! instance; the experiment harness maps a set of strategies over every
//! point. [`Sweep::over_slow_fraction`] builds the series the experiments
//! use: the slow-node fraction of a bimodal cluster.

use crate::error::WorkloadError;
use crate::generator::{bimodal_cluster, RandomClusterConfig};
use hnow_model::{Instance, NetParams};
use serde::{Deserialize, Serialize};

/// One point of a sweep: a label (the x-value) plus the instance generator
/// inputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The swept parameter's value, as a number (for plotting).
    pub x: f64,
    /// Generator configuration for this point.
    pub config: RandomClusterConfig,
    /// Slow fraction when the sweep uses the bimodal generator (`None` for
    /// the band generator).
    pub bimodal_slow_fraction: Option<f64>,
    /// Network latency.
    pub latency: u64,
    /// Seed.
    pub seed: u64,
}

impl SweepPoint {
    /// Materialises the point.
    pub fn instance(&self) -> Result<Instance, WorkloadError> {
        let net = NetParams::new(self.latency);
        let set = match self.bimodal_slow_fraction {
            Some(frac) => bimodal_cluster(self.config.destinations, frac, self.seed)?,
            None => self.config.generate(self.seed)?,
        };
        Ok(Instance::new(set, net))
    }
}

/// A named series of sweep points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sweep {
    /// Name of the swept parameter (e.g. "slow fraction").
    pub parameter: String,
    /// The points, in presentation order.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// Sweep over the fraction of slow nodes in a bimodal cluster of fixed
    /// size.
    pub fn over_slow_fraction(
        destinations: usize,
        fractions: &[f64],
        latency: u64,
        seed: u64,
    ) -> Sweep {
        Sweep {
            parameter: "slow fraction".to_string(),
            points: fractions
                .iter()
                .enumerate()
                .map(|(i, &f)| SweepPoint {
                    x: f,
                    config: RandomClusterConfig {
                        destinations,
                        ..RandomClusterConfig::default()
                    },
                    bimodal_slow_fraction: Some(f),
                    latency,
                    seed: seed ^ (i as u64).wrapping_mul(0x1234_5678_9ABC),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_fraction_sweep_materialises() {
        let sweep = Sweep::over_slow_fraction(12, &[0.0, 0.5, 1.0], 2, 3);
        for point in &sweep.points {
            assert_eq!(point.instance().unwrap().num_destinations(), 12);
        }
        assert_eq!(sweep.parameter, "slow fraction");
    }

    #[test]
    fn sweeps_serialize() {
        let sweep = Sweep::over_slow_fraction(4, &[0.0, 0.5], 1, 9);
        let json = serde_json::to_string(&sweep).unwrap();
        let back: Sweep = serde_json::from_str(&json).unwrap();
        assert_eq!(sweep, back);
    }
}
