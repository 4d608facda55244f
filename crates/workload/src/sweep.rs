//! Parameter sweeps.
//!
//! Experiments report series over a swept parameter. A [`Sweep`] is simply
//! a named list of points, each of which materialises into a multicast
//! instance; the experiment harness maps a set of strategies over every
//! point. [`Sweep::over_slow_fraction`] builds the series the experiments
//! use: the slow-node fraction of a bimodal cluster.

use crate::error::WorkloadError;
use crate::generator::bimodal_cluster;
use hnow_model::{Instance, NetParams};
use serde::{Deserialize, Serialize};

/// One point of a sweep: a bimodal cluster of `destinations` destinations,
/// a `slow_fraction` of them slow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The fraction of slow destinations: the swept parameter's value.
    pub slow_fraction: f64,
    /// Destinations of the cluster.
    pub destinations: usize,
    /// Network latency.
    pub latency: u64,
    /// Seed.
    pub seed: u64,
}

impl SweepPoint {
    /// Materialises the point.
    pub fn instance(&self) -> Result<Instance, WorkloadError> {
        let set = bimodal_cluster(self.destinations, self.slow_fraction, self.seed)?;
        Ok(Instance::new(set, NetParams::new(self.latency)))
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
                .map(|(i, &slow_fraction)| SweepPoint {
                    slow_fraction,
                    destinations,
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
