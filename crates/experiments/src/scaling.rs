//! Experiment E2 — running-time scaling of the algorithms.
//!
//! Lemma 1 claims the greedy algorithm runs in `O(n log n)`; Theorem 2
//! claims the dynamic program runs in `O(n^{2k})`. The `perf_baseline`
//! binary's `greedy` and `dp_build` groups time this precisely; this module
//! takes the same measurements with coarse wall-clock timers so the scaling
//! table comes out of the experiment report itself.

use crate::table::Table;
use hnow_core::algorithms::dp::DpTable;
use hnow_core::algorithms::greedy::greedy_schedule;
use hnow_model::{MessageSize, NetParams, TypedMulticast};
use hnow_workload::{two_class_table, RandomClusterConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One timing measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingSample {
    /// Algorithm name.
    pub algorithm: String,
    /// Problem size (destinations).
    pub n: usize,
    /// Wall-clock time in microseconds.
    pub micros: u128,
    /// Normalised cost: `micros / (n log2 n)` for greedy, `micros / n²` for
    /// the two-class DP. Flat values across sizes support the claimed
    /// asymptotics.
    pub normalised: f64,
}

/// Times the greedy algorithm on random clusters of the given sizes.
pub fn greedy_scaling(sizes: &[usize], seed: u64) -> Vec<ScalingSample> {
    let net = NetParams::new(2);
    sizes
        .iter()
        .map(|&n| {
            let set = RandomClusterConfig {
                destinations: n,
                ..RandomClusterConfig::default()
            }
            .generate(seed)
            .expect("valid instance");
            let start = Instant::now();
            let tree = greedy_schedule(&set, net);
            let micros = start.elapsed().as_micros().max(1);
            assert!(tree.is_complete());
            let denom = (n.max(2) as f64) * (n.max(2) as f64).log2();
            ScalingSample {
                algorithm: "greedy".to_string(),
                n,
                micros,
                normalised: micros as f64 / denom,
            }
        })
        .collect()
}

/// Times the two-class dynamic program on balanced clusters of the given
/// sizes.
pub fn dp_scaling(sizes: &[usize], message_kib: u64) -> Vec<ScalingSample> {
    let net = NetParams::new(2);
    let table = two_class_table();
    sizes
        .iter()
        .map(|&n| {
            let typed = TypedMulticast::from_classes(
                &table,
                MessageSize::from_kib(message_kib),
                0,
                vec![n / 2, n - n / 2],
            )
            .expect("valid typed instance");
            let start = Instant::now();
            let dp = DpTable::build(&typed, net);
            let micros = start.elapsed().as_micros().max(1);
            assert!(dp.optimum().raw() > 0);
            // Two classes: the table has Θ(n²) states and each state scans
            // O(n²) splits, so the predicted cost is Θ(n⁴); normalising by n²
            // (states) keeps the numbers readable while still exposing
            // super-quadratic growth if the implementation regressed.
            ScalingSample {
                algorithm: "dp (k=2)".to_string(),
                n,
                micros,
                normalised: micros as f64 / (n.max(1) as f64).powi(2),
            }
        })
        .collect()
}

/// Renders scaling samples as a table.
pub fn table(samples: &[ScalingSample]) -> Table {
    let mut t = Table::new(
        "E2 / running-time scaling (coarse wall-clock; see perf_baseline's dp_build/greedy groups for precise numbers)",
        &["algorithm", "n", "time (µs)", "normalised"],
    );
    for s in samples {
        t.push_row(vec![
            s.algorithm.clone().into(),
            s.n.into(),
            (s.micros as u64).into(),
            s.normalised.into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_scaling_runs() {
        let samples = greedy_scaling(&[64, 256, 1024], 3);
        assert_eq!(samples.len(), 3);
        for s in &samples {
            assert!(s.micros >= 1);
            assert!(s.normalised > 0.0);
        }
    }

    #[test]
    fn dp_scaling_runs() {
        let samples = dp_scaling(&[4, 8, 16], 4);
        assert_eq!(samples.len(), 3);
        assert_eq!(table(&samples).rows.len(), 3);
    }
}
