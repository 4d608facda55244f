//! Experiment E7 — the leaf-delivery refinement (end of Section 3).
//!
//! The greedy algorithm hands the message to fast nodes first, which is
//! right for forwarding nodes but wrong for leaves: a leaf with a large
//! receiving overhead should be served early. The paper proposes reversing
//! the leaf delivery order after greedy finishes and notes it "will not
//! increase the reception completion time and may decrease it". This
//! experiment quantifies the improvement across cluster compositions.

use crate::table::Table;
use hnow_core::algorithms::greedy::{greedy_with_options, GreedyOptions};
use hnow_core::schedule::reception_completion;
use hnow_model::Instance;
use hnow_workload::Sweep;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Improvement measurement on one instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RefinementSample {
    /// Swept parameter value.
    pub x: f64,
    /// Number of destinations.
    pub destinations: usize,
    /// Plain greedy completion time.
    pub plain: u64,
    /// Leaf-refined greedy completion time.
    pub refined: u64,
}

impl RefinementSample {
    /// Relative improvement of the refinement (0 when it changes nothing).
    pub fn improvement(&self) -> f64 {
        if self.plain == 0 {
            0.0
        } else {
            1.0 - self.refined as f64 / self.plain as f64
        }
    }
}

/// Runs the refinement experiment over a sweep.
pub fn run(sweep: &Sweep) -> Vec<RefinementSample> {
    sweep
        .points
        .par_iter()
        .map(|point| {
            let Instance { set, net } = point.instance().expect("sweep points are valid");
            let plain = reception_completion(
                &greedy_with_options(&set, net, GreedyOptions::PLAIN),
                &set,
                net,
            )
            .unwrap();
            let refined = reception_completion(
                &greedy_with_options(&set, net, GreedyOptions::REFINED),
                &set,
                net,
            )
            .unwrap();
            RefinementSample {
                x: point.slow_fraction,
                destinations: set.num_destinations(),
                plain: plain.raw(),
                refined: refined.raw(),
            }
        })
        .collect()
}

/// Default configuration: sweep the slow-node fraction at a fixed cluster
/// size.
pub fn default_samples(destinations: usize, seed: u64) -> Vec<RefinementSample> {
    run(&Sweep::over_slow_fraction(
        destinations,
        &[0.0, 0.1, 0.25, 0.5, 0.75, 1.0],
        3,
        seed,
    ))
}

/// Renders the experiment table.
pub fn table(samples: &[RefinementSample]) -> Table {
    let mut t = Table::new(
        "E7 / leaf refinement — plain vs refined greedy",
        &["slow fraction", "n", "greedy", "greedy+leaf", "improvement"],
    );
    for s in samples {
        t.push_row(vec![
            s.x.into(),
            s.destinations.into(),
            s.plain.into(),
            s.refined.into(),
            s.improvement().into(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refinement_never_hurts_across_the_sweep() {
        let samples = default_samples(20, 17);
        assert_eq!(samples.len(), 6);
        for s in &samples {
            assert!(s.refined <= s.plain, "{s:?}");
            assert!(s.improvement() >= 0.0);
            assert!(s.improvement() < 1.0);
        }
        assert_eq!(table(&samples).rows.len(), 6);
    }

    #[test]
    fn figure1_improvement_is_twenty_percent() {
        let (set, net) = crate::figure1::figure1_instance();
        let plain = reception_completion(
            &greedy_with_options(&set, net, GreedyOptions::PLAIN),
            &set,
            net,
        )
        .unwrap();
        let refined = reception_completion(
            &greedy_with_options(&set, net, GreedyOptions::REFINED),
            &set,
            net,
        )
        .unwrap();
        let sample = RefinementSample {
            x: 0.0,
            destinations: 4,
            plain: plain.raw(),
            refined: refined.raw(),
        };
        assert_eq!(sample.plain, 10);
        assert_eq!(sample.refined, 8);
        assert!((sample.improvement() - 0.2).abs() < 1e-9);
    }
}
