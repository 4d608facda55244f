//! Run-time overhead perturbation.
//!
//! The receive-send model's parameters are measured averages; on a real
//! cluster the per-message overheads fluctuate with protocol behaviour,
//! cache state and operating-system noise. Experiment E9 executes planned
//! schedules with *perturbed* actual overheads to measure how robust the
//! different scheduling strategies are to this modelling error. This is the
//! synthetic stand-in for the testbed validation of Banikazemi et al.
//! (documented in DESIGN.md §2).
//!
//! Perturbed replays run through the crate's unified occupancy kernel
//! ([`kernel_replay`]) — the same event loop behind the traffic engine and
//! the sharded cluster — so a schedule replayed here obeys exactly the
//! tie-break and occupancy semantics every other surface of the crate
//! reports, and a zero-jitter replay reproduces the analytic
//! [`evaluate`](hnow_core::schedule::evaluate) times (pinned by a parity
//! test below).

use crate::kernel;
use crate::sessions::{children_lists, SessionRuntime};
use hnow_core::ScheduleTree;
use hnow_model::{MulticastSet, NetParams, NodeId, NodeSpec, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of a multiplicative overhead perturbation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerturbConfig {
    /// Maximum relative deviation, e.g. `0.25` means every overhead is
    /// independently scaled by a factor drawn uniformly from
    /// `[1 − 0.25, 1 + 0.25]`.
    pub relative_jitter: f64,
    /// RNG seed, so perturbed runs are reproducible.
    pub seed: u64,
}

impl PerturbConfig {
    /// Creates a configuration with the given jitter and seed.
    pub fn new(relative_jitter: f64, seed: u64) -> Self {
        PerturbConfig {
            relative_jitter: relative_jitter.max(0.0),
            seed,
        }
    }

    /// Draws perturbed per-node overheads for every participant of `set`
    /// (indexed by node id, source first). Sending overheads stay at least 1
    /// so the perturbed values remain valid model parameters.
    pub fn perturb(&self, set: &MulticastSet) -> Vec<NodeSpec> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..set.num_nodes())
            .map(|i| {
                let spec = set.spec(NodeId(i));
                let send = self.scale(spec.send().raw(), &mut rng).max(1);
                let recv = self.scale(spec.recv().raw(), &mut rng);
                NodeSpec::new(send, recv)
            })
            .collect()
    }

    fn scale(&self, value: u64, rng: &mut StdRng) -> u64 {
        if value == 0 || self.relative_jitter == 0.0 {
            return value;
        }
        let factor = 1.0 + rng.gen_range(-self.relative_jitter..=self.relative_jitter);
        (value as f64 * factor).round().max(0.0) as u64
    }

    /// Draws perturbed overheads for `set` and replays `tree` with them
    /// through the unified occupancy kernel: `(delivery completion,
    /// reception completion)` of the schedule under this perturbation.
    pub fn replay(&self, tree: &ScheduleTree, set: &MulticastSet, net: NetParams) -> (Time, Time) {
        kernel_replay(tree, &self.perturb(set), net)
    }
}

/// Replays one schedule on an otherwise idle cluster through the unified
/// occupancy kernel and returns its `(delivery completion, reception
/// completion)`. `specs` is indexed by tree node id (source first), the
/// way [`PerturbConfig::perturb`] emits it.
///
/// A single session never contends with itself beyond the one-port
/// constraint the schedule was planned around, so this agrees with the
/// analytic evaluation on nominal specs — but it shares every tie-break
/// rule with the traffic engine, which the pre-unification replay
/// (`execute_with_specs`) only mirrors by construction.
pub fn kernel_replay(tree: &ScheduleTree, specs: &[NodeSpec], net: NetParams) -> (Time, Time) {
    let mut session = SessionRuntime::new(
        0,
        Time::ZERO,
        (0..tree.num_nodes()).collect(),
        Arc::new(children_lists(tree)),
    );
    kernel::simulate(specs, net, std::slice::from_mut(&mut session), None, None)
        .expect("a schedule tree's node ids fit the kernel's 32-bit ids");
    (session.delivered_at, session.completed_at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnow_model::Time;

    fn sample_set() -> MulticastSet {
        MulticastSet::new(
            NodeSpec::new(10, 15),
            vec![
                NodeSpec::new(8, 9),
                NodeSpec::new(10, 15),
                NodeSpec::new(20, 33),
            ],
        )
        .unwrap()
    }

    #[test]
    fn zero_jitter_is_identity() {
        let set = sample_set();
        let specs = PerturbConfig::new(0.0, 7).perturb(&set);
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(*spec, set.spec(NodeId(i)));
        }
    }

    #[test]
    fn perturbation_is_deterministic_per_seed() {
        let set = sample_set();
        let a = PerturbConfig::new(0.3, 42).perturb(&set);
        let b = PerturbConfig::new(0.3, 42).perturb(&set);
        assert_eq!(a, b);
        let c = PerturbConfig::new(0.3, 43).perturb(&set);
        assert_ne!(a, c);
    }

    #[test]
    fn perturbed_values_stay_within_the_jitter_band() {
        let set = sample_set();
        let jitter = 0.25;
        for seed in 0..50u64 {
            let specs = PerturbConfig::new(jitter, seed).perturb(&set);
            for (i, spec) in specs.iter().enumerate() {
                let nominal = set.spec(NodeId(i));
                let lo = (nominal.send().as_f64() * (1.0 - jitter)).floor();
                let hi = (nominal.send().as_f64() * (1.0 + jitter)).ceil();
                assert!(spec.send().as_f64() >= lo && spec.send().as_f64() <= hi);
                let lo = (nominal.recv().as_f64() * (1.0 - jitter)).floor();
                let hi = (nominal.recv().as_f64() * (1.0 + jitter)).ceil();
                assert!(spec.recv().as_f64() >= lo && spec.recv().as_f64() <= hi);
            }
        }
    }

    #[test]
    fn send_overheads_never_collapse_to_zero() {
        let set = MulticastSet::new(NodeSpec::new(1, 0), vec![NodeSpec::new(1, 1)]).unwrap();
        for seed in 0..20u64 {
            let specs = PerturbConfig::new(0.9, seed).perturb(&set);
            for spec in specs {
                assert!(spec.send() >= Time::new(1));
            }
        }
    }

    #[test]
    fn negative_jitter_is_clamped() {
        let cfg = PerturbConfig::new(-0.5, 1);
        assert_eq!(cfg.relative_jitter, 0.0);
    }

    #[test]
    fn zero_jitter_replay_matches_the_analytic_times() {
        // The kernel-parity anchor: an unperturbed kernel replay must land
        // exactly on the closed-form schedule evaluation, for several
        // latencies and planners.
        let set = sample_set();
        for latency in [0u64, 1, 3] {
            let net = hnow_model::NetParams::new(latency);
            let tree = hnow_core::greedy_schedule(&set, net);
            let timing = hnow_core::schedule::evaluate(&tree, &set, net).unwrap();
            let (delivery, reception) = PerturbConfig::new(0.0, 7).replay(&tree, &set, net);
            assert_eq!(reception, timing.reception_completion(), "L = {latency}");
            assert_eq!(delivery, timing.delivery_completion(), "L = {latency}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Under perturbation there is no closed form, but the independent
        /// single-schedule executor plays the same one-port semantics: the
        /// kernel replay must agree with its trace on delivery and
        /// reception completion, for every planner that supports a random
        /// cluster.
        #[test]
        fn jittered_replay_matches_the_single_schedule_executor(
            destinations in 1usize..=14,
            random_source in proptest::bool::ANY,
            cluster_seed in 0u64..1_000_000,
            latency in 0u64..=4,
            jitter in 0.0f64..=0.6,
            jitter_seed in 0u64..1_000_000,
        ) {
            use proptest::prelude::prop_assert_eq;
            let config = hnow_workload::RandomClusterConfig {
                destinations,
                random_source,
                ..Default::default()
            };
            let set = config.generate(cluster_seed).unwrap();
            let net = hnow_model::NetParams::new(latency);
            let specs = PerturbConfig::new(jitter, jitter_seed).perturb(&set);
            let request = hnow_core::PlanRequest::new(set.clone(), net).with_seed(cluster_seed);
            for planner in hnow_core::planner::supporting_planners(&set) {
                let tree = planner.plan(&request).unwrap().tree;
                let (delivery, reception) = kernel_replay(&tree, &specs, net);
                let trace = crate::engine::execute_with_specs(&tree, &specs, net).unwrap();
                let trace_delivery = trace.delivery.iter().copied().max().unwrap();
                prop_assert_eq!(delivery, trace_delivery, "{}", planner.name());
                prop_assert_eq!(reception, trace.completion, "{}", planner.name());
            }
        }
    }
}
