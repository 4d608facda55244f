//! Planning problems and planning results.

use crate::algorithms::optimal::{Objective, SearchOptions};
use crate::schedule::{ScheduleTiming, ScheduleTree};
use hnow_model::{MulticastSet, NetParams, Time};

/// A self-contained planning problem.
///
/// Every planner consumes the same request shape; fields a given algorithm
/// does not use (the node budget for heuristics, the seed for deterministic
/// planners) are simply ignored, so one request can be fanned across the
/// whole [`registry`](crate::planner::registry).
///
/// Construction is builder-style — no positional literals required:
///
/// ```
/// use hnow_core::planner::PlanRequest;
/// use hnow_model::{MulticastSet, NetParams, NodeSpec};
///
/// let set = MulticastSet::homogeneous(NodeSpec::new(2, 3), 6);
/// let request = PlanRequest::new(set, NetParams::new(1))
///     .with_node_budget(1_000_000)
///     .with_seed(42);
/// assert_eq!(request.seed, 42);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRequest {
    /// The multicast instance to plan.
    pub set: MulticastSet,
    /// Network parameters (latency `L`).
    pub net: NetParams,
    /// Completion-time objective (reception by default, the paper's).
    pub objective: Objective,
    /// Branch-and-bound node budget for exact planners.
    pub node_budget: u64,
    /// Restrict exact search to layered schedules (Lemma 2's class).
    pub layered_only: bool,
    /// Seed consumed by randomized planners.
    pub seed: u64,
}

impl PlanRequest {
    /// Creates a request with the default objective (reception completion),
    /// the default exact-search budget and seed 0.
    pub fn new(set: MulticastSet, net: NetParams) -> Self {
        let defaults = SearchOptions::default();
        PlanRequest {
            set,
            net,
            objective: defaults.objective,
            node_budget: defaults.node_budget,
            layered_only: defaults.layered_only,
            seed: 0,
        }
    }

    /// Sets the completion-time objective.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the branch-and-bound node budget for exact planners.
    #[must_use]
    pub fn with_node_budget(mut self, node_budget: u64) -> Self {
        self.node_budget = node_budget;
        self
    }

    /// Restricts exact search to layered schedules.
    #[must_use]
    pub fn with_layered_only(mut self, layered_only: bool) -> Self {
        self.layered_only = layered_only;
        self
    }

    /// Sets the seed consumed by randomized planners.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The [`SearchOptions`] equivalent of this request, used by the exact
    /// branch-and-bound planner.
    pub fn search_options(&self) -> SearchOptions {
        SearchOptions::default()
            .with_objective(self.objective)
            .with_layered_only(self.layered_only)
            .with_node_budget(self.node_budget)
    }
}

/// The result of planning one request with one planner.
///
/// A plan holds what the planner decided and how that schedule times out.
/// Instance-level bounds are not part of it: the always-valid
/// [`lower_bound`](crate::bounds::lower_bound) depends only on the request,
/// and the Theorem 1 right-hand side
/// [`theorem1_bound`](crate::bounds::theorem1_bound) on the instance and a
/// completion time, so callers that print or check them compute them.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Stable name of the planner that produced this plan (provenance).
    pub planner: &'static str,
    /// The schedule tree.
    pub tree: ScheduleTree,
    /// Full per-node delivery/reception timing of the tree.
    pub timing: ScheduleTiming,
    /// The objective the plan was requested under.
    pub objective: Objective,
    /// Whether the planner proved this plan optimal for the objective (the
    /// DP inside its heterogeneity limit, branch-and-bound within budget).
    pub proven_optimal: bool,
}

impl Plan {
    /// The plan's completion time under its requested objective.
    pub fn value(&self) -> Time {
        match self.objective {
            Objective::Reception => self.timing.reception_completion(),
            Objective::Delivery => self.timing.delivery_completion(),
        }
    }

    /// Shorthand for the reception completion time `R_T`.
    pub fn reception_completion(&self) -> Time {
        self.timing.reception_completion()
    }

    /// Shorthand for the delivery completion time `D_T`.
    pub fn delivery_completion(&self) -> Time {
        self.timing.delivery_completion()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnow_model::NodeSpec;

    #[test]
    fn builder_defaults_match_search_options() {
        let set = MulticastSet::homogeneous(NodeSpec::new(1, 1), 3);
        let req = PlanRequest::new(set, NetParams::new(2));
        let defaults = SearchOptions::default();
        assert_eq!(req.objective, defaults.objective);
        assert_eq!(req.node_budget, defaults.node_budget);
        assert_eq!(req.layered_only, defaults.layered_only);
        assert_eq!(req.seed, 0);
        assert_eq!(req.search_options(), defaults);
    }

    #[test]
    fn builders_compose() {
        let set = MulticastSet::homogeneous(NodeSpec::new(1, 1), 3);
        let req = PlanRequest::new(set, NetParams::new(2))
            .with_objective(Objective::Delivery)
            .with_node_budget(123)
            .with_layered_only(true)
            .with_seed(9);
        assert_eq!(req.objective, Objective::Delivery);
        assert_eq!(req.node_budget, 123);
        assert!(req.layered_only);
        assert_eq!(req.seed, 9);
        let opts = req.search_options();
        assert_eq!(opts.objective, Objective::Delivery);
        assert_eq!(opts.node_budget, 123);
        assert!(opts.layered_only);
    }
}
