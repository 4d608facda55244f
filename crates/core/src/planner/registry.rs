//! The [`Planner`] trait, capability metadata, and the static registry.

use crate::algorithms::baselines::{
    binomial_schedule, chain_schedule, fastest_node_first_schedule, random_schedule, star_schedule,
};
use crate::algorithms::greedy::{greedy_with_options, GreedyOptions};
use crate::algorithms::optimal;
use crate::error::CoreError;
use crate::planner::batch::PlanContext;
use crate::planner::request::{Plan, PlanRequest};
use crate::schedule::times::evaluate;
use crate::schedule::tree::ScheduleTree;
use hnow_model::{MulticastSet, TypedMulticast};
use serde::Serialize;

/// How a planner's result relates to the true optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PlannerKind {
    /// Proves optimality on every instance it completes within budget.
    Exact,
    /// Exact, but tractable only under limited heterogeneity (Theorem 2's
    /// bounded number of distinct workstation types).
    ExactLimitedHeterogeneity,
    /// Approximation with a proven worst-case guarantee (Theorem 1).
    BoundedApproximation,
    /// Heuristic with no guarantee under the receive-send model.
    Heuristic,
}

/// Capability metadata of a registered planner.
///
/// The limits are *advisory*: they describe the envelope inside which the
/// planner is practical (and, for exact planners, proves optimality at the
/// default budget). [`Planner::plan`] still attempts any instance; callers
/// that sweep the registry use [`Capabilities::supports`] to filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Capabilities {
    /// Exactness class of the planner.
    pub kind: PlannerKind,
    /// Largest destination count the planner is practical for (`None` = no
    /// limit).
    pub max_destinations: Option<usize>,
    /// Largest number of *distinct* node types the planner is practical for
    /// (`None` = no limit) — the `k` that drives the Theorem 2 DP's cost.
    pub max_distinct_types: Option<usize>,
    /// Whether the planner consumes [`PlanRequest::seed`].
    pub uses_seed: bool,
    /// One-line human-readable description for reports and docs.
    pub summary: &'static str,
}

impl Capabilities {
    /// Whether the planner proves optimality inside its envelope.
    pub fn exact(&self) -> bool {
        matches!(
            self.kind,
            PlannerKind::Exact | PlannerKind::ExactLimitedHeterogeneity
        )
    }

    /// Whether an instance falls inside this planner's practical envelope.
    pub fn supports(&self, set: &MulticastSet) -> bool {
        self.max_destinations
            .is_none_or(|m| set.num_destinations() <= m)
            && self
                .max_distinct_types
                .is_none_or(|m| set.num_distinct_types() <= m)
    }
}

/// A schedule tree plus whether the planner proved it optimal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedTree {
    /// The constructed schedule.
    pub tree: ScheduleTree,
    /// Whether the construction is proven optimal for the request objective.
    pub proven_optimal: bool,
}

impl PlannedTree {
    fn heuristic(tree: ScheduleTree) -> Self {
        PlannedTree {
            tree,
            proven_optimal: false,
        }
    }
}

/// A multicast scheduling algorithm under the unified planning facade.
///
/// Implementors only construct trees ([`Planner::construct`]); the provided
/// [`Planner::plan`] wraps the tree with its timing and provenance into a
/// [`Plan`]. All planners are stateless unit structs, so the registry can
/// hand out `&'static dyn Planner` references.
pub trait Planner: Send + Sync {
    /// Stable name of the planner, used for registry lookup and reports.
    fn name(&self) -> &'static str;

    /// Capability metadata.
    fn capabilities(&self) -> Capabilities;

    /// Constructs a schedule tree for the request. `ctx` carries batch-level
    /// shared state (the DP table cache).
    fn construct(&self, request: &PlanRequest, ctx: &PlanContext)
        -> Result<PlannedTree, CoreError>;

    /// Plans a request with a fresh [`PlanContext`].
    fn plan(&self, request: &PlanRequest) -> Result<Plan, CoreError> {
        self.plan_with(request, &PlanContext::new())
    }

    /// Plans a request, sharing `ctx` (and its DP table cache) with other
    /// calls in the same batch.
    fn plan_with(&self, request: &PlanRequest, ctx: &PlanContext) -> Result<Plan, CoreError> {
        let planned = self.construct(request, ctx)?;
        let timing = evaluate(&planned.tree, &request.set, request.net)?;
        Ok(Plan {
            planner: self.name(),
            tree: planned.tree,
            timing,
            objective: request.objective,
            proven_optimal: planned.proven_optimal,
        })
    }
}

/// The paper's greedy algorithm (Lemma 1), plain.
struct Greedy;

impl Planner for Greedy {
    fn name(&self) -> &'static str {
        "greedy"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            kind: PlannerKind::BoundedApproximation,
            max_destinations: None,
            max_distinct_types: None,
            uses_seed: false,
            summary: "O(n log n) greedy of Lemma 1; R < 2·⌈α_max⌉/α_min·OPT + β (Theorem 1)",
        }
    }
    fn construct(&self, request: &PlanRequest, _: &PlanContext) -> Result<PlannedTree, CoreError> {
        Ok(PlannedTree::heuristic(greedy_with_options(
            &request.set,
            request.net,
            GreedyOptions::PLAIN,
        )))
    }
}

/// Greedy followed by the Section 3 leaf-delivery refinement.
struct GreedyRefined;

impl Planner for GreedyRefined {
    fn name(&self) -> &'static str {
        "greedy+leaf"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            kind: PlannerKind::BoundedApproximation,
            max_destinations: None,
            max_distinct_types: None,
            uses_seed: false,
            summary: "greedy plus the Section 3 leaf refinement; never worse than plain greedy",
        }
    }
    fn construct(&self, request: &PlanRequest, _: &PlanContext) -> Result<PlannedTree, CoreError> {
        Ok(PlannedTree::heuristic(greedy_with_options(
            &request.set,
            request.net,
            GreedyOptions::REFINED,
        )))
    }
}

/// The Theorem 2 limited-heterogeneity dynamic program.
struct DpOptimal;

impl Planner for DpOptimal {
    fn name(&self) -> &'static str {
        "dp-optimal"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            kind: PlannerKind::ExactLimitedHeterogeneity,
            max_destinations: None,
            max_distinct_types: Some(3),
            uses_seed: false,
            summary: "Theorem 2 O(n^{2k}) dynamic program; exact, practical for k ≤ 3 types",
        }
    }
    fn construct(
        &self,
        request: &PlanRequest,
        ctx: &PlanContext,
    ) -> Result<PlannedTree, CoreError> {
        // Canonical form: the cache keys tables by canonical signature, so
        // using it for both lookup and reconstruction shares one table
        // across every source class and class ordering of the same cluster.
        let typed = TypedMulticast::from_multicast_set(&request.set).canonical();
        let table = ctx.dp_cache().table_for(&typed, request.net);
        let (tree, _) = table.schedule_for(&typed)?;
        // The DP minimises the unrestricted reception completion time; for
        // any other objective (or a layered-only request) its tree is still
        // valid but optimality is not what was asked for.
        let proven_optimal = request.objective == crate::algorithms::optimal::Objective::Reception
            && !request.layered_only;
        Ok(PlannedTree {
            tree,
            proven_optimal,
        })
    }
}

/// The exact branch-and-bound reference solver.
struct BranchBound;

impl Planner for BranchBound {
    fn name(&self) -> &'static str {
        "branch-bound"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            kind: PlannerKind::Exact,
            max_destinations: Some(10),
            max_distinct_types: None,
            uses_seed: false,
            summary: "exhaustive branch-and-bound; proves optimality up to ~10 destinations",
        }
    }
    fn construct(&self, request: &PlanRequest, _: &PlanContext) -> Result<PlannedTree, CoreError> {
        let result = optimal::search(&request.set, request.net, request.search_options());
        Ok(PlannedTree {
            tree: result.tree,
            proven_optimal: result.proven_optimal,
        })
    }
}

/// Greedy for the heterogeneous-*node* model of Banikazemi et al.
struct FastestNodeFirst;

impl Planner for FastestNodeFirst {
    fn name(&self) -> &'static str {
        "fnf"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            kind: PlannerKind::Heuristic,
            max_destinations: None,
            max_distinct_types: None,
            uses_seed: false,
            summary: "fastest-node-first greedy of the heterogeneous-node model",
        }
    }
    fn construct(&self, request: &PlanRequest, _: &PlanContext) -> Result<PlannedTree, CoreError> {
        Ok(PlannedTree::heuristic(fastest_node_first_schedule(
            &request.set,
            request.net,
        )))
    }
}

/// Heterogeneity-oblivious binomial tree.
struct Binomial;

impl Planner for Binomial {
    fn name(&self) -> &'static str {
        "binomial"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            kind: PlannerKind::Heuristic,
            max_destinations: None,
            max_distinct_types: None,
            uses_seed: false,
            summary: "heterogeneity-oblivious binomial tree",
        }
    }
    fn construct(&self, request: &PlanRequest, _: &PlanContext) -> Result<PlannedTree, CoreError> {
        Ok(PlannedTree::heuristic(binomial_schedule(&request.set)))
    }
}

/// Linear pipeline through all destinations.
struct Chain;

impl Planner for Chain {
    fn name(&self) -> &'static str {
        "chain"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            kind: PlannerKind::Heuristic,
            max_destinations: None,
            max_distinct_types: None,
            uses_seed: false,
            summary: "linear pipeline through all destinations",
        }
    }
    fn construct(&self, request: &PlanRequest, _: &PlanContext) -> Result<PlannedTree, CoreError> {
        Ok(PlannedTree::heuristic(chain_schedule(&request.set)))
    }
}

/// The source sends to every destination itself.
struct Star;

impl Planner for Star {
    fn name(&self) -> &'static str {
        "star"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            kind: PlannerKind::Heuristic,
            max_destinations: None,
            max_distinct_types: None,
            uses_seed: false,
            summary: "separate addressing: the source sends to everyone itself",
        }
    }
    fn construct(&self, request: &PlanRequest, _: &PlanContext) -> Result<PlannedTree, CoreError> {
        Ok(PlannedTree::heuristic(star_schedule(&request.set)))
    }
}

/// A uniformly random valid schedule, seeded by the request.
struct Random;

impl Planner for Random {
    fn name(&self) -> &'static str {
        "random"
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            kind: PlannerKind::Heuristic,
            max_destinations: None,
            max_distinct_types: None,
            uses_seed: true,
            summary: "uniformly random valid schedule (seeded comparison floor)",
        }
    }
    fn construct(&self, request: &PlanRequest, _: &PlanContext) -> Result<PlannedTree, CoreError> {
        Ok(PlannedTree::heuristic(random_schedule(
            &request.set,
            request.seed,
        )))
    }
}

/// Every registered planner, in canonical order: the paper's algorithms
/// first (greedy, refined greedy, DP, branch-and-bound), then the
/// comparison baselines (fnf, binomial, chain, star, random).
static REGISTRY: [&dyn Planner; 9] = [
    &Greedy,
    &GreedyRefined,
    &DpOptimal,
    &BranchBound,
    &FastestNodeFirst,
    &Binomial,
    &Chain,
    &Star,
    &Random,
];

/// The static planner registry.
pub fn registry() -> &'static [&'static dyn Planner] {
    &REGISTRY
}

/// Looks up a planner by its stable name.
pub fn find(name: &str) -> Option<&'static dyn Planner> {
    registry().iter().copied().find(|p| p.name() == name)
}

/// The registered planners whose capability envelope covers the instance.
pub fn supporting_planners(set: &MulticastSet) -> Vec<&'static dyn Planner> {
    registry()
        .iter()
        .copied()
        .filter(|p| p.capabilities().supports(set))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{lower_bound, theorem1_bound};
    use crate::schedule::validate::validate;
    use hnow_model::{NetParams, NodeSpec};

    fn figure1_request() -> PlanRequest {
        let slow = NodeSpec::new(2, 3);
        let fast = NodeSpec::new(1, 1);
        let set = MulticastSet::new(slow, vec![fast, fast, fast, slow]).unwrap();
        PlanRequest::new(set, NetParams::new(1))
    }

    #[test]
    fn registry_names_are_unique_and_stable() {
        let mut names: Vec<&str> = registry().iter().map(|p| p.name()).collect();
        assert!(names.len() >= 7, "at least the paper's seven algorithms");
        for expected in [
            "greedy",
            "greedy+leaf",
            "dp-optimal",
            "branch-bound",
            "fnf",
            "binomial",
            "chain",
            "star",
            "random",
        ] {
            assert!(find(expected).is_some(), "missing planner {expected}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry().len(), "duplicate planner names");
        assert!(find("no-such-planner").is_none());
    }

    #[test]
    fn every_planner_builds_a_valid_plan_on_figure1() {
        let request = figure1_request();
        let lb = lower_bound(&request.set, request.net);
        for p in registry() {
            assert!(p.capabilities().supports(&request.set), "{}", p.name());
            let plan = p.plan(&request).unwrap_or_else(|e| {
                panic!("{} failed on figure 1: {e}", p.name());
            });
            assert_eq!(plan.planner, p.name());
            validate(&plan.tree, &request.set).unwrap();
            assert!(plan.reception_completion() >= lb.value);
            // Any achieved completion upper-bounds OPT, so the Theorem 1
            // right-hand side evaluated at it stays above the plan itself
            // whenever the multiplicative factor is at least one.
            let t1 = theorem1_bound(&request.set, plan.reception_completion());
            assert!(t1 >= plan.reception_completion().as_f64());
        }
    }

    #[test]
    fn exact_planners_agree_on_figure1() {
        let request = figure1_request();
        let dp = find("dp-optimal").unwrap().plan(&request).unwrap();
        let bb = find("branch-bound").unwrap().plan(&request).unwrap();
        assert!(dp.proven_optimal);
        assert!(bb.proven_optimal);
        assert_eq!(dp.reception_completion().raw(), 8);
        assert_eq!(bb.reception_completion().raw(), 8);
    }

    #[test]
    fn capability_filtering_excludes_out_of_envelope_planners() {
        // 12 destinations with 12 distinct types: beyond both the DP's type
        // limit and branch-and-bound's size limit.
        let dests: Vec<NodeSpec> = (1..=12).map(|i| NodeSpec::new(i, 2 * i)).collect();
        let set = MulticastSet::new(NodeSpec::new(1, 1), dests).unwrap();
        let supported = supporting_planners(&set);
        assert!(supported.iter().all(|p| p.name() != "dp-optimal"));
        assert!(supported.iter().all(|p| p.name() != "branch-bound"));
        assert!(supported.iter().any(|p| p.name() == "greedy"));
        assert_eq!(supported.len(), registry().len() - 2);

        // Small two-type instances are inside every envelope.
        let small = figure1_request().set;
        assert_eq!(supporting_planners(&small).len(), registry().len());
    }

    #[test]
    fn random_planner_honours_the_request_seed() {
        let set = MulticastSet::homogeneous(NodeSpec::new(2, 3), 10);
        let net = NetParams::new(1);
        let a = find("random")
            .unwrap()
            .plan(&PlanRequest::new(set.clone(), net).with_seed(1))
            .unwrap();
        let a2 = find("random")
            .unwrap()
            .plan(&PlanRequest::new(set.clone(), net).with_seed(1))
            .unwrap();
        let b = find("random")
            .unwrap()
            .plan(&PlanRequest::new(set, net).with_seed(2))
            .unwrap();
        assert_eq!(a, a2, "same seed, same plan");
        assert_ne!(a.tree, b.tree, "different seeds diverge");
    }

    #[test]
    fn branch_bound_respects_objective_and_budget() {
        use crate::algorithms::optimal::Objective;
        let request = figure1_request()
            .with_objective(Objective::Delivery)
            .with_layered_only(true);
        let plan = find("branch-bound").unwrap().plan(&request).unwrap();
        assert!(plan.proven_optimal);
        // Corollary 1: plain greedy attains the layered delivery optimum.
        let greedy = find("greedy").unwrap().plan(&request).unwrap();
        assert_eq!(plan.value(), greedy.delivery_completion());
        // The DP optimises unrestricted reception only: under any other
        // objective it must not claim proven optimality.
        let dp = find("dp-optimal").unwrap().plan(&request).unwrap();
        assert!(!dp.proven_optimal);

        let starved = figure1_request().with_node_budget(1);
        let plan = find("branch-bound").unwrap().plan(&starved).unwrap();
        assert!(!plan.proven_optimal, "budget 1 cannot prove optimality");
        validate(&plan.tree, &starved.set).unwrap();
    }
}
