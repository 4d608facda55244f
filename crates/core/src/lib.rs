//! # hnow-core
//!
//! Multicast scheduling for **heterogeneous networks of workstations**
//! (HNOWs) in the receive-send overhead model — a from-scratch
//! implementation of the algorithms and analysis of Libeskind-Hadas and
//! Hartline, *"Efficient Multicast in Heterogeneous Networks of
//! Workstations"* (ICPP Workshop on Network-Based Computing, 2000).
//!
//! ## What is in the crate
//!
//! * [`planner`] — the unified planning facade: [`PlanRequest`] /
//!   [`Plan`], the [`Planner`] trait implemented by every algorithm below,
//!   the static [`planner::registry`] with per-planner capability metadata,
//!   and the batched [`planner::plan_many`] facade with a shared Theorem 2
//!   DP-table cache.
//! * [`schedule`] — ordered multicast schedule trees, delivery/reception
//!   time evaluation (`d_T`, `r_T`, `D_T`, `R_T`), structural validation,
//!   the layeredness predicate, and the leaf-delivery refinement.
//! * [`algorithms::greedy`] — the `O(n log n)` greedy algorithm of Lemma 1,
//!   whose reception completion time is within `2·(α_max/α_min)·OPT_R + β`
//!   of optimal (Theorem 1).
//! * [`algorithms::dp`] — the `O(n^{2k})` dynamic program of Theorem 2,
//!   optimal whenever the cluster has a bounded number `k` of workstation
//!   types, including whole-network table precomputation and constant-time
//!   queries.
//! * [`algorithms::optimal`] — an exact branch-and-bound reference solver
//!   for small instances (the problem is strongly NP-complete in general).
//! * [`algorithms::baselines`] — fastest-node-first, binomial, chain, star
//!   and random schedules used as comparison points.
//! * [`algorithms::transform`] — the power-of-two rounding construction used
//!   in the proof of Theorem 1.
//! * [`bounds`] — the Theorem 1 bound and always-valid lower bounds on the
//!   optimum.
//! * [`analysis`] — schedule statistics for experiments and reports.
//!
//! ## Quick example
//!
//! Every algorithm answers the same [`PlanRequest`] through the planner
//! registry, so comparing schedulers is a loop, not a match:
//!
//! ```
//! use hnow_core::lower_bound;
//! use hnow_core::planner::{self, PlanRequest};
//! use hnow_model::{MulticastSet, NetParams, NodeSpec};
//!
//! // Figure 1 of the paper: a slow source, three fast destinations and one
//! // slow destination, network latency 1.
//! let slow = NodeSpec::new(2, 3);
//! let fast = NodeSpec::new(1, 1);
//! let set = MulticastSet::new(slow, vec![fast, fast, fast, slow]).unwrap();
//! let request = PlanRequest::new(set, NetParams::new(1));
//!
//! // One named planner…
//! let greedy = planner::find("greedy").unwrap().plan(&request).unwrap();
//! let refined = planner::find("greedy+leaf").unwrap().plan(&request).unwrap();
//! assert_eq!(greedy.reception_completion().raw(), 10);
//! assert_eq!(refined.reception_completion().raw(), 8);
//!
//! // …or every planner whose capability envelope covers the instance. The
//! // always-valid lower bound belongs to the instance, not to a plan.
//! let lb = lower_bound(&request.set, request.net);
//! for p in planner::supporting_planners(&request.set) {
//!     let plan = p.plan(&request).unwrap();
//!     assert!(plan.reception_completion() >= lb.value);
//!     if plan.proven_optimal {
//!         assert_eq!(plan.reception_completion().raw(), 8);
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algorithms;
pub mod analysis;
pub mod bounds;
pub mod error;
pub mod planner;
pub mod schedule;

pub use algorithms::{
    dp_optimum, greedy_schedule, greedy_with_options, optimal_schedule, DpTable, GreedyOptions,
    Objective, OptimalResult, SearchOptions,
};
pub use analysis::{stats, ScheduleStats};
pub use bounds::{lower_bound, theorem1_bound, theorem1_factor, LowerBound};
pub use error::CoreError;
pub use planner::{Capabilities, DpCache, Plan, PlanContext, PlanRequest, Planner, PlannerKind};
pub use schedule::{
    compose, delivery_completion, evaluate, evaluate_with_specs, is_layered, reception_completion,
    refine_leaves, ComposedSchedule, RepairPlacement, ScheduleTiming, ScheduleTree,
};
