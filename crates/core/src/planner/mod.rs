//! Unified planning facade over every scheduling algorithm in the crate.
//!
//! The paper's contribution is a *comparison* of schedulers — the greedy
//! approximation of Lemma 1, the limited-heterogeneity dynamic program of
//! Theorem 2, an exact branch-and-bound reference, and a family of
//! heterogeneity-oblivious baselines — on identical instances. This module
//! gives all of them one shape:
//!
//! * [`PlanRequest`] — a self-contained planning problem: the instance, the
//!   network parameters, the objective, the exact-search budget and the seed
//!   consumed by randomized planners.
//! * [`Plan`] — a planning result: the schedule tree, its full
//!   [`ScheduleTiming`](crate::schedule::ScheduleTiming), the name of the
//!   planner that produced it, and whether optimality was proven. The
//!   instance-level bounds of [`bounds`](crate::bounds) are computed by the
//!   callers that want them.
//! * [`Planner`] — the trait implemented by every algorithm, with
//!   [`Capabilities`] metadata (exact vs. approximate, instance-size and
//!   heterogeneity limits) that callers use to decide applicability.
//! * [`registry`] — the static table of every planner, addressable by
//!   stable name; [`find`] looks one up and [`supporting_planners`] filters
//!   the registry by an instance's shape.
//! * [`plan_many`] — the batch facade: fans a slice of requests across a
//!   set of planners with rayon and memoizes Theorem 2 whole-network DP
//!   tables across requests sharing a class table (the precomputation the
//!   paper recommends in Section 4), via [`PlanContext`]/[`DpCache`].
//!
//! ## Example
//!
//! ```
//! use hnow_core::lower_bound;
//! use hnow_core::planner::{self, PlanRequest};
//! use hnow_model::{MulticastSet, NetParams, NodeSpec};
//!
//! let slow = NodeSpec::new(2, 3);
//! let fast = NodeSpec::new(1, 1);
//! let set = MulticastSet::new(slow, vec![fast, fast, fast, slow]).unwrap();
//! let request = PlanRequest::new(set, NetParams::new(1));
//! let lb = lower_bound(&request.set, request.net);
//!
//! for p in planner::registry() {
//!     if p.capabilities().supports(&request.set) {
//!         let plan = p.plan(&request).unwrap();
//!         assert!(plan.reception_completion() >= lb.value);
//!     }
//! }
//! ```

mod batch;
mod registry;
mod request;

pub use batch::{plan_many, plan_many_with, DpCache, PlanContext};
pub use registry::{
    find, registry, supporting_planners, Capabilities, PlannedTree, Planner, PlannerKind,
};
pub use request::{Plan, PlanRequest};
