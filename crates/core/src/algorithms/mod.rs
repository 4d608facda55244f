//! Multicast scheduling algorithms: the paper's greedy approximation and
//! limited-heterogeneity dynamic program, an exact branch-and-bound
//! reference solver, the Theorem 1 proof transformations, and
//! heterogeneity-oblivious baselines.

pub mod baselines;
pub mod dp;
pub mod greedy;
pub mod optimal;
pub mod transform;

pub use dp::{dp_optimum, DpTable};
pub use greedy::{greedy_schedule, greedy_with_options, GreedyOptions};
pub use optimal::{optimal_schedule, search, Objective, OptimalResult, SearchOptions};
pub use transform::{power_of_two_rounding, uniform_integer_ratio, RoundedInstance};
