//! # hnow-control
//!
//! The control plane of the sharded multicast service: the pure decision
//! logic that turns the single-epoch pipeline in `hnow_sim::cluster` into an
//! online service loop. Three concerns live here, each stateless or
//! explicitly-stated-state so every decision is a deterministic function
//! of its inputs:
//!
//! * [`admission`] — per-epoch admission control: reorder the epoch's
//!   sessions shortest-planned-`R_T`-first and shed the ones whose
//!   predicted queue delay already exceeds their churn patience, emitting
//!   an explicit [`AdmissionDecision`] per session.
//! * [`rebalance`] — a hysteresis-gated shard rebalancer that watches
//!   per-shard mean queue delays between epochs and proposes class-aware
//!   node migrations from the hottest to the coldest shard.
//! * [`policy`] — pluggable gateway-placement policies behind the
//!   [`GatewayPolicy`] trait, selected by registry name exactly like
//!   planners.
//!
//! Nothing in this crate touches clocks, threads or randomness: given the
//! same inputs, every function returns the same outputs, which is what
//! lets the simulator's reports stay byte-identical per seed at every
//! thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admission;
pub mod policy;
pub mod rebalance;

pub use admission::{admit, AdmissionDecision, AdmissionIntent, AdmissionOutcome};
pub use policy::{find_policy, policies, GatewayCandidate, GatewayPolicy};
pub use rebalance::{RebalanceConfig, Rebalancer, ShardMove};
