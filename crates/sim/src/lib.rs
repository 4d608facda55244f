//! # hnow-sim
//!
//! Discrete-event execution substrate for multicast schedules in the
//! heterogeneous receive-send model.
//!
//! The original paper's model was validated against a physical
//! heterogeneous-NOW testbed by Banikazemi et al.; this crate is the
//! synthetic stand-in (see DESIGN.md §2): it plays a planned
//! [`ScheduleTree`](hnow_core::ScheduleTree) forward event by event,
//! enforcing the model's node-occupancy constraint, recording every busy
//! interval, and optionally substituting *perturbed* run-time overheads for
//! the nominal ones the schedule was planned with.
//!
//! * [`engine`] — the event-driven executor ([`execute`],
//!   [`execute_with_specs`]).
//! * [`cluster`] — the session service: one epoch pipeline that
//!   dispatches thousands of overlapping multicast sessions over a sharded
//!   pool, plans them through per-shard plan caches (gateway-stitched when
//!   a session spans shards), optionally admits and rebalances them under
//!   the control plane, and simulates node-disjoint components of them
//!   against shared per-node busy state ([`ShardedCluster`]). Every session
//!   runs on the crate's single private occupancy kernel (`kernel`), with
//!   one documented same-instant tie-break rule.
//! * [`sessions`] — the flat entry point ([`TrafficEngine`]: the same
//!   pipeline over one shard holding the whole pool) and the one report
//!   both entry points return ([`TrafficReport`], [`SessionRecord`]).
//! * [`config`] — the unified builder-style [`RunConfig`] both entry points
//!   take via `with_config` (planner, loss/repair, chunk profile, sharding,
//!   control plane, thread pinning, telemetry).
//!
//! The pipeline carries an optional, strictly observation-only telemetry
//! layer (the `hnow-telemetry` crate, attached via
//! [`RunConfig::telemetry`]): the occupancy kernel streams structured
//! [`TraceEvent`](hnow_telemetry::TraceEvent)s into any
//! [`TraceSink`](hnow_telemetry::TraceSink) — exportable as Chrome
//! `trace_event` JSON — a time-series collector folds the same stream into
//! the report's optional trailing `telemetry` section, and a wall-clock
//! [`PhaseProfiler`](hnow_telemetry::PhaseProfiler) attributes
//! plan/admit/bind/simulate/rebalance spans to worker threads without ever
//! entering a report. Attaching or detaching any of the three never
//! changes a report outside that optional trailing section.
//! * [`trace`] — execution traces, per-node timelines and ASCII Gantt
//!   rendering.
//! * [`faults`] — seeded, deterministic message loss ([`LossProfile`]):
//!   an iid rate and Gilbert-style bursts, injected into the shared
//!   kernel's deliveries and repaired by NACK-driven retransmission (see
//!   the kernel's band-2 documentation in `kernel`).
//! * [`perturb`] — reproducible multiplicative overhead jitter, replayed
//!   through the same occupancy kernel.
//! * [`validate`] — cross-check of simulated against closed-form times
//!   ([`check_against_analytic`]). The kernel's own activity record is its
//!   trace, which [`hnow_telemetry::check_invariants`] holds to the
//!   one-port rule.
//!
//! ```
//! use hnow_core::greedy_schedule;
//! use hnow_model::{MulticastSet, NetParams, NodeSpec};
//! use hnow_sim::execute;
//!
//! let set = MulticastSet::new(
//!     NodeSpec::new(2, 3),
//!     vec![NodeSpec::new(1, 1), NodeSpec::new(1, 1), NodeSpec::new(2, 3)],
//! )
//! .unwrap();
//! let net = NetParams::new(1);
//! let tree = greedy_schedule(&set, net);
//! let trace = execute(&tree, &set, net).unwrap();
//! println!("{}", trace.render_gantt(60));
//! assert!(trace.completion.raw() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod config;
pub mod engine;
pub mod error;
pub mod event;
pub mod faults;
mod kernel;
pub mod perturb;
pub mod sessions;
pub mod trace;
pub mod validate;

pub use cluster::{
    ControlConfig, ControlPlaneReport, MigrationRecord, RebalanceConfig, ShardReport,
    ShardedCluster,
};
pub use config::RunConfig;
pub use engine::{execute, execute_with_specs};
pub use error::SimError;
pub use event::{Event, EventQueue};
pub use faults::{BurstProfile, LossProfile};
pub use perturb::{kernel_replay, PerturbConfig};
pub use sessions::{
    CacheStats, ReliabilityReport, SessionRecord, StreamingReport, TrafficEngine, TrafficMetrics,
    TrafficReport,
};
pub use trace::{Activity, BusyInterval, SimTrace};
pub use validate::check_against_analytic;
