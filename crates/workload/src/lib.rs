//! # hnow-workload
//!
//! Cluster, parameter-sweep and traffic generators for the HNOW multicast
//! experiments.
//!
//! The paper's assumptions are grounded in measurements of real late-1990s
//! workstation clusters (receive-send ratios between 1.05 and 1.85, an order
//! of magnitude between the fastest and the slowest protocol stacks). We do
//! not have that hardware; [`profiles`] defines synthetic workstation
//! classes spanning those published ranges, [`cluster`] composes them into
//! limited-heterogeneity clusters, [`generator`] draws fully random and
//! bimodal clusters with seeds, [`sweep`] builds the parameter series the
//! experiment harness iterates over, [`traffic`] turns a cluster into a
//! streaming *service* workload: seeded arrival processes emitting
//! thousands of overlapping multicast session requests with churn,
//! [`sharding`] partitions one large pool into class-aware shards and
//! generates traffic with a controlled cross-shard fraction, and
//! [`hotspot`] layers a deterministically shifting hot-spot phase schedule
//! on top of a shard partition (the control plane's adversarial workload).
//! Loss and chunk trains are set for a whole run by the simulator's
//! `RunConfig`, not by these generators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod error;
pub mod generator;
pub mod hotspot;
pub mod profiles;
pub mod sharding;
pub mod sweep;
pub mod traffic;

pub use cluster::{fast_slow_mix, ClusterSpec};
pub use error::WorkloadError;
pub use generator::{bimodal_cluster, RandomClusterConfig};
pub use hotspot::HotSpotPattern;
pub use profiles::{
    default_message_size, fast_workstation, figure1_class_table, legacy_workstation,
    midrange_workstation, slow_workstation, standard_class_table, two_class_table,
};
pub use sharding::{ShardMap, ShardedPattern};
pub use sweep::{Sweep, SweepPoint};
pub use traffic::{
    ArrivalProfile, ChurnProfile, GroupSizeDist, NodePool, SessionRequest, TrafficPattern,
};
