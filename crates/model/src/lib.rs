//! # hnow-model
//!
//! Parameterized communication models and problem instances for multicast
//! scheduling in **heterogeneous networks of workstations** (HNOWs), as used
//! by Libeskind-Hadas and Hartline, *"Efficient Multicast in Heterogeneous
//! Networks of Workstations"*, ICPP Workshop on Network-Based Computing,
//! 2000.
//!
//! The central abstraction is the **heterogeneous receive-send model** of
//! Banikazemi et al.: every node `p` has a *sending overhead*
//! [`NodeSpec::send`] and a *receiving overhead* [`NodeSpec::recv`], and every
//! transmission additionally incurs the global network latency
//! [`NetParams::latency`]. While a node incurs a send or receive overhead it
//! cannot perform any other communication.
//!
//! A multicast problem instance is a [`MulticastSet`]: one source node plus a
//! list of destination nodes, kept in the canonical non-decreasing overhead
//! order that the paper's algorithms assume. Limited-heterogeneity instances
//! (a fixed number `k` of workstation *types*) are described by
//! [`ClassTable`] and [`TypedMulticast`]. An [`Instance`] bundles a
//! multicast set with its network parameters.
//!
//! ## Quick example
//!
//! ```
//! use hnow_model::{MulticastSet, NetParams, NodeSpec};
//!
//! // Figure 1 of the paper: slow source, three fast and one slow destination.
//! let slow = NodeSpec::new(2, 3);
//! let fast = NodeSpec::new(1, 1);
//! let set = MulticastSet::new(slow, vec![fast, fast, fast, slow]).unwrap();
//! let net = NetParams::new(1);
//!
//! assert_eq!(set.num_destinations(), 4);
//! assert_eq!(net.latency().raw(), 1);
//! // Destinations are kept sorted by non-decreasing overhead.
//! assert!(set.destination(0).send() <= set.destination(3).send());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chunk;
pub mod class;
pub mod error;
pub mod multicast;
pub mod node;
pub mod overhead;
pub mod params;
pub mod time;

pub use chunk::ChunkProfile;
pub use class::{ClassTable, NodeClass, TypedMulticast};
pub use error::ModelError;
pub use multicast::{Instance, MulticastSet};
pub use node::{NodeId, NodeSpec};
pub use overhead::OverheadProfile;
pub use params::{MessageSize, NetParams};
pub use time::Time;
