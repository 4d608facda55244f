//! Workload generation errors.

use hnow_model::ModelError;
use std::error::Error;
use std::fmt;

/// Errors raised while generating clusters or scenarios.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WorkloadError {
    /// The underlying model rejected the generated instance.
    Model(ModelError),
    /// A generator was asked for an empty cluster where at least one
    /// destination is required.
    EmptyCluster,
    /// A traffic pattern's per-class weight vector does not match the node
    /// pool's class count.
    WeightMismatch {
        /// Number of weights supplied.
        got: usize,
        /// Number of classes in the pool.
        expected: usize,
    },
    /// A per-class node-count vector does not match the class table.
    CountMismatch {
        /// Number of counts supplied.
        got: usize,
        /// Number of classes in the table.
        expected: usize,
    },
    /// A traffic pattern's per-class weights carry no positive mass.
    DegenerateWeights,
    /// A group-size distribution is empty (`min > max` or zero-sized
    /// groups).
    InvalidGroupSize {
        /// Smallest group size of the distribution.
        min: usize,
        /// Largest group size of the distribution.
        max: usize,
    },
    /// An arrival profile cannot generate a meaningful stream (non-positive
    /// or non-finite Poisson mean gap, zero-session bursts).
    DegenerateArrivals,
    /// A shard partition was requested with zero shards or more shards than
    /// the pool has nodes.
    InvalidShardCount {
        /// Requested number of shards.
        shards: usize,
        /// Nodes available in the pool.
        nodes: usize,
    },
    /// A cross-shard fraction outside `[0, 1]` (or non-finite) was supplied.
    InvalidFraction,
    /// A node migration was rejected: unknown node or target shard, a no-op
    /// move to the node's current shard, or a move that would empty the
    /// source shard.
    InvalidMigration {
        /// Global id of the node asked to move.
        global: usize,
        /// Requested destination shard.
        to_shard: usize,
    },
    /// A hot-spot pattern was configured with zero sessions per phase.
    DegeneratePhase,
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Model(e) => write!(f, "model error: {e}"),
            WorkloadError::EmptyCluster => write!(f, "generated cluster has no destinations"),
            WorkloadError::WeightMismatch { got, expected } => write!(
                f,
                "traffic pattern has {got} class weights but the pool has {expected} classes"
            ),
            WorkloadError::CountMismatch { got, expected } => write!(
                f,
                "{got} per-class node counts supplied but the class table has {expected} classes"
            ),
            WorkloadError::DegenerateWeights => {
                write!(f, "traffic pattern class weights have no positive mass")
            }
            WorkloadError::InvalidGroupSize { min, max } => {
                write!(f, "empty group-size distribution (min {min}, max {max})")
            }
            WorkloadError::DegenerateArrivals => write!(
                f,
                "arrival profile needs a positive finite mean gap / burst size"
            ),
            WorkloadError::InvalidShardCount { shards, nodes } => {
                write!(f, "cannot split a {nodes}-node pool into {shards} shard(s)")
            }
            WorkloadError::InvalidFraction => {
                write!(f, "cross-shard fraction must be a finite value in [0, 1]")
            }
            WorkloadError::InvalidMigration { global, to_shard } => {
                write!(f, "cannot migrate node {global} to shard {to_shard}")
            }
            WorkloadError::DegeneratePhase => {
                write!(f, "hot-spot pattern needs at least one session per phase")
            }
        }
    }
}

impl Error for WorkloadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WorkloadError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for WorkloadError {
    fn from(e: ModelError) -> Self {
        WorkloadError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e: WorkloadError = ModelError::EmptyClassTable.into();
        assert!(e.to_string().contains("model error"));
        assert!(Error::source(&e).is_some());
        assert!(WorkloadError::EmptyCluster
            .to_string()
            .contains("no destinations"));
        assert!(Error::source(&WorkloadError::EmptyCluster).is_none());
    }
}
