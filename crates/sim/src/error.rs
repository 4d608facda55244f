//! Simulator error types.

use hnow_core::CoreError;
use hnow_model::{NodeId, Time};
use std::error::Error;
use std::fmt;

/// Errors raised while executing a schedule on the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The schedule tree was malformed (incomplete, wrong size, …).
    Schedule(CoreError),
    /// The per-node overhead vector does not match the schedule size.
    SpecLengthMismatch {
        /// Number of overhead entries supplied.
        got: usize,
        /// Number of nodes in the schedule.
        expected: usize,
    },
    /// A node was asked to start a communication overhead while still busy
    /// with another one — the receive-send model forbids this, so hitting it
    /// means the schedule or the engine is inconsistent.
    OccupancyViolation {
        /// The node that would have been double-booked.
        node: NodeId,
        /// The time at which the conflicting activity was to start.
        at: Time,
        /// The time until which the node is already busy.
        busy_until: Time,
    },
    /// A traffic configuration named a planner missing from the registry.
    UnknownPlanner {
        /// The name that failed to resolve.
        name: String,
    },
    /// A traffic session referenced a node outside the pool, or listed the
    /// same node twice (source included).
    MalformedSession {
        /// Id of the offending session.
        id: u64,
    },
    /// A traffic session could not be turned into a valid multicast
    /// instance (e.g. the pool's class table violates the correlation
    /// assumption).
    Instance {
        /// Id of the offending session.
        session: u64,
        /// The model's rejection.
        error: hnow_model::ModelError,
    },
    /// A sharded cluster could not partition its pool (zero shards, or more
    /// shards than nodes).
    Sharding(hnow_workload::WorkloadError),
    /// A control configuration named a gateway policy missing from the
    /// registry.
    UnknownPolicy {
        /// The name that failed to resolve.
        name: String,
    },
    /// A [`RunConfig::threads`](crate::config::RunConfig::threads) pin
    /// could not build its rayon pool.
    ThreadPool {
        /// The pool builder's rejection.
        reason: String,
    },
    /// A session's chunk train would end past [`Time::MAX`]: its last
    /// release (`arrival + interval × (chunks − 1)`) plus its planned
    /// completion overflows the clock.
    TimeOverflow {
        /// Id of the offending session.
        session: u64,
    },
    /// A loss profile's retry backoff is so large that its longest retry
    /// delay (65 × backoff) does not fit the clock.
    RetryBackoffOverflow {
        /// The configured backoff.
        backoff: u64,
    },
    /// A session's chunk train asks for more `(chunk, node)` state than
    /// one session may hold: (members + 1) × chunks exceeds
    /// [`MAX_TRAIN_SLOTS`](crate::sessions::MAX_TRAIN_SLOTS). Raised before
    /// anything is sized from the chunk count.
    TrainTooLarge {
        /// Id of the offending session.
        session: u64,
        /// Its (members + 1) × chunks.
        slots: u64,
    },
    /// A simulated component outgrows the occupancy kernel's 32-bit ids:
    /// more than `u32::MAX` sessions or nodes, or more than `u32::MAX`
    /// tree nodes or `(chunk, node)` slots over its sessions.
    ComponentTooLarge {
        /// Sessions in the component.
        sessions: usize,
        /// Pool nodes the component touches.
        nodes: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Schedule(e) => write!(f, "invalid schedule: {e}"),
            SimError::SpecLengthMismatch { got, expected } => write!(
                f,
                "overhead vector has {got} entries but the schedule has {expected} nodes"
            ),
            SimError::OccupancyViolation {
                node,
                at,
                busy_until,
            } => write!(
                f,
                "node {node} asked to start an overhead at {at} while busy until {busy_until}"
            ),
            SimError::UnknownPlanner { name } => {
                write!(f, "no planner named {name:?} in the registry")
            }
            SimError::MalformedSession { id } => write!(
                f,
                "session {id} references nodes outside the pool or reuses a node"
            ),
            SimError::Instance { session, error } => {
                write!(f, "session {session} is not a valid instance: {error}")
            }
            SimError::Sharding(e) => write!(f, "invalid shard partition: {e}"),
            SimError::UnknownPolicy { name } => {
                write!(f, "no gateway policy named {name:?} in the registry")
            }
            SimError::ThreadPool { reason } => {
                write!(f, "could not build the pinned thread pool: {reason}")
            }
            SimError::TimeOverflow { session } => write!(
                f,
                "session {session}'s chunk train ends past the largest representable time"
            ),
            SimError::RetryBackoffOverflow { backoff } => write!(
                f,
                "retry backoff {backoff} makes the longest retry delay overflow the clock"
            ),
            SimError::TrainTooLarge { session, slots } => write!(
                f,
                "session {session}'s chunk train needs {slots} (chunk, node) slots, more than {}",
                crate::sessions::MAX_TRAIN_SLOTS
            ),
            SimError::ComponentTooLarge { sessions, nodes } => write!(
                f,
                "a component of {sessions} sessions over {nodes} nodes outgrows the kernel's 32-bit ids"
            ),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Schedule(e) => Some(e),
            SimError::Instance { error, .. } => Some(error),
            SimError::Sharding(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for SimError {
    fn from(e: CoreError) -> Self {
        SimError::Schedule(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SimError::OccupancyViolation {
            node: NodeId(2),
            at: Time::new(5),
            busy_until: Time::new(7),
        };
        assert!(e.to_string().contains("busy until 7"));
        let wrapped: SimError = CoreError::IncompleteSchedule { missing: 1 }.into();
        assert!(wrapped.to_string().contains("invalid schedule"));
        assert!(Error::source(&wrapped).is_some());
        let mism = SimError::SpecLengthMismatch {
            got: 2,
            expected: 3,
        };
        assert!(mism.to_string().contains("2 entries"));
    }
}
