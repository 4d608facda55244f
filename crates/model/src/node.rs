//! Node identifiers and per-node communication parameters.

use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// Index of a node within a multicast set.
///
/// By convention (following the paper) index `0` is the source `p_0` and
/// indices `1..=n` are the destinations `p_1, …, p_n` in non-decreasing order
/// of overhead.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The source node `p_0`.
    pub const SOURCE: NodeId = NodeId(0);

    /// Returns the raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }

    /// Whether this is the multicast source.
    #[inline]
    pub const fn is_source(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_source() {
            write!(f, "p0 (source)")
        } else {
            write!(f, "p{}", self.0)
        }
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId(index)
    }
}

/// Per-node communication parameters in the heterogeneous receive-send model.
///
/// * `send` — the sending overhead `o_send(p)`: time the node is busy when it
///   transmits the multicast message to one other node.
/// * `recv` — the receiving overhead `o_recv(p)`: time the node is busy when
///   it receives the message.
///
/// The paper assumes positive integer overheads; [`NodeSpec::new`] enforces a
/// positive sending overhead and allows a zero receiving overhead, which
/// expresses models without an explicit receive cost (e.g. the
/// heterogeneous-node model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeSpec {
    send: Time,
    recv: Time,
}

impl NodeSpec {
    /// Creates a node specification from raw overhead values.
    ///
    /// # Panics
    ///
    /// Panics if `send == 0`; use [`NodeSpec::try_new`] for a fallible
    /// constructor.
    pub fn new(send: u64, recv: u64) -> Self {
        Self::try_new(send, recv).expect("sending overhead must be positive")
    }

    /// Fallible constructor; returns `None` if `send == 0`.
    pub fn try_new(send: u64, recv: u64) -> Option<Self> {
        if send == 0 {
            None
        } else {
            Some(NodeSpec {
                send: Time::new(send),
                recv: Time::new(recv),
            })
        }
    }

    /// The sending overhead `o_send(p)`.
    #[inline]
    pub const fn send(&self) -> Time {
        self.send
    }

    /// The receiving overhead `o_recv(p)`.
    #[inline]
    pub const fn recv(&self) -> Time {
        self.recv
    }

    /// The receive-send ratio `α = o_recv / o_send` used by Theorem 1.
    ///
    /// Published measurements place this ratio between roughly 1.05 and 1.85
    /// for real workstation clusters; the approximation bound of the greedy
    /// algorithm depends on the extremes of this ratio across a multicast
    /// set.
    #[inline]
    pub fn receive_send_ratio(&self) -> f64 {
        self.recv.as_f64() / self.send.as_f64()
    }

    /// Ordering key used to sort destinations "fast first": non-decreasing
    /// sending overhead, ties broken by receiving overhead.
    #[inline]
    pub fn speed_key(&self) -> (Time, Time) {
        (self.send, self.recv)
    }

    /// Compares two nodes by speed (faster = smaller overheads first).
    #[inline]
    pub fn speed_cmp(&self, other: &NodeSpec) -> Ordering {
        self.speed_key().cmp(&other.speed_key())
    }

    /// Whether `self` is at least as fast as `other` in *both* coordinates.
    #[inline]
    pub fn dominates(&self, other: &NodeSpec) -> bool {
        self.send <= other.send && self.recv <= other.recv
    }
}

impl fmt::Display for NodeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(send={}, recv={})", self.send, self.recv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_basics() {
        assert!(NodeId::SOURCE.is_source());
        assert!(!NodeId(3).is_source());
        assert_eq!(NodeId::from(5).index(), 5);
        assert_eq!(NodeId(0).to_string(), "p0 (source)");
        assert_eq!(NodeId(4).to_string(), "p4");
        assert!(NodeId(1) < NodeId(2));
    }

    #[test]
    fn spec_construction() {
        let s = NodeSpec::new(2, 3);
        assert_eq!(s.send(), Time::new(2));
        assert_eq!(s.recv(), Time::new(3));
        assert_eq!(NodeSpec::try_new(0, 3), None);
        assert!(NodeSpec::try_new(1, 0).is_some());
    }

    #[test]
    #[should_panic(expected = "sending overhead must be positive")]
    fn zero_send_panics() {
        let _ = NodeSpec::new(0, 1);
    }

    #[test]
    fn ratio() {
        let s = NodeSpec::new(2, 3);
        assert!((s.receive_send_ratio() - 1.5).abs() < 1e-12);
        let fast = NodeSpec::new(20, 21);
        assert!((fast.receive_send_ratio() - 1.05).abs() < 1e-12);
    }

    #[test]
    fn speed_ordering() {
        let fast = NodeSpec::new(1, 1);
        let mid = NodeSpec::new(1, 2);
        let slow = NodeSpec::new(2, 3);
        assert_eq!(fast.speed_cmp(&slow), Ordering::Less);
        assert_eq!(fast.speed_cmp(&mid), Ordering::Less);
        assert_eq!(slow.speed_cmp(&slow), Ordering::Equal);
        assert!(fast.dominates(&slow));
        assert!(!slow.dominates(&fast));
        assert!(fast.dominates(&fast));
    }

    #[test]
    fn display_format() {
        assert_eq!(NodeSpec::new(2, 3).to_string(), "(send=2, recv=3)");
    }

    #[test]
    fn serde_roundtrip() {
        let s = NodeSpec::new(4, 7);
        let json = serde_json::to_string(&s).unwrap();
        let back: NodeSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
