//! Multicast problem instances.

use crate::error::ModelError;
use crate::node::{NodeId, NodeSpec};
use crate::params::NetParams;
use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A multicast set `S = {p_0, p_1, …, p_n}`: one source node `p_0` plus `n`
/// destination nodes, each described by its receive-send overheads.
///
/// Following the paper's convention, destinations are stored in
/// **non-decreasing order of overhead** (faster workstations first);
/// [`MulticastSet::new`] sorts its input and all node indices used elsewhere
/// in the workspace ([`NodeId`]) refer to this canonical order, with index 0
/// denoting the source.
///
/// The model assumes that the sending and receiving overheads are *directly
/// correlated* with node speed: no node may have a strictly smaller sending
/// overhead but strictly larger receiving overhead than another. Instances
/// violating this are rejected with [`ModelError::OverheadInversion`]. The
/// strict form of the paper's assumption (`o_send(p) < o_send(q)` **iff**
/// `o_recv(p) < o_recv(q)`) can additionally be checked with
/// [`MulticastSet::has_strict_correlation`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MulticastSet {
    source: NodeSpec,
    destinations: Vec<NodeSpec>,
}

impl MulticastSet {
    /// Builds a multicast set, sorting destinations into the canonical
    /// non-decreasing overhead order and validating the correlation
    /// assumption.
    pub fn new(source: NodeSpec, mut destinations: Vec<NodeSpec>) -> Result<Self, ModelError> {
        destinations.sort_by(|a, b| a.speed_cmp(b));
        let set = MulticastSet {
            source,
            destinations,
        };
        set.check_correlation()?;
        Ok(set)
    }

    /// Builds a homogeneous multicast set of `n` destinations identical to
    /// the source — the degenerate case in which the receive-send model
    /// reduces to a homogeneous overhead model.
    pub fn homogeneous(spec: NodeSpec, n: usize) -> Self {
        MulticastSet {
            source: spec,
            destinations: vec![spec; n],
        }
    }

    fn check_correlation(&self) -> Result<(), ModelError> {
        // A violation is a pair p, q with send(p) < send(q) but
        // recv(p) > recv(q). Scan nodes grouped by sending overhead in
        // increasing order; every node must receive at least as slowly as the
        // slowest receiver among strictly faster senders.
        let mut all: Vec<NodeSpec> = Vec::with_capacity(self.destinations.len() + 1);
        all.push(self.source);
        all.extend_from_slice(&self.destinations);
        all.sort_by(|a, b| a.speed_cmp(b));

        let mut max_recv_smaller_send = Time::ZERO;
        let mut i = 0;
        while i < all.len() {
            let send = all[i].send();
            let mut j = i;
            let mut group_min_recv = Time::MAX;
            let mut group_max_recv = Time::ZERO;
            while j < all.len() && all[j].send() == send {
                group_min_recv = group_min_recv.min(all[j].recv());
                group_max_recv = group_max_recv.max(all[j].recv());
                j += 1;
            }
            if i > 0 && group_min_recv < max_recv_smaller_send {
                // Find a concrete witness pair for the error message.
                let slower = all[i..j]
                    .iter()
                    .find(|s| s.recv() < max_recv_smaller_send)
                    .copied()
                    .unwrap_or(all[i]);
                let faster = all[..i]
                    .iter()
                    .filter(|s| s.send() < send)
                    .max_by_key(|s| s.recv())
                    .copied()
                    .unwrap_or(all[0]);
                if faster.send() < slower.send() && faster.recv() > slower.recv() {
                    return Err(ModelError::OverheadInversion {
                        faster: (faster.send().raw(), faster.recv().raw()),
                        slower: (slower.send().raw(), slower.recv().raw()),
                    });
                }
            }
            max_recv_smaller_send = max_recv_smaller_send.max(group_max_recv);
            i = j;
        }
        Ok(())
    }

    /// The source node `p_0`.
    #[inline]
    pub fn source(&self) -> NodeSpec {
        self.source
    }

    /// Number of destination nodes `n`.
    #[inline]
    pub fn num_destinations(&self) -> usize {
        self.destinations.len()
    }

    /// Total number of participating nodes, `n + 1`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.destinations.len() + 1
    }

    /// The `i`-th destination (0-based, i.e. `p_{i+1}` in the paper's
    /// numbering), in the canonical non-decreasing overhead order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_destinations()`.
    #[inline]
    pub fn destination(&self, i: usize) -> NodeSpec {
        self.destinations[i]
    }

    /// The destinations in canonical order.
    #[inline]
    pub fn destinations(&self) -> &[NodeSpec] {
        &self.destinations
    }

    /// Looks up a node by its [`NodeId`]: id 0 is the source, id `i ≥ 1` is
    /// the destination `p_i`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn spec(&self, id: NodeId) -> NodeSpec {
        if id.is_source() {
            self.source
        } else {
            self.destinations[id.index() - 1]
        }
    }

    /// Iterates over `(NodeId, NodeSpec)` for every participating node,
    /// source first.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, NodeSpec)> + '_ {
        std::iter::once((NodeId::SOURCE, self.source)).chain(
            self.destinations
                .iter()
                .enumerate()
                .map(|(i, &s)| (NodeId(i + 1), s)),
        )
    }

    /// Iterates over the destination ids `p_1, …, p_n` in canonical order.
    pub fn destination_ids(&self) -> impl Iterator<Item = NodeId> {
        (1..=self.destinations.len()).map(NodeId)
    }

    /// The maximum receive-send ratio `α_max` over *all* participating nodes
    /// (source included), as in Theorem 1.
    pub fn alpha_max(&self) -> f64 {
        self.iter_nodes()
            .map(|(_, s)| s.receive_send_ratio())
            .fold(f64::MIN, f64::max)
    }

    /// The minimum receive-send ratio `α_min` over all participating nodes.
    pub fn alpha_min(&self) -> f64 {
        self.iter_nodes()
            .map(|(_, s)| s.receive_send_ratio())
            .fold(f64::MAX, f64::min)
    }

    /// The receiving-overhead spread `β = max_i o_recv(p_i) − min_i
    /// o_recv(p_i)` over the **destinations**, as in Theorem 1.
    ///
    /// Returns zero for an instance with no destinations.
    pub fn beta(&self) -> Time {
        if self.destinations.is_empty() {
            return Time::ZERO;
        }
        let max = self
            .destinations
            .iter()
            .map(|s| s.recv())
            .max()
            .unwrap_or(Time::ZERO);
        let min = self
            .destinations
            .iter()
            .map(|s| s.recv())
            .min()
            .unwrap_or(Time::ZERO);
        max - min
    }

    /// Whether all participating nodes have identical overheads.
    pub fn is_homogeneous(&self) -> bool {
        self.iter_nodes().all(|(_, s)| s == self.source)
    }

    /// Whether the instance satisfies the paper's *strict* correlation
    /// assumption: `o_send(p) < o_send(q)` **iff** `o_recv(p) < o_recv(q)`
    /// for every pair of participating nodes.
    pub fn has_strict_correlation(&self) -> bool {
        let mut all: Vec<NodeSpec> = self.iter_nodes().map(|(_, s)| s).collect();
        all.sort_by(|a, b| a.speed_cmp(b));
        all.windows(2).all(|w| {
            let (a, b) = (w[0], w[1]);
            // Sorted by (send, recv): strict iff fails only when sends are
            // equal but recvs differ, or sends differ but recvs are equal.
            if a.send() == b.send() {
                a.recv() == b.recv()
            } else {
                a.recv() < b.recv()
            }
        })
    }

    /// Number of *distinct* node types (distinct overhead pairs) among the
    /// participating nodes — the `k` of Theorem 2.
    pub fn num_distinct_types(&self) -> usize {
        let mut all: Vec<NodeSpec> = self.iter_nodes().map(|(_, s)| s).collect();
        all.sort_by(|a, b| a.speed_cmp(b));
        all.dedup();
        all.len()
    }
}

impl fmt::Display for MulticastSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "source {} -> [", self.source)?;
        for (i, d) in self.destinations.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

/// A complete receive-send multicast instance: the participating nodes plus
/// the network parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instance {
    /// Source and destination overheads.
    pub set: MulticastSet,
    /// Network latency.
    pub net: NetParams,
}

impl Instance {
    /// Bundles a multicast set and network parameters.
    pub fn new(set: MulticastSet, net: NetParams) -> Self {
        Instance { set, net }
    }

    /// Number of destinations.
    pub fn num_destinations(&self) -> usize {
        self.set.num_destinations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1() -> MulticastSet {
        let slow = NodeSpec::new(2, 3);
        let fast = NodeSpec::new(1, 1);
        MulticastSet::new(slow, vec![slow, fast, fast, fast]).unwrap()
    }

    #[test]
    fn destinations_are_sorted() {
        let set = figure1();
        assert_eq!(set.num_destinations(), 4);
        assert_eq!(set.num_nodes(), 5);
        assert_eq!(set.destination(0), NodeSpec::new(1, 1));
        assert_eq!(set.destination(3), NodeSpec::new(2, 3));
        // NodeId access: 0 = source, 1..=4 destinations.
        assert_eq!(set.spec(NodeId(0)), NodeSpec::new(2, 3));
        assert_eq!(set.spec(NodeId(1)), NodeSpec::new(1, 1));
        assert_eq!(set.spec(NodeId(4)), NodeSpec::new(2, 3));
    }

    #[test]
    fn iteration_orders() {
        let set = figure1();
        let ids: Vec<usize> = set.iter_nodes().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        let dest_ids: Vec<usize> = set.destination_ids().map(|id| id.index()).collect();
        assert_eq!(dest_ids, vec![1, 2, 3, 4]);
    }

    #[test]
    fn alpha_and_beta() {
        let set = figure1();
        // Fast nodes: ratio 1. Slow nodes: ratio 1.5.
        assert!((set.alpha_max() - 1.5).abs() < 1e-12);
        assert!((set.alpha_min() - 1.0).abs() < 1e-12);
        // Destination receive overheads are {1,1,1,3}; spread is 2.
        assert_eq!(set.beta(), Time::new(2));
    }

    #[test]
    fn inversion_is_rejected() {
        // (1, 9) sends faster than (2, 3) but receives slower: inversion.
        let err = MulticastSet::new(
            NodeSpec::new(1, 1),
            vec![NodeSpec::new(1, 9), NodeSpec::new(2, 3)],
        )
        .unwrap_err();
        assert!(matches!(err, ModelError::OverheadInversion { .. }));
    }

    #[test]
    fn inversion_involving_source_is_rejected() {
        let err = MulticastSet::new(NodeSpec::new(1, 9), vec![NodeSpec::new(2, 3)]).unwrap_err();
        assert!(matches!(err, ModelError::OverheadInversion { .. }));
    }

    #[test]
    fn weak_monotonicity_is_accepted() {
        // Same send overhead, different recv overheads: allowed by the weak
        // check but not by the strict correlation assumption.
        let set = MulticastSet::new(
            NodeSpec::new(1, 1),
            vec![NodeSpec::new(2, 3), NodeSpec::new(2, 4)],
        )
        .unwrap();
        assert!(!set.has_strict_correlation());

        let strict = figure1();
        assert!(strict.has_strict_correlation());
    }

    #[test]
    fn homogeneous_and_types() {
        let homo = MulticastSet::homogeneous(NodeSpec::new(3, 4), 5);
        assert!(homo.is_homogeneous());
        assert_eq!(homo.num_distinct_types(), 1);
        assert_eq!(homo.beta(), Time::ZERO);

        let set = figure1();
        assert!(!set.is_homogeneous());
        assert_eq!(set.num_distinct_types(), 2);
    }

    #[test]
    fn empty_destination_list() {
        let set = MulticastSet::new(NodeSpec::new(2, 2), vec![]).unwrap();
        assert_eq!(set.num_destinations(), 0);
        assert_eq!(set.beta(), Time::ZERO);
        assert!(set.is_homogeneous());
    }

    #[test]
    fn display_and_serde() {
        let set = figure1();
        let text = set.to_string();
        assert!(text.starts_with("source (send=2, recv=3) -> ["));
        let json = serde_json::to_string(&set).unwrap();
        let back: MulticastSet = serde_json::from_str(&json).unwrap();
        assert_eq!(set, back);
    }

    #[test]
    fn instance_bundle() {
        let set = MulticastSet::new(NodeSpec::new(1, 1), vec![NodeSpec::new(2, 3)]).unwrap();
        let inst = Instance::new(set.clone(), NetParams::new(2));
        assert_eq!(inst.num_destinations(), 1);
        assert_eq!(inst.set, set);
        let json = serde_json::to_string(&inst).unwrap();
        let back: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(inst, back);
    }
}
