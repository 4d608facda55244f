//! Gateway-placement policies.
//!
//! A cross-shard session designates one *gateway* per remote shard it
//! touches: the node that receives the payload from the gateway tree and
//! fans it out to the shard's local members. Which member is promoted
//! matters — the hierarchical reliable-multicast literature (Byun) found
//! placement policy dominating achieved makespan — so the choice is
//! pluggable behind [`GatewayPolicy`], with policies selected by registry
//! name exactly like planners.
//!
//! Every policy is a pure function of the candidate list it is handed. The
//! sharded cluster groups a session's members by `(shard, id)`, so
//! candidates arrive in ascending global-id order; and every policy's key
//! ends in the node id, so no two candidates tie and the choice would be
//! the same in any order. It is deterministic and independent of thread
//! count.

use hnow_model::NodeSpec;

/// One member of a remote shard, as seen by a gateway policy.
#[derive(Debug, Clone, Copy)]
pub struct GatewayCandidate {
    /// Global pool id of the candidate node.
    pub node: usize,
    /// The candidate's overhead spec.
    pub spec: NodeSpec,
    /// The node's busy horizon at the start of the current control epoch
    /// (raw ticks): how far into the future the node is already committed.
    /// Snapshotted at the epoch boundary, never updated mid-epoch, so the
    /// value a policy sees does not depend on planning order details.
    pub load: u64,
    /// How many of the session's members (including this candidate) live on
    /// the candidate's shard — the local fan-out the gateway must serve.
    pub shard_members: usize,
}

/// A gateway-placement policy: picks which member of a remote shard is
/// promoted to gateway for one cross-shard session.
///
/// # Contract
///
/// `select` receives a non-empty candidate slice in **ascending global-id
/// order** and returns an index into it. Implementations must be pure: the
/// same candidates must always produce the same index (no interior state,
/// no randomness), and ties must break deterministically — by convention
/// on `(speed_key, node id)` — so that the sharded cluster's reports stay
/// byte-identical per seed at every thread count.
pub trait GatewayPolicy: Sync {
    /// Registry name of the policy (`--policy` on the demo binaries).
    fn name(&self) -> &'static str;

    /// One-line human description for listings.
    fn describe(&self) -> &'static str;

    /// Index of the chosen gateway within `candidates` (non-empty).
    fn select(&self, candidates: &[GatewayCandidate]) -> usize;
}

/// The baseline: the fastest member wins, ties by lowest global id — the
/// policy of every run without a control plane.
struct FastestMember;

impl GatewayPolicy for FastestMember {
    fn name(&self) -> &'static str {
        "fastest-member"
    }

    fn describe(&self) -> &'static str {
        "fastest member by (send, recv) overhead, ties by lowest id"
    }

    fn select(&self, candidates: &[GatewayCandidate]) -> usize {
        argmin_by_key(candidates, |c| (c.spec.speed_key(), c.node))
    }
}

/// Least-busy member: the node with the smallest committed busy horizon at
/// the epoch boundary, ties by speed then id. Under a hot spot this steers
/// gateway (and thus fan-out) work away from already-saturated nodes.
struct LoadAware;

impl GatewayPolicy for LoadAware {
    fn name(&self) -> &'static str {
        "load-aware"
    }

    fn describe(&self) -> &'static str {
        "least busy horizon at epoch start, ties by speed then lowest id"
    }

    fn select(&self, candidates: &[GatewayCandidate]) -> usize {
        argmin_by_key(candidates, |c| (c.load, c.spec.speed_key(), c.node))
    }
}

/// Minimizes a proxy for the stitched reception completion of the
/// gateway's subtree: the gateway pays one receive overhead to take the
/// payload, then at best serializes sends to its remaining local members,
/// so `recv + (shard_members - 1) * send` lower-bounds the subtree's
/// contribution to the composed `R_T`. Ties by speed then id.
struct StitchedRtMin;

impl GatewayPolicy for StitchedRtMin {
    fn name(&self) -> &'static str {
        "stitched-rt-min"
    }

    fn describe(&self) -> &'static str {
        "minimal recv + (local members - 1) * send proxy for the stitched R_T"
    }

    fn select(&self, candidates: &[GatewayCandidate]) -> usize {
        argmin_by_key(candidates, |c| {
            let fan_out = c.shard_members.saturating_sub(1) as u64;
            let proxy = c
                .spec
                .recv()
                .raw()
                .saturating_add(fan_out.saturating_mul(c.spec.send().raw()));
            (proxy, c.spec.speed_key(), c.node)
        })
    }
}

/// Index of the minimal element. Every policy's key ends in the node id,
/// so keys never tie and the index does not depend on the candidates'
/// order; equal leading components break toward the lowest global id.
fn argmin_by_key<K: Ord>(
    candidates: &[GatewayCandidate],
    key: impl Fn(&GatewayCandidate) -> K,
) -> usize {
    debug_assert!(!candidates.is_empty(), "no gateway candidates");
    let mut best = 0usize;
    let mut best_key = key(&candidates[0]);
    for (i, candidate) in candidates.iter().enumerate().skip(1) {
        let k = key(candidate);
        if k < best_key {
            best = i;
            best_key = k;
        }
    }
    best
}

static FASTEST_MEMBER: FastestMember = FastestMember;
static LOAD_AWARE: LoadAware = LoadAware;
static STITCHED_RT_MIN: StitchedRtMin = StitchedRtMin;

/// Every registered gateway policy, in stable listing order.
pub fn policies() -> &'static [&'static dyn GatewayPolicy] {
    static REGISTRY: [&dyn GatewayPolicy; 3] = [&FASTEST_MEMBER, &LOAD_AWARE, &STITCHED_RT_MIN];
    &REGISTRY
}

/// Looks a policy up by its registry name.
pub fn find_policy(name: &str) -> Option<&'static dyn GatewayPolicy> {
    policies().iter().copied().find(|p| p.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(node: usize, send: u64, recv: u64, load: u64, members: usize) -> GatewayCandidate {
        GatewayCandidate {
            node,
            spec: NodeSpec::new(send, recv),
            load,
            shard_members: members,
        }
    }

    #[test]
    fn registry_finds_every_policy_and_rejects_unknown_names() {
        for p in policies() {
            let found = find_policy(p.name()).expect("registered policy resolves");
            assert_eq!(found.name(), p.name());
            assert!(!p.describe().is_empty());
        }
        assert!(find_policy("no-such-policy").is_none());
        assert_eq!(policies().len(), 3);
    }

    #[test]
    fn fastest_member_matches_the_speed_then_id_baseline() {
        let candidates = vec![
            candidate(3, 4, 6, 100, 3),
            candidate(5, 2, 3, 100, 3),
            candidate(9, 2, 3, 0, 3),
        ];
        // Nodes 5 and 9 tie on speed; the lower id wins regardless of load.
        let p = find_policy("fastest-member").unwrap();
        assert_eq!(candidates[p.select(&candidates)].node, 5);
    }

    #[test]
    fn load_aware_prefers_the_idle_node() {
        let candidates = vec![
            candidate(3, 1, 1, 50, 2),
            candidate(5, 9, 9, 0, 2),
            candidate(7, 1, 1, 50, 2),
        ];
        let p = find_policy("load-aware").unwrap();
        assert_eq!(candidates[p.select(&candidates)].node, 5);
        // Equal loads fall back to speed, then id.
        let tied = vec![candidate(4, 2, 2, 10, 2), candidate(2, 2, 2, 10, 2)];
        assert_eq!(tied[p.select(&tied)].node, 2);
    }

    #[test]
    fn stitched_rt_min_accounts_for_local_fan_out() {
        // Fast sender with slow receive vs balanced node, 4 local members:
        // proxy = recv + 3 * send.
        let candidates = vec![
            candidate(1, 2, 20, 0, 4), // proxy 26
            candidate(6, 5, 5, 0, 4),  // proxy 20
        ];
        let p = find_policy("stitched-rt-min").unwrap();
        assert_eq!(candidates[p.select(&candidates)].node, 6);
        // With a single local member the fan-out term vanishes.
        let singles = vec![candidate(1, 2, 20, 0, 1), candidate(6, 5, 5, 0, 1)];
        assert_eq!(singles[p.select(&singles)].node, 6);
        let singles = vec![candidate(1, 2, 4, 0, 1), candidate(6, 5, 5, 0, 1)];
        assert_eq!(singles[p.select(&singles)].node, 1);
    }

    #[test]
    fn selection_is_pure() {
        let candidates = vec![
            candidate(0, 3, 3, 7, 2),
            candidate(1, 2, 5, 1, 2),
            candidate(2, 5, 2, 3, 2),
        ];
        for p in policies() {
            let first = p.select(&candidates);
            for _ in 0..5 {
                assert_eq!(p.select(&candidates), first, "{}", p.name());
            }
        }
    }
}
