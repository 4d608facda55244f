//! Differential properties of the Theorem 2 DP fill kernel.
//!
//! [`DpTable::build`] runs an allocation-free kernel whose correctness
//! rests on two non-obvious arguments (linear mixed-radix indexing, and a
//! fill in ascending packed index, which every dependency precedes). These
//! tests pin it against [`DpTable::build_reference`] — the retained
//! straightforward recurrence transcription — on random
//! limited-heterogeneity instances with `k ≤ 3` types: every table state
//! must agree exactly, and the reconstructed optimal schedules must be
//! identical trees with identical evaluated timings.

use hnow_core::algorithms::dp::DpTable;
use hnow_core::schedule::{reception_completion, validate};
use hnow_model::{NetParams, NodeSpec, Time, TypedMulticast};
use proptest::prelude::*;

/// Builds a random typed instance from raw draws: up to three classes whose
/// overheads are massaged into the model's correlation assumption (receive
/// overheads monotone in send overheads), so the instance can also be
/// lowered to a `MulticastSet` for schedule validation.
fn typed_from_raw(raw: Vec<(u64, u64)>, count_pool: &[usize], source_raw: usize) -> TypedMulticast {
    let k = raw.len();
    let mut raw: Vec<(u64, u64)> = raw.into_iter().map(|(s, e)| (s, s + e)).collect();
    raw.sort_unstable();
    let mut last = 0;
    let specs: Vec<NodeSpec> = raw
        .into_iter()
        .map(|(s, r)| {
            let r = r.max(last);
            last = r;
            NodeSpec::new(s, r)
        })
        .collect();
    let counts: Vec<usize> = count_pool[..k].to_vec();
    TypedMulticast::new(specs, source_raw % k, counts).expect("draw is a valid typed instance")
}

/// Enumerates every count vector inside `dims` (inclusive), in mixed-radix
/// order.
fn all_count_vectors(dims: &[usize]) -> Vec<Vec<usize>> {
    let mut all = Vec::new();
    let mut counts = vec![0usize; dims.len()];
    loop {
        all.push(counts.clone());
        let mut j = 0;
        while j < dims.len() {
            if counts[j] < dims[j] {
                counts[j] += 1;
                break;
            }
            counts[j] = 0;
            j += 1;
        }
        if j == dims.len() {
            break;
        }
    }
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The kernel reproduces the reference table exactly: same value in
    /// every (source type, count vector) state.
    #[test]
    fn kernel_values_match_reference_on_every_state(
        raw in prop::collection::vec((1u64..=6, 0u64..=6), 1..=3),
        count_pool in prop::collection::vec(0usize..=3, 3..=3),
        source_raw in 0usize..3,
        latency in 0u64..4,
    ) {
        let typed = typed_from_raw(raw.clone(), &count_pool, source_raw);
        let net = NetParams::new(latency);
        let reference = DpTable::build_reference(&typed, net);
        let fast = DpTable::build(&typed, net);
        prop_assert_eq!(fast.dims(), reference.dims());
        prop_assert_eq!(fast.num_states(), reference.num_states());
        for counts in all_count_vectors(reference.dims()) {
            for s in 0..reference.k() {
                prop_assert_eq!(
                    fast.query(s, &counts),
                    reference.query(s, &counts),
                    "s={}, counts={:?}", s, &counts
                );
            }
        }
    }

    /// Kernel and reference agree beyond values: the recorded choices
    /// reconstruct identical schedule trees, and the trees evaluate to the
    /// table optimum on the lowered multicast set.
    #[test]
    fn kernel_reconstruction_matches_reference(
        raw in prop::collection::vec((1u64..=6, 0u64..=6), 1..=3),
        count_pool in prop::collection::vec(0usize..=3, 3..=3),
        source_raw in 0usize..3,
        latency in 0u64..4,
    ) {
        let typed = typed_from_raw(raw.clone(), &count_pool, source_raw);
        let net = NetParams::new(latency);
        let reference = DpTable::build_reference(&typed, net);
        let reference_tree = reference.reconstruct_schedule().unwrap();
        let set = typed.to_multicast_set().unwrap();
        let fast = DpTable::build(&typed, net);
        let fast_tree = fast.reconstruct_schedule().unwrap();
        prop_assert_eq!(&fast_tree, &reference_tree);
        validate(&fast_tree, &set).unwrap();
        let timing = if set.num_destinations() == 0 {
            Time::ZERO
        } else {
            reception_completion(&fast_tree, &set, net).unwrap()
        };
        prop_assert_eq!(timing, fast.optimum());
    }
}
