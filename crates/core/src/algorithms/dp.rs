//! Optimal multicast for limited heterogeneity (Section 4, Theorem 2).
//!
//! When the cluster contains only `k` distinct workstation **types**, the
//! optimal multicast problem becomes tractable: the paper's Lemma 4 gives a
//! recurrence over states `τ(s, i_1, …, i_k)` — the minimum reception
//! completion time of a multicast from a source of type `s` to `i_j`
//! destinations of type `j`:
//!
//! ```text
//! τ(s, 0, …, 0) = 0
//! τ(s, i_1, …, i_k) =
//!   min over ℓ with i_ℓ ≥ 1, and over 0 ≤ y_j ≤ i_j (y_ℓ ≤ i_ℓ − 1), of
//!     max( τ(ℓ, y_1, …, y_k)                       + S(s) + L + R(ℓ),
//!          τ(s, i_1 − y_1, …, i_ℓ − 1 − y_ℓ, …)    + S(s) )
//! ```
//!
//! The source's first transmission goes to some node of type `ℓ`, which then
//! optimally serves a sub-multicast described by the `y_j`; concurrently the
//! source (after its first sending overhead) optimally serves everything
//! that remains. Filling the table bottom-up costs `O(k² · n^{2k})`
//! (`O(n^{2k})` for constant `k`), and the completed table answers *every*
//! multicast over the same node types in constant time — the paper suggests
//! precomputing it exactly for this reason.
//!
//! [`DpTable`] exposes the table, the optimum for the instance it was built
//! from, arbitrary queries, and reconstruction of an optimal
//! [`ScheduleTree`].
//!
//! # Fill kernel
//!
//! The table build is the hottest path in the whole workspace (the paper
//! recommends precomputing one table per network precisely because it is
//! expensive), so [`DpTable::build`] runs an allocation-free kernel instead
//! of the straightforward recurrence transcription:
//!
//! * **One scan per state for every source type.** Taking `S(s)` out of
//!   both arms of the recurrence gives, with `avail` the counts less one
//!   node of type `ℓ`,
//!
//!   ```text
//!   τ(s, i) = S(s) + min over (ℓ, y) of max( τ(ℓ, y) + L + R(ℓ), τ(s, avail − y) )
//!   ```
//!
//!   The candidate splits `(ℓ, y)` do not depend on `s`, so the kernel walks
//!   them once per state and scores each split for every source type. For
//!   each `s` it keeps the first split that reaches the minimum, in the
//!   order the per-source recurrence scans them (ascending `ℓ`, then
//!   ascending packed `y`), so values and choices are those of
//!   [`DpTable::build_reference`].
//! * **Linear mixed-radix indexing.** Count vectors are packed into a mixed
//!   radix integer. Because the subtracted vector of the recurrence satisfies
//!   `y ≤ avail` componentwise, the subtraction has no borrows, so
//!   `idx(avail − y) = idx(avail) − idx(y)` — the whole y-enumeration is pure
//!   index arithmetic with zero per-iteration heap traffic. The digit `y_0`
//!   has stride 1, so for fixed higher digits the subtree values
//!   `τ(ℓ, y)` form one ascending contiguous run and each source type's
//!   remainders `τ(s, avail − y)` one descending run; the kernel scans them
//!   as slices.
//! * **Fill order.** Both dependencies of a state `c`, the subtree counts
//!   `y` and the remainder `avail − y`, are componentwise `≤ c` and differ
//!   from it (`avail` is `c` less one node), so each has a smaller packed
//!   index. One scan over the packed indices in ascending order therefore
//!   fills the table. The scan carries the state's digits forward by
//!   mixed-radix increment, so no state is decoded with division.
//! * **Widening.** A state's value and first-minimum choice depend only on
//!   its count vector `c`: its candidate splits are the vectors below `c`,
//!   and the scan order above never mentions the table's dimensions. A
//!   state's dependencies also lie below `c`. So a table over wider
//!   dimensions agrees with a narrower one on every state the narrower box
//!   covers. [`DpCache`](crate::planner::DpCache) uses this to widen an
//!   outgrown table: every state of the old table is copied, each choice's
//!   packed `y` is re-packed into the new strides, and only the states
//!   outside the old box are filled. A fresh build is the widening of an
//!   empty box, so both run the one fill path.
//!
//! The pre-kernel transcription survives as [`DpTable::build_reference`], an
//! executable specification that the differential tests compare the kernel
//! with.

use crate::error::CoreError;
use crate::schedule::tree::ScheduleTree;
use hnow_model::{NetParams, NodeId, Time, TypedMulticast};
use std::collections::VecDeque;

/// Dynamic-programming table of optimal reception completion times for a
/// limited-heterogeneity cluster.
#[derive(Debug, Clone)]
pub struct DpTable {
    typed: TypedMulticast,
    net: NetParams,
    /// Upper bound (inclusive) of each count dimension: the instance's
    /// per-class destination counts.
    dims: Vec<usize>,
    /// Radix offsets for mixed-radix indexing of count vectors.
    strides: Vec<usize>,
    /// Number of count-vector states (product of `dims[j] + 1`).
    count_states: usize,
    /// `value[s * count_states + idx(counts)]` = τ(s, counts).
    value: Vec<Time>,
    /// Best first-transmission choice per state: `(ℓ, packed index of the
    /// subtree count vector y)`. `usize::MAX` for base states.
    choice: Vec<(usize, usize)>,
}

impl DpTable {
    /// Builds the full table for the given typed instance: all states
    /// `τ(s, j_1, …, j_k)` with `j_ℓ ≤ i_ℓ` and every source type `s`, by
    /// one ascending scan of the allocation-free kernel over the packed
    /// state indices (see the module docs).
    pub fn build(typed: &TypedMulticast, net: NetParams) -> DpTable {
        DpTable::widen(None, typed, net)
    }

    /// Builds the table for `typed` by widening `from`: every state of
    /// `from` is copied, each choice's packed `y` re-packed into the new
    /// strides, and only the states outside `from`'s dimensions are filled.
    /// The result equals [`DpTable::build`] of `typed` in every value and
    /// choice (see the module docs); with no table to widen, it is that
    /// build.
    ///
    /// # Panics
    ///
    /// If `from` differs from `typed` in class overheads or network, or has
    /// a dimension larger than `typed`'s counts.
    pub(crate) fn widen(from: Option<&DpTable>, typed: &TypedMulticast, net: NetParams) -> DpTable {
        let mut table = DpTable::empty(typed, net);
        if let Some(from) = from {
            assert!(
                from.typed.specs() == typed.specs() && from.net == net && table.covers(&from.dims),
                "a table widens only to covering dimensions over its own classes and network"
            );
            table.copy_states(from);
        }
        table.fill(from.map(DpTable::dims));
        table
    }

    /// Builds the table with the straightforward recurrence transcription
    /// that predates the kernel: comparison-sorted state order and
    /// per-iteration digit vectors. Kept as an executable specification: the
    /// differential tests assert the kernel reproduces its values and
    /// choices exactly. Use [`DpTable::build`] everywhere else; this is
    /// *much* slower.
    pub fn build_reference(typed: &TypedMulticast, net: NetParams) -> DpTable {
        let mut table = DpTable::empty(typed, net);
        table.fill_reference();
        table
    }

    /// Allocates an unfilled table: dimensions, strides and `MAX`-initialised
    /// value/choice storage.
    fn empty(typed: &TypedMulticast, net: NetParams) -> DpTable {
        let k = typed.k();
        let dims: Vec<usize> = typed.counts().to_vec();
        let mut strides = vec![0usize; k];
        let mut count_states = 1usize;
        for j in 0..k {
            strides[j] = count_states;
            count_states *= dims[j] + 1;
        }
        let total_states = k * count_states;
        DpTable {
            typed: typed.clone(),
            net,
            dims,
            strides,
            count_states,
            value: vec![Time::MAX; total_states],
            choice: vec![(usize::MAX, usize::MAX); total_states],
        }
    }

    /// Convenience: builds the table and immediately reconstructs an optimal
    /// schedule for the instance, returning `(schedule, optimum)`.
    pub fn optimal_schedule(
        typed: &TypedMulticast,
        net: NetParams,
    ) -> Result<(ScheduleTree, Time), CoreError> {
        let table = DpTable::build(typed, net);
        let tree = table.reconstruct_schedule()?;
        Ok((tree, table.optimum()))
    }

    fn idx_of(&self, counts: &[usize]) -> usize {
        counts.iter().zip(&self.strides).map(|(&c, &s)| c * s).sum()
    }

    fn counts_of(&self, mut idx: usize) -> Vec<usize> {
        self.dims
            .iter()
            .map(|&dim| {
                let count = idx % (dim + 1);
                idx /= dim + 1;
                count
            })
            .collect()
    }

    fn state(&self, source: usize, count_idx: usize) -> usize {
        source * self.count_states + count_idx
    }

    /// Copies every state of `from`, whose dimensions this table covers,
    /// re-packing each count index, and each choice's subtree index, into
    /// this table's strides.
    fn copy_states(&mut self, from: &DpTable) {
        // `repack[i]` is this table's index of `from`'s count vector `i`,
        // by running mixed-radix increment over `from`'s dimensions.
        let mut repack = Vec::with_capacity(from.count_states);
        let mut digits = vec![0usize; from.k()];
        let mut idx = 0usize;
        for _ in 0..from.count_states {
            repack.push(idx);
            for (j, digit) in digits.iter_mut().enumerate() {
                if *digit < from.dims[j] {
                    *digit += 1;
                    idx += self.strides[j];
                    break;
                }
                idx -= *digit * self.strides[j];
                *digit = 0;
            }
        }
        for s in 0..from.k() {
            for (old_idx, &new_idx) in repack.iter().enumerate() {
                let old = from.state(s, old_idx);
                let new = self.state(s, new_idx);
                self.value[new] = from.value[old];
                let (first, y_idx) = from.choice[old];
                if first != usize::MAX {
                    self.choice[new] = (first, repack[y_idx]);
                }
            }
        }
    }

    /// Fills every state outside `covered`, the dimensions of the table
    /// [`DpTable::copy_states`] copied in (`None` when nothing was copied),
    /// in ascending packed index: every dependency of a state has a smaller
    /// index (see the module docs), so it is already final when read.
    fn fill(&mut self, covered: Option<&[usize]>) {
        let k = self.dims.len();
        // The all-zero count vector is trivially complete for every source
        // type (and already copied when widening).
        for s in 0..k {
            let state = self.state(s, 0);
            self.value[state] = Time::ZERO;
        }
        // One scratch set for the whole fill; `digits` is the count vector
        // of `count_idx`, carried forward by mixed-radix increment.
        let mut digits = vec![0usize; k];
        let mut avail = vec![0usize; k];
        let mut y = vec![0usize; k];
        let mut values = vec![Time::MAX; k];
        let mut choices = vec![(usize::MAX, usize::MAX); k];
        for count_idx in 1..self.count_states {
            for (digit, &dim) in digits.iter_mut().zip(&self.dims) {
                if *digit < dim {
                    *digit += 1;
                    break;
                }
                *digit = 0;
            }
            if covered.is_some_and(|dims| digits.iter().zip(dims).all(|(d, dim)| d <= dim)) {
                continue;
            }
            self.kernel(
                count_idx,
                &digits,
                &mut avail,
                &mut y,
                &mut values,
                &mut choices,
            );
            for s in 0..k {
                let state = self.state(s, count_idx);
                self.value[state] = values[s];
                self.choice[state] = choices[s];
            }
        }
    }

    /// Evaluates the Lemma 4 recurrence for one non-base state, for every
    /// source type `s` in one walk over the candidate splits `(first, y)`,
    /// reading only states of smaller packed index.
    ///
    /// All slice parameters have length `k`: `digits` holds the state's
    /// count vector, `avail`/`y` are digit scratch, `out_values`/
    /// `out_choices` receive the per-source results.
    /// A split scores `max(τ(first, y) + L + R(first), τ(s, avail − y))`
    /// for source `s`, whose value is `S(s)` plus its least score. The
    /// inner enumeration performs **no allocation and no division**:
    /// `y ≤ avail` componentwise means the mixed-radix subtraction has no
    /// borrows, so `idx(avail − y) = idx(avail) − idx(y)`, and with `y_0`
    /// of stride 1 each run of `y_0` reads two contiguous slices.
    fn kernel(
        &self,
        count_idx: usize,
        digits: &[usize],
        avail: &mut [usize],
        y: &mut [usize],
        out_values: &mut [Time],
        out_choices: &mut [(usize, usize)],
    ) {
        let k = digits.len();
        let cs = self.count_states;
        let latency = self.net.latency();
        debug_assert!(digits.iter().any(|&d| d > 0), "base state has no choice");
        out_values.fill(Time::MAX);
        out_choices.fill((usize::MAX, usize::MAX));
        for first in 0..k {
            if digits[first] == 0 {
                continue;
            }
            let head = latency + self.typed.spec_of(first).recv();
            let value_first = &self.value[first * cs..(first + 1) * cs];
            // Counts available to split between the first child's subtree
            // and the source's remainder, and their packed index (linear:
            // one stride subtraction).
            let avail_idx = count_idx - self.strides[first];
            avail.copy_from_slice(digits);
            avail[first] -= 1;
            let run = avail[0];
            // Enumerate the digits y_1.. in mixed radix, keeping their
            // packed index `high`. For each, y_0 runs over 0..=run: the
            // subtree values are `value_first[high..=high + run]`, and source
            // s's remainders the run of τ(s, ·) ending at `avail_idx - high`,
            // read backwards.
            y.fill(0);
            let mut high = 0usize;
            loop {
                let subtree = &value_first[high..high + run + 1];
                let low = avail_idx - high - run;
                let sources = self.value.chunks_exact(cs).zip(out_values.iter_mut());
                for ((value_s, best), best_choice) in sources.zip(out_choices.iter_mut()) {
                    let remaining = &value_s[low..low + run + 1];
                    let (mut min, mut at) = (*best, usize::MAX);
                    for y0 in 0..subtree.len() {
                        let (sub, rest) = (subtree[y0], remaining[run - y0]);
                        debug_assert_ne!(sub, Time::MAX);
                        debug_assert_ne!(rest, Time::MAX);
                        let score = (sub + head).max(rest);
                        if score < min {
                            min = score;
                            at = y0;
                        }
                    }
                    if at != usize::MAX {
                        *best = min;
                        *best_choice = (first, high + at);
                    }
                }
                // Advance y_1.. in mixed radix.
                let mut j = 1;
                while j < k {
                    if y[j] < avail[j] {
                        y[j] += 1;
                        high += self.strides[j];
                        break;
                    }
                    high -= y[j] * self.strides[j];
                    y[j] = 0;
                    j += 1;
                }
                if j == k {
                    break;
                }
            }
        }
        for (s, value) in out_values.iter_mut().enumerate() {
            *value = self.typed.spec_of(s).send() + *value;
        }
    }

    /// The pre-kernel fill: direct transcription of the recurrence. See
    /// [`DpTable::build_reference`].
    fn fill_reference(&mut self) {
        let k = self.dims.len();
        // Order count vectors by their total so every dependency (which has a
        // strictly smaller total) is already computed.
        let mut order: Vec<usize> = (0..self.count_states).collect();
        order.sort_by_key(|&idx| self.counts_of(idx).iter().sum::<usize>());

        for &count_idx in &order {
            let counts = self.counts_of(count_idx);
            let total: usize = counts.iter().sum();
            for s in 0..k {
                let state = self.state(s, count_idx);
                if total == 0 {
                    self.value[state] = Time::ZERO;
                    continue;
                }
                let send_s = self.typed.spec_of(s).send();
                let mut best = Time::MAX;
                let mut best_choice = (usize::MAX, usize::MAX);
                for first in 0..k {
                    if counts[first] == 0 {
                        continue;
                    }
                    let recv_first = self.typed.spec_of(first).recv();
                    let head = send_s + self.net.latency() + recv_first;
                    // Remaining counts if the subtree takes `y` plus the
                    // first node itself.
                    let mut avail = counts.clone();
                    avail[first] -= 1;
                    // Enumerate all y with 0 ≤ y_j ≤ avail[j].
                    let mut y = vec![0usize; k];
                    loop {
                        let y_idx = self.idx_of(&y);
                        let subtree = self.value[self.state(first, y_idx)];
                        let mut rest = vec![0usize; k];
                        for j in 0..k {
                            rest[j] = avail[j] - y[j];
                        }
                        let rest_idx = self.idx_of(&rest);
                        let remaining = self.value[self.state(s, rest_idx)];
                        debug_assert_ne!(subtree, Time::MAX);
                        debug_assert_ne!(remaining, Time::MAX);
                        let completion = (subtree + head).max(remaining + send_s);
                        if completion < best {
                            best = completion;
                            best_choice = (first, y_idx);
                        }
                        // Advance y in mixed radix.
                        let mut j = 0;
                        loop {
                            if j == k {
                                break;
                            }
                            if y[j] < avail[j] {
                                y[j] += 1;
                                break;
                            }
                            y[j] = 0;
                            j += 1;
                        }
                        if j == k {
                            break;
                        }
                    }
                }
                self.value[state] = best;
                self.choice[state] = best_choice;
            }
        }
    }

    /// Number of distinct types `k`.
    pub fn k(&self) -> usize {
        self.dims.len()
    }

    /// Upper bound (inclusive) of each count dimension — the per-class
    /// destination counts of the instance the table was built from.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Whether a per-class count vector lies inside the table's dimensions
    /// (and therefore can be queried and reconstructed from this table).
    pub fn covers(&self, counts: &[usize]) -> bool {
        counts.len() == self.k() && counts.iter().zip(&self.dims).all(|(&c, &d)| c <= d)
    }

    /// Number of states stored in the table.
    pub fn num_states(&self) -> usize {
        self.value.len()
    }

    /// The optimal reception completion time for the instance the table was
    /// built from.
    pub fn optimum(&self) -> Time {
        self.query(self.typed.source_class(), self.typed.counts())
            .expect("the instance's own state is always in the table")
    }

    /// τ(source type, per-class counts) for any sub-instance covered by the
    /// table (i.e. `counts[j] ≤` the build instance's counts). Returns `None`
    /// for out-of-range queries.
    pub fn query(&self, source_class: usize, counts: &[usize]) -> Option<Time> {
        if source_class >= self.k() || counts.len() != self.k() {
            return None;
        }
        if counts.iter().zip(&self.dims).any(|(&c, &d)| c > d) {
            return None;
        }
        Some(self.value[self.state(source_class, self.idx_of(counts))])
    }

    /// Reconstructs an optimal schedule tree for the build instance, over the
    /// node ids of [`TypedMulticast::to_multicast_set`].
    pub fn reconstruct_schedule(&self) -> Result<ScheduleTree, CoreError> {
        let typed = self.typed.clone();
        self.schedule_for(&typed).map(|(tree, _)| tree)
    }

    /// Reconstructs an optimal schedule (and its value) for **any** typed
    /// instance covered by this table: same class overheads in the same
    /// order, per-class counts within [`DpTable::dims`]. The source class
    /// may differ from the build instance's — the table stores every source
    /// type.
    ///
    /// This is the whole-network reuse the paper recommends in Section 4:
    /// build the table once for the full cluster, then answer every
    /// sub-multicast without re-running the dynamic program.
    pub fn schedule_for(&self, typed: &TypedMulticast) -> Result<(ScheduleTree, Time), CoreError> {
        if typed.specs() != self.typed.specs()
            || !self.covers(typed.counts())
            || typed.source_class() >= self.k()
        {
            return Err(CoreError::DpTableMismatch {
                table_k: self.k(),
                request_k: typed.k(),
            });
        }
        let n = typed.total_destinations();
        let mut tree = ScheduleTree::new(n + 1);
        // Pools of concrete node ids per class, consumed front to back.
        let mut pools: Vec<VecDeque<NodeId>> = (0..self.k())
            .map(|c| typed.node_ids_for_class(c).into())
            .collect();
        self.expand(
            typed.source_class(),
            self.idx_of(typed.counts()),
            NodeId::SOURCE,
            &mut pools,
            &mut tree,
        )?;
        let value = self.value[self.state(typed.source_class(), self.idx_of(typed.counts()))];
        Ok((tree, value))
    }

    fn expand(
        &self,
        source_class: usize,
        count_idx: usize,
        root: NodeId,
        pools: &mut [VecDeque<NodeId>],
        tree: &mut ScheduleTree,
    ) -> Result<(), CoreError> {
        let counts = self.counts_of(count_idx);
        if counts.iter().all(|&c| c == 0) {
            return Ok(());
        }
        let (first, y_idx) = self.choice[self.state(source_class, count_idx)];
        debug_assert_ne!(first, usize::MAX, "non-base state must have a choice");
        let child = pools[first]
            .pop_front()
            .ok_or(CoreError::ClassPoolExhausted { class: first })?;
        tree.attach(root, child)?;
        // The child's subtree consumes the y nodes.
        self.expand(first, y_idx, child, pools, tree)?;
        // The root continues with everything that remains.
        let y = self.counts_of(y_idx);
        let mut rest = counts;
        rest[first] -= 1;
        for j in 0..self.k() {
            rest[j] -= y[j];
        }
        let rest_idx = self.idx_of(&rest);
        self.expand(source_class, rest_idx, root, pools, tree)
    }
}

/// Convenience: computes the optimal reception completion time of an
/// arbitrary [`MulticastSet`](hnow_model::MulticastSet) by grouping its nodes
/// into types and running the dynamic program.
///
/// This is exact for any instance, but its running time is exponential in
/// the number of *distinct* node types, so it is only practical when that
/// number is small (Theorem 2's setting).
pub fn dp_optimum(set: &hnow_model::MulticastSet, net: NetParams) -> Time {
    let typed = TypedMulticast::from_multicast_set(set);
    DpTable::build(&typed, net).optimum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::greedy::{greedy_with_options, GreedyOptions};
    use crate::schedule::times::reception_completion;
    use crate::schedule::validate::validate;
    use hnow_model::{MulticastSet, NodeSpec};

    fn figure1_typed() -> TypedMulticast {
        TypedMulticast::new(
            vec![NodeSpec::new(1, 1), NodeSpec::new(2, 3)],
            1,
            vec![3, 1],
        )
        .unwrap()
    }

    #[test]
    fn figure1_optimum_is_eight() {
        let table = DpTable::build(&figure1_typed(), NetParams::new(1));
        // The paper's Figure 1 shows schedules of length 10 and 9; the true
        // optimum for this instance is 8.
        assert_eq!(table.optimum(), Time::new(8));
    }

    #[test]
    fn reconstruction_matches_table_value() {
        let typed = figure1_typed();
        let net = NetParams::new(1);
        let (tree, value) = DpTable::optimal_schedule(&typed, net).unwrap();
        let set = typed.to_multicast_set().unwrap();
        validate(&tree, &set).unwrap();
        assert_eq!(reception_completion(&tree, &set, net).unwrap(), value);
    }

    #[test]
    fn single_type_reduces_to_homogeneous_broadcast() {
        // k = 1, recv = 0, L = 0: optimum is ⌈log2(n+1)⌉ · send.
        for n in [1usize, 2, 3, 4, 7, 8, 15] {
            let typed = TypedMulticast::new(vec![NodeSpec::new(3, 0)], 0, vec![n]).unwrap();
            let table = DpTable::build(&typed, NetParams::new(0));
            let rounds = usize::BITS - n.leading_zeros();
            assert_eq!(table.optimum(), Time::new(3 * u64::from(rounds)), "n = {n}");
        }
    }

    #[test]
    fn empty_multicast_is_zero() {
        let typed = TypedMulticast::new(
            vec![NodeSpec::new(1, 1), NodeSpec::new(2, 3)],
            0,
            vec![0, 0],
        )
        .unwrap();
        let table = DpTable::build(&typed, NetParams::new(1));
        assert_eq!(table.optimum(), Time::ZERO);
        let tree = table.reconstruct_schedule().unwrap();
        assert!(tree.is_complete());
        assert_eq!(tree.num_destinations(), 0);
    }

    #[test]
    fn dp_never_exceeds_greedy() {
        let cases = vec![
            (
                vec![NodeSpec::new(1, 1), NodeSpec::new(2, 3)],
                1,
                vec![3, 1],
            ),
            (
                vec![NodeSpec::new(1, 1), NodeSpec::new(4, 7)],
                0,
                vec![5, 5],
            ),
            (
                vec![
                    NodeSpec::new(1, 1),
                    NodeSpec::new(2, 2),
                    NodeSpec::new(6, 9),
                ],
                2,
                vec![4, 3, 2],
            ),
        ];
        for latency in [0u64, 1, 3] {
            let net = NetParams::new(latency);
            for (specs, src, counts) in &cases {
                let typed = TypedMulticast::new(specs.clone(), *src, counts.clone()).unwrap();
                let set = typed.to_multicast_set().unwrap();
                let dp = DpTable::build(&typed, net).optimum();
                let greedy_tree = greedy_with_options(&set, net, GreedyOptions::REFINED);
                let greedy = reception_completion(&greedy_tree, &set, net).unwrap();
                assert!(dp <= greedy, "dp {dp} > greedy {greedy}");
            }
        }
    }

    #[test]
    fn table_answers_sub_multicast_queries() {
        let typed = TypedMulticast::new(
            vec![NodeSpec::new(1, 1), NodeSpec::new(2, 3)],
            1,
            vec![3, 2],
        )
        .unwrap();
        let net = NetParams::new(1);
        let table = DpTable::build(&typed, net);
        // Every sub-instance must agree with a table built directly for it.
        for a in 0..=3usize {
            for b in 0..=2usize {
                for s in 0..2usize {
                    let direct = TypedMulticast::new(
                        vec![NodeSpec::new(1, 1), NodeSpec::new(2, 3)],
                        s,
                        vec![a, b],
                    )
                    .unwrap();
                    let expected = DpTable::build(&direct, net).optimum();
                    assert_eq!(table.query(s, &[a, b]), Some(expected), "s={s} a={a} b={b}");
                }
            }
        }
        // Out-of-range queries.
        assert_eq!(table.query(0, &[4, 0]), None);
        assert_eq!(table.query(5, &[1, 1]), None);
        assert_eq!(table.query(0, &[1]), None);
    }

    #[test]
    fn schedule_for_serves_sub_instances_and_other_sources() {
        let specs = vec![NodeSpec::new(1, 1), NodeSpec::new(2, 3)];
        let net = NetParams::new(1);
        let full = TypedMulticast::new(specs.clone(), 1, vec![3, 2]).unwrap();
        let table = DpTable::build(&full, net);
        assert_eq!(table.dims(), &[3, 2]);
        assert!(table.covers(&[2, 1]));
        assert!(!table.covers(&[4, 0]));
        assert!(!table.covers(&[1]));

        // Every covered sub-instance (including other source classes) must
        // match a table built directly for it, value and reconstruction.
        for a in 0..=3usize {
            for b in 0..=2usize {
                for s in 0..2usize {
                    let sub = TypedMulticast::new(specs.clone(), s, vec![a, b]).unwrap();
                    let (tree, value) = table.schedule_for(&sub).unwrap();
                    let direct = DpTable::build(&sub, net);
                    assert_eq!(value, direct.optimum(), "s={s} a={a} b={b}");
                    let set = sub.to_multicast_set().unwrap();
                    validate(&tree, &set).unwrap();
                    assert_eq!(reception_completion(&tree, &set, net).unwrap(), value);
                }
            }
        }

        // Out-of-coverage requests are rejected.
        let too_big = TypedMulticast::new(specs.clone(), 0, vec![4, 0]).unwrap();
        assert!(matches!(
            table.schedule_for(&too_big),
            Err(CoreError::DpTableMismatch { .. })
        ));
        let other_specs = TypedMulticast::new(vec![NodeSpec::new(5, 9)], 0, vec![2]).unwrap();
        assert!(matches!(
            table.schedule_for(&other_specs),
            Err(CoreError::DpTableMismatch { .. })
        ));
    }

    #[test]
    fn dp_optimum_for_plain_multicast_set() {
        let set = MulticastSet::new(
            NodeSpec::new(2, 3),
            vec![
                NodeSpec::new(1, 1),
                NodeSpec::new(1, 1),
                NodeSpec::new(1, 1),
                NodeSpec::new(2, 3),
            ],
        )
        .unwrap();
        assert_eq!(dp_optimum(&set, NetParams::new(1)), Time::new(8));
    }

    #[test]
    fn single_destination_value() {
        let typed = TypedMulticast::new(
            vec![NodeSpec::new(2, 5), NodeSpec::new(3, 7)],
            0,
            vec![0, 1],
        )
        .unwrap();
        let table = DpTable::build(&typed, NetParams::new(4));
        // send(src) + L + recv(dest) = 2 + 4 + 7.
        assert_eq!(table.optimum(), Time::new(13));
    }

    /// Asserts two tables are bit-identical: same instance, dimensions,
    /// values and choices.
    fn assert_same_table(a: &DpTable, b: &DpTable) {
        assert_eq!(a.typed, b.typed);
        assert_eq!(a.dims(), b.dims());
        assert_eq!(a.value, b.value);
        assert_eq!(a.choice, b.choice);
    }

    /// Asserts the one-scan fill of `typed` equals the reference fill, table
    /// and reconstructed tree alike.
    fn assert_matches_reference(typed: &TypedMulticast, net: NetParams) {
        let reference = DpTable::build_reference(typed, net);
        let fast = DpTable::build(typed, net);
        assert_same_table(&fast, &reference);
        assert_eq!(
            fast.reconstruct_schedule().unwrap(),
            reference.reconstruct_schedule().unwrap(),
            "dims {:?}",
            typed.counts()
        );
    }

    #[test]
    fn kernel_matches_the_reference() {
        let net = NetParams::new(2);
        let cases = vec![
            TypedMulticast::new(vec![NodeSpec::new(1, 1)], 0, vec![9]).unwrap(),
            TypedMulticast::new(
                vec![NodeSpec::new(1, 1), NodeSpec::new(2, 3)],
                1,
                vec![4, 3],
            )
            .unwrap(),
            TypedMulticast::new(
                vec![
                    NodeSpec::new(1, 1),
                    NodeSpec::new(2, 2),
                    NodeSpec::new(4, 7),
                ],
                0,
                vec![3, 2, 2],
            )
            .unwrap(),
        ];
        for typed in &cases {
            assert_matches_reference(typed, net);
        }
    }

    #[test]
    fn nine_type_table_matches_the_reference() {
        // k = 9, every dimension 1: all 512 count states are corners.
        let nine: Vec<NodeSpec> = (1..=9).map(|i| NodeSpec::new(i, 2 * i)).collect();
        let typed = TypedMulticast::new(nine, 4, vec![1; 9]).unwrap();
        assert_matches_reference(&typed, NetParams::new(2));
    }

    #[test]
    fn widening_equals_a_fresh_build() {
        // Each widening copies the narrower table's box and fills the rest;
        // the result must be bit-identical to building the wide instance
        // from nothing.
        let net = NetParams::new(2);
        let two = vec![NodeSpec::new(1, 1), NodeSpec::new(3, 5)];
        let three = vec![
            NodeSpec::new(1, 1),
            NodeSpec::new(2, 2),
            NodeSpec::new(4, 7),
        ];
        let chains: [(&[NodeSpec], &[&[usize]]); 2] = [
            (&two, &[&[12, 20], &[40, 40], &[41, 44]]),
            (&three, &[&[0, 2, 1], &[3, 2, 1], &[3, 4, 5], &[6, 6, 6]]),
        ];
        for (specs, chain) in chains {
            let mut table: Option<DpTable> = None;
            for (step, dims) in chain.iter().enumerate() {
                let typed =
                    TypedMulticast::new(specs.to_vec(), step % specs.len(), dims.to_vec()).unwrap();
                let widened = DpTable::widen(table.as_ref(), &typed, net);
                let fresh = DpTable::build(&typed, net);
                assert_same_table(&widened, &fresh);
                assert_eq!(
                    widened.reconstruct_schedule().unwrap(),
                    fresh.reconstruct_schedule().unwrap(),
                    "dims {dims:?}"
                );
                table = Some(widened);
            }
        }
    }

    #[test]
    fn reconstruction_respects_class_membership() {
        let typed = TypedMulticast::new(
            vec![NodeSpec::new(1, 1), NodeSpec::new(5, 8)],
            0,
            vec![4, 3],
        )
        .unwrap();
        let net = NetParams::new(2);
        let (tree, value) = DpTable::optimal_schedule(&typed, net).unwrap();
        let set = typed.to_multicast_set().unwrap();
        validate(&tree, &set).unwrap();
        assert_eq!(reception_completion(&tree, &set, net).unwrap(), value);
        // The set's canonical order puts the four fast nodes first.
        assert_eq!(set.destination(0), NodeSpec::new(1, 1));
        assert_eq!(set.destination(6), NodeSpec::new(5, 8));
    }
}
