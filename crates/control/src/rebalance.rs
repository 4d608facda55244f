//! Hysteresis-gated shard rebalancing.
//!
//! The sharded service reports per-shard mean queue delays every epoch.
//! When the spread between the hottest and the coldest shard crosses
//! [`RebalanceConfig::enter_gap`], the rebalancer activates and starts
//! proposing node migrations from hot to cold; it stays active until the
//! spread falls back below the (strictly smaller) `exit_gap`, so a load
//! skew hovering around one threshold cannot make membership flap.
//!
//! Proposals are *class-aware*: the class moved is the one with the
//! largest surplus on the hot shard relative to the cold shard, so
//! repeated migrations converge toward the partitioner's even per-class
//! spread instead of draining one class. Every argmin/argmax tie breaks
//! toward the lowest shard or class index, making the decision a pure
//! function of `(config, activation state, delays, counts)`.

use serde::Serialize;

/// Tuning knobs of the [`Rebalancer`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RebalanceConfig {
    /// Queue-delay spread (hottest minus coldest shard mean, in ticks) at
    /// which the rebalancer activates.
    pub enter_gap: f64,
    /// Spread at which an active rebalancer deactivates; must be below
    /// `enter_gap` for the hysteresis to exist.
    pub exit_gap: f64,
    /// Maximum migrations proposed per epoch.
    pub max_moves: usize,
    /// A hot shard never shrinks below this many nodes.
    pub min_shard_nodes: usize,
}

impl Default for RebalanceConfig {
    /// Activate at a 64-tick spread, deactivate at 16, one move per epoch,
    /// never shrink a shard below 2 nodes.
    fn default() -> Self {
        RebalanceConfig {
            enter_gap: 64.0,
            exit_gap: 16.0,
            max_moves: 1,
            min_shard_nodes: 2,
        }
    }
}

/// One proposed migration: move one node of `class` from shard `from` to
/// shard `to`. Which concrete node moves is the caller's choice (the
/// simulator picks the least-busy node of that class, ties by lowest id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMove {
    /// Shard to shrink (the hottest).
    pub from: usize,
    /// Shard to grow (the coldest).
    pub to: usize,
    /// Class of the node to move.
    pub class: usize,
}

/// The stateful rebalancing decision loop — the only state is the
/// hysteresis activation flag.
#[derive(Debug, Clone)]
pub struct Rebalancer {
    config: RebalanceConfig,
    active: bool,
}

impl Rebalancer {
    /// A rebalancer in the inactive state.
    pub fn new(config: RebalanceConfig) -> Self {
        Rebalancer {
            config,
            active: false,
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &RebalanceConfig {
        &self.config
    }

    /// Whether the hysteresis gate is currently open.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Feeds one epoch's per-shard mean queue delays and per-shard
    /// per-class node counts, returning the migrations to apply (possibly
    /// none). Delay values must be finite (the simulator's aggregates are
    /// NaN-free by construction).
    pub fn decide(&mut self, shard_delay: &[f64], class_counts: &[Vec<usize>]) -> Vec<ShardMove> {
        debug_assert_eq!(shard_delay.len(), class_counts.len());
        if shard_delay.len() < 2 {
            return Vec::new();
        }
        let hottest = argmax(shard_delay);
        let coldest = argmin(shard_delay);
        let gap = shard_delay[hottest] - shard_delay[coldest];
        if !self.active && gap >= self.config.enter_gap {
            self.active = true;
        } else if self.active && gap <= self.config.exit_gap {
            self.active = false;
        }
        if !self.active || hottest == coldest {
            return Vec::new();
        }

        let mut counts: Vec<Vec<usize>> = class_counts.to_vec();
        let mut moves = Vec::new();
        for _ in 0..self.config.max_moves {
            let hot_total: usize = counts[hottest].iter().sum();
            if hot_total <= self.config.min_shard_nodes {
                break;
            }
            // Largest hot-minus-cold surplus among classes the hot shard
            // can still give up; ties toward the lowest class index.
            let mut best: Option<(i64, usize)> = None;
            for (c, &have) in counts[hottest].iter().enumerate() {
                if have == 0 {
                    continue;
                }
                let surplus = have as i64 - counts[coldest][c] as i64;
                if best.is_none_or(|(s, _)| surplus > s) {
                    best = Some((surplus, c));
                }
            }
            let Some((_, class)) = best else {
                break;
            };
            counts[hottest][class] -= 1;
            counts[coldest][class] += 1;
            moves.push(ShardMove {
                from: hottest,
                to: coldest,
                class,
            });
        }
        moves
    }
}

/// Index of the maximal value, first occurrence (= lowest index) on ties.
fn argmax(values: &[f64]) -> usize {
    let mut best = 0usize;
    for (i, v) in values.iter().enumerate().skip(1) {
        if *v > values[best] {
            best = i;
        }
    }
    best
}

/// Index of the minimal value, first occurrence (= lowest index) on ties.
fn argmin(values: &[f64]) -> usize {
    let mut best = 0usize;
    for (i, v) in values.iter().enumerate().skip(1) {
        if *v < values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(enter: f64, exit: f64, moves: usize) -> RebalanceConfig {
        RebalanceConfig {
            enter_gap: enter,
            exit_gap: exit,
            max_moves: moves,
            min_shard_nodes: 2,
        }
    }

    #[test]
    fn stays_quiet_below_the_entry_threshold() {
        let mut rb = Rebalancer::new(config(50.0, 10.0, 4));
        let counts = vec![vec![3, 3], vec![3, 3]];
        assert!(rb.decide(&[40.0, 0.0], &counts).is_empty());
        assert!(!rb.is_active());
    }

    #[test]
    fn hysteresis_enters_at_enter_gap_and_exits_at_exit_gap() {
        let mut rb = Rebalancer::new(config(50.0, 10.0, 1));
        let counts = vec![vec![4, 4], vec![2, 2]];
        // Crosses the entry threshold: active, moves from shard 0 to 1.
        let moves = rb.decide(&[60.0, 0.0], &counts);
        assert!(rb.is_active());
        assert_eq!(
            moves,
            vec![ShardMove {
                from: 0,
                to: 1,
                class: 0
            }]
        );
        // Still above exit: keeps moving even though below the entry gap.
        assert!(!rb.decide(&[30.0, 0.0], &counts).is_empty());
        assert!(rb.is_active());
        // Falls to the exit gap: deactivates and stops.
        assert!(rb.decide(&[10.0, 0.0], &counts).is_empty());
        assert!(!rb.is_active());
    }

    #[test]
    fn moves_the_class_with_the_largest_surplus() {
        let mut rb = Rebalancer::new(config(1.0, 0.5, 2));
        // Class 1 has the bigger hot-cold surplus (4-0 vs 2-1).
        let counts = vec![vec![2, 4], vec![1, 0]];
        let moves = rb.decide(&[100.0, 0.0], &counts);
        assert_eq!(moves.len(), 2);
        assert_eq!(moves[0].class, 1);
        // After one move the surplus order is 2-1 vs 3-1: still class 1.
        assert_eq!(moves[1].class, 1);
    }

    #[test]
    fn never_shrinks_a_shard_below_the_floor() {
        let mut rb = Rebalancer::new(config(1.0, 0.5, 10));
        let counts = vec![vec![2, 1], vec![0, 0]];
        // Hot shard has 3 nodes, floor is 2: exactly one move allowed.
        let moves = rb.decide(&[100.0, 0.0], &counts);
        assert_eq!(moves.len(), 1);
        // At the floor nothing moves, though the gate stays active.
        let at_floor = vec![vec![1, 1], vec![1, 1]];
        assert!(rb.decide(&[100.0, 0.0], &at_floor).is_empty());
        assert!(rb.is_active());
    }

    #[test]
    fn ties_break_toward_the_lowest_index() {
        let mut rb = Rebalancer::new(config(1.0, 0.5, 1));
        let counts = vec![vec![3, 3], vec![3, 3], vec![3, 3]];
        // Shards 0 and 2 tie as hottest; 1 and 2... all-equal delays give
        // gap 0 → inactive. Use distinct hot with tied colds instead.
        assert!(rb.decide(&[0.0, 0.0, 0.0], &counts).is_empty());
        let moves = rb.decide(&[50.0, 0.0, 0.0], &counts);
        assert_eq!(
            moves,
            vec![ShardMove {
                from: 0,
                to: 1,
                class: 0
            }]
        );
        // Tied surpluses pick the lowest class.
        let mut rb = Rebalancer::new(config(1.0, 0.5, 1));
        let even = vec![vec![2, 2], vec![2, 2]];
        let moves = rb.decide(&[50.0, 0.0], &even);
        assert_eq!(moves[0].class, 0);
    }

    /// Every small cluster shape, replayed move by move: the sharded
    /// service picks a concrete node of `mv.class` in shard `mv.from` for
    /// each move and panics if there is none, so each proposal must be
    /// feasible on the counts left by the moves before it.
    #[test]
    fn never_proposes_a_move_the_cluster_cannot_carry_out() {
        const CLASSES: usize = 2;
        const MAX_COUNT: usize = 3;
        let mut decisions = 0usize;
        let mut moves_checked = 0usize;
        for shards in 2..=3usize {
            let cells = shards * CLASSES;
            for code in 0..(MAX_COUNT + 1).pow(cells as u32) {
                let mut rest = code;
                let counts: Vec<Vec<usize>> = (0..shards)
                    .map(|_| {
                        (0..CLASSES)
                            .map(|_| {
                                let count = rest % (MAX_COUNT + 1);
                                rest /= MAX_COUNT + 1;
                                count
                            })
                            .collect()
                    })
                    .collect();
                for max_moves in 1..=4 {
                    for min_shard_nodes in 0..=2 {
                        for hot in 0..shards {
                            let mut rb = Rebalancer::new(RebalanceConfig {
                                enter_gap: 1.0,
                                exit_gap: 0.5,
                                max_moves,
                                min_shard_nodes,
                            });
                            let mut delays = vec![0.0; shards];
                            delays[hot] = 100.0;
                            let moves = rb.decide(&delays, &counts);
                            decisions += 1;
                            assert!(moves.len() <= max_moves);
                            let mut left = counts.clone();
                            for mv in moves {
                                assert_eq!(
                                    mv.from, hot,
                                    "{counts:?}: a move must leave the hot shard"
                                );
                                assert_ne!(mv.to, hot);
                                assert!(
                                    left[mv.from][mv.class] > 0,
                                    "{counts:?}, max_moves {max_moves}, floor \
                                     {min_shard_nodes}: {mv:?} moves a class shard {} no \
                                     longer holds",
                                    mv.from
                                );
                                left[mv.from][mv.class] -= 1;
                                left[mv.to][mv.class] += 1;
                                assert!(
                                    left[hot].iter().sum::<usize>() >= min_shard_nodes,
                                    "{counts:?}: {mv:?} shrinks the hot shard below \
                                     {min_shard_nodes} nodes"
                                );
                                moves_checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(decisions, 153_600);
        assert!(moves_checked > 0, "the grid must exercise some moves");
    }

    #[test]
    fn single_shard_clusters_never_rebalance() {
        let mut rb = Rebalancer::new(config(0.0, 0.0, 5));
        assert!(rb.decide(&[1000.0], &[vec![5]]).is_empty());
    }
}
