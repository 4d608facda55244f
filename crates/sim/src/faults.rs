//! Seeded, deterministic message-loss injection.
//!
//! The paper's model is fully deterministic — a scheduled send always
//! arrives. [`LossProfile`] adds the missing failure axis: each delivery
//! (original or repair retransmission) is independently lost with a
//! configured probability, optionally elevated during Gilbert-style burst
//! windows.
//!
//! # The determinism contract for loss draws
//!
//! Every draw is a **pure keyed hash**, never a sequential RNG stream:
//!
//! * a delivery's loss draw is keyed by
//!   `(seed, session id, sender, receiver, attempt, send time)`,
//! * a burst-window draw by `(seed, session id, sender, time bucket)`,
//! * a retry-backoff jitter draw by `(seed, session id, receiver, attempt)`.
//!
//! None of the keys involve event-*processing* order, so the same offered
//! traffic produces the same losses regardless of how the surrounding
//! simulation is batched, sharded, partitioned into components or spread
//! over threads — the property the byte-identical report contract rests
//! on. (Burst windows are keyed by simulated time, which the kernel itself
//! computes deterministically.)
//!
//! A profile whose rates are all zero draws no losses at all, so fault
//! injection is strictly additive: a rate-0 lossy run is byte-identical to
//! a run with no loss configured.

use hnow_model::Time;
use serde::{Deserialize, Serialize};

/// Gilbert-style burst losses: windows of elevated loss probability.
///
/// For each `(session, sender, time bucket)` an independent keyed draw
/// decides whether the sender's link is inside a burst window; within a
/// window the loss probability is raised to [`BurstProfile::rate`] (never
/// lowered below the base rate). This models correlated outages — a busy
/// switch port, a cable hiccup — that iid loss cannot express, and is what
/// separates repairer placements: repairs funneled through one sender keep
/// redrawing inside the *same* burst windows, while distributed repairers
/// decorrelate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstProfile {
    /// Probability that any given `(session, sender, bucket)` window is
    /// bursting (clamped to `[0, 1]`).
    pub frequency: f64,
    /// Loss probability inside a burst window (clamped to `[0, 1]`; the
    /// effective rate is `max(base, rate)`).
    pub rate: f64,
    /// Width of a burst window in simulated time units (≥ 1).
    pub bucket: u64,
}

/// A complete, seeded description of injected message loss plus the repair
/// protocol's retry envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LossProfile {
    /// Base iid probability that a delivery is lost (clamped to `[0, 1]`).
    pub rate: f64,
    /// Optional burst windows layered over the base rate.
    pub burst: Option<BurstProfile>,
    /// Retransmissions a receiver may request before it is given up on and
    /// the session completes partially (graceful degradation).
    pub max_retries: u32,
    /// Base retry backoff in time units; attempt `a` waits
    /// `backoff << min(a − 1, 6)` plus keyed jitter in `[0, backoff]`. A run
    /// rejects a backoff whose longest wait, 65 × backoff, overflows `u64`
    /// ([`SimError::RetryBackoffOverflow`](crate::SimError::RetryBackoffOverflow)).
    pub backoff: u64,
    /// Optional recovery-liveness bound: once a receiver first detects a
    /// missed delivery, any repair attempt issued (or still queued on a
    /// busy repairer) more than this many time units later gives the
    /// receiver up exactly like retry exhaustion. This is what makes
    /// repairer *placement* matter for residual loss: a congested repairer
    /// whose one-port queue outgrows the deadline sheds its repairs.
    pub repair_deadline: Option<u64>,
    /// Seed of every keyed draw.
    pub seed: u64,
}

impl LossProfile {
    /// A plain iid profile: the given loss rate, no bursts, 8 retries,
    /// backoff 4.
    pub fn iid(rate: f64, seed: u64) -> Self {
        LossProfile {
            rate,
            burst: None,
            max_retries: 8,
            backoff: 4,
            repair_deadline: None,
            seed,
        }
    }

    /// Adds burst windows to the profile.
    pub fn with_burst(mut self, burst: BurstProfile) -> Self {
        self.burst = Some(burst);
        self
    }

    /// Whether the profile can ever lose a delivery. A lossless profile
    /// makes the kernel's fault path draw-free, which is what keeps a
    /// rate-0 run byte-identical to an unfaulted one.
    pub fn is_lossless(&self) -> bool {
        self.rate <= 0.0
            && self
                .burst
                .is_none_or(|b| b.frequency <= 0.0 || b.rate <= 0.0)
    }

    /// Whether the delivery `sender -> receiver` (tree-local ids) of
    /// `session`'s attempt `attempt` (0 = the original transmission,
    /// 1..=max_retries = repairs) sent at time `at` is lost.
    pub fn lost(
        &self,
        session: u64,
        sender: usize,
        receiver: usize,
        attempt: u32,
        at: Time,
    ) -> bool {
        let mut rate = self.rate;
        if let Some(burst) = &self.burst {
            let bucket = at.raw() / burst.bucket.max(1);
            if unit(hash(&[self.seed, 0xb5, session, sender as u64, bucket])) < burst.frequency {
                rate = rate.max(burst.rate);
            }
        }
        unit(hash(&[
            self.seed,
            0x10,
            session,
            sender as u64,
            receiver as u64,
            attempt as u64,
            at.raw(),
        ])) < rate
    }

    /// The delay between receiving attempt `attempt`'s NACK and issuing the
    /// retransmission: exponential base backoff plus keyed jitter, so
    /// retries against one congested repairer spread out instead of
    /// re-colliding in lockstep.
    pub fn retry_delay(&self, session: u64, receiver: usize, attempt: u32) -> u64 {
        let base = self.backoff << attempt.saturating_sub(1).min(MAX_BACKOFF_SHIFT);
        let jitter = if self.backoff == 0 {
            0
        } else {
            hash(&[self.seed, 0xde, session, receiver as u64, attempt as u64]) % (self.backoff + 1)
        };
        base + jitter
    }

    /// The longest delay [`retry_delay`](Self::retry_delay) can return,
    /// `backoff << 6` plus the largest jitter, `backoff`; `None` when that
    /// does not fit `u64`.
    pub(crate) fn max_retry_delay(&self) -> Option<u64> {
        self.backoff.checked_mul((1 << MAX_BACKOFF_SHIFT) + 1)
    }
}

/// Retry attempts past the seventh stop doubling the backoff.
const MAX_BACKOFF_SHIFT: u32 = 6;

/// SplitMix64-style keyed hash over a word sequence: statistically uniform,
/// stable across platforms, and a pure function of its key.
fn hash(words: &[u64]) -> u64 {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for &w in words {
        state = mix(state ^ mix(w));
    }
    state
}

/// SplitMix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Maps a hash to `[0, 1)` with 53-bit precision.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_pure_functions_of_their_keys() {
        let profile = LossProfile::iid(0.3, 7);
        let a = profile.lost(3, 0, 5, 1, Time::new(100));
        for _ in 0..5 {
            assert_eq!(profile.lost(3, 0, 5, 1, Time::new(100)), a);
        }
        // Any key component changes the draw stream somewhere.
        let draws = |f: &dyn Fn(u64) -> bool| (0..2000).map(f).filter(|&l| l).count();
        let base = draws(&|i| profile.lost(i, 0, 5, 1, Time::new(100)));
        let other_receiver = draws(&|i| profile.lost(i, 0, 6, 1, Time::new(100)));
        let other_attempt = draws(&|i| profile.lost(i, 0, 5, 2, Time::new(100)));
        assert!(base > 0);
        assert_ne!(
            (0..2000)
                .map(|i| profile.lost(i, 0, 5, 1, Time::new(100)))
                .collect::<Vec<_>>(),
            (0..2000)
                .map(|i| profile.lost(i, 0, 6, 1, Time::new(100)))
                .collect::<Vec<_>>(),
        );
        // Rates stay statistical, not positional.
        for count in [base, other_receiver, other_attempt] {
            assert!((400..800).contains(&count), "~30% of 2000, got {count}");
        }
    }

    #[test]
    fn zero_rate_never_loses_and_reports_lossless() {
        let profile = LossProfile::iid(0.0, 9);
        assert!(profile.is_lossless());
        for session in 0..100 {
            assert!(!profile.lost(session, 0, 1, 0, Time::new(session)));
        }
        assert!(!LossProfile::iid(0.1, 9).is_lossless());
        let bursty = LossProfile::iid(0.0, 9).with_burst(BurstProfile {
            frequency: 0.5,
            rate: 0.9,
            bucket: 16,
        });
        assert!(!bursty.is_lossless());
        let dead_burst = LossProfile::iid(0.0, 9).with_burst(BurstProfile {
            frequency: 0.0,
            rate: 0.9,
            bucket: 16,
        });
        assert!(dead_burst.is_lossless());
    }

    #[test]
    fn burst_windows_elevate_losses_in_their_buckets() {
        let profile = LossProfile::iid(0.02, 11).with_burst(BurstProfile {
            frequency: 0.25,
            rate: 0.95,
            bucket: 32,
        });
        // Same edge and attempt across many time buckets: bursting buckets
        // lose far more often than the 2% base.
        let lost = (0..4000u64)
            .filter(|&b| profile.lost(1, 0, 2, 0, Time::new(b * 32)))
            .count();
        // Expectation ≈ 0.25·0.95 + 0.75·0.02 ≈ 0.25.
        assert!((700..1300).contains(&lost), "burst mixture, got {lost}");
        // Draws within one bucket share the window decision; the loss draw
        // itself still varies by attempt.
        let in_bucket: Vec<bool> = (0..4u32)
            .map(|attempt| profile.lost(1, 0, 2, attempt, Time::new(5)))
            .collect();
        assert_eq!(in_bucket.len(), 4);
    }

    #[test]
    fn retry_delay_grows_exponentially_with_bounded_jitter() {
        let profile = LossProfile::iid(0.1, 5);
        let base = profile.backoff;
        for attempt in 1..=12u32 {
            let d = profile.retry_delay(9, 3, attempt);
            let expected = base << attempt.saturating_sub(1).min(6);
            assert!(
                d >= expected && d <= expected + base,
                "attempt {attempt}: {d}"
            );
            assert!(d <= profile.max_retry_delay().unwrap());
        }
        let edge = |backoff| LossProfile {
            backoff,
            ..profile.clone()
        };
        assert_eq!(
            edge(u64::MAX / 65).max_retry_delay(),
            Some(u64::MAX / 65 * 65)
        );
        assert_eq!(edge(u64::MAX / 65 + 1).max_retry_delay(), None);
        assert_eq!(
            profile.retry_delay(9, 3, 2),
            profile.retry_delay(9, 3, 2),
            "jitter is keyed, not sampled"
        );
        let zero = LossProfile {
            backoff: 0,
            ..profile
        };
        assert_eq!(zero.retry_delay(9, 3, 1), 0);
    }
}
