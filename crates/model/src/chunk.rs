//! Chunked (streaming) payload profiles.
//!
//! The paper's model sends one atomic payload per multicast; a live stream
//! instead emits a *train* of chunks through the same schedule tree, with
//! chunk `c + 1` released a fixed interval after chunk `c` and, optionally,
//! a per-chunk playout deadline. A [`ChunkProfile`] describes that train on
//! a session request; the occupancy kernel in `hnow-sim` turns it into
//! per-chunk send/receive events that share the one-port discipline (and,
//! under injected loss, per-chunk NACK/repair, so a late repair degrades
//! only that chunk).
//!
//! All fields are integers (ticks of [`crate::Time`]), so the profile — and
//! every request embedding it — stays `Eq` and hashable, and serialized
//! reports stay byte-identical per seed.

use serde::{Deserialize, Serialize};

/// How a session's payload is chunked into a streaming train.
///
/// A profile with `chunks <= 1` is the atomic single-payload session of the
/// base model: the simulator treats it exactly like a request with no
/// profile at all (pinned by byte-identity tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ChunkProfile {
    /// Number of chunks in the train (at least 1).
    pub chunks: u32,
    /// Release interval between consecutive chunks, in time units: chunk
    /// `c` becomes available at the source at `arrival + c * interval`.
    pub interval: u64,
    /// Optional per-chunk playout deadline, in time units past the chunk's
    /// release: chunk `c` misses its deadline when its last (non-failed)
    /// member receives it after `release(c) + deadline`. Misses are
    /// reported, not enforced — the stream degrades instead of wedging.
    pub deadline: Option<u64>,
    /// Whether the source pipelines the train: with `true` (the default)
    /// the source starts sending chunk `c + 1` as soon as its own port is
    /// free and the chunk is released, overlapping it with chunk `c`'s
    /// descent; with `false` it re-sends one-shot style, waiting for the
    /// whole tree to finish chunk `c` first.
    pub pipelined: bool,
}

impl ChunkProfile {
    /// Creates a pipelined train of `chunks` chunks released every
    /// `interval` ticks, with no deadline. `chunks` is clamped to at
    /// least 1.
    pub fn new(chunks: u32, interval: u64) -> Self {
        ChunkProfile {
            chunks: chunks.max(1),
            interval,
            deadline: None,
            pipelined: true,
        }
    }

    /// Sets a per-chunk playout deadline (ticks past each chunk's release).
    pub fn with_deadline(mut self, deadline: u64) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Switches the train to sequential one-shot re-sends: chunk `c + 1`
    /// only starts once every member has received chunk `c` (the baseline
    /// E14 compares pipelining against).
    pub fn sequential(mut self) -> Self {
        self.pipelined = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_clamps_and_builds() {
        let p = ChunkProfile::new(0, 10);
        assert_eq!(p.chunks, 1);
        let p = ChunkProfile::new(8, 25).with_deadline(100).sequential();
        assert_eq!(p.chunks, 8);
        assert_eq!(p.interval, 25);
        assert_eq!(p.deadline, Some(100));
        assert!(!p.pipelined);
    }

    #[test]
    fn profile_round_trips_through_serde() {
        let p = ChunkProfile::new(4, 50).with_deadline(200);
        let json = serde_json::to_string(&p).unwrap();
        let back: ChunkProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
