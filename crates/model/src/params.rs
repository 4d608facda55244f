//! Network-wide parameters: latency and message size.

use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Size of the multicast message in bytes.
///
/// The receive-send model's overheads have fixed and message-length-dependent
/// components (footnote 1 of the paper); once the message size is fixed, a
/// node's [`OverheadProfile`](crate::OverheadProfile) collapses into concrete
/// integer overheads and the size plays no further role in scheduling.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct MessageSize(pub u64);

impl MessageSize {
    /// Size in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Convenience constructor from kilobytes (1 KiB = 1024 bytes).
    #[inline]
    pub const fn from_kib(kib: u64) -> Self {
        MessageSize(kib * 1024)
    }
}

impl fmt::Display for MessageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} B", self.0)
    }
}

/// Network-wide parameters of the receive-send model.
///
/// The model assumes a single interconnect type, so a single latency `L`
/// applies to every transmission regardless of the endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NetParams {
    latency: Time,
}

impl NetParams {
    /// Creates network parameters with the given latency `L` (time units).
    pub fn new(latency: u64) -> Self {
        NetParams {
            latency: Time::new(latency),
        }
    }

    /// The network latency `L` incurred by every transmission.
    #[inline]
    pub const fn latency(&self) -> Time {
        self.latency
    }
}

impl Default for NetParams {
    /// Latency of one time unit, matching the example of Figure 1.
    fn default() -> Self {
        NetParams::new(1)
    }
}

impl fmt::Display for NetParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L={}", self.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_size() {
        assert_eq!(MessageSize(2048).bytes(), 2048);
        assert_eq!(MessageSize::from_kib(2), MessageSize(2048));
        assert_eq!(MessageSize(16).to_string(), "16 B");
        assert!(MessageSize(1) < MessageSize(2));
    }

    #[test]
    fn net_params() {
        let net = NetParams::new(5);
        assert_eq!(net.latency(), Time::new(5));
        assert_eq!(NetParams::default().latency(), Time::new(1));
        assert_eq!(net.to_string(), "L=5");
    }

    #[test]
    fn serde_roundtrip() {
        let net = NetParams::new(3);
        let json = serde_json::to_string(&net).unwrap();
        let back: NetParams = serde_json::from_str(&json).unwrap();
        assert_eq!(net, back);
    }
}
