//! Integer time arithmetic.
//!
//! The paper assumes all model parameters (overheads and latency) are
//! positive integers measured in a common unit. [`Time`] is a thin newtype
//! over `u64` used both for instants (delivery/reception times) and for
//! durations (overheads, latency); mixing the two is harmless in this model
//! because every quantity is a non-negative offset from the start of the
//! multicast at time zero.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A non-negative integer instant or duration.
///
/// Arithmetic panics on overflow in debug builds (standard integer
/// semantics); the magnitudes involved in multicast scheduling (overheads of
/// at most a few thousand time units, at most a few million nodes) are far
/// below the `u64` range, and the checked constructors in the rest of the
/// workspace keep inputs small.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Time(u64);

impl Time {
    /// The instant zero (start of the multicast).
    pub const ZERO: Time = Time(0);
    /// The largest representable time; used as an "infinity" sentinel by
    /// dynamic programs and branch-and-bound searches.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from a raw integer number of time units.
    #[inline]
    pub const fn new(units: u64) -> Self {
        Time(units)
    }

    /// Returns the raw number of time units.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns `self` as an `f64`, for ratio computations and reporting.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Time) -> Option<Time> {
        self.0.checked_add(rhs.0).map(Time)
    }

    /// Checked subtraction; `None` if `rhs > self`.
    #[inline]
    pub fn checked_sub(self, rhs: Time) -> Option<Time> {
        self.0.checked_sub(rhs.0).map(Time)
    }

    /// Saturating subtraction: `max(self - rhs, 0)`.
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition, clamping at [`Time::MAX`].
    #[inline]
    pub fn saturating_add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Returns the larger of two times.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Returns the smaller of two times.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Time {
    fn from(units: u64) -> Self {
        Time(units)
    }
}

impl From<u32> for Time {
    fn from(units: u32) -> Self {
        Time(u64::from(units))
    }
}

impl From<Time> for u64 {
    fn from(t: Time) -> Self {
        t.0
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Mul<Time> for u64 {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: Time) -> Time {
        Time(self * rhs.0)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_raw_roundtrip() {
        assert_eq!(Time::new(17).raw(), 17);
        assert_eq!(Time::from(17u64), Time::new(17));
        assert_eq!(u64::from(Time::new(17)), 17);
        assert_eq!(Time::ZERO.raw(), 0);
    }

    #[test]
    fn arithmetic() {
        let a = Time::new(5);
        let b = Time::new(3);
        assert_eq!(a + b, Time::new(8));
        assert_eq!(a - b, Time::new(2));
        assert_eq!(a * 4, Time::new(20));
        assert_eq!(4 * a, Time::new(20));
        let mut c = a;
        c += b;
        assert_eq!(c, Time::new(8));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn ordering_and_extrema() {
        assert!(Time::new(2) < Time::new(3));
        assert_eq!(Time::new(2).max(Time::new(3)), Time::new(3));
        assert_eq!(Time::new(2).min(Time::new(3)), Time::new(2));
        assert!(Time::MAX > Time::new(u64::MAX - 1));
    }

    #[test]
    fn checked_and_saturating() {
        assert_eq!(Time::new(3).checked_sub(Time::new(5)), None);
        assert_eq!(Time::new(5).checked_sub(Time::new(3)), Some(Time::new(2)));
        assert_eq!(Time::new(3).saturating_sub(Time::new(5)), Time::ZERO);
        assert_eq!(Time::MAX.checked_add(Time::new(1)), None);
        assert_eq!(Time::MAX.saturating_add(Time::new(1)), Time::MAX);
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [1u64, 2, 3, 4].iter().map(|&v| Time::new(v)).sum();
        assert_eq!(total, Time::new(10));
    }

    #[test]
    fn display_and_serde() {
        assert_eq!(Time::new(42).to_string(), "42");
        let json = serde_json::to_string(&Time::new(42)).unwrap();
        assert_eq!(json, "42");
        let back: Time = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Time::new(42));
    }
}
