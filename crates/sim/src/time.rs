//! Simulation time.
//!
//! The paper measures all delays in *broadcast units*: the time the downlink
//! needs to transmit one unit-length item. [`SimTime`] is an absolute instant
//! on that axis and [`SimDuration`] a span between instants. Both are thin
//! wrappers over `f64` that enforce the invariant "never NaN", which is what
//! lets them implement [`Ord`] and therefore be used as binary-heap keys in
//! the event queue.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An absolute instant of simulated time, in broadcast units.
///
/// Construct with [`SimTime::new`] (panics on NaN) or [`SimTime::ZERO`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SimTime(f64);

/// A span of simulated time, in broadcast units. May not be NaN; may not be
/// negative (scheduling into the past is a logic error the engine rejects).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SimDuration(f64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant at `t` broadcast units.
    ///
    /// # Panics
    /// Panics if `t` is NaN.
    #[inline]
    pub fn new(t: f64) -> Self {
        assert!(!t.is_nan(), "SimTime may not be NaN");
        SimTime(t)
    }

    /// The raw value in broadcast units.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier` is
    /// actually later (guards against floating-point jitter in callers).
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration((self.0 - earlier.0).max(0.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a span of `d` broadcast units.
    ///
    /// # Panics
    /// Panics if `d` is NaN or negative.
    #[inline]
    pub fn new(d: f64) -> Self {
        assert!(!d.is_nan(), "SimDuration may not be NaN");
        assert!(d >= 0.0, "SimDuration may not be negative (got {d})");
        SimDuration(d)
    }

    /// The raw value in broadcast units.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// `true` if the span is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Eq for SimTime {}
impl Eq for SimDuration {}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Invariant: neither side is NaN, so total_cmp == partial ordering.
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for SimDuration {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimDuration {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime::new(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration::new(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::new(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::new(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::new(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.4}", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4}bu", self.0)
    }
}

impl From<f64> for SimDuration {
    fn from(d: f64) -> Self {
        SimDuration::new(d)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_origin() {
        assert_eq!(SimTime::ZERO.as_f64(), 0.0);
        assert_eq!(SimDuration::ZERO.as_f64(), 0.0);
        assert!(SimDuration::ZERO.is_zero());
    }

    #[test]
    fn add_duration_advances_time() {
        let t = SimTime::new(1.5) + SimDuration::new(2.25);
        assert_eq!(t.as_f64(), 3.75);
    }

    #[test]
    fn subtracting_times_gives_duration() {
        let d = SimTime::new(5.0) - SimTime::new(2.0);
        assert_eq!(d.as_f64(), 3.0);
    }

    #[test]
    fn since_saturates_at_zero() {
        let early = SimTime::new(1.0);
        let late = SimTime::new(4.0);
        assert_eq!(late.since(early).as_f64(), 3.0);
        assert_eq!(early.since(late).as_f64(), 0.0);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [SimTime::new(3.0), SimTime::new(-1.0), SimTime::new(2.0)];
        v.sort();
        assert_eq!(
            v.iter().map(|t| t.as_f64()).collect::<Vec<_>>(),
            vec![-1.0, 2.0, 3.0]
        );
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_panics() {
        let _ = SimTime::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_duration_panics() {
        let _ = SimDuration::new(-1.0);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::new(4.0);
        assert_eq!((d * 0.5).as_f64(), 2.0);
        assert_eq!((d / 2.0).as_f64(), 2.0);
        assert_eq!((d - SimDuration::new(1.0)).as_f64(), 3.0);
        let mut a = SimDuration::new(1.0);
        a += SimDuration::new(2.0);
        assert_eq!(a.as_f64(), 3.0);
        a -= SimDuration::new(0.5);
        assert_eq!(a.as_f64(), 2.5);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(|i| SimDuration::new(i as f64)).sum();
        assert_eq!(total.as_f64(), 10.0);
    }

    #[test]
    fn serde_round_trip() {
        let t = SimTime::new(12.5);
        let s = serde_json::to_string(&t).unwrap();
        assert_eq!(s, "12.5");
        let back: SimTime = serde_json::from_str(&s).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::new(1.0)), "t=1.0000");
        assert_eq!(format!("{}", SimDuration::new(2.0)), "2.0000bu");
    }
}
