//! Time primitives shared by the model, the simulator, and the runtime.
//!
//! All of AQuA's measurements (service time `ts`, queuing delay `tq`,
//! gateway-to-gateway delay `td`, response time `tr`) are durations, and the
//! simulator needs an absolute notion of virtual time. Both are represented
//! with nanosecond precision as unsigned 64-bit counters, which covers
//! roughly 584 years of simulated time — far more than any experiment needs.
//!
//! The types deliberately mirror [`std::time::Duration`] and
//! [`std::time::Instant`] but are `Copy`, ordered, hashable, serializable,
//! and convertible to/from their `std` counterparts, so the same model code
//! runs inside the discrete-event simulator and on real sockets.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of (virtual or real) time with nanosecond resolution.
///
/// # Examples
///
/// ```
/// use aqua_core::time::Duration;
///
/// let deadline = Duration::from_millis(200);
/// let overhead = Duration::from_micros(350);
/// assert!(deadline.saturating_sub(overhead) < deadline);
/// assert_eq!(Duration::from_millis(2) + Duration::from_millis(3),
///            Duration::from_millis(5));
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Duration(u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable duration.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        Duration(nanos)
    }

    /// Creates a duration from whole microseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the nanosecond representation.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        Duration(micros * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the nanosecond representation.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        Duration(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the nanosecond representation.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// Negative and non-finite inputs saturate to [`Duration::ZERO`]; values
    /// larger than the representable range saturate to [`Duration::MAX`].
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return Duration::ZERO;
        }
        let nanos = secs * 1e9;
        if nanos >= u64::MAX as f64 {
            Duration::MAX
        } else {
            Duration(nanos.round() as u64)
        }
    }

    /// Creates a duration from fractional milliseconds, rounding to
    /// nanoseconds, with the same saturation rules as
    /// [`Duration::from_secs_f64`].
    #[inline]
    pub fn from_millis_f64(millis: f64) -> Self {
        Duration::from_secs_f64(millis / 1e3)
    }

    /// Returns the duration in whole nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration in whole milliseconds, truncating.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns `true` if this is the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Adds two durations, returning `None` on overflow.
    #[inline]
    pub const fn checked_add(self, rhs: Duration) -> Option<Duration> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Duration(v)),
            None => None,
        }
    }

    /// Subtracts `rhs`, clamping at zero instead of underflowing.
    #[inline]
    pub const fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Adds `rhs`, clamping at [`Duration::MAX`] instead of overflowing.
    #[inline]
    pub const fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }

    /// Multiplies by a scalar, clamping at [`Duration::MAX`].
    #[inline]
    pub const fn saturating_mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }

    /// Scales by a non-negative float, rounding to nanoseconds.
    ///
    /// Negative or non-finite factors yield [`Duration::ZERO`].
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Duration {
        Duration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Returns the smaller of two durations.
    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two durations.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Duration {
    /// Formats with the coarsest exact unit for round values (`250ms`,
    /// `17us`) and two decimals in a magnitude-appropriate unit otherwise
    /// (`93.08ms`).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0ns")
        } else if ns.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns.is_multiple_of(1_000_000) && ns < 1_000_000_000 {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns.is_multiple_of(1_000) && ns < 1_000_000 {
            write!(f, "{}us", ns / 1_000)
        } else if ns >= 1_000_000_000 {
            write!(f, "{:.2}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.2}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.2}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        // aqua-lint: allow(no-panic-in-hot-path) overflow on Duration arithmetic is a bug, not a recoverable condition; std Durations panic the same way
        Duration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        // aqua-lint: allow(no-panic-in-hot-path) underflow on Duration arithmetic is a bug, not a recoverable condition; std Durations panic the same way
        Duration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        // aqua-lint: allow(no-panic-in-hot-path) overflow on Duration scaling is a bug, not a recoverable condition; std Durations panic the same way
        Duration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |acc, d| acc.saturating_add(d))
    }
}

impl From<std::time::Duration> for Duration {
    fn from(d: std::time::Duration) -> Self {
        let nanos = d.as_nanos();
        if nanos >= u64::MAX as u128 {
            Duration::MAX
        } else {
            Duration(nanos as u64)
        }
    }
}

impl From<Duration> for std::time::Duration {
    fn from(d: Duration) -> Self {
        std::time::Duration::from_nanos(d.0)
    }
}

/// A point in (virtual or real) time, measured from an arbitrary epoch.
///
/// In the discrete-event simulator the epoch is simulation start; in the
/// socket runtime it is process start. The paper's measurement protocol only
/// ever subtracts two instants taken *on the same machine* (§5.4.2: "we do
/// not require that the clocks be synchronized because we always measure the
/// two end-points of a timing interval on the same machine"), which this API
/// naturally encourages: the only way to get a [`Duration`] out of instants
/// is to subtract them.
///
/// # Examples
///
/// ```
/// use aqua_core::time::{Duration, Instant};
///
/// let t0 = Instant::from_nanos(1_000);
/// let t4 = t0 + Duration::from_millis(3);
/// assert_eq!(t4.duration_since(t0), Duration::from_millis(3));
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Instant(u64);

impl Instant {
    /// The epoch (time zero).
    pub const EPOCH: Instant = Instant(0);

    /// Creates an instant `nanos` nanoseconds after the epoch.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        Instant(nanos)
    }

    /// Creates an instant `millis` milliseconds after the epoch.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        Instant(millis * 1_000_000)
    }

    /// Creates an instant `secs` seconds after the epoch.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        Instant(secs * 1_000_000_000)
    }

    /// Nanoseconds elapsed since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds elapsed since the epoch.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds elapsed since the epoch.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Elapsed time from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[inline]
    pub fn duration_since(self, earlier: Instant) -> Duration {
        Duration(
            self.0
                .checked_sub(earlier.0)
                // aqua-lint: allow(no-panic-in-hot-path) the panic is this method's documented contract; saturating_duration_since is the non-panicking variant
                .expect("`earlier` is later than `self`"),
        )
    }

    /// Elapsed time from `earlier` to `self`, or [`Duration::ZERO`] if
    /// `earlier` is later.
    #[inline]
    pub const fn saturating_duration_since(self, earlier: Instant) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the instant `d` after `self`, clamping at the representable
    /// maximum.
    #[inline]
    pub const fn saturating_add(self, d: Duration) -> Instant {
        Instant(self.0.saturating_add(d.as_nanos()))
    }
}

impl fmt::Debug for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration(self.0))
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration(self.0))
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    #[inline]
    fn add(self, rhs: Duration) -> Instant {
        // aqua-lint: allow(no-panic-in-hot-path) overflow on Instant arithmetic is a bug, not a recoverable condition; std Instants panic the same way
        Instant(self.0.checked_add(rhs.0).expect("instant overflow"))
    }
}

impl AddAssign<Duration> for Instant {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    #[inline]
    fn sub(self, rhs: Duration) -> Instant {
        // aqua-lint: allow(no-panic-in-hot-path) underflow on Instant arithmetic is a bug, not a recoverable condition; std Instants panic the same way
        Instant(self.0.checked_sub(rhs.0).expect("instant underflow"))
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Instant) -> Duration {
        self.duration_since(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1_000));
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1_000));
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1_000));
    }

    #[test]
    fn duration_float_roundtrip() {
        let d = Duration::from_secs_f64(0.125);
        assert_eq!(d.as_nanos(), 125_000_000);
        assert!((d.as_secs_f64() - 0.125).abs() < 1e-12);
        assert_eq!(Duration::from_millis_f64(1.5).as_nanos(), 1_500_000);
    }

    #[test]
    fn duration_float_saturates() {
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(1e30), Duration::MAX);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_millis(3);
        let b = Duration::from_millis(2);
        assert_eq!(a + b, Duration::from_millis(5));
        assert_eq!(a - b, Duration::from_millis(1));
        assert_eq!(a * 4, Duration::from_millis(12));
        assert_eq!(a / 3, Duration::from_millis(1));
        assert_eq!(b.saturating_sub(a), Duration::ZERO);
        assert_eq!(Duration::MAX.saturating_add(a), Duration::MAX);
        assert_eq!(Duration::MAX.saturating_mul(2), Duration::MAX);
    }

    #[test]
    #[should_panic(expected = "duration underflow")]
    fn duration_sub_underflow_panics() {
        let _ = Duration::from_millis(1) - Duration::from_millis(2);
    }

    #[test]
    fn duration_mul_f64() {
        assert_eq!(
            Duration::from_millis(100).mul_f64(0.5),
            Duration::from_millis(50)
        );
        assert_eq!(Duration::from_millis(100).mul_f64(-1.0), Duration::ZERO);
    }

    #[test]
    fn duration_ordering_and_minmax() {
        let a = Duration::from_micros(10);
        let b = Duration::from_micros(20);
        assert!(a < b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn duration_sum() {
        let total: Duration = (1..=4).map(Duration::from_millis).sum();
        assert_eq!(total, Duration::from_millis(10));
    }

    #[test]
    fn duration_display_picks_coarsest_unit() {
        assert_eq!(Duration::from_secs(2).to_string(), "2s");
        assert_eq!(Duration::from_millis(250).to_string(), "250ms");
        assert_eq!(Duration::from_micros(17).to_string(), "17us");
        assert_eq!(Duration::from_nanos(999).to_string(), "999ns");
        assert_eq!(Duration::ZERO.to_string(), "0ns");
    }

    #[test]
    fn duration_display_fractional_values() {
        assert_eq!(Duration::from_nanos(93_077_604).to_string(), "93.08ms");
        assert_eq!(Duration::from_nanos(1_500_000).to_string(), "1.50ms");
        assert_eq!(Duration::from_nanos(2_345).to_string(), "2.35us");
        assert_eq!(Duration::from_nanos(1_250_000_000).to_string(), "1.25s");
    }

    #[test]
    fn std_conversions_roundtrip() {
        let d = Duration::from_micros(12_345);
        let std: std::time::Duration = d.into();
        assert_eq!(Duration::from(std), d);
    }

    #[test]
    fn instant_arithmetic() {
        let t0 = Instant::EPOCH + Duration::from_millis(5);
        let t1 = t0 + Duration::from_millis(7);
        assert_eq!(t1.duration_since(t0), Duration::from_millis(7));
        assert_eq!(t1 - t0, Duration::from_millis(7));
        assert_eq!(t0.saturating_duration_since(t1), Duration::ZERO);
        assert_eq!(t1 - Duration::from_millis(7), t0);
    }

    #[test]
    #[should_panic(expected = "later than")]
    fn instant_duration_since_panics_on_reversal() {
        let t0 = Instant::from_millis(10);
        let t1 = Instant::from_millis(20);
        let _ = t0.duration_since(t1);
    }

    #[test]
    fn instant_display() {
        assert_eq!(Instant::from_millis(3).to_string(), "t+3ms");
    }
}
