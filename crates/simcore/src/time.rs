//! Simulated-time primitives.
//!
//! All simulation components measure time with [`SimTime`] (an instant) and
//! [`SimDuration`] (a span). Both are microsecond-resolution integers so that
//! event ordering is exact and runs are bit-reproducible — floating-point
//! clocks accumulate rounding error that makes heaps order differently across
//! platforms.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, measured in microseconds since the
/// start of the simulation.
///
/// # Examples
///
/// ```
/// use faasbatch_simcore::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(250);
/// assert_eq!(t.as_micros(), 250_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, measured in microseconds.
///
/// # Examples
///
/// ```
/// use faasbatch_simcore::time::SimDuration;
///
/// let d = SimDuration::from_secs_f64(0.2);
/// assert_eq!(d.as_millis(), 200);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after the simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after the simulation start.
    ///
    /// # Panics
    ///
    /// Panics with "sim time overflow" if the instant is past
    /// [`SimTime::MAX`].
    pub const fn from_millis(millis: u64) -> Self {
        SimTime::from_micros_times(millis, 1_000)
    }

    /// Creates an instant `secs` seconds after the simulation start.
    ///
    /// # Panics
    ///
    /// Panics with "sim time overflow" if the instant is past
    /// [`SimTime::MAX`].
    pub const fn from_secs(secs: u64) -> Self {
        SimTime::from_micros_times(secs, 1_000_000)
    }

    /// `n × unit` microseconds, checked as [`Add`] checks a sum.
    const fn from_micros_times(n: u64, unit: u64) -> Self {
        match n.checked_mul(unit) {
            Some(micros) => SimTime(micros),
            None => panic!("sim time overflow"),
        }
    }

    /// Creates an instant from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid sim time: {secs}");
        SimTime((secs * 1e6).round() as u64)
    }

    /// Microseconds since the simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span from `earlier` to `self`.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is later than `self`
    /// (saturating, like [`std::time::Instant::saturating_duration_since`]).
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span of `millis` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics with "duration overflow" if the span is longer than
    /// [`SimDuration::MAX`].
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration::from_micros_times(millis, 1_000)
    }

    /// Creates a span of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics with "duration overflow" if the span is longer than
    /// [`SimDuration::MAX`].
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration::from_micros_times(secs, 1_000_000)
    }

    /// `n × unit` microseconds, checked as [`Add`] checks a sum.
    const fn from_micros_times(n: u64, unit: u64) -> Self {
        match n.checked_mul(unit) {
            Some(micros) => SimDuration(micros),
            None => panic!("duration overflow"),
        }
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        SimDuration((secs * 1e6).round() as u64)
    }

    /// Creates a span from fractional milliseconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `millis` is negative or not finite.
    pub fn from_millis_f64(millis: f64) -> Self {
        assert!(
            millis.is_finite() && millis >= 0.0,
            "invalid duration: {millis}"
        );
        SimDuration((millis * 1e3).round() as u64)
    }

    /// The span in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The span in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// True when the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Returns the larger of two spans.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two spans.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Multiplies the span by a non-negative factor, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid factor: {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("sim time overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("sim time underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

impl From<std::time::Duration> for SimDuration {
    fn from(d: std::time::Duration) -> Self {
        SimDuration(d.as_micros().min(u64::MAX as u128) as u64)
    }
}

impl From<SimDuration> for std::time::Duration {
    fn from(d: SimDuration) -> Self {
        std::time::Duration::from_micros(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_millis(1_500);
        let d = SimDuration::from_micros(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn from_secs_f64_rounds_to_micros() {
        assert_eq!(SimDuration::from_secs_f64(0.2).as_micros(), 200_000);
        assert_eq!(SimDuration::from_secs_f64(1e-6).as_micros(), 1);
        assert_eq!(SimTime::from_secs_f64(2.5).as_micros(), 2_500_000);
    }

    #[test]
    fn saturating_duration_since_clamps() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.saturating_duration_since(late), SimDuration::ZERO);
        assert_eq!(
            late.saturating_duration_since(early),
            SimDuration::from_secs(1)
        );
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_on_inversion() {
        let _ = SimTime::from_secs(1).duration_since(SimTime::from_secs(2));
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(SimDuration::from_micros(17).to_string(), "17us");
        assert_eq!(SimDuration::from_millis(17).to_string(), "17.000ms");
        assert_eq!(SimDuration::from_secs(17).to_string(), "17.000s");
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_micros(100);
        assert_eq!(d.mul_f64(0.5).as_micros(), 50);
        assert_eq!(d.mul_f64(1.5).as_micros(), 150);
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn std_duration_conversion() {
        let d: SimDuration = std::time::Duration::from_millis(3).into();
        assert_eq!(d.as_micros(), 3_000);
        let back: std::time::Duration = d.into();
        assert_eq!(back.as_micros(), 3_000);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total.as_millis(), 10);
    }

    #[test]
    fn integer_constructors_reach_the_largest_whole_unit() {
        let ms = u64::MAX / 1_000;
        let s = u64::MAX / 1_000_000;
        assert_eq!(SimDuration::from_millis(ms).as_micros(), ms * 1_000);
        assert_eq!(SimTime::from_millis(ms).as_micros(), ms * 1_000);
        assert_eq!(SimDuration::from_secs(s).as_micros(), s * 1_000_000);
        assert_eq!(SimTime::from_secs(s).as_micros(), s * 1_000_000);
    }

    #[test]
    #[should_panic(expected = "duration overflow")]
    fn duration_from_millis_past_max_panics() {
        let _ = SimDuration::from_millis(u64::MAX / 1_000 + 1);
    }

    #[test]
    #[should_panic(expected = "duration overflow")]
    fn duration_from_secs_past_max_panics() {
        let _ = SimDuration::from_secs(u64::MAX / 1_000_000 + 1);
    }

    #[test]
    #[should_panic(expected = "sim time overflow")]
    fn time_from_millis_past_max_panics() {
        let _ = SimTime::from_millis(u64::MAX / 1_000 + 1);
    }

    #[test]
    #[should_panic(expected = "sim time overflow")]
    fn time_from_secs_past_max_panics() {
        let _ = SimTime::from_secs(u64::MAX / 1_000_000 + 1);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
        assert_eq!(
            SimTime::ZERO.max(SimTime::from_secs(1)),
            SimTime::from_secs(1)
        );
    }
}
