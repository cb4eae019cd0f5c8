//! Simulated time, measured in CPU cycles.
//!
//! The paper reports FWQ noise in CPU cycles (Fig. 5) and everything else in
//! microseconds or seconds; keeping the base unit in cycles lets the noise
//! figures read exactly like the paper's while conversions to wall time use
//! the modeled core frequency.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Default modeled core frequency: 2.8 GHz (Intel Xeon E5-2680 v2, the
/// paper's testbed CPU).
pub const DEFAULT_FREQ_HZ: u64 = 2_800_000_000;

/// A point in (or span of) simulated time, in CPU cycles at
/// [`DEFAULT_FREQ_HZ`] unless a different frequency is used explicitly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Time zero.
    pub const ZERO: Cycles = Cycles(0);
    /// The largest representable instant; used as an "infinite" horizon.
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// Convert a nanosecond duration at the default frequency.
    #[inline]
    pub fn from_ns(ns: u64) -> Cycles {
        // 2.8 cycles per ns == 14/5.
        Cycles(ns * 14 / 5)
    }

    /// Convert a microsecond duration at the default frequency.
    #[inline]
    pub fn from_us(us: u64) -> Cycles {
        Cycles::from_ns(us * 1_000)
    }

    /// Convert a millisecond duration at the default frequency.
    #[inline]
    pub fn from_ms(ms: u64) -> Cycles {
        Cycles::from_ns(ms * 1_000_000)
    }

    /// Convert a second duration at the default frequency.
    #[inline]
    pub fn from_secs(s: u64) -> Cycles {
        Cycles(s * DEFAULT_FREQ_HZ)
    }

    /// This duration in nanoseconds at the default frequency.
    #[inline]
    pub fn as_ns(self) -> u64 {
        self.0 * 5 / 14
    }

    /// This duration in (fractional) microseconds at the default frequency.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / (DEFAULT_FREQ_HZ as f64 / 1e6)
    }

    /// This duration in (fractional) seconds at the default frequency.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / DEFAULT_FREQ_HZ as f64
    }

    /// Raw cycle count.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Scale by a floating factor, rounding to nearest. Used by the
    /// interference models (e.g. LLC pollution stretches compute quanta).
    #[inline]
    pub fn scale(self, factor: f64) -> Cycles {
        debug_assert!(factor >= 0.0, "negative time scale");
        Cycles((self.0 as f64 * factor).round() as u64)
    }

    /// Midpoint between two instants (no overflow).
    #[inline]
    pub fn midpoint(self, other: Cycles) -> Cycles {
        Cycles(self.0 / 2 + other.0 / 2 + (self.0 % 2 + other.0 % 2) / 2)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        debug_assert!(self.0 >= rhs.0, "Cycles underflow: {} - {}", self.0, rhs.0);
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.as_us_f64();
        if us >= 1_000_000.0 {
            write!(f, "{:.3}s", us / 1e6)
        } else if us >= 1_000.0 {
            write!(f, "{:.3}ms", us / 1e3)
        } else {
            write!(f, "{us:.3}us")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_round_trip() {
        // 1 us == 2800 cycles at 2.8 GHz.
        assert_eq!(Cycles::from_us(1).raw(), 2_800);
        assert_eq!(Cycles::from_ms(1).raw(), 2_800_000);
        assert_eq!(Cycles::from_secs(1).raw(), DEFAULT_FREQ_HZ);
        assert_eq!(Cycles::from_ns(1000).as_ns(), 1000);
    }

    #[test]
    fn arithmetic() {
        let a = Cycles(100);
        let b = Cycles(40);
        assert_eq!(a + b, Cycles(140));
        assert_eq!(a - b, Cycles(60));
        assert_eq!(a * 3, Cycles(300));
        assert_eq!(a / 4, Cycles(25));
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        assert_eq!([a, b].into_iter().sum::<Cycles>(), Cycles(140));
    }

    #[test]
    fn scaling_rounds_to_nearest() {
        assert_eq!(Cycles(100).scale(1.5), Cycles(150));
        assert_eq!(Cycles(3).scale(0.5), Cycles(2)); // 1.5 rounds to 2
        assert_eq!(Cycles(100).scale(0.0), Cycles::ZERO);
    }

    #[test]
    fn midpoint_no_overflow() {
        assert_eq!(Cycles(2).midpoint(Cycles(4)), Cycles(3));
        let big = Cycles(u64::MAX - 1);
        assert_eq!(big.midpoint(big), big);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Cycles::from_us(3)), "3.000us");
        assert_eq!(format!("{}", Cycles::from_ms(3)), "3.000ms");
        assert_eq!(format!("{}", Cycles::from_secs(3)), "3.000s");
    }

    #[test]
    fn seconds_conversion() {
        assert!((Cycles::from_secs(2).as_secs_f64() - 2.0).abs() < 1e-12);
        assert!((Cycles::from_us(5).as_us_f64() - 5.0).abs() < 1e-9);
    }
}
