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
    pub const fn from_ns(ns: u64) -> Cycles {
        // 2.8 cycles per ns == 14/5.
        Cycles(ns * 14 / 5)
    }

    /// Convert a microsecond duration at the default frequency.
    #[inline]
    pub const fn from_us(us: u64) -> Cycles {
        Cycles::from_ns(us * 1_000)
    }

    /// Convert a millisecond duration at the default frequency.
    #[inline]
    pub const fn from_ms(ms: u64) -> Cycles {
        Cycles::from_ns(ms * 1_000_000)
    }

    /// Convert a second duration at the default frequency.
    #[inline]
    pub const fn from_secs(s: u64) -> Cycles {
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

    /// Scale by a floating factor, rounding halves away from zero as
    /// `f64::round` does. Used by the interference models (e.g. LLC
    /// pollution stretches compute quanta) and by every tick draw.
    ///
    /// Truncating and adding one when the fraction is at least a half
    /// is bit-identical to `round() as u64` without its libm call: the
    /// fraction `x - i` is exact below 2^52 and 0 above, where every
    /// double is whole, and from 2^64 up the cast and the add both
    /// saturate. So
    /// `0.49999999999999994` stays 0, where `(x + 0.5) as u64` would
    /// give 1. The carry is a `bool` added as an integer, not an `if`:
    /// whether a draw rounds up is a coin flip, and a branch on it
    /// mispredicts half the time.
    ///
    /// Every tick draw, interference stretch and retransmit jitter
    /// lands in the first branch: a count below 2^63 whose product lies
    /// in [0, 2^63). There the signed casts are bit-identical to the
    /// unsigned ones (the count converts to the same double, and both
    /// truncations agree on the product), and each is one instruction
    /// where the unsigned saturating ones are a sequence. The carry
    /// cannot overflow, since the truncated product is below 2^63.
    #[inline]
    pub fn scale(self, factor: f64) -> Cycles {
        debug_assert!(factor >= 0.0, "negative time scale");
        const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;
        if let Ok(c) = i64::try_from(self.0) {
            let x = c as f64 * factor;
            if (0.0..TWO_POW_63).contains(&x) {
                let i = x as i64;
                return Cycles(i as u64 + u64::from(x - i as f64 >= 0.5));
            }
        }
        let x = self.0 as f64 * factor;
        let i = x as u64;
        Cycles(i.saturating_add(u64::from(x - i as f64 >= 0.5)))
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
    fn scale_rounds_as_f64_round_does() {
        let check = |c: u64, f: f64| {
            assert_eq!(
                Cycles(c).scale(f),
                Cycles((c as f64 * f).round() as u64),
                "{c} x {f:e}"
            );
        };
        // The doubles either side of one half.
        let below_half = 0.49999999999999994;
        assert_eq!(below_half, f64::from_bits(0.5f64.to_bits() - 1));
        let above_half = f64::from_bits(0.5f64.to_bits() + 1);
        // Exact halves, either side of them, and the largest double
        // under a half.
        for c in [1, 3, 5, 7, 1_001, (1 << 51) + 1, (1 << 52) - 1] {
            check(c, 0.5);
            check(c, above_half);
            check(c, below_half);
            check(c, 1.5);
        }
        check(1, below_half);
        assert_eq!(Cycles(1).scale(below_half), Cycles::ZERO);
        // Around and above 2^52, where doubles stop holding fractions,
        // up to values (and infinity) that `as u64` saturates on.
        for c in [
            (1 << 52) - 1,
            1 << 52,
            (1 << 52) + 1,
            1 << 53,
            (1 << 53) + 1,
            1 << 63,
            u64::MAX,
        ] {
            for f in [0.0, 0.5, below_half, 1.0, 1.5, 2.0, 3.0, 1e6, f64::INFINITY] {
                check(c, f);
            }
        }
        // Factors 0 and 1 at every scale.
        for shift in 0..64 {
            for c in [1u64 << shift, (1u64 << shift) - 1, (1u64 << shift) | 1] {
                check(c, 0.0);
                check(c, 1.0);
            }
        }
        // A seeded sweep: counts at every magnitude, factors in [0, 4)
        // and a quarter of them exact multiples of a half.
        let mut r = crate::StreamRng::root(0x5ca1e);
        for _ in 0..1_000_000 {
            let c = r.next_u64() >> r.range_u64(0, 64);
            let f = match r.range_u64(0, 4) {
                0 => r.range_u64(0, 8) as f64 * 0.5,
                _ => r.range_f64(0.0, 4.0),
            };
            check(c, f);
        }
    }

    #[test]
    fn scale_matches_the_saturating_formula() {
        // The formula `scale` keeps at and above 2^63, and used alone
        // before the signed branch.
        let saturating = |c: u64, f: f64| {
            let x = c as f64 * f;
            let i = x as u64;
            Cycles(i.saturating_add(u64::from(x - i as f64 >= 0.5)))
        };
        let below_half = 0.49999999999999994;
        let below_two = f64::from_bits(2.0f64.to_bits() - 1);
        for c in [
            0,
            1,
            3,
            (1 << 52) - 1,
            (1 << 52) + 1,
            (1 << 53) - 1,
            (1 << 53) + 1,
            1 << 62,
            (1 << 63) - 1,
            (1 << 63) + 1,
            u64::MAX,
        ] {
            // 0.5 and 1.5 give exact halves on the odd counts below 2^53;
            // 2.0 and the double under it take 2^62 to and just under 2^63.
            for f in [
                0.0,
                -0.0,
                0.5,
                1.5,
                2.5,
                below_half,
                1.0,
                below_two,
                2.0,
                f64::INFINITY,
            ] {
                assert_eq!(Cycles(c).scale(f), saturating(c, f), "{c} x {f:e}");
            }
        }
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
