//! Virtual time for the discrete-event simulation.
//!
//! All simulator timing is expressed as [`SimTime`], a monotone count of
//! nanoseconds since context creation. Durations and instants share the
//! same representation, mirroring how CUDA profiling tools report both on
//! a single device-relative timeline.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// Arithmetic saturates on subtraction so that cost-model rounding can
/// never produce a panic deep inside the event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Zero time; the epoch of every simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from (possibly fractional) seconds, rounding to the
    /// nearest nanosecond (halves away from zero). Negative or non-finite
    /// inputs clamp to zero; values past `u64::MAX` ns saturate.
    ///
    /// Bit-identical to `(secs * 1e9).round() as u64`, but without
    /// `f64::round`, which is a libm call on baseline x86-64 (no
    /// `roundsd`). Every simulated duration passes through here.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime(round_ns(secs * 1e9))
    }

    /// Nanoseconds since the epoch.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time as fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time as fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// `self - other`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// True iff this is the zero instant/duration.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// `ns.round() as u64` for `ns >= 0` (`+inf` included): rounds halves
/// away from zero and saturates at `u64::MAX`.
#[inline]
fn round_ns(ns: f64) -> u64 {
    // From 2^52 on every f64 is an integer, so there is nothing to round
    // (and the saturating cast handles 2^64 and beyond).
    if ns >= 4_503_599_627_370_496.0 {
        return ns as u64;
    }
    // Below 2^52 the truncation and the fractional part are exact.
    let whole = ns as u64;
    whole + u64::from(ns - whole as f64 >= 0.5)
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_us(1).as_ns(), 1_000);
        assert_eq!(SimTime::from_ms(1).as_ns(), 1_000_000);
        assert_eq!(SimTime::from_secs_f64(1.0).as_ns(), 1_000_000_000);
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
    }

    /// The libm formula `from_secs_f64` replaces, with its clamps.
    fn rounded_by_libm(secs: f64) -> SimTime {
        if !secs.is_finite() || secs <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((secs * 1e9).round() as u64)
    }

    #[test]
    fn rounding_matches_libm_round() {
        use rand::{rngs::SmallRng, RngCore, SeedableRng};
        let two52 = (1u64 << 52) as f64;
        let two53 = (1u64 << 53) as f64;
        let two64 = 18_446_744_073_709_551_616.0f64;
        // Nanosecond counts: exact halves, the largest f64 below one
        // half (where `floor(x + 0.5)` would round up), the 2^52 and
        // 2^53 integer thresholds, and the u64 saturation point.
        let ns_edges = [
            0.0,
            0.5,
            1.5,
            2.5,
            0.499_999_999_999_999_94,
            two52 - 0.5,
            two52 + 0.5,
            two52 + 1.0,
            two53,
            two53 + 2.0,
            two64,
            two64 * 2.0,
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        for ns in ns_edges {
            assert_eq!(round_ns(ns), ns.round() as u64, "{ns:e} ns");
        }
        let secs_edges = [
            0.5e-9,
            1.5e-9,
            2.5e-9,
            two64 / 1e9,
            1e300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            5e-324,
            0.0,
            -0.0,
            -2.5e-9,
            -1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for secs in secs_edges.into_iter().chain(ns_edges.map(|ns| ns / 1e9)) {
            assert_eq!(SimTime::from_secs_f64(secs), rounded_by_libm(secs), "{secs:e} s");
        }
        let mut rng = SmallRng::seed_from_u64(0x5eed_7155);
        for _ in 0..1_000_000 {
            let bits = rng.next_u64();
            // Half raw bit patterns (every sign, exponent, NaN and
            // subnormal); half magnitudes from 1e-12 s to 1e12 s, every
            // other one moved onto an exact half nanosecond.
            let secs = if bits & 1 == 0 {
                f64::from_bits(rng.next_u64())
            } else {
                let mantissa = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                let ns = mantissa * 10f64.powi(((bits >> 8) % 25) as i32);
                let ns = if bits & 2 == 0 { ns.trunc() + 0.5 } else { ns };
                if ns >= 0.0 {
                    assert_eq!(round_ns(ns), ns.round() as u64, "{ns:e} ns");
                }
                ns / 1e9
            };
            assert_eq!(SimTime::from_secs_f64(secs), rounded_by_libm(secs), "{secs:e} s");
        }
    }

    #[test]
    fn arithmetic_saturates() {
        let a = SimTime::from_ns(5);
        let b = SimTime::from_ns(9);
        assert_eq!(a - b, SimTime::ZERO);
        assert_eq!(b - a, SimTime::from_ns(4));
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
    }

    #[test]
    fn min_max_sum() {
        let a = SimTime::from_ns(5);
        let b = SimTime::from_ns(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let total: SimTime = [a, b, a].into_iter().sum();
        assert_eq!(total, SimTime::from_ns(19));
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimTime::from_ns(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_us(12)), "12.000us");
        assert_eq!(format!("{}", SimTime::from_ms(12)), "12.000ms");
        assert_eq!(format!("{}", SimTime::from_secs_f64(1.5)), "1.500s");
    }

    #[test]
    fn conversion_round_trips() {
        let t = SimTime::from_ms(250);
        assert!((t.as_secs_f64() - 0.25).abs() < 1e-12);
        assert!((t.as_ms_f64() - 250.0).abs() < 1e-9);
        assert!((t.as_us_f64() - 250_000.0).abs() < 1e-6);
    }
}
