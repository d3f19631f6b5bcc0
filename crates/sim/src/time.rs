//! Virtual time: integer picoseconds.
//!
//! Picosecond resolution makes every latency in the paper exactly
//! representable: the 125 ns arithmetic cycle, the 62.5 ns per-32-bit-word
//! vector register transfer, the 133.3̄ ns average control-processor
//! instruction (stored as 133_333 ps, an approximation of 1/7.5 MIPS that is
//! off by one part in 4×10⁵ — well inside the paper's own rounding).
//! A `u64` of picoseconds spans ~213 simulated days, far beyond any run.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant of virtual time, in picoseconds since machine boot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of virtual time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl Time {
    /// The machine boot instant.
    pub const ZERO: Time = Time(0);

    /// Picoseconds since boot.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Nanoseconds since boot (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Microseconds since boot as a float.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds since boot as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// The span from `earlier` to `self`; panics if `earlier` is later.
    #[inline]
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self
            .0
            .checked_sub(earlier.0)
            .expect("Time::since: earlier instant is later"))
    }
}

impl Dur {
    /// Zero-length span.
    pub const ZERO: Dur = Dur(0);

    /// One arithmetic-unit cycle of the T Series node: 125 ns.
    pub const CYCLE: Dur = Dur::ns(125);

    /// Construct from picoseconds.
    #[inline]
    pub const fn ps(ps: u64) -> Dur {
        Dur(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn ns(ns: u64) -> Dur {
        Dur(ns * 1_000)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn us(us: u64) -> Dur {
        Dur(us * 1_000_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn ms(ms: u64) -> Dur {
        Dur(ms * 1_000_000_000)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn secs(s: u64) -> Dur {
        Dur(s * 1_000_000_000_000)
    }

    /// Construct from a float number of seconds (rounding to the nearest ps).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Dur {
        assert!(s >= 0.0 && s.is_finite(), "Dur::from_secs_f64: invalid {s}");
        Dur((s * 1e12).round() as u64)
    }

    /// Picoseconds in the span.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Nanoseconds in the span (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Microseconds as a float.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// True when the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `self - other`, clamping at zero instead of panicking.
    #[inline]
    pub const fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }

    /// Bytes-per-second throughput implied by moving `bytes` in this span.
    /// Returns `f64::INFINITY` for a zero span.
    #[inline]
    pub fn throughput_bytes(self, bytes: u64) -> f64 {
        if self.0 == 0 {
            f64::INFINITY
        } else {
            bytes as f64 / self.as_secs_f64()
        }
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, d: Dur) -> Time {
        Time(self.0.checked_add(d.0).expect("virtual time overflow"))
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, d: Dur) {
        *self = *self + d;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, d: Dur) -> Time {
        Time(self.0.checked_sub(d.0).expect("virtual time underflow"))
    }
}

impl Add for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, o: Dur) -> Dur {
        Dur(self.0.checked_add(o.0).expect("duration overflow"))
    }
}

impl AddAssign for Dur {
    #[inline]
    fn add_assign(&mut self, o: Dur) {
        *self = *self + o;
    }
}

impl Sub for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, o: Dur) -> Dur {
        Dur(self.0.checked_sub(o.0).expect("duration underflow"))
    }
}

impl SubAssign for Dur {
    #[inline]
    fn sub_assign(&mut self, o: Dur) {
        *self = *self - o;
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, k: u64) -> Dur {
        Dur(self.0.checked_mul(k).expect("duration overflow"))
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, k: u64) -> Dur {
        Dur(self.0 / k)
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

fn fmt_ps(ps: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ps == 0 {
        write!(f, "0s")
    } else if ps.is_multiple_of(1_000_000_000_000) {
        write!(f, "{}s", ps / 1_000_000_000_000)
    } else if ps >= 1_000_000_000_000 {
        write!(f, "{:.3}s", ps as f64 / 1e12)
    } else if ps >= 1_000_000_000 {
        write!(f, "{:.3}ms", ps as f64 / 1e9)
    } else if ps >= 1_000_000 {
        write!(f, "{:.3}us", ps as f64 / 1e6)
    } else if ps >= 1_000 {
        write!(f, "{:.3}ns", ps as f64 / 1e3)
    } else {
        write!(f, "{ps}ps")
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+")?;
        fmt_ps(self.0, f)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_is_125ns() {
        assert_eq!(Dur::CYCLE.as_ps(), 125_000);
        assert_eq!(Dur::CYCLE.as_ns(), 125);
    }

    #[test]
    fn half_cycle_exact() {
        // 62.5 ns must be exactly representable (32-bit register transfer).
        let half = Dur::CYCLE / 2;
        assert_eq!(half.as_ps(), 62_500);
        assert_eq!(half * 2, Dur::CYCLE);
    }

    #[test]
    fn arithmetic() {
        let t = Time::ZERO + Dur::us(3) + Dur::ns(5);
        assert_eq!(t.as_ps(), 3_005_000);
        assert_eq!(t.since(Time::ZERO + Dur::us(3)), Dur::ns(5));
    }

    #[test]
    fn throughput() {
        // 1024 bytes in 400 ns = 2560 MB/s (the paper's row-transfer rate).
        let d = Dur::ns(400);
        let mbps = d.throughput_bytes(1024) / 1e6;
        assert!((mbps - 2560.0).abs() < 1e-9, "{mbps}");
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Dur::ns(125)), "125.000ns");
        assert_eq!(format!("{}", Dur::secs(15)), "15s");
        assert_eq!(format!("{}", Time::ZERO), "T+0s");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let _ = Dur::ns(1) - Dur::ns(2);
    }

    #[test]
    fn sum_of_durations() {
        let total: Dur = (0..10).map(|_| Dur::CYCLE).sum();
        assert_eq!(total, Dur::ns(1250));
    }
}
