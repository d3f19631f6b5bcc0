//! Bit-level IEEE-754 binary32/binary64 arithmetic with flush-to-zero.
//!
//! The implementation is a single generic core over a compile-time
//! [`Format`]; all arithmetic is done in `u64`/`u128` integer registers the
//! way the hardware's normalize/round datapath would, with guard, round and
//! sticky bits and round-to-nearest-even.
//!
//! ## Flush-to-zero semantics (the paper's "no gradual underflow")
//!
//! * **Inputs**: a subnormal operand is treated as a zero of the same sign
//!   (DAZ — denormals are zero).
//! * **Results**: rounding is performed as if the exponent range were
//!   unbounded; if the rounded magnitude is below the smallest normal number
//!   the result is replaced by a zero of the same sign (FTZ).
//!
//! Everything else follows IEEE-754: NaN propagation (quiet), signed zeros
//! and infinities, `(+0) + (−0) = +0`, exact cancellation gives `+0` in
//! round-to-nearest.
//!
//! ## The host fast path
//!
//! Host `+` and `×` are correctly rounded to nearest-even too, so they can
//! differ from the datapath above only at subnormals, at the underflow edge
//! and in NaN payloads. The guard that decides when the host's bits are the
//! answer lives in one place, [`row`]: both operands normal and the host
//! result normal, finite and above the bottom binade. Everything else —
//! zeros, subnormals in or out, Inf, NaN, overflow and the bottom binade —
//! goes through the bit-level [`add_bits`] / [`mul_bits`], which are the
//! only home of DAZ/FTZ and the canonical quiet NaN. [`add`], [`sub`] and
//! [`mul`], and with them the `Sf64`/`Sf32` operators, are the row ops'
//! one-lane case; a row op pays the guard once per block of lanes. The
//! bottom binade is excluded because of one real disagreement: a product
//! just below min-normal that the host rounds *up to* min-normal at
//! subnormal precision is rounded at full precision here, stays below, and
//! flushes (`min_normal_boundary`). The equivalence is held by test, not by
//! this argument: the oracles (`tests/prop_fpu.rs` and the `row` tests)
//! compare every path against [`add_bits`] / [`mul_bits`].

use std::cmp::Ordering;

pub mod row;

use row::Lane;

/// Compile-time description of a binary interchange format.
pub trait Format: Copy + Default {
    /// Exponent field width in bits (8 for binary32, 11 for binary64).
    const EXP_BITS: u32;
    /// Fraction (explicit mantissa) field width (23 / 52).
    const MANT_BITS: u32;

    /// Total encoding width.
    const TOTAL_BITS: u32 = 1 + Self::EXP_BITS + Self::MANT_BITS;
    /// Exponent bias.
    const BIAS: i32 = (1 << (Self::EXP_BITS - 1)) - 1;
    /// All-ones exponent field (infinities and NaNs).
    const EXP_MAX: u64 = (1 << Self::EXP_BITS) - 1;
    /// Fraction mask.
    const MANT_MASK: u64 = (1 << Self::MANT_BITS) - 1;
    /// Implicit (hidden) leading bit.
    const HIDDEN: u64 = 1 << Self::MANT_BITS;
    /// Sign bit position.
    const SIGN_BIT: u64 = 1 << (Self::TOTAL_BITS - 1);
    /// Canonical quiet NaN.
    const QNAN: u64 = (Self::EXP_MAX << Self::MANT_BITS) | (1 << (Self::MANT_BITS - 1));

    /// The format's lane type: the wrapper whose host float has this width.
    type Lane: row::Lane<F = Self>;
}

/// The binary64 format (the T Series' 64-bit mode: 53-bit significand,
/// 11-bit exponent — "approximately 15 decimal digits" and "roughly 10^-308
/// to 10^308", as the paper puts it).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct B64;

impl Format for B64 {
    const EXP_BITS: u32 = 11;
    const MANT_BITS: u32 = 52;
    type Lane = Sf64;
}

/// The binary32 format (32-bit mode).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct B32;

impl Format for B32 {
    const EXP_BITS: u32 = 8;
    const MANT_BITS: u32 = 23;
    type Lane = Sf32;
}

/// A classified, unpacked operand. Subnormals never appear: `unpack`
/// flushes them to [`Class::Zero`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Nan,
    Inf {
        sign: bool,
    },
    Zero {
        sign: bool,
    },
    /// `mant` has the hidden bit set: `HIDDEN <= mant < 2*HIDDEN`.
    /// `exp` is unbiased.
    Norm {
        sign: bool,
        exp: i32,
        mant: u64,
    },
}

#[inline]
fn sign_of<F: Format>(bits: u64) -> bool {
    bits & F::SIGN_BIT != 0
}

#[inline]
fn exp_of<F: Format>(bits: u64) -> u64 {
    (bits >> F::MANT_BITS) & F::EXP_MAX
}

#[inline]
fn mant_of<F: Format>(bits: u64) -> u64 {
    bits & F::MANT_MASK
}

#[inline]
fn unpack<F: Format>(bits: u64) -> Class {
    let sign = sign_of::<F>(bits);
    let e = exp_of::<F>(bits);
    let m = mant_of::<F>(bits);
    if e == F::EXP_MAX {
        if m == 0 {
            Class::Inf { sign }
        } else {
            Class::Nan
        }
    } else if e == 0 {
        // Zero or subnormal: both flush to zero (DAZ).
        Class::Zero { sign }
    } else {
        Class::Norm {
            sign,
            exp: e as i32 - F::BIAS,
            mant: m | F::HIDDEN,
        }
    }
}

#[inline]
fn pack_zero<F: Format>(sign: bool) -> u64 {
    if sign {
        F::SIGN_BIT
    } else {
        0
    }
}

#[inline]
fn pack_inf<F: Format>(sign: bool) -> u64 {
    pack_zero::<F>(sign) | (F::EXP_MAX << F::MANT_BITS)
}

/// Pack a rounded normal. `exp` unbiased, `mant` with hidden bit set.
/// Applies overflow (→ inf) and flush-to-zero underflow (→ 0).
#[inline]
fn pack_norm<F: Format>(sign: bool, exp: i32, mant: u64) -> u64 {
    debug_assert!(mant >= F::HIDDEN && mant < F::HIDDEN << 1);
    let biased = exp + F::BIAS;
    if biased >= F::EXP_MAX as i32 {
        pack_inf::<F>(sign)
    } else if biased <= 0 {
        pack_zero::<F>(sign) // FTZ: no gradual underflow
    } else {
        pack_zero::<F>(sign) | ((biased as u64) << F::MANT_BITS) | (mant & F::MANT_MASK)
    }
}

/// Round-to-nearest-even of a `(mant << 3) | grs` quantity. Returns the
/// rounded mantissa (hidden bit still set; may carry) and the exponent
/// increment caused by a rounding carry.
#[inline]
fn round_rne<F: Format>(mant_grs: u64) -> (u64, i32) {
    let grs = mant_grs & 0x7;
    let mut mant = mant_grs >> 3;
    // Round up on >half, or exactly half with odd LSB.
    if grs > 4 || (grs == 4 && (mant & 1) == 1) {
        mant += 1;
        if mant == F::HIDDEN << 1 {
            return (F::HIDDEN, 1);
        }
    }
    (mant, 0)
}

/// Shift right collecting a sticky bit into bit 0.
#[inline]
fn shr_sticky(v: u64, by: u32) -> u64 {
    if by == 0 {
        v
    } else if by >= 64 {
        u64::from(v != 0)
    } else {
        let lost = v & ((1u64 << by) - 1);
        (v >> by) | u64::from(lost != 0)
    }
}

/// Bit-level addition: `a + b` in format `F` through the unpack / align /
/// round datapath, for every operand class.
pub fn add_bits<F: Format>(a: u64, b: u64) -> u64 {
    use Class::*;
    match (unpack::<F>(a), unpack::<F>(b)) {
        (Nan, _) | (_, Nan) => F::QNAN,
        (Inf { sign: sa }, Inf { sign: sb }) => {
            if sa == sb {
                pack_inf::<F>(sa)
            } else {
                F::QNAN // ∞ − ∞
            }
        }
        (Inf { sign }, _) | (_, Inf { sign }) => pack_inf::<F>(sign),
        (Zero { sign: sa }, Zero { sign: sb }) => pack_zero::<F>(sa && sb), // +0 unless both −0
        (Zero { .. }, n @ Norm { .. }) => pack_class::<F>(n),
        (n @ Norm { .. }, Zero { .. }) => pack_class::<F>(n),
        (
            Norm {
                sign: sa,
                exp: ea,
                mant: ma,
            },
            Norm {
                sign: sb,
                exp: eb,
                mant: mb,
            },
        ) => add_norm::<F>(sa, ea, ma, sb, eb, mb),
    }
}

#[inline]
fn pack_class<F: Format>(c: Class) -> u64 {
    match c {
        Class::Nan => F::QNAN,
        Class::Inf { sign } => pack_inf::<F>(sign),
        Class::Zero { sign } => pack_zero::<F>(sign),
        Class::Norm { sign, exp, mant } => pack_norm::<F>(sign, exp, mant),
    }
}

fn add_norm<F: Format>(sa: bool, ea: i32, ma: u64, sb: bool, eb: i32, mb: u64) -> u64 {
    // Order so that (e1,m1) has the larger magnitude.
    let (s1, e1, m1, s2, e2, m2) = if (ea, ma) >= (eb, mb) {
        (sa, ea, ma, sb, eb, mb)
    } else {
        (sb, eb, mb, sa, ea, ma)
    };
    // Work with 3 extra bits (guard, round, sticky).
    let big = m1 << 3;
    let small = shr_sticky(m2 << 3, (e1 - e2) as u32);
    if s1 == s2 {
        // Magnitude addition; may carry one bit.
        let mut sum = big + small;
        let mut exp = e1;
        if sum >= (F::HIDDEN << 4) {
            sum = shr_sticky(sum, 1);
            exp += 1;
        }
        let (mant, bump) = round_rne::<F>(sum);
        pack_norm::<F>(s1, exp + bump, mant)
    } else {
        // Magnitude subtraction: big >= small by construction.
        let mut diff = big - small;
        if diff == 0 {
            return pack_zero::<F>(false); // exact cancellation → +0 (RNE)
        }
        let mut exp = e1;
        // Normalize left until the hidden bit (at position MANT_BITS+3) is set.
        let target = F::HIDDEN << 3;
        while diff < target {
            diff <<= 1;
            exp -= 1;
        }
        let (mant, bump) = round_rne::<F>(diff);
        pack_norm::<F>(s1, exp + bump, mant)
    }
}

/// Bit-level multiplication: `a * b` in format `F`, for every operand class.
pub fn mul_bits<F: Format>(a: u64, b: u64) -> u64 {
    use Class::*;
    match (unpack::<F>(a), unpack::<F>(b)) {
        (Nan, _) | (_, Nan) => F::QNAN,
        (Inf { sign: sa }, Inf { sign: sb }) => pack_inf::<F>(sa ^ sb),
        (Inf { .. }, Zero { .. }) | (Zero { .. }, Inf { .. }) => F::QNAN, // ∞ × 0
        (Inf { sign: sa }, Norm { sign: sb, .. }) | (Norm { sign: sa, .. }, Inf { sign: sb }) => {
            pack_inf::<F>(sa ^ sb)
        }
        (Zero { sign: sa }, Zero { sign: sb })
        | (Zero { sign: sa }, Norm { sign: sb, .. })
        | (Norm { sign: sa, .. }, Zero { sign: sb }) => pack_zero::<F>(sa ^ sb),
        (
            Norm {
                sign: sa,
                exp: ea,
                mant: ma,
            },
            Norm {
                sign: sb,
                exp: eb,
                mant: mb,
            },
        ) => {
            let sign = sa ^ sb;
            // Product of two (MANT_BITS+1)-bit significands: at most
            // 2*(MANT_BITS+1) bits — 106 for binary64 — computed in u128.
            let prod = (ma as u128) * (mb as u128);
            let prod_bits = 2 * (F::MANT_BITS + 1);
            let mut exp = ea + eb;
            // prod is in [2^(prod_bits-2), 2^prod_bits).
            let top_set = prod >> (prod_bits - 1) != 0;
            if top_set {
                exp += 1;
            }
            // Extract MANT_BITS+1 significand bits plus GRS, sticky the rest.
            // Keep mant at position so that hidden bit lands at MANT_BITS+3.
            let keep = F::MANT_BITS + 4; // significand + grs
            let shift = if top_set {
                prod_bits - keep
            } else {
                prod_bits - 1 - keep
            };
            let lost = prod & ((1u128 << shift) - 1);
            let mut mant_grs = (prod >> shift) as u64;
            if lost != 0 {
                mant_grs |= 1;
            }
            let (mant, bump) = round_rne::<F>(mant_grs);
            pack_norm::<F>(sign, exp + bump, mant)
        }
    }
}

/// Addition: `a + b` in format `F`, as [`row`]'s one-lane case.
#[inline]
pub fn add<F: Format>(a: u64, b: u64) -> u64 {
    row::add_lane(F::Lane::of_bits(a), F::Lane::of_bits(b)).bits()
}

/// Subtraction: `a - b`.
#[inline]
pub fn sub<F: Format>(a: u64, b: u64) -> u64 {
    add::<F>(a, neg::<F>(b))
}

/// Multiplication: `a * b`, as [`row`]'s one-lane case.
#[inline]
pub fn mul<F: Format>(a: u64, b: u64) -> u64 {
    row::mul_lane(F::Lane::of_bits(a), F::Lane::of_bits(b)).bits()
}

/// Sign flip (exact, applies to NaN/Inf/zero too, as hardware negate does).
#[inline]
pub fn neg<F: Format>(a: u64) -> u64 {
    a ^ F::SIGN_BIT
}

/// Magnitude (clear the sign bit).
#[inline]
pub fn abs<F: Format>(a: u64) -> u64 {
    a & !F::SIGN_BIT
}

/// IEEE comparison. `None` when unordered (either operand NaN);
/// `-0 == +0`.
pub fn cmp<F: Format>(a: u64, b: u64) -> Option<Ordering> {
    use Class::*;
    let (ca, cb) = (unpack::<F>(a), unpack::<F>(b));
    if matches!(ca, Nan) || matches!(cb, Nan) {
        return None;
    }
    let key = |c: Class| -> (i8, i128) {
        match c {
            Nan => unreachable!(),
            Inf { sign } => (if sign { -2 } else { 2 }, 0),
            Zero { .. } => (0, 0),
            Norm { sign, exp, mant } => {
                let mag = ((exp as i128 + 4096) << (F::MANT_BITS + 1)) | mant as i128;
                (if sign { -1 } else { 1 }, if sign { -mag } else { mag })
            }
        }
    };
    Some(key(ca).cmp(&key(cb)))
}

/// Convert a signed 64-bit integer to format `F` with round-to-nearest-even.
pub fn from_i64<F: Format>(v: i64) -> u64 {
    if v == 0 {
        return 0;
    }
    let sign = v < 0;
    let mag = v.unsigned_abs();
    let top = 63 - mag.leading_zeros(); // position of the MSB
    let exp = top as i32;
    // Place MSB at the hidden-bit position, with GRS below.
    let mant_grs = if top <= F::MANT_BITS + 3 {
        mag << (F::MANT_BITS + 3 - top)
    } else {
        shr_sticky(mag, top - (F::MANT_BITS + 3))
    };
    let (mant, bump) = round_rne::<F>(mant_grs);
    pack_norm::<F>(sign, exp + bump, mant)
}

/// Convert format `F` to i64 with truncation toward zero.
/// NaN → 0; saturates at the i64 range (like hardware convert-with-flag).
pub fn to_i64<F: Format>(a: u64) -> i64 {
    match unpack::<F>(a) {
        Class::Nan => 0,
        Class::Inf { sign } => {
            if sign {
                i64::MIN
            } else {
                i64::MAX
            }
        }
        Class::Zero { .. } => 0,
        Class::Norm { sign, exp, mant } => {
            if exp < 0 {
                return 0;
            }
            if exp >= 63 {
                return if sign { i64::MIN } else { i64::MAX };
            }
            let shift = exp - F::MANT_BITS as i32;
            let mag = if shift >= 0 {
                if shift > 63 - (F::MANT_BITS as i32 + 1) {
                    return if sign { i64::MIN } else { i64::MAX };
                }
                (mant as i64) << shift
            } else {
                (mant >> (-shift) as u32) as i64
            };
            if sign {
                -mag
            } else {
                mag
            }
        }
    }
}

/// Widen binary32 → binary64 (exact; subnormal inputs flush).
pub fn f32_to_f64(bits32: u64) -> u64 {
    match unpack::<B32>(bits32) {
        Class::Nan => B64::QNAN,
        Class::Inf { sign } => pack_inf::<B64>(sign),
        Class::Zero { sign } => pack_zero::<B64>(sign),
        Class::Norm { sign, exp, mant } => {
            let mant64 = (mant & B32::MANT_MASK) << (B64::MANT_BITS - B32::MANT_BITS);
            pack_norm::<B64>(sign, exp, mant64 | B64::HIDDEN)
        }
    }
}

/// Narrow binary64 → binary32 with round-to-nearest-even and FTZ.
pub fn f64_to_f32(bits64: u64) -> u64 {
    match unpack::<B64>(bits64) {
        Class::Nan => B32::QNAN,
        Class::Inf { sign } => pack_inf::<B32>(sign),
        Class::Zero { sign } => pack_zero::<B32>(sign),
        Class::Norm { sign, exp, mant } => {
            // 53-bit significand → 24-bit + GRS.
            let drop = B64::MANT_BITS - B32::MANT_BITS; // 29
            let kept = mant >> (drop - 3);
            let lost = mant & ((1 << (drop - 3)) - 1);
            let mant_grs = kept | u64::from(lost != 0);
            let (m, bump) = round_rne::<B32>(mant_grs);
            pack_norm::<B32>(sign, exp + bump, m)
        }
    }
}

// ---------------------------------------------------------------------------
// Ergonomic wrappers
// ---------------------------------------------------------------------------

macro_rules! wrapper {
    ($name:ident, $fmt:ty, $host:ty, $bits:ty, $doc:literal) => {
        #[doc = $doc]
        #[derive(Clone, Copy, PartialEq, Eq, Default)]
        pub struct $name(pub $bits);

        impl $name {
            /// Positive zero.
            pub const ZERO: $name = $name(0);

            /// Wrap raw bits.
            #[inline]
            pub const fn from_bits(b: $bits) -> Self {
                $name(b)
            }

            /// Raw bits.
            #[inline]
            pub const fn to_bits(self) -> $bits {
                self.0
            }

            /// Convert from the host float (bit copy; subnormals will be
            /// flushed on first use).
            #[inline]
            pub fn from_host(v: $host) -> Self {
                $name(v.to_bits())
            }

            /// Convert to the host float (bit copy).
            #[inline]
            pub fn to_host(self) -> $host {
                <$host>::from_bits(self.0)
            }

            /// True for NaN payloads.
            #[inline]
            pub fn is_nan(self) -> bool {
                matches!(unpack::<$fmt>(self.0 as u64), Class::Nan)
            }

            /// IEEE comparison (`None` when unordered).
            #[inline]
            pub fn compare(self, o: Self) -> Option<Ordering> {
                cmp::<$fmt>(self.0 as u64, o.0 as u64)
            }

            /// Magnitude.
            #[inline]
            pub fn abs(self) -> Self {
                $name(abs::<$fmt>(self.0 as u64) as $bits)
            }
        }

        impl std::ops::Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, o: $name) -> $name {
                $name(add::<$fmt>(self.0 as u64, o.0 as u64) as $bits)
            }
        }

        impl std::ops::Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, o: $name) -> $name {
                $name(sub::<$fmt>(self.0 as u64, o.0 as u64) as $bits)
            }
        }

        impl std::ops::Mul for $name {
            type Output = $name;
            #[inline]
            fn mul(self, o: $name) -> $name {
                $name(mul::<$fmt>(self.0 as u64, o.0 as u64) as $bits)
            }
        }

        impl std::ops::Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(neg::<$fmt>(self.0 as u64) as $bits)
            }
        }

        impl From<$host> for $name {
            #[inline]
            fn from(v: $host) -> $name {
                $name::from_host(v)
            }
        }

        impl From<$name> for $host {
            #[inline]
            fn from(v: $name) -> $host {
                v.to_host()
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({:?})"), self.to_host())
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{}", self.to_host())
            }
        }
    };
}

wrapper!(
    Sf64,
    B64,
    f64,
    u64,
    "A 64-bit T Series float: IEEE binary64 with flush-to-zero arithmetic."
);
wrapper!(
    Sf32,
    B32,
    f32,
    u32,
    "A 32-bit T Series float: IEEE binary32 with flush-to-zero arithmetic."
);

impl Sf64 {
    /// Narrow to 32-bit mode (RNE, FTZ).
    pub fn to_sf32(self) -> Sf32 {
        Sf32(f64_to_f32(self.0) as u32)
    }

    /// Convert an integer (RNE).
    pub fn from_i64(v: i64) -> Sf64 {
        Sf64(from_i64::<B64>(v))
    }

    /// Truncate toward zero.
    pub fn to_i64(self) -> i64 {
        to_i64::<B64>(self.0)
    }
}

impl Sf32 {
    /// Widen to 64-bit mode (exact).
    pub fn to_sf64(self) -> Sf64 {
        Sf64(f32_to_f64(self.0 as u64))
    }

    /// Convert an integer (RNE).
    pub fn from_i64(v: i64) -> Sf32 {
        Sf32(from_i64::<B32>(v) as u32)
    }

    /// Truncate toward zero.
    pub fn to_i64(self) -> i64 {
        to_i64::<B32>(self.0 as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(v: f64) -> u64 {
        v.to_bits()
    }

    // Every case below states what the bit-level datapath answers; the
    // dispatching entry points of the same name must agree with it.
    fn add<F: Format>(a: u64, b: u64) -> u64 {
        let r = add_bits::<F>(a, b);
        assert_eq!(super::add::<F>(a, b), r, "add {a:#x} {b:#x}");
        r
    }

    fn sub<F: Format>(a: u64, b: u64) -> u64 {
        let r = add_bits::<F>(a, neg::<F>(b));
        assert_eq!(super::sub::<F>(a, b), r, "sub {a:#x} {b:#x}");
        r
    }

    fn mul<F: Format>(a: u64, b: u64) -> u64 {
        let r = mul_bits::<F>(a, b);
        assert_eq!(super::mul::<F>(a, b), r, "mul {a:#x} {b:#x}");
        r
    }

    #[test]
    fn simple_sums() {
        for (a, b) in [
            (1.0, 2.0),
            (0.1, 0.2),
            (1e300, 1e300),
            (-5.5, 5.5),
            (3.25, -1.125),
        ] {
            assert_eq!(add::<B64>(f(a), f(b)), f(a + b), "{a} + {b}");
        }
    }

    #[test]
    fn simple_products() {
        for (a, b) in [
            (1.5f64, 2.0f64),
            (0.1, 0.2),
            (1e-150, 1e-150),
            (-3.0, 7.0),
            (1e308, 10.0),
        ] {
            let want = a * b;
            let want = if want != 0.0 && want.abs() < f64::MIN_POSITIVE {
                0.0
            } else {
                want
            };
            assert_eq!(mul::<B64>(f(a), f(b)), f(want), "{a} * {b}");
        }
    }

    #[test]
    fn cancellation_gives_plus_zero() {
        let r = add::<B64>(f(1.5), f(-1.5));
        assert_eq!(r, f(0.0));
        assert_eq!(add::<B64>(f(-0.0), f(0.0)), f(0.0));
        assert_eq!(add::<B64>(f(-0.0), f(-0.0)), f(-0.0));
    }

    #[test]
    fn nan_propagates() {
        assert!(Sf64::from_host(f64::NAN + 0.0).is_nan());
        assert_eq!(add::<B64>(f(f64::NAN), f(1.0)), B64::QNAN);
        assert_eq!(mul::<B64>(f(f64::INFINITY), f(0.0)), B64::QNAN);
        assert_eq!(
            add::<B64>(f(f64::INFINITY), f(f64::NEG_INFINITY)),
            B64::QNAN
        );
    }

    #[test]
    fn infinities() {
        assert_eq!(add::<B64>(f(f64::INFINITY), f(1e308)), f(f64::INFINITY));
        assert_eq!(mul::<B64>(f(f64::NEG_INFINITY), f(-2.0)), f(f64::INFINITY));
        // Overflow rounds to infinity.
        assert_eq!(mul::<B64>(f(1e308), f(1e308)), f(f64::INFINITY));
        assert_eq!(add::<B64>(f(f64::MAX), f(f64::MAX)), f(f64::INFINITY));
    }

    #[test]
    fn flush_to_zero_inputs() {
        let sub = f64::from_bits(1); // smallest subnormal
                                     // Treated as zero on input.
        assert_eq!(add::<B64>(f(sub), f(1.0)), f(1.0));
        assert_eq!(mul::<B64>(f(sub), f(1e300)), f(0.0));
        let negsub = f64::from_bits(1 | (1 << 63));
        assert_eq!(mul::<B64>(f(negsub), f(1e300)), f(-0.0));
    }

    #[test]
    fn flush_to_zero_results() {
        // 1e-200 * 1e-200 = 1e-400, far below min normal → +0.
        assert_eq!(mul::<B64>(f(1e-200), f(1e-200)), f(0.0));
        assert_eq!(mul::<B64>(f(-1e-200), f(1e-200)), f(-0.0));
        // Host would produce a subnormal here; we produce zero.
        let a = f64::MIN_POSITIVE; // smallest normal
        assert_eq!(mul::<B64>(f(a), f(0.25)), f(0.0));
        // But min-normal itself survives.
        assert_eq!(mul::<B64>(f(a), f(1.0)), f(a));
    }

    #[test]
    fn overflow_boundary_rounding() {
        // The largest finite double plus half its ulp rounds to infinity
        // (RNE at the overflow boundary), but plus slightly less stays put.
        let max = f64::MAX;
        let ulp = 2f64.powi(971);
        assert_eq!(add::<B64>(f(max), f(ulp / 2.0)), f(f64::INFINITY));
        assert_eq!(add::<B64>(f(max), f(ulp / 4.0)), f(max));
        // Symmetric for the negative side.
        assert_eq!(add::<B64>(f(-max), f(-ulp / 2.0)), f(f64::NEG_INFINITY));
    }

    #[test]
    fn min_normal_boundary() {
        let mn = f64::MIN_POSITIVE; // 2^-1022
                                    // Exactly at the boundary: survives.
        assert_eq!(mul::<B64>(f(mn), f(1.0)), f(mn));
        // Halving flushes (result would be subnormal).
        assert_eq!(mul::<B64>(f(mn), f(0.5)), f(0.0));
        let just_above = mn * 1.0000000001;
        assert_eq!(mul::<B64>(f(just_above), f(1.0)), f(just_above));
        // A product that rounds *up to* the boundary from below also
        // flushes in this implementation: rounding happens at full
        // precision first, and anything strictly below 2^-1022 dies. The
        // host rounds this one at subnormal precision to min-normal — the
        // one disagreement the fast path's result guard exists for.
        let (a, b) = (0x2006b7f3c9e9c616, 0x1ff68960fa2abe6d);
        assert_eq!(f64::from_bits(a) * f64::from_bits(b), mn);
        assert_eq!(mul::<B64>(a, b), f(0.0));
        // Difference of two nearby normals that lands subnormal: flushes.
        let a = mn * 1.5;
        let b = mn * 1.0;
        assert_eq!(add::<B64>(f(a), f(-b)), f(0.0));
    }

    #[test]
    fn nan_payload_becomes_canonical_qnan() {
        // Any NaN input yields the canonical quiet NaN (hardware style).
        let snan_ish = (0x7ffu64 << 52) | 1;
        assert_eq!(add::<B64>(snan_ish, f(1.0)), B64::QNAN);
        assert_eq!(mul::<B64>(f(2.0), snan_ish), B64::QNAN);
    }

    #[test]
    fn signed_zero_products() {
        assert_eq!(mul::<B64>(f(0.0), f(-5.0)), f(-0.0));
        assert_eq!(mul::<B64>(f(-0.0), f(-5.0)), f(0.0));
        assert_eq!(mul::<B64>(f(-0.0), f(0.0)), f(-0.0));
        // x + (-0) keeps x's identity, including for -0.
        assert_eq!(add::<B64>(f(3.5), f(-0.0)), f(3.5));
    }

    #[test]
    fn catastrophic_cancellation_is_exact() {
        // Sterbenz: a - b is exact when a/2 <= b <= 2a; the bit-level
        // subtract path must honour it.
        for (a, b) in [(1.0000001f64, 1.0), (1e300, 9.999999e299), (3.0, 2.5)] {
            assert_eq!(sub::<B64>(f(a), f(b)), f(a - b), "{a} - {b}");
        }
    }

    #[test]
    fn rne_ties_to_even() {
        // 2^53 + 1 is exactly representable? No: 2^53 is the last exact
        // integer; 2^53 + 1 ties and rounds to even (2^53).
        let two53 = (1u64 << 53) as f64;
        assert_eq!(add::<B64>(f(two53), f(1.0)), f(two53));
        // 2^53 + 2 is representable.
        assert_eq!(add::<B64>(f(two53), f(2.0)), f(two53 + 2.0));
        // 2^53 + 3 ties between +2 and +4 → rounds to +4 (even mantissa).
        assert_eq!(add::<B64>(f(two53), f(3.0)), f(two53 + 4.0));
    }

    #[test]
    fn compare_semantics() {
        assert_eq!(cmp::<B64>(f(1.0), f(2.0)), Some(Ordering::Less));
        assert_eq!(cmp::<B64>(f(-1.0), f(-2.0)), Some(Ordering::Greater));
        assert_eq!(cmp::<B64>(f(0.0), f(-0.0)), Some(Ordering::Equal));
        assert_eq!(cmp::<B64>(f(f64::NAN), f(1.0)), None);
        assert_eq!(
            cmp::<B64>(f(f64::NEG_INFINITY), f(f64::MIN)),
            Some(Ordering::Less)
        );
        assert_eq!(cmp::<B64>(f(-1e-300), f(1e-300)), Some(Ordering::Less));
    }

    #[test]
    fn int_conversions() {
        for v in [
            0i64,
            1,
            -1,
            42,
            -12345,
            1 << 52,
            (1 << 53) + 1,
            i64::MAX,
            i64::MIN + 1,
        ] {
            assert_eq!(from_i64::<B64>(v), f(v as f64), "{v}");
        }
        assert_eq!(to_i64::<B64>(f(3.99)), 3);
        assert_eq!(to_i64::<B64>(f(-3.99)), -3);
        assert_eq!(to_i64::<B64>(f(0.4)), 0);
        assert_eq!(to_i64::<B64>(f(f64::NAN)), 0);
        assert_eq!(to_i64::<B64>(f(1e300)), i64::MAX);
        assert_eq!(to_i64::<B64>(f(-1e300)), i64::MIN);
    }

    #[test]
    fn width_conversions() {
        for v in [0.0f32, 1.5, -2.25, 3.4e38, 1e-37] {
            let wide = f32_to_f64(v.to_bits() as u64);
            assert_eq!(wide, (v as f64).to_bits(), "{v}");
        }
        for v in [0.0f64, 1.5, -2.25, 1e40, 0.1] {
            let narrow = f64_to_f32(v.to_bits()) as u32;
            assert_eq!(narrow, (v as f32).to_bits(), "{v}");
        }
        // f64 value in f32-subnormal range flushes.
        let tiny = 1e-40f64;
        assert_eq!(f64_to_f32(tiny.to_bits()) as u32, 0.0f32.to_bits());
    }

    #[test]
    fn b32_arithmetic() {
        let g = |v: f32| v.to_bits() as u64;
        assert_eq!(add::<B32>(g(1.5), g(2.25)), g(3.75));
        assert_eq!(mul::<B32>(g(3.0), g(-7.0)), g(-21.0));
        assert_eq!(mul::<B32>(g(3e38), g(10.0)), g(f32::INFINITY));
        assert_eq!(mul::<B32>(g(1e-30), g(1e-30)), g(0.0)); // FTZ
    }

    #[test]
    fn wrapper_operators() {
        let a = Sf64::from(2.5);
        let b = Sf64::from(4.0);
        assert_eq!((a + b).to_host(), 6.5);
        assert_eq!((a - b).to_host(), -1.5);
        assert_eq!((a * b).to_host(), 10.0);
        assert_eq!((-a).to_host(), -2.5);
        assert_eq!(a.abs(), a);
        assert_eq!((-a).abs(), a);
        assert_eq!(format!("{a}"), "2.5");
    }
}
