//! Division, reciprocal and square root as software routines.
//!
//! The T Series node has **no floating-point divider**: the arithmetic
//! hardware is an adder and a multiplier (§II *Arithmetic*). Machines of
//! this class compute quotients by Newton–Raphson iteration on a reciprocal
//! seed, using only multiplies and adds — exactly what this module does, so
//! that the simulated kernels (LU pivoting, Jacobi sweeps) pay a realistic
//! multi-operation cost for every divide.
//!
//! * [`recip`] — 1/x via Newton–Raphson: `y ← y·(2 − x·y)`, quadratic
//!   convergence from an exponent-flip seed; 5 iterations reach binary64
//!   round-off.
//! * [`div`] — `a/b = a · recip(b)` with a final correction step
//!   `q ← q + r·recip(b)` where `r = a − q·b`, which brings the result to
//!   within 1 ulp of the correctly rounded quotient.
//! * [`sqrt`] — via reciprocal square root `y ← y·(3 − x·y²)/2`.
//!
//! A program pays for these by issuing their arithmetic as vector forms
//! (`ts_vec::VecForm::RECIP` and `SQRT`): a reciprocal is 17 dependent
//! adds and multiplies, which is why division runs far below 8 MFLOPS on
//! this machine.

use crate::soft::{Format, Sf64, B64};

/// Reciprocal seed: write `x = 2^(e+1) · d` with `d ∈ [0.5, 1)` and use the
/// classic Newton division seed `1/d ≈ 48/17 − 32/17·d` (≥ 4.54 correct
/// bits), then scale the exponent back. Computed entirely with the software
/// arithmetic, as the machine's run-time library would.
fn recip_seed(x: Sf64) -> Sf64 {
    let bits = x.to_bits();
    let sign = bits & (1 << 63);
    let exp = (bits >> 52) & 0x7ff;
    debug_assert!(exp != 0 && exp != 0x7ff, "caller handles specials");
    let d_bits = (1022u64 << 52) | (bits & ((1 << 52) - 1)); // d = m/2 ∈ [0.5,1)
    let d = Sf64::from_bits(d_bits);
    let c1 = Sf64::from(48.0 / 17.0);
    let c2 = Sf64::from(32.0 / 17.0);
    let approx = c1 - c2 * d; // ≈ 1/d ∈ (1, 2]
                              // Scale by 2^-(e+1).
    let e_unb = exp as i64 - 1023;
    let a_bits = approx.to_bits();
    let a_exp = ((a_bits >> 52) & 0x7ff) as i64;
    let new_exp = a_exp - e_unb - 1;
    debug_assert!(
        (1..=0x7fe).contains(&new_exp),
        "recip_seed exponent out of range (caller screens e >= 1022)"
    );
    Sf64::from_bits(sign | ((new_exp as u64) << 52) | (a_bits & ((1 << 52) - 1)))
}

/// Software reciprocal `1/x` using only the node's add and multiply.
///
/// Exact zeros give ±inf; infinities give ±0; NaN propagates. Accuracy for
/// normal finite `x`: within 1 ulp of the correctly rounded reciprocal
/// (property-tested against the host).
pub fn recip(x: Sf64) -> Sf64 {
    let bits = x.to_bits();
    let exp = (bits >> 52) & 0x7ff;
    let frac = bits & ((1 << 52) - 1);
    let sign = bits & (1 << 63);
    if exp == 0x7ff {
        return if frac != 0 { x } else { Sf64::from_bits(sign) }; // NaN | ±inf → ±0
    }
    if exp == 0 {
        // Zero or subnormal (which the hardware flushes): 1/0 → ±inf.
        return Sf64::from_bits(sign | (0x7ffu64 << 52));
    }
    let e_unb = exp as i64 - 1023;
    if e_unb >= 1022 {
        // 1/x is at or below the smallest normal. Exactly 2^1022 reciprocates
        // to the smallest normal; everything else flushes to zero.
        return if e_unb == 1022 && frac == 0 {
            Sf64::from_bits(sign | (1u64 << 52))
        } else {
            Sf64::from_bits(sign)
        };
    }
    let two = Sf64::from(2.0);
    let mut y = recip_seed(x);
    for _ in 0..5 {
        // y ← y·(2 − x·y); quadratic convergence.
        y = y * (two - x * y);
    }
    y
}

/// Software division `a / b` (multiply by reciprocal plus one residual
/// correction step).
pub fn div(a: Sf64, b: Sf64) -> Sf64 {
    let y = recip(b);
    let q = a * y;
    // The residual correction is only meaningful for finite nonzero results;
    // for 0, ±inf and NaN quotients it would manufacture NaNs (inf·0 terms).
    let q_exp = (q.to_bits() >> 52) & 0x7ff;
    if q_exp == 0 || q_exp == 0x7ff {
        return q;
    }
    // One correction: q' = q + (a − q·b)·y. Brings error to ≤1 ulp.
    let r = a - q * b;
    q + r * y
}

/// Software square root via Newton on the reciprocal square root.
/// Negative input → NaN; ±0 → ±0; +inf → +inf.
pub fn sqrt(x: Sf64) -> Sf64 {
    let bits = x.to_bits();
    let exp = (bits >> 52) & 0x7ff;
    if bits >> 63 == 1 {
        return if exp == 0 {
            x // −0 (subnormals flush) → −0
        } else {
            Sf64::from_bits(B64::QNAN)
        };
    }
    if exp == 0x7ff {
        return x; // +inf or NaN
    }
    if exp == 0 {
        return Sf64::ZERO;
    }
    // Seed for 1/sqrt(x): with x = m·4^k (m ∈ [1,4)), take y₀ = c·2^(−k).
    // Newton on the reciprocal square root diverges to the negative root if
    // x·y₀² ≥ 3, so pick c = 1 for even exponents (x·y₀² = m < 2) and
    // c = 3/4 for odd ones (x·y₀² = 1.125·m' < 2.25 for m' ∈ [1,2)).
    let e_unb = exp as i64 - 1023;
    let k = e_unb >> 1; // arithmetic shift: floor(e/2)
    let seed_exp = (1023 - k) as u64;
    let mut y = Sf64::from_bits(seed_exp << 52);
    if e_unb & 1 == 1 {
        y = y * Sf64::from(0.75);
    }
    let half = Sf64::from(0.5);
    let three = Sf64::from(3.0);
    // The exponent-only seed can be ~50% off, so convergence is linear for
    // the first few sweeps before turning quadratic; nine sweeps reach
    // binary64 round-off from the worst-case seed.
    for _ in 0..9 {
        // y ← y·(3 − x·y²)/2
        y = y * half * (three - x * y * y);
    }
    let s = x * y; // sqrt(x) = x / sqrt(x)
                   // One Heron correction with software divide-free step:
                   // s' = (s + x·recip(s)) / 2 — use recip (mul/add only).
    (s + x * recip(s)) * half
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ulp_diff(a: f64, b: f64) -> u64 {
        let (ia, ib) = (a.to_bits() as i64, b.to_bits() as i64);
        (ia - ib).unsigned_abs()
    }

    #[test]
    fn recip_accuracy() {
        for v in [
            1.0, 2.0, 3.0, 0.1, 17.0, 1e10, 1e-10, -5.0, 123456.789, 0.9999999,
        ] {
            let r = recip(Sf64::from(v)).to_host();
            assert!(
                ulp_diff(r, 1.0 / v) <= 1,
                "recip({v}) = {r}, want {}",
                1.0 / v
            );
        }
    }

    #[test]
    fn recip_specials() {
        assert_eq!(recip(Sf64::from(0.0)).to_host(), f64::INFINITY);
        assert_eq!(recip(Sf64::from(-0.0)).to_host(), f64::NEG_INFINITY);
        assert_eq!(recip(Sf64::from(f64::INFINITY)).to_host(), 0.0);
        assert!(recip(Sf64::from(f64::NAN)).is_nan());
    }

    #[test]
    fn div_accuracy() {
        for (a, b) in [
            (1.0, 3.0),
            (22.0, 7.0),
            (-1e5, 17.0),
            (0.1, 0.3),
            (1e200, 1e-100),
        ] {
            let q = div(Sf64::from(a), Sf64::from(b)).to_host();
            assert!(ulp_diff(q, a / b) <= 1, "{a}/{b} = {q}, want {}", a / b);
        }
        assert_eq!(
            div(Sf64::from(5.0), Sf64::from(0.0)).to_host(),
            f64::INFINITY
        );
    }

    #[test]
    fn sqrt_accuracy() {
        for v in [1.0, 2.0, 4.0, 9.0, 0.25, 1e10, 3.7, 1e-8, 6.25e4] {
            let s = sqrt(Sf64::from(v)).to_host();
            assert!(
                ulp_diff(s, v.sqrt()) <= 2,
                "sqrt({v}) = {s}, want {}",
                v.sqrt()
            );
        }
        assert!(sqrt(Sf64::from(-1.0)).is_nan());
        assert_eq!(sqrt(Sf64::from(0.0)).to_host(), 0.0);
        assert_eq!(sqrt(Sf64::from(f64::INFINITY)).to_host(), f64::INFINITY);
    }
}
