//! Arithmetic by the row: one guard per row or block, a native loop, and
//! the element path only for the lanes the guard rejects.
//!
//! This module is the only code that decides when the host's arithmetic
//! may stand in for the bit-level datapath. Per op the guard is: operands
//! normal, result `clear`. The element path — [`super::add`] /
//! [`super::mul`], and so the `Sf64`/`Sf32` operators — is its one-lane
//! case (`add_lane`, `mul_lane`), falling back to [`super::add_bits`] /
//! [`super::mul_bits`]. The row ops pay the guard once per block of 16
//! lanes instead: one branch-free pass computes every lane's host result
//! together with its guard, the block is written if every lane is
//! admitted, and otherwise only the rejected lanes are recomputed by the
//! element path. The native loop uses plain `*` and `+`, never a fused
//! multiply-add, so a chained SAXPY keeps its two roundings.
//!
//! A guard may be *narrower* — fewer checks, computed once per row or
//! block, or fused over several ops — as long as every lane inside it
//! provably passes the per-op guard at every op; then each admitted lane
//! carries the bit-level core's bits. [`gemm`] uses one such narrowing, a
//! band on its operands, and the FFT butterflies ([`complex_sum`],
//! [`complex_diff_mul`]) another. The oracles (the tests below and
//! `tests/prop_fpu.rs`) compare every op against the bit-level core.

use std::ops::{Add, Mul, Range, Sub};

use super::{add_bits, mul_bits, Format, Sf32, Sf64, B32, B64};

/// Lanes a row op classifies and writes at once. A block's inputs stay
/// intact until it is written, so a rejected lane can be recomputed from
/// them even when the op runs in place.
const BLOCK: usize = 16;

/// One lane of a row: a T Series float of one width, with the element
/// path as its operators and the host's unguarded arithmetic beside it.
pub trait Lane:
    Copy + Default + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self>
{
    /// The lane's format.
    type F: Format;
    /// Raw bits, zero-extended.
    fn bits(self) -> u64;
    /// The lane with the low bits of `bits`.
    fn of_bits(bits: u64) -> Self;
    /// The host's `self + o`, unguarded.
    fn host_add(self, o: Self) -> Self;
    /// The host's `self − o`, unguarded.
    fn host_sub(self, o: Self) -> Self;
    /// The host's `self × o`, unguarded.
    fn host_mul(self, o: Self) -> Self;
    /// `|self| ≥ lo`, for `lo` the bits of a positive finite value; false
    /// for NaN. A host float compare, so the guards built on it vectorise
    /// with the arithmetic.
    fn abs_at_least(self, lo: u64) -> bool;
    /// `|self| ≤ hi`, likewise.
    fn abs_at_most(self, hi: u64) -> bool;
}

macro_rules! lane {
    ($name:ty, $fmt:ty) => {
        impl Lane for $name {
            type F = $fmt;
            #[inline(always)]
            fn bits(self) -> u64 {
                self.to_bits() as u64
            }
            #[inline(always)]
            fn of_bits(bits: u64) -> Self {
                Self::from_bits(bits as _)
            }
            #[inline(always)]
            fn host_add(self, o: Self) -> Self {
                Self::from_host(self.to_host() + o.to_host())
            }
            #[inline(always)]
            fn host_sub(self, o: Self) -> Self {
                Self::from_host(self.to_host() - o.to_host())
            }
            #[inline(always)]
            fn host_mul(self, o: Self) -> Self {
                Self::from_host(self.to_host() * o.to_host())
            }
            #[inline(always)]
            fn abs_at_least(self, lo: u64) -> bool {
                self.to_host().abs() >= Self::from_bits(lo as _).to_host()
            }
            #[inline(always)]
            fn abs_at_most(self, hi: u64) -> bool {
                self.to_host().abs() <= Self::from_bits(hi as _).to_host()
            }
        }
    };
}

lane!(Sf64, B64);
lane!(Sf32, B32);

/// The largest finite value's bits.
const fn max_finite<F: Format>() -> u64 {
    (F::EXP_MAX << F::MANT_BITS) - 1
}

/// `|x| ≥ min-normal`: not zero, subnormal or NaN. On an operand whose
/// op's result is checked [`clear`] (or feeds, through further ops, a
/// result that is) this *is* the guard's "operand normal": an Inf operand
/// makes every result it reaches Inf or NaN, which `clear` rejects. Every
/// operand check below is of that kind.
#[inline(always)]
fn normal_operand<L: Lane>(x: L) -> bool {
    x.abs_at_least(1 << L::F::MANT_BITS)
}

/// `|x| ≥ 2·min-normal`: not zero, subnormal, NaN or in the bottom binade.
/// The lower half of [`clear`], enough for an intermediate result that
/// feeds a result checked `clear`, by the same argument.
#[inline(always)]
fn above_bottom<L: Lane>(x: L) -> bool {
    x.abs_at_least(2 << L::F::MANT_BITS)
}

/// Normal and above the bottom binade (exponent field in `2..EXP_MAX−1`):
/// a result the host may give.
#[inline(always)]
fn clear<L: Lane>(x: L) -> bool {
    above_bottom(x) & x.abs_at_most(max_finite::<L::F>())
}

/// Half-width of the band: `H = (BIAS − 2) / 2`, 510 in 64-bit mode and 62
/// in 32-bit mode.
const fn band_half<F: Format>() -> u64 {
    (F::BIAS as u64 - 2) / 2
}

/// `2^−H ≤ |x| < 2^H` (see [`band_half`]). The product of two values in
/// the band lies in `[2^−2H, 2^2H]` after rounding, and `BIAS − 2H ≥ 2`
/// and `BIAS + 2H ≤ EXP_MAX − 1`: it is clear and finite, so a product of
/// band values always passes the multiply guard.
#[inline(always)]
fn in_band<L: Lane>(x: L) -> bool {
    let h = band_half::<L::F>();
    let bias = L::F::BIAS as u64;
    x.abs_at_least((bias - h) << L::F::MANT_BITS)
        & x.abs_at_most(((bias + h) << L::F::MANT_BITS) - 1)
}

/// `z[j] = op(z[j], x[j])` for every lane: `host` gives the lane's native
/// result and whether its guard admits it, `elem` the element path.
#[inline(always)]
fn zip_with<L: Lane>(
    z: &mut [L],
    x: &[L],
    host: impl Fn(L, L) -> (L, bool),
    elem: impl Fn(L, L) -> L,
) {
    assert_eq!(z.len(), x.len(), "row length mismatch");
    let lane = |z: &mut L, x: L| {
        *z = match host(*z, x) {
            (r, true) => r,
            _ => elem(*z, x),
        }
    };
    let mut zs = z.chunks_exact_mut(BLOCK);
    let mut xs = x.chunks_exact(BLOCK);
    for (zb, xb) in (&mut zs).zip(&mut xs) {
        // Whole blocks have a length the compiler knows: the pass unrolls
        // and vectorises. (A lane mask vectorises the guards more reliably
        // than a running `bool`.)
        let zb: &mut [L; BLOCK] = zb.try_into().expect("a whole block");
        let xb: &[L; BLOCK] = xb.try_into().expect("a whole block");
        let mut out = [L::default(); BLOCK];
        let mut rejected = 0u64;
        for k in 0..BLOCK {
            let admitted;
            (out[k], admitted) = host(zb[k], xb[k]);
            rejected |= u64::from(!admitted) << k;
        }
        if rejected == 0 {
            *zb = out;
        } else {
            zb.iter_mut().zip(xb).for_each(|(z, &x)| lane(z, x));
        }
    }
    let tail = zs.into_remainder().iter_mut().zip(xs.remainder());
    tail.for_each(|(z, &x)| lane(z, x));
}

/// `a + b` by the host, and whether the element path's guard admits it.
#[inline(always)]
fn guarded_add<L: Lane>(a: L, b: L) -> (L, bool) {
    let r = a.host_add(b);
    (r, normal_operand(a) & normal_operand(b) & clear(r))
}

/// `a × b` by the host, and whether the element path's guard admits it.
#[inline(always)]
fn guarded_mul<L: Lane>(a: L, b: L) -> (L, bool) {
    let r = a.host_mul(b);
    (r, normal_operand(a) & normal_operand(b) & clear(r))
}

/// `a + b` for one lane: the host's if the guard admits it, otherwise the
/// bit-level core's. This is [`super::add`].
#[inline(always)]
pub(super) fn add_lane<L: Lane>(a: L, b: L) -> L {
    match guarded_add(a, b) {
        (r, true) => r,
        _ => L::of_bits(add_bits::<L::F>(a.bits(), b.bits())),
    }
}

/// `a × b` for one lane, likewise. This is [`super::mul`].
#[inline(always)]
pub(super) fn mul_lane<L: Lane>(a: L, b: L) -> L {
    match guarded_mul(a, b) {
        (r, true) => r,
        _ => L::of_bits(mul_bits::<L::F>(a.bits(), b.bits())),
    }
}

/// `a·x + y` by the host (two roundings), and whether both ops are
/// admitted. The product feeds the checked sum, so it needs only
/// [`above_bottom`], and is then a normal operand.
#[inline(always)]
fn guarded_saxpy<L: Lane>(a: L, x: L, y: L) -> (L, bool) {
    let p = a.host_mul(x);
    let r = p.host_add(y);
    let operands = normal_operand(a) & normal_operand(x) & normal_operand(y);
    (r, operands & above_bottom(p) & clear(r))
}

/// `z[j] += x[j]`.
pub fn add<L: Lane>(z: &mut [L], x: &[L]) {
    zip_with(z, x, guarded_add, |z, x| z + x);
}

/// `z[j] −= x[j]`. Subtraction is addition of the negation, whose
/// operand is normal exactly when `x[j]` is.
pub fn sub<L: Lane>(z: &mut [L], x: &[L]) {
    zip_with(
        z,
        x,
        |z, x| {
            let r = z.host_sub(x);
            (r, normal_operand(z) & normal_operand(x) & clear(r))
        },
        |z, x| z - x,
    );
}

/// `z[j] ×= x[j]`.
pub fn mul<L: Lane>(z: &mut [L], x: &[L]) {
    zip_with(z, x, guarded_mul, |z, x| z * x);
}

/// `y[j] = a·x[j] + y[j]`, the chained SAXPY.
pub fn saxpy<L: Lane>(a: L, x: &[L], y: &mut [L]) {
    zip_with(y, x, |y, x| guarded_saxpy(a, x, y), |y, x| a * x + y);
}

/// `z[j] = s·x[j]`.
pub fn scale<L: Lane>(s: L, x: &[L], z: &mut [L]) {
    zip_with(z, x, |_, x| guarded_mul(s, x), |_, x| s * x);
}

/// `z[j] = s + x[j]`.
pub fn offset<L: Lane>(s: L, x: &[L], z: &mut [L]) {
    zip_with(z, x, |_, x| guarded_add(s, x), |_, x| s + x);
}

/// Feed `vals` through the adder's feedback path in order: the first value
/// seeds an empty accumulator, every later one is added into it.
fn feed<L: Lane>(acc: Option<L>, vals: &[L]) -> Option<L> {
    let (mut acc, rest) = match (acc, vals.split_first()) {
        (Some(a), _) => (a, vals),
        (None, Some((&v, rest))) => (v, rest),
        (None, None) => return None,
    };
    for &v in rest {
        acc = match guarded_add(acc, v) {
            (r, true) => r,
            _ => acc + v,
        };
    }
    Some(acc)
}

/// `Σ x[j]·y[j]` fed into `acc` in order (the vector unit's Dot: the first
/// product seeds an empty accumulator). The products are a row op; the
/// sum is a feedback loop and guards each step.
pub fn dot<L: Lane>(mut acc: Option<L>, x: &[L], y: &[L]) -> Option<L> {
    assert_eq!(x.len(), y.len(), "row length mismatch");
    for (xb, yb) in x.chunks(BLOCK).zip(y.chunks(BLOCK)) {
        let mut p = [L::default(); BLOCK];
        let p = &mut p[..xb.len()];
        p.copy_from_slice(xb);
        mul(p, yb);
        acc = feed(acc, p);
    }
    acc
}

/// `Σ x[j]` fed into `acc` in order (the vector unit's Sum).
pub fn sum<L: Lane>(acc: Option<L>, x: &[L]) -> Option<L> {
    feed(acc, x)
}

/// `c += a·b` over the k-range `ks` on `n × n` row-major blocks, given
/// `at` = Aᵀ, as the SAXPYs `C[i,:] += A[i,k]·B[k,:]` for k in `ks`, in
/// `(i, k)` order: every element of `C` sees the same sequence of roundings
/// as under calls of [`saxpy`]. So `0..n` is the whole product, and
/// consecutive ranges in k-order compose to it bit for bit.
///
/// The range's operands — rows `ks` of Aᵀ and of B, two contiguous runs —
/// are classified once. When every |a| and |b| lies in the band `[2^−H, 2^H)`,
/// `H = (BIAS − 2)/2`, every product is normal, clear and finite, so a
/// lane's guard narrows to "accumulator normal, result clear"; otherwise
/// each row takes [`saxpy`]'s full guard.
pub fn gemm<L: Lane>(n: usize, ks: Range<usize>, at: &[L], b: &[L], c: &mut [L]) {
    assert!(at.len() == n * n && b.len() == n * n && c.len() == n * n && ks.end <= n);
    let (at, b) = (&at[ks.start * n..ks.end * n], &b[ks.start * n..ks.end * n]);
    let banded = at.iter().chain(b).fold(true, |ok, &v| ok & in_band(v));
    for (i, ci) in c.chunks_exact_mut(n).enumerate() {
        for (ak, bk) in at.chunks_exact(n).zip(b.chunks_exact(n)) {
            let aik = ak[i];
            if banded {
                zip_with(
                    ci,
                    bk,
                    |c, b| {
                        let r = aik.host_mul(b).host_add(c);
                        (r, normal_operand(c) & clear(r))
                    },
                    |c, b| aik * b + c,
                );
            } else {
                saxpy(aik, bk, ci);
            }
        }
    }
}

/// Both parts of both complex operands normal.
#[inline(always)]
fn complex_operands<L: Lane>(a: (L, L), b: (L, L)) -> bool {
    normal_operand(a.0) & normal_operand(a.1) & normal_operand(b.0) & normal_operand(b.1)
}

/// The sum `a + b` of complex `(re, im)` values, the low half of a radix-2
/// butterfly: the host's, unless the guard rejects one of its two ops.
#[inline(always)]
pub fn complex_sum<L: Lane>(a: (L, L), b: (L, L)) -> (L, L) {
    let r = (a.0.host_add(b.0), a.1.host_add(b.1));
    if complex_operands(a, b) & clear(r.0) & clear(r.1) {
        r
    } else {
        (a.0 + b.0, a.1 + b.1)
    }
}

/// `w` is `1 ± 0i`, the k = 0 twiddle.
#[inline(always)]
fn unit_twiddle<L: Lane>(w: (L, L)) -> bool {
    let one = (L::F::BIAS as u64) << L::F::MANT_BITS;
    w.0.bits() == one && w.1.bits() & !L::F::SIGN_BIT == 0
}

/// The twiddled difference `(a − b)·w` of complex `(re, im)` values, the
/// high half of a radix-2 butterfly: the host's, unless the guard rejects
/// one of its eight ops. The differences and products feed the two checked
/// results, so each needs only `above_bottom`. The k = 0 twiddle `1 − 0i`
/// has a zero part, which the guard rejects; it has an exact case of its
/// own: with normal operands and both differences clear, each product by
/// the zero part is a zero and adding it leaves a difference as it is, so
/// the result is the differences. Any other lane takes the element path.
#[inline(always)]
pub fn complex_diff_mul<L: Lane>(a: (L, L), b: (L, L), w: (L, L)) -> (L, L) {
    let (dr, di) = (a.0.host_sub(b.0), a.1.host_sub(b.1));
    let (rr, ii) = (dr.host_mul(w.0), di.host_mul(w.1));
    let (ri, ir) = (dr.host_mul(w.1), di.host_mul(w.0));
    let r = (rr.host_sub(ii), ri.host_add(ir));
    let twiddle = normal_operand(w.0) & normal_operand(w.1);
    let steps = [dr, di, rr, ii, ri, ir]
        .into_iter()
        .fold(true, |ok, s| ok & above_bottom(s));
    if complex_operands(a, b) & twiddle & steps & clear(r.0) & clear(r.1) {
        r
    } else if unit_twiddle(w) & complex_operands(a, b) & clear(dr) & clear(di) {
        (dr, di)
    } else {
        let (dr, di) = (a.0 - b.0, a.1 - b.1);
        (dr * w.0 - di * w.1, dr * w.1 + di * w.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_sim::Rng;

    /// `2^−H` and `2^H`, the band's edges.
    fn band_edges<F: Format>() -> (u64, u64) {
        let h = band_half::<F>();
        (
            (F::BIAS as u64 - h) << F::MANT_BITS,
            (F::BIAS as u64 + h) << F::MANT_BITS,
        )
    }

    /// Values the guards reject or sit next to, both signs: zeros,
    /// subnormals, the bottom binade and one ulp either side of each edge a
    /// guard uses (normal, clear, finite, the band).
    fn planted<F: Format>() -> Vec<u64> {
        let mn = 1u64 << F::MANT_BITS;
        let inf = F::EXP_MAX << F::MANT_BITS;
        let (lo, hi) = band_edges::<F>();
        let pos = [
            0,
            1,
            mn - 1,
            mn,
            mn + 1,
            2 * mn - 1,
            2 * mn,
            inf - 1,
            inf,
            F::QNAN,
            inf | 1,
            lo - 1,
            lo,
            hi - 1,
            hi,
        ];
        pos.iter().flat_map(|&b| [b, b | F::SIGN_BIT]).collect()
    }

    /// A normal within a few binades of one: admitted by every guard, and
    /// sums and products of neighbours stay so.
    fn ordinary<F: Format>(rng: &mut Rng) -> u64 {
        let exp = (F::BIAS as u64 - 4 + rng.below(8)) << F::MANT_BITS;
        (rng.next_u64() & (F::SIGN_BIT | F::MANT_MASK)) | exp
    }

    fn bits<L: Lane>(v: &[L]) -> Vec<u64> {
        v.iter().map(|l| l.bits()).collect()
    }

    /// `a + b` through the bit-level core: the spec every op here answers
    /// to (the element path is this module's own one-lane case).
    fn bit_add<L: Lane>(a: L, b: L) -> L {
        L::of_bits(add_bits::<L::F>(a.bits(), b.bits()))
    }

    fn bit_sub<L: Lane>(a: L, b: L) -> L {
        bit_add(a, L::of_bits(b.bits() ^ L::F::SIGN_BIT))
    }

    fn bit_mul<L: Lane>(a: L, b: L) -> L {
        L::of_bits(mul_bits::<L::F>(a.bits(), b.bits()))
    }

    /// The one-lane ops and every row op on `(x, y)` with scalar `s`
    /// against the bit-level core, lane by lane and bit for bit.
    fn row_ops_match_the_bit_level_core<L: Lane>(x: &[L], y: &[L], s: L) {
        let each = |f: &dyn Fn(L, L) -> L| -> Vec<u64> {
            x.iter().zip(y).map(|(&x, &y)| f(x, y).bits()).collect()
        };
        let ctx = || format!("x {:x?}\ny {:x?}\ns {:#x}", bits(x), bits(y), s.bits());
        let in_place = |op: fn(&mut [L], &[L]), init: &[L], other: &[L]| {
            let mut z = init.to_vec();
            op(&mut z, other);
            bits(&z)
        };
        assert_eq!(each(&|x, y| x + y), each(&bit_add), "x + y {}", ctx());
        assert_eq!(each(&|x, y| x - y), each(&bit_sub), "x - y {}", ctx());
        assert_eq!(each(&|x, y| x * y), each(&bit_mul), "x * y {}", ctx());
        assert_eq!(in_place(add, x, y), each(&bit_add), "add {}", ctx());
        assert_eq!(in_place(sub, x, y), each(&bit_sub), "sub {}", ctx());
        assert_eq!(in_place(mul, x, y), each(&bit_mul), "mul {}", ctx());
        let mut z = y.to_vec();
        saxpy(s, x, &mut z);
        let want = each(&|x, y| bit_add(bit_mul(s, x), y));
        assert_eq!(bits(&z), want, "saxpy {}", ctx());
        scale(s, x, &mut z);
        assert_eq!(bits(&z), each(&|x, _| bit_mul(s, x)), "scale {}", ctx());
        offset(s, x, &mut z);
        assert_eq!(bits(&z), each(&|x, _| bit_add(s, x)), "offset {}", ctx());
        let products = || x.iter().zip(y).map(|(&x, &y)| bit_mul(x, y));
        let want = products().reduce(bit_add).map(Lane::bits);
        assert_eq!(dot(None, x, y).map(Lane::bits), want, "dot {}", ctx());
        let want = products().fold(s, bit_add).bits();
        assert_eq!(
            dot(Some(s), x, y).map(Lane::bits),
            Some(want),
            "dot+s {}",
            ctx()
        );
        let want = x.iter().copied().reduce(bit_add).map(Lane::bits);
        assert_eq!(sum(None, x).map(Lane::bits), want, "sum {}", ctx());
    }

    /// Rows of every length up to `max`, each with one planted lane at
    /// every position — in `x` on odd `len + pos`, in `y` on even — the
    /// planted values taken in turn.
    fn planted_rows<L: Lane>(max: usize, seed: u64) {
        let mut rng = Rng::new(seed);
        let plant = planted::<L::F>();
        let mut turn = 0;
        for len in 1..=max {
            let mut x: Vec<L> = (0..len)
                .map(|_| L::of_bits(ordinary::<L::F>(&mut rng)))
                .collect();
            let mut y: Vec<L> = (0..len)
                .map(|_| L::of_bits(ordinary::<L::F>(&mut rng)))
                .collect();
            let s = L::of_bits(ordinary::<L::F>(&mut rng));
            for pos in 0..len {
                let row = if (len + pos) % 2 == 1 { &mut x } else { &mut y };
                let keep = row[pos];
                row[pos] = L::of_bits(plant[turn % plant.len()]);
                turn += 1;
                row_ops_match_the_bit_level_core(&x, &y, s);
                let row = if (len + pos) % 2 == 1 { &mut x } else { &mut y };
                row[pos] = keep;
            }
        }
        // An out-of-guard scalar rejects every lane of a scalar form.
        for (i, &p) in plant.iter().enumerate() {
            let len = 1 + i % BLOCK + BLOCK;
            let x: Vec<L> = (0..len)
                .map(|_| L::of_bits(ordinary::<L::F>(&mut rng)))
                .collect();
            let y: Vec<L> = (0..len)
                .map(|_| L::of_bits(ordinary::<L::F>(&mut rng)))
                .collect();
            row_ops_match_the_bit_level_core(&x, &y, L::of_bits(p));
        }
    }

    #[test]
    fn row_ops_equal_the_bit_level_core_with_a_lane_planted_everywhere_64() {
        planted_rows::<Sf64>(128, 0x70_0064);
    }

    #[test]
    fn row_ops_equal_the_bit_level_core_with_a_lane_planted_everywhere_32() {
        planted_rows::<Sf32>(256, 0x70_0032);
    }

    /// Two values whose sum or difference cancels: `v` clear of the bottom
    /// binade and `v` one ulp off, of either sign, cancel below
    /// min-normal; `+Inf` and `±Inf` cancel to NaN. Only a result check can
    /// reject such a lane.
    fn cancelling<F: Format>(i: usize) -> (u64, [u64; 3]) {
        let inf = F::EXP_MAX << F::MANT_BITS;
        if i % 4 == 3 {
            return (inf, [inf, inf ^ F::SIGN_BIT, inf ^ F::SIGN_BIT]);
        }
        let v = [
            2 << F::MANT_BITS,
            (2 << F::MANT_BITS) + 1,
            3 << F::MANT_BITS,
        ][i % 4];
        (v, [v ^ 1, v ^ 1 ^ F::SIGN_BIT, (v + 1) ^ F::SIGN_BIT])
    }

    #[test]
    fn row_ops_reject_lanes_that_cancel_below_min_normal() {
        fn rows<L: Lane>(seed: u64) {
            let mut rng = Rng::new(seed);
            for len in 1..=2 * BLOCK + 1 {
                for pos in 0..len {
                    let mut row = || -> Vec<L> {
                        (0..len)
                            .map(|_| L::of_bits(ordinary::<L::F>(&mut rng)))
                            .collect()
                    };
                    let (mut x, mut y) = (row(), row());
                    let (v, partners) = cancelling::<L::F>(len + pos);
                    x[pos] = L::of_bits(v);
                    for w in partners {
                        y[pos] = L::of_bits(w);
                        row_ops_match_the_bit_level_core(&x, &y, L::of_bits(w));
                    }
                }
            }
        }
        rows::<Sf64>(0x7c_0064);
        rows::<Sf32>(0x7c_0032);
    }

    /// Operands and products near the floor — `x` in the lowest binades,
    /// or a scalar of 4·min-normal against ordinary `x` — where a subnormal
    /// or zero planted beside them is no longer negligible; and a scalar
    /// near the top, whose host product with a planted subnormal is normal.
    #[test]
    fn row_ops_with_products_near_the_floor() {
        fn rows<L: Lane>(seed: u64) {
            let mut rng = Rng::new(seed);
            let plant = planted::<L::F>();
            let s = L::of_bits(3 << L::F::MANT_BITS);
            let top = L::of_bits((2 * L::F::BIAS as u64 - 2) << L::F::MANT_BITS);
            let floor = |rng: &mut Rng| {
                let exp = (1 + rng.below(8)) << L::F::MANT_BITS;
                L::of_bits((rng.next_u64() & (L::F::SIGN_BIT | L::F::MANT_MASK)) | exp)
            };
            for len in 1..=2 * BLOCK + 1 {
                for pos in 0..len {
                    let x: Vec<L> = (0..len)
                        .map(|_| L::of_bits(ordinary::<L::F>(&mut rng)))
                        .collect();
                    let low: Vec<L> = (0..len).map(|_| floor(&mut rng)).collect();
                    let mut y = low.clone();
                    for &p in &plant {
                        y[pos] = L::of_bits(p);
                        row_ops_match_the_bit_level_core(&x, &y, s);
                        row_ops_match_the_bit_level_core(&y, &x, s);
                        row_ops_match_the_bit_level_core(&y, &low, top);
                        row_ops_match_the_bit_level_core(&low, &y, s);
                    }
                }
            }
        }
        rows::<Sf64>(0x7f_0064);
        rows::<Sf32>(0x7f_0032);
    }

    /// The pairs whose host product rounds up to min-normal while the
    /// datapath flushes it: in a product lane and as SAXPY/scale scalar.
    #[test]
    fn row_ops_flush_the_min_normal_pairs() {
        fn pair<L: Lane>(a: u64, b: u64) {
            assert!(clear(L::of_bits(a)) && clear(L::of_bits(b)));
            for len in 1..=2 * BLOCK + 1 {
                for pos in 0..len {
                    let mut x = vec![L::of_bits(a); len];
                    let mut y = vec![L::of_bits(b); len];
                    x[pos] = L::of_bits(b);
                    y[pos] = L::of_bits(a);
                    row_ops_match_the_bit_level_core(&x, &y, L::of_bits(a));
                    let mut z = x.clone();
                    mul(&mut z, &y);
                    assert_eq!(z[pos].bits(), 0, "flushed");
                }
            }
        }
        pair::<Sf64>(0x2006b7f3c9e9c616, 0x1ff68960fa2abe6d);
        pair::<Sf32>(0x20216642, 0x1fcb0634);
    }

    #[test]
    fn band_edges_are_one_ulp_apart() {
        fn edges<L: Lane>() {
            let (lo, hi) = band_edges::<L::F>();
            let sign = L::F::SIGN_BIT;
            assert!(in_band(L::of_bits(lo)) && !in_band(L::of_bits(lo - 1)));
            assert!(in_band(L::of_bits(hi - 1)) && !in_band(L::of_bits(hi)));
            assert!(in_band(L::of_bits(lo | sign)) && !in_band(L::of_bits(hi | sign)));
            // The extreme band products are clear and finite.
            for (x, y) in [(lo, lo), (hi - 1, hi - 1), (lo | sign, hi - 1)] {
                assert!(
                    clear(L::of_bits(x).host_mul(L::of_bits(y))),
                    "{x:#x} × {y:#x}"
                );
            }
        }
        edges::<Sf64>();
        edges::<Sf32>();
    }

    /// [`gemm`], whole and in k-ranges, against `n²` bit-level SAXPYs in
    /// `(i, k)` order; `a` is Aᵀ.
    fn gemm_matches_saxpys<L: Lane>(n: usize, a: &[L], b: &[L], c: &[L]) {
        let mut want = c.to_vec();
        for i in 0..n {
            for k in 0..n {
                for j in 0..n {
                    want[i * n + j] = bit_add(bit_mul(a[k * n + i], b[k * n + j]), want[i * n + j]);
                }
            }
        }
        let mut got = c.to_vec();
        gemm(n, 0..n, a, b, &mut got);
        assert_eq!(bits(&got), bits(&want), "n {n}");
        // The same product in k-ranges, each classified on its own: one
        // planted value sends only its own range to the full guard.
        for step in [1, 2, 3] {
            let mut got = c.to_vec();
            for k0 in (0..n).step_by(step) {
                gemm(n, k0..(k0 + step).min(n), a, b, &mut got);
            }
            assert_eq!(bits(&got), bits(&want), "n {n}, k-ranges of {step}");
        }
    }

    /// One value planted in A, in B and in C at every position of blocks up
    /// to 9 × 9 (the band's edges among them, so the block path flips), and
    /// accumulators aimed at the bottom binade under the narrowed guard.
    fn planted_blocks<L: Lane>(seed: u64) {
        let mut rng = Rng::new(seed);
        let plant = planted::<L::F>();
        let mut turn = 0;
        for n in 1..=9 {
            let mut m: [Vec<L>; 3] = std::array::from_fn(|_| {
                (0..n * n)
                    .map(|_| L::of_bits(ordinary::<L::F>(&mut rng)))
                    .collect()
            });
            for which in 0..3 {
                for pos in 0..n * n {
                    let keep = m[which][pos];
                    m[which][pos] = L::of_bits(plant[turn % plant.len()]);
                    turn += 1;
                    gemm_matches_saxpys(n, &m[0], &m[1], &m[2]);
                    m[which][pos] = keep;
                }
            }
        }
        // In band, with products near the band's floor: each C[i,j] is the
        // negated first product it receives plus min-normal ½, 1, 2 or 4
        // times (the first sum cancels under, into or just above the bottom
        // binade), or a subnormal the datapath reads as zero and the host
        // does not.
        let (lo, _) = band_edges::<L::F>();
        let mn = 1u64 << L::F::MANT_BITS;
        for n in [1, 3, BLOCK + 1] {
            let a: Vec<L> = (0..n * n).map(|i| L::of_bits(lo + i as u64)).collect();
            let b: Vec<L> = (0..n * n).map(|i| L::of_bits(lo + 3 * i as u64)).collect();
            let c: Vec<L> = (0..n * n)
                .map(|ij| {
                    let first = a[ij / n * n] * b[ij % n];
                    let above = [mn >> 1, mn, mn << 1, mn << 2][ij % 4];
                    let near =
                        L::of_bits(first.bits() ^ L::F::SIGN_BIT).host_add(L::of_bits(above));
                    match ij % 5 {
                        3 => L::of_bits(mn - 1),
                        4 => L::of_bits((mn / 2) | L::F::SIGN_BIT),
                        _ => near,
                    }
                })
                .collect();
            gemm_matches_saxpys(n, &a, &b, &c);
        }
        // Out of band: products the datapath flushes and the host does not
        // (the min-normal pair; the largest subnormal times 2) beside an
        // accumulator of 4·min-normal. Only the band check sends these
        // blocks to the full guard.
        let pair = if L::F::MANT_BITS == 52 {
            (0x2006b7f3c9e9c616, 0x1ff68960fa2abe6d)
        } else {
            (0x20216642, 0x1fcb0634)
        };
        let two = (L::F::BIAS as u64 + 1) << L::F::MANT_BITS;
        for (x, y) in [pair, (mn - 1, two), (two, mn - 1)] {
            for n in [1, 2, BLOCK + 1] {
                let block = |v: u64| vec![L::of_bits(v); n * n];
                gemm_matches_saxpys(n, &block(x), &block(y), &block(3 << L::F::MANT_BITS));
            }
        }
    }

    #[test]
    fn row_gemm_equals_saxpys_with_a_value_planted_in_a_b_and_c() {
        planted_blocks::<Sf64>(0x6e_0064);
        planted_blocks::<Sf32>(0x6e_0032);
    }

    type C = (Sf64, Sf64);

    /// The radix-2 DIF twiddle `e^(−iπ·k/span)`, as the FFT's table holds it.
    fn twiddle(k: usize, span: usize) -> C {
        let angle = -std::f64::consts::PI * k as f64 / span as f64;
        (Sf64::from(angle.cos()), Sf64::from(angle.sin()))
    }

    /// Both butterfly halves on `(a, b, w)`, and `(b, a, w)`'s difference,
    /// against the bit-level core.
    fn butterfly_matches_the_bit_level_core(a: C, b: C, w: C) {
        let bits = |c: C| (c.0.to_bits(), c.1.to_bits());
        let diff_mul = |a: C, b: C| bit_diff_mul(a, b, w);
        let ctx = || format!("{a:?} {b:?} {w:?}");
        let want = (bit_add(a.0, b.0), bit_add(a.1, b.1));
        assert_eq!(bits(complex_sum(a, b)), bits(want), "{}", ctx());
        let got = complex_diff_mul(a, b, w);
        assert_eq!(bits(got), bits(diff_mul(a, b)), "{}", ctx());
        let got = complex_diff_mul(b, a, w);
        assert_eq!(bits(got), bits(diff_mul(b, a)), "{}", ctx());
    }

    #[test]
    fn butterflies_equal_the_bit_level_core_with_a_part_planted_everywhere() {
        // Groups of every span of a 512-point transform: the k = 0 twiddle
        // 1 − 0i leads each, and on span 1 it is the only one. One awkward
        // part is planted at every position of the lows and the highs.
        let plant = planted::<B64>();
        let mut rng = Rng::new(0xFF7);
        let mut turn = 0;
        let mut span = 256;
        while span >= 1 {
            let ws: Vec<C> = (0..span).map(|k| twiddle(k, span)).collect();
            for pos in 0..4 * span {
                let mut part = || Sf64::from(rng.f64() * 2.0 - 1.0);
                let mut g: Vec<C> = (0..2 * span).map(|_| (part(), part())).collect();
                let p = Sf64::from_bits(plant[turn % plant.len()]);
                turn += 1;
                if pos % 2 == 0 {
                    g[pos / 2].0 = p;
                } else {
                    g[pos / 2].1 = p;
                }
                let (lows, highs) = g.split_at(span);
                for ((&a, &b), &w) in lows.iter().zip(highs).zip(&ws) {
                    butterfly_matches_the_bit_level_core(a, b, w);
                }
            }
            span /= 2;
        }
        // Parts clear of the bottom binade whose sum or difference cancels
        // below min-normal: only the checks on the results reject these.
        let mn2 = 0x0020_0000_0000_0000u64;
        for (v, w) in [(mn2, mn2 + 1), (mn2, (mn2 + 1) | 1 << 63)] {
            for k in 0..8 {
                let other = Sf64::from(rng.f64() * 2.0 - 1.0);
                let (v, w) = (Sf64::from_bits(v), Sf64::from_bits(w));
                let (a, b) = if k % 2 == 0 {
                    ((v, other), (w, other))
                } else {
                    ((other, v), (other, w))
                };
                butterfly_matches_the_bit_level_core(a, b, twiddle(k, 8));
            }
        }
    }

    /// `(a − b)·w` through the bit-level core.
    fn bit_diff_mul<L: Lane>(a: (L, L), b: (L, L), w: (L, L)) -> (L, L) {
        let (dr, di) = (bit_sub(a.0, b.0), bit_sub(a.1, b.1));
        (
            bit_sub(bit_mul(dr, w.0), bit_mul(di, w.1)),
            bit_add(bit_mul(dr, w.1), bit_mul(di, w.0)),
        )
    }

    /// Every pairing of parts whose difference is clear, zero, subnormal or
    /// in the bottom binade, either sign, under both signs of the unit
    /// twiddle's zero: the exact case and the element path it falls back to
    /// against the bit-level core.
    fn unit_twiddle_matches_the_bit_level_core<L: Lane>(seed: u64) {
        let mut rng = Rng::new(seed);
        let m = L::F::MANT_BITS;
        let (mn, two, three) = (1u64 << m, 2 << m, (2 << m) | 1 << (m - 1));
        let one = (L::F::BIAS as u64) << m;
        // `(x, y)` operand pairs, both normal: x − y is clear, zero, one ulp
        // of the bottom binade (subnormal), min-normal (the bottom binade)
        // or 3/2 of it.
        let mut pairs = Vec::new();
        for _ in 0..8 {
            let (x, y) = (ordinary::<L::F>(&mut rng), ordinary::<L::F>(&mut rng));
            pairs.extend([(x, y), (x, x)]);
        }
        pairs.extend([(mn + 1, mn), (three, two), (three, mn), (two, mn)]);
        let flip = |(x, y): (u64, u64)| (y, x);
        let pairs: Vec<(u64, u64)> = pairs.iter().flat_map(|&p| [p, flip(p)]).collect();
        let mut admitted = 0;
        for zero in [0, L::F::SIGN_BIT] {
            let w = (L::of_bits(one), L::of_bits(zero));
            for &(ar, br) in &pairs {
                for &(ai, bi) in &pairs {
                    let (a, b) = (
                        (L::of_bits(ar), L::of_bits(ai)),
                        (L::of_bits(br), L::of_bits(bi)),
                    );
                    let got = complex_diff_mul(a, b, w);
                    let want = bit_diff_mul(a, b, w);
                    let ctx = format!("{:x?} {:x?} {:x?}", (ar, ai), (br, bi), zero);
                    assert_eq!(
                        (got.0.bits(), got.1.bits()),
                        (want.0.bits(), want.1.bits()),
                        "{ctx}"
                    );
                    let d = (a.0.host_sub(b.0), a.1.host_sub(b.1));
                    admitted += usize::from(clear(d.0) & clear(d.1));
                }
            }
        }
        assert!(admitted > 0);
    }

    #[test]
    fn the_unit_twiddle_equals_the_bit_level_core_in_both_widths() {
        unit_twiddle_matches_the_bit_level_core::<Sf64>(0x1_0064);
        unit_twiddle_matches_the_bit_level_core::<Sf32>(0x1_0032);
    }

    #[test]
    fn butterflies_equal_the_bit_level_core_on_parts_of_every_magnitude() {
        // Seeded parts of any exponent — weighted to both ends of the range
        // and to the specials — twiddles no table holds, and partners a few
        // ulps off so that sums and differences cancel: each check of the
        // butterfly's guard is the only one to reject some of these lanes.
        let mut rng = Rng::new(0xB7F);
        let part = |rng: &mut Rng| -> Sf64 {
            let exp = match rng.below(6) {
                0 => rng.below(48),
                1 => 2047 - rng.below(48),
                2 => [0, 1, 2, 2046, 2047][rng.range(0, 5)],
                _ => 1023 - 48 + rng.below(96),
            };
            Sf64::from_bits((rng.next_u64() & (1 << 63 | ((1 << 52) - 1))) | exp << 52)
        };
        let c = |re: f64, im: f64| (Sf64::from(re), Sf64::from(im));
        // Clear products that cancel below min-normal in the twiddled
        // result's real or imaginary part (x and x one ulp up, times u).
        let (x, x1) = (2f64.powi(-990), 2f64.powi(-990) * (1.0 + f64::EPSILON));
        let u = 2f64.powi(-10);
        for (a, w) in [
            (c(1.0 + u, 1.0 - u), c(x, x1)),
            (c(1.0 + u, 1.0 + u), c(x1, x)),
        ] {
            butterfly_matches_the_bit_level_core(a, c(1.0, 1.0), w);
        }
        // A product the host rounds up to min-normal and the datapath
        // flushes (the min-normal pair), inside a lane whose every other
        // step and both results are clear: only the product's own check
        // rejects it.
        let (pa, pb) = (
            f64::from_bits(0x2006_b7f3_c9e9_c616),
            f64::from_bits(0x1ff6_8960_fa2a_be6d),
        );
        butterfly_matches_the_bit_level_core(
            c(2.0 * pa, 2f64.powi(-506)),
            c(pa, 2f64.powi(-507)),
            c(pb, -4.0 * pb),
        );
        for _ in 0..200_000 {
            let mut c = || (part(&mut rng), part(&mut rng));
            let (a, mut b, w) = (c(), c(), c());
            if rng.bool() {
                let sign = rng.below(2) << 63;
                b.0 = Sf64::from_bits(a.0.to_bits().wrapping_add(rng.below(4)));
                b.1 = Sf64::from_bits((a.1.to_bits() ^ sign).wrapping_add(rng.below(4)));
            }
            butterfly_matches_the_bit_level_core(a, b, w);
        }
    }
}
