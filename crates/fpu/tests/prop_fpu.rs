//! Property tests: the software FPU against the host's IEEE-754 hardware.
//!
//! For operands and results that stay inside the normal range, flush-to-zero
//! arithmetic is bit-identical to IEEE round-to-nearest-even, so the software
//! implementation must match the host **exactly, bit for bit**. Where
//! subnormals appear we pin the documented FTZ semantics instead.
//!
//! `soft::add`/`sub`/`mul` hand most operands to the host, so every
//! host-vs-software property here drives the bit-level core
//! (`add_bits`/`mul_bits`) — otherwise it would compare the host with
//! itself — and `dispatch_equals_bit_level_core_*` ties the dispatching
//! entry points (the one-lane case of `soft::row`, the one home of the
//! host guard) to that core on operands aimed at every edge of the guard.
//!
//! Random cases come from the workspace's seeded [`Rng`], so the suite runs
//! offline and every failure replays.

use ts_fpu::soft::{self, Format, B32, B64};
use ts_fpu::{softdiv, Sf32, Sf64};
use ts_sim::Rng;

/// Flush subnormals of the host representation to a same-signed zero
/// (the reference model for inputs *and* results).
fn ftz64(v: f64) -> f64 {
    if v != 0.0 && v.abs() < f64::MIN_POSITIVE {
        if v.is_sign_negative() {
            -0.0
        } else {
            0.0
        }
    } else {
        v
    }
}

fn ftz32(v: f32) -> f32 {
    if v != 0.0 && v.abs() < f32::MIN_POSITIVE {
        if v.is_sign_negative() {
            -0.0
        } else {
            0.0
        }
    } else {
        v
    }
}

/// Finite f64 whose exponent keeps +, −, × results clear of the subnormal
/// boundary, so host RNE and software FTZ agree exactly.
fn safe_f64(rng: &mut Rng) -> f64 {
    // sign × mantissa-in-[1,2) × 2^e with e in [-400, 400].
    let neg = rng.bool();
    let frac = rng.next_u64();
    let e = rng.range(0, 801) as i32 - 400;
    let m = 1.0 + (frac >> 12) as f64 / (1u64 << 52) as f64;
    let v = m * 2f64.powi(e);
    if neg {
        -v
    } else {
        v
    }
}

fn safe_f32(rng: &mut Rng) -> f32 {
    let neg = rng.bool();
    let frac = rng.next_u32();
    let e = rng.range(0, 81) as i32 - 40;
    let m = 1.0 + (frac >> 9) as f32 / (1u32 << 23) as f32;
    let v = m * 2f32.powi(e);
    if neg {
        -v
    } else {
        v
    }
}

const CASES: usize = 2000;

/// The bit-level datapath behind the wrappers' operators.
fn add64(a: f64, b: f64) -> u64 {
    soft::add_bits::<B64>(a.to_bits(), b.to_bits())
}

fn sub64(a: f64, b: f64) -> u64 {
    add64(a, -b)
}

fn mul64(a: f64, b: f64) -> u64 {
    soft::mul_bits::<B64>(a.to_bits(), b.to_bits())
}

fn add32(a: f32, b: f32) -> u32 {
    soft::add_bits::<B32>(a.to_bits() as u64, b.to_bits() as u64) as u32
}

fn mul32(a: f32, b: f32) -> u32 {
    soft::mul_bits::<B32>(a.to_bits() as u64, b.to_bits() as u64) as u32
}

#[test]
fn add64_matches_host() {
    let mut rng = Rng::new(0xf9a0_0001);
    for _ in 0..CASES {
        let (a, b) = (safe_f64(&mut rng), safe_f64(&mut rng));
        let sw = add64(a, b);
        let host = (a + b).to_bits();
        assert_eq!(sw, host, "{a} + {b}");
    }
}

#[test]
fn sub64_matches_host() {
    let mut rng = Rng::new(0xf9a0_0002);
    for _ in 0..CASES {
        let (a, b) = (safe_f64(&mut rng), safe_f64(&mut rng));
        let sw = sub64(a, b);
        let host = (a - b).to_bits();
        assert_eq!(sw, host, "{a} - {b}");
    }
}

#[test]
fn mul64_matches_host() {
    let mut rng = Rng::new(0xf9a0_0003);
    for _ in 0..CASES {
        let (a, b) = (safe_f64(&mut rng), safe_f64(&mut rng));
        let sw = mul64(a, b);
        let host = (a * b).to_bits();
        assert_eq!(sw, host, "{a} * {b}");
    }
}

#[test]
fn add32_matches_host() {
    let mut rng = Rng::new(0xf9a0_0004);
    for _ in 0..CASES {
        let (a, b) = (safe_f32(&mut rng), safe_f32(&mut rng));
        let sw = add32(a, b);
        let host = (a + b).to_bits();
        assert_eq!(sw, host, "{a} + {b}");
    }
}

#[test]
fn mul32_matches_host() {
    let mut rng = Rng::new(0xf9a0_0005);
    for _ in 0..CASES {
        let (a, b) = (safe_f32(&mut rng), safe_f32(&mut rng));
        let sw = mul32(a, b);
        let host = (a * b).to_bits();
        assert_eq!(sw, host, "{a} * {b}");
    }
}

/// Arbitrary bit patterns (including NaNs, infs, subnormals): the software
/// result must equal FTZ(host(FTZ(a), FTZ(b))) whenever that reference is
/// well-defined (we skip cases where the host result is subnormal-rounded
/// at the normal boundary, where FTZ and gradual underflow legitimately
/// disagree), and NaNs must map to NaNs.
#[test]
fn add64_arbitrary_bits() {
    let mut rng = Rng::new(0xf9a0_0006);
    for _ in 0..CASES {
        let (abits, bbits) = (rng.next_u64(), rng.next_u64());
        let (a, b) = (f64::from_bits(abits), f64::from_bits(bbits));
        let sw = f64::from_bits(add64(a, b));
        let host = ftz64(ftz64(a) + ftz64(b));
        if host.is_nan() {
            assert!(sw.is_nan());
        } else if host == 0.0 || host.abs() >= f64::MIN_POSITIVE * 2.0 {
            // Away from the FTZ boundary the reference is exact...
            if ftz64(a) + ftz64(b) == host {
                // ...but only when the host itself did not round a subnormal.
                assert_eq!(sw.to_bits(), host.to_bits(), "{a} + {b}");
            }
        }
    }
}

#[test]
fn mul64_arbitrary_bits() {
    let mut rng = Rng::new(0xf9a0_0007);
    for _ in 0..CASES {
        let (abits, bbits) = (rng.next_u64(), rng.next_u64());
        let (a, b) = (f64::from_bits(abits), f64::from_bits(bbits));
        let sw = f64::from_bits(mul64(a, b));
        let host = ftz64(ftz64(a) * ftz64(b));
        if host.is_nan() {
            assert!(sw.is_nan());
        } else if (host == 0.0 || host.abs() >= f64::MIN_POSITIVE * 2.0)
            && ftz64(a) * ftz64(b) == host
        {
            assert_eq!(sw.to_bits(), host.to_bits(), "{a} * {b}");
        }
    }
}

#[test]
fn mul32_arbitrary_bits() {
    let mut rng = Rng::new(0xf9a0_0008);
    for _ in 0..CASES {
        let (abits, bbits) = (rng.next_u32(), rng.next_u32());
        let (a, b) = (f32::from_bits(abits), f32::from_bits(bbits));
        let sw = f32::from_bits(mul32(a, b));
        let host = ftz32(ftz32(a) * ftz32(b));
        if host.is_nan() {
            assert!(sw.is_nan());
        } else if (host == 0.0 || host.abs() >= f32::MIN_POSITIVE * 2.0)
            && ftz32(a) * ftz32(b) == host
        {
            assert_eq!(sw.to_bits(), host.to_bits(), "{a} * {b}");
        }
    }
}

#[test]
fn compare_matches_host_partial_cmp() {
    let mut rng = Rng::new(0xf9a0_0009);
    for _ in 0..CASES {
        let (a, b) = (
            f64::from_bits(rng.next_u64()),
            f64::from_bits(rng.next_u64()),
        );
        // FTZ first: −min_subnormal and +min_subnormal compare equal here.
        let (fa, fb) = (ftz64(a), ftz64(b));
        let sw = Sf64::from(a).compare(Sf64::from(b));
        assert_eq!(sw, fa.partial_cmp(&fb), "{a} vs {b}");
    }
}

#[test]
fn addition_commutes() {
    let mut rng = Rng::new(0xf9a0_000a);
    for _ in 0..CASES {
        let (a, b) = (safe_f64(&mut rng), safe_f64(&mut rng));
        assert_eq!(add64(a, b), add64(b, a));
    }
}

#[test]
fn multiplication_commutes() {
    let mut rng = Rng::new(0xf9a0_000b);
    for _ in 0..CASES {
        let (a, b) = (safe_f64(&mut rng), safe_f64(&mut rng));
        assert_eq!(mul64(a, b), mul64(b, a));
    }
}

#[test]
fn negation_is_exact() {
    let mut rng = Rng::new(0xf9a0_000c);
    for _ in 0..CASES {
        let (a, b) = (safe_f64(&mut rng), safe_f64(&mut rng));
        // a − b == −(b − a) in RNE (sign-symmetric rounding).
        assert_eq!(sub64(a, b), soft::neg::<B64>(sub64(b, a)));
    }
}

#[test]
fn narrow_matches_host() {
    let mut rng = Rng::new(0xf9a0_000d);
    for _ in 0..CASES {
        let a = safe_f64(&mut rng);
        let sw = Sf64::from(a).to_sf32().to_bits();
        let host = ftz32(a as f32).to_bits();
        assert_eq!(sw, host, "{a}");
    }
}

#[test]
fn widen_matches_host() {
    let mut rng = Rng::new(0xf9a0_000e);
    for _ in 0..CASES {
        let a = safe_f32(&mut rng);
        let sw = Sf32::from(a).to_sf64().to_bits();
        let host = (a as f64).to_bits();
        assert_eq!(sw, host, "{a}");
    }
}

#[test]
fn int_roundtrip() {
    let mut rng = Rng::new(0xf9a0_000f);
    for _ in 0..CASES {
        let v = rng.next_u64() as i64;
        let f = Sf64::from_i64(v);
        assert_eq!(f.to_host().to_bits(), (v as f64).to_bits());
        // Values representable exactly round-trip.
        if v.abs() < (1 << 53) {
            assert_eq!(f.to_i64(), v);
        }
    }
}

#[test]
fn truncation_matches_host() {
    let mut rng = Rng::new(0xf9a0_0010);
    for _ in 0..CASES {
        let a = safe_f64(&mut rng);
        let clamped = a.clamp(-1e18, 1e18);
        assert_eq!(Sf64::from(clamped).to_i64(), clamped.trunc() as i64);
    }
}

#[test]
fn recip_within_1ulp() {
    let mut rng = Rng::new(0xf9a0_0011);
    for _ in 0..CASES {
        let a = safe_f64(&mut rng);
        let r = softdiv::recip(Sf64::from(a)).to_host();
        let want = 1.0 / a;
        if want.is_finite() && want.abs() >= f64::MIN_POSITIVE {
            let ud = (r.to_bits() as i64 - want.to_bits() as i64).unsigned_abs();
            assert!(ud <= 1, "recip({a}) = {r}, want {want} ({ud} ulp)");
        }
    }
}

#[test]
fn div_within_1ulp() {
    let mut rng = Rng::new(0xf9a0_0012);
    for _ in 0..CASES {
        let (a, b) = (safe_f64(&mut rng), safe_f64(&mut rng));
        let q = softdiv::div(Sf64::from(a), Sf64::from(b)).to_host();
        let want = a / b;
        if want.is_finite() && want.abs() >= f64::MIN_POSITIVE {
            let ud = (q.to_bits() as i64 - want.to_bits() as i64).unsigned_abs();
            assert!(ud <= 1, "{a}/{b} = {q}, want {want} ({ud} ulp)");
        }
    }
}

#[test]
fn sqrt_within_2ulp() {
    let mut rng = Rng::new(0xf9a0_0013);
    for _ in 0..CASES {
        let x = safe_f64(&mut rng).abs();
        let s = softdiv::sqrt(Sf64::from(x)).to_host();
        let want = x.sqrt();
        let ud = (s.to_bits() as i64 - want.to_bits() as i64).unsigned_abs();
        assert!(ud <= 2, "sqrt({x}) = {s}, want {want} ({ud} ulp)");
    }
}

#[test]
fn raw_add_never_panics() {
    let mut rng = Rng::new(0xf9a0_0014);
    for _ in 0..CASES {
        let (abits, bbits) = (rng.next_u64(), rng.next_u64());
        let _ = soft::add_bits::<B64>(abits, bbits);
        let _ = soft::mul_bits::<B64>(abits, bbits);
        let _ = soft::add_bits::<B32>(abits & 0xffff_ffff, bbits & 0xffff_ffff);
        let _ = soft::mul_bits::<B32>(abits & 0xffff_ffff, bbits & 0xffff_ffff);
    }
}

/// An operand aimed at the guard's edges: the exponent field sits at the
/// bottom, the top, or where a product of two lands on the underflow
/// threshold (two fields near BIAS/2 sum to ≈ 0), and the mantissa at the
/// values where rounding carries.
fn edge_operand<F: Format>(rng: &mut Rng) -> u64 {
    let bias = F::BIAS as u64;
    let exps = [
        0,
        1,
        2,
        3,
        bias / 2,
        bias / 2 + 1,
        bias - 1,
        bias,
        bias + 1,
        F::EXP_MAX - 2,
        F::EXP_MAX - 1,
        F::EXP_MAX,
    ];
    let ones = F::MANT_MASK;
    let mants = [0, 1, ones, ones - 1, F::HIDDEN >> 1, rng.next_u64() & ones];
    let sign = if rng.bool() { F::SIGN_BIT } else { 0 };
    sign | (exps[rng.range(0, exps.len())] << F::MANT_BITS) | mants[rng.range(0, mants.len())]
}

/// Whether the guard's spec hands `op(a, b)` to the host: both operands
/// normal (exponent field in `1..EXP_MAX`) and the result `r` normal,
/// finite and above the bottom binade (field in `2..EXP_MAX`).
fn in_guard<F: Format>(a: u64, b: u64, r: u64) -> bool {
    let field = |x: u64| (x >> F::MANT_BITS) & F::EXP_MAX;
    let normal = |x: u64| (1..F::EXP_MAX).contains(&field(x));
    normal(a) && normal(b) && (2..F::EXP_MAX).contains(&field(r))
}

/// `add`/`sub`/`mul` ≡ the bit-level core on `PAIRS` edge-directed pairs,
/// at least `min_host_share` of the operations inside the guard, where the
/// host path is taken (both operands normal has probability
/// (10/12)² ≈ 0.69; the result guard then drops sums that cancel and
/// products off either end).
fn dispatch_equals_bit_level_core<F: Format>(seed: u64, min_host_share: f64) {
    const PAIRS: usize = 1 << 20;
    let mut rng = Rng::new(seed);
    let mut by_host = 0usize;
    for _ in 0..PAIRS {
        let (a, b) = (edge_operand::<F>(&mut rng), edge_operand::<F>(&mut rng));
        let nb = soft::neg::<F>(b);
        let (sum, diff, prod) = (
            soft::add_bits::<F>(a, b),
            soft::add_bits::<F>(a, nb),
            soft::mul_bits::<F>(a, b),
        );
        assert_eq!(soft::add::<F>(a, b), sum, "{a:#x} + {b:#x}");
        assert_eq!(soft::sub::<F>(a, b), diff, "{a:#x} - {b:#x}");
        assert_eq!(soft::mul::<F>(a, b), prod, "{a:#x} * {b:#x}");
        by_host += usize::from(in_guard::<F>(a, b, sum))
            + usize::from(in_guard::<F>(a, nb, diff))
            + usize::from(in_guard::<F>(a, b, prod));
    }
    let share = by_host as f64 / (3 * PAIRS) as f64;
    assert!(
        share >= min_host_share,
        "host path took {share:.3} of the operations"
    );
}

#[test]
fn dispatch_equals_bit_level_core_b64() {
    dispatch_equals_bit_level_core::<B64>(0xf9a0_0015, 0.55);
}

#[test]
fn dispatch_equals_bit_level_core_b32() {
    dispatch_equals_bit_level_core::<B32>(0xf9a0_0016, 0.55);
}

/// The one disagreement, too narrow for random draws: a product in
/// (min-normal − ½ulp, min-normal − ¼ulp) of the binade below. The host
/// rounds it at subnormal precision up to min-normal; the datapath rounds
/// at full precision, stays below and flushes. The result guard (exponent
/// field ≥ 2) is what keeps `mul` on the datapath's side.
#[test]
fn product_rounding_up_to_min_normal_flushes() {
    let (a, b) = (0x2006_b7f3_c9e9_c616u64, 0x1ff6_8960_fa2a_be6du64);
    assert_eq!(f64::from_bits(a) * f64::from_bits(b), f64::MIN_POSITIVE);
    assert_eq!(soft::mul_bits::<B64>(a, b), 0);
    assert_eq!(soft::mul::<B64>(a, b), 0);
    assert_eq!((Sf64::from_bits(a) * Sf64::from_bits(b)).to_bits(), 0);

    // Significand product in (2^47 − 2^23, 2^47 − 2^22), exponent fields
    // summing to BIAS: one below min-normal.
    let (a, b) = (0x2021_6642u32, 0x1fcb_0634u32);
    assert_eq!(f32::from_bits(a) * f32::from_bits(b), f32::MIN_POSITIVE);
    assert_eq!(soft::mul_bits::<B32>(a as u64, b as u64), 0);
    assert_eq!(soft::mul::<B32>(a as u64, b as u64), 0);
    assert_eq!((Sf32::from_bits(a) * Sf32::from_bits(b)).to_bits(), 0);
}
