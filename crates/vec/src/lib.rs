//! # ts-vec — vector registers and the arithmetic controller
//!
//! §II *Memory* / *Arithmetic*: the vector arithmetic unit views node memory
//! as two banks of 1024-byte **vectors** aligned on row boundaries. A vector
//! register loads an entire row in 400 ns; two registers stream operands
//! into the pipelined adder/multiplier at one element per 125 ns cycle
//! (62.5 ns per 32-bit word), and results shift back into either bank. A
//! preprogrammed **micro-sequencer** executes "vector forms": the program
//! names the operands and the form, and the control processor is free until
//! the completion interrupt.
//!
//! This crate implements that machinery over [`ts_mem::NodeMemory`]:
//!
//! * [`VectorReg`] — a 1024-byte register with row load/store and typed
//!   element access.
//! * [`VecUnit`] — the micro-sequencer. Every [`form`](VecForm) computes
//!   **real element values** with the bit-accurate `ts-fpu` arithmetic *and*
//!   returns the cycle-exact [`VecTiming`] of the hardware:
//!   `overhead + row I/O + pipeline_depth + (n−1)·II` cycles, where the
//!   initiation interval II is 1 when the two operand streams come from
//!   different banks and 2 when they collide in one bank — the measurable
//!   content of the paper's dual-bank design claim (experiment E9).
//! * Chained forms (SAXPY, dot product) run the multiplier into the adder:
//!   depth is the sum of both pipes, the rate is unchanged, and each element
//!   counts 2 flops — which is exactly how the node reaches its 16 MFLOPS
//!   peak.
//!
//! Scalar results (dot, sum, min/max) return through the status interface
//! rather than a memory row.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use ts_fpu::pipeline::{Pipeline, Precision};
use ts_fpu::soft::row::{self, Lane};
use ts_fpu::soft::{self, Format, B32, B64};
use ts_fpu::{Sf32, Sf64};
use ts_mem::{Bank, MemError, NodeMemory, ROW_TIME, ROW_WORDS};
use ts_sim::Dur;
use VecForm::{VAdd, VMul, VSMul, VSub};

/// One 1024-byte vector register (a full memory row).
#[derive(Clone)]
pub struct VectorReg {
    words: [u32; ROW_WORDS],
}

impl Default for VectorReg {
    fn default() -> Self {
        Self::new()
    }
}

impl VectorReg {
    /// A zeroed register.
    pub fn new() -> VectorReg {
        VectorReg {
            words: [0; ROW_WORDS],
        }
    }

    /// Load from a memory row (hardware cost: [`ROW_TIME`]).
    pub fn load(&mut self, mem: &NodeMemory, row: usize) -> Result<(), MemError> {
        mem.read_row(row, &mut self.words)
    }

    /// Store to a memory row (hardware cost: [`ROW_TIME`]).
    pub fn store(&self, mem: &mut NodeMemory, row: usize) -> Result<(), MemError> {
        mem.write_row(row, &self.words)
    }

    /// Element as 64-bit bits (two words, low first).
    pub fn get64(&self, i: usize) -> u64 {
        ts_mem::join(&self.words[2 * i..])
    }

    /// Set a 64-bit element.
    pub fn set64(&mut self, i: usize, bits: u64) {
        self.words[2 * i..2 * i + 2].copy_from_slice(&ts_mem::split(bits));
    }

    /// Element as 32-bit bits.
    pub fn get32(&self, i: usize) -> u32 {
        self.words[i]
    }

    /// Set a 32-bit element.
    pub fn set32(&mut self, i: usize, bits: u32) {
        self.words[i] = bits;
    }
}

/// The vector forms the micro-sequencer implements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum VecForm {
    /// `z[i] = x[i] + y[i]`
    VAdd,
    /// `z[i] = x[i] − y[i]`
    VSub,
    /// `z[i] = x[i] · y[i]`
    VMul,
    /// `z[i] = a·x[i] + y[i]` — the chained SAXPY (2 flops/element).
    Saxpy(Sf64),
    /// `z[i] = s · x[i]` (scalar held in the multiplier input register).
    VSMul(Sf64),
    /// `z[i] = s + x[i]` (scalar held in the adder input register).
    VSAdd(Sf64),
    /// Scalar `Σ x[i]·y[i]` — chained with adder feedback.
    Dot,
    /// Scalar `Σ x[i]` — adder feedback only.
    Sum,
    /// Scalar `max x[i]` (adder comparison path).
    Max,
    /// Scalar `min x[i]`.
    Min,
    /// `(argmax, max |x[i]|)` — the pivot-search primitive.
    AbsMax,
}

impl VecForm {
    /// Does the form stream two vector operands?
    pub fn two_operands(self) -> bool {
        matches!(
            self,
            VecForm::VAdd | VecForm::VSub | VecForm::VMul | VecForm::Saxpy(_) | VecForm::Dot
        )
    }

    /// Does the form write a result vector (vs. a scalar)?
    pub fn writes_vector(self) -> bool {
        !matches!(
            self,
            VecForm::Dot | VecForm::Sum | VecForm::Max | VecForm::Min | VecForm::AbsMax
        )
    }

    /// Flops charged per element.
    pub fn flops_per_elem(self) -> u64 {
        match self {
            VecForm::Saxpy(_) | VecForm::Dot => 2,
            _ => 1,
        }
    }

    /// Multiplies per element; every other flop of a form is the adder's.
    fn muls(self) -> u64 {
        matches!(self, VMul | VSMul(_) | VecForm::Saxpy(_) | VecForm::Dot) as u64
    }

    /// [`ts_fpu::softdiv::recip`]'s arithmetic as forms: the seed
    /// `48/17 − 32/17·d`, then five Newton–Raphson steps `y ← y·(2 − x·y)`.
    /// The seed's exponent flips are bit moves, not forms.
    pub const RECIP: [VecForm; 17] = chain(&[(&[VSMul(sf64(32.0 / 17.0)), VSub], 1), (&NEWTON, 5)]);

    /// [`ts_fpu::softdiv::sqrt`]'s arithmetic as forms: the seed's scale by
    /// 1 or ¾, nine steps `y ← y·½·(3 − x·y·y)`, `s = x·y`, then the Heron
    /// step `(s + x·recip(s))·½`.
    pub const SQRT: [VecForm; 67] = chain(&[
        (&[VMul], 1),
        (&RSQRT, 9),
        (&[VMul], 1),
        (&Self::RECIP, 1),
        (&[VMul, VAdd, VSMul(sf64(0.5))], 1),
    ]);

    /// Pipeline depth in cycles for this form at a given precision.
    pub fn depth(self, prec: Precision) -> u64 {
        let add = Pipeline::adder(prec).stages as u64;
        let mul = Pipeline::multiplier(prec).stages as u64;
        match self {
            VecForm::VAdd | VecForm::VSub | VecForm::VSAdd(_) => add,
            VecForm::VMul | VecForm::VSMul(_) => mul,
            VecForm::Saxpy(_) | VecForm::Dot => mul + add,
            VecForm::Sum | VecForm::Max | VecForm::Min | VecForm::AbsMax => add,
        }
    }
}

/// One Newton–Raphson step of the reciprocal: `x·y`, `2 − x·y`, times `y`.
const NEWTON: [VecForm; 3] = [VMul, VSub, VMul];

/// One reciprocal square root step: `y·½`, `x·y`, `·y`, `3 − x·y²`, product.
const RSQRT: [VecForm; 5] = [VSMul(sf64(0.5)), VMul, VMul, VSub, VMul];

/// A form's scalar operand, at compile time.
const fn sf64(v: f64) -> Sf64 {
    Sf64::from_bits(v.to_bits())
}

/// The parts, each repeated its count of times, as one sequence of `N` forms.
const fn chain<const N: usize>(parts: &[(&[VecForm], usize)]) -> [VecForm; N] {
    let (mut out, mut i, mut p) = ([VAdd; N], 0, 0);
    while p < parts.len() {
        let (part, mut j) = (parts[p].0, 0);
        while j < part.len() * parts[p].1 {
            out[i] = part[j % part.len()];
            (i, j) = (i + 1, j + 1);
        }
        p += 1;
    }
    assert!(i == N, "the parts do not fill the sequence");
    out
}

/// The op-mix roofline of a form sequence (§II): one adder and one
/// multiplier, an operation a cycle each, need `max(adds, muls)` cycles an
/// element, so no node beats these MFLOPS — the 16 MFLOPS peak only when
/// adds = muls. A `Saxpy` or `Dot` is one of each.
pub fn op_mix_mflops<'a>(forms: impl IntoIterator<Item = &'a VecForm>) -> f64 {
    let (flops, muls) = forms.into_iter().fold((0, 0), |(f, m), form| {
        (f + form.flops_per_elem(), m + form.muls())
    });
    ts_sim::mflops(flops, Dur::CYCLE * muls.max(flops - muls))
}

/// Timing of one executed vector form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VecTiming {
    /// Wall-clock duration the arithmetic unit was busy.
    pub duration: Dur,
    /// Floating-point operations performed.
    pub flops: u64,
    /// Initiation interval used (1 = dual-bank streaming, 2 = bank conflict).
    pub initiation_interval: u64,
}

/// Result of a vector form: timing plus the scalar output, if any.
#[derive(Clone, Copy, Debug)]
pub struct VecResult {
    /// Timing of the operation.
    pub timing: VecTiming,
    /// Scalar result for reduction forms (bits of an `Sf64`/`Sf32`).
    pub scalar: Option<u64>,
    /// Index result for `AbsMax`.
    pub index: Option<usize>,
}

/// Fixed issue overhead of a vector form: the control processor writing
/// the operand descriptors and form opcode to the arithmetic controller.
/// The paper gives no number; one word-port access (400 ns) plus one cycle
/// is used and stated in DESIGN.md.
pub const ISSUE_OVERHEAD: Dur = Dur::ns(525);

/// The vector arithmetic unit of one node.
#[derive(Clone, Copy, Debug, Default)]
pub struct VecUnit {
    /// The E9 ablation: both operand streams share one bank regardless of
    /// row placement, II = 2.
    single_bank: bool,
}

impl VecUnit {
    /// A unit with the paper's configuration.
    pub fn new() -> VecUnit {
        VecUnit::default()
    }

    /// The ablation unit: memory behaves as a single bank.
    pub fn single_bank() -> VecUnit {
        VecUnit { single_bank: true }
    }

    /// Execute `form` over `n` elements in 64-bit mode.
    ///
    /// Vectors start at the given *rows* and may span consecutive rows
    /// (`n` may exceed 128). For two-operand forms the initiation interval
    /// is decided by the banks of the two operand base rows.
    ///
    /// Result rows are stored whole from one result register. On a form
    /// whose last row is partial, the elements of that row past `n` are
    /// therefore overwritten: with zeros on a one-row form, and with the
    /// previous row's results at the same positions on a multi-row form.
    /// Element values go through [`ts_fpu::soft::row`]: bit for bit the
    /// element-by-element `ts_fpu::soft` arithmetic.
    pub fn exec64(
        &self,
        mem: &mut NodeMemory,
        form: VecForm,
        x_row: usize,
        y_row: usize,
        z_row: usize,
        n: usize,
    ) -> Result<VecResult, MemError> {
        self.exec(mem, form, x_row, y_row, z_row, n, Precision::Double)
    }

    /// Execute `form` over `n` elements in 32-bit mode.
    pub fn exec32(
        &self,
        mem: &mut NodeMemory,
        form: VecForm,
        x_row: usize,
        y_row: usize,
        z_row: usize,
        n: usize,
    ) -> Result<VecResult, MemError> {
        self.exec(mem, form, x_row, y_row, z_row, n, Precision::Single)
    }

    /// Initiation interval for a two-operand stream whose inputs live in
    /// the given banks.
    fn initiation_interval(&self, form: VecForm, bx: Bank, by: Bank) -> u64 {
        if !form.two_operands() {
            return 1;
        }
        if self.single_bank || bx == by {
            2
        } else {
            1
        }
    }

    /// Cycle-exact timing of `form` over `n` elements at initiation
    /// interval `ii`: issue overhead, first row load(s), pipeline depth plus
    /// `(n−1)·ii` cycles, and the result-row store or reduction drain.
    pub fn timing(form: VecForm, n: usize, ii: u64, prec: Precision) -> VecTiming {
        let cycle = Dur::CYCLE;
        let mut d = ISSUE_OVERHEAD;
        // Row I/O: the two first operand rows load in parallel when they sit
        // in different banks (one ROW_TIME), serially otherwise; subsequent
        // rows stream behind the pipeline. The final result row (or scalar
        // status word) drains in one more ROW_TIME.
        let first_loads = if form.two_operands() && ii == 2 { 2 } else { 1 };
        d += ROW_TIME * first_loads;
        let depth = form.depth(prec);
        if n > 0 {
            d += cycle * (depth + (n as u64 - 1) * ii);
        }
        if form.writes_vector() {
            d += ROW_TIME; // final store
        } else {
            // Reduction drain: feedback through the adder pipe once more,
            // then the scalar is read through the status interface.
            d += cycle * Pipeline::adder(prec).stages as u64;
            d += ts_mem::WORD_TIME;
        }
        VecTiming {
            duration: d,
            flops: form.flops_per_elem() * n as u64,
            initiation_interval: ii,
        }
    }

    /// Data conversion through the adder path (§II: the adder performs
    /// "data conversions"): narrow `n` 64-bit elements starting at `x_row`
    /// into 32-bit elements at `z_row` (RNE, flush-to-zero). Output rows
    /// pack two input rows each. Timing is adder-path, one result/cycle.
    pub fn convert64to32(
        &self,
        mem: &mut NodeMemory,
        x_row: usize,
        z_row: usize,
        n: usize,
    ) -> Result<VecResult, MemError> {
        let timing = Self::timing(VecForm::VSAdd(Sf64::ZERO), n, 1, Precision::Double);
        let mut xr = VectorReg::new();
        for r in 0..n.div_ceil(128).max(1) {
            let lo = r * 128;
            let hi = ((r + 1) * 128).min(n);
            if lo >= hi {
                break;
            }
            xr.load(mem, x_row + r)?;
            let mut zr = VectorReg::new();
            // Read-modify-write the (half-density) output row.
            zr.load(mem, z_row + r / 2)?;
            for i in lo..hi {
                let j = i - lo;
                let narrow = ts_fpu::soft::f64_to_f32(xr.get64(j)) as u32;
                zr.set32((r % 2) * 128 + j, narrow);
            }
            zr.store(mem, z_row + r / 2)?;
        }
        Ok(VecResult {
            timing,
            scalar: None,
            index: None,
        })
    }

    /// Widen `n` 32-bit elements at `x_row` into 64-bit elements at
    /// `z_row` (exact; subnormal inputs flush). Each input row expands to
    /// two output rows.
    pub fn convert32to64(
        &self,
        mem: &mut NodeMemory,
        x_row: usize,
        z_row: usize,
        n: usize,
    ) -> Result<VecResult, MemError> {
        let timing = Self::timing(VecForm::VSAdd(Sf64::ZERO), n, 1, Precision::Double);
        let mut xr = VectorReg::new();
        let mut zr = VectorReg::new();
        for r in 0..n.div_ceil(256).max(1) {
            let lo = r * 256;
            let hi = ((r + 1) * 256).min(n);
            if lo >= hi {
                break;
            }
            xr.load(mem, x_row + r)?;
            for i in lo..hi {
                let j = i - lo;
                let wide = ts_fpu::soft::f32_to_f64(xr.get32(j) as u64);
                zr.set64(j % 128, wide);
                if j % 128 == 127 || i == hi - 1 {
                    zr.store(mem, z_row + 2 * r + j / 128)?;
                }
            }
        }
        Ok(VecResult {
            timing,
            scalar: None,
            index: None,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn exec(
        &self,
        mem: &mut NodeMemory,
        form: VecForm,
        x_row: usize,
        y_row: usize,
        z_row: usize,
        n: usize,
        prec: Precision,
    ) -> Result<VecResult, MemError> {
        let ii = self.initiation_interval(form, mem.bank_of_row(x_row), mem.bank_of_row(y_row));
        let timing = Self::timing(form, n, ii, prec);
        let (scalar, index) = match prec {
            Precision::Double => stream::<B64>(mem, form, x_row, y_row, z_row, n)?,
            Precision::Single => stream::<B32>(mem, form, x_row, y_row, z_row, n)?,
        };
        Ok(VecResult {
            timing,
            scalar,
            index,
        })
    }
}

/// How elements of one precision sit in a vector register.
trait Elem: Format {
    /// Elements per 1024-byte row.
    const PER_ROW: usize;
    /// Read the first `out.len()` elements of `reg`.
    fn read(reg: &VectorReg, out: &mut [Self::Lane]);
    /// Write `vals` over the first `vals.len()` elements of `reg`; the rest
    /// of the register keeps what it held.
    fn write(reg: &mut VectorReg, vals: &[Self::Lane]);
    /// A form's 64-bit scalar operand as the unit holds it at this precision.
    fn scalar(s: Sf64) -> Self::Lane;
}

impl Elem for B64 {
    const PER_ROW: usize = Precision::Double.elems_per_row();
    #[inline]
    fn read(reg: &VectorReg, out: &mut [Sf64]) {
        for (o, w) in out.iter_mut().zip(reg.words.chunks_exact(2)) {
            *o = Sf64::from_bits(ts_mem::join(w));
        }
    }
    #[inline]
    fn write(reg: &mut VectorReg, vals: &[Sf64]) {
        for (w, v) in reg.words.chunks_exact_mut(2).zip(vals) {
            w.copy_from_slice(&ts_mem::split(v.to_bits()));
        }
    }
    #[inline]
    fn scalar(s: Sf64) -> Sf64 {
        s
    }
}

impl Elem for B32 {
    const PER_ROW: usize = Precision::Single.elems_per_row();
    #[inline]
    fn read(reg: &VectorReg, out: &mut [Sf32]) {
        for (o, &w) in out.iter_mut().zip(&reg.words) {
            *o = Sf32::from_bits(w);
        }
    }
    #[inline]
    fn write(reg: &mut VectorReg, vals: &[Sf32]) {
        for (w, v) in reg.words.iter_mut().zip(vals) {
            *w = v.to_bits();
        }
    }
    #[inline]
    fn scalar(s: Sf64) -> Sf32 {
        s.to_sf32()
    }
}

/// Compute the real values of `form`, row by row like the stream would:
/// the form is decoded once per row and each arm is one row op of
/// [`ts_fpu::soft::row`] (or, for the comparison forms, one loop). Returns
/// the scalar and index results, if the form has them.
///
/// The result register is written lane `0..cnt` per row and stored
/// whole, so past a partial last row it still holds what the form's
/// previous row left there, or zeros on a one-row form (see
/// [`VecUnit::exec64`]).
fn stream<F: Elem>(
    mem: &mut NodeMemory,
    form: VecForm,
    x_row: usize,
    y_row: usize,
    z_row: usize,
    n: usize,
) -> Result<(Option<u64>, Option<usize>), MemError> {
    use std::cmp::Ordering::{Greater, Less};
    let mut xr = VectorReg::new();
    let mut yr = VectorReg::new();
    let mut zr = VectorReg::new();
    let mut lanes = [[F::Lane::default(); ROW_WORDS]; 3];
    // Reduction accumulators.
    let mut acc: Option<F::Lane> = None;
    let mut best_idx = 0usize;
    let cmp = |a: F::Lane, b: F::Lane| soft::cmp::<F>(a.bits(), b.bits());

    for r in 0..n.div_ceil(F::PER_ROW) {
        let lo = r * F::PER_ROW;
        let cnt = F::PER_ROW.min(n - lo);
        let [x, y, z] = lanes.each_mut().map(|l| &mut l[..cnt]);
        xr.load(mem, x_row + r)?;
        F::read(&xr, x);
        if form.two_operands() {
            yr.load(mem, y_row + r)?;
            F::read(&yr, y);
        }
        match form {
            VecForm::VAdd => {
                z.copy_from_slice(x);
                row::add(z, y);
            }
            VecForm::VSub => {
                z.copy_from_slice(x);
                row::sub(z, y);
            }
            VecForm::VMul => {
                z.copy_from_slice(x);
                row::mul(z, y);
            }
            VecForm::Saxpy(a) => {
                z.copy_from_slice(y);
                row::saxpy(F::scalar(a), x, z);
            }
            VecForm::VSMul(s) => row::scale(F::scalar(s), x, z),
            VecForm::VSAdd(s) => row::offset(F::scalar(s), x, z),
            VecForm::Dot => acc = row::dot(acc, x, y),
            VecForm::Sum => acc = row::sum(acc, x),
            VecForm::Max | VecForm::Min => {
                let want = if form == VecForm::Max { Greater } else { Less };
                for &v in x.iter() {
                    if acc.is_none_or(|a| cmp(v, a) == Some(want)) {
                        acc = Some(v);
                    }
                }
            }
            VecForm::AbsMax => {
                for (j, &v) in x.iter().enumerate() {
                    let av = F::Lane::of_bits(soft::abs::<F>(v.bits()));
                    if acc.is_none_or(|a| cmp(av, a) == Some(Greater)) {
                        acc = Some(av);
                        best_idx = lo + j;
                    }
                }
            }
        }
        if form.writes_vector() {
            F::write(&mut zr, z);
            zr.store(mem, z_row + r)?;
        }
    }

    Ok(if form.writes_vector() {
        (None, None)
    } else {
        (
            Some(acc.map_or(0, Lane::bits)),
            matches!(form, VecForm::AbsMax).then_some(best_idx),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_mem::MemCfg;

    /// Memory with x in bank A (row 0), y in bank B (first B row), z in B.
    fn setup(_n: usize) -> (NodeMemory, usize, usize, usize) {
        let mem = NodeMemory::new(MemCfg::default());
        let rows_a = mem.cfg().rows_a(); // 256
        (mem, 0, rows_a, rows_a + 64)
    }

    fn fill64(mem: &mut NodeMemory, row: usize, vals: &[f64]) {
        for (i, &v) in vals.iter().enumerate() {
            let addr = row * ROW_WORDS + 2 * i;
            mem.write_u64(addr, v.to_bits()).unwrap();
        }
    }

    fn read64(mem: &NodeMemory, row: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| f64::from_bits(mem.read_u64(row * ROW_WORDS + 2 * i).unwrap()))
            .collect()
    }

    #[test]
    fn vadd_values_and_timing() {
        let (mut mem, x, y, z) = setup(4);
        fill64(&mut mem, x, &[1.0, 2.0, 3.0, 4.0]);
        fill64(&mut mem, y, &[10.0, 20.0, 30.0, 40.0]);
        let r = VecUnit::new()
            .exec64(&mut mem, VecForm::VAdd, x, y, z, 4)
            .unwrap();
        assert_eq!(read64(&mem, z, 4), vec![11.0, 22.0, 33.0, 44.0]);
        assert_eq!(r.timing.initiation_interval, 1, "cross-bank streams");
        assert_eq!(r.timing.flops, 4);
        // issue 525 + load 400 + (6 + 3)×125 + store 400 = 2450 ns.
        assert_eq!(r.timing.duration, Dur::ns(525 + 400 + 9 * 125 + 400));
    }

    #[test]
    fn same_bank_halves_the_rate() {
        let mut mem = NodeMemory::new(MemCfg::default());
        // Both operands in bank A.
        fill64(&mut mem, 0, &[1.0; 8]);
        fill64(&mut mem, 1, &[2.0; 8]);
        let r = VecUnit::new()
            .exec64(&mut mem, VecForm::VAdd, 0, 1, 2, 8)
            .unwrap();
        assert_eq!(r.timing.initiation_interval, 2);
        assert_eq!(read64(&mem, 2, 8), vec![3.0; 8]);
        // Cross-bank same op:
        let (mut mem2, x, y, z) = setup(8);
        fill64(&mut mem2, x, &[1.0; 8]);
        fill64(&mut mem2, y, &[2.0; 8]);
        let r2 = VecUnit::new()
            .exec64(&mut mem2, VecForm::VAdd, x, y, z, 8)
            .unwrap();
        assert!(r.timing.duration > r2.timing.duration);
    }

    #[test]
    fn force_single_bank_ablation() {
        let (mut mem, x, y, z) = setup(128);
        fill64(&mut mem, x, &[1.5; 128]);
        fill64(&mut mem, y, &[2.5; 128]);
        let dual = VecUnit::new()
            .exec64(&mut mem, VecForm::VMul, x, y, z, 128)
            .unwrap();
        let single = VecUnit::single_bank()
            .exec64(&mut mem, VecForm::VMul, x, y, z, 128)
            .unwrap();
        assert_eq!(dual.timing.initiation_interval, 1);
        assert_eq!(single.timing.initiation_interval, 2);
        // Long-vector ratio approaches 2×.
        let ratio = single.timing.duration.as_secs_f64() / dual.timing.duration.as_secs_f64();
        assert!(ratio > 1.8, "ratio {ratio}");
    }

    #[test]
    fn saxpy_chains_and_counts_two_flops() {
        let (mut mem, x, y, z) = setup(128);
        let xs: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..128).map(|i| (i * 3) as f64).collect();
        fill64(&mut mem, x, &xs);
        fill64(&mut mem, y, &ys);
        let a = Sf64::from(2.0);
        let r = VecUnit::new()
            .exec64(&mut mem, VecForm::Saxpy(a), x, y, z, 128)
            .unwrap();
        let want: Vec<f64> = (0..128).map(|i| 2.0 * i as f64 + (i * 3) as f64).collect();
        assert_eq!(read64(&mem, z, 128), want);
        assert_eq!(r.timing.flops, 256);
        // Depth is mul(7) + add(6) = 13 cycles; II = 1.
        assert_eq!(
            r.timing.duration,
            Dur::ns(525) + ROW_TIME + Dur::CYCLE * (13 + 127) + ROW_TIME
        );
    }

    #[test]
    fn peak_rate_approaches_16_mflops() {
        // 1024-element SAXPY (8 rows per operand).
        let (mut mem, x, y, z) = setup(1024);
        fill64(&mut mem, x, &[1.0; 128]);
        let n = 1024;
        let r = VecUnit::new()
            .exec64(&mut mem, VecForm::Saxpy(Sf64::from(3.0)), x, y, z, n)
            .unwrap();
        let mflops = r.timing.flops as f64 / r.timing.duration.as_secs_f64() / 1e6;
        assert!(mflops > 15.0 && mflops <= 16.0, "mflops = {mflops}");
    }

    #[test]
    fn dot_product_reduces() {
        let (mut mem, x, y, _z) = setup(4);
        fill64(&mut mem, x, &[1.0, 2.0, 3.0, 4.0]);
        fill64(&mut mem, y, &[5.0, 6.0, 7.0, 8.0]);
        let r = VecUnit::new()
            .exec64(&mut mem, VecForm::Dot, x, y, 0, 4)
            .unwrap();
        assert_eq!(f64::from_bits(r.scalar.unwrap()), 70.0);
        assert_eq!(r.timing.flops, 8);
        assert!(r.index.is_none());
    }

    #[test]
    fn sum_min_max() {
        let (mut mem, x, y, _z) = setup(5);
        fill64(&mut mem, x, &[3.0, -7.5, 12.0, 0.5, -2.0]);
        let u = VecUnit::new();
        let s = u.exec64(&mut mem, VecForm::Sum, x, y, 0, 5).unwrap();
        assert_eq!(f64::from_bits(s.scalar.unwrap()), 6.0);
        let mx = u.exec64(&mut mem, VecForm::Max, x, y, 0, 5).unwrap();
        assert_eq!(f64::from_bits(mx.scalar.unwrap()), 12.0);
        let mn = u.exec64(&mut mem, VecForm::Min, x, y, 0, 5).unwrap();
        assert_eq!(f64::from_bits(mn.scalar.unwrap()), -7.5);
    }

    #[test]
    fn absmax_finds_pivot() {
        let (mut mem, x, y, _z) = setup(6);
        fill64(&mut mem, x, &[3.0, -17.5, 12.0, 0.5, -2.0, 17.0]);
        let r = VecUnit::new()
            .exec64(&mut mem, VecForm::AbsMax, x, y, 0, 6)
            .unwrap();
        assert_eq!(r.index, Some(1));
        assert_eq!(f64::from_bits(r.scalar.unwrap()), 17.5);
    }

    #[test]
    fn multi_row_vectors() {
        // 300 elements span 3 rows (128 per row in 64-bit mode).
        let (mut mem, x, y, z) = setup(300);
        for r in 0..3 {
            let lo = r * 128;
            let vals: Vec<f64> = (lo..(lo + 128).min(300)).map(|i| i as f64).collect();
            fill64(&mut mem, x + r, &vals);
            let ones = vec![1.0; vals.len()];
            fill64(&mut mem, y + r, &ones);
        }
        let r = VecUnit::new()
            .exec64(&mut mem, VecForm::VAdd, x, y, z, 300)
            .unwrap();
        assert_eq!(r.timing.flops, 300);
        let out = read64(&mem, z, 128);
        assert_eq!(out[0], 1.0);
        assert_eq!(out[127], 128.0);
        let out2 = read64(&mem, z + 2, 300 - 256);
        assert_eq!(out2[0], 257.0);
        assert_eq!(out2[43], 300.0);
    }

    #[test]
    fn single_precision_mode() {
        let mut mem = NodeMemory::new(MemCfg::default());
        let rows_a = mem.cfg().rows_a();
        for i in 0..256 {
            mem.write_word(i, (i as f32 * 0.5).to_bits()).unwrap();
            mem.write_word(rows_a * ROW_WORDS + i, 1.0f32.to_bits())
                .unwrap();
        }
        let r = VecUnit::new()
            .exec32(&mut mem, VecForm::VAdd, 0, rows_a, rows_a + 1, 256)
            .unwrap();
        assert_eq!(r.timing.flops, 256);
        for i in 0..256 {
            let got = f32::from_bits(mem.read_word((rows_a + 1) * ROW_WORDS + i).unwrap());
            assert_eq!(got, i as f32 * 0.5 + 1.0);
        }
        // 32-bit multiplier is 5-deep: a VMul of n=1 runs 5 cycles.
        let m = VecUnit::new()
            .exec32(&mut mem, VecForm::VMul, 0, rows_a, rows_a + 2, 1)
            .unwrap();
        assert_eq!(
            m.timing.duration,
            Dur::ns(525) + ROW_TIME + Dur::CYCLE * 5 + ROW_TIME
        );
    }

    #[test]
    fn ftz_flows_through_vector_ops() {
        let (mut mem, x, y, z) = setup(2);
        fill64(&mut mem, x, &[1e-200, 1.0]);
        fill64(&mut mem, y, &[1e-200, 1.0]);
        let _ = VecUnit::new()
            .exec64(&mut mem, VecForm::VMul, x, y, z, 2)
            .unwrap();
        let out = read64(&mem, z, 2);
        assert_eq!(out, vec![0.0, 1.0], "subnormal product flushed to zero");
    }

    #[test]
    fn convert_64_to_32_and_back() {
        let mut mem = NodeMemory::new(MemCfg::default());
        let rows_a = mem.cfg().rows_a();
        let vals: Vec<f64> = (0..200).map(|i| i as f64 * 0.25 - 10.0).collect();
        fill64(&mut mem, 0, &vals[..128]);
        fill64(&mut mem, 1, &vals[128..]);
        let u = VecUnit::new();
        let r = u.convert64to32(&mut mem, 0, rows_a, 200).unwrap();
        assert_eq!(r.timing.flops, 200);
        // Check narrowed values through the word port.
        for (i, &v) in vals.iter().enumerate() {
            let got = f32::from_bits(mem.read_word(rows_a * ROW_WORDS + i).unwrap());
            assert_eq!(got, v as f32, "narrow[{i}]");
        }
        // Widen back into a fresh area.
        let w = u.convert32to64(&mut mem, rows_a, rows_a + 8, 200).unwrap();
        assert_eq!(w.timing.flops, 200);
        for (i, &v) in vals.iter().enumerate() {
            let got = f64::from_bits(
                mem.read_u64((rows_a + 8 + i / 128) * ROW_WORDS + 2 * (i % 128))
                    .unwrap(),
            );
            assert_eq!(got, v as f32 as f64, "widen[{i}]");
        }
    }

    #[test]
    fn convert_flushes_f32_subnormals() {
        let mut mem = NodeMemory::new(MemCfg::default());
        let rows_a = mem.cfg().rows_a();
        fill64(&mut mem, 0, &[1e-40, 1.5]); // 1e-40 is subnormal in f32
        let u = VecUnit::new();
        u.convert64to32(&mut mem, 0, rows_a, 2).unwrap();
        assert_eq!(
            f32::from_bits(mem.read_word(rows_a * ROW_WORDS).unwrap()),
            0.0
        );
        assert_eq!(
            f32::from_bits(mem.read_word(rows_a * ROW_WORDS + 1).unwrap()),
            1.5
        );
    }

    /// Element `i` of a row seeded with every class the guard of the host
    /// fast path tells apart, then seeded normals and raw bit patterns.
    fn awkward<F: Format>(rng: &mut ts_sim::Rng, i: usize) -> u64 {
        let min_normal = 1 << F::MANT_BITS;
        let inf = F::EXP_MAX << F::MANT_BITS;
        let specials = [
            0,
            F::SIGN_BIT,
            1,                          // smallest subnormal
            F::SIGN_BIT | F::MANT_MASK, // largest subnormal, negative
            inf,
            F::SIGN_BIT | inf,
            F::QNAN,
            inf | 1, // a NaN that is not the canonical one
            min_normal,
            min_normal + 1,
            F::SIGN_BIT | (min_normal - 1),
            2 * min_normal,
            2 * min_normal - 1,
            inf - 1, // largest finite
        ];
        let mask = F::SIGN_BIT | (F::SIGN_BIT - 1);
        match i % 3 {
            0 => specials[rng.range(0, specials.len())],
            1 => rng.next_u64() & mask,
            // A normal within a few binades of one, so sums and products
            // of neighbours mostly stay normal.
            _ => {
                let exp = (F::BIAS as u64 - 4 + rng.below(8)) << F::MANT_BITS;
                (rng.next_u64() & (F::SIGN_BIT | F::MANT_MASK)) | exp
            }
        }
    }

    /// What `form` must leave behind, element by element through the
    /// bit-level core: the result vector, the scalar and the index.
    fn reference<F: Elem>(
        form: VecForm,
        x: &[u64],
        y: &[u64],
    ) -> (Vec<u64>, Option<u64>, Option<usize>) {
        use soft::{add_bits as add, mul_bits as mul};
        use std::cmp::Ordering::{Greater, Less};
        let pairs = || x.iter().copied().zip(y.iter().copied());
        let xs = || x.iter().copied();
        let pick = |want| {
            xs().reduce(|a, x| {
                if soft::cmp::<F>(x, a) == Some(want) {
                    x
                } else {
                    a
                }
            })
        };
        let z: Vec<u64> = match form {
            VecForm::VAdd => pairs().map(|(x, y)| add::<F>(x, y)).collect(),
            VecForm::VSub => pairs()
                .map(|(x, y)| add::<F>(x, soft::neg::<F>(y)))
                .collect(),
            VecForm::VMul => pairs().map(|(x, y)| mul::<F>(x, y)).collect(),
            VecForm::Saxpy(a) => pairs()
                .map(|(x, y)| add::<F>(mul::<F>(F::scalar(a).bits(), x), y))
                .collect(),
            VecForm::VSMul(s) => xs().map(|x| mul::<F>(F::scalar(s).bits(), x)).collect(),
            VecForm::VSAdd(s) => xs().map(|x| add::<F>(F::scalar(s).bits(), x)).collect(),
            _ => Vec::new(),
        };
        let mut index = None;
        let scalar = match form {
            VecForm::Dot => pairs().map(|(x, y)| mul::<F>(x, y)).reduce(add::<F>),
            VecForm::Sum => xs().reduce(add::<F>),
            VecForm::Max => pick(Greater),
            VecForm::Min => pick(Less),
            VecForm::AbsMax => {
                let mut best = (0, soft::abs::<F>(x[0]));
                for (i, v) in xs().map(soft::abs::<F>).enumerate() {
                    if soft::cmp::<F>(v, best.1) == Some(Greater) {
                        best = (i, v);
                    }
                }
                index = Some(best.0);
                Some(best.1)
            }
            _ => None,
        };
        (z, scalar, index)
    }

    /// Every form the unit has, with scalar `s` where the form takes one.
    fn forms(s: Sf64) -> [VecForm; 11] {
        [
            VecForm::VAdd,
            VecForm::VSub,
            VecForm::VMul,
            VecForm::Saxpy(s),
            VecForm::VSMul(s),
            VecForm::VSAdd(s),
            VecForm::Dot,
            VecForm::Sum,
            VecForm::Max,
            VecForm::Min,
            VecForm::AbsMax,
        ]
    }

    /// Store `vals` from `row` on, `PER_ROW` elements a row.
    fn put<F: Elem>(mem: &mut NodeMemory, row: usize, vals: &[u64]) {
        let mut reg = VectorReg::new();
        for (r, chunk) in vals.chunks(F::PER_ROW).enumerate() {
            let lanes: Vec<F::Lane> = chunk.iter().map(|&b| F::Lane::of_bits(b)).collect();
            F::write(&mut reg, &lanes);
            reg.store(mem, row + r).unwrap();
        }
    }

    /// The memory rows a form with results `z` leaves behind: the result
    /// register is written lanes `0..cnt` a row and stored whole, so a
    /// partial last row keeps the previous row's tail — zeros on a one-row
    /// form.
    fn rows_left<F: Elem>(z: &[u64]) -> Vec<[u32; ROW_WORDS]> {
        let mut reg = VectorReg::new();
        z.chunks(F::PER_ROW)
            .map(|chunk| {
                let lanes: Vec<F::Lane> = chunk.iter().map(|&b| F::Lane::of_bits(b)).collect();
                F::write(&mut reg, &lanes);
                reg.words
            })
            .collect()
    }

    /// Run `form` on `x`, `y` (already in memory at the setup rows) and
    /// check the scalar, the index and every result row whole, tail
    /// included, against [`reference`].
    fn check_form<F: Elem>(mem: &mut NodeMemory, form: VecForm, x: &[u64], y: &[u64]) {
        let prec = if F::PER_ROW == 128 {
            Precision::Double
        } else {
            Precision::Single
        };
        let (_, xr, yr, zr) = setup(0);
        let got = VecUnit::new()
            .exec(mem, form, xr, yr, zr, x.len(), prec)
            .unwrap();
        let (want_z, scalar, index) = reference::<F>(form, x, y);
        let ctx = || format!("{form:?} {prec:?} n {}\nx {x:x?}\ny {y:x?}", x.len());
        assert_eq!((got.scalar, got.index), (scalar, index), "{}", ctx());
        let mut row = [0u32; ROW_WORDS];
        for (r, want) in rows_left::<F>(&want_z).iter().enumerate() {
            mem.read_row(zr + r, &mut row).unwrap();
            assert_eq!(&row, want, "row {r} of {}", ctx());
        }
    }

    fn all_forms_match_the_bit_level_core<F: Elem>(seed: u64) {
        let mut rng = ts_sim::Rng::new(seed);
        let s = Sf64::from_bits(awkward::<B64>(&mut rng, 2));
        // Two full rows and a partial third.
        let n = 2 * F::PER_ROW + 37;
        let (mut mem, xr, yr, _) = setup(n);
        let x: Vec<u64> = (0..n).map(|i| awkward::<F>(&mut rng, i)).collect();
        let y: Vec<u64> = (0..n).map(|i| awkward::<F>(&mut rng, i + 1)).collect();
        put::<F>(&mut mem, xr, &x);
        put::<F>(&mut mem, yr, &y);
        let subnormal = Sf64::from_bits(1);
        for form in forms(s).into_iter().chain(forms(subnormal)) {
            check_form::<F>(&mut mem, form, &x, &y);
        }
    }

    #[test]
    fn all_forms_match_the_bit_level_core_in_both_precisions() {
        all_forms_match_the_bit_level_core::<B64>(0x7ec0_0001);
        all_forms_match_the_bit_level_core::<B32>(0x7ec0_0002);
    }

    /// One-row forms of every length, with one awkward lane planted at
    /// every position (in `x` on odd `len + pos`, in `y` on even): each
    /// row's native block path must give way to the element path for
    /// exactly that lane.
    fn row_path_with_a_lane_planted_everywhere<F: Elem>(seed: u64) {
        let mut rng = ts_sim::Rng::new(seed);
        let (mut mem, xr, yr, _) = setup(F::PER_ROW);
        let mut turn = 0;
        for len in 1..=F::PER_ROW {
            let mut x: Vec<u64> = (0..len).map(|_| awkward::<F>(&mut rng, 2)).collect();
            let mut y: Vec<u64> = (0..len).map(|_| awkward::<F>(&mut rng, 2)).collect();
            let s = Sf64::from_bits(awkward::<B64>(&mut rng, 2));
            for pos in 0..len {
                let v = if (len + pos) % 2 == 1 { &mut x } else { &mut y };
                let keep = std::mem::replace(&mut v[pos], awkward::<F>(&mut rng, 0));
                put::<F>(&mut mem, xr, &x);
                put::<F>(&mut mem, yr, &y);
                check_form::<F>(&mut mem, forms(s)[turn % 11], &x, &y);
                turn += 1;
                let v = if (len + pos) % 2 == 1 { &mut x } else { &mut y };
                v[pos] = keep;
            }
        }
    }

    #[test]
    fn row_path_equals_the_bit_level_core_with_a_lane_planted_everywhere() {
        row_path_with_a_lane_planted_everywhere::<B64>(0x7ec0_0003);
        row_path_with_a_lane_planted_everywhere::<B32>(0x7ec0_0004);
    }

    /// The partial-row tail, pinned: a one-row form stores zeros past `n`,
    /// a multi-row form the previous row's results.
    #[test]
    fn partial_row_tail_holds_zeros_or_the_previous_rows_results() {
        let (mut mem, x, y, z) = setup(0);
        fill64(&mut mem, x, &[1.0; 128]);
        fill64(&mut mem, x + 1, &[2.0; 128]);
        fill64(&mut mem, y, &[10.0; 128]);
        fill64(&mut mem, y + 1, &[20.0; 128]);
        fill64(&mut mem, z, &[-5.0; 128]);
        let u = VecUnit::new();
        u.exec64(&mut mem, VecForm::VAdd, x, y, z, 3).unwrap();
        let mut want = vec![11.0; 3];
        want.resize(128, 0.0);
        assert_eq!(read64(&mem, z, 128), want, "one row: zeros past n");
        u.exec64(&mut mem, VecForm::VAdd, x, y, z, 128 + 3).unwrap();
        let mut want = vec![22.0; 3];
        want.resize(128, 11.0);
        assert_eq!(read64(&mem, z + 1, 128), want, "second row: row 0's tail");
    }

    #[test]
    fn op_mix_ceilings_follow_the_busier_pipe() {
        let mflops = |forms: &[VecForm]| (op_mix_mflops(forms) * 100.0).round() / 100.0;
        let s = Sf64::ZERO;
        assert_eq!(mflops(&[VecForm::Saxpy(s)]), 16.0, "one add, one multiply");
        assert_eq!(mflops(&[VecForm::Dot, VecForm::VMul]), 12.0);
        assert_eq!(mflops(&[VecForm::VAdd]), 8.0, "the adder alone");
        let relax = [
            VecForm::VAdd,
            VecForm::VAdd,
            VecForm::VAdd,
            VecForm::VSMul(s),
        ];
        assert_eq!(mflops(&relax), 10.67, "3 adds, 1 multiply");
    }

    #[test]
    fn the_division_sequences_are_their_routines_operations() {
        // (multiplies, adds): recip's seed is one of each, then five
        // Newton steps of 2 and 1; sqrt's nine steps are 4 and 1 around
        // a seed scale, `s = x·y` and a Heron step with its own recip.
        let count = |forms: &[VecForm]| {
            let muls = forms.iter().map(|f| f.muls()).sum::<u64>();
            (muls, forms.len() as u64 - muls)
        };
        assert_eq!(count(&VecForm::RECIP), (1 + 5 * 2, 1 + 5));
        assert_eq!(count(&VecForm::SQRT), (1 + 9 * 4 + 1 + 11 + 2, 9 + 6 + 1));
    }

    #[test]
    fn empty_vector_is_legal() {
        let (mut mem, x, y, z) = setup(0);
        let r = VecUnit::new()
            .exec64(&mut mem, VecForm::VAdd, x, y, z, 0)
            .unwrap();
        assert_eq!(r.timing.flops, 0);
    }
}
