//! Distributed radix-2 complex FFT on the hypercube butterfly embedding.
//!
//! Figure 3 lists "FFT butterfly connections of radix 2" among the cube's
//! embeddings: at stage s the butterfly pairs points whose indices differ
//! in bit s — under the identity placement that is exactly one cube edge
//! (`ts_cube::embed::FftEmbedding` proves dilation 1).
//!
//! With N points over p = 2ⁿ nodes (N/p consecutive points per node, N/p a
//! power of two), a decimation-in-frequency FFT runs its first n stages
//! **across nodes** — each node exchanges its block with the partner
//! across one cube dimension and keeps its half of every butterfly — and
//! the remaining log₂(N/p) stages locally. Output lands in bit-reversed
//! order, as DIF always does; [`bit_reverse_permute`] restores natural
//! order host-side.
//!
//! The cross-node stages are independent per local index, and each rides
//! its own cube dimension, i.e. its own physical link. So they run as an
//! Occam **pipeline**: one stage process per dimension, joined by soft
//! channels, with the block cut into row-sized pieces — in steady state
//! all n links carry a piece at once and the n exchanges cost about one.
//!
//! Arithmetic is complex `Sf64` (the machine's 64-bit mode); a butterfly
//! is 10 hardware flops (complex add, sub and multiply), charged to the
//! vector unit of the node that performs each part.

use std::rc::Rc;

use t_series_core::model::NetModel;
use ts_cube::Hypercube;
use ts_fpu::soft::row;
use ts_fpu::Sf64;
use ts_mem::ROW_WORDS;
use ts_node::{occam, NodeCtx};
use ts_sim::Rendezvous;

use crate::{run_spmd, KernelStats};

/// A complex value in the machine's 64-bit arithmetic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cpx {
    /// Real part.
    pub re: Sf64,
    /// Imaginary part.
    pub im: Sf64,
}

impl Cpx {
    /// Construct from host floats.
    pub fn new(re: f64, im: f64) -> Cpx {
        Cpx {
            re: Sf64::from(re),
            im: Sf64::from(im),
        }
    }

    /// Host-side view.
    pub fn to_host(self) -> (f64, f64) {
        (self.re.to_host(), self.im.to_host())
    }
}

/// `a + b`, the low half of a butterfly ([`row::complex_sum`]).
#[inline(always)]
fn sum(a: Cpx, b: Cpx) -> Cpx {
    let (re, im) = row::complex_sum((a.re, a.im), (b.re, b.im));
    Cpx { re, im }
}

/// `(a − b)·w`, the high half of a butterfly ([`row::complex_diff_mul`]).
#[inline(always)]
fn twiddled(a: Cpx, b: Cpx, w: Cpx) -> Cpx {
    let (re, im) = row::complex_diff_mul((a.re, a.im), (b.re, b.im), (w.re, w.im));
    Cpx { re, im }
}

/// Twiddle factor e^(−iπ·k/span) (the host computes them, the node stores
/// `Sf64`s).
fn twiddle(k: usize, span: usize) -> Cpx {
    let angle = -std::f64::consts::PI * k as f64 / span as f64;
    Cpx::new(angle.cos(), angle.sin())
}

/// The precomputed twiddle table the machine would hold: the `total/2`
/// factors of the first stage. A later stage of span `s` — cross-node or
/// local — reads it with stride `top/s`, and the entry is `twiddle(k, s)`
/// bit for bit: scaling `k` and `s` by the same power of two is exact in
/// the angle. One table serves every node of a run.
pub struct Twiddles(Vec<Cpx>);

impl Twiddles {
    /// The table for a transform of `total` points.
    pub fn new(total: usize) -> Twiddles {
        let top = total / 2;
        Twiddles((0..top).map(|k| twiddle(k, top)).collect())
    }

    /// The factors `twiddle(k0..span, span)`, in order: one strided run of
    /// the table.
    fn run(&self, k0: usize, span: usize) -> impl Iterator<Item = Cpx> + '_ {
        let stride = self.0.len() / span;
        self.0[k0 * stride..].iter().step_by(stride).copied()
    }
}

/// Hardware flops charged per butterfly (complex add + sub + mul).
pub const FLOPS_PER_BUTTERFLY: u64 = 10;

/// The wire form of `data`, in a word-pool buffer.
fn pack(data: &[Cpx]) -> Vec<u32> {
    let mut words = ts_sim::pool::take_words(data.len() * POINT_WORDS);
    for c in data {
        for bits in [c.re.to_bits(), c.im.to_bits()] {
            words.push(bits as u32);
            words.push((bits >> 32) as u32);
        }
    }
    words
}

fn unpack(words: &[u32]) -> impl Iterator<Item = Cpx> + '_ {
    words.chunks_exact(POINT_WORDS).map(|c| Cpx {
        re: Sf64::from_bits(c[0] as u64 | ((c[1] as u64) << 32)),
        im: Sf64::from_bits(c[2] as u64 | ((c[3] as u64) << 32)),
    })
}

/// Words on the wire per complex point.
const POINT_WORDS: usize = 4;

/// Points per pipeline piece for `nl` local points crossing `stages` cube
/// dimensions: the model's optimum, rounded up to whole memory rows (the
/// unit the DMA engine streams) and to a power of two so it divides `nl`.
fn piece_points(ctx: &NodeCtx, stages: u32, nl: usize) -> usize {
    let net = NetModel::from_params(ctx.in_channel(0).wire().params());
    let words = net.pipeline_piece_words(stages, nl * POINT_WORDS);
    let rows = words.div_ceil(ROW_WORDS).next_power_of_two();
    (rows * ROW_WORDS / POINT_WORDS).min(nl)
}

/// One cross-node butterfly stage as a pipeline process: exchange each
/// piece arriving on `input` with the partner across the stage's cube
/// dimension, keep this node's half of every butterfly, pass the piece on.
async fn cross_stage(
    ctx: NodeCtx,
    nl: usize,
    span: usize,
    pieces: usize,
    table: Rc<Twiddles>,
    input: Rendezvous<Vec<Cpx>>,
    output: Rendezvous<Vec<Cpx>>,
) {
    let me = ctx.id() as usize;
    // The node-address bit this stage pairs across.
    let bit = span / nl;
    let pdim = bit.trailing_zeros() as usize;
    let low_side = me & bit == 0;
    // Twiddle index: the low global index mod span. This node's low indices
    // are consecutive from a multiple of `nl` and, as `nl ≤ span`, never
    // wrap: the stage reads one strided run of the table, starting here.
    let mut twiddles = table.run((me & (bit - 1)) * nl, span);
    for _ in 0..pieces {
        let mut piece = input.recv().await;
        let words = ctx.exchange(pdim, pack(&piece), pdim).await;
        let pairs = piece.iter_mut().zip(unpack(&words));
        if low_side {
            pairs.for_each(|(mine, theirs)| *mine = sum(*mine, theirs));
        } else {
            for ((mine, theirs), w) in pairs.zip(&mut twiddles) {
                *mine = twiddled(theirs, *mine, w);
            }
        }
        ts_sim::pool::put_words(words);
        // The low node adds (2 flops a point), the high node subtracts and
        // multiplies by the twiddle (8).
        let flops = if low_side { 2 } else { FLOPS_PER_BUTTERFLY - 2 };
        ctx.charge_vec_flops(flops * piece.len() as u64).await;
        output.send(piece).await;
    }
}

/// The per-node DIF FFT program over `local` points (global index =
/// `id · local.len() + j`), with the run's `Twiddles::new(total)`.
/// Returns this node's slice of the bit-reversed-order spectrum.
pub async fn fft_node(
    ctx: NodeCtx,
    cube: Hypercube,
    total: usize,
    mut local: Vec<Cpx>,
    table: Rc<Twiddles>,
) -> Vec<Cpx> {
    let nl = local.len();
    assert!(nl.is_power_of_two() && total == nl << cube.dim() as usize);
    let mut span = total / 2;
    // Cross-node stages (span ≥ nl): one pipeline process per dimension,
    // fed piece by piece from `local` and drained back into it.
    if cube.dim() > 0 {
        let piece = piece_points(&ctx, cube.dim(), nl);
        let pieces = nl / piece;
        let feed = Rendezvous::new();
        let mut drain = feed.clone();
        while span >= nl {
            let next = Rendezvous::new();
            let stage = cross_stage(
                ctx.clone(),
                nl,
                span,
                pieces,
                table.clone(),
                drain,
                next.clone(),
            );
            ctx.handle().spawn(stage);
            drain = next;
            span /= 2;
        }
        (_, local) = occam::par2(
            ctx.handle(),
            async move {
                for piece in local.chunks(piece) {
                    feed.send(piece.to_vec()).await;
                }
            },
            async move {
                let mut out = Vec::with_capacity(nl);
                for _ in 0..pieces {
                    out.extend(drain.recv().await);
                }
                out
            },
        )
        .await;
    }
    // Local stages. A node's first global index is a multiple of `nl`, so
    // the twiddle index (global index mod span) is the offset in the group.
    // Nothing else uses the vector unit now and the stages need no other
    // unit, so their forms are chained behind one completion interrupt.
    let mut done = ctx.now();
    while span >= 1 {
        for group in local.chunks_exact_mut(2 * span) {
            let (lows, highs) = group.split_at_mut(span);
            for ((lo, hi), w) in lows.iter_mut().zip(highs).zip(table.run(0, span)) {
                let (a, b) = (*lo, *hi);
                *lo = sum(a, b);
                *hi = twiddled(a, b, w);
            }
        }
        done = ctx.issue_vec_flops(FLOPS_PER_BUTTERFLY * (nl as u64 / 2));
        span /= 2;
    }
    ctx.wait(done).await;
    local
}

/// Reverse the lowest `bits` bits of `v`.
pub fn bit_reverse(v: usize, bits: u32) -> usize {
    (v.reverse_bits() >> (usize::BITS - bits)) & ((1 << bits) - 1)
}

/// Reorder a bit-reversed spectrum into natural order (host side).
pub fn bit_reverse_permute<T: Copy>(data: &[T]) -> Vec<T> {
    let bits = data.len().trailing_zeros();
    let mut out = data.to_vec();
    for (i, &v) in data.iter().enumerate() {
        out[bit_reverse(i, bits)] = v;
    }
    out
}

/// Host driver: FFT of `input` (length N = 2^k · p) on the machine;
/// returns the natural-order spectrum and the run's stats.
pub fn distributed_fft(
    machine: &mut t_series_core::Machine,
    input: &[(f64, f64)],
) -> (Vec<(f64, f64)>, KernelStats) {
    let cube = machine.cube;
    let p = cube.nodes() as usize;
    let total = input.len();
    assert!(total.is_power_of_two() && total >= 2 * p);
    let nl = total / p;
    // The launch closure owns the run's table and is dropped before the
    // run, so the node programs are its only holders and it is freed with
    // the last of them, before the spectrum is assembled.
    let table = Rc::new(Twiddles::new(total));
    let (spectra, stats) = run_spmd(machine, "FFT", move |ctx| {
        let lo = ctx.id() as usize * nl;
        let local: Vec<Cpx> = input[lo..lo + nl]
            .iter()
            .map(|&(re, im)| Cpx::new(re, im))
            .collect();
        fft_node(ctx, cube, total, local, table.clone())
    });
    let mut flat = Vec::with_capacity(total);
    flat.extend(spectra.into_iter().flatten().map(Cpx::to_host));
    (bit_reverse_permute(&flat), stats)
}

/// Naive host DFT for verification.
pub fn reference_dft(input: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut re = 0.0;
            let mut im = 0.0;
            for (j, &(xr, xi)) in input.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                let (c, s) = (ang.cos(), ang.sin());
                re += xr * c - xi * s;
                im += xr * s + xi * c;
            }
            (re, im)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand_f64;
    use t_series_core::{Machine, MachineCfg};

    fn check(dim: u32, total: usize) -> KernelStats {
        let mut st = 7u64;
        let input: Vec<(f64, f64)> = (0..total)
            .map(|_| (rand_f64(&mut st), rand_f64(&mut st)))
            .collect();
        let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
        let (got, stats) = distributed_fft(&mut m, &input);
        let want = reference_dft(&input);
        for (i, (&(gr, gi), &(wr, wi))) in got.iter().zip(&want).enumerate() {
            assert!(
                (gr - wr).abs() < 1e-9 * (total as f64) && (gi - wi).abs() < 1e-9 * (total as f64),
                "X[{i}] = ({gr},{gi}), want ({wr},{wi}) [dim {dim}, N {total}]"
            );
        }
        stats
    }

    #[test]
    fn fft_on_a_point() {
        check(0, 16);
    }

    #[test]
    fn fft_on_a_square() {
        let stats = check(2, 32);
        assert!(stats.bytes_sent > 0);
    }

    #[test]
    fn fft_on_a_cube_3d() {
        let stats = check(3, 64);
        // n stages cross-node: each node sends its block once per stage.
        // 8 nodes × 3 stages × 8 points × 16 bytes.
        assert_eq!(stats.bytes_sent, 8 * 3 * 8 * 16);
    }

    #[test]
    fn transform_totals_five_n_log_n_flops() {
        // N/2 butterflies of 10 flops per stage, log₂N stages — with each
        // half of a cross-node butterfly charged where it is computed.
        for (dim, total) in [(0u32, 64usize), (2, 256), (3, 64), (4, 1 << 12)] {
            let stats = stats_of(dim, total);
            let want = 5 * total as u64 * total.trailing_zeros() as u64;
            assert_eq!(stats.flops, want, "dim {dim}, N {total}");
        }
    }

    fn stats_of(dim: u32, total: usize) -> KernelStats {
        let input = vec![(1.0, -1.0); total];
        let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
        distributed_fft(&mut m, &input).1
    }

    #[test]
    fn cross_node_stages_cost_one_pipelined_exchange() {
        // 2¹⁴ points on 16 nodes: 4096 words a node, 16 row-sized pieces
        // through 4 stages. What the run adds to the local stages (a
        // one-node FFT of the same block) is the pipeline; the model leaves
        // out the butterflies, ≈ 2 % of a piece's wire time.
        let net = NetModel::default();
        let (dim, total) = (4u32, 1usize << 14);
        let nl = total >> dim;
        let pipeline = stats_of(dim, total).elapsed - stats_of(0, nl).elapsed;
        let pieces = nl * POINT_WORDS / ROW_WORDS;
        let model = net.pipelined_exchange(dim, nl * POINT_WORDS, pieces);
        let (p, m) = (pipeline.as_secs_f64(), model.as_secs_f64());
        assert!(
            (p - m).abs() <= 0.10 * m,
            "measured {pipeline}, model {model}"
        );
        assert!(model < net.p2p(nl * POINT_WORDS) * 2, "4 exchanges for < 2");
    }

    #[test]
    fn table_entries_equal_the_computed_twiddles_at_every_span() {
        let bits = |c: Cpx| (c.re.to_bits(), c.im.to_bits());
        // Every span of a `total`-point transform, the cross-node ones
        // (span ≥ nl on a cube) included: both read the one table.
        for total in [2usize, 64, 1 << 14, 1 << 18] {
            let table = Twiddles::new(total);
            let mut span = total / 2;
            while span >= 1 {
                let got: Vec<_> = table.run(0, span).map(bits).collect();
                let want: Vec<_> = (0..span).map(|k| bits(twiddle(k, span))).collect();
                assert_eq!(got, want, "total {total}, span {span}");
                let at: Vec<_> = (0..span)
                    .map(|k| bits(table.run(k, span).next().unwrap()))
                    .collect();
                assert_eq!(at, want, "total {total}, span {span} (indexed)");
                span /= 2;
            }
        }
    }

    #[test]
    fn bit_reversal_is_involution() {
        for bits in 1..10u32 {
            for v in 0..(1usize << bits) {
                assert_eq!(bit_reverse(bit_reverse(v, bits), bits), v);
            }
        }
        let data: Vec<usize> = (0..16).collect();
        assert_eq!(bit_reverse_permute(&bit_reverse_permute(&data)), data);
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut input = vec![(0.0, 0.0); 64];
        input[0] = (1.0, 0.0);
        let mut m = Machine::build(MachineCfg::cube_small_mem(2, 8));
        let (got, _) = distributed_fft(&mut m, &input);
        for &(re, im) in &got {
            assert!((re - 1.0).abs() < 1e-12 && im.abs() < 1e-12);
        }
    }
}
