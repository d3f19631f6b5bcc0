//! Distributed radix-2 complex FFT on the hypercube butterfly embedding.
//!
//! Figure 3 lists "FFT butterfly connections of radix 2" among the cube's
//! embeddings: at stage s the butterfly pairs points whose indices differ
//! in bit s — exactly one cube edge when that bit addresses the node
//! (`ts_cube::embed::FftEmbedding` proves dilation 1).
//!
//! With N points over p = 2ⁿ nodes, points are placed **cyclically**: node
//! q holds the points g ≡ q (mod p), point g in slot g / p. A
//! decimation-in-frequency FFT runs its spans from N/2 down; a span ≥ p
//! pairs two slots of one node, so the first log₂(N/p) stages are local,
//! and the last n (spans p/2 … 1) pair the same slot on two nodes across
//! one cube dimension. Output lands in bit-reversed order, as DIF always
//! does; the driver restores natural order host-side.
//!
//! A cross-node butterfly needs one of its operands to cross, not both. The
//! low node keeps the first half of a piece and sends the second, the high
//! node the reverse; each computes whole butterflies on the half it keeps,
//! with the one twiddle all its butterflies share at that span S,
//! `twiddle(q mod S, S)`, and writes the sums into the first half and the
//! twiddled differences into the second. Afterwards a node's node bit S and
//! the piece's half bit are swapped; the driver undoes the swaps
//! (`dif_index`) next to the bit reversal.
//!
//! The cross-node stages are independent per slot, and each rides its own
//! cube dimension, i.e. its own physical link. So they run as an Occam
//! **pipeline**: one stage process per dimension, joined by soft channels,
//! with the block cut into row-sized pieces — in steady state all n links
//! carry half a piece at once and the n exchanges cost about one. Each
//! stage is double-buffered: it computes a piece's butterflies while the
//! next piece's exchange is on the wire. The feed releases the pieces
//! depth-first, as DIF recurses: before piece i leaves, each local stage
//! that pairs slots of two pieces has run on the block piece i opens, so
//! the first piece waits for about nl butterflies (two stages' worth), not
//! for every such stage. The feed charges the rest of that work at one
//! constant rate derived from the block structure, under the earlier
//! pieces' wire time, and the run lands on its floor: that first release
//! plus the pipelined exchange (`NetModel::pipelined_exchange`).
//!
//! Arithmetic is complex `Sf64` (the machine's 64-bit mode); a butterfly
//! is 10 flops (complex add, sub and multiply), issued as vector forms
//! over a stage's butterflies on the node that computes them: 8 forms a
//! butterfly when the stage shares one twiddle ([`butterfly`]), 10 with a
//! twiddle vector ([`BUTTERFLY_TWIDDLES`]). Every butterfly sees the
//! operands and the twiddle it would see on one node, in the same order,
//! so the spectrum is bit-identical at every machine size.

use std::rc::Rc;

use t_series_core::model::NetModel;
use ts_cube::Hypercube;
use ts_fpu::soft::row;
use ts_fpu::Sf64;
use ts_mem::{join, split, ROW_WORDS};
use ts_node::{occam, NodeCtx};
use ts_sim::{Rendezvous, Time};
use ts_vec::VecForm;

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

    /// The factor `twiddle(k, span)`.
    fn at(&self, k: usize, span: usize) -> Cpx {
        self.0[k * (self.0.len() / span)]
    }

    /// The factors `twiddle(k0 + i·step, span)` for i = 0, 1, …, in order:
    /// one strided run of the table.
    fn run(&self, k0: usize, step: usize, span: usize) -> impl Iterator<Item = Cpx> + '_ {
        let stride = self.0.len() / span;
        self.0[k0 * stride..].iter().step_by(step * stride).copied()
    }
}

/// The forms of a stage's butterflies that share the twiddle `w`, each
/// over the butterflies: the sums and differences (real and imaginary
/// parts), then each part of `(a − b)·w` as one part scaled plus a chained
/// SAXPY of the other. 8 cycles for a butterfly's 10 flops.
pub fn butterfly(w: Cpx) -> [VecForm; 8] {
    use VecForm::{Saxpy, VAdd, VSMul, VSub};
    [
        VAdd,
        VAdd,
        VSub,
        VSub,
        VSMul(w.re),
        Saxpy(-w.im),
        VSMul(w.im),
        Saxpy(w.re),
    ]
}

/// The forms of a stage's butterflies with a twiddle vector: the sums and
/// differences, the four products of `(a − b)·w`, and their difference
/// and sum. 10 cycles for a butterfly's 10 flops.
pub const BUTTERFLY_TWIDDLES: [VecForm; 10] = {
    use VecForm::{VAdd, VMul, VSub};
    [VAdd, VAdd, VSub, VSub, VMul, VMul, VMul, VMul, VSub, VAdd]
};

/// The wire form of `data`, in a word-pool buffer.
fn pack(data: &[Cpx]) -> Vec<u32> {
    let mut words = ts_sim::pool::take_words(data.len() * POINT_WORDS);
    for c in data {
        words.extend_from_slice(&split(c.re.to_bits()));
        words.extend_from_slice(&split(c.im.to_bits()));
    }
    words
}

fn unpack(words: &[u32]) -> impl Iterator<Item = Cpx> + '_ {
    words.chunks_exact(POINT_WORDS).map(|c| Cpx {
        re: Sf64::from_bits(join(c)),
        im: Sf64::from_bits(join(&c[2..])),
    })
}

/// Words on the wire per complex point.
const POINT_WORDS: usize = 4;

/// Points per pipeline piece for `nl` local points crossing `stages` cube
/// dimensions: the model's optimum for a pipeline whose first stage is the
/// feed's chain of local stages, ahead of the `stages` exchanges (so a
/// 1-cube still pipelines its one exchange against the feed), rounded up
/// to whole memory rows (the unit the DMA engine streams) and to a power
/// of two so it divides `nl`. With no cross stage the block is one piece.
fn piece_points(ctx: &NodeCtx, stages: u32, nl: usize) -> usize {
    if stages == 0 {
        return nl;
    }
    let net = NetModel::from_params(ctx.in_channel(0).wire().params());
    let words = net.pipeline_piece_words(stages + 1, nl * POINT_WORDS);
    let rows = words.div_ceil(ROW_WORDS).next_power_of_two();
    (rows * ROW_WORDS / POINT_WORDS).min(nl)
}

/// The butterflies of one local stage of span `span` (≥ p) on `slots`, a
/// whole number of its butterfly groups: a butterfly pairs slots `span / p`
/// apart, and slot j's twiddle index (global index mod span) is
/// (j mod span/p)·p + q.
fn butterflies(q: usize, table: &Twiddles, p: usize, span: usize, slots: &mut [Cpx]) {
    let gap = span / p;
    for group in slots.chunks_exact_mut(2 * gap) {
        let (lows, highs) = group.split_at_mut(gap);
        for ((lo, hi), w) in lows.iter_mut().zip(highs).zip(table.run(q, p, span)) {
            let (a, b) = (*lo, *hi);
            *lo = sum(a, b);
            *hi = twiddled(a, b, w);
        }
    }
}

/// [`butterflies`] as the stage's vector forms: returns the instant of the
/// last one's completion interrupt. A stage of gap 1 pairs neighbouring
/// slots, and all its butterflies take the one twiddle of index q.
fn local_stage(ctx: &NodeCtx, table: &Twiddles, p: usize, span: usize, slots: &mut [Cpx]) -> Time {
    let q = ctx.id() as usize;
    butterflies(q, table, p, span, slots);
    let forms = match span / p {
        1 => &butterfly(table.at(q, span))[..],
        _ => &BUTTERFLY_TWIDDLES,
    };
    ctx.issue_forms(forms, slots.len() / 2)
}

/// One cross-node butterfly stage of span `span` (< p) as a pipeline
/// process: for each piece arriving on `input`, send the partner across the
/// stage's cube dimension the half it keeps, compute whole butterflies on
/// the half this node keeps (the low node the first, the high node the
/// second) with the stage's one twiddle `w`, and pass the piece on, sums in
/// its first half and twiddled differences in its second. The stage is
/// double-buffered: each step is one `PAR`, joined in place, of piece i's
/// butterflies and hand-off and piece i+1's receive and exchange, so the
/// vector unit works while the link DMA runs.
async fn cross_stage(
    ctx: NodeCtx,
    span: usize,
    pieces: usize,
    w: Cpx,
    input: Rendezvous<Vec<Cpx>>,
    output: Rendezvous<Vec<Cpx>>,
) {
    let pdim = span.trailing_zeros() as usize;
    let low_side = ctx.id() as usize & span == 0;
    let (ctx, input, output) = (&ctx, &input, &output);
    // A piece and the partner's half of it.
    let fetch = || async move {
        let piece = input.recv().await;
        let half = piece.len() / 2;
        let give = if low_side { half..2 * half } else { 0..half };
        let words = ctx.exchange(pdim, pack(&piece[give]), pdim).await;
        (piece, words)
    };
    let finish = |(mut piece, words): (Vec<Cpx>, Vec<u32>)| async move {
        let half = piece.len() / 2;
        let (lows, highs) = piece.split_at_mut(half);
        for ((lo, hi), theirs) in lows.iter_mut().zip(highs).zip(unpack(&words)) {
            // The butterfly's first operand is the low node's point.
            let (a, b) = if low_side {
                (*lo, theirs)
            } else {
                (theirs, *hi)
            };
            *lo = sum(a, b);
            *hi = twiddled(a, b, w);
        }
        ts_sim::pool::put_words(words);
        ctx.wait(ctx.issue_forms(&butterfly(w), half)).await;
        output.send(piece).await;
    };
    let mut landed = fetch().await;
    for _ in 1..pieces {
        (_, landed) = occam::par2(ctx.handle(), finish(landed), fetch()).await;
    }
    finish(landed).await;
}

/// The per-node DIF FFT program over `local` points (point g of the
/// transform in slot g / p of node g mod p), with the run's
/// `Twiddles::new(total)`. Returns this node's share of the bit-reversed
/// spectrum, slot by slot as `dif_index` places it.
pub async fn fft_node(
    ctx: NodeCtx,
    cube: Hypercube,
    total: usize,
    mut local: Vec<Cpx>,
    table: Rc<Twiddles>,
) -> Vec<Cpx> {
    let p = cube.nodes() as usize;
    let q = ctx.id() as usize;
    let nl = local.len();
    assert!(nl.is_power_of_two() && total == nl * p);
    // The feed runs the local stages (span ≥ p) and sends the block piece
    // by piece into the cross-node stages (span < p), one pipeline process
    // per dimension, and the drain collects the result. A node's
    // butterflies at cross span S all take the twiddle of index q mod S.
    let piece = piece_points(&ctx, cube.dim(), nl);
    let pieces = nl / piece;
    let feed = Rendezvous::new();
    let mut drain = feed.clone();
    let mut span = p / 2;
    while span >= 1 {
        let next = Rendezvous::new();
        let w = table.at(q % span, span);
        let stage = cross_stage(ctx.clone(), span, pieces, w, drain, next.clone());
        ctx.handle().spawn(stage);
        drain = next;
        span /= 2;
    }
    // The feed releases the pieces depth-first, as DIF recurses: a stage
    // whose butterflies pair slots of two pieces (gap ≥ piece) needs the
    // block of 2·gap slots that a piece opens (its start a multiple of
    // 2·gap) before that piece leaves; the stages of smaller gap run on the
    // piece itself. The host does the cross-piece stages' arithmetic here,
    // a whole stage at a time, so each node's block streams through its
    // cache once per stage rather than once per block; the feed only
    // charges their forms. Piece i opens a block of each gap piece·2ʲ with
    // 2ʲ⁺¹ dividing i, piece·(2ᵏ − 1) butterflies in all, 2ᵏ the lowest set
    // bit of i | pieces (piece 0 opens one block of every gap, about nl).
    // With need(i) the butterflies pieces 0..=i open, the feed has charged
    // need(0) + i·rate by piece i (at most all of them), `rate` the least
    // constant that keeps need(i) charged — rather than each block whole at
    // the piece that opens it, which stalls the pipeline at the pieces
    // opening large ones. Piece i leaves only once that chain completes,
    // so no slot is read before the butterflies that wrote it are charged.
    let opened = |i: usize| (piece * ((1 << (i | pieces).trailing_zeros()) - 1)) as u64;
    let head = opened(0);
    let (mut need, mut rate) = (head, 0);
    for i in 1..pieces {
        need += opened(i);
        rate = rate.max((need - head).div_ceil(i as u64));
    }
    let mut span = total / 2;
    while span >= p * piece {
        butterflies(q, &table, p, span, &mut local);
        span /= 2;
    }
    let (_, out) = occam::par2(
        ctx.handle(),
        async {
            let mut charged = 0;
            for (i, start) in (0..nl).step_by(piece).enumerate() {
                // One chain: the control processor queues the forms at
                // once; a cross stage's form issued meanwhile queues
                // behind them.
                let due = need.min(head + i as u64 * rate);
                let mut done = ctx.issue_forms(&BUTTERFLY_TWIDDLES, (due - charged) as usize);
                charged = due;
                let mut span = p * piece / 2;
                let slots = &mut local[start..start + piece];
                while span >= p {
                    done = local_stage(&ctx, &table, p, span, slots);
                    span /= 2;
                }
                ctx.wait(done).await;
                feed.send(slots.to_vec()).await;
            }
        },
        async {
            let mut out = Vec::with_capacity(nl);
            for _ in 0..pieces {
                out.extend(drain.recv().await);
            }
            out
        },
    )
    .await;
    out
}

/// Reverse the lowest `bits` bits of `v`.
pub fn bit_reverse(v: usize, bits: u32) -> usize {
    (v.reverse_bits() >> (usize::BITS - bits)) & ((1 << bits) - 1)
}

/// The DIF-order position of the point node `node` returns in `slot`, on
/// `p` nodes with pipeline pieces of `2·half` points. Points start cyclic
/// (position `slot·p + node`) and each cross stage of span s leaves node
/// bit s and the piece's half bit swapped; undo the swaps, last stage
/// (span 1) first.
fn dif_index(p: usize, half: usize, node: usize, slot: usize) -> usize {
    let (mut q, mut j) = (node, slot);
    let mut s = 1;
    while s < p {
        if (q & s == 0) != (j & half == 0) {
            q ^= s;
            j ^= half;
        }
        s *= 2;
    }
    j * p + q
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
    let half = piece_points(&machine.ctx(0), cube.dim(), nl) / 2;
    // The launch closure owns the run's table and is dropped before the
    // run, so the node programs are its only holders and it is freed with
    // the last of them, before the spectrum is assembled.
    let table = Rc::new(Twiddles::new(total));
    let (spectra, stats) = run_spmd(machine, "FFT", move |ctx| {
        let q = ctx.id() as usize;
        let local: Vec<Cpx> = input[q..]
            .iter()
            .step_by(p)
            .map(|&(re, im)| Cpx::new(re, im))
            .collect();
        fft_node(ctx, cube, total, local, table.clone())
    });
    debug_assert!(
        {
            let mut hit = vec![false; total];
            (0..p).all(|q| {
                (0..nl).all(|j| !std::mem::replace(&mut hit[dif_index(p, half, q, j)], true))
            })
        },
        "(node, slot) → DIF index is not a bijection (p {p}, half {half})"
    );
    let bits = total.trailing_zeros();
    let mut spectrum = vec![(0.0, 0.0); total];
    for (node, points) in spectra.into_iter().enumerate() {
        for (slot, c) in points.into_iter().enumerate() {
            spectrum[bit_reverse(dif_index(p, half, node, slot), bits)] = c.to_host();
        }
    }
    (spectrum, stats)
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

    fn random_input(total: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut st = seed;
        (0..total)
            .map(|_| (rand_f64(&mut st), rand_f64(&mut st)))
            .collect()
    }

    fn check(dim: u32, total: usize) -> KernelStats {
        let input = random_input(total, 7);
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
        // n stages cross-node: each node sends half its block once per
        // stage — the half its partner keeps.
        // 8 nodes × 3 stages × 4 points × 16 bytes.
        assert_eq!(stats.bytes_sent, 8 * 3 * 4 * 16);
    }

    #[test]
    fn transform_totals_five_n_log_n_flops() {
        // N/2 butterflies of 10 flops per stage, log₂N stages — each
        // cross-node butterfly charged once, on the node that computes it.
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
        // 2¹⁴ points on 16 nodes: 1024 points a node, 16 row-sized pieces
        // of 64 points through 4 stages, each sending half a piece (128
        // words). The first piece leaves once the 4 local stages that pair
        // slots of two pieces have run on the blocks it opens — 512 + 256 +
        // 128 + 64 butterflies, about nl — and its own in-piece stages; what
        // the run adds to that is the pipeline: the feed releases the rest
        // of the local work at a rate the wire hides, and each stage
        // computes a piece's butterflies under the next piece's exchange.
        // The model leaves out that first release and the last piece's
        // butterflies at every stage, which nothing hides; the test prices
        // them with the kernel's own forms on one node. On a 1-cube the feed
        // is the stage ahead of the one exchange, and the pieces are sized
        // so.
        let net = NetModel::default();
        for (dim, total) in [(4u32, 1usize << 14), (4, 1 << 16), (1, 1 << 12)] {
            let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
            let (p, nl) = (1 << dim, total >> dim);
            let piece = piece_points(&m.ctx(0), dim, nl);
            let pieces = nl / piece;
            assert!(pieces > 1, "dim {dim}, N {total}: nothing pipelined");
            let mut one = Machine::build(MachineCfg::cube_small_mem(0, 8));
            one.launch(move |ctx| async move {
                let (table, mut slots) = (Twiddles::new(total), vec![Cpx::new(1.0, -1.0); piece]);
                let mut done = ctx.issue_forms(&BUTTERFLY_TWIDDLES, nl - piece);
                let mut span = p * piece / 2;
                while span >= p {
                    done = local_stage(&ctx, &table, p, span, &mut slots);
                    span /= 2;
                }
                for _ in 0..dim {
                    done = ctx.issue_forms(&butterfly(table.at(0, 1)), piece / 2);
                }
                ctx.wait(done).await;
            });
            assert!(one.run().quiescent);
            let head = one.now().since(Time::ZERO);
            let input = vec![(1.0, -1.0); total];
            let pipeline = distributed_fft(&mut m, &input).1.elapsed - head;
            let words = nl * POINT_WORDS / 2;
            let model = net.pipelined_exchange(dim, words, pieces);
            let (got, want) = (pipeline.as_secs_f64(), model.as_secs_f64());
            assert!(
                (got - want).abs() <= 0.03 * want,
                "dim {dim}, N {total}: measured {pipeline}, model {model}"
            );
            if dim == 4 {
                assert!(model < net.p2p(words) * 2, "4 exchanges for < 2");
            }
        }
    }

    #[test]
    fn placement_on_any_cube_is_one_node_bit_for_bit() {
        // The oracle for the cyclic placement, the half exchange and the
        // host-side unswap: every butterfly sees the operands and twiddle
        // it sees on one node, so every output bit is the one-node run's.
        // N from 2p (two points a node, fewer than nodes) to 2¹².
        let bits = |v: &[(f64, f64)]| -> Vec<(u64, u64)> {
            v.iter()
                .map(|&(re, im)| (re.to_bits(), im.to_bits()))
                .collect()
        };
        for log_total in 2..=12u32 {
            let total = 1usize << log_total;
            let input = random_input(total, log_total as u64);
            let one = bits(
                &distributed_fft(
                    &mut Machine::build(MachineCfg::cube_small_mem(0, 8)),
                    &input,
                )
                .0,
            );
            for dim in 1..=4u32.min(log_total - 1) {
                let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
                let (got, stats) = distributed_fft(&mut m, &input);
                assert_eq!(bits(&got), one, "dim {dim}, N {total}");
                // Each stage moves half of every node's block, one way each.
                let want = (total / 2 * POINT_WORDS * 4 * dim as usize) as u64;
                assert_eq!(stats.bytes_sent, want, "dim {dim}, N {total}");
            }
        }
    }

    #[test]
    fn table_entries_equal_the_computed_twiddles_at_every_span() {
        let bits = |c: Cpx| (c.re.to_bits(), c.im.to_bits());
        // Every span of a `total`-point transform, the cross-node ones
        // (span < p on a cube) included: both read the one table.
        for total in [2usize, 64, 1 << 14, 1 << 18] {
            let table = Twiddles::new(total);
            let mut span = total / 2;
            while span >= 1 {
                let got: Vec<_> = table.run(0, 1, span).map(bits).collect();
                let want: Vec<_> = (0..span).map(|k| bits(twiddle(k, span))).collect();
                assert_eq!(got, want, "total {total}, span {span}");
                let at: Vec<_> = (0..span).map(|k| bits(table.at(k, span))).collect();
                assert_eq!(at, want, "total {total}, span {span} (indexed)");
                // A local stage's run on node q of p: k = q, q + p, q + 2p, …
                for (q, p) in [(0usize, 1usize), (1, 2), (3, 4), (5, 16)] {
                    if p <= span {
                        let got: Vec<_> = table.run(q, p, span).take(span / p).map(bits).collect();
                        let want: Vec<_> = (q..span)
                            .step_by(p)
                            .map(|k| bits(twiddle(k, span)))
                            .collect();
                        assert_eq!(got, want, "total {total}, span {span}, q {q} of {p}");
                    }
                }
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
