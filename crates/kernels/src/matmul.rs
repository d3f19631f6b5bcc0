//! Distributed matrix multiplication: Cannon's algorithm on the 2-D torus
//! embedding (Figure 3's mesh, with the wrap edges the cyclic Gray code
//! provides).
//!
//! The machine's 2ⁿ nodes form an s × s torus (s = 2^(n/2)); each node owns
//! b × b blocks of A, B and C (b = N/s). After the initial skew (block row
//! r of A shifted r positions left, block column c of B shifted c up),
//! every step multiplies the resident blocks — b² chained SAXPY vector
//! forms of length b — and shifts A left, B up by one torus position. Every
//! hop crosses a single cube edge because the embedding is dilation-1.
//!
//! The two torus axes are disjoint sets of cube dimensions, hence disjoint
//! physical links, and a link engine DMAs while the vector unit computes.
//! So each node runs three Occam processes: one **mover per axis** that
//! skews its block and then moves it on every step, and the **GEMM**,
//! which only reads the blocks in flight (double buffering). A step costs
//! `max(gemm, move)`, not `gemm + 2·move`.
//!
//! Every link is bidirectional, and a move one way round a ring leaves the
//! other direction idle. So a move of `k` positions sends part of the block
//! the short way and the rest the long way round at once, cut so both
//! directions carry the same load ([`ring_split`]): on a ring of 4 a shift
//! costs `max(p2p(3m/4), 3·p2p(m/4))` and the 2-position skew
//! `2·p2p(m/2)`, against `p2p(m)` and `2·p2p(m)` one way.
//!
//! A block moves as **panels** ([`panel_slices`]): whole k-slices — rows
//! of B, and rows of Aᵀ, since each node holds its A block transposed —
//! one memory row of words each, the unit the link DMA streams. The long
//! way carries evenly spaced panels, so the panels of both ways land in
//! k-order at an even rate, and the GEMM multiplies each panel as it
//! lands: the last GEMM ends a panel's share of a GEMM after the last
//! move, not a whole GEMM. Each C element still sums its k in order, so
//! the output is bit-identical to whole-block GEMMs.

use std::cell::{Cell, RefCell};
use std::future::poll_fn;
use std::ops::Range;
use std::rc::Rc;
use std::task::{Poll, Waker};

use t_series_core::model::{panel_slices, panels, ring_split};
use ts_cube::{embed::MeshEmbedding, Hypercube};
use ts_fpu::Sf64;
use ts_node::{f64s_of, occam, pack_f64s_into, NodeCtx};
use ts_sim::{Rendezvous, Time};

use crate::{rand_f64, run_spmd, KernelStats};

/// A `b × b` row-major block of Aᵀ or B on one node, landing panel by
/// panel: the mover writes each landed panel's values in place and wakes
/// the GEMM, which reads panel `i` once `landed[i]` is set. Its values
/// live in a value-pool buffer and go back to the pool with the block.
struct Block {
    b: usize,
    values: RefCell<Vec<Sf64>>,
    landed: Vec<Cell<bool>>,
    /// The GEMM, while it waits for a panel.
    waiting: Cell<Option<Waker>>,
}

impl Block {
    /// A block of `values` whose panels have all `landed`, or none.
    fn new(b: usize, values: Vec<Sf64>, landed: bool) -> Block {
        Block {
            b,
            values: RefCell::new(values),
            landed: (0..panels(b)).map(|_| Cell::new(landed)).collect(),
            waiting: Cell::new(None),
        }
    }

    /// A block of the same shape with nothing landed yet.
    fn empty(&self) -> Block {
        let mut values = ts_node::take_values(self.b * self.b);
        values.resize(self.b * self.b, Sf64::ZERO);
        Block::new(self.b, values, false)
    }

    /// Make the block a landing place again: no panel has landed.
    fn unland(&self) {
        self.landed.iter().for_each(|l| l.set(false));
    }

    /// The k-range of panel `i`.
    fn ks(&self, i: usize) -> Range<usize> {
        let q = panel_slices(self.b);
        i * q..((i + 1) * q).min(self.b)
    }

    /// Panel `i`'s values: its k-range's whole rows.
    fn rows(&self, i: usize) -> Range<usize> {
        let ks = self.ks(i);
        ks.start * self.b..ks.end * self.b
    }

    /// Panel `i`'s wire form, in one word-pool buffer.
    fn pack(&self, i: usize) -> Vec<u32> {
        let rows = self.rows(i);
        let mut words = ts_sim::pool::take_words(2 * rows.len());
        pack_f64s_into(&mut words, &self.values.borrow()[rows]);
        words
    }

    /// Write panel `i` from its wire form and wake the GEMM; `words` goes
    /// back to its pool.
    fn land(&self, i: usize, words: Vec<u32>) {
        let mut values = self.values.borrow_mut();
        for (to, v) in values[self.rows(i)].iter_mut().zip(f64s_of(&words)) {
            *to = v;
        }
        drop(values);
        ts_sim::pool::put_words(words);
        self.landed[i].set(true);
        if let Some(gemm) = self.waiting.take() {
            gemm.wake();
        }
    }

    /// Sleep until panel `i` has landed.
    async fn panel(&self, i: usize) {
        poll_fn(|cx| {
            if self.landed[i].get() {
                return Poll::Ready(());
            }
            self.waiting.set(Some(cx.waker().clone()));
            Poll::Pending
        })
        .await
    }
}

impl Drop for Block {
    fn drop(&mut self) {
        ts_node::recycle_values(std::mem::take(self.values.get_mut()));
    }
}

/// The cube dimensions a node crosses stepping one position `[backward,
/// forward]` along torus `axis` (wrapping). A ring of one position (the
/// 0-cube's) has no link and never moves: its dimensions read 0.
fn axis_dims(cube: Hypercube, mesh: &MeshEmbedding, me: u32, axis: usize) -> [usize; 2] {
    if mesh.side(axis) == 1 {
        return [0; 2];
    }
    let coords = mesh.coords_of(me);
    [false, true]
        .map(|forward| cube.link_dim(me, mesh.node_at(&mesh.step_wrap(&coords, axis, forward))))
}

/// One way round a ring: carry the `panels` of `block`, one after another,
/// `hops` positions across `[send, recv]`, and land each in `incoming`.
/// Every node relays the words it received, unopened, so a node lands the
/// panel that started `hops` positions upstream.
async fn way(
    ctx: &NodeCtx,
    [send, recv]: [usize; 2],
    hops: u32,
    panels: impl Iterator<Item = usize>,
    block: &Block,
    incoming: &Block,
) {
    for i in panels {
        let mut words = block.pack(i);
        for _ in 0..hops {
            words = ctx.exchange(send, words, recv).await;
        }
        incoming.land(i, words);
    }
}

/// Move `block` `k` positions backward ("left"/"up") round the ring of
/// `side` on one torus axis, landing in `incoming` the block that arrives
/// from `k` positions forward. [`ring_split`] says how many panels go the
/// long way round; they are evenly spaced in k, the rest go the short way,
/// both ways at once (one `PAR`), so both directions of the axis' links
/// carry the same load and the panels land in k-order at an even rate.
async fn torus_move(
    ctx: &NodeCtx,
    [back, fwd]: [usize; 2],
    side: u32,
    k: u32,
    block: &Block,
    incoming: &Block,
) {
    let p = block.landed.len();
    let (short, long) = ring_split(side, k, p);
    // `[send, recv]` dimensions of each way; the short way is backward
    // unless k > s/2.
    let (short_way, long_way) = if short == k {
        ([back, fwd], [fwd, back])
    } else {
        ([fwd, back], [back, fwd])
    };
    // Panel i goes the long way when ⌊i·long/p⌋ steps up at i + 1.
    let far = move |i: &usize| (i + 1) * long / p > i * long / p;
    let (near, far) = ((0..p).filter(move |i| !far(i)), (0..p).filter(far));
    let near = way(ctx, short_way, short, near, block, incoming);
    if long == 0 {
        near.await;
    } else {
        let far = way(ctx, long_way, side - short, far, block, incoming);
        // Boxed: the PAR of two ways would double every mover's future,
        // and most moves (small blocks, rings of two) never split.
        Box::pin(occam::par2(ctx.handle(), near, far)).await;
    }
}

/// The mover process of one torus axis. `blocks[t mod 2]` holds the block
/// of step t: the skew moves the block `skew` positions backward from
/// `blocks[1]` into `blocks[0]` (a block with no skew starts in
/// `blocks[0]`), and each later step moves it on one position into the
/// other buffer — double buffering. Before each later move the mover waits
/// for the GEMM's leave on `go`, which the GEMM gives once it has finished
/// the step whose buffer the move lands in.
async fn mover(
    ctx: NodeCtx,
    dims: [usize; 2],
    side: u32,
    skew: u32,
    blocks: [Rc<Block>; 2],
    go: Rendezvous<()>,
) {
    for t in 0..side as usize {
        let k = if t == 0 {
            skew
        } else {
            go.send(()).await;
            1
        };
        if k > 0 {
            torus_move(&ctx, dims, side, k, &blocks[(t + 1) % 2], &blocks[t % 2]).await;
        }
    }
}

/// One block step of the GEMM: `c += a · b`, each panel multiplied in
/// k-order as soon as both A's and B's have landed, as chained SAXPY forms
/// over the panel's k-range (`C[i,:] += A[i,k] · B[k,:]`, each range
/// classified once). The GEMM is the node's only user of the vector unit
/// and touches no other unit in between, so its forms queue behind each
/// other exactly as if each were awaited (see [`NodeCtx::issue_vec`]).
/// Returns the last form's completion instant.
async fn gemm_step(ctx: &NodeCtx, a: &Block, b: &Block, c: &mut [Sf64]) -> Time {
    let mut done = ctx.now();
    for i in 0..a.landed.len() {
        a.panel(i).await;
        b.panel(i).await;
        let (av, bv) = (a.values.borrow(), b.values.borrow());
        done = ctx.issue_gemm_values(a.b, a.ks(i), &av, &bv, c);
    }
    done
}

/// The per-node Cannon program: returns this node's C block.
///
/// Each block step clears the buffers the next moves land in, then runs
/// the step's GEMM in `PAR` with giving the movers leave (A's, then B's),
/// so a mover starts its next move as soon as its block has landed; then
/// the GEMM sleeps once, to the step's last completion interrupt.
pub async fn cannon_node(
    ctx: NodeCtx,
    cube: Hypercube,
    bsize: usize,
    a: Vec<Sf64>,
    b: Vec<Sf64>,
) -> Vec<Sf64> {
    let half = cube.dim() / 2;
    let mesh = MeshEmbedding::new(cube, &[half, half]);
    let s = mesh.side(0) as usize;
    let me = ctx.id();
    let coords = mesh.coords_of(me);
    let (col, row) = (coords[0], coords[1]);
    // A moves `row` positions left (axis 0), B `col` up (axis 1). Unit hops
    // keep every transfer on a physical cube edge.
    let (a_go, b_go) = (Rendezvous::new(), Rendezvous::new());
    let [a, b] = [(0, row, a, &a_go), (1, col, b, &b_go)].map(|(axis, skew, values, go)| {
        let dims = axis_dims(cube, &mesh, me, axis);
        let block = Block::new(bsize, values, true);
        let other = block.empty();
        let blocks = if skew == 0 {
            [block, other]
        } else {
            [other, block]
        }
        .map(Rc::new);
        let mover = mover(
            ctx.clone(),
            dims,
            s as u32,
            skew,
            blocks.clone(),
            go.clone(),
        );
        ctx.handle().spawn(mover);
        blocks
    });
    let mut c = vec![Sf64::ZERO; bsize * bsize];
    for t in 0..s {
        a[(t + 1) % 2].unland();
        b[(t + 1) % 2].unland();
        let leave = async {
            if t + 1 < s {
                a_go.recv().await;
                b_go.recv().await;
            }
        };
        let multiply = gemm_step(&ctx, &a[t % 2], &b[t % 2], &mut c);
        let (done, ()) = occam::par2(ctx.handle(), multiply, leave).await;
        ctx.wait(done).await;
    }
    c
}

/// Host-side driver: generate N×N matrices, run Cannon on `machine`,
/// return (A, B, C) as host row-major matrices plus the run's stats.
pub fn distributed_matmul(
    machine: &mut t_series_core::Machine,
    n: usize,
    seed: u64,
) -> (Vec<f64>, Vec<f64>, Vec<f64>, KernelStats) {
    let cube = machine.cube;
    assert!(
        cube.dim().is_multiple_of(2),
        "Cannon needs a square torus (even cube dimension)"
    );
    let s = 1usize << (cube.dim() / 2);
    assert!(
        n.is_multiple_of(s),
        "matrix size must divide the torus side"
    );
    let bsize = n / s;

    let mut st = seed;
    let a: Vec<f64> = (0..n * n).map(|_| rand_f64(&mut st)).collect();
    let b: Vec<f64> = (0..n * n).map(|_| rand_f64(&mut st)).collect();

    // Cut blocks, into pool buffers: the node programs recycle every block
    // they are done with, so the pool neither grows nor drains. A's blocks
    // are cut transposed, so a panel of either matrix is whole rows.
    let block_of = |m: &[f64], br: usize, bc: usize, transposed: bool| -> Vec<Sf64> {
        let mut out = ts_node::take_values(bsize * bsize);
        for i in 0..bsize {
            for j in 0..bsize {
                let (r, c) = if transposed { (j, i) } else { (i, j) };
                out.push(Sf64::from(m[(br * bsize + r) * n + bc * bsize + c]));
            }
        }
        out
    };
    let mesh = MeshEmbedding::new(cube, &[cube.dim() / 2, cube.dim() / 2]);

    let (blocks, stats) = run_spmd(machine, "Cannon", |ctx| {
        let coords = mesh.coords_of(ctx.id());
        let (bc, br) = (coords[0] as usize, coords[1] as usize);
        let ab = block_of(&a, br, bc, true);
        let bb = block_of(&b, br, bc, false);
        cannon_node(ctx, cube, bsize, ab, bb)
    });

    // Reassemble C.
    let mut c = vec![0.0f64; n * n];
    for (id, cb) in blocks.into_iter().enumerate() {
        let coords = mesh.coords_of(id as u32);
        let (bc, br) = (coords[0] as usize, coords[1] as usize);
        for i in 0..bsize {
            for j in 0..bsize {
                c[(br * bsize + i) * n + bc * bsize + j] = cb[i * bsize + j].to_host();
            }
        }
    }
    (a, b, c, stats)
}

/// Host reference multiply for verification.
pub fn reference_matmul(n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut c = vec![0.0; n * n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i * n + k];
            for j in 0..n {
                c[i * n + j] += aik * b[k * n + j];
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use t_series_core::{Machine, MachineCfg};
    use ts_fpu::soft::row;

    fn check(dim: u32, n: usize) -> KernelStats {
        let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
        let (a, b, c, stats) = distributed_matmul(&mut m, n, 42);
        let want = reference_matmul(n, &a, &b);
        for (i, (&got, &w)) in c.iter().zip(&want).enumerate() {
            assert!(
                (got - w).abs() <= 1e-12 * w.abs().max(1.0),
                "C[{i}] = {got}, want {w} (dim {dim}, n {n})"
            );
        }
        stats
    }

    #[test]
    fn cannon_2x2_torus() {
        let stats = check(2, 8);
        assert!(stats.flops > 0);
        assert!(stats.bytes_sent > 0);
    }

    #[test]
    fn cannon_4x4_torus() {
        let stats = check(4, 16);
        // 2·N³ useful flops plus nothing wasted: Cannon does exactly that.
        assert_eq!(stats.flops, 2 * 16 * 16 * 16);
    }

    #[test]
    fn cannon_single_node_degenerate() {
        let stats = check(0, 8);
        assert_eq!(stats.bytes_sent, 0, "no communication on a point machine");
    }

    #[test]
    fn overlapped_schedule_matches_the_closed_form() {
        // skew + (s−1)·max(gemm, move(1)) + gemm/P, with the GEMM time
        // taken from a one-node run of one block.
        let net = t_series_core::model::NetModel::default();
        for (dim, n) in [(2u32, 64usize), (4, 128), (4, 256)] {
            let s = 1u32 << (dim / 2);
            let b = n / s as usize;
            let gemm = check(0, b).elapsed;
            let measured = check(dim, n).elapsed;
            let model = net.cannon(s, b, gemm);
            let (got, want) = (measured.as_secs_f64(), model.as_secs_f64());
            assert!(
                (got - want).abs() <= 0.05 * want,
                "dim {dim}, n {n}: measured {measured}, model {model}"
            );
        }
    }

    #[test]
    fn one_move_in_isolation_matches_the_closed_form() {
        // One 64 × 64 block (8 192 words, 32 panels) on every node of the
        // 4×4 torus, moved along axis 0: by s/2 (half each way, 2 hops) and
        // by one position (a quarter the long way, 3 hops).
        let net = t_series_core::model::NetModel::default();
        let b = 64;
        for k in [2u32, 1] {
            let mut m = Machine::build(MachineCfg::cube_small_mem(4, 8));
            let cube = m.cube;
            m.launch(move |ctx| async move {
                let mesh = MeshEmbedding::new(cube, &[2, 2]);
                let dims = axis_dims(cube, &mesh, ctx.id(), 0);
                let block = Block::new(b, vec![Sf64::ZERO; b * b], true);
                let incoming = block.empty();
                torus_move(&ctx, dims, 4, k, &block, &incoming).await;
                assert!(incoming.landed.iter().all(Cell::get));
            });
            assert!(m.run().quiescent);
            let measured = m.now().since(ts_sim::Time::ZERO);
            let model = net.torus_move(4, k, b);
            let (got, want) = (measured.as_secs_f64(), model.as_secs_f64());
            assert!(
                (got - want).abs() <= 0.05 * want,
                "move by {k}: measured {measured}, model {model}"
            );
        }
    }

    #[test]
    fn placement_on_any_torus_is_cannons_order_bit_for_bit() {
        // The oracle for the streamed, split moves: node (r, c) multiplies
        // the blocks A[r, k] and B[k, c] with k = r + c + t (mod s) at step
        // t, so its C block must equal those whole GEMMs accumulated in that
        // order on the host, bit for bit. Blocks under one memory row are
        // one panel (b = 4, 8, 11) and stay on one path; the larger ones
        // move as panels of whole k-slices, split both ways round rings
        // over two: b = 32 in full-row panels, b = 48 in panels of two
        // slices (192 words), b = 40 in panels of three with a ragged
        // one-slice last panel.
        let bits = |v: &[Sf64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (dim, n) in [
            (0u32, 8usize),
            (0, 32),
            (2, 8),
            (2, 64),
            (4, 16),
            (4, 128),
            (4, 44),
            (4, 160),
            (2, 80),
            (2, 96),
            (4, 192),
            (6, 32),
            (6, 256),
        ] {
            let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
            let (a, b, c, _) = distributed_matmul(&mut m, n, 1986);
            let s = 1usize << (dim / 2);
            let bs = n / s;
            let block = |mat: &[f64], br: usize, bc: usize| -> Vec<Sf64> {
                (0..bs * bs)
                    .map(|e| Sf64::from(mat[(br * bs + e / bs) * n + bc * bs + e % bs]))
                    .collect()
            };
            let transposed = |v: Vec<Sf64>| -> Vec<Sf64> {
                (0..bs * bs).map(|e| v[e % bs * bs + e / bs]).collect()
            };
            for (r, col) in (0..s).flat_map(|r| (0..s).map(move |col| (r, col))) {
                let mut want = vec![Sf64::ZERO; bs * bs];
                for t in 0..s {
                    let k = (r + col + t) % s;
                    let at = transposed(block(&a, r, k));
                    row::gemm(bs, 0..bs, &at, &block(&b, k, col), &mut want);
                }
                let (got, want) = (bits(&block(&c, r, col)), bits(&want));
                assert!(
                    got == want,
                    "dim {dim}, n {n}: block ({r}, {col}) differs at element {:?}",
                    got.iter().zip(&want).position(|(g, w)| g != w)
                );
            }
        }
    }

    #[test]
    fn bigger_matrices_run_closer_to_peak() {
        let small = check(2, 8);
        let large = check(2, 32);
        assert!(
            large.mflops > small.mflops,
            "large {} vs small {}",
            large.mflops,
            small.mflops
        );
    }
}
