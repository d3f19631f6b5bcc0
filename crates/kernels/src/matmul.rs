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
//! other direction idle. So a move of `k` positions sends the block's head
//! the short way and its tail the long way round at once, cut so both
//! directions carry the same load ([`ring_split`]): on a ring of 4 a shift
//! costs `max(p2p(3m/4), 3·p2p(m/4))` and the 2-position skew
//! `2·p2p(m/2)`, against `p2p(m)` and `2·p2p(m)` one way.

use std::rc::Rc;

use t_series_core::model::ring_split;
use ts_cube::{embed::MeshEmbedding, Hypercube};
use ts_fpu::Sf64;
use ts_node::{occam, pack_f64s, unpack_f64s_into, NodeCtx};
use ts_sim::Rendezvous;

use crate::{rand_f64, run_spmd, KernelStats};

/// A block shared between the GEMM reading it and the link engine sending it.
type Block = Rc<Vec<Sf64>>;

/// Return a block to the value pool once its last reader lets go.
fn recycle(block: Block) {
    if let Ok(v) = Rc::try_unwrap(block) {
        ts_node::recycle_values(v);
    }
}

/// The cube dimensions a node crosses stepping one position `[backward,
/// forward]` along torus `axis` (wrapping).
fn axis_dims(mesh: &MeshEmbedding, me: u32, coords: &[u32], axis: usize) -> [usize; 2] {
    [false, true].map(|forward| {
        let nb = mesh.node_at(&mesh.step_wrap(coords, axis, forward));
        (me ^ nb).trailing_zeros() as usize
    })
}

/// Carry a packed message `hops` positions round the ring, sending across
/// `send` and receiving across `recv` on every hop: each node relays the
/// words it received, unopened, and ends with the message that started
/// `hops` positions upstream.
async fn relay(ctx: NodeCtx, [send, recv]: [usize; 2], hops: u32, mut words: Vec<u32>) -> Vec<u32> {
    for _ in 0..hops {
        words = ctx.exchange(send, words, recv).await;
    }
    words
}

/// Move `block` `k` positions backward ("left"/"up") round the ring of
/// `side` on one torus axis, and return the block that arrives from `k`
/// positions forward. The block is cut where [`ring_split`] says: its head
/// goes the short way, its tail the long way round, both at once (one
/// `PAR`), so both directions of the axis' links carry the same load. It is
/// packed once and unpacked once; the nodes in between relay its words.
async fn torus_move(
    ctx: &NodeCtx,
    [back, fwd]: [usize; 2],
    side: u32,
    k: u32,
    block: Block,
) -> Block {
    let (short, share) = ring_split(side, k, 2 * block.len());
    if short == 0 {
        return block;
    }
    // `[send, recv]` dimensions of each way; the short way is backward
    // unless k > s/2.
    let (short_way, long_way) = if short == k {
        ([back, fwd], [fwd, back])
    } else {
        ([fwd, back], [back, fwd])
    };
    let cut = block.len() - share / 2;
    let head = pack_f64s(&block[..cut]);
    let (head, tail) = if share == 0 {
        (relay(ctx.clone(), short_way, short, head).await, Vec::new())
    } else {
        let tail = pack_f64s(&block[cut..]);
        // Boxed: the PAR of two relays would double every mover's future,
        // and most moves (small blocks, rings of two) never split.
        Box::pin(occam::par2(
            ctx.handle(),
            relay(ctx.clone(), short_way, short, head),
            relay(ctx.clone(), long_way, side - short, tail),
        ))
        .await
    };
    let mut incoming = ts_node::take_values(block.len());
    recycle(block);
    unpack_f64s_into(&mut incoming, head);
    unpack_f64s_into(&mut incoming, tail);
    Rc::new(incoming)
}

/// The mover process of one torus axis: skew the block `skew` positions
/// backward, then hand each resident block to the GEMM and move it on one
/// position while the GEMM reads it.
async fn mover(
    ctx: NodeCtx,
    dims: [usize; 2],
    side: u32,
    skew: u32,
    block: Vec<Sf64>,
    to_gemm: Rendezvous<Block>,
) {
    let mut block = torus_move(&ctx, dims, side, skew, Rc::new(block)).await;
    for _ in 1..side {
        to_gemm.send(block.clone()).await;
        block = torus_move(&ctx, dims, side, 1, block).await;
    }
    to_gemm.send(block).await;
}

/// Local GEMM: `c += a · b` on b×b row-major blocks, as b² chained SAXPY
/// vector forms (`C[i,:] += A[i,k] · B[k,:]`) in one block form. The forms
/// are issued back to back and the GEMM sleeps to the last one's
/// completion interrupt: it is the node's only user of the vector unit and
/// touches no other unit in between, so no instant inside the chain is
/// observable (see [`NodeCtx::issue_vec`]).
async fn local_gemm(ctx: &NodeCtx, bsize: usize, a: &[Sf64], b: &[Sf64], c: &mut [Sf64]) {
    let done = ctx.issue_gemm_values(bsize, a, b, c);
    ctx.wait(done).await;
}

/// The per-node Cannon program: returns this node's C block.
pub async fn cannon_node(
    ctx: NodeCtx,
    cube: Hypercube,
    bsize: usize,
    a: Vec<Sf64>,
    b: Vec<Sf64>,
) -> Vec<Sf64> {
    let half = cube.dim() / 2;
    let mesh = MeshEmbedding::new(cube, &[half, half]);
    let s = mesh.side(0);
    let me = ctx.id();
    let coords = mesh.coords_of(me);
    let (col, row) = (coords[0], coords[1]);
    // A moves `row` positions left (axis 0), B `col` up (axis 1). Unit hops
    // keep every transfer on a physical cube edge.
    let (a_rx, b_rx) = (Rendezvous::new(), Rendezvous::new());
    for (axis, skew, block, to_gemm) in [(0, row, a, a_rx.clone()), (1, col, b, b_rx.clone())] {
        let dims = axis_dims(&mesh, me, &coords, axis);
        ctx.handle()
            .spawn(mover(ctx.clone(), dims, s, skew, block, to_gemm));
    }
    let mut c = vec![Sf64::ZERO; bsize * bsize];
    for _ in 0..s {
        let (a, b) = (a_rx.recv().await, b_rx.recv().await);
        local_gemm(&ctx, bsize, &a, &b, &mut c).await;
        recycle(a);
        recycle(b);
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
    // they are done with, so the pool neither grows nor drains.
    let block_of = |m: &[f64], br: usize, bc: usize| -> Vec<Sf64> {
        let mut out = ts_node::take_values(bsize * bsize);
        for i in 0..bsize {
            for j in 0..bsize {
                out.push(Sf64::from(m[(br * bsize + i) * n + bc * bsize + j]));
            }
        }
        out
    };
    let mesh = MeshEmbedding::new(cube, &[cube.dim() / 2, cube.dim() / 2]);

    let (blocks, stats) = run_spmd(machine, "Cannon", |ctx| {
        let coords = mesh.coords_of(ctx.id());
        let (bc, br) = (coords[0] as usize, coords[1] as usize);
        let ab = block_of(&a, br, bc);
        let bb = block_of(&b, br, bc);
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
        // skew + (s−1)·max(gemm, shift) + gemm, with the GEMM time taken
        // from a one-node run of one block.
        let net = t_series_core::model::NetModel::default();
        for (dim, n) in [(2u32, 64usize), (4, 128)] {
            let s = 1u32 << (dim / 2);
            let b = n / s as usize;
            let gemm = check(0, b).elapsed;
            let measured = check(dim, n).elapsed;
            let model = net.cannon(s, 2 * b * b, gemm);
            let (got, want) = (measured.as_secs_f64(), model.as_secs_f64());
            assert!(
                (got - want).abs() <= 0.10 * want,
                "dim {dim}, n {n}: measured {measured}, model {model}"
            );
        }
    }

    #[test]
    fn one_move_in_isolation_matches_the_closed_form() {
        // One 8 192-word block on every node of the 4×4 torus, moved along
        // axis 0: by s/2 (half each way, 2 hops) and by one position (a
        // quarter the long way, 3 hops).
        let net = t_series_core::model::NetModel::default();
        let words = 8192;
        for k in [2u32, 1] {
            let mut m = Machine::build(MachineCfg::cube_small_mem(4, 8));
            let cube = m.cube;
            m.launch(move |ctx| async move {
                let mesh = MeshEmbedding::new(cube, &[2, 2]);
                let dims = axis_dims(&mesh, ctx.id(), &mesh.coords_of(ctx.id()), 0);
                let block = Rc::new(vec![Sf64::ZERO; words / 2]);
                recycle(torus_move(&ctx, dims, 4, k, block).await);
            });
            assert!(m.run().quiescent);
            let measured = m.now().since(ts_sim::Time::ZERO);
            let model = net.torus_move(4, k, words);
            let (got, want) = (measured.as_secs_f64(), model.as_secs_f64());
            assert!(
                (got - want).abs() <= 0.05 * want,
                "move by {k}: measured {measured}, model {model}"
            );
        }
    }

    #[test]
    fn placement_on_any_torus_is_cannons_order_bit_for_bit() {
        // The oracle for the split moves: node (r, c) multiplies the blocks
        // A[r, k] and B[k, c] with k = r + c + t (mod s) at step t, so its C
        // block must equal those GEMMs accumulated in that order on the
        // host, bit for bit. Blocks below one memory row of share stay on
        // one path; the larger ones split (b = 40 rounds the share down).
        let bits = |v: &[Sf64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (dim, n) in [
            (0u32, 8usize),
            (0, 32),
            (2, 8),
            (2, 64),
            (4, 16),
            (4, 128),
            (4, 160),
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
            for (r, col) in (0..s).flat_map(|r| (0..s).map(move |col| (r, col))) {
                let mut want = vec![Sf64::ZERO; bs * bs];
                for t in 0..s {
                    let k = (r + col + t) % s;
                    row::gemm(bs, &block(&a, r, k), &block(&b, k, col), &mut want);
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
