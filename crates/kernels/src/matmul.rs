//! Distributed matrix multiplication: Cannon's algorithm on the 2-D torus
//! embedding (Figure 3's mesh, with the wrap edges the cyclic Gray code
//! provides).
//!
//! The machine's 2ⁿ nodes form an s × s torus (s = 2^(n/2)); each node owns
//! b × b blocks of A, B and C (b = N/s). After the initial skew (block row
//! r of A shifted r positions left, block column c of B shifted c up),
//! every step multiplies the resident blocks — b² chained SAXPY vector
//! forms of length b — and shifts A left, B up by one torus position. All
//! shifts are single cube hops because the embedding is dilation-1.
//!
//! The two torus axes are disjoint sets of cube dimensions, hence disjoint
//! physical links, and a link engine DMAs while the vector unit computes.
//! So each node runs three Occam processes: one **mover per axis** that
//! skews its block the short way round the ring and then shifts it on
//! every step, and the **GEMM**, which only reads the blocks in flight
//! (double buffering). A step costs `max(gemm, shift)`, not
//! `gemm + 2·shift`.

use std::rc::Rc;

use ts_cube::{embed::MeshEmbedding, Hypercube};
use ts_fpu::Sf64;
use ts_node::NodeCtx;
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

/// One torus shift: send `block` one step along the axis (backward =
/// "left"/"up"), receive the neighbour's from the other side.
async fn shift(ctx: &NodeCtx, [back, fwd]: [usize; 2], forward: bool, block: Block) -> Block {
    let (send_dim, recv_dim) = if forward { (fwd, back) } else { (back, fwd) };
    let incoming = ctx.exchange_f64s(send_dim, &block, recv_dim).await;
    recycle(block);
    Rc::new(incoming)
}

/// The mover process of one torus axis: skew the block `skew` positions
/// backward — the short way round the ring of `side` — then hand each
/// resident block to the GEMM and shift it on while the GEMM reads it.
async fn mover(
    ctx: NodeCtx,
    dims: [usize; 2],
    side: u32,
    skew: u32,
    block: Vec<Sf64>,
    to_gemm: Rendezvous<Block>,
) {
    let mut block = Rc::new(block);
    let (hops, forward) = if skew <= side - skew {
        (skew, false)
    } else {
        (side - skew, true)
    };
    for _ in 0..hops {
        block = shift(&ctx, dims, forward, block).await;
    }
    for _ in 1..side {
        to_gemm.send(block.clone()).await;
        block = shift(&ctx, dims, false, block).await;
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
    // A moves `row` steps left (axis 0), B `col` steps up (axis 1). Unit
    // steps keep every hop on a physical cube edge.
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
