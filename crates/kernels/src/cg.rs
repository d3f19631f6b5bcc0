//! Conjugate gradients on the distributed machine — the iterative-solver
//! counterpart to the LU kernel, and the workload class (sparse/structured
//! systems from PDEs) behind the paper's mesh embeddings.
//!
//! The system is the standard 2-D five-point Laplacian on an
//! (s·g)×(s·g) grid, distributed like the Jacobi kernel: each node owns a
//! g×g tile. One CG iteration needs
//!
//! * a **halo exchange** + local stencil apply (`q = A·p`),
//! * two **all-reduce** scalar products (`pᵀq`, `rᵀr`) over the cube,
//! * three local AXPYs through the vector pipes.
//!
//! The tile arithmetic is `Sf64` by the FPU's rules, issued as the vector
//! forms it is ([`MATVEC`], then chained SAXPYs); the dots pay the log₂ p
//! dimension-exchange latency — the communication/computation balance of
//! §II, iterated. A step's two scalar quotients, α and β, are host
//! divisions that no unit is charged for.

use ts_cube::Hypercube;
use ts_fpu::soft::row;
use ts_fpu::Sf64;
use ts_node::{CombineOp, NodeCtx};
use ts_vec::VecForm;

use crate::stencil::{host_neighbour_sums, on_tiles, Tile};
use crate::KernelStats;

/// CG's matrix–vector forms over a tile, `q = 4·p − (((W + E) + N) + S)`:
/// the neighbour sums (three adds), `4·p`, and their difference.
pub const MATVEC: [VecForm; 5] = {
    use VecForm::{VAdd, VSMul, VSub};
    [VAdd, VAdd, VAdd, VSMul(FOUR), VSub]
};

const FOUR: Sf64 = Sf64::from_bits(4f64.to_bits());

/// Global dot product: local dot via the vector pipe, then a scalar
/// all-reduce over the cube.
async fn global_dot(ctx: &NodeCtx, cube: Hypercube, a: &[Sf64], b: &[Sf64]) -> f64 {
    let (local, done) = ctx.issue_dot_values(a, b);
    ctx.wait(done).await;
    let total = t_series_core::collectives::allreduce(ctx, cube, CombineOp::Add, vec![local]).await;
    total[0].to_host()
}

/// The per-node CG program: solve `A x = b` (five-point Laplacian) to
/// tolerance, returning this node's tile of x and the iteration count.
pub async fn cg_node(
    ctx: NodeCtx,
    cube: Hypercube,
    g: usize,
    b: Vec<Sf64>,
    tol: f64,
    max_iters: usize,
) -> (Vec<Sf64>, usize) {
    let geo = Tile::new(&ctx, cube, g);
    let n_local = g * g;
    let mut x = vec![Sf64::ZERO; n_local];
    let mut r = b;
    let mut p = r.clone();
    let mut rs = global_dot(&ctx, cube, &r, &r).await;
    let mut iters = 0;
    while iters < max_iters && rs.sqrt() > tol {
        let sums = geo.neighbour_sums(&ctx, &p).await;
        let mut q = vec![Sf64::ZERO; n_local];
        row::scale(FOUR, &p, &mut q);
        row::sub(&mut q, &sums);
        ctx.wait(ctx.issue_forms(&MATVEC, n_local)).await;
        let pq = global_dot(&ctx, cube, &p, &q).await;
        let alpha = Sf64::from(rs / pq);
        // x += α·p, then r −= α·q: one chain.
        let _ = ctx.issue_saxpy_values(alpha, &p, &mut x);
        ctx.wait(ctx.issue_saxpy_values(-alpha, &q, &mut r)).await;
        let rs_new = global_dot(&ctx, cube, &r, &r).await;
        let beta = Sf64::from(rs_new / rs);
        // p = β·p + r.
        let mut next = r.clone();
        ctx.wait(ctx.issue_saxpy_values(beta, &p, &mut next)).await;
        p = next;
        rs = rs_new;
        iters += 1;
    }
    (x, iters)
}

/// Host driver: solve the Laplacian system for a random right-hand side;
/// returns `(b, x, iterations, stats)` with grids in row-major global order.
pub fn distributed_cg(
    machine: &mut t_series_core::Machine,
    g: usize,
    tol: f64,
    seed: u64,
) -> (Vec<f64>, Vec<f64>, usize, KernelStats) {
    let cube = machine.cube;
    let mut st = seed;
    let b: Vec<f64> = (0..cube.nodes() as usize * g * g)
        .map(|_| crate::rand_f64(&mut st))
        .collect();
    let (x, iters, stats) = on_tiles(machine, "CG", g, &b, |ctx, tile| {
        cg_node(ctx, cube, g, tile, tol, 10_000)
    });
    (b, x, iters[iters.len() - 1], stats)
}

/// Max-norm residual `|A·x − b|` of the global five-point system (host).
pub fn cg_residual(width: usize, height: usize, x: &[f64], b: &[f64]) -> f64 {
    let sums = host_neighbour_sums(width, height, x);
    let residuals = x
        .iter()
        .zip(sums)
        .zip(b)
        .map(|((x, s), b)| (4.0 * x - s - b).abs());
    residuals.fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use t_series_core::{Machine, MachineCfg};

    fn check(dim: u32, g: usize) -> (usize, KernelStats) {
        let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
        let (b, x, iters, stats) = distributed_cg(&mut m, g, 1e-10, 77);
        let half = dim / 2;
        let (sx, sy) = (1usize << half, 1usize << (dim - half));
        let res = cg_residual(sx * g, sy * g, &x, &b);
        assert!(res < 1e-8, "CG residual {res} (dim {dim}, g {g})");
        (iters, stats)
    }

    #[test]
    fn cg_single_node() {
        let (iters, stats) = check(0, 8);
        assert!(iters > 0 && iters <= 64 * 2);
        assert!(stats.flops > 0);
    }

    #[test]
    fn cg_on_a_square() {
        let (_, stats) = check(2, 4);
        assert!(stats.bytes_sent > 0, "halos and all-reduces use the links");
    }

    #[test]
    fn cg_on_an_8_node_machine() {
        check(3, 4);
    }

    #[test]
    fn iteration_timing_is_pinned() {
        // Halos, all-reduces and vector forms, to the picosecond: g = 8
        // tiles, seed 42, on a square and on a 4-cube, with the
        // simulator's timer events per machine.
        for (dim, iters, ps, events) in [
            (2u32, 62, 20_567_325_000u64, 5_236u64),
            (4, 125, 52_991_375_000, 70_208),
        ] {
            let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
            let (_, _, got, stats) = distributed_cg(&mut m, 8, 1e-10, 42);
            assert_eq!(got, iters, "dim {dim}");
            assert_eq!(stats.elapsed.as_ps(), ps, "dim {dim}");
            assert_eq!(m.profile().timer_events, events, "dim {dim}");
        }
    }

    #[test]
    fn cg_converges_in_at_most_n_iterations() {
        // Exact arithmetic would finish in ≤ n steps; floating point with
        // a tight tolerance stays in the same ballpark for this SPD system.
        let mut m = Machine::build(MachineCfg::cube_small_mem(0, 8));
        let (_, _, iters, _) = distributed_cg(&mut m, 4, 1e-12, 3);
        assert!(iters <= 2 * 16, "iters = {iters}");
    }
}
