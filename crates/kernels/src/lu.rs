//! Distributed LU factorization with partial pivoting — the kernel that
//! exercises every §II mechanism at once, against **real node memory**:
//!
//! * matrix rows live in memory rows (one 128-element row each, bank B);
//! * column access is strided, so the pivot-search column is **gathered**
//!   by the control processor at 1.6 µs/element (the paper's number);
//! * the local pivot candidate comes from the `AbsMax` **vector form**;
//! * the global pivot is agreed by an all-gather (the cube collective);
//! * the trailing columns of the pivot row are **broadcast** in stripes
//!   down rotated binomial trees, one stripe per link
//!   (`collectives::broadcast_striped`);
//! * the division by the pivot has no divider to use, so it runs the
//!   Newton–Raphson **software reciprocal** (`ts_fpu::softdiv`);
//! * elimination is one chained **SAXPY vector form per row**
//!   (`A[i,:] −= f · pivot_row`), streaming bank A (scratch) against
//!   bank B (matrix) at the full dual-bank rate.
//!
//! Rows are distributed cyclically (global row g on node g mod p) and
//! pivoting is implicit (a shared permutation): no row ever moves, within
//! a node or between nodes. (Experiment E15 measures what an explicit swap
//! would cost, row moves against element-wise.)

use ts_cube::Hypercube;
use ts_fpu::{softdiv, Sf64};
use ts_mem::ROW_WORDS;
use ts_node::NodeCtx;
use ts_vec::VecForm;

use crate::{rand_f64, run_spmd, KernelStats};

/// Where a node keeps things in its memory: scratch rows in bank A
/// (so SAXPY streams cross-bank), matrix rows from the start of bank B.
pub struct LuLayout {
    /// First memory row of the local matrix block (bank B).
    pub matrix_base: usize,
    /// Scratch row for the broadcast pivot row (bank A).
    pub pivot_row: usize,
    /// Scratch row for the gathered pivot-search column (bank A).
    pub column_row: usize,
}

impl LuLayout {
    /// Layout for a node whose memory has its bank split at `rows_a`.
    pub fn new(rows_a: usize) -> LuLayout {
        LuLayout {
            matrix_base: rows_a,
            pivot_row: 0,
            column_row: 1,
        }
    }
}

/// The per-node LU program. `n` is the (global) matrix order; rows are
/// stored one per memory row, so `n ≤ 128`. Returns the permutation
/// `perm[k] = global row chosen as pivot k` (identical on every node).
pub async fn lu_node(ctx: NodeCtx, cube: Hypercube, n: usize) -> Vec<usize> {
    let p = cube.nodes() as usize;
    let me = ctx.id() as usize;
    let layout = LuLayout::new(ctx.mem().cfg().rows_a());
    let local_rows = n.div_ceil(p);
    let mut perm = Vec::with_capacity(n);
    // Which of my local rows are still unpivoted, by global index.
    let mut free: Vec<usize> = (0..local_rows)
        .map(|l| l * p + me)
        .filter(|&g| g < n)
        .collect();

    for k in 0..n {
        // --- local pivot candidate: gather column k of my free rows, then
        // AbsMax over the gathered vector ----------------------------------
        let (local_val, local_row) = if free.is_empty() {
            (0.0f64, usize::MAX)
        } else {
            let srcs: Vec<usize> = free
                .iter()
                .map(|&g| {
                    let l = g / p;
                    (layout.matrix_base + l) * ROW_WORDS + 2 * k
                })
                .collect();
            ctx.gather64(&srcs, layout.column_row * ROW_WORDS)
                .await
                .unwrap();
            let r = ctx
                .vec(
                    VecForm::AbsMax,
                    layout.column_row,
                    layout.column_row,
                    0,
                    free.len(),
                )
                .await
                .unwrap();
            let idx = r.index.unwrap();
            (f64::from_bits(r.scalar.unwrap()), free[idx])
        };

        // --- agree on the global pivot (all-gather of candidates) ---------
        let mine = vec![
            local_val.to_bits() as u32,
            (local_val.to_bits() >> 32) as u32,
            local_row as u32,
        ];
        let all = t_series_core::collectives::allgather(&ctx, cube, mine).await;
        let (mut best_val, mut best_row) = (-1.0f64, usize::MAX);
        for (_, words) in &all {
            let v = f64::from_bits(words[0] as u64 | ((words[1] as u64) << 32));
            let r = words[2] as usize;
            if r != usize::MAX as u32 as usize && (v > best_val || (v == best_val && r < best_row))
            {
                best_val = v;
                best_row = r;
            }
        }
        perm.push(best_row);
        let owner = (best_row % p) as u32;

        // --- broadcast the pivot row -------------------------------------
        // Only columns k.. travel: the elimination masks the rest to zero.
        let pivot_words: Option<Vec<u32>> = if me == owner as usize {
            let l = best_row / p;
            let mem = ctx.mem();
            let base = (layout.matrix_base + l) * ROW_WORDS;
            Some(
                (2 * k..2 * n)
                    .map(|i| mem.read_word(base + i).unwrap())
                    .collect(),
            )
        } else {
            None
        };
        let pivot =
            t_series_core::collectives::broadcast_striped(&ctx, cube, owner, pivot_words).await;
        // pivot_f[j − k] is column j of the pivot row.
        let pivot_f: Vec<Sf64> = pivot
            .chunks_exact(2)
            .map(|c| Sf64::from_bits(c[0] as u64 | ((c[1] as u64) << 32)))
            .collect();
        // Software reciprocal of the pivot element (no divider!).
        let pivot_recip = softdiv::recip(pivot_f[0]);
        ctx.charge_vec_flops(softdiv::RECIP_FLOPS).await;

        // Owner retires the pivot row from its free set.
        if me == owner as usize {
            free.retain(|&g| g != best_row);
        }
        if free.is_empty() {
            continue;
        }

        // --- write the masked pivot row into bank-A scratch ---------------
        // Columns ≤ k are zeroed so a full-row SAXPY leaves the already-
        // factored part (and the stored multipliers) untouched.
        {
            let mut mem = ctx.mem_mut();
            let base = layout.pivot_row * ROW_WORDS;
            for j in 0..n {
                let v = if j > k { pivot_f[j - k] } else { Sf64::ZERO };
                mem.write_f64(base + 2 * j, v).unwrap();
            }
        }
        // Masking is a control-processor pass over the row.
        ctx.cp_compute(n as u64).await;

        // --- eliminate every free local row -------------------------------
        for &g in &free.clone() {
            let l = g / p;
            let row = layout.matrix_base + l;
            let aik = ctx.mem().read_f64(row * ROW_WORDS + 2 * k).unwrap();
            // Multiplier f = a[i][k] · (1 / pivot).
            let f = aik * pivot_recip;
            // The multiplier's flop and the SAXPY are two vector forms with
            // no other unit between them: a chain. The SAXPY queues behind
            // the flop, so awaiting the SAXPY awaits both.
            let _ = ctx.issue_vec_flops(1);
            // A[i, k+1..] −= f · pivot_row  (full-row chained SAXPY).
            ctx.vec(VecForm::Saxpy(-f), layout.pivot_row, row, row, n)
                .await
                .unwrap();
            // Store the multiplier where the zero just appeared (L factor).
            ctx.mem_mut().write_f64(row * ROW_WORDS + 2 * k, f).unwrap();
            ctx.cp_compute(4).await;
        }
    }
    perm
}

/// The per-node triangular-solve program (`Ly = Pb`, then `Ux = y`),
/// run after [`lu_node`] with the same storage. All nodes receive the
/// replicated pivot permutation and right-hand side; every node returns
/// the full solution vector (replicated, like the paper's homogeneous
/// programs would keep it).
///
/// Each step has a true sequential dependency — y\[k\] needs y\[0..k\] — so
/// the solve is latency-bound: one small broadcast per row, the classic
/// reason triangular solves scale poorly on message-passing machines.
pub async fn solve_node(
    ctx: NodeCtx,
    cube: Hypercube,
    n: usize,
    perm: Vec<usize>,
    b: Vec<f64>,
) -> Vec<f64> {
    let p = cube.nodes() as usize;
    let me = ctx.id() as usize;
    let layout = LuLayout::new(ctx.mem().cfg().rows_a());
    let read_row_vals = |g: usize, lo: usize, hi: usize| -> Vec<Sf64> {
        let l = g / p;
        let base = (layout.matrix_base + l) * ROW_WORDS;
        let mem = ctx.mem();
        (lo..hi)
            .map(|j| mem.read_f64(base + 2 * j).unwrap())
            .collect()
    };

    // Forward substitution: y[k] = (Pb)[k] − L[k, 0..k] · y[0..k].
    let mut y: Vec<Sf64> = Vec::with_capacity(n);
    for (k, &g) in perm.iter().enumerate() {
        let owner = (g % p) as u32;
        let val = if me == owner as usize {
            let lrow = read_row_vals(g, 0, k);
            let dot = ctx.dot_values(&lrow, &y[..k]).await;
            let v = Sf64::from(b[g]) - dot;
            Some(vec![v.to_bits() as u32, (v.to_bits() >> 32) as u32])
        } else {
            None
        };
        let words = t_series_core::collectives::broadcast(&ctx, cube, owner, val).await;
        y.push(Sf64::from_bits(words[0] as u64 | ((words[1] as u64) << 32)));
    }

    // Back substitution: x[k] = (y[k] − U[k, k+1..] · x[k+1..]) / U[k][k].
    let mut x = vec![Sf64::ZERO; n];
    for k in (0..n).rev() {
        let g = perm[k];
        let owner = (g % p) as u32;
        let val = if me == owner as usize {
            let urow = read_row_vals(g, k, n);
            let dot = ctx.dot_values(&urow[1..], &x[k + 1..]).await;
            let recip = softdiv::recip(urow[0]);
            ctx.charge_vec_flops(softdiv::RECIP_FLOPS + 2).await;
            let v = (y[k] - dot) * recip;
            Some(vec![v.to_bits() as u32, (v.to_bits() >> 32) as u32])
        } else {
            None
        };
        let words = t_series_core::collectives::broadcast(&ctx, cube, owner, val).await;
        x[k] = Sf64::from_bits(words[0] as u64 | ((words[1] as u64) << 32));
    }
    x.into_iter().map(|v| v.to_host()).collect()
}

/// Host driver: factor **and solve** `A x = b` end to end; returns
/// `(A, b, x, stats)` with the stats covering the whole run.
pub fn distributed_solve(
    machine: &mut t_series_core::Machine,
    n: usize,
    seed: u64,
) -> (Vec<f64>, Vec<f64>, Vec<f64>, KernelStats) {
    let mark = KernelStats::mark(machine);
    let (a, perm, _lu, _) = distributed_lu(machine, n, seed);
    let mut st = seed ^ 0xb0b;
    let b: Vec<f64> = (0..n).map(|_| rand_f64(&mut st)).collect();
    let cube = machine.cube;
    let (xs, _) = run_spmd(machine, "solve", |ctx| {
        solve_node(ctx, cube, n, perm.clone(), b.clone())
    });
    for x in &xs[1..] {
        assert_eq!(x, &xs[0], "nodes disagree on the solution");
    }
    let stats = KernelStats::since(machine, mark);
    (a, b, xs[0].clone(), stats)
}

/// Max-norm residual `|A·x − b|` for verification.
pub fn residual(n: usize, a: &[f64], x: &[f64], b: &[f64]) -> f64 {
    (0..n)
        .map(|i| {
            let ax: f64 = (0..n).map(|j| a[i * n + j] * x[j]).sum();
            (ax - b[i]).abs()
        })
        .fold(0.0, f64::max)
}

/// Host driver: factor a random `n×n` matrix on `machine`; returns
/// `(original A, perm, combined LU rows, stats)`.
pub fn distributed_lu(
    machine: &mut t_series_core::Machine,
    n: usize,
    seed: u64,
) -> (Vec<f64>, Vec<usize>, Vec<f64>, KernelStats) {
    let cube = machine.cube;
    let p = cube.nodes() as usize;
    assert!(n <= 128, "one matrix row per 128-element memory row");
    let mut st = seed;
    let a: Vec<f64> = (0..n * n).map(|_| rand_f64(&mut st) + 0.1).collect();

    // Load rows into node memories (cyclic by global row).
    for g in 0..n {
        let node = &machine.nodes[g % p];
        let layout = LuLayout::new(node.mem().cfg().rows_a());
        let l = g / p;
        let mut mem = node.mem_mut();
        let base = (layout.matrix_base + l) * ROW_WORDS;
        for j in 0..n {
            mem.write_f64(base + 2 * j, Sf64::from(a[g * n + j]))
                .unwrap();
        }
    }

    let (perms, stats) = run_spmd(machine, "LU", |ctx| lu_node(ctx, cube, n));
    for p2 in &perms[1..] {
        assert_eq!(p2, &perms[0], "nodes disagree on the pivot permutation");
    }
    // Collect the factored rows back out (still in original row slots).
    let mut lu = vec![0.0f64; n * n];
    for g in 0..n {
        let node = &machine.nodes[g % p];
        let layout = LuLayout::new(node.mem().cfg().rows_a());
        let l = g / p;
        let mem = node.mem();
        let base = (layout.matrix_base + l) * ROW_WORDS;
        for j in 0..n {
            lu[g * n + j] = mem.read_f64(base + 2 * j).unwrap().to_host();
        }
    }
    (a, perms[0].clone(), lu, stats)
}

/// Verify `P·A = L·U`: reconstruct A from the factored rows and the
/// permutation; returns the max absolute error.
pub fn reconstruction_error(n: usize, a: &[f64], perm: &[usize], lu: &[f64]) -> f64 {
    // Row `perm[k]` of the factored storage holds U[k,·] right of the
    // diagonal and the multipliers L[·,k] below it, scattered by perm.
    // Build explicit L and U in pivot order.
    let pos: Vec<usize> = {
        let mut pos = vec![0; n];
        for (k, &g) in perm.iter().enumerate() {
            pos[g] = k;
        }
        pos
    };
    // Columns are eliminated in natural order (column k at step k), so the
    // row chosen at step k holds multipliers L[k][0..k] in its first k
    // columns and U[k][k..] from the diagonal on.
    let mut l = vec![0.0; n * n];
    let mut u = vec![0.0; n * n];
    for g in 0..n {
        let k = pos[g];
        for j in 0..k {
            l[k * n + j] = lu[g * n + j];
        }
        l[k * n + k] = 1.0;
        for j in k..n {
            u[k * n + j] = lu[g * n + j];
        }
    }
    let mut max_err = 0.0f64;
    for k in 0..n {
        let g = perm[k]; // original row index
        for j in 0..n {
            let mut s = 0.0;
            for t in 0..=k.min(j) {
                s += l[k * n + t] * u[t * n + j];
            }
            let err = (s - a[g * n + j]).abs();
            if err > max_err {
                max_err = err;
            }
        }
    }
    max_err
}

#[cfg(test)]
mod tests {
    use super::*;
    use t_series_core::{Machine, MachineCfg};

    fn check(dim: u32, n: usize) -> KernelStats {
        let mut m = Machine::build(MachineCfg::cube(dim));
        let (a, perm, lu, stats) = distributed_lu(&mut m, n, 3);
        // Permutation is a permutation.
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        let err = reconstruction_error(n, &a, &perm, &lu);
        assert!(err < 1e-10, "reconstruction error {err} (dim {dim}, n {n})");
        stats
    }

    #[test]
    fn lu_single_node() {
        let stats = check(0, 8);
        assert!(stats.flops > 0);
    }

    #[test]
    fn lu_on_a_square() {
        let stats = check(2, 16);
        assert!(stats.bytes_sent > 0);
    }

    #[test]
    fn pivot_search_gathers_and_no_row_moves() {
        let n = 16;
        let mut m = Machine::build(MachineCfg::cube(2));
        distributed_lu(&mut m, n, 3);
        // Step k gathers column k of the n − k rows still free (the
        // 1.6 µs/element path); pivoting is a permutation, not a swap.
        let total = |f: fn(&ts_node::NodeMeters) -> u64| -> u64 {
            m.nodes.iter().map(|node| f(node.meters())).sum()
        };
        assert_eq!(total(|mt| mt.cp_gathered.get()), (n * (n + 1) / 2) as u64);
        assert_eq!(total(|mt| mt.rows_moved.get()), 0);
    }

    #[test]
    fn lu_larger() {
        check(2, 32);
    }

    #[test]
    fn solve_has_small_residual() {
        for dim in [0u32, 2] {
            let mut m = Machine::build(MachineCfg::cube(dim));
            let (a, b, x, stats) = distributed_solve(&mut m, 24, 8);
            let r = residual(24, &a, &x, &b);
            assert!(r < 1e-8, "residual {r} on {dim}-cube");
            assert!(stats.flops > 0);
        }
    }

    #[test]
    fn pivoting_actually_pivots() {
        // A matrix with a tiny leading element forces a row interchange.
        let mut m = Machine::build(MachineCfg::cube(0));
        let n = 4;
        let special = [
            1e-12, 1.0, 0.0, 0.0, //
            1.0, 1.0, 1.0, 1.0, //
            0.0, 1.0, 2.0, 1.0, //
            0.0, 0.0, 1.0, 3.0,
        ];
        let node = &m.nodes[0];
        let layout = LuLayout::new(node.mem().cfg().rows_a());
        for g in 0..n {
            let mut mem = node.mem_mut();
            for j in 0..n {
                mem.write_f64(
                    (layout.matrix_base + g) * ROW_WORDS + 2 * j,
                    Sf64::from(special[g * n + j]),
                )
                .unwrap();
            }
        }
        let cube = m.cube;
        let ctx = m.nodes[0].ctx();
        let jh = m.launch_on(0, lu_node(ctx, cube, n));
        assert!(m.run().quiescent);
        let perm = jh.try_take().unwrap();
        assert_ne!(perm[0], 0, "the tiny leading element must not be the pivot");
    }
}
