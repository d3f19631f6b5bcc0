//! Distributed LU factorization with partial pivoting — the kernel that
//! exercises every §II mechanism at once, against **real node memory**:
//!
//! * matrix rows live in memory rows (one 128-element row each, bank B);
//! * column access is strided, so the pivot-search column is **gathered**
//!   by the control processor at 1.6 µs/element (the paper's number);
//! * the local pivot candidate comes from the `AbsMax` **vector form**;
//! * the global pivot is agreed by a **max-loc vote**, a dimension exchange
//!   of 3 words per link (the candidate's |v| and its row);
//! * the trailing columns of the pivot row are **broadcast** down the n
//!   edge-disjoint spanning binomial trees, one stripe per tree, each
//!   stripe streamed in pieces (`collectives::broadcast_striped`);
//! * the division by the pivot has no divider to use, so it runs the
//!   Newton–Raphson **software reciprocal** (`ts_fpu::softdiv`);
//! * elimination is one **SAXPY vector form per row**
//!   (`A[i,:] −= f · pivot_row`), streaming bank A (scratch) against
//!   bank B (matrix) at the full dual-bank rate, issued by the control
//!   processor, which stores the multipliers while the forms run.
//!
//! Rows are distributed cyclically (global row g on node g mod p) and
//! pivoting is implicit (a shared permutation): no row ever moves, within
//! a node or between nodes. (Experiment E15 measures what an explicit swap
//! would cost, row moves against element-wise.)

use ts_cube::Hypercube;
use ts_fpu::{softdiv, Sf64};
use ts_mem::{join, split, ROW_WORDS};
use ts_node::{f64s_of, NodeCtx};
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
        let candidate = if free.is_empty() {
            (0.0f64, NO_ROW)
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
            (f64::from_bits(r.scalar.unwrap()), free[idx] as u32)
        };

        // --- agree on the global pivot (max-loc by dimension exchange) ----
        let best_row = pivot_vote(&ctx, cube, candidate).await.1 as usize;
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
        let pivot = t_series_core::collectives::broadcast_striped(
            &ctx,
            cube,
            owner,
            2 * (n - k),
            pivot_words,
        )
        .await;
        // pivot_f[j − k] is column j of the pivot row.
        let pivot_f: Vec<Sf64> = f64s_of(&pivot).collect();
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
        // Per row the control processor issues the multiplier's flop and the
        // SAXPY, stores the multiplier and carries on while the vector unit
        // runs them ("the complete arithmetic unit operates in parallel with
        // the node control processor"): the next row's forms queue behind
        // this row's, and the step waits once, for the last SAXPY.
        let mut done = ctx.now();
        for &g in &free {
            let row = layout.matrix_base + g / p;
            let aik = ctx.mem().read_f64(row * ROW_WORDS + 2 * k).unwrap();
            // Multiplier f = a[i][k] · (1 / pivot).
            let f = aik * pivot_recip;
            let _ = ctx.issue_vec_flops(1);
            // A[i, k+1..] −= f · pivot_row  (full-row chained SAXPY).
            (_, done) = ctx
                .issue_vec(VecForm::Saxpy(-f), layout.pivot_row, row, row, n)
                .unwrap();
            // Store the multiplier where the zero just appeared (L factor).
            ctx.mem_mut().write_f64(row * ROW_WORDS + 2 * k, f).unwrap();
            ctx.cp_compute(4).await;
        }
        ctx.wait(done).await;
    }
    perm
}

/// The row a node with no free rows offers to the pivot vote, with |v| = 0.
const NO_ROW: u32 = u32::MAX;

/// Does pivot candidate `a` beat `b`? The larger |v| wins, then the lower
/// row — the order a one-node `AbsMax` scan decides by. |v| is never
/// negative or NaN and rows are distinct, so this is a total order on one
/// step's candidates (both ends of an exchange keep the same one), and the
/// no-candidate offer `(0, NO_ROW)` comes last in it.
fn beats((v, row): (f64, u32), (best_v, best_row): (f64, u32)) -> bool {
    v > best_v || (v == best_v && row < best_row)
}

/// Agree on the global pivot: a dimension-exchange max-loc of this node's
/// candidate `(|v|, row)`, 3 words per dimension (the value's two halves
/// and the row), `n·(o + 3w)` on an n-cube ([`NetModel::max_loc`]). Every
/// node returns the winner under [`beats`].
///
/// [`NetModel::max_loc`]: t_series_core::model::NetModel::max_loc
async fn pivot_vote(ctx: &NodeCtx, cube: Hypercube, mut best: (f64, u32)) -> (f64, u32) {
    for d in 0..cube.dim() as usize {
        let [lo, hi] = split(best.0.to_bits());
        let theirs = ctx.exchange(d, vec![lo, hi, best.1], d).await;
        let other = (f64::from_bits(join(&theirs)), theirs[2]);
        if beats(other, best) {
            best = other;
        }
    }
    best
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
            Some(split(v.to_bits()).to_vec())
        } else {
            None
        };
        let words = t_series_core::collectives::broadcast(&ctx, cube, owner, val).await;
        y.push(Sf64::from_bits(join(&words)));
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
            Some(split(v.to_bits()).to_vec())
        } else {
            None
        };
        let words = t_series_core::collectives::broadcast(&ctx, cube, owner, val).await;
        x[k] = Sf64::from_bits(join(&words));
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
    let mut st = seed;
    let a: Vec<f64> = (0..n * n).map(|_| rand_f64(&mut st) + 0.1).collect();
    let (perm, lu, stats) = factor(machine, n, &a);
    (a, perm, lu, stats)
}

/// Factor the row-major `n×n` matrix `a` on `machine`; returns `(perm,
/// combined LU rows, stats)`.
fn factor(
    machine: &mut t_series_core::Machine,
    n: usize,
    a: &[f64],
) -> (Vec<usize>, Vec<f64>, KernelStats) {
    let cube = machine.cube;
    let p = cube.nodes() as usize;
    assert!(n <= 128, "one matrix row per 128-element memory row");

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

    let (mut perms, stats) = run_spmd(machine, "LU", |ctx| lu_node(ctx, cube, n));
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
    (perms.swap_remove(0), lu, stats)
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
    use t_series_core::model::NetModel;
    use t_series_core::{Machine, MachineCfg};
    use ts_sim::Time;

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
        let (perm, _, _) = factor(&mut m, n, &special);
        assert_ne!(perm[0], 0, "the tiny leading element must not be the pivot");
    }

    /// An integer-valued matrix of 2×2 diagonal blocks `[2 1; −2 1]` with
    /// integers right of them: at step 2i rows 2i and 2i + 1 — on two nodes
    /// of any cube — tie at |v| = 2, every other free row offers 0, and the
    /// lower row must win.
    fn tied(n: usize) -> Vec<f64> {
        let mut a = vec![0.0; n * n];
        for i in 0..n / 2 {
            let (r, s) = (2 * i * n, (2 * i + 1) * n);
            a[r + 2 * i..r + 2 * i + 2].copy_from_slice(&[2.0, 1.0]);
            a[s + 2 * i..s + 2 * i + 2].copy_from_slice(&[-2.0, 1.0]);
            for j in 2 * i + 2..n {
                a[r + j] = ((i + j) % 5) as f64 - 2.0;
                a[s + j] = ((3 * i + j) % 7) as f64 - 3.0;
            }
        }
        a
    }

    #[test]
    fn placement_on_any_cube_is_one_node_bit_for_bit() {
        // Rows sit on node g mod p and the pivot is agreed by vote; every
        // pivot choice and every SAXPY is the one-node run's, so the
        // permutation and every bit of the factors are too.
        let run = |dim: u32, n: usize, a: &[f64]| {
            let (perm, lu, _) = factor(&mut Machine::build(MachineCfg::cube(dim)), n, a);
            (perm, lu.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        let mut cases: Vec<(usize, Vec<f64>)> = [16usize, 32, 64]
            .into_iter()
            .map(|n| {
                let mut st = n as u64;
                (n, (0..n * n).map(|_| rand_f64(&mut st) + 0.1).collect())
            })
            .collect();
        cases.push((16, tied(16)));
        for (n, a) in &cases {
            let one = run(0, *n, a);
            for dim in [2u32, 4] {
                assert_eq!(run(dim, *n, a), one, "dim {dim}, n {n}");
            }
        }
        // The tie rule itself, independently of the one-node run.
        let (perm, lu, _) = factor(&mut Machine::build(MachineCfg::cube(2)), 16, &tied(16));
        assert_eq!(perm, (0..16).collect::<Vec<_>>(), "lower row wins a tie");
        assert!(reconstruction_error(16, &tied(16), &perm, &lu) < 1e-12);
    }

    #[test]
    fn pivot_vote_costs_the_max_loc_model() {
        // The vote alone, on every cube to a cabinet: each node offers a
        // candidate (ties, and a node with none, included), every node
        // ends with the one `beats` ranks first, in n·(o + 3w).
        let net = NetModel::default();
        for dim in 1..=4u32 {
            let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
            let cube = m.cube;
            let offer = |id: u32| match id {
                0 => (0.0, NO_ROW),
                _ => ((id % 3) as f64, 100 - id),
            };
            let handles =
                m.launch(move |ctx| async move { pivot_vote(&ctx, cube, offer(ctx.id())).await });
            assert!(m.run().quiescent);
            let want = (0..cube.nodes())
                .map(offer)
                .reduce(|best, c| if beats(c, best) { c } else { best })
                .unwrap();
            for h in handles {
                assert_eq!(h.try_take().unwrap(), want, "dim {dim}");
            }
            let (got, model) = (m.now().since(Time::ZERO), net.max_loc(dim));
            let (g, w) = (got.as_secs_f64(), model.as_secs_f64());
            assert!(
                (g - w).abs() <= 0.05 * w,
                "dim {dim}: vote {got}, model {model}"
            );
        }
    }
}
