//! Distributed LU factorization with partial pivoting — the kernel that
//! exercises every §II mechanism at once, against **real node memory**:
//!
//! * the matrix lies cyclically on a 2-D **process grid** of subcubes
//!   (`Grid`): a node holds its process row's rows and its process
//!   column's columns, one local row per memory row (bank B);
//! * column access is strided, so the pivot-search column is **gathered**
//!   by the control processor at 1.6 µs/element (the paper's number);
//! * the local pivot candidate comes from the `AbsMax` **vector form**;
//! * the global pivot is agreed by a **max-loc vote** down the one process
//!   column that holds the pivot column, a dimension exchange of 3 words
//!   per link (the candidate's signed value and its row);
//! * the division by the pivot has no divider to use, so that column runs
//!   the Newton–Raphson **software reciprocal** (`ts_fpu::softdiv`) and
//!   forms the multipliers at once;
//! * the multipliers stream along the process rows while the pivot row's
//!   trailing columns stream down the process columns: two **striped
//!   broadcasts** (`collectives::broadcast_striped`) on disjoint links;
//! * elimination is one **SAXPY vector form per row**
//!   (`A[i,:] −= f · pivot_row`), streaming bank A (scratch) against
//!   bank B (matrix) at the full dual-bank rate, issued by the control
//!   processor, which stores the multipliers while the forms run.
//!
//! Pivoting is implicit (a shared permutation): no row ever moves, within
//! a node or between nodes. (Experiment E15 measures what an explicit swap
//! would cost, row moves against element-wise.)

use t_series_core::collectives::{broadcast, broadcast_striped};
use ts_cube::Hypercube;
use ts_fpu::{softdiv, Sf64};
use ts_mem::{join, split, ROW_WORDS};
use ts_node::{f64s_of, occam, NodeCtx};
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

/// LU's process grid on an n-cube, cyclic with block size 1: `pr =
/// 2^⌊n/2⌋` process rows by `pc = 2^⌈n/2⌉` process columns. Node `r·pc + c`
/// holds the rows `g ≡ r (mod pr)` and the columns `j ≡ c (mod pc)`, so the
/// low `dc` dimensions run along a process row and the other `dr` down a
/// process column.
#[derive(Clone, Copy)]
struct Grid {
    dr: u32,
    dc: u32,
    pr: usize,
    pc: usize,
}

impl Grid {
    fn new(cube: Hypercube) -> Grid {
        let (dr, dc) = (cube.dim() / 2, cube.dim().div_ceil(2));
        let (pr, pc) = (1 << dr, 1 << dc);
        Grid { dr, dc, pr, pc }
    }

    /// The node holding element `(g, j)`.
    fn node(self, g: usize, j: usize) -> usize {
        g % self.pr * self.pc + j % self.pc
    }

    /// The word of element `(g, j)` in its node's memory: local column
    /// `j / pc` of local row `g / pr`, which is memory row `matrix_base + g / pr`.
    fn word(self, layout: &LuLayout, g: usize, j: usize) -> usize {
        (layout.matrix_base + g / self.pr) * ROW_WORDS + 2 * (j / self.pc)
    }
}

/// One node's LU program: its place on the grid and in memory.
struct LuNode {
    ctx: NodeCtx,
    grid: Grid,
    layout: LuLayout,
    /// Process row and column.
    r: usize,
    c: usize,
    /// The process row (virtual id c) and the process column (virtual id
    /// r), each as a subcube view and its cube.
    along: (NodeCtx, Hypercube),
    down: (NodeCtx, Hypercube),
    /// Local columns: the length of every SAXPY.
    cols: usize,
}

impl LuNode {
    fn new(ctx: NodeCtx, cube: Hypercube, n: usize) -> LuNode {
        let grid = Grid::new(cube);
        let (id, dc) = (ctx.id() as usize, grid.dc as usize);
        let (r, c) = (id >> dc, id & (grid.pc - 1));
        let along = ctx.subcube_view(c as u32, (0..dc).collect());
        let down = ctx.subcube_view(r as u32, (dc..cube.dim() as usize).collect());
        let layout = LuLayout::new(ctx.mem().cfg().rows_a());
        LuNode {
            layout,
            cols: (c..n).step_by(grid.pc).len(),
            along: (along, Hypercube::new(grid.dc)),
            down: (down, Hypercube::new(grid.dr)),
            ctx,
            grid,
            r,
            c,
        }
    }

    /// Step `k`'s pivot candidate `(v, row)` on the process column holding
    /// column k: gather column k of the free rows, then `AbsMax` over the
    /// gathered vector. `None` on every other process column.
    async fn candidate(&self, k: usize, free: &[usize]) -> Option<(f64, u32)> {
        if k % self.grid.pc != self.c || free.is_empty() {
            return (k % self.grid.pc == self.c).then_some((0.0, NO_ROW));
        }
        let (ctx, col) = (&self.ctx, self.layout.column_row);
        let word = |&g: &usize| self.grid.word(&self.layout, g, k);
        let srcs: Vec<usize> = free.iter().map(word).collect();
        ctx.gather64(&srcs, col * ROW_WORDS).await.unwrap();
        let max = ctx.vec(VecForm::AbsMax, col, col, 0, free.len()).await;
        let idx = max.unwrap().index.unwrap();
        // The signed value: the multipliers need not wait for the pivot row.
        let v = ctx.mem().read_u64(col * ROW_WORDS + 2 * idx).unwrap();
        Some((f64::from_bits(v), free[idx] as u32))
    }

    /// Step `k`'s communication from the candidates on: the vote down the
    /// pivot column, the pivot's row along the process rows, then the free
    /// rows' multipliers along them ‖ the pivot row's trailing columns down
    /// the process columns. Retires the pivot from `free` and returns all three.
    async fn trade(
        &self,
        k: usize,
        candidate: Option<(f64, u32)>,
        free: &mut Vec<usize>,
    ) -> (usize, Vec<u32>, Vec<u32>) {
        let (ctx, grid, cc) = (&self.ctx, self.grid, k % self.grid.pc);
        let pivot = match candidate {
            Some(mine) => Some(pivot_vote(&self.down.0, self.down.1, mine).await),
            None => None,
        };
        let index = pivot.map(|(_, row)| vec![row]);
        let best_row = broadcast(&self.along.0, self.along.1, cc as u32, index).await[0] as usize;
        let root_row = best_row % grid.pr;
        if self.r == root_row {
            free.retain(|&g| g != best_row);
        }
        let recip = pivot.map(|(v, _)| softdiv::recip(Sf64::from_bits(v.to_bits())));
        let multipliers = recip.map(|recip| {
            let mem = ctx.mem();
            let f = |&g: &usize| mem.read_f64(grid.word(&self.layout, g, k)).unwrap() * recip;
            free.iter().flat_map(|g| split(f(g).to_bits())).collect()
        });
        if let Some(recip) = recip {
            // The reciprocal's dependent chain, one element a form, then the
            // free rows' multipliers in one form.
            let chain = ctx.issue_forms(&VecForm::RECIP, 1);
            ctx.wait(chain.max(ctx.issue_forms(&[VecForm::VSMul(recip)], free.len())))
                .await;
        }
        // Columns j > k: local columns `first..cols`.
        let first = (k + grid.pc - self.c) / grid.pc;
        let trailing = (self.r == root_row).then(|| {
            let (mem, base) = (ctx.mem(), grid.word(&self.layout, best_row, 0));
            let words = base + 2 * first..base + 2 * self.cols;
            words.map(|a| mem.read_word(a).unwrap()).collect()
        });
        let (rows, cols) = (2 * free.len(), 2 * (self.cols - first));
        let l = broadcast_striped(&self.along.0, self.along.1, cc as u32, rows, multipliers);
        let u = broadcast_striped(&self.down.0, self.down.1, root_row as u32, cols, trailing);
        let (l, u) = occam::par2(ctx.handle(), l, u).await;
        (best_row, l, u)
    }

    /// Step `k`'s elimination with multipliers `l` and the pivot row's
    /// trailing columns `u`: one SAXPY per free row over the whole local row,
    /// the pivot row masked to zero in columns ≤ k. A shorter form would zero
    /// the rest of its row (`VecUnit::exec64`), factors and all.
    async fn eliminate(&self, k: usize, free: &[usize], l: &[u32], u: &[u32]) {
        let (ctx, grid, layout) = (&self.ctx, self.grid, &self.layout);
        if free.is_empty() || self.cols == 0 {
            return;
        }
        let zeros = std::iter::repeat_n(Sf64::ZERO, self.cols - u.len() / 2);
        for (m, v) in zeros.chain(f64s_of(u)).enumerate() {
            let word = layout.pivot_row * ROW_WORDS + 2 * m;
            ctx.mem_mut().write_f64(word, v).unwrap();
        }
        // Masking is a control-processor pass over the row.
        let mut cp = ctx.issue_cp(self.cols as u64);

        // Per row the control processor issues the SAXPY, stores the
        // multiplier (on the pivot column) and carries on while the vector
        // unit runs it ("the complete arithmetic unit operates in parallel
        // with the node control processor"). Its work is booked, not slept
        // on: each form is issued at the instant the CP reaches it, and the
        // step waits once, for the later of the last SAXPY and CP charge.
        let (mut done, pivot, cols) = (cp, layout.pivot_row, self.cols);
        for (&g, f) in free.iter().zip(f64s_of(l)) {
            let row = layout.matrix_base + g / grid.pr;
            // A[i, k+1..] −= f · pivot_row  (full-row chained SAXPY).
            (_, done) = ctx
                .issue_vec_at(cp, VecForm::Saxpy(-f), pivot, row, row, cols)
                .unwrap();
            // Store the multiplier where the zero just appeared (L factor).
            if k % grid.pc == self.c {
                ctx.mem_mut().write_f64(grid.word(layout, g, k), f).unwrap();
            }
            cp = ctx.issue_cp(4);
        }
        ctx.wait(done.max(cp)).await;
    }
}

/// The per-node LU program. `n` is the (global) matrix order; a node's
/// columns fit one memory row. Returns the permutation
/// `perm[k] = global row chosen as pivot k` (identical on every node).
pub async fn lu_node(ctx: NodeCtx, cube: Hypercube, n: usize) -> Vec<usize> {
    let node = LuNode::new(ctx, cube, n);
    let mut free: Vec<usize> = (node.r..n).step_by(node.grid.pr).collect();
    let mut perm = Vec::with_capacity(n);
    for k in 0..n {
        let candidate = node.candidate(k, &free).await;
        let (pivot, l, u) = node.trade(k, candidate, &mut free).await;
        perm.push(pivot);
        node.eliminate(k, &free, &l, &u).await;
    }
    perm
}

/// The row a node with no free rows offers to the pivot vote, with v = 0.
const NO_ROW: u32 = u32::MAX;

/// Does pivot candidate `a` beat `b`? The larger |v| wins, then the lower
/// row — the order a one-node `AbsMax` scan decides by. |v| is never NaN
/// and rows are distinct, so this is a total order on one step's
/// candidates (both ends of an exchange keep the same one), and the
/// no-candidate offer `(0, NO_ROW)` comes last in it.
fn beats((v, row): (f64, u32), (best_v, best_row): (f64, u32)) -> bool {
    let (v, best_v) = (v.abs(), best_v.abs());
    v > best_v || (v == best_v && row < best_row)
}

/// Agree on the global pivot: a dimension-exchange max-loc of this node's
/// candidate `(v, row)`, 3 words per dimension (the value's two halves
/// and the row), `n·(o + 3w)` on an n-cube ([`NetModel::max_loc`]). Every
/// node returns the winner under [`beats`], with its sign.
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
    let grid = Grid::new(cube);
    // A gathered column may span memory rows; a local row may not.
    let fits = n.div_ceil(grid.pc) <= ROW_WORDS / 2;
    assert!(fits, "a node's columns fit one memory row");
    let layout = LuLayout::new(machine.nodes[0].mem().cfg().rows_a());
    let at = |g: usize, j: usize| (grid.node(g, j), grid.word(&layout, g, j));

    for g in 0..n {
        for j in 0..n {
            let (node, word) = at(g, j);
            machine.nodes[node]
                .mem_mut()
                .write_f64(word, Sf64::from(a[g * n + j]))
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
        for j in 0..n {
            let (node, word) = at(g, j);
            lu[g * n + j] = machine.nodes[node].mem().read_f64(word).unwrap().to_host();
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
    use ts_fpu::pipeline::Precision;
    use ts_sim::{Dur, Time};
    use ts_vec::VecUnit;

    /// The unit's time for `forms` issued back to back over `n` elements,
    /// as `NodeCtx::issue_forms` books them.
    fn forms_time(forms: &[VecForm], n: usize) -> Dur {
        let time = |&form: &VecForm| VecUnit::timing(form, n, 1, Precision::Double).duration;
        forms.iter().filter(|_| n > 0).map(time).sum()
    }

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
        // Element (g, j) sits on grid node (g mod pr, j mod pc), square and
        // rectangular grids alike, and the pivot is agreed by vote down one
        // process column; every pivot choice and every SAXPY is the one-node
        // run's, so the permutation and every bit of the factors are too.
        // n = 30 is ragged on every grid from 4 process columns up.
        let run = |dim: u32, n: usize, a: &[f64]| {
            let (perm, lu, _) = factor(&mut Machine::build(MachineCfg::cube(dim)), n, a);
            (perm, lu.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        let mut cases: Vec<(usize, Vec<f64>)> = [16usize, 30, 32, 64]
            .into_iter()
            .map(|n| {
                let mut st = n as u64;
                (n, (0..n * n).map(|_| rand_f64(&mut st) + 0.1).collect())
            })
            .collect();
        cases.push((16, tied(16)));
        for (n, a) in &cases {
            let one = run(0, *n, a);
            for dim in 1..=5u32 {
                assert_eq!(run(dim, *n, a), one, "dim {dim}, n {n}");
            }
        }
        // The tie rule itself, independently of the one-node run.
        let (perm, lu, _) = factor(&mut Machine::build(MachineCfg::cube(2)), 16, &tied(16));
        assert_eq!(perm, (0..16).collect::<Vec<_>>(), "lower row wins a tie");
        assert!(reconstruction_error(16, &tied(16), &perm, &lu) < 1e-12);
    }

    #[test]
    fn a_negative_zero_multiplier_keeps_its_sign() {
        // Rows 1 and 3 start with −0, so their column-0 multipliers are −0.
        // The pivot column stores each multiplier after issuing its row's
        // SAXPY, whose masked zero would turn a −0 stored first into +0;
        // every later multiplier of those rows is positive, which keeps −0.
        let a = [
            4.0, 1.0, 1.0, 1.0, //
            -0.0, 4.0, 1.0, 1.0, //
            1.0, 1.0, 4.0, 1.0, //
            -0.0, 1.0, 1.0, 4.0,
        ];
        for dim in [0u32, 2, 3] {
            let (_, lu, _) = factor(&mut Machine::build(MachineCfg::cube(dim)), 4, &a);
            for g in [1, 3] {
                assert_eq!(
                    lu[g * 4].to_bits(),
                    (-0.0f64).to_bits(),
                    "dim {dim}, row {g}"
                );
            }
        }
    }

    #[test]
    fn a_matrix_wider_than_one_memory_row_factors_alike_on_two_grids() {
        // n = 256: a node's 128 (dims 1, 2) or 64 (dim 4) columns fit one
        // memory row, though no node could hold a whole matrix row. On a
        // 1 × 2 grid each pivot search gathers up to 256 values, two rows.
        let n = 256;
        let mut st = 256u64;
        let a: Vec<f64> = (0..n * n).map(|_| rand_f64(&mut st) + 0.1).collect();
        let run = |dim: u32| factor(&mut Machine::build(MachineCfg::cube(dim)), n, &a);
        let (perm, lu, _) = run(2);
        let bits = |lu: &[f64]| lu.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for dim in [1, 4] {
            let (p, l, _) = run(dim);
            assert_eq!((p, bits(&l)), (perm.clone(), bits(&lu)), "dim {dim}");
        }
        let err = reconstruction_error(n, &a, &perm, &lu);
        assert!(err < 1e-12, "reconstruction error {err}");
    }

    #[test]
    fn pivot_vote_costs_the_max_loc_model() {
        // The vote alone, on every cube to a cabinet: each node offers a
        // candidate (ties, negative values that beat smaller positive ones,
        // and a node with none, included), every node ends with the one
        // `beats` ranks first, sign and all, in n·(o + 3w).
        let net = NetModel::default();
        for dim in 1..=4u32 {
            let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
            let cube = m.cube;
            let offer = |id: u32| match id {
                0 => (0.0, NO_ROW),
                _ if id % 2 == 1 => (-((id % 3) as f64), 100 - id),
                _ => ((id % 3) as f64, 100 - id),
            };
            let handles =
                m.launch(move |ctx| async move { pivot_vote(&ctx, cube, offer(ctx.id())).await });
            assert!(m.run().quiescent);
            let want = (0..cube.nodes())
                .map(offer)
                .reduce(|best, c| if beats(c, best) { c } else { best })
                .unwrap();
            // A negative value beats none, and ties a positive one by |v|.
            match dim {
                1 => assert_eq!(want, (-1.0, 99)),
                3 => assert_eq!(want, (-2.0, 95), "node 5 beats node 2 on its row"),
                _ => {}
            }
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

    #[test]
    fn one_step_costs_the_lu_step_model() {
        // One step's communication, from the candidates on:
        // `NetModel::lu_step` of the longest process row's free rows and
        // the longest process column's trailing columns, after the pivot
        // column forms the multipliers (the reciprocal's chain, then one
        // `VSMul` over the free rows). Step 0 with every row free; the last
        // step, which has no trailing columns; and a step whose only free
        // row is the pivot's, which has no multipliers.
        let net = NetModel::default();
        let n = 64;
        for dim in 2..=4u32 {
            let grid = Grid::new(Hypercube::new(dim));
            let (rows, cols) = (n / grid.pr, n / grid.pc);
            for (k, pivot_only, rows, cols) in [
                (0, false, rows, cols),
                (n - 1, false, rows, 0),
                (0, true, 0, cols),
            ] {
                let mut m = Machine::build(MachineCfg::cube(dim));
                let cube = m.cube;
                m.launch(move |ctx| async move {
                    let node = LuNode::new(ctx, cube, n);
                    let mut free: Vec<usize> = (node.r..n).step_by(node.grid.pr).collect();
                    if pivot_only {
                        free.retain(|&g| g == 0);
                    }
                    let candidate = (k % node.grid.pc == node.c).then(|| match free.first() {
                        Some(&g) => (1.0 + node.r as f64, g as u32),
                        None => (0.0, NO_ROW),
                    });
                    node.trade(k, candidate, &mut free).await;
                });
                assert!(m.run().quiescent);
                let multipliers = forms_time(&VecForm::RECIP, 1)
                    + forms_time(&[VecForm::VSMul(Sf64::ZERO)], rows);
                let model = net.lu_step(grid.dr, grid.dc, rows, cols) + multipliers;
                let got = m.now().since(Time::ZERO);
                let (g, w) = (got.as_secs_f64(), model.as_secs_f64());
                assert!(
                    (g - w).abs() <= 0.05 * w,
                    "dim {dim}, step {k}, {rows} rows, {cols} columns: step {got}, model {model}"
                );
            }
        }
    }

    #[test]
    fn factoring_takes_the_steps_and_at_most_the_work_between_them() {
        // Every step's communication is on the critical path, one step
        // after the other. What else is on it is work: each step's pivot
        // search and reciprocal on the pivot column, then the elimination
        // on the next one. So it is at most the busiest node's vector and
        // CP time plus every pivot search and reciprocal chain of a process
        // row (a node's own are a 1/pc share of them).
        let n = 128;
        let mut m = Machine::build(MachineCfg::cube(4));
        let (_, perm, _, stats) = distributed_lu(&mut m, n, 1986);
        let grid = Grid::new(m.cube);
        let net = NetModel::default();
        let steps = (0..n).fold(Dur::ZERO, |sum, k| {
            let rows = (0..grid.pr)
                .map(|r| {
                    (r..n)
                        .step_by(grid.pr)
                        .filter(|g| !perm[..=k].contains(g))
                        .count()
                })
                .max()
                .unwrap();
            let cols = (0..grid.pc)
                .map(|c| (c..n).step_by(grid.pc).filter(|&j| j > k).count())
                .max()
                .unwrap();
            sum + net.lu_step(grid.dr, grid.dc, rows, cols)
        });
        let meters = |id: usize| m.nodes[id].meters();
        let work = (0..m.nodes.len())
            .map(|id| meters(id).vec_busy.get() + meters(id).cp_busy.get())
            .max()
            .unwrap();
        let searches = (0..grid.pr)
            .map(|r| {
                (0..grid.pc)
                    .map(|c| meters(r * grid.pc + c).cp_gathered.get())
                    .sum()
            })
            .max()
            .map(|gathered: u64| ts_mem::GATHER64_TIME * gathered)
            .unwrap();
        let recips = forms_time(&VecForm::RECIP, 1) * n as u64;
        assert!(
            steps <= stats.elapsed && stats.elapsed <= steps + work + searches + recips,
            "LU {}, steps {steps}, busiest node's work {work}, searches {searches}, \
             reciprocals {recips}",
            stats.elapsed
        );
    }
}
