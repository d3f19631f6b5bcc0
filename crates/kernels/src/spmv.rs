//! Sparse matrix × vector (CRS) — the irregular workload §II's
//! gather/scatter hardware exists for: "A primary use for the control
//! processor is to gather operands into a contiguous vector... With this
//! provision, the control processor can completely overlap the gather time
//! with vector arithmetic."
//!
//! The matrix is compressed-row storage, row-blocked over the nodes; x is
//! replicated by all-gather each application. For every row the control
//! processor **gathers** the x-entries named by the column indices into a
//! contiguous bank-A scratch vector (1.6 µs per nonzero — the real cost of
//! irregularity on this machine), then one `Dot` vector form multiplies
//! against the row's values in bank B.
//!
//! Two schedules are implemented:
//! * [`SpmvSchedule::Sequential`] — gather, then dot, per row;
//! * [`SpmvSchedule::Overlapped`] — issue row r's dot asynchronously and
//!   gather row r+1 meanwhile, the §II software pattern. With ~13+ flops
//!   of arithmetic per gathered element the gather would vanish; sparse
//!   rows have only 2 flops per element, so gather dominates — measured
//!   honestly by the E-harness.

use ts_cube::Hypercube;
use ts_fpu::Sf64;
use ts_mem::ROW_WORDS;
use ts_node::NodeCtx;
use ts_vec::VecForm;

use crate::{rand_f64, run_spmd, splitmix, KernelStats};

/// A compressed-row sparse matrix (host-side container).
#[derive(Clone, Debug)]
pub struct Crs {
    /// Matrix order.
    pub n: usize,
    /// Row start offsets (len n+1).
    pub row_ptr: Vec<usize>,
    /// Column indices, row-major.
    pub col_idx: Vec<usize>,
    /// Values, aligned with `col_idx`.
    pub values: Vec<f64>,
}

impl Crs {
    /// A random sparse matrix with about `nnz_per_row` entries per row
    /// (plus a guaranteed diagonal).
    pub fn random(n: usize, nnz_per_row: usize, seed: u64) -> Crs {
        let mut st = seed;
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..n {
            let mut cols = std::collections::BTreeSet::new();
            cols.insert(i); // diagonal
            for _ in 1..nnz_per_row {
                cols.insert((splitmix(&mut st) as usize) % n);
            }
            for c in cols {
                col_idx.push(c);
                values.push(rand_f64(&mut st));
            }
            row_ptr.push(col_idx.len());
        }
        Crs {
            n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Host reference product.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        (0..self.n)
            .map(|i| {
                (self.row_ptr[i]..self.row_ptr[i + 1])
                    .map(|k| self.values[k] * x[self.col_idx[k]])
                    .sum()
            })
            .collect()
    }
}

/// Gather/compute scheduling of the per-row loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpmvSchedule {
    /// Gather row k, then run row k's dot, strictly in order.
    Sequential,
    /// Run row k's dot while gathering row k+1 (§II's overlap pattern).
    Overlapped,
}

/// Node memory layout for the kernel.
///
/// * bank A row 0/1: double-buffered gather scratch (≤128 nonzeros/row);
/// * bank B row 0..: the replicated x vector (set up host-side);
/// * bank B row 512..: this node's row values, one memory row per matrix
///   row (≤128 nonzeros).
struct Layout {
    rows_a: usize,
}

impl Layout {
    fn scratch_row(&self, parity: usize) -> usize {
        parity & 1
    }

    fn x_word(&self, j: usize) -> usize {
        self.rows_a * ROW_WORDS + 2 * j
    }

    fn values_row(&self, local_row: usize) -> usize {
        self.rows_a + 512 + local_row
    }
}

/// The per-node program: y-block for this node's rows of `a` (the full CRS
/// is passed for structure; only this node's rows are touched). `x` is
/// already resident in node memory (host-side setup).
pub async fn spmv_node(
    ctx: NodeCtx,
    cube: Hypercube,
    a: std::rc::Rc<Crs>,
    schedule: SpmvSchedule,
) -> Vec<f64> {
    let p = cube.nodes() as usize;
    let me = ctx.id() as usize;
    let rows_per = a.n / p;
    let layout = Layout {
        rows_a: ctx.mem().cfg().rows_a(),
    };
    let my_rows = me * rows_per..(me + 1) * rows_per;

    let mut y = vec![0.0f64; rows_per];
    // Completion instant of the dot in flight (overlapped schedule).
    let mut in_flight = ctx.now();
    for (slot, i) in my_rows.clone().enumerate() {
        let lo = a.row_ptr[i];
        let hi = a.row_ptr[i + 1];
        let nnz = hi - lo;
        assert!(nnz <= 128, "row fits one scratch row");
        // Gather the x entries this row touches into scratch.
        let srcs: Vec<usize> = a.col_idx[lo..hi]
            .iter()
            .map(|&j| layout.x_word(j))
            .collect();
        let scratch = layout.scratch_row(slot);
        ctx.gather64(&srcs, scratch * ROW_WORDS).await.unwrap();
        match schedule {
            SpmvSchedule::Sequential => {
                let r = ctx
                    .vec(VecForm::Dot, scratch, layout.values_row(slot), 0, nnz)
                    .await
                    .unwrap();
                y[slot] = f64::from_bits(r.scalar.unwrap());
            }
            SpmvSchedule::Overlapped => {
                // Retire the previous row's dot, then issue this one and
                // return to gathering.
                ctx.wait(in_flight).await;
                let (r, done) = ctx
                    .issue_vec(VecForm::Dot, scratch, layout.values_row(slot), 0, nnz)
                    .unwrap();
                y[slot] = f64::from_bits(r.scalar.unwrap());
                in_flight = done;
            }
        }
    }
    ctx.wait(in_flight).await;
    y
}

/// Host driver: distributed y = A·x; returns `(x, y, stats)`.
pub fn distributed_spmv(
    machine: &mut t_series_core::Machine,
    a: &Crs,
    schedule: SpmvSchedule,
    seed: u64,
) -> (Vec<f64>, Vec<f64>, KernelStats) {
    let cube = machine.cube;
    let p = cube.nodes() as usize;
    assert!(a.n.is_multiple_of(p));
    let rows_per = a.n / p;
    let mut st = seed;
    let x: Vec<f64> = (0..a.n).map(|_| rand_f64(&mut st)).collect();

    // Host-side residency: x replicated in bank B; each node's row values
    // packed one memory row per matrix row.
    let layout_rows_a = machine.nodes[0].mem().cfg().rows_a();
    for node in &machine.nodes {
        let mut mem = node.mem_mut();
        for (j, &v) in x.iter().enumerate() {
            mem.write_f64(layout_rows_a * ROW_WORDS + 2 * j, Sf64::from(v))
                .unwrap();
        }
        let me = node.id as usize;
        for slot in 0..rows_per {
            let i = me * rows_per + slot;
            let (lo, hi) = (a.row_ptr[i], a.row_ptr[i + 1]);
            let base = (layout_rows_a + 512 + slot) * ROW_WORDS;
            for (k, idx) in (lo..hi).enumerate() {
                mem.write_f64(base + 2 * k, Sf64::from(a.values[idx]))
                    .unwrap();
            }
        }
    }

    let shared = std::rc::Rc::new(a.clone());
    let (ys, stats) = run_spmd(machine, "spmv", |ctx| {
        spmv_node(ctx, cube, shared.clone(), schedule)
    });
    (x, ys.concat(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use t_series_core::{Machine, MachineCfg};

    fn check(dim: u32, n: usize, nnz: usize, schedule: SpmvSchedule) -> KernelStats {
        let a = Crs::random(n, nnz, 5);
        let mut m = Machine::build(MachineCfg::cube(dim));
        let (x, y, stats) = distributed_spmv(&mut m, &a, schedule, 6);
        let want = a.apply(&x);
        for (i, (g, w)) in y.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < 1e-10, "y[{i}] = {g}, want {w}");
        }
        stats
    }

    #[test]
    fn spmv_sequential_single_node() {
        check(0, 32, 8, SpmvSchedule::Sequential);
    }

    #[test]
    fn spmv_overlapped_single_node() {
        check(0, 32, 8, SpmvSchedule::Overlapped);
    }

    #[test]
    fn spmv_on_a_square() {
        let s = check(2, 64, 12, SpmvSchedule::Sequential);
        assert!(s.flops > 0);
    }

    #[test]
    fn overlap_helps_but_gather_still_dominates() {
        // Sparse rows carry only ~2 flops per gathered element, far below
        // the 13 the §II rule demands, so even perfect overlap leaves the
        // kernel gather-bound: a small win, nowhere near 2x.
        let a = Crs::random(64, 16, 9);
        let time = |schedule| {
            let mut m = Machine::build(MachineCfg::cube(0));
            let (_, _, stats) = distributed_spmv(&mut m, &a, schedule, 6);
            stats.elapsed.as_secs_f64()
        };
        let seq = time(SpmvSchedule::Sequential);
        let ovl = time(SpmvSchedule::Overlapped);
        assert!(ovl < seq, "overlap must help: {ovl} vs {seq}");
        let speedup = seq / ovl;
        assert!(
            (1.0..1.5).contains(&speedup),
            "gather-bound speedup should be modest: {speedup}"
        );
    }

    #[test]
    fn crs_reference_is_sane() {
        let a = Crs::random(16, 4, 1);
        let x = vec![1.0; 16];
        let y = a.apply(&x);
        assert_eq!(y.len(), 16);
        // Row sums equal the apply-to-ones result by construction.
        for (i, v) in y.iter().enumerate() {
            let want: f64 = (a.row_ptr[i]..a.row_ptr[i + 1]).map(|k| a.values[k]).sum();
            assert!((v - want).abs() < 1e-12);
        }
    }
}
