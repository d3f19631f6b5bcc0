//! Bitonic sort across the hypercube — the paper's "sorting records" via
//! fast data movement.
//!
//! Each node holds an equal block of keys, locally sorted; the cube then
//! runs the classical hypercube bitonic network: log₂ p merge phases, phase
//! i performing i+1 **compare-split** exchanges (each across one cube
//! dimension — bit j of the node id). A compare-split sends the whole block
//! to the partner and keeps the lower or upper half of the merged pair, so
//! blocks stay sorted throughout. Total exchanges: n(n+1)/2 for an n-cube.
//!
//! Key comparisons are control-processor work (charged at 7.5 MIPS); the
//! block exchanges are real link traffic.

use ts_cube::Hypercube;
use ts_node::NodeCtx;

use crate::{pack, rand_f64, run_spmd, unpack, KernelStats};

/// Merge two sorted slices and keep the lower (or upper) half.
fn compare_split(mine: &[f64], theirs: &[f64], keep_low: bool) -> Vec<f64> {
    let n = mine.len();
    debug_assert_eq!(theirs.len(), n);
    let mut merged = Vec::with_capacity(2 * n);
    let (mut i, mut j) = (0, 0);
    while merged.len() < 2 * n {
        if j >= n || (i < n && mine[i] <= theirs[j]) {
            merged.push(mine[i]);
            i += 1;
        } else {
            merged.push(theirs[j]);
            j += 1;
        }
    }
    if keep_low {
        merged[..n].to_vec()
    } else {
        merged[n..].to_vec()
    }
}

/// The per-node bitonic sort program: returns this node's sorted block;
/// blocks ascend with node id (node 0 ends with the global minimum).
pub async fn bitonic_node(ctx: NodeCtx, cube: Hypercube, mut local: Vec<f64>) -> Vec<f64> {
    let me = ctx.id();
    let nl = local.len();
    // Local sort: n log n comparisons of control-processor work.
    local.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let cmps = (nl as u64) * (usize::BITS - nl.leading_zeros()) as u64;
    ctx.cp_compute(4 * cmps).await;

    for phase in 0..cube.dim() {
        for j in (0..=phase).rev() {
            let partner_bit = 1u32 << j;
            // Ascending region if bit (phase+1) of id is 0.
            let ascending = me & (1 << (phase + 1)) == 0 || phase + 1 == cube.dim();
            let keep_low = (me & partner_bit == 0) == ascending;
            let theirs = ctx.exchange(j as usize, pack(&local), j as usize).await;
            local = compare_split(&local, &unpack(&theirs), keep_low);
            ctx.cp_compute(4 * 2 * nl as u64).await; // merge pass
        }
    }
    local
}

/// Host driver: sort `total` random keys on the machine; returns the
/// globally sorted sequence and stats.
pub fn distributed_sort(
    machine: &mut t_series_core::Machine,
    total: usize,
    seed: u64,
) -> (Vec<f64>, KernelStats) {
    let cube = machine.cube;
    let p = cube.nodes() as usize;
    assert!(total.is_multiple_of(p));
    let nl = total / p;
    let mut st = seed;
    let keys: Vec<f64> = (0..total).map(|_| rand_f64(&mut st) * 1e6).collect();
    let (runs, stats) = run_spmd(machine, "bitonic sort", |ctx| {
        let lo = ctx.id() as usize * nl;
        bitonic_node(ctx, cube, keys[lo..lo + nl].to_vec())
    });
    (runs.concat(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use t_series_core::{Machine, MachineCfg};

    fn check(dim: u32, total: usize) -> KernelStats {
        let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
        let (got, stats) = distributed_sort(&mut m, total, 11);
        for w in got.windows(2) {
            assert!(w[0] <= w[1], "not sorted: {} > {}", w[0], w[1]);
        }
        assert_eq!(got.len(), total);
        stats
    }

    #[test]
    fn sorts_on_one_node() {
        check(0, 64);
    }

    #[test]
    fn sorts_on_a_line() {
        check(1, 32);
    }

    #[test]
    fn sorts_on_a_square() {
        let stats = check(2, 64);
        assert!(stats.bytes_sent > 0);
    }

    #[test]
    fn sorts_on_a_cube() {
        // 3 phases: 1+2+3 = 6 compare-splits per node.
        let stats = check(3, 128);
        let per_node_msgs = 6u64;
        let bytes = 8 * per_node_msgs * (128 / 8) * 8;
        assert_eq!(stats.bytes_sent, bytes);
    }

    #[test]
    fn compare_split_halves() {
        let a = vec![1.0, 4.0, 7.0];
        let b = vec![2.0, 3.0, 9.0];
        assert_eq!(compare_split(&a, &b, true), vec![1.0, 2.0, 3.0]);
        assert_eq!(compare_split(&a, &b, false), vec![4.0, 7.0, 9.0]);
    }
}
