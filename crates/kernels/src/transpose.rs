//! Distributed matrix transpose — the classic **all-to-all personalized**
//! exchange on the hypercube, in log₂ p steps.
//!
//! Node i holds block-row i of a p×p block matrix (blocks of b×b, N = p·b).
//! At step d every node exchanges, with its dimension-d neighbour, all
//! blocks whose final owner differs in bit d; after log₂ p steps node i
//! holds column-block i, and a local b×b transpose of each block finishes
//! the job. Each step moves exactly half a node's data — the optimal
//! store-and-forward schedule — so total traffic is (p/2)·log₂(p)·b²
//! elements per node.
//!
//! The local block transposes are strided element traffic through the
//! word port, charged at the control processor's gather rate (§II: this
//! is precisely the workload the paper says benefits from *physical* row
//! movement when the stride allows it).

use ts_cube::Hypercube;
use ts_node::NodeCtx;

use crate::{rand_f64, run_spmd, unpack, KernelStats};

fn pack_blocks(blocks: &[(u32, Vec<f64>)]) -> Vec<u32> {
    let mut words = Vec::new();
    for (dest, data) in blocks {
        words.push(*dest);
        words.push(data.len() as u32);
        words.extend(data.iter().flat_map(|v| ts_mem::split(v.to_bits())));
    }
    words
}

fn unpack_blocks(words: &[u32]) -> Vec<(u32, Vec<f64>)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < words.len() {
        let dest = words[i];
        let len = words[i + 1] as usize;
        out.push((dest, unpack(&words[i + 2..i + 2 + 2 * len])));
        i += 2 + 2 * len;
    }
    out
}

/// Host driver: transpose an N×N matrix (N = p·b); returns `(A, Aᵀ, stats)`.
pub fn distributed_transpose(
    machine: &mut t_series_core::Machine,
    n: usize,
    seed: u64,
) -> (Vec<f64>, Vec<f64>, KernelStats) {
    let cube = machine.cube;
    let p = cube.nodes() as usize;
    assert!(n.is_multiple_of(p));
    let bsize = n / p;
    let mut st = seed;
    let a: Vec<f64> = (0..n * n).map(|_| rand_f64(&mut st)).collect();

    let (rows, stats) = run_spmd(machine, "transpose", |ctx| {
        let i = ctx.id() as usize;
        // blocks[j] = block (i, j), b×b row-major.
        let blocks: Vec<Vec<f64>> = (0..p)
            .map(|j| {
                let mut blk = Vec::with_capacity(bsize * bsize);
                for r in 0..bsize {
                    for c in 0..bsize {
                        blk.push(a[(i * bsize + r) * n + j * bsize + c]);
                    }
                }
                blk
            })
            .collect();
        transpose_rows(ctx, cube, bsize, blocks)
    });

    let mut at = vec![0.0; n * n];
    for (i, row_blocks) in rows.into_iter().enumerate() {
        for (j, blk) in row_blocks.into_iter().enumerate() {
            for r in 0..bsize {
                for c in 0..bsize {
                    at[(i * bsize + r) * n + j * bsize + c] = blk[r * bsize + c];
                }
            }
        }
    }
    (a, at, stats)
}

/// The working per-node program: blocks tagged `(row, col)` so ownership
/// and placement survive the exchange.
pub async fn transpose_rows(
    ctx: NodeCtx,
    cube: Hypercube,
    bsize: usize,
    blocks: Vec<Vec<f64>>,
) -> Vec<Vec<f64>> {
    let me = ctx.id();
    let p = cube.nodes();
    // Tag: (final_owner = original column, original row, data).
    let mut holding: Vec<(u32, u32, Vec<f64>)> = blocks
        .into_iter()
        .enumerate()
        .map(|(j, d)| (j as u32, me, d))
        .collect();
    for d in 0..cube.dim() as usize {
        let bit = 1u32 << d;
        let (send, keep): (Vec<_>, Vec<_>) = holding
            .into_iter()
            .partition(|(owner, _, _)| (owner & bit) != (me & bit));
        // Flatten with both tags.
        let tagged: Vec<(u32, Vec<f64>)> = send
            .into_iter()
            .map(|(owner, row, data)| (owner | (row << 16), data))
            .collect();
        let incoming = ctx.exchange(d, pack_blocks(&tagged), d).await;
        holding = keep;
        for (tag, data) in unpack_blocks(&incoming) {
            holding.push((tag & 0xffff, tag >> 16, data));
        }
    }
    // Local transposes: strided element traffic through the word port.
    ctx.cp_compute(12 * (p as u64) * (bsize * bsize) as u64)
        .await;
    let mut out: Vec<Vec<f64>> = vec![Vec::new(); p as usize];
    for (owner, row, data) in holding {
        debug_assert_eq!(owner, me);
        let mut t = vec![0.0; bsize * bsize];
        for r in 0..bsize {
            for c in 0..bsize {
                t[c * bsize + r] = data[r * bsize + c];
            }
        }
        out[row as usize] = t;
    }
    out
}

/// Host reference transpose.
pub fn reference_transpose(n: usize, a: &[f64]) -> Vec<f64> {
    let mut t = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            t[j * n + i] = a[i * n + j];
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use t_series_core::{Machine, MachineCfg};

    fn check(dim: u32, n: usize) -> KernelStats {
        let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
        let (a, at, stats) = distributed_transpose(&mut m, n, 13);
        assert_eq!(at, reference_transpose(n, &a), "dim {dim}, n {n}");
        stats
    }

    #[test]
    fn transpose_single_node() {
        check(0, 8);
    }

    #[test]
    fn transpose_on_a_line() {
        let stats = check(1, 8);
        assert!(stats.bytes_sent > 0);
    }

    #[test]
    fn transpose_on_a_cube() {
        check(3, 16);
    }

    #[test]
    fn traffic_is_half_data_per_step() {
        // 8 nodes, N=16, b=2: each node holds 8 blocks of 32 bytes; each of
        // 3 steps sends half its 8 blocks (4 blocks + 8 tag/len words).
        let stats = check(3, 16);
        let per_block_bytes = (2 + 2 * 4) * 4; // tag + len + 4 f64 = 40 B
        let want = 8 * 3 * 4 * per_block_bytes as u64;
        assert_eq!(stats.bytes_sent, want);
    }
}
