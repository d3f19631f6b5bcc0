//! # ts-kernels — the applications the architecture was built for
//!
//! §I of the paper motivates the machine with large scientific
//! applications; §II's balance argument (1 : 13 : 130) and §III's embedding
//! menagerie (Figure 3) only mean something when real algorithms run on the
//! simulated machine. This crate provides distributed kernels, each an SPMD
//! program over [`ts_node::NodeCtx`]:
//!
//! * [`matmul`] — Cannon's algorithm on the 2-D torus embedding
//!   (Gray-coded mesh shifts, local SAXPY-based GEMM), with the A shift,
//!   the B shift and the GEMM of a step running at once;
//! * [`fft`] — radix-2 complex FFT using the dilation-1 butterfly
//!   embedding: high stages exchange across cube dimensions — pipelined,
//!   one stage process and one link per dimension — low stages are local;
//! * [`lu`] — LU factorization with partial pivoting on a 2-D grid of
//!   process rows and columns, using the **real node memory**: gather for
//!   column access, the `AbsMax` vector form and a vote down one process
//!   column for pivot search, an implicit permutation instead of a swap (no
//!   row moves), the multipliers and the pivot row's trailing columns
//!   striped along the rows and down the columns at once, software
//!   division (no divider!), and `Saxpy` vector forms for elimination;
//! * [`sort`] — bitonic sort across the cube (the paper's "sorting
//!   records" use of fast data movement);
//! * [`stencil`] — Jacobi relaxation on the embedded 2-D mesh with halo
//!   exchange;
//! * [`cg`] — conjugate gradients on the five-point Laplacian: halo
//!   exchanges, vector-pipe AXPYs and log-p all-reduce dot products per
//!   iteration;
//! * [`transpose`] — recursive matrix transpose by pairwise block
//!   exchange across cube dimensions;
//! * [`nbody`] — all-pairs N-body on the Gray-code ring (the Fox & Otto
//!   pipeline the paper cites);
//! * [`spmv`] — sparse matrix–vector products driven by the control
//!   processor's gather hardware, with the §II gather/arithmetic overlap
//!   schedule.
//!
//! Every kernel verifies its numerics against a host-side reference and
//! reports a [`KernelStats`] — the machine's counters since the kernel was
//! launched — so achieved MFLOPS, speedup and communication share can be
//! tabulated.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cg;
pub mod fft;
pub mod lu;
pub mod matmul;
pub mod nbody;
pub mod sort;
pub mod spmv;
pub mod stencil;
pub mod transpose;

use std::future::Future;

use t_series_core::Machine;
use ts_mem::{join, split};
use ts_node::{NodeCtx, NodeMeters};
use ts_sim::{mflops, Dur, Time};

/// What a kernel run achieved, derived from machine metrics.
#[derive(Clone, Copy, Debug)]
pub struct KernelStats {
    /// Simulated wall-clock of the run.
    pub elapsed: Dur,
    /// Total floating-point operations performed by the vector units.
    pub flops: u64,
    /// Total bytes sent over hypercube links.
    pub bytes_sent: u64,
    /// Aggregate achieved MFLOPS.
    pub mflops: f64,
}

/// The machine's cumulative `(instant, vector flops, link bytes sent)`.
/// A kernel's stats are the deltas across its run, so they are the same
/// on a reused machine as on a fresh one.
fn counters(machine: &Machine) -> (Time, u64, u64) {
    let sum = |f: fn(&NodeMeters) -> u64| machine.nodes.iter().map(|n| f(n.meters())).sum();
    let flops = sum(|m| m.vec_flops.get());
    (machine.now(), flops, sum(|m| m.link_bytes_sent.get()))
}

/// The SPMD runner behind every `distributed_*` driver: launch `program`
/// on every node in node order, run the machine to quiescence and collect
/// each node's output (in node order) with the run's [`KernelStats`].
fn run_spmd<F, Fut>(
    machine: &mut Machine,
    kernel: &str,
    program: F,
) -> (Vec<Fut::Output>, KernelStats)
where
    F: FnMut(NodeCtx) -> Fut,
    Fut: Future + 'static,
    Fut::Output: 'static,
{
    let (t0, flops0, bytes0) = counters(machine);
    let handles = machine.launch(program);
    assert!(machine.run().quiescent, "{kernel} deadlocked");
    let outputs = handles
        .into_iter()
        .map(|h| h.try_take().expect("quiescent, so finished"))
        .collect();
    let (t1, flops1, bytes1) = counters(machine);
    let (elapsed, flops) = (t1.since(t0), flops1 - flops0);
    let stats = KernelStats {
        elapsed,
        flops,
        bytes_sent: bytes1 - bytes0,
        mflops: mflops(flops, elapsed),
    };
    (outputs, stats)
}

/// Message encoding of `f64` values: two words each ([`split`]).
fn pack<'a>(vals: impl IntoIterator<Item = &'a f64>) -> Vec<u32> {
    vals.into_iter().flat_map(|v| split(v.to_bits())).collect()
}

/// Inverse of [`pack`].
fn unpack(words: &[u32]) -> Vec<f64> {
    words
        .chunks_exact(2)
        .map(|c| f64::from_bits(join(c)))
        .collect()
}

/// Simple splitmix64 PRNG for reproducible test data without threading a
/// rand dependency through every kernel.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A reproducible pseudo-random f64 in (-1, 1).
pub fn rand_f64(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use t_series_core::MachineCfg;

    #[test]
    fn stats_on_a_reused_machine_equal_those_on_a_fresh_one() {
        let input: Vec<(f64, f64)> = (0..256).map(|i| (i as f64, 0.5)).collect();
        let cfg = MachineCfg::cube(2);
        let mut fresh = Machine::build(cfg);
        let (_, want) = fft::distributed_fft(&mut fresh, &input);

        let mut reused = Machine::build(cfg);
        matmul::distributed_matmul(&mut reused, 16, 3);
        lu::distributed_lu(&mut reused, 16, 3);
        let (_, got) = fft::distributed_fft(&mut reused, &input);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }
}
