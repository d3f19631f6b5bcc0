//! LU factorization with partial pivoting on distributed node memory —
//! the factorization at the heart of the LINPACK benchmark that drove
//! supercomputer procurement in 1986 (the example factors and verifies
//! `P·A = L·U`; it solves no system), exercising the full §II machinery: the matrix on a 2-D grid of process
//! rows and columns (subcubes), gathers for column access, the `AbsMax`
//! vector form for pivot search and a max-loc vote down one process
//! column, Newton–Raphson software division (the node has no divider),
//! the multipliers striped along the process rows while the pivot row
//! streams down the process columns, and one chained SAXPY vector form per
//! eliminated row. 2 and 8 nodes make rectangular grids (1 × 2, 2 × 4).
//!
//! ```text
//! cargo run --release --example linpack_solve
//! ```

use fps_t_series::kernels::lu::{distributed_lu, reconstruction_error};
use fps_t_series::machine::{Machine, MachineCfg};

fn main() {
    const N: usize = 64;
    println!("LU factorization with partial pivoting, N = {N}");
    println!(
        "{:>6} {:>12} {:>10} {:>12} {:>10}",
        "nodes", "elapsed", "MFLOPS", "gathered", "bytes sent"
    );
    for dim in [0u32, 1, 2, 3] {
        let mut machine = Machine::build(MachineCfg::cube(dim));
        let (a, perm, lu, stats) = distributed_lu(&mut machine, N, 7);
        let err = reconstruction_error(N, &a, &perm, &lu);
        assert!(err < 1e-9, "P·A = L·U reconstruction error {err}");
        let gathered = machine.registry().sum_counters("cp/gathered");
        println!(
            "{:>6} {:>12} {:>10.3} {:>12} {:>10}",
            1u32 << dim,
            format!("{}", stats.elapsed),
            stats.mflops,
            gathered,
            stats.bytes_sent,
        );
    }
    println!("\n(every factorization verified: max |PA - LU| < 1e-9)");
    println!("note the gather count: the control processor assembles every pivot-search");
    println!("column at 1.6 us/element while the vector unit eliminates at 16 MFLOPS --");
    println!("the 1:13 balance the paper's Section II derives.");
}
