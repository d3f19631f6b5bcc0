//! Dominant eigenvalue by the power method — distributed dense linear
//! algebra in the style the paper's §I motivates, built entirely from the
//! collective library: all-gather for the matrix–vector product, all-reduce
//! for norms and Rayleigh quotients.
//!
//! Each node owns a block of rows of a symmetric matrix. Per iteration:
//! all-gather x (log p steps), local GEMV through the vector pipes,
//! all-reduce the norm, normalize. The eigenvalue is checked against a
//! host-side power iteration.
//!
//! ```text
//! cargo run --release --example power_iteration
//! ```

use fps_t_series::machine::{collectives, Machine, MachineCfg};
use fps_t_series::node::CombineOp;
use ts_fpu::Sf64;

fn main() {
    const N: usize = 32;
    let dim = 2u32; // 4 nodes, 8 rows each
    let p = 1usize << dim;
    let rows_per = N / p;

    // A symmetric positive matrix with a clear dominant eigenvalue.
    let mut a = vec![0.0f64; N * N];
    let mut st = 99u64;
    for i in 0..N {
        for j in 0..=i {
            let v = fps_t_series::kernels::rand_f64(&mut st) * 0.5;
            a[i * N + j] = v;
            a[j * N + i] = v;
        }
        a[i * N + i] += 4.0 + (i as f64) / N as f64;
    }

    // Host reference: straightforward power iteration.
    let host_lambda = {
        let mut x = vec![1.0f64; N];
        let mut lambda = 0.0;
        for _ in 0..200 {
            let mut y = vec![0.0; N];
            for i in 0..N {
                for j in 0..N {
                    y[i] += a[i * N + j] * x[j];
                }
            }
            let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
            lambda = x.iter().zip(&y).map(|(xi, yi)| xi * yi).sum::<f64>();
            x = y.into_iter().map(|v| v / norm).collect();
        }
        lambda
    };

    // Distributed: one program per node.
    let mut machine = Machine::build(MachineCfg::cube_small_mem(dim, 8));
    let cube = machine.cube;
    let a2 = a.clone();
    let handles = machine.launch(move |ctx| {
        let a = a2.clone();
        async move {
            let me = ctx.id() as usize;
            let my_rows = &a[me * rows_per * N..(me + 1) * rows_per * N];
            let mut x_local = vec![Sf64::from(1.0); rows_per];
            let mut lambda = 0.0f64;
            for _ in 0..200 {
                // All-gather the current iterate (2 words per element).
                let mut flat = Vec::with_capacity(rows_per * 2);
                for v in &x_local {
                    let b = v.to_bits();
                    flat.push(b as u32);
                    flat.push((b >> 32) as u32);
                }
                let pieces = collectives::allgather(&ctx, cube, flat).await;
                let mut x = Vec::with_capacity(N);
                for (_, words) in pieces {
                    for c in words.chunks_exact(2) {
                        x.push(f64::from_bits(c[0] as u64 | ((c[1] as u64) << 32)));
                    }
                }
                // Local GEMV: rows_per dot products through the vector pipe.
                let xs: Vec<Sf64> = x.iter().map(|&v| Sf64::from(v)).collect();
                let mut y_local = Vec::with_capacity(rows_per);
                for r in 0..rows_per {
                    let row: Vec<Sf64> = my_rows[r * N..(r + 1) * N]
                        .iter()
                        .map(|&v| Sf64::from(v))
                        .collect();
                    let (dot, done) = ctx.issue_dot_values(&row, &xs);
                    ctx.wait(done).await;
                    y_local.push(dot);
                }
                // Global norm² and Rayleigh numerator by all-reduce.
                let local_nsq: f64 = y_local.iter().map(|v| v.to_host().powi(2)).sum();
                let local_num: f64 = y_local
                    .iter()
                    .zip(&x_local)
                    .map(|(y, xl)| y.to_host() * xl.to_host())
                    .sum();
                let sums = collectives::allreduce(
                    &ctx,
                    cube,
                    CombineOp::Add,
                    vec![Sf64::from(local_nsq), Sf64::from(local_num)],
                )
                .await;
                let norm = sums[0].to_host().sqrt();
                lambda = sums[1].to_host();
                x_local = y_local
                    .iter()
                    .map(|v| Sf64::from(v.to_host() / norm))
                    .collect();
            }
            lambda
        }
    });
    assert!(machine.run().quiescent, "power iteration deadlocked");
    let lambdas: Vec<f64> = handles.into_iter().map(|h| h.try_take().unwrap()).collect();

    println!("power method on a {N}x{N} symmetric matrix, {p} nodes:");
    println!("  host  eigenvalue estimate: {host_lambda:.9}");
    println!("  nodes eigenvalue estimate: {:.9}", lambdas[0]);
    for l in &lambdas {
        assert!((l - host_lambda).abs() < 1e-6, "{l} vs {host_lambda}");
    }
    println!(
        "  simulated time: {} ({:.2} MFLOPS aggregate)",
        machine.now(),
        machine.achieved_mflops()
    );
    println!("  all {p} nodes agree with the host to 1e-6 — convergence verified");
}
