//! The sharded executor in one file: run the same 1,024-node allreduce
//! sequentially and across 2 and 4 OS threads, then prove the parallel
//! backend is not "approximately" right but **bit-identical** — same
//! per-node results, same final picosecond, same utilization report.
//!
//! ```text
//! cargo run --release --example parallel_cube
//! ```

use std::time::Instant;

use fps_t_series::machine::parallel::{run_parallel, ParallelCfg};
use fps_t_series::machine::{collectives, Hypercube, Machine, MachineCfg};
use ts_fpu::Sf64;
use ts_node::CombineOp;

const DIM: u32 = 10;

fn cfg() -> MachineCfg {
    MachineCfg::cube_small_mem(DIM, 8)
}

fn program(ctx: ts_node::NodeCtx) -> impl std::future::Future<Output = Vec<Sf64>> + 'static {
    let cube = Hypercube::new(DIM);
    async move {
        let id = ctx.id();
        let mine = vec![
            Sf64::from(id as f64),
            Sf64::from(1.0 / (1.0 + id as f64)),
            Sf64::from(-(id as f64) * 0.5),
            Sf64::from(1.0),
        ];
        collectives::allreduce(&ctx, cube, CombineOp::Add, mine).await
    }
}

fn main() {
    println!(
        "== parallel_cube: dim-{DIM} ({} nodes) allreduce, sequential vs sharded ==\n",
        1u32 << DIM
    );

    // Sequential reference run.
    let wall = Instant::now();
    let mut m = Machine::build(cfg());
    let handles = m.launch(program);
    let outcome = m.run();
    assert!(outcome.quiescent);
    let seq_results: Vec<Vec<Sf64>> = handles
        .into_iter()
        .map(|h| h.try_take().expect("sequential result"))
        .collect();
    let seq_report = m.utilization_report();
    println!(
        "sequential      : {:>9} events in {:>6.2?} wall, {:.6} s simulated",
        outcome.events,
        wall.elapsed(),
        m.now().as_secs_f64()
    );

    // The same program across 2 and 4 shards. Each shard owns a
    // contiguous half/quarter of the cube (high-order address bits) and
    // runs on its own OS thread; link traffic on the cut dimensions
    // crosses bounded inter-thread mailboxes in timestamp lockstep.
    for shards in [2u32, 4] {
        let wall = Instant::now();
        let run = run_parallel(cfg(), &ParallelCfg::new(shards), program);
        assert!(run.quiescent);
        println!(
            "{shards} shards        : {:>9} events in {:>6.2?} wall, {:.6} s simulated",
            run.events,
            wall.elapsed(),
            run.final_time.as_secs_f64()
        );

        // Bit-identical, not approximately equal.
        assert_eq!(run.final_time, m.now(), "final time diverged");
        for (id, r) in run.results.iter().enumerate() {
            assert_eq!(
                r.as_ref().expect("parallel result"),
                &seq_results[id],
                "node {id} diverged"
            );
        }
        assert_eq!(
            run.utilization_report(),
            seq_report,
            "utilization report diverged"
        );
        println!("                  results, final time, and utilization report");
        println!("                  byte-identical to the sequential run ✓");
    }

    println!("\n(On a single-core host the sharded runs are slower — the");
    println!("barrier protocol costs more than it buys. The win shows up on");
    println!("multi-core hardware; see the `sharded_dim12` workload of");
    println!("benchmark/, which records host_cores with every number.)");
}
