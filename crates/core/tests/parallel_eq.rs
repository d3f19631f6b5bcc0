//! Seeded equivalence property for the parallel backend.
//!
//! For random cube sizes, shard counts, and transient-fault plans, a
//! parallel run must be indistinguishable from the sequential backend:
//! same per-node results, same final picosecond, and a **byte-identical**
//! `utilization_report()` — counters, histograms, and every
//! floating-point digit of the rendered text.

use t_series_core::fault::FaultEvent;
use t_series_core::parallel::{run_parallel_faulted, ParallelCfg};
use t_series_core::{collectives, Hypercube, Machine, MachineCfg};
use ts_fpu::Sf64;
use ts_node::CombineOp;
use ts_sim::Rng;

/// Draw a fault plan confined to intra-shard dimensions (the parallel
/// backend's supported envelope; the sequential run applies the same plan).
fn draw_faults(rng: &mut Rng, dim: u32, shards: u32, n: usize) -> Vec<FaultEvent> {
    let local_bits = dim - shards.trailing_zeros();
    (0..n)
        .map(|_| {
            let node = rng.below(1u64 << dim) as u32;
            let d = rng.below(local_bits as u64) as u32;
            if rng.below(2) == 0 {
                FaultEvent::WireCorrupt {
                    node,
                    dim: d,
                    flit_bit: rng.below(32),
                }
            } else {
                FaultEvent::FlitDrop { node, dim: d }
            }
        })
        .collect()
}

fn check_equivalence(seed: u64, dim: u32, shards: u32, nfaults: usize) {
    let mut rng = Rng::new(seed);
    let faults = draw_faults(&mut rng, dim, shards, nfaults);
    let salt = rng.below(1000) as f64 / 7.0;
    let cube = Hypercube::new(dim);
    let program = move |ctx: ts_node::NodeCtx| async move {
        let id = ctx.id();
        let mine = vec![
            Sf64::from(id as f64 + salt),
            Sf64::from(1.0 / (1.0 + id as f64)),
            Sf64::from(1.0),
        ];
        collectives::allreduce(&ctx, cube, CombineOp::Add, mine).await
    };

    let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
    for f in &faults {
        f.apply(&m);
    }
    let handles = m.launch(program);
    assert!(m.run().quiescent, "sequential run stalled (seed {seed})");
    let seq_results: Vec<Vec<Sf64>> = handles
        .into_iter()
        .map(|h| h.try_take().expect("sequential result missing"))
        .collect();
    let seq_report = m.utilization_report();

    let run = run_parallel_faulted(
        MachineCfg::cube_small_mem(dim, 8),
        &ParallelCfg::new(shards),
        &faults,
        program,
    );
    assert!(
        run.quiescent,
        "parallel run stalled (seed {seed}, {shards} shards)"
    );
    assert_eq!(
        m.now(),
        run.final_time,
        "final time diverged (seed {seed}, dim {dim}, {shards} shards)"
    );
    let par_results: Vec<Vec<Sf64>> = run
        .results
        .iter()
        .map(|r| r.clone().expect("parallel result missing"))
        .collect();
    assert_eq!(
        seq_results, par_results,
        "node results diverged (seed {seed}, dim {dim}, {shards} shards)"
    );
    assert_eq!(
        seq_report,
        run.utilization_report(),
        "utilization report not byte-identical (seed {seed}, dim {dim}, {shards} shards)"
    );
}

#[test]
fn reports_match_without_faults() {
    for &(seed, dim, shards) in &[(11u64, 5u32, 2u32), (12, 5, 4), (13, 6, 2), (14, 6, 8)] {
        check_equivalence(seed, dim, shards, 0);
    }
}

#[test]
fn reports_match_with_seeded_fault_plans() {
    for &(seed, dim, shards, nfaults) in &[
        (21u64, 5u32, 2u32, 1usize),
        (22, 5, 2, 3),
        (23, 6, 4, 2),
        (24, 6, 2, 4),
        (25, 7, 4, 3),
    ] {
        check_equivalence(seed, dim, shards, nfaults);
    }
}

#[test]
fn one_shard_degenerates_to_sequential() {
    check_equivalence(31, 5, 1, 2);
}

#[test]
#[should_panic(expected = "cross-shard dimension")]
fn cross_shard_fault_is_rejected() {
    let cube = Hypercube::new(5);
    let _ = run_parallel_faulted(
        MachineCfg::cube_small_mem(5, 8),
        &ParallelCfg::new(4),
        // dim 4 is a cross-shard dimension when a 5-cube is split 4 ways.
        &[FaultEvent::FlitDrop { node: 31, dim: 4 }],
        move |ctx| async move {
            collectives::allreduce(&ctx, cube, CombineOp::Add, vec![Sf64::from(1.0)]).await
        },
    );
}

#[test]
#[should_panic(expected = "LinkDown")]
fn a_fault_kind_the_shards_cannot_plan_is_rejected() {
    let cube = Hypercube::new(4);
    let _ = run_parallel_faulted(
        MachineCfg::cube_small_mem(4, 8),
        &ParallelCfg::new(2),
        // An intra-shard edge, but a persistent link fault: only wire
        // corruptions and flit drops can be planned ahead of a sharded run.
        &[FaultEvent::LinkDown { node: 0, dim: 0 }],
        move |ctx| async move {
            collectives::allreduce(&ctx, cube, CombineOp::Add, vec![Sf64::from(1.0)]).await
        },
    );
}
