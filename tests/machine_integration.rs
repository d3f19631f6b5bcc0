//! Cross-crate integration tests: whole-machine scenarios that span the
//! simulator kernel, node hardware, network, system layer and kernels.

use fps_t_series::kernels::{
    fft::{distributed_fft, reference_dft},
    lu::{distributed_lu, reconstruction_error},
    matmul::{distributed_matmul, reference_matmul},
    sort::distributed_sort,
    stencil::{distributed_jacobi, reference_jacobi},
};
use fps_t_series::machine::checkpoint::{CheckpointStore, SnapshotMode};
use fps_t_series::machine::{collectives, Machine, MachineCfg};
use fps_t_series::node::CombineOp;
use ts_fpu::Sf64;
use ts_sim::Dur;

fn small(dim: u32) -> Machine {
    Machine::build(MachineCfg::cube_small_mem(dim, 8))
}

#[test]
fn all_kernels_verify_on_a_16_node_cabinet() {
    // One cabinet (4-cube), every kernel, numerics checked end to end.
    {
        let mut m = Machine::build(MachineCfg::cube(4));
        let (a, b, c, _) = distributed_matmul(&mut m, 16, 1);
        let want = reference_matmul(16, &a, &b);
        for (got, w) in c.iter().zip(&want) {
            assert!((got - w).abs() <= 1e-12 * w.abs().max(1.0));
        }
    }
    {
        let mut m = small(4);
        let input: Vec<(f64, f64)> = (0..64).map(|i| ((i as f64).sin(), 0.0)).collect();
        let (got, _) = distributed_fft(&mut m, &input);
        let want = reference_dft(&input);
        for (&(gr, gi), &(wr, wi)) in got.iter().zip(&want) {
            assert!((gr - wr).abs() < 1e-9 && (gi - wi).abs() < 1e-9);
        }
    }
    {
        let mut m = Machine::build(MachineCfg::cube(4));
        let (a, perm, lu, _) = distributed_lu(&mut m, 32, 2);
        assert!(reconstruction_error(32, &a, &perm, &lu) < 1e-10);
    }
    {
        let mut m = small(4);
        let (sorted, _) = distributed_sort(&mut m, 256, 3);
        for w in sorted.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }
    {
        let mut m = small(4);
        let init: Vec<f64> = (0..(4 * 4) * (4 * 4)).map(|i| (i % 7) as f64).collect();
        let (got, _) = distributed_jacobi(&mut m, 4, 4, &init);
        let want = reference_jacobi(16, 16, 4, &init);
        for (&a, &b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}

#[test]
fn simulation_is_deterministic_end_to_end() {
    // Same program, two fresh machines: identical final clock, metrics and
    // numeric results — the repository's foundational invariant.
    let run = || {
        let mut m = small(3);
        let cube = m.cube;
        let handles = m.launch(move |ctx| async move {
            let mine = vec![Sf64::from(ctx.id() as f64 + 0.25)];
            let sum = collectives::allreduce(&ctx, cube, CombineOp::Add, mine).await;
            collectives::barrier(&ctx, cube).await;
            sum[0].to_bits()
        });
        let report = m.run();
        assert!(report.quiescent);
        let results: Vec<u64> = handles.into_iter().map(|h| h.try_take().unwrap()).collect();
        (
            m.now(),
            report.events,
            results,
            m.registry().sum_counters("link/bytes_sent"),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn balance_ratio_1_13_130_holds_in_the_simulator() {
    // §II: arithmetic : gather : link ≈ 0.125 µs : 1.6 µs : 16 µs.
    // Measure all three from one machine.
    let mut m = Machine::build(MachineCfg::cube(1));
    let ctx0 = m.ctx(0);
    let jh = m.launch_on(0, async move {
        // 1000 64-bit arithmetic results through the vector pipe.
        let t0 = ctx0.now();
        let r = ctx0
            .vec(ts_vec::VecForm::VAdd, 0, 256, 512, 1000)
            .await
            .unwrap();
        let arith_per_op = r.timing.duration.as_secs_f64() / 1000.0;
        let _ = t0;
        // 1000 gathered 64-bit elements.
        let t1 = ctx0.now();
        let srcs: Vec<usize> = (0..1000).map(|i| 4096 + 4 * i).collect();
        ctx0.gather64(&srcs, 2048).await.unwrap();
        let gather_per = ctx0.now().since(t1).as_secs_f64() / 1000.0;
        // 1000 64-bit words over one link.
        let t2 = ctx0.now();
        ctx0.send_f64s(0, &vec![Sf64::ZERO; 1000]).await;
        let link_per = ctx0.now().since(t2).as_secs_f64() / 1000.0;
        (arith_per_op, gather_per, link_per)
    });
    let ctx1 = m.ctx(1);
    m.launch_on(1, async move {
        ctx1.recv_f64s(0).await;
    });
    assert!(m.run().quiescent);
    let (arith, gather, link) = jh.try_take().unwrap();
    let r_gather = gather / arith;
    let r_link = link / arith;
    assert!(
        (11.0..15.0).contains(&r_gather),
        "gather/arith = {r_gather}"
    );
    assert!((115.0..145.0).contains(&r_link), "link/arith = {r_link}");
}

#[test]
fn overlap_rule_thirteen_ops_hides_gather() {
    // §II: "a vector should enter into about 13 operations while gathering
    // the next vector" — with ≥13 vector ops per gathered vector the CP
    // gather disappears behind the arithmetic.
    let ops_time = |k: usize| {
        let mut m = Machine::build(MachineCfg::cube(0));
        let ctx = m.ctx(0);
        let jh = m.launch_on(0, async move {
            const N: usize = 128;
            let rows_a = ctx.mem().cfg().rows_a();
            for round in 0..8 {
                // Issue k vector ops on the current vector...
                let mut done = ctx.now();
                for i in 0..k {
                    let form = ts_vec::VecForm::Saxpy(Sf64::from(1.0));
                    done = ctx
                        .issue_vec(form, (round + i) % 4, rows_a, rows_a, N)
                        .unwrap()
                        .1;
                }
                // ...while gathering the next one.
                let srcs: Vec<usize> = (0..N).map(|i| 8192 + 4 * i).collect();
                ctx.gather64(&srcs, 1024).await.unwrap();
                ctx.wait(done).await;
            }
            ctx.now()
        });
        m.run();
        jh.try_take().unwrap().as_secs_f64() / 8.0
    };
    let t1 = ops_time(1); // gather dominates
    let t13 = ops_time(13); // balanced
    let t26 = ops_time(26); // arithmetic dominates
                            // At k=1 the round costs ≈ the gather (205 µs); at k=13 the arithmetic
                            // (13 × ~18 µs ≈ 232 µs) just covers it; doubling k doubles time.
    assert!(t1 < t13 * 1.02, "t1 {t1} vs t13 {t13}");
    let ratio = t26 / t13;
    assert!(
        (1.7..2.2).contains(&ratio),
        "arithmetic-bound regime should scale with k: {ratio}"
    );
    // Efficiency: at k=13, vector-busy time ≈ wall-clock (gather hidden).
    assert!(t13 < 2.0 * t1, "13 ops should roughly match one gather");
}

#[test]
fn snapshot_is_about_15_seconds_with_full_memory() {
    // §III: "It takes about 15 seconds to take a snapshot, regardless of
    // configuration." Full 1 MB nodes, one module: 8 MB over the 0.5 MB/s
    // system thread ≈ 16 s of simulated time.
    let mut m = Machine::build(MachineCfg::cube(3));
    let mut store = CheckpointStore::new(m.nodes.len());
    let snap = m.checkpoint(&mut store, SnapshotMode::Full).unwrap();
    let secs = snap.duration.as_secs_f64();
    assert!((14.0..19.0).contains(&secs), "snapshot took {secs} s");
}

#[test]
fn cube_scales_where_shared_bus_saturates() {
    use fps_t_series::machine::baseline::SharedBusMachine;
    // Run a genuinely parallel workload (per-node SAXPY, no communication)
    // on 1..16 nodes; achieved MFLOPS must scale ~linearly, unlike the bus
    // model at the same processor counts.
    let mut rates = Vec::new();
    for dim in [0u32, 2, 4] {
        let mut m = Machine::build(MachineCfg::cube(dim));
        m.launch(|ctx| async move {
            let rows_a = ctx.mem().cfg().rows_a();
            for _ in 0..32 {
                ctx.vec(
                    ts_vec::VecForm::Saxpy(Sf64::from(2.0)),
                    0,
                    rows_a,
                    rows_a,
                    1024,
                )
                .await
                .unwrap();
            }
        });
        assert!(m.run().quiescent);
        rates.push(m.achieved_mflops());
    }
    assert!(rates[1] / rates[0] > 3.9, "4-node scaling {:?}", rates);
    assert!(rates[2] / rates[0] > 15.6, "16-node scaling {:?}", rates);
    // The bus baseline is flat from 1 processor on.
    let bus = |p| SharedBusMachine {
        processors: p,
        bus_bytes_per_s: 100.0e6,
        demand_bytes_per_s: 192.0e6,
        peak_mflops_per_proc: 16.0,
    };
    assert!(bus(16).achieved_mflops() / bus(1).achieved_mflops() < 1.01);
}

#[test]
fn parity_fault_then_restore_recovers_a_computation() {
    let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
    // Phase 1: compute something into every node's memory.
    let handles = m.launch(|ctx| async move {
        let v = Sf64::from(ctx.id() as f64 * 3.5);
        ctx.mem_mut().write_f64(40, v).unwrap();
        ctx.cp_compute(100).await;
    });
    m.run();
    drop(handles);
    // Checkpoint.
    let mut store = CheckpointStore::new(m.nodes.len());
    m.checkpoint(&mut store, SnapshotMode::Full).unwrap();
    // A fault corrupts node 6 behind parity's back.
    m.nodes[6].mem_mut().inject_bit_flip(40, 13).unwrap();
    assert!(m.nodes[6].mem().read_f64(40).is_err(), "parity must trip");
    // Restore and verify every node.
    m.restore_from(&store).unwrap();
    for (i, node) in m.nodes.iter().enumerate() {
        assert_eq!(node.mem().read_f64(40).unwrap().to_host(), i as f64 * 3.5);
    }
}

#[test]
fn ring_distribution_scales_with_module_count() {
    use fps_t_series::machine::system::ring_distribute;
    // Program loading over the system ring is O(#modules + size), unlike
    // the O(log p) cube broadcast — the structural cost of the independent
    // ring (§III; experiment E14).
    let time_for = |dim: u32| {
        let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
        let boards = m.boards.clone();
        let h = m.handle();
        let t0 = m.now();
        h.spawn(async move {
            ring_distribute(&boards, vec![0u32; 4096]).await;
        });
        assert!(m.run().quiescent);
        m.now().since(t0)
    };
    let t2 = time_for(4); // 2 modules
    let t8 = time_for(6); // 8 modules
    assert!(t8 > t2, "more ring hops must cost more: {t2} vs {t8}");
    // Store-and-forward pipeline: roughly (M-1) chunk delays + payload.
    let ratio = t8.as_secs_f64() / t2.as_secs_f64();
    assert!(ratio < 8.0, "pipelining keeps it sub-linear: {ratio}");
}

#[test]
fn gather_contends_with_link_dma_on_the_word_port() {
    // §II: "With all links operating, the control processor performance is
    // degraded only slightly." Gather while a link DMA is storing into the
    // same memory: the port serializes, but the impact is small.
    let solo = {
        let mut m = Machine::build(MachineCfg::cube(1));
        let ctx = m.ctx(0);
        let jh = m.launch_on(0, async move {
            let srcs: Vec<usize> = (0..512).map(|i| 4096 + 4 * i).collect();
            let t0 = ctx.now();
            ctx.gather64(&srcs, 1024).await.unwrap();
            ctx.now().since(t0)
        });
        m.run();
        jh.try_take().unwrap()
    };
    assert_eq!(solo, Dur::ns(512 * 1600));
}

#[test]
fn one_gflops_configuration_runs_at_scale() {
    // The paper's "four-cabinet" machine: 64 full-memory nodes, 1 GFLOPS
    // peak. Run a long SAXPY on every node and verify the aggregate rate
    // approaches the advertised gigaflop.
    let mut m = Machine::build(MachineCfg::cube(6));
    assert_eq!(m.cfg().specs().peak_mflops, 1024.0);
    m.launch(|ctx| async move {
        let rows_a = ctx.mem().cfg().rows_a();
        for _ in 0..4 {
            ctx.vec(
                ts_vec::VecForm::Saxpy(Sf64::from(1.5)),
                0,
                rows_a,
                rows_a,
                8192,
            )
            .await
            .unwrap();
        }
    });
    assert!(m.run().quiescent);
    let gf = m.achieved_mflops() / 1000.0;
    assert!(gf > 0.98 && gf <= 1.024, "achieved {gf} GFLOPS");
}

#[test]
fn large_cube_collectives_smoke() {
    // 128 nodes (7-cube) with reduced memory: all-reduce + barrier complete
    // deterministically.
    let run = || {
        let mut m = Machine::build(MachineCfg::cube_small_mem(7, 8));
        let cube = m.cube;
        let handles = m.launch(move |ctx| async move {
            let v = collectives::allreduce(&ctx, cube, CombineOp::Add, vec![Sf64::from(1.0)]).await;
            collectives::barrier(&ctx, cube).await;
            v[0].to_host()
        });
        let r = m.run();
        assert!(r.quiescent);
        for h in handles {
            assert_eq!(h.try_take(), Some(128.0));
        }
        m.now()
    };
    assert_eq!(run(), run());
}
