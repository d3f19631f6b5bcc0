//! End-to-end failure/recovery scenarios: the §III checkpoint machinery
//! protecting a real computation across a simulated node failure.

use fps_t_series::machine::checkpoint::{CheckpointStore, SnapshotMode};
use fps_t_series::machine::fault::{FaultEvent, FaultPlan};
use fps_t_series::machine::router::Router;
use fps_t_series::machine::supervisor::{Phase, Supervisor};
use fps_t_series::machine::{Machine, MachineCfg};
use fps_t_series::vector::VecForm;
use ts_fpu::Sf64;
use ts_mem::ROW_WORDS;
use ts_sim::Dur;

/// One "phase" of work: every node runs `sweeps` SAXPY passes over its
/// accumulator row (deterministic, state lives entirely in node memory).
fn run_phase(machine: &mut Machine, sweeps: usize) {
    machine.launch(move |ctx| async move {
        let rows_a = ctx.mem().cfg().rows_a();
        for _ in 0..sweeps {
            // acc (bank B row 0) += 1.0 * ones (bank A row 0)
            ctx.vec(VecForm::Saxpy(Sf64::from(1.0)), 0, rows_a, rows_a, 128)
                .await
                .unwrap();
        }
    });
    let r = machine.run();
    assert!(r.quiescent);
}

fn setup(machine: &mut Machine) {
    for node in &machine.nodes {
        let mut mem = node.mem_mut();
        let rows_a = mem.cfg().rows_a();
        for i in 0..128 {
            mem.write_f64(2 * i, Sf64::from(1.0)).unwrap(); // the ones vector
            mem.write_f64(rows_a * ROW_WORDS + 2 * i, Sf64::from(node.id as f64))
                .unwrap();
        }
    }
}

fn read_acc(machine: &Machine, node: usize, i: usize) -> f64 {
    let mem = machine.nodes[node].mem();
    let rows_a = mem.cfg().rows_a();
    mem.read_f64(rows_a * ROW_WORDS + 2 * i).unwrap().to_host()
}

#[test]
fn crash_restore_rerun_equals_uninterrupted_run() {
    // Reference: run 3 + 5 phases straight through.
    let mut reference = Machine::build(MachineCfg::cube_small_mem(3, 8));
    setup(&mut reference);
    run_phase(&mut reference, 3);
    run_phase(&mut reference, 5);
    let want: Vec<f64> = (0..8).map(|n| read_acc(&reference, n, 17)).collect();

    // Protected run: 3 phases, checkpoint, then a crash destroys phase-2
    // progress on one node. The machine "reboots" (fresh build — task
    // state does not survive a crash), restores the snapshot, reruns.
    let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
    setup(&mut m);
    run_phase(&mut m, 3);
    let mut store = CheckpointStore::new(m.nodes.len());
    let snap = m.checkpoint(&mut store, SnapshotMode::Full).unwrap();
    assert!(snap.duration > Dur::ZERO);
    // Phase 2 starts, then node 5 takes a memory fault partway through.
    run_phase(&mut m, 2); // partial work that will be lost
    m.nodes[5].mem_mut().inject_bit_flip(500, 9).unwrap();
    assert!(
        m.nodes[5].mem().read_word(500).is_err(),
        "parity must detect the fault"
    );

    // Reboot + restore + rerun phase 2 in full.
    let mut rebooted = Machine::build(MachineCfg::cube_small_mem(3, 8));
    let restore_t = rebooted.restore_from(&store).unwrap();
    assert!(restore_t > Dur::ZERO);
    run_phase(&mut rebooted, 5);

    let got: Vec<f64> = (0..8).map(|n| read_acc(&rebooted, n, 17)).collect();
    assert_eq!(got, want, "recovered run must equal the uninterrupted run");
    // And the values are what the arithmetic says: id + 8 sweeps.
    for (n, v) in got.iter().enumerate() {
        assert_eq!(*v, n as f64 + 8.0);
    }
}

#[test]
fn torn_checkpoint_is_discarded_and_recovery_uses_the_last_good_image() {
    // Two-version commit, end to end: a good checkpoint, then a crash
    // mid-stream of the next one. The staged (torn) version must be
    // discarded and recovery must replay from the last committed image —
    // never a blend of old and new rows.
    let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
    setup(&mut m);
    run_phase(&mut m, 3);
    let mut store = CheckpointStore::new(m.nodes.len());
    m.checkpoint(&mut store, SnapshotMode::Full).unwrap();
    let want: Vec<f64> = (0..8).map(|n| read_acc(&m, n, 17)).collect();

    run_phase(&mut m, 2); // progress the torn checkpoint would have saved
    let node = m.nodes[5].clone();
    let h = m.handle();
    m.handle().spawn(async move {
        h.sleep(Dur::ms(5)).await; // mid-stream of the 131 ms module stage
        node.crash();
    });
    assert!(
        m.checkpoint(&mut store, SnapshotMode::Full).is_err(),
        "a crash mid-stream must tear the checkpoint"
    );
    assert_eq!(store.epoch(), 1, "the staged version was discarded");
    assert_eq!(store.torn_aborts(), 1);

    // Reboot: a fresh machine restores the last committed image and
    // replays the lost phase in full.
    let mut rebooted = Machine::build(MachineCfg::cube_small_mem(3, 8));
    rebooted.restore_from(&store).unwrap();
    let got: Vec<f64> = (0..8).map(|n| read_acc(&rebooted, n, 17)).collect();
    assert_eq!(got, want, "recovery must see the last good image");
    run_phase(&mut rebooted, 5);
    for (n, v) in (0..8).map(|n| read_acc(&rebooted, n, 17)).enumerate() {
        assert_eq!(v, n as f64 + 8.0);
    }
}

#[test]
fn snapshot_overhead_accounts_in_simulated_time() {
    // The snapshot is not free: wall-clock of (work, snapshot, work) equals
    // the sum of its parts.
    let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
    setup(&mut m);
    run_phase(&mut m, 3);
    let t1 = m.now();
    let mut store = CheckpointStore::new(m.nodes.len());
    let snap = m.checkpoint(&mut store, SnapshotMode::Full).unwrap();
    let t2 = m.now();
    assert_eq!(t2.since(t1), snap.duration);
    run_phase(&mut m, 3);
    assert!(m.now() > t2);
}

#[test]
fn router_poison_shutdown_completes_after_scheduled_link_down() {
    // A cable dies while the fabric is idle; shutdown must still reach
    // every daemon — each is poisoned through its own loopback, so no
    // poison crosses the dead edge.
    let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
    let router = Router::start(&m);
    FaultPlan::new()
        .with(Dur::us(50), FaultEvent::LinkDown { node: 0, dim: 1 })
        .schedule(&m);
    let h = m.handle();
    let jh = m.handle().spawn(async move {
        h.sleep(Dur::us(100)).await; // let the fault land first
        router.shutdown().await
    });
    let r = m.run();
    assert!(r.quiescent, "shutdown must not hang on a degraded fabric");
    assert!(jh.try_take().is_some(), "every daemon stopped and reported");
    assert_eq!(m.registry().sum_counters("fault/link_down"), 1);
}

#[test]
fn supervisor_recovers_mem_flip_during_phase_two_bit_identically() {
    // The same job as crash_restore_rerun_equals_uninterrupted_run, but
    // the fault drill and the recovery are fully automatic: a bit flip
    // lands mid phase 2, the supervisor's patrol scan catches it, and the
    // reboot-restore-replay leaves memory bit-identical to the fault-free
    // reference.
    let cfg = MachineCfg::cube_small_mem(3, 8);
    let phases: Vec<Phase<'static>> = vec![
        Box::new(|m: &mut Machine| run_phase_async(m, 3)),
        Box::new(|m: &mut Machine| run_phase_async(m, 5)),
    ];
    let sup = Supervisor::new(cfg);

    let (ref_m, ref_rep) = sup
        .run_to_completion(setup, &phases, &FaultPlan::new())
        .unwrap();
    let want: Vec<f64> = (0..8).map(|n| read_acc(&ref_m, n, 17)).collect();
    assert_eq!(want, (0..8).map(|n| n as f64 + 8.0).collect::<Vec<_>>());

    // Position the flip in the middle of phase 2: job time = baseline
    // snapshot + phase 1 + half of phase 2, measured on a probe machine.
    let mut probe = Machine::build(cfg);
    setup(&mut probe);
    let mut probe_store = CheckpointStore::new(probe.nodes.len());
    let d0 = probe
        .checkpoint(&mut probe_store, SnapshotMode::Full)
        .unwrap()
        .duration;
    run_phase(&mut probe, 3);
    let t = probe.now();
    run_phase(&mut probe, 5);
    let p2 = probe.now().since(t);
    let flip_at = ref_rep.total - p2 + Dur::from_secs_f64(p2.as_secs_f64() / 2.0);
    assert!(flip_at > d0, "flip must land after the baseline snapshot");

    let rows_a = ref_m.nodes[0].mem().cfg().rows_a();
    let plan = FaultPlan::new().with(
        flip_at,
        FaultEvent::MemFlip {
            node: 5,
            addr: rows_a * ROW_WORDS + 34,
            bit: 13,
        },
    );
    let (m, rep) = sup.run_to_completion(setup, &phases, &plan).unwrap();
    let got: Vec<f64> = (0..8).map(|n| read_acc(&m, n, 17)).collect();
    assert_eq!(
        got, want,
        "auto-recovered run must equal the fault-free run"
    );
    assert_eq!(rep.reboots, 1);
    assert!(
        rep.rework > Dur::ZERO,
        "phase-2 progress was lost and replayed"
    );
    assert_eq!(
        m.nodes[5].mem().parity_errors(),
        0,
        "no latent corruption survives"
    );
}

/// Like [`run_phase`] but only launches — the supervisor drives the sim.
fn run_phase_async(machine: &mut Machine, sweeps: usize) {
    machine.launch(move |ctx| async move {
        let rows_a = ctx.mem().cfg().rows_a();
        for _ in 0..sweeps {
            if ctx
                .vec(VecForm::Saxpy(Sf64::from(1.0)), 0, rows_a, rows_a, 128)
                .await
                .is_err()
            {
                return;
            }
        }
    });
}

#[test]
fn utilization_report_reflects_the_run() {
    let mut m = Machine::build(MachineCfg::cube_small_mem(2, 8));
    setup(&mut m);
    run_phase(&mut m, 4);
    let report = m.utilization_report();
    assert!(report.contains("node"), "{report}");
    // 4 nodes × 4 sweeps × 256 flops.
    assert_eq!(m.registry().sum_counters("vec/flops"), 4 * 4 * 256);
    assert!(report.contains("MFLOPS achieved"));
    // Vector utilization is >0% and ≤100% on every line.
    for line in report.lines().skip(1).take(4) {
        let pct: f64 = line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(pct > 0.0 && pct <= 100.0, "{line}");
    }
}
