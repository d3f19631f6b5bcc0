//! End-to-end resilience: a deterministic fault plan kills a link and
//! crashes a node mid-run, and the self-healing supervisor still delivers
//! results bit-identical to a fault-free run — reproducibly.

use fps_t_series::machine::checkpoint::{CheckpointStore, SnapshotMode};
use fps_t_series::machine::fault::{FaultEvent, FaultPlan};
use fps_t_series::machine::router::Router;
use fps_t_series::machine::supervisor::{Phase, Supervisor, SupervisorReport};
use fps_t_series::machine::{Machine, MachineCfg};
use fps_t_series::vector::VecForm;
use ts_fpu::Sf64;
use ts_mem::ROW_WORDS;
use ts_sim::Dur;

fn cfg() -> MachineCfg {
    MachineCfg::cube_small_mem(3, 8)
}

/// Bank-B row 0: the accumulator the compute phases sweep.
fn acc_addr(m: &Machine) -> usize {
    m.nodes[0].mem().cfg().rows_a() * ROW_WORDS
}

/// Bank-B row 1: where the exchange phase stores the received word.
fn inbox_addr(m: &Machine) -> usize {
    acc_addr(m) + ROW_WORDS
}

fn seed(m: &mut Machine) {
    for node in &m.nodes {
        let mut mem = node.mem_mut();
        let rows_a = mem.cfg().rows_a();
        for i in 0..128 {
            mem.write_f64(2 * i, Sf64::from(1.0)).unwrap();
            mem.write_f64(rows_a * ROW_WORDS + 2 * i, Sf64::from(node.id as f64))
                .unwrap();
        }
    }
}

/// `sweeps` SAXPY passes (acc += ones) on every node.
fn compute_phase(sweeps: usize) -> Phase<'static> {
    Box::new(move |m: &mut Machine| {
        m.launch(move |ctx| async move {
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
    })
}

/// Every node routes one word to its cube-opposite through the e-cube
/// fabric; the receiver stores it in node memory. Uses the router, so a
/// dead link mid-path forces reroutes but not data loss.
fn exchange_phase() -> Phase<'static> {
    Box::new(|m: &mut Machine| {
        let router = Router::start(m);
        let n = m.nodes.len() as u32;
        let mask = n - 1;
        let handles: Vec<_> = (0..n).map(|i| router.handle(i)).collect();
        let nodes: Vec<_> = m.nodes.to_vec();
        let inbox = inbox_addr(m);
        m.launch_on(0, async move {
            // Sends may fail if a fault lands mid-phase; the supervisor
            // detects the fault and replays this whole phase, so errors
            // are simply ignored here.
            for (i, h) in handles.iter().enumerate() {
                let _ = h.send_to(i as u32 ^ mask, vec![100 + i as u32]).await;
            }
            for (i, h) in handles.iter().enumerate() {
                let (src, words) = h.recv().await;
                let v = Sf64::from((words[0] + src) as f64);
                nodes[i].mem_mut().write_f64(inbox, v).unwrap();
            }
            router.shutdown().await;
        });
    })
}

fn phases() -> Vec<Phase<'static>> {
    vec![compute_phase(3), exchange_phase(), compute_phase(2)]
}

/// Final per-node results: (accumulator word 17, exchanged word).
fn results(m: &Machine) -> Vec<(f64, f64)> {
    let (acc, inbox) = (acc_addr(m), inbox_addr(m));
    m.nodes
        .iter()
        .map(|n| {
            let mem = n.mem();
            (
                mem.read_f64(acc + 34).unwrap().to_host(),
                mem.read_f64(inbox).unwrap().to_host(),
            )
        })
        .collect()
}

/// Job timeline without faults or supervisor: the baseline snapshot cost
/// and each phase's duration. Pins fault times to the middle of specific
/// phases.
fn probe_times() -> (Dur, [Dur; 3]) {
    let mut m = Machine::build(cfg());
    seed(&mut m);
    let mut store = CheckpointStore::new(m.nodes.len());
    let d0 = m
        .checkpoint(&mut store, SnapshotMode::Full)
        .unwrap()
        .duration;
    let mut durations = [Dur::ZERO; 3];
    for (phase, d) in phases().iter().zip(&mut durations) {
        let t = m.now();
        phase(&mut m);
        assert!(m.run().quiescent, "phases must quiesce fault-free");
        *d = m.now().since(t);
    }
    (d0, durations)
}

/// The plan under test: one broken cable during the first compute phase,
/// one node crash in the middle of the routed exchange.
fn plan() -> FaultPlan {
    let (d0, [p0, p1, _]) = probe_times();
    FaultPlan::new()
        .with(
            d0 + Dur::from_secs_f64(p0.as_secs_f64() / 2.0),
            FaultEvent::LinkDown { node: 1, dim: 0 },
        )
        .with(
            d0 + p0 + Dur::from_secs_f64(p1.as_secs_f64() / 2.0),
            FaultEvent::NodeCrash { node: 6 },
        )
}

fn healed_run(plan: &FaultPlan) -> (Machine, SupervisorReport) {
    Supervisor::new(cfg())
        .run_to_completion(seed, &phases(), plan)
        .unwrap()
}

#[test]
fn link_kill_plus_node_crash_heals_bit_identically() {
    let (ref_m, ref_rep) = Supervisor::new(cfg())
        .run_to_completion(seed, &phases(), &FaultPlan::new())
        .unwrap();
    let want = results(&ref_m);
    // The probe measures the timeline the supervisor actually runs: the
    // baseline checkpoint (ring commit included), then the phases.
    let (d0, [p0, p1, p2]) = probe_times();
    assert_eq!(ref_rep.total, d0 + p0 + p1 + p2);
    // Sanity on the reference itself: acc = id + 5 sweeps, inbox carries
    // the opposite node's greeting (100 + src) + src.
    for (i, (acc, inbox)) in want.iter().enumerate() {
        assert_eq!(*acc, i as f64 + 5.0);
        let src = i as u32 ^ 7;
        assert_eq!(*inbox, (100 + src + src) as f64);
    }

    let plan = plan();
    let (m, rep) = healed_run(&plan);
    assert_eq!(results(&m), want, "healed results must be bit-identical");
    assert_eq!(rep.reboots, 1, "only the crash needs a reboot");
    assert_eq!(rep.faults.len(), 2, "{:?}", rep.faults);
    assert!(rep.rework > Dur::ZERO);
    assert!(!m.faults().is_link_up(1, 0), "the cable stays broken");
    // The replayed exchange ran on a degraded fabric: the router had to
    // detour around the dead edge, and counted it.
    assert!(
        m.registry().sum_counters("router/reroutes") >= 1,
        "{}",
        m.utilization_report()
    );
    // The post-mortem report tells the whole story.
    let post_mortem = m.utilization_report();
    assert!(post_mortem.contains("faults: 1 link down"), "{post_mortem}");
    assert!(post_mortem.contains("reroutes"), "{post_mortem}");
    assert!(
        post_mortem.contains("recovery: 1 snapshots, 1 reboots"),
        "{post_mortem}"
    );
}

#[test]
fn the_same_plan_reproduces_the_same_healed_run() {
    let plan = plan();
    let (m1, r1) = healed_run(&plan);
    let (m2, r2) = healed_run(&plan);
    assert_eq!(r1.faults, r2.faults, "identical fault times");
    assert_eq!(r1.total, r2.total, "identical total job time");
    assert_eq!(r1.reboots, r2.reboots);
    assert_eq!(results(&m1), results(&m2));
    assert_eq!(
        m1.registry().sum_counters("router/reroutes"),
        m2.registry().sum_counters("router/reroutes"),
        "identical reroute counts"
    );
}

#[test]
fn generated_plans_are_reproducible_end_to_end() {
    // A fully seeded drill: whatever faults the seed draws, two runs of
    // the same seed agree exactly. (Faults drawn beyond the job's end
    // simply never fire.)
    let mem_words = Machine::build(cfg()).nodes[0].mem().cfg().words();
    let plan = FaultPlan::generate(0xF00D, 3, mem_words, 3, Dur::ms(700));
    let run = || {
        Supervisor::new(cfg())
            .max_reboots(8)
            .run_to_completion(seed, &phases(), &plan)
    };
    match (run(), run()) {
        (Ok((m1, r1)), Ok((m2, r2))) => {
            assert_eq!(r1.faults, r2.faults);
            assert_eq!(r1.total, r2.total);
            assert_eq!(results(&m1), results(&m2));
        }
        (Err(e1), Err(e2)) => assert_eq!(e1, e2, "even failures must reproduce"),
        (a, b) => panic!(
            "runs diverged: {:?} vs {:?}",
            a.as_ref().map(|(_, r)| r.reboots),
            b.as_ref().map(|(_, r)| r.reboots)
        ),
    }
}
