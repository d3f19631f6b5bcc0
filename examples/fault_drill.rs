//! A fault drill: a deterministic plan breaks the machine mid-run — a
//! cable dies, a node crashes, a memory bit flips — and the self-healing
//! supervisor delivers results bit-identical to a fault-free run anyway.
//!
//! ```text
//! cargo run --release --example fault_drill
//! ```

use fps_t_series::machine::checkpoint::{CheckpointStore, SnapshotMode};
use fps_t_series::machine::fault::{FaultEvent, FaultPlan};
use fps_t_series::machine::supervisor::{Phase, Supervisor};
use fps_t_series::machine::{Machine, MachineCfg};
use fps_t_series::vector::VecForm;
use ts_fpu::Sf64;
use ts_mem::ROW_WORDS;
use ts_sim::Dur;

fn cfg() -> MachineCfg {
    MachineCfg::cube_small_mem(3, 8)
}

/// Seed each node: a ones vector in bank A, an id-valued accumulator in
/// bank B.
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

/// One phase: every node runs `sweeps` SAXPY passes (acc += ones).
fn phase(sweeps: usize) -> Phase<'static> {
    Box::new(move |m: &mut Machine| {
        m.launch(move |ctx| async move {
            let rows_a = ctx.mem().cfg().rows_a();
            for _ in 0..sweeps {
                if ctx
                    .vec(VecForm::Saxpy(Sf64::from(1.0)), 0, rows_a, rows_a, 128)
                    .await
                    .is_err()
                {
                    return; // parity fault: the supervisor will catch it
                }
            }
        });
    })
}

fn accs(m: &Machine) -> Vec<f64> {
    let rows_a = m.nodes[0].mem().cfg().rows_a();
    m.nodes
        .iter()
        .map(|n| n.mem().read_f64(rows_a * ROW_WORDS).unwrap().to_host())
        .collect()
}

fn main() {
    let phases: Vec<Phase<'static>> = vec![phase(3), phase(5), phase(2)];
    let sup = Supervisor::new(cfg());

    // Reference: the same job with nothing going wrong.
    let (ref_m, ref_rep) = sup
        .run_to_completion(seed, &phases, &FaultPlan::new())
        .unwrap();
    println!(
        "fault-free run: {} job time, results {:?}",
        ref_rep.total,
        accs(&ref_m)
    );

    // The drill: a broken cable early, a node crash and a flipped bit
    // later — all at exact, reproducible simulated times inside the
    // compute window (after the baseline checkpoint, before job end).
    let d0 = {
        let mut m = Machine::build(cfg());
        seed(&mut m);
        let mut store = CheckpointStore::new(m.nodes.len());
        m.checkpoint(&mut store, SnapshotMode::Full)
            .unwrap()
            .duration
    };
    let work = ref_rep.total.saturating_sub(d0).as_secs_f64();
    let at = |f: f64| d0 + Dur::from_secs_f64(work * f);
    let plan = FaultPlan::new()
        .with(at(0.25), FaultEvent::LinkDown { node: 1, dim: 2 })
        .with(at(0.55), FaultEvent::NodeCrash { node: 5 })
        .with(
            at(0.9),
            FaultEvent::MemFlip {
                node: 2,
                addr: 64,
                bit: 9,
            },
        );
    println!("\nfault plan:");
    for f in plan.iter() {
        println!("  t={:<12} {}", format!("{}", f.at), f.event);
    }

    let (m, rep) = sup.run_to_completion(seed, &phases, &plan).unwrap();
    println!(
        "\nsurvived: {} reboots, {} snapshots, {} rework",
        rep.reboots, rep.snapshots, rep.rework
    );
    for line in &rep.faults {
        println!("  injected {line}");
    }
    println!("healed run: {} job time, results {:?}", rep.total, accs(&m));

    assert_eq!(
        accs(&m),
        accs(&ref_m),
        "healed results must be bit-identical"
    );
    println!("\nresults are bit-identical to the fault-free run");
    println!("\npost-mortem:\n{}", m.utilization_report());
}
