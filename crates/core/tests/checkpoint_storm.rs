//! Checkpoint-storm soak: the tentpole robustness drill at scale.
//!
//! A dim-8 machine (256 nodes, 32 modules) runs a phased vector workload
//! under a storm of faults aimed at checkpoints in flight: node crashes
//! mid-stream, a disk controller failing while its module stages, and a
//! system-ring flap across the commit wave. The contract under test is
//! the two-version store: a torn checkpoint is *discarded* — recovery
//! always replays from the last committed image and the final memory is
//! bit-identical to a fault-free reference. Torn aborts are expected;
//! torn *restores* never happen.

use t_series_core::checkpoint::{CheckpointStore, SnapshotMode};
use t_series_core::{Machine, MachineCfg};
use ts_fpu::Sf64;
use ts_mem::ROW_WORDS;
use ts_sim::Dur;
use ts_vec::VecForm;

const DIM: u32 = 8;
const PHASES: [usize; 5] = [3, 2, 4, 1, 5];

fn build() -> Machine {
    Machine::build(MachineCfg::cube_small_mem(DIM, 8))
}

fn setup(m: &mut Machine) {
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

/// One phase: every node runs `sweeps` SAXPY passes over its accumulator
/// row. Deterministic; all state lives in node memory.
fn run_phase(m: &mut Machine, sweeps: usize) {
    m.launch(move |ctx| async move {
        let rows_a = ctx.mem().cfg().rows_a();
        for _ in 0..sweeps {
            ctx.vec(VecForm::Saxpy(Sf64::from(1.0)), 0, rows_a, rows_a, 128)
                .await
                .unwrap();
        }
    });
    assert!(m.run().quiescent, "phase deadlocked");
}

/// FNV-1a digest over every node's full memory image.
fn digest(m: &Machine) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for node in &m.nodes {
        for w in node.mem().snapshot() {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

/// The fault armed against one round's checkpoint, all timed to land
/// while the snapshot is in flight: a one-row delta drains a node's
/// system thread in ~2 ms, so crashes strike inside that window and the
/// disk dies while the staged payloads still queue on it.
enum Storm {
    None,
    /// `node`'s CP halts mid-stream: the checkpoint tears.
    Crash(u32, Dur),
    /// `module`'s disk controller dies mid-stage: the checkpoint tears.
    DiskFault(usize, Dur),
    /// `module`'s ring link flaps: the commit wave waits it out, no tear.
    RingFlap(usize, Dur),
}

fn arm(m: &Machine, storm: &Storm) {
    match *storm {
        Storm::None => {}
        Storm::Crash(node, at) => {
            let n = m.nodes[node as usize].clone();
            let h = m.handle();
            m.handle().spawn(async move {
                h.sleep(at).await;
                n.crash();
            });
        }
        Storm::DiskFault(module, at) => {
            let disk = m.boards[module].disk.clone();
            let h = m.handle();
            m.handle().spawn(async move {
                h.sleep(at).await;
                disk.fail();
            });
        }
        Storm::RingFlap(module, down_for) => {
            m.faults().ring_flap(module, down_for);
        }
    }
}

#[test]
fn checkpoint_storm_heals_bit_identically_with_zero_torn_restores() {
    // Fault-free reference: the same phases straight through.
    let mut reference = build();
    setup(&mut reference);
    for sweeps in PHASES {
        run_phase(&mut reference, sweeps);
    }
    let want = digest(&reference);

    // Storm run: checkpoint after every phase, with a fault aimed at
    // three of the five checkpoints (and one benign ring flap).
    let storms = [
        Storm::None,
        Storm::Crash(37, Dur::us(500)),
        Storm::DiskFault(7, Dur::ms(3)),
        Storm::RingFlap(3, Dur::ms(40)),
        Storm::Crash(200, Dur::us(700)),
    ];
    let mut m = build();
    setup(&mut m);
    let mut store = CheckpointStore::new(m.nodes.len());
    m.checkpoint(&mut store, SnapshotMode::Full)
        .expect("baseline checkpoint");
    let mut commits = 1u64;
    let mut torn = 0u64;

    for (sweeps, storm) in PHASES.into_iter().zip(&storms) {
        run_phase(&mut m, sweeps);
        arm(&m, storm);
        match m.checkpoint(&mut store, SnapshotMode::Delta) {
            Ok(_) => commits += 1,
            Err(_) => {
                torn += 1;
                assert_eq!(
                    store.epoch(),
                    commits,
                    "a torn checkpoint must not advance the committed epoch"
                );
                // Reboot: fresh machine, restore the last committed image
                // (never the torn one), replay the lost phase in full.
                m = build();
                m.restore_from(&store).expect("zero committed versions");
                run_phase(&mut m, sweeps);
                m.checkpoint(&mut store, SnapshotMode::Delta)
                    .expect("retry after recovery must commit");
                commits += 1;
            }
        }
    }

    let got = digest(&m);
    if got != want {
        // CI uploads this dump as the failure artifact.
        let path =
            std::env::var("CKPT_STORM_DUMP").unwrap_or_else(|_| "checkpoint_storm_dump.txt".into());
        let text = format!(
            "# checkpoint storm divergence (dim {DIM})\n\
             want digest {want:#018x}\ngot digest  {got:#018x}\n\
             commits {commits}\ntorn aborts {torn}\nstore epoch {}\n\
             bytes streamed {}\nbytes full-equiv {}\n",
            store.epoch(),
            store.bytes_streamed(),
            store.bytes_full_equiv(),
        );
        let _ = std::fs::write(&path, &text);
        panic!("storm-recovered memory diverged from the fault-free run; dump written to {path}:\n{text}");
    }
    assert_eq!(torn, 3, "two crashes and a disk fault tear their rounds");
    assert_eq!(store.torn_aborts(), 3);
    assert_eq!(store.epoch(), commits, "every commit advanced one epoch");
    // The deltas earn their keep: each phase dirties one row of eight, so
    // the streamed bytes sit well under the full-image equivalent.
    assert!(
        store.bytes_streamed() < store.bytes_full_equiv() / 2,
        "deltas must stream fewer bytes than full images ({} vs {})",
        store.bytes_streamed(),
        store.bytes_full_equiv()
    );
    // The damage is visible in the counters, not the results.
    let met = m.registry();
    assert_eq!(
        met.get_counter("machine/ckpt/torn_aborts").unwrap_or(0),
        0,
        "fresh machine after reboot"
    );
    assert!(m.utilization_report().contains("checkpoint I/O"));
}
