//! `recovery_storm` — the link slow path and the checkpoint stack.
//!
//! Rounds of compute (allreduce, a small Cannon matmul, a routed exchange)
//! run under seeded transient link faults (wire-corrupt, flit-drop,
//! link-flap) armed afresh every round, each round's results land in node
//! memory, and a
//! delta `Machine::checkpoint` follows every round. On every
//! `crash_every`-th round a seed-chosen node crashes mid-snapshot: the torn
//! checkpoint is discarded, the machine reboots, `restore_from` streams the
//! last committed version back and the round is replayed. What is left in
//! node memory at the end must equal the closed forms and host references.
//!
//! It is the write-side twin of `collective_storm` for `ts-link` (CRC and
//! go-back-N retransmit instead of the healthy path) and the only workload
//! that exercises `core::checkpoint`, the system ring, disks and restore.

use std::rc::Rc;

use fps_t_series::fpu::Sf64;
use fps_t_series::kernels::matmul;
use fps_t_series::machine::checkpoint::{CheckpointStats, CheckpointStore, SnapshotMode};
use fps_t_series::machine::fault::FaultPlan;
use fps_t_series::machine::{collectives, Machine, MachineCfg, MachineError};
use fps_t_series::mem::ROW_WORDS;
use fps_t_series::node::CombineOp;
use fps_t_series::sim::{Dur, Rng};

use super::closed_form::{Contributions, AR_VALUES};
use super::routed::{self, RoutedPlan};
use super::{Checks, RepCtx, RepOut, Workload};
use crate::alloc;
use crate::census::Census;
use crate::spans::Spans;
use crate::stats::Fnv;

const ROUTED_WORDS: usize = 8;
/// Memory rows per node (`cube_small_mem(dim, 8)`).
const MEM_ROWS: usize = 8;
/// Words one round owns in every node's memory: sums, a slice of C, inbox.
const SLOT_WORDS: usize = 64;
/// Simulated delay between a doomed snapshot's start and the crash: well
/// inside the ~2 ms a single dirty row needs on the system thread.
const CRASH_AFTER: Dur = Dur::us(500);

struct Sizes {
    dim: u32,
    rounds: u32,
    matmul_n: usize,
    crash_every: u32,
    /// Transient faults armed per round, at seeded instants inside
    /// `fault_window` of the round's matmul (its longest phase; a window
    /// outlasting the phase would only advance the idle clock).
    faults_per_round: usize,
    fault_window: Dur,
}

/// The issue's sizes: 32 rounds, a seeded crash every eighth, so four torn
/// checkpoints and four restores in every repetition.
fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            dim: 4,
            rounds: 4,
            matmul_n: 16,
            crash_every: 2,
            faults_per_round: 2,
            fault_window: Dur::us(1_500),
        }
    } else {
        Sizes {
            dim: 6,
            rounds: 32,
            matmul_n: 32,
            crash_every: 8,
            faults_per_round: 3,
            fault_window: Dur::ms(3),
        }
    }
}

fn sizes_table(quick: bool) -> Vec<(&'static str, f64)> {
    let s = sizes(quick);
    vec![
        ("dim", s.dim as f64),
        ("nodes", (1u64 << s.dim) as f64),
        ("rounds", s.rounds as f64),
        ("matmul_n", s.matmul_n as f64),
        ("crash_every", s.crash_every as f64),
        ("transient_faults_per_round", s.faults_per_round as f64),
        ("fault_window_us", s.fault_window.as_secs_f64() * 1e6),
    ]
}

/// Everything the rounds are given; generated from the seed in set-up.
struct Inputs {
    contributions: Contributions,
    routed: Vec<Rc<RoutedPlan>>,
    matmul_seeds: Vec<u64>,
    faults: Vec<FaultPlan>,
    victims: Vec<u32>,
}

impl Inputs {
    fn generate(seed: u64, s: &Sizes) -> Inputs {
        let mut rng = Rng::new(seed ^ 0x5EC0_7E57);
        let nodes = 1u32 << s.dim;
        Inputs {
            contributions: Contributions::generate(&mut rng),
            routed: (0..s.rounds)
                .map(|_| Rc::new(RoutedPlan::generate(&mut rng, nodes, ROUTED_WORDS, 1)))
                .collect(),
            matmul_seeds: (0..s.rounds).map(|_| rng.next_u64()).collect(),
            faults: (0..s.rounds)
                .map(|_| {
                    FaultPlan::generate_transient(
                        rng.next_u64(),
                        s.dim,
                        s.faults_per_round,
                        s.fault_window,
                    )
                })
                .collect(),
            victims: (0..s.rounds)
                .map(|_| rng.below(nodes as u64) as u32)
                .collect(),
        }
    }
}

/// First word of round `r`'s slot in a node's memory.
fn slot(round: u32) -> usize {
    let r = round as usize;
    (r % MEM_ROWS) * ROW_WORDS + (r / MEM_ROWS % (ROW_WORDS / SLOT_WORDS)) * SLOT_WORDS
}

/// Elements of C each node keeps (C is dealt out in row-major chunks).
fn c_chunk(s: &Sizes) -> usize {
    (s.matmul_n * s.matmul_n) >> s.dim
}

/// The matmul operands of a round, kept for the reference product.
type Operands = (Vec<f64>, Vec<f64>);

/// One round's compute phase. Results are written into node memory, where
/// the next checkpoint finds them. Returns whether every part finished, and
/// the matmul operands.
fn compute_round(m: &mut Machine, s: &Sizes, inp: &Rc<Inputs>, round: u32) -> (bool, Operands) {
    let cube = m.cube;
    let base = slot(round);
    let inputs = inp.clone();
    m.launch(move |ctx| {
        let inputs = inputs.clone();
        async move {
            let mine = inputs.contributions.of(ctx.id(), round);
            let sum = collectives::allreduce(&ctx, cube, CombineOp::Add, mine).await;
            let mut mem = ctx.mem_mut();
            for (k, v) in sum.iter().enumerate() {
                mem.write_f64(base + 2 * k, *v)
                    .expect("round slot lies inside node memory");
            }
        }
    });
    let mut ok = m.run().quiescent;

    // The round's transient faults strike from now on, on live traffic.
    let mut plan = FaultPlan::new();
    let now = m.now().since(fps_t_series::sim::Time::ZERO);
    for f in inp.faults[round as usize].iter() {
        plan.push(now + f.at, f.event);
    }
    plan.schedule(m);
    let (a, b, c, _) = matmul::distributed_matmul(m, s.matmul_n, inp.matmul_seeds[round as usize]);
    let chunk = c_chunk(s);
    for (node, part) in m.nodes.iter().zip(c.chunks(chunk)) {
        let mut mem = node.mem_mut();
        for (k, &v) in part.iter().enumerate() {
            mem.write_f64(base + 2 * (AR_VALUES + k), Sf64::from(v))
                .expect("round slot lies inside node memory");
        }
    }

    let inboxes = routed::run(m, &inp.routed[round as usize]);
    ok &= inboxes.is_some();
    for (node, &(sent, inbox)) in m.nodes.iter().zip(inboxes.iter().flatten()) {
        ok &= sent;
        node.mem_mut()
            .write_u64(base + 2 * (AR_VALUES + chunk), inbox)
            .expect("round slot lies inside node memory");
    }
    (ok, (a, b))
}

/// State of the storm across reboots.
struct Storm {
    m: Machine,
    /// Counters of the machines already discarded.
    past: Census,
    /// Operands of each round's last execution.
    operands: Vec<Operands>,
    snapshot_ps: Vec<u64>,
    ckpt_host_s: f64,
    restore_host_s: f64,
    rework_ps: u64,
}

impl Storm {
    /// `Machine::checkpoint` as a span, its host time booked.
    fn checkpoint(
        &mut self,
        spans: &mut Spans,
        store: &mut CheckpointStore,
        mode: SnapshotMode,
    ) -> Result<CheckpointStats, MachineError> {
        let (outcome, t) = spans.time("core.checkpoint", || self.m.checkpoint(store, mode));
        self.ckpt_host_s += t;
        outcome
    }
}

fn run_storm(
    spans: &mut Spans,
    s: &Sizes,
    inp: &Rc<Inputs>,
    m: Machine,
    checks: &mut Checks,
) -> (Storm, CheckpointStore) {
    let cfg = *m.cfg();
    let mut st = Storm {
        m,
        past: Census::default(),
        operands: Vec::new(),
        snapshot_ps: Vec::new(),
        ckpt_host_s: 0.0,
        restore_host_s: 0.0,
        rework_ps: 0,
    };
    let mut store = CheckpointStore::new(st.m.nodes.len());
    let base = st.checkpoint(spans, &mut store, SnapshotMode::Full);
    checks.check(base.is_ok(), || format!("base checkpoint failed: {base:?}"));

    for round in 0..s.rounds {
        let ((ok, operands), _) =
            spans.time("run.compute", || compute_round(&mut st.m, s, inp, round));
        checks.check(ok, || format!("round {round}: compute phase stalled"));
        st.operands.push(operands);

        let doomed = (round + 1) % s.crash_every == 0;
        if doomed {
            let victim = st.m.nodes[inp.victims[round as usize] as usize].clone();
            let h = st.m.handle();
            st.m.handle().spawn(async move {
                h.sleep(CRASH_AFTER).await;
                victim.crash();
            });
        }
        match st.checkpoint(spans, &mut store, SnapshotMode::Delta) {
            Ok(stats) => {
                checks.check(!doomed, || {
                    format!("round {round}: snapshot committed although a node crashed in it")
                });
                if stats.mode == SnapshotMode::Delta {
                    st.snapshot_ps.push(stats.duration.as_ps());
                }
            }
            Err(e) => {
                checks.check(doomed, || format!("round {round}: checkpoint failed: {e}"));
                // Torn: reboot, restore the last committed version, replay.
                st.past.add(&Census::of_machine(&st.m));
                let (restored, t) = spans.time("core.restore", || {
                    st.m = Machine::build(cfg);
                    st.m.restore_from(&store)
                });
                st.restore_host_s += t;
                checks.check(restored.is_ok(), || {
                    format!("round {round}: restore failed: {restored:?}")
                });
                let ((ok, operands), _) =
                    spans.time("run.replay", || compute_round(&mut st.m, s, inp, round));
                checks.check(ok, || format!("round {round}: replay stalled"));
                st.operands[round as usize] = operands;
                // The new machine's clock started at zero: all of it is rework.
                st.rework_ps += st.m.now().as_ps();
                match st.checkpoint(spans, &mut store, SnapshotMode::Delta) {
                    Ok(stats) => st.snapshot_ps.push(stats.duration.as_ps()),
                    Err(e) => checks.check(false, || {
                        format!("round {round}: checkpoint after replay failed: {e}")
                    }),
                }
            }
        }
    }
    (st, store)
}

fn rep(ctx: &mut RepCtx<'_>) -> RepOut {
    let s = sizes(ctx.quick);
    let spans = &mut *ctx.spans;
    let mut checks = Checks::default();

    let setup = spans.open("setup");
    let cfg = MachineCfg::cube_small_mem(s.dim, MEM_ROWS);
    let (m, build_s) = spans.time("core.build", || Machine::build(cfg));
    let (inp, _) = spans.time("inputs", || Rc::new(Inputs::generate(ctx.seed, &s)));
    let setup_s = spans.close(setup);
    let nodes = m.cube.nodes();

    let run = spans.open_granted("run");
    let ((st, store), allocs) =
        alloc::count(ctx.traced, || run_storm(spans, &s, &inp, m, &mut checks));
    let wall_s = spans.close(run);
    let mut census = st.past.clone();
    census.add(&Census::of_machine(&st.m));

    let verify = spans.open("verify");
    let mut digest = Fnv::default();
    let chunk = c_chunk(&s);
    for round in 0..s.rounds {
        let base = slot(round);
        let sums = inp.contributions.sums(nodes, round);
        let want_c = st
            .operands
            .get(round as usize)
            .map_or(Vec::new(), |(a, b)| {
                matmul::reference_matmul(s.matmul_n, a, b)
            });
        for (id, node) in st.m.nodes.iter().enumerate() {
            let mem = node.mem();
            let sums_ok = sums
                .iter()
                .enumerate()
                .all(|(k, &w)| mem.read_f64(base + 2 * k).is_ok_and(|v| v.to_host() == w));
            let c_ok = (0..chunk).all(|k| {
                want_c.get(id * chunk + k).is_some_and(|&w| {
                    mem.read_f64(base + 2 * (AR_VALUES + k))
                        .is_ok_and(|v| (v.to_host() - w).abs() <= 1e-12 * w.abs().max(1.0))
                })
            });
            let inbox_ok = mem
                .read_u64(base + 2 * (AR_VALUES + chunk))
                .is_ok_and(|v| v == inp.routed[round as usize].expected_inbox(id as u32));
            checks.check(sums_ok && c_ok && inbox_ok, || {
                format!(
                    "round {round}, node {id}: memory differs from the references \
                     (sums {sums_ok}, matmul {c_ok}, inbox {inbox_ok})"
                )
            });
        }
    }
    for node in &st.m.nodes {
        node.mem()
            .snapshot()
            .iter()
            .for_each(|&w| digest.u64(w as u64));
    }
    let crashes = (s.rounds / s.crash_every) as u64;
    checks.check(store.torn_aborts() == crashes, || {
        format!(
            "{} torn checkpoints for {crashes} seeded crashes",
            store.torn_aborts()
        )
    });
    digest.u64(census.sim_ps);
    spans.close(verify);

    let report = spans.open("report");
    let snapshots = st.snapshot_ps.len().max(1) as f64;
    let mut values = census.layer_metrics(wall_s, ctx.traced.then_some(allocs));
    values.extend([
        ("sim_elapsed_ms", census.sim_ms()),
        (
            "sim_snapshot_ms",
            st.snapshot_ps.iter().sum::<u64>() as f64 / snapshots / 1e9,
        ),
        ("core.build_us_per_node", build_s * 1e6 / nodes as f64),
        ("core.ckpt_bytes_streamed", store.bytes_streamed() as f64),
        (
            "core.ckpt_delta_ratio",
            store.bytes_streamed() as f64 / store.bytes_full_equiv().max(1) as f64,
        ),
        ("core.ckpt_torn_aborts", store.torn_aborts() as f64),
        ("core.ckpt_host_ms", st.ckpt_host_s * 1e3),
        ("core.restore_host_ms", st.restore_host_s * 1e3),
        ("core.rework_sim_ms", st.rework_ps as f64 / 1e9),
    ]);
    spans.close(report);

    RepOut {
        setup_s,
        wall_s,
        values,
        digest: digest.0,
        checks,
    }
}

/// The workload.
pub const WORKLOAD: Workload = Workload {
    name: "recovery_storm",
    sizes: sizes_table,
    rep,
    once: None,
};
