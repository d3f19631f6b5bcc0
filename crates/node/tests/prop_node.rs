//! Property tests for the node layer: data integrity of gather/scatter,
//! timing additivity, and determinism of random operation sequences.
//! Seeded random cases via [`Rng`] (offline, reproducible).

use ts_fpu::Sf64;
use ts_node::{Node, NodeCfg};
use ts_sim::{Rng, Sim};
use ts_vec::VecForm;

fn small_node(sim: &Sim) -> Node {
    let cfg = NodeCfg {
        mem: ts_mem::MemCfg::small(16),
    };
    Node::new(0, cfg, sim.handle())
}

/// gather64 then scatter64 back to the original addresses restores every
/// element (addresses distinct by construction).
#[test]
fn gather_scatter_roundtrip() {
    let mut rng = Rng::new(0x40de_0001);
    for _ in 0..32 {
        let n = rng.range(1, 60);
        let mut sim = Sim::new();
        let node = small_node(&sim);
        // Distinct source addresses: even stride from 2048, shuffled.
        let mut addrs: Vec<usize> = (0..n).map(|i| 2048 + 4 * i).collect();
        for i in (1..addrs.len()).rev() {
            let j = rng.range(0, i + 1);
            addrs.swap(i, j);
        }
        {
            let mut mem = node.mem_mut();
            for (k, &a) in addrs.iter().enumerate() {
                mem.write_f64(a, Sf64::from(k as f64 + 0.5)).unwrap();
            }
        }
        let ctx = node.ctx();
        let addrs2 = addrs.clone();
        sim.spawn(async move {
            ctx.gather64(&addrs2, 1024).await.unwrap();
            // Wipe the originals, then scatter back.
            {
                let mut mem = ctx.mem_mut();
                for &a in &addrs2 {
                    mem.write_f64(a, Sf64::ZERO).unwrap();
                }
            }
            ctx.scatter64(1024, &addrs2).await.unwrap();
        });
        assert!(sim.run().quiescent);
        let mem = node.mem();
        for (k, &a) in addrs.iter().enumerate() {
            assert_eq!(mem.read_f64(a).unwrap().to_host(), k as f64 + 0.5);
        }
    }
}

/// Sequential ops cost the sum of their individual times.
#[test]
fn sequential_timing_is_additive() {
    let mut rng = Rng::new(0x40de_0002);
    for _ in 0..24 {
        let n1 = rng.range(1, 200);
        let n2 = rng.range(1, 200);
        let time_of = |ns: &[usize]| {
            let mut sim = Sim::new();
            let node = small_node(&sim);
            let ctx = node.ctx();
            let ns = ns.to_vec();
            sim.spawn(async move {
                for n in ns {
                    ctx.vec(VecForm::VAdd, 0, 4, 5, n).await.unwrap();
                }
            });
            assert!(sim.run().quiescent);
            sim.now().as_ps()
        };
        let t1 = time_of(&[n1]);
        let t2 = time_of(&[n2]);
        let t12 = time_of(&[n1, n2]);
        assert_eq!(t12, t1 + t2);
    }
}

/// Random interleavings of vec/gather/cp ops are deterministic.
#[test]
fn random_programs_are_deterministic() {
    let mut rng = Rng::new(0x40de_0003);
    for _ in 0..24 {
        let ops: Vec<usize> = (0..rng.range(1, 20)).map(|_| rng.range(0, 4)).collect();
        let run = |ops: &[usize]| {
            let mut sim = Sim::new();
            let node = small_node(&sim);
            let ctx = node.ctx();
            let ops = ops.to_vec();
            sim.spawn(async move {
                let mut pending = Vec::new();
                for op in ops {
                    match op {
                        0 => {
                            ctx.vec(VecForm::VMul, 0, 4, 5, 64).await.unwrap();
                        }
                        1 => {
                            pending.push(ctx.issue_vec(VecForm::VAdd, 1, 5, 6, 128).unwrap().1);
                        }
                        2 => {
                            let srcs: Vec<usize> = (0..16).map(|i| 2048 + 4 * i).collect();
                            ctx.gather64(&srcs, 1500).await.unwrap();
                        }
                        _ => ctx.cp_compute(100).await,
                    }
                }
                for done in pending {
                    ctx.wait(done).await;
                }
            });
            assert!(sim.run().quiescent);
            (
                sim.now(),
                node.meters().vec_flops.get(),
                node.meters().cp_busy.get(),
            )
        };
        assert_eq!(run(&ops), run(&ops));
    }
}

/// Message payloads cross links bit-exactly, any size, any values.
#[test]
fn link_payload_integrity() {
    let mut rng = Rng::new(0x40de_0004);
    for _ in 0..24 {
        let vals: Vec<u64> = (0..rng.range(1, 100)).map(|_| rng.next_u64()).collect();
        let mut sim = Sim::new();
        let a = small_node(&sim);
        let b = Node::new(
            1,
            NodeCfg {
                mem: ts_mem::MemCfg::small(16),
            },
            sim.handle(),
        );
        let w1 = ts_link::Wire::new("ab", ts_link::LinkParams::default());
        let w2 = ts_link::Wire::new("ba", ts_link::LinkParams::default());
        let ab = ts_link::LinkChannel::new(w1);
        let ba = ts_link::LinkChannel::new(w2);
        a.wire_dim(0, ab.clone(), ba.clone());
        b.wire_dim(0, ba, ab);
        let (ca, cb) = (a.ctx(), b.ctx());
        let sent: Vec<Sf64> = vals.iter().map(|&v| Sf64::from_bits(v)).collect();
        let sent2 = sent.clone();
        sim.spawn(async move { ca.send_f64s(0, &sent2).await });
        let jh = sim.spawn(async move { cb.recv_f64s(0).await });
        assert!(sim.run().quiescent);
        let got = jh.try_take().unwrap();
        assert_eq!(got.len(), sent.len());
        for (g, s) in got.iter().zip(&sent) {
            assert_eq!(g.to_bits(), s.to_bits());
        }
    }
}

// --- chained vector forms ---------------------------------------------------

use ts_node::{CombineOp, NodeCtx};
use ts_sim::{Dur, Span, Time, Tracer};

/// A sequence of forms through [`NodeCtx::issue_forms`]: the adder, the
/// multiplier, the chained pair and a reduction.
const FORMS: [VecForm; 4] = [
    VecForm::VAdd,
    VecForm::VSMul(Sf64::ZERO),
    VecForm::Saxpy(Sf64::ZERO),
    VecForm::Dot,
];

/// One vector-unit operation of a scripted program.
#[derive(Clone, Copy, Debug)]
enum VecOp {
    /// A row form, 64-bit or 32-bit mode: x in bank A, y in bank B.
    Row {
        form: VecForm,
        wide: bool,
        n: usize,
    },
    Saxpy(usize),
    Dot(usize),
    Combine(CombineOp, usize),
    /// [`FORMS`] over `n` message-buffer elements.
    Forms(usize),
    /// `n` control-processor instructions: awaited, except in
    /// [`Mode::Booked`].
    Cp(u64),
}

/// How [`run_program`] runs a program.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Every operation awaited in turn.
    Awaited,
    /// Forms issued back to back at `now`, CP charges awaited, one wait at
    /// the end: LU's elimination step as it first ran.
    Chained,
    /// CP charges booked with `issue_cp`, each (64-bit row) form issued at
    /// the instant the CP's booked work reaches with `issue_vec_at`, and
    /// one wait on the later of the two: LU's elimination step now.
    Booked,
}

/// Everything a vector program leaves behind that chaining must not move.
#[derive(Debug, PartialEq)]
struct Outcome {
    end: Time,
    /// Scalar/index results and value-form outputs, in program order.
    results: Vec<u64>,
    memory: Vec<u32>,
    busy: Dur,
    flops: u64,
    len_histogram: Vec<u64>,
    cp_busy: Dur,
    cp_instrs: u64,
    /// Both units' spans.
    spans: Vec<Span>,
}

const X_ROW: usize = 0;
const Y_ROW: usize = 4;
const Z_ROW: usize = 8;

fn value(i: usize, salt: u64) -> Sf64 {
    Sf64::from(((i as u64 * 37 + salt * 11) % 1009) as f64 * 0.125 - 60.0)
}

/// The two operand vectors of a value form at program step `salt`.
fn operands(n: usize, salt: u64) -> (Vec<Sf64>, Vec<Sf64>) {
    let vector = |salt| (0..n).map(|i| value(i, salt)).collect();
    (vector(salt), vector(salt + 1))
}

/// Issue `op` on `ctx`; its results go to `out`. Returns the completion
/// instant (the awaited runner waits on it at once, the chained one keeps
/// only the last).
fn issue(ctx: &NodeCtx, op: VecOp, step: usize, out: &mut Vec<u64>) -> Time {
    let salt = step as u64;
    match op {
        VecOp::Row { form, wide, n } => {
            let (r, done) = if wide {
                ctx.issue_vec(form, X_ROW, Y_ROW, Z_ROW, n).unwrap()
            } else {
                ctx.issue_vec32(form, X_ROW, Y_ROW, Z_ROW, n).unwrap()
            };
            out.extend([r.scalar.unwrap_or(0), r.index.unwrap_or(0) as u64]);
            done
        }
        VecOp::Saxpy(n) => {
            let (x, mut y) = operands(n, salt);
            let done = ctx.issue_saxpy_values(value(n, salt), &x, &mut y);
            out.extend(y.iter().map(|v| v.to_bits()));
            done
        }
        VecOp::Dot(n) => {
            let (x, y) = operands(n, salt);
            let (dot, done) = ctx.issue_dot_values(&x, &y);
            out.push(dot.to_bits());
            done
        }
        VecOp::Combine(cop, n) => {
            let (mut acc, other) = operands(n, salt);
            let done = ctx.issue_combine_values(cop, &mut acc, &other);
            out.extend(acc.iter().map(|v| v.to_bits()));
            done
        }
        VecOp::Forms(n) => ctx.issue_forms(&FORMS, n),
        VecOp::Cp(_) => unreachable!("a CP charge is awaited or booked"),
    }
}

/// The same operation through the awaited front door (`vec`, `vec32`,
/// `combine_values`; SAXPY's, the dot's and `issue_forms` have only the
/// issue form, awaited by `wait`), so the test also pins
/// `async = wait(issue(..))`.
async fn awaited(ctx: &NodeCtx, op: VecOp, step: usize, out: &mut Vec<u64>) {
    let salt = step as u64;
    match op {
        VecOp::Row { form, wide, n } => {
            let r = if wide {
                ctx.vec(form, X_ROW, Y_ROW, Z_ROW, n).await.unwrap()
            } else {
                ctx.vec32(form, X_ROW, Y_ROW, Z_ROW, n).await.unwrap()
            };
            out.extend([r.scalar.unwrap_or(0), r.index.unwrap_or(0) as u64]);
        }
        VecOp::Saxpy(n) => {
            let (x, mut y) = operands(n, salt);
            ctx.wait(ctx.issue_saxpy_values(value(n, salt), &x, &mut y))
                .await;
            out.extend(y.iter().map(|v| v.to_bits()));
        }
        VecOp::Dot(n) => {
            let (x, y) = operands(n, salt);
            let (dot, done) = ctx.issue_dot_values(&x, &y);
            ctx.wait(done).await;
            out.push(dot.to_bits());
        }
        VecOp::Combine(cop, n) => {
            let (mut acc, other) = operands(n, salt);
            ctx.combine_values(cop, &mut acc, &other).await;
            out.extend(acc.iter().map(|v| v.to_bits()));
        }
        VecOp::Forms(n) => ctx.wait(ctx.issue_forms(&FORMS, n)).await,
        VecOp::Cp(n) => ctx.cp_compute(n).await,
    }
}

/// Let every other runnable task run once, at the current instant.
async fn yield_now() {
    let mut yielded = false;
    std::future::poll_fn(|cx| {
        if std::mem::replace(&mut yielded, true) {
            return std::task::Poll::Ready(());
        }
        cx.waker().wake_by_ref();
        std::task::Poll::Pending
    })
    .await
}

/// Run `program` on a fresh traced node in `mode`. With `intruder`, a
/// second process issues that operation to the vector unit after the
/// program's first (non-empty) form: the program's remaining forms must
/// queue behind it either way.
fn run_program(program: &[VecOp], mode: Mode, intruder: Option<VecOp>) -> Outcome {
    let mut sim = Sim::new();
    let node = small_node(&sim);
    let tracer = Tracer::new();
    node.attach_tracer(&tracer);
    {
        let mut mem = node.mem_mut();
        for i in 0..128 {
            mem.write_f64(X_ROW * ts_mem::ROW_WORDS + 2 * i, value(i, 3))
                .unwrap();
            mem.write_f64(Y_ROW * ts_mem::ROW_WORDS + 2 * i, value(i, 5))
                .unwrap();
        }
    }
    let ctx = node.ctx();
    let program = program.to_vec();
    let main = sim.spawn(async move {
        let mut out = Vec::new();
        let (mut done, mut cp) = (ctx.now(), ctx.now());
        let mut yielded = false;
        for (step, &op) in program.iter().enumerate() {
            match (mode, op) {
                (Mode::Awaited, _) | (Mode::Chained, VecOp::Cp(_)) => {
                    awaited(&ctx, op, step, &mut out).await
                }
                // The latest instant: an empty form is complete at once.
                (Mode::Chained, _) => done = done.max(issue(&ctx, op, step, &mut out)),
                (Mode::Booked, VecOp::Cp(n)) => cp = ctx.issue_cp(n),
                (Mode::Booked, VecOp::Row { form, wide, n }) if wide => {
                    let (r, at) = ctx.issue_vec_at(cp, form, X_ROW, Y_ROW, Z_ROW, n).unwrap();
                    out.extend([r.scalar.unwrap_or(0), r.index.unwrap_or(0) as u64]);
                    done = done.max(at);
                }
                (Mode::Booked, op) => unreachable!("{op:?} is issued at now"),
            }
            if mode == Mode::Chained && !yielded && done > ctx.now() {
                // Where the awaited program first sleeps and the intruder
                // gets to run.
                yielded = true;
                yield_now().await;
            }
        }
        ctx.wait(done.max(cp)).await;
        out
    });
    let ctx = node.ctx();
    let second = sim.spawn(async move {
        let mut out = Vec::new();
        if let Some(op) = intruder {
            awaited(&ctx, op, 99, &mut out).await;
        }
        out
    });
    assert!(sim.run().quiescent);
    let mut results = main.try_take().unwrap();
    results.extend(second.try_take().unwrap());
    let mem = node.mem();
    let meters = node.meters();
    Outcome {
        end: sim.now(),
        results,
        memory: (0..mem.cfg().words())
            .map(|a| mem.read_word(a).unwrap())
            .collect(),
        busy: meters.vec_busy.get(),
        flops: meters.vec_flops.get(),
        len_histogram: meters.vec_len.counts(),
        cp_busy: meters.cp_busy.get(),
        cp_instrs: meters.cp_instrs.get(),
        spans: tracer.spans(),
    }
}

/// A chain of issues behind one wait ≡ one await per form: completion
/// instant, values, `vec/busy`, `vec/flops`, the `vec/len` histogram and
/// the traced spans — for each of the eleven row forms in both modes, the
/// four value forms, seeded mixes of them, and with a second process
/// holding the vector unit between two issues.
#[test]
fn a_chain_of_forms_equals_one_await_per_form() {
    let s = Sf64::from(1.5);
    let forms = [
        VecForm::VAdd,
        VecForm::VSub,
        VecForm::VMul,
        VecForm::Saxpy(s),
        VecForm::VSMul(s),
        VecForm::VSAdd(s),
        VecForm::Dot,
        VecForm::Sum,
        VecForm::Max,
        VecForm::Min,
        VecForm::AbsMax,
    ];
    let mut alphabet: Vec<VecOp> = Vec::new();
    for form in forms {
        for wide in [true, false] {
            alphabet.push(VecOp::Row { form, wide, n: 0 });
        }
    }
    alphabet.extend([VecOp::Saxpy(0), VecOp::Dot(0), VecOp::Forms(0)]);
    alphabet.extend(
        [
            CombineOp::Add,
            CombineOp::Mul,
            CombineOp::Max,
            CombineOp::Min,
        ]
        .map(|cop| VecOp::Combine(cop, 0)),
    );
    let sized = |op: VecOp, n: usize| match op {
        VecOp::Row { form, wide, .. } => VecOp::Row { form, wide, n },
        VecOp::Saxpy(_) => VecOp::Saxpy(n),
        VecOp::Dot(_) => VecOp::Dot(n),
        VecOp::Combine(cop, _) => VecOp::Combine(cop, n),
        // Zero elements issue nothing; keep that case in play.
        VecOp::Forms(_) => VecOp::Forms(if n.is_multiple_of(7) { 0 } else { n }),
        // Not in the alphabet: a chain starts CP work early.
        VecOp::Cp(_) => op,
    };

    // Every form with itself, three deep.
    for &op in &alphabet {
        let program = [sized(op, 100), sized(op, 1), sized(op, 77)];
        let want = run_program(&program, Mode::Awaited, None);
        assert_eq!(run_program(&program, Mode::Chained, None), want, "{op:?}");
        assert_eq!(
            want.len_histogram.iter().sum::<u64>(),
            want.spans.len() as u64
        );
    }
    // Seeded mixes, alone and with an intruder on the unit.
    let mut rng = Rng::new(0x40de_0005);
    for case in 0..48 {
        let draw = |rng: &mut Rng| {
            let op = alphabet[rng.below(alphabet.len() as u64) as usize];
            sized(op, rng.range(1, 129))
        };
        let program: Vec<VecOp> = (0..rng.range(2, 12)).map(|_| draw(&mut rng)).collect();
        let intruder = (case % 2 == 1).then(|| draw(&mut rng));
        let want = run_program(&program, Mode::Awaited, intruder);
        let got = run_program(&program, Mode::Chained, intruder);
        assert_eq!(got, want, "case {case}: {program:?} / {intruder:?}");
        // The unit ran back to back from T+0: the last span ends the run.
        assert_eq!(
            want.spans.last().map(|s| s.end),
            Some(want.end).filter(|_| want.busy > Dur::ZERO)
        );
    }
}

/// Booked CP work ≡ one await per CP charge: programs of 64-bit row forms
/// and control-processor charges — LU's elimination step (a masking pass,
/// then a SAXPY and a 4-instruction charge per row), and seeded mixes with
/// charges shorter and longer than the forms beside them — run as
/// [`Mode::Chained`] and as [`Mode::Booked`] end on the same instant with
/// the same values, `vec/*` and `cp/*` meters and both units' spans.
#[test]
fn booked_cp_work_equals_one_await_per_charge() {
    let s = Sf64::from(-0.75);
    let forms = [
        VecForm::VAdd,
        VecForm::VSub,
        VecForm::VMul,
        VecForm::Saxpy(s),
        VecForm::VSMul(s),
        VecForm::VSAdd(s),
        VecForm::Dot,
        VecForm::Sum,
        VecForm::Max,
        VecForm::Min,
        VecForm::AbsMax,
    ];
    let row = |form, n| VecOp::Row {
        form,
        wide: true,
        n,
    };
    let check = |program: &[VecOp], what: &str| {
        let want = run_program(program, Mode::Chained, None);
        assert_eq!(run_program(program, Mode::Booked, None), want, "{what}");
        assert_eq!(want.cp_busy, ts_node::CP_INSTR_TIME * want.cp_instrs);
        want
    };
    for rows in [1, 2, 17] {
        for cols in [1, 32, 128] {
            let mut program = vec![VecOp::Cp(cols as u64)];
            for _ in 0..rows {
                program.extend([row(VecForm::Saxpy(s), cols), VecOp::Cp(4)]);
            }
            let want = check(&program, &format!("LU step, {rows} rows × {cols} columns"));
            assert_eq!(want.spans.len(), 2 * rows + 1);
        }
    }
    let mut rng = Rng::new(0x40de_0006);
    for case in 0..64 {
        let program: Vec<VecOp> = (0..rng.range(1, 16))
            .map(|_| match rng.below(3) {
                0 => VecOp::Cp(rng.below(300)),
                _ => row(
                    forms[rng.below(forms.len() as u64) as usize],
                    rng.range(0, 129),
                ),
            })
            .collect();
        check(&program, &format!("case {case}: {program:?}"));
    }
}
