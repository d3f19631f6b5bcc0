//! The layer ladder: each layer driven alone through its public API under
//! a fixed budget.
//!
//! A single `Machine::run` nests executor, link, router and collective
//! inseparably when seen from outside, so the traced pass also walks the
//! stack one rung at a time — bare executor, rendezvous, link (healthy and
//! faulted), cube routing, router, collective, control-processor emulator,
//! buddy allocator, light-load scheduler, report rendering, machine tracer —
//! and a whole-machine move in events per second becomes attributable to a
//! rung. Every rung is timed three times; the result file keeps all three.

use std::rc::Rc;
use std::time::Instant;

use fps_t_series::cp::emu::{load_code, Cp};
use fps_t_series::cp::{assemble, programs, StepOutcome};
use fps_t_series::cube::Subcube;
use fps_t_series::fpu::Sf64;
use fps_t_series::link::{LinkChannel, LinkParams, Wire};
use fps_t_series::machine::{collectives, Hypercube, Machine, MachineCfg};
use fps_t_series::node::CombineOp;
use fps_t_series::sched::{BuddyAllocator, ServiceScheduler};
use fps_t_series::sim::{Dur, Rendezvous, Rng, Sim};

use crate::census::Census;
use crate::stats::median;
use crate::workloads::routed::{self, RoutedPlan};
use crate::workloads::service_queue::{service_cfg, service_trace};
use crate::workloads::{collective_storm, Checks, OnceOut};

/// Timings per rung.
const TRIES: usize = 3;

struct Budget {
    sleepers: u64,
    sleeps: u32,
    pingpongs: u64,
    link_msgs: u32,
    routes: usize,
    router_dim: u32,
    router_msgs_per_node: usize,
    coll_dim: u32,
    coll_rounds: u32,
    cp_words: u32,
    buddy_ops: usize,
    light_jobs: usize,
    report_dim: u32,
    trace_dim: u32,
    trace_rounds: u32,
}

fn budget(quick: bool) -> Budget {
    if quick {
        Budget {
            sleepers: 16,
            sleeps: 500,
            pingpongs: 5_000,
            link_msgs: 2_000,
            routes: 5_000,
            router_dim: 4,
            router_msgs_per_node: 4,
            coll_dim: 5,
            coll_rounds: 2,
            cp_words: 2_000,
            buddy_ops: 5_000,
            light_jobs: 4_000,
            report_dim: 6,
            trace_dim: 6,
            trace_rounds: 2,
        }
    } else {
        Budget {
            sleepers: 64,
            sleeps: 10_000,
            pingpongs: 200_000,
            link_msgs: 50_000,
            routes: 200_000,
            router_dim: 6,
            router_msgs_per_node: 32,
            coll_dim: 8,
            coll_rounds: 8,
            cp_words: 40_000,
            buddy_ops: 200_000,
            light_jobs: 100_000,
            report_dim: 10,
            trace_dim: 10,
            trace_rounds: 4,
        }
    }
}

/// One rung: `work` returns host seconds and the units of work done in
/// them (or `None` when it failed); the rung's samples are
/// `scale · seconds / units` of each of [`TRIES`] runs.
fn rung(
    out: &mut OnceOut,
    name: &'static str,
    scale: f64,
    mut work: impl FnMut() -> Option<(f64, f64)>,
) {
    let samples: Vec<f64> = (0..TRIES)
        .filter_map(|_| work())
        .filter(|&(_, units)| units > 0.0)
        .map(|(s, units)| scale * s / units)
        .collect();
    out.checks.check(samples.len() == TRIES, || {
        format!("ladder rung {name} did not complete")
    });
    // Every try is a sample, so the rung's median comes with its spread.
    out.values.extend(samples.into_iter().map(|v| (name, v)));
}

/// Time `sim.run()`; `None` unless it reached quiescence.
fn run_sim(sim: &mut Sim) -> Option<f64> {
    let t = Instant::now();
    let ok = sim.run().quiescent;
    ok.then(|| t.elapsed().as_secs_f64())
}

/// Walk the ladder.
pub fn measure(seed: u64, quick: bool) -> OnceOut {
    let b = budget(quick);
    let mut out = OnceOut::default();

    // Bare executor: timer heap + waker + poll.
    let (sleepers, sleeps) = (b.sleepers, b.sleeps);
    rung(&mut out, "sim.exec_ns_per_event", 1e9, || {
        let mut sim = Sim::new();
        for i in 0..sleepers {
            let h = sim.handle();
            sim.spawn(async move {
                for _ in 0..sleeps {
                    h.sleep(Dur::ns(10 + i)).await;
                }
            });
        }
        Some((run_sim(&mut sim)?, (sleepers * sleeps as u64) as f64))
    });

    // Rendezvous ping-pong: one pair, no timing model.
    rung(&mut out, "sim.chan_ns_per_msg", 1e9, || {
        let mut sim = Sim::new();
        let rv: Rendezvous<u64> = Rendezvous::new();
        let tx = rv.clone();
        let n = b.pingpongs;
        sim.spawn(async move {
            for i in 0..n {
                tx.send(i).await;
            }
        });
        let h = sim.handle();
        sim.spawn(async move {
            for _ in 0..n {
                rv.recv().await;
                h.sleep(Dur::ns(1)).await;
            }
        });
        Some((run_sim(&mut sim)?, n as f64))
    });

    // Full link protocol, healthy and with seeded corrupt flits (CRC
    // failure + go-back-N retransmit on every fourth message).
    for (name, faulted) in [
        ("link.ns_per_msg", false),
        ("link.ns_per_msg_faulted", true),
    ] {
        rung(&mut out, name, 1e9, || {
            let mut sim = Sim::new();
            let ch = LinkChannel::new(Wire::new("ladder", LinkParams::default()));
            let (tx, rx) = (ch.clone(), ch);
            let (h_tx, h_rx) = (sim.handle(), sim.handle());
            let n = b.link_msgs;
            let mut rng = Rng::new(seed ^ 0x11C);
            sim.spawn(async move {
                for i in 0..n {
                    if faulted && i % 4 == 0 {
                        tx.inject_corrupt(rng.below(256));
                    }
                    tx.send(&h_tx, vec![i; 8]).await;
                }
            });
            let received = sim.spawn(async move {
                let mut ok = true;
                for i in 0..n {
                    ok &= rx.recv(&h_rx).await == [i; 8];
                }
                ok
            });
            let s = run_sim(&mut sim)?;
            (received.try_take() == Some(true)).then_some((s, n as f64))
        });
    }

    // Pure topology: e-cube routes between seeded pairs.
    rung(&mut out, "cube.ns_per_route", 1e9, || {
        let cube = Hypercube::new(12);
        let mut rng = Rng::new(seed ^ 0xC0BE);
        let t = Instant::now();
        let mut hops = 0usize;
        for _ in 0..b.routes {
            let (a, z) = (rng.below(4096) as u32, rng.below(4096) as u32);
            hops += std::hint::black_box(cube.route(a, z)).len();
        }
        std::hint::black_box(hops);
        Some((t.elapsed().as_secs_f64(), b.routes as f64))
    });

    // Router daemons: store-and-forward over real links.
    rung(&mut out, "core.router_ns_per_hop", 1e9, || {
        let mut m = Machine::build(MachineCfg::cube_small_mem(b.router_dim, 8));
        let plan = Rc::new(RoutedPlan::generate(
            &mut Rng::new(seed ^ 0x2073),
            m.cube.nodes(),
            8,
            b.router_msgs_per_node,
        ));
        let t = Instant::now();
        let inboxes = routed::run(&mut m, &plan);
        let s = t.elapsed().as_secs_f64();
        let mut checks = Checks::default();
        routed::verify(&plan, &inboxes, &mut checks);
        (checks.failed == 0).then(|| (s, Census::of_machine(&m).router_hops))
    });

    // Collective step: dimension-exchange allreduce on a whole machine.
    rung(&mut out, "core.coll_ns_per_event", 1e9, || {
        let mut m = Machine::build(MachineCfg::cube_small_mem(b.coll_dim, 8));
        let cube = m.cube;
        let rounds = b.coll_rounds;
        m.launch(move |ctx| async move {
            for r in 0..rounds {
                let mine = vec![Sf64::from(ctx.id() as f64), Sf64::from(r as f64)];
                collectives::allreduce(&ctx, cube, CombineOp::Add, mine).await;
            }
        });
        let t = Instant::now();
        let ok = m.run().quiescent;
        ok.then(|| (t.elapsed().as_secs_f64(), m.profile().timer_events as f64))
    });

    // Control-processor emulator: no workload is CP-bound, so this rung is
    // its only number. MIPS = instructions / host second / 1e6, hence the
    // inverted ratio below.
    let code = assemble(&programs::sum_words(4_096, b.cp_words));
    out.checks.check(code.is_ok(), || {
        "ts_cp::programs::sum_words did not assemble".into()
    });
    if let Ok(code) = code {
        let mut host_mips = Vec::new();
        for _ in 0..TRIES {
            let mut mem = vec![1u32; 4_096 + b.cp_words as usize + 16_384];
            let entry = (4_096 + b.cp_words + 64) * 4;
            if load_code(&mut mem, entry, &code).is_err() {
                continue;
            }
            let mut cp = Cp::new(entry, 256);
            let t = Instant::now();
            let ran = cp.run(&mut mem, u64::MAX);
            let s = t.elapsed().as_secs_f64();
            if ran == Ok(StepOutcome::Halted) && mem[256 + 3] == b.cp_words {
                host_mips.push(cp.instructions as f64 / s / 1e6);
            }
        }
        out.checks.check(host_mips.len() == TRIES, || {
            "ladder rung cp.host_mips did not complete".into()
        });
        out.values
            .extend(host_mips.into_iter().map(|v| ("cp.host_mips", v)));
    }

    // Buddy allocator: seeded alloc/release churn on a dim-10 fleet.
    rung(&mut out, "sched.buddy_ns_per_op", 1e9, || {
        let mut rng = Rng::new(seed ^ 0xB0DD);
        let mut alloc = BuddyAllocator::new(10);
        let mut held: Vec<Subcube> = Vec::new();
        let t = Instant::now();
        for _ in 0..b.buddy_ops {
            let d = rng.below(5) as u32;
            if rng.bool() {
                if let Some(sub) = alloc.alloc(d) {
                    held.push(sub);
                    continue;
                }
            }
            if !held.is_empty() {
                let i = rng.below(held.len() as u64) as usize;
                alloc.release(&held.swap_remove(i));
            }
        }
        let s = t.elapsed().as_secs_f64();
        held.iter().for_each(|sub| alloc.release(sub));
        alloc.is_idle().then_some((s, b.buddy_ops as f64))
    });

    // The scheduler at light load: service_queue's allocator-bound twin.
    let light = service_trace(seed, 8, 0.5, b.light_jobs, 0.0);
    rung(&mut out, "sched.ns_per_job_light", 1e9, || {
        let svc = ServiceScheduler::new(service_cfg(8));
        let t = Instant::now();
        let rep = svc.run(&light);
        let s = t.elapsed().as_secs_f64();
        (rep.jobs == light.len() as u64).then_some((s, rep.jobs as f64))
    });

    // Report rendering on a large machine.
    {
        let mut m = Machine::build(MachineCfg::cube_small_mem(b.report_dim, 8));
        let cube = m.cube;
        m.launch(move |ctx| async move {
            let mine = vec![Sf64::from(ctx.id() as f64)];
            collectives::allreduce(&ctx, cube, CombineOp::Add, mine).await;
        });
        let ok = m.run().quiescent;
        rung(&mut out, "core.report_ms", 1e3, || {
            let t = Instant::now();
            let text = m.utilization_report();
            let s = t.elapsed().as_secs_f64();
            (ok && !std::hint::black_box(text).is_empty()).then_some((s, 1.0))
        });
    }

    // The machine's own tracer, on versus off, on the same collective rounds.
    let side = |tracing: bool| {
        let s: Vec<f64> = (0..TRIES)
            .filter_map(|_| {
                collective_storm::rounds_host_s(b.trace_dim, b.trace_rounds, seed, tracing)
            })
            .collect();
        (s.len() == TRIES).then(|| median(&s))
    };
    match (side(false), side(true)) {
        (Some(off), Some(on)) => out
            .values
            .push(("sim.trace_on_overhead_frac", on / off - 1.0)),
        _ => out.checks.check(false, || {
            "ladder rung sim.trace_on_overhead_frac did not complete".into()
        }),
    }
    out
}
