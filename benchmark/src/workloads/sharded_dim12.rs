//! `sharded_dim12` — the parallel backend's lane.
//!
//! `run_parallel` on 4096 small-memory nodes with 2 shards (one per host
//! core here), a few allreduce rounds per node. It is the only workload
//! where `core::parallel` and the `BoundaryLeg` protocol do the work, so
//! the ROADMAP item "make the sharded backend pay or delete it" has a named
//! metric; `collective_storm` (sequential) is its control. `wall_s` covers
//! build + run because `run_parallel` does both.

use std::time::Instant;

use fps_t_series::machine::parallel::{run_parallel, ParallelCfg, ParallelRun};
use fps_t_series::machine::{collectives, Hypercube, Machine, MachineCfg};
use fps_t_series::node::{CombineOp, NodeCtx};
use fps_t_series::sim::Rng;

use super::closed_form::{Contributions, AR_VALUES};
use super::{Checks, OnceOut, RepCtx, RepOut, Workload};
use crate::alloc;
use crate::census::Census;
use crate::stats::Fnv;

struct Sizes {
    dim: u32,
    shards: u32,
    rounds: u32,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            dim: 6,
            shards: 2,
            rounds: 2,
        }
    } else {
        Sizes {
            dim: 12,
            shards: 2,
            rounds: 8,
        }
    }
}

fn sizes_table(quick: bool) -> Vec<(&'static str, f64)> {
    let s = sizes(quick);
    vec![
        ("dim", s.dim as f64),
        ("nodes", (1u64 << s.dim) as f64),
        ("shards", s.shards as f64),
        ("rounds", s.rounds as f64),
        ("allreduce_values", AR_VALUES as f64),
    ]
}

/// The program's inputs: plain `Copy` data, so every shard thread gets its
/// own. Contributions are integers, so the closed-form sums are exact.
#[derive(Clone, Copy)]
struct Inputs {
    contributions: Contributions,
    rounds: u32,
    /// Nodes do not start in lockstep: node `id` first spends
    /// `(id * skew.0 + skew.1) % 64` control-processor instructions.
    skew: (u64, u64),
}

impl Inputs {
    fn generate(seed: u64, rounds: u32) -> Inputs {
        let mut rng = Rng::new(seed ^ 0x5AAD);
        Inputs {
            contributions: Contributions::generate(&mut rng),
            rounds,
            skew: (1 + rng.below(62), rng.below(64)),
        }
    }

    /// What every node must return: an FNV over each round's sums.
    fn expected(&self, nodes: u32) -> u64 {
        let mut h = Fnv::default();
        for r in 0..self.rounds {
            self.contributions
                .sums(nodes, r)
                .iter()
                .for_each(|&v| h.f64(v));
        }
        h.0
    }
}

async fn node_program(ctx: NodeCtx, cube: Hypercube, inp: Inputs) -> u64 {
    let mut h = Fnv::default();
    ctx.cp_compute((ctx.id() as u64 * inp.skew.0 + inp.skew.1) % 64)
        .await;
    for r in 0..inp.rounds {
        let mine = inp.contributions.of(ctx.id(), r);
        let sum = collectives::allreduce(&ctx, cube, CombineOp::Add, mine).await;
        sum.iter().for_each(|v| h.f64(v.to_host()));
    }
    h.0
}

fn sharded(s: &Sizes, shards: u32, inp: Inputs, record_rounds: bool) -> ParallelRun<u64> {
    let cube = Hypercube::new(s.dim);
    let mut pcfg = ParallelCfg::new(shards);
    pcfg.record_rounds = record_rounds;
    run_parallel(MachineCfg::cube_small_mem(s.dim, 8), &pcfg, move |ctx| {
        node_program(ctx, cube, inp)
    })
}

fn rep(ctx: &mut RepCtx<'_>) -> RepOut {
    let s = sizes(ctx.quick);
    let spans = &mut *ctx.spans;
    let mut checks = Checks::default();
    let nodes = 1u32 << s.dim;

    // Set-up is input generation and the closed forms the check needs:
    // the machine is built inside the timed call.
    let setup = spans.open("setup");
    let ((inp, want), _) = spans.time("inputs", || {
        let inp = Inputs::generate(ctx.seed, s.rounds);
        (inp, inp.expected(nodes))
    });
    let setup_s = spans.close(setup);

    let run = spans.open_granted("run");
    let ((pr, _), allocs) = alloc::count(ctx.traced, || {
        spans.time("core.parallel", || sharded(&s, s.shards, inp, ctx.traced))
    });
    let wall_s = spans.close_with(run, &[("events", pr.events as f64)]);
    let census = Census::of_parallel(&pr);

    let verify = spans.open("verify");
    checks.check(pr.quiescent, || {
        "sharded run did not reach quiescence".into()
    });
    let mut digest = Fnv::default();
    for (id, got) in pr.results.iter().enumerate() {
        checks.check(*got == Some(want), || {
            format!("node {id}: allreduce results differ from the closed forms")
        });
        digest.u64(got.unwrap_or(0));
    }
    digest.u64(pr.final_time.as_ps());
    spans.close(verify);

    let mut values = census.layer_metrics(wall_s, ctx.traced.then_some(allocs));
    values.push(("sim_elapsed_ms", census.sim_ms()));
    if ctx.traced {
        // Lockstep rounds are recorded per shard; every shard runs them all.
        let rounds = pr.rounds.len() as f64 / s.shards as f64;
        values.push(("core.parallel_rounds_per_sim_ms", rounds / census.sim_ms()));
    }

    RepOut {
        setup_s,
        wall_s,
        values,
        digest: digest.0,
        checks,
    }
}

/// Traced pass only: the sequential and 1-shard comparators, each timed
/// build + run like the sharded call, and the machine build on its own.
fn once(seed: u64, quick: bool, traced: bool) -> OnceOut {
    let mut out = OnceOut::default();
    if !traced {
        return out;
    }
    let s = sizes(quick);
    let inp = Inputs::generate(seed, s.rounds);
    let want = inp.expected(1 << s.dim);
    let cube = Hypercube::new(s.dim);

    let t = Instant::now();
    let mut m = Machine::build(MachineCfg::cube_small_mem(s.dim, 8));
    let build_s = t.elapsed().as_secs_f64();
    let handles = m.launch(|ctx| node_program(ctx, cube, inp));
    let ok = m.run().quiescent;
    let seq_s = t.elapsed().as_secs_f64();
    let seq_events = m.profile().timer_events;
    let seq_ps = m.now().as_ps();
    out.checks.check(
        ok && handles.iter().all(|h| h.try_take() == Some(want)),
        || "sequential comparator differs from the closed forms".into(),
    );
    drop(m);

    let timed = |shards: u32| {
        let t = Instant::now();
        let run = sharded(&s, shards, inp, false);
        (t.elapsed().as_secs_f64(), run)
    };
    let (one_s, one) = timed(1);
    let (two_s, two) = timed(s.shards);
    for (name, run) in [("1-shard", &one), ("sharded", &two)] {
        out.checks
            .check(run.quiescent && run.final_time.as_ps() == seq_ps, || {
                format!("{name} comparator's final time differs from the sequential run")
            });
    }
    out.values.extend([
        (
            "core.build_us_per_node",
            build_s * 1e6 / (1u64 << s.dim) as f64,
        ),
        (
            "core.parallel_boundary_events",
            two.events as f64 - seq_events as f64,
        ),
        ("core.parallel_speedup_vs_seq", seq_s / two_s),
        ("core.parallel_1shard_overhead", one_s / seq_s),
    ]);
    out
}

/// The workload.
pub const WORKLOAD: Workload = Workload {
    name: "sharded_dim12",
    sizes: sizes_table,
    rep,
    once: Some(once),
};
