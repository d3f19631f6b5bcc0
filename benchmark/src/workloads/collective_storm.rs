//! `collective_storm` — the scale lane.
//!
//! One launch on a 1024-node small-memory cube: every node runs rounds of
//! a 4-value `allreduce`, a 16-word `broadcast` from a seed-chosen root
//! and a `barrier` every fourth round; then a routed phase sends one
//! message per node to a seed-chosen destination through `core::router`.
//! All host time is executor, link, router and collectives; there is
//! almost no arithmetic, so a soft-float or vector-unit change predicts no
//! move here.

use std::rc::Rc;

use fps_t_series::fpu::Sf64;
use fps_t_series::machine::model::NetModel;
use fps_t_series::machine::{collectives, Hypercube, Machine, MachineCfg};
use fps_t_series::node::{occam, CombineOp, NodeCtx};
use fps_t_series::sim::Rng;

use super::closed_form::{Contributions, AR_VALUES};
use super::routed::{self, RoutedPlan};
use super::{Checks, OnceOut, RepCtx, RepOut, Workload};
use crate::alloc;
use crate::census::Census;
use crate::stats::Fnv;

/// Words per broadcast.
const BCAST_WORDS: usize = 16;
/// Payload words per routed message.
const ROUTED_WORDS: usize = 8;
struct Sizes {
    dim: u32,
    rounds: u32,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes { dim: 6, rounds: 4 }
    } else {
        Sizes {
            dim: 10,
            rounds: 24,
        }
    }
}

fn sizes_table(quick: bool) -> Vec<(&'static str, f64)> {
    let s = sizes(quick);
    vec![
        ("dim", s.dim as f64),
        ("nodes", (1u64 << s.dim) as f64),
        ("rounds", s.rounds as f64),
        ("allreduce_values", AR_VALUES as f64),
        ("broadcast_words", BCAST_WORDS as f64),
        ("routed_msgs_per_node", 1.0),
        ("routed_words", ROUTED_WORDS as f64),
    ]
}

/// Everything the program is given; generated from the seed in set-up.
struct Inputs {
    contributions: Contributions,
    roots: Vec<u32>,
    payloads: Vec<Vec<u32>>,
    routed: Rc<RoutedPlan>,
}

impl Inputs {
    fn generate(seed: u64, s: &Sizes) -> Inputs {
        let mut rng = Rng::new(seed ^ 0xC011_EC71);
        let nodes = 1u64 << s.dim;
        let contributions = Contributions::generate(&mut rng);
        let roots = (0..s.rounds).map(|_| rng.below(nodes) as u32).collect();
        let payloads = (0..s.rounds)
            .map(|_| (0..BCAST_WORDS).map(|_| rng.next_u32()).collect())
            .collect();
        let routed = Rc::new(RoutedPlan::generate(
            &mut rng,
            nodes as u32,
            ROUTED_WORDS,
            1,
        ));
        Inputs {
            contributions,
            roots,
            payloads,
            routed,
        }
    }

    /// The digest every node must report: closed-form sums and the
    /// broadcast payload of every round.
    fn expected_node_digest(&self, nodes: u32) -> u64 {
        let mut h = Fnv::default();
        for (r, payload) in self.payloads.iter().enumerate() {
            self.contributions
                .sums(nodes, r as u32)
                .iter()
                .for_each(|&v| h.f64(v));
            payload.iter().for_each(|&w| h.u64(w as u64));
        }
        h.0
    }
}

async fn storm_node(ctx: NodeCtx, cube: Hypercube, inp: Rc<Inputs>) -> u64 {
    let mut h = Fnv::default();
    for (r, &root) in inp.roots.iter().enumerate() {
        let mine = inp.contributions.of(ctx.id(), r as u32);
        let sum = collectives::allreduce(&ctx, cube, CombineOp::Add, mine).await;
        sum.iter().for_each(|v| h.f64(v.to_host()));
        let data = (ctx.id() == root).then(|| inp.payloads[r].clone());
        let got = collectives::broadcast(&ctx, cube, root, data).await;
        got.iter().for_each(|&w| h.u64(w as u64));
        if r % 4 == 3 {
            collectives::barrier(&ctx, cube).await;
        }
    }
    h.0
}

fn rep(ctx: &mut RepCtx<'_>) -> RepOut {
    let s = sizes(ctx.quick);
    let spans = &mut *ctx.spans;
    let mut checks = Checks::default();

    // --- set-up: build + inputs ---------------------------------------------
    let setup = spans.open("setup");
    let (mut m, build_s) = spans.time("core.build", || {
        Machine::build(MachineCfg::cube_small_mem(s.dim, 8))
    });
    let (inp, _) = spans.time("inputs", || Rc::new(Inputs::generate(ctx.seed, &s)));
    let setup_s = spans.close(setup);
    let cube = m.cube;
    let nodes = cube.nodes();

    // --- timed region -----------------------------------------------------
    let run = spans.open_granted("run");
    let ((storm, inboxes, quiescent), allocs) = alloc::count(ctx.traced, || {
        let launch = spans.open("launch");
        let storm = m.launch(|c| storm_node(c, cube, inp.clone()));
        spans.close(launch);
        let (r1, _) = spans.time("run.collectives", || m.run());

        let routed = spans.open("run.routed");
        let inboxes = routed::run(&mut m, &inp.routed);
        spans.close(routed);
        (storm, inboxes, r1.quiescent)
    });
    let profile = m.profile();
    let wall_s = spans.close_with(
        run,
        &[
            ("events", profile.timer_events as f64),
            ("polls", profile.polls as f64),
        ],
    );
    let census = Census::of_machine(&m);

    // --- verify -------------------------------------------------------------
    let verify = spans.open("verify");
    checks.check(quiescent, || {
        "collective rounds did not reach quiescence".into()
    });
    let want = inp.expected_node_digest(nodes);
    let mut digest = Fnv::default();
    for (id, h) in storm.into_iter().enumerate() {
        let got = h.try_take();
        checks.check(got == Some(want), || {
            format!("node {id}: collective results differ from the closed forms")
        });
        digest.u64(got.unwrap_or(0));
    }
    routed::verify(&inp.routed, &inboxes, &mut checks);
    for &(_, got) in inboxes.iter().flatten() {
        digest.u64(got);
    }
    digest.u64(census.sim_ps);
    spans.close(verify);

    // --- report -------------------------------------------------------------
    let report = spans.open("report");
    let mut values = census.layer_metrics(wall_s, ctx.traced.then_some(allocs));
    values.push(("sim_elapsed_ms", census.sim_ms()));
    values.push(("core.build_us_per_node", build_s * 1e6 / nodes as f64));
    spans.close(report);

    RepOut {
        setup_s,
        wall_s,
        values,
        digest: digest.0,
        checks,
    }
}

/// Host seconds of `rounds` storm rounds on a fresh dim-`dim` machine, with
/// the machine's own tracer attached or not: the two sides of the ladder's
/// `sim.trace_on_overhead_frac`. `None` if the rounds stalled.
pub fn rounds_host_s(dim: u32, rounds: u32, seed: u64, tracing: bool) -> Option<f64> {
    let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
    let cube = m.cube;
    let inp = Rc::new(Inputs::generate(seed, &Sizes { dim, rounds }));
    let tracer = tracing.then(|| m.enable_tracing());
    m.launch(|c| storm_node(c, cube, inp.clone()));
    let t = std::time::Instant::now();
    let quiescent = m.run().quiescent;
    let host_s = t.elapsed().as_secs_f64();
    drop(tracer);
    quiescent.then_some(host_s)
}

/// One isolated operation on the storm's own machine size, timed on the
/// simulated clock.
fn isolated(
    m: &mut Machine,
    checks: &mut Checks,
    what: &str,
    program: impl FnMut(NodeCtx) -> std::pin::Pin<Box<dyn std::future::Future<Output = ()>>>,
) -> f64 {
    let t0 = m.now();
    m.launch(program);
    let ok = m.run().quiescent;
    checks.check(ok, || format!("{what} probe stalled"));
    m.now().since(t0).as_secs_f64()
}

/// `model_err_max`: the storm's collectives, one at a time, against the
/// closed forms of `core::model::NetModel`.
fn once(_seed: u64, quick: bool, _traced: bool) -> OnceOut {
    let s = sizes(quick);
    let mut checks = Checks::default();
    let mut m = Machine::build(MachineCfg::cube_small_mem(s.dim, 8));
    let cube = m.cube;
    let net = NetModel::default();
    /// Words each node holds in the all-to-all probe.
    const A2A_WORDS: usize = 64;

    let p2p = isolated(&mut m, &mut checks, "p2p", |c| {
        Box::pin(async move {
            match c.id() {
                0 => c.send_dim(0, vec![7; BCAST_WORDS]).await,
                1 => drop(c.recv_dim(0).await),
                _ => {}
            }
        })
    });
    let bcast = isolated(&mut m, &mut checks, "broadcast", |c| {
        Box::pin(async move {
            let data = (c.id() == 0).then(|| vec![7; BCAST_WORDS]);
            collectives::broadcast(&c, cube, 0, data).await;
        })
    });
    let allred = isolated(&mut m, &mut checks, "allreduce", |c| {
        Box::pin(async move {
            let mine = vec![Sf64::from(1.0); AR_VALUES];
            collectives::allreduce(&c, cube, CombineOp::Add, mine).await;
        })
    });
    // All-to-all personalised exchange: log2(p) steps, each swapping half
    // of the local data with the neighbour across one dimension.
    let a2a = isolated(&mut m, &mut checks, "all-to-all", |c| {
        Box::pin(async move {
            for d in 0..cube.dim() as usize {
                let (tx, rx) = (c.clone(), c.clone());
                occam::par2(
                    c.handle(),
                    async move { tx.send_dim(d, vec![d as u32; A2A_WORDS / 2]).await },
                    async move { drop(rx.recv_dim(d).await) },
                )
                .await;
            }
        })
    });

    let rel = |sim: f64, model: fps_t_series::sim::Dur| {
        let model = model.as_secs_f64();
        (sim - model).abs() / model
    };
    let errs = [
        rel(p2p, net.p2p(BCAST_WORDS)),
        rel(bcast, net.broadcast(s.dim, BCAST_WORDS)),
        rel(allred, net.allreduce(s.dim, AR_VALUES)),
        rel(a2a, net.all_to_all(s.dim, A2A_WORDS)),
    ];
    let max = errs.iter().copied().fold(0.0, f64::max);
    OnceOut {
        values: vec![("model_err_max", max)],
        checks,
    }
}

/// The workload.
pub const WORKLOAD: Workload = Workload {
    name: "collective_storm",
    sizes: sizes_table,
    rep,
    once: Some(once),
};
