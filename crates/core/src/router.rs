//! Store-and-forward message routing between **arbitrary** node pairs.
//!
//! The collectives and kernels communicate only between cube neighbours;
//! general message passing (the Cosmic Cube style the paper cites as its
//! lineage, refs. 7–8) needs intermediate nodes to forward. This module runs a
//! **router daemon** as an Occam process on every node:
//!
//! * programs inject messages through a zero-latency loopback sublink (on
//!   the hardware this is a memory handoff to the kernel process);
//! * the daemon `ALT`s over the loopback and every cube dimension;
//! * non-local messages are forwarded along the **e-cube** dimension (the
//!   lowest set bit of `here XOR dst`), which is deadlock-free because the
//!   dimension sequence increases monotonically along every route;
//! * each hop pays the real link time plus a small control-processor
//!   routing charge.
//!
//! Shutdown is the system board's reset line: every live node's daemon is
//! poisoned through its own loopback, all at the same instant, and the
//! daemons are awaited. Nothing is routed, so stopping costs one loopback
//! frame plus one routing decision on any fabric, healthy or degraded.
//! Shutdown is for a quiet fabric: a frame still in flight when it starts
//! is dropped after `FORWARD_DEADLINE` and counted in `router/dropped`.
//!
//! ## Degraded-mode routing
//!
//! When a fault plan kills links, the strict e-cube choice (lowest set bit
//! of `here XOR dst`) may be dead. The daemon then **falls back to the next
//! live dimension** that still needs correcting — any correction order
//! keeps intermediates inside the submask lattice, so the hop count is
//! unchanged and progress is still monotone. Only when *every* remaining
//! correction dimension is dead does the message take a **detour**: it
//! flips the lowest live dimension outside the correction set, bounded by a
//! per-message budget of two extra hops (`DETOUR_BUDGET`), and records the
//! flipped dimension so the next hop does not immediately undo it. A
//! message whose budget runs dry is dropped rather than left to wander.
//! The daemon books `router/reroutes`, `router/retries` (a link died while
//! a hop was being sent) and `router/dropped` under its node's registry
//! scope ([`ts_node::ColdMeters`], registered on first bump).

use std::pin::pin;
use std::rc::Rc;

use ts_cube::Hypercube;
use ts_link::{AltSet, LinkChannel, LinkMeters, LinkParams, LinkStatus, Wire};
use ts_node::NodeCtx;
use ts_sim::{Dur, JoinHandle, Mailbox};

use crate::Machine;

/// Control-processor instructions charged per routing decision.
const ROUTE_CP_INSTRS: u64 = 12;

/// Loopback line: injection is a memory handoff, not a wire, so its rate is
/// fast enough to be negligible (1 Gbit/s, no DMA startup beyond 1 ns).
const LOOPBACK: LinkParams = LinkParams {
    bit_rate: 1_000_000_000,
    frame_bits: 8,
    ack_bits: 0,
    turnaround_bits: 0,
    dma_startup: Dur::ns(1),
};

const KIND_DATA: u32 = 0;
const KIND_POISON: u32 = 1;

/// Frame header: destination, source, kind, detour budget, avoid-dim,
/// hops taken so far.
const HDR: usize = 6;
/// Extra hops a message may spend detouring around dead links.
const DETOUR_BUDGET: u32 = 2;
/// Sentinel for "no dimension to avoid".
const AVOID_NONE: u32 = u32::MAX;
/// A forwarded hop that has not been accepted after this long is abandoned
/// (the next daemon died with the frame en route). Far above any legitimate
/// queueing delay, so healthy traffic never trips it.
const FORWARD_DEADLINE: Dur = Dur::us(100_000);

fn frame_for(dst: u32, src: u32, kind: u32, payload: &[u32]) -> Vec<u32> {
    let mut frame = ts_sim::pool::take_words(payload.len() + HDR);
    frame.push(dst);
    frame.push(src);
    frame.push(kind);
    frame.push(DETOUR_BUDGET);
    frame.push(AVOID_NONE);
    frame.push(0); // hops taken
    frame.extend_from_slice(payload);
    frame
}

/// Per-node routing table: the watchable status handles of every
/// dimension's link pair, resolved once at daemon start. Each routing
/// decision then reads a handful of shared liveness flags — no node-state
/// borrow, no channel clones, no per-dimension scan through the wiring —
/// and picks the outgoing dimension with bit arithmetic on the live mask.
/// Liveness is re-read per hop, so fault-plan link kills are visible
/// immediately (the status flags are the same cells the fault plan flips).
struct RouteTable {
    dims: Vec<Option<(LinkStatus, LinkStatus)>>,
}

impl RouteTable {
    fn new(ctx: &NodeCtx, cube: Hypercube) -> RouteTable {
        RouteTable {
            dims: (0..cube.dim() as usize)
                .map(|d| ctx.link_statuses(d))
                .collect(),
        }
    }

    /// Bitmask of dimensions whose link pair is currently alive.
    fn live_mask(&self) -> u32 {
        let mut mask = 0u32;
        for (d, pair) in self.dims.iter().enumerate() {
            if let Some((out, inp)) = pair {
                if out.is_up() && inp.is_up() {
                    mask |= 1 << d;
                }
            }
        }
        mask
    }
}

/// Per-node endpoint for routed messaging.
#[derive(Clone)]
pub struct RouterHandle {
    me: u32,
    ctx: NodeCtx,
    inject: LinkChannel,
    deliver: Mailbox<(u32, Vec<u32>)>,
}

impl RouterHandle {
    /// Send `payload` to node `dst` (any node, any distance). Completes
    /// when the message has left this node; errors instead of hanging if
    /// this node's daemon is dead (the node crashed).
    pub async fn send_to(&self, dst: u32, payload: Vec<u32>) -> Result<(), ts_link::LinkError> {
        let frame = frame_for(dst, self.me, KIND_DATA, &payload);
        self.inject.try_send(self.ctx.handle(), frame).await
    }

    /// Receive the next message delivered to this node: `(source, payload)`.
    pub async fn recv(&self) -> (u32, Vec<u32>) {
        self.deliver.recv().await
    }

    /// The node context behind this endpoint (clock access etc.).
    pub fn ctx(&self) -> &NodeCtx {
        &self.ctx
    }
}

/// The running router fabric: one daemon per node.
pub struct Router {
    handles: Vec<RouterHandle>,
    daemons: Vec<JoinHandle<u64>>,
}

impl Router {
    /// Spawn router daemons on every node of the machine.
    pub fn start(machine: &Machine) -> Router {
        let cube = machine.cube;
        let mut handles = Vec::with_capacity(machine.nodes.len());
        let mut daemons = Vec::with_capacity(machine.nodes.len());
        for node in &machine.nodes {
            let ctx = node.ctx();
            // The loopback dies with the node, so injection into a crashed
            // node's daemon errors instead of hanging.
            let wire = Wire::new("router.loopback", LOOPBACK);
            let inject =
                LinkChannel::metered(wire.clone(), wire, node.health(), LinkMeters::detached());
            let deliver = Mailbox::new();
            daemons.push(ctx.handle().spawn(daemon(
                ctx.clone(),
                cube,
                inject.clone(),
                deliver.clone(),
            )));
            handles.push(RouterHandle {
                me: node.id,
                ctx,
                inject,
                deliver,
            });
        }
        Router { handles, daemons }
    }

    /// This node's endpoint.
    pub fn handle(&self, node: u32) -> RouterHandle {
        self.handles[node as usize].clone()
    }

    /// Stop every daemon through the reset line: poison each live node's
    /// daemon through its own loopback, all at once, and await them all
    /// (host task; await it before expecting quiescence). A crashed node's
    /// daemon has already been torn down by its health watch. Returns the
    /// number of data frames the daemons forwarded.
    pub async fn shutdown(self) -> u64 {
        for (h, daemon) in self.handles.iter().zip(&self.daemons) {
            if !daemon.is_finished() {
                let reset = h.clone();
                h.ctx.handle().spawn(async move {
                    let frame = frame_for(reset.me, reset.me, KIND_POISON, &[]);
                    // A node that crashes meanwhile refuses the poison; its
                    // daemon stops on its own.
                    let _ = reset.inject.try_send(reset.ctx.handle(), frame).await;
                });
            }
        }
        let mut total = 0;
        for daemon in self.daemons {
            total += daemon.await;
        }
        total
    }
}

/// The per-node router daemon. Returns the number of messages forwarded.
async fn daemon(
    ctx: NodeCtx,
    cube: Hypercube,
    inject: LinkChannel,
    deliver: Mailbox<(u32, Vec<u32>)>,
) -> u64 {
    let me = ctx.id();
    let mut forwarded = 0u64;
    let mut crashed = ctx.health().watch_down();
    // Distribution of hop counts over messages delivered *here*.
    let hops_hist = ctx.meters().router_hops();
    // Prepared once: the ALT branch set (loopback first, for priority, then
    // each cube dimension) and the routing table. Every message the daemon
    // ever handles reuses both — nothing is rebuilt per iteration.
    let mut alt = {
        let chans: Vec<LinkChannel> = std::iter::once(inject.clone())
            .chain((0..cube.dim() as usize).map(|d| ctx.in_channel(d)))
            .collect();
        let refs: Vec<&LinkChannel> = chans.iter().collect();
        AltSet::new(&refs)
    };
    let table = Rc::new(RouteTable::new(&ctx, cube));
    loop {
        // ALT over the prepared branch set, racing the node's health flag:
        // a crash tears the daemon down.
        let frame = match alt.recv_or_down(ctx.handle(), &mut crashed).await {
            Ok((_idx, f)) => f,
            Err(_) => return forwarded, // node crashed
        };
        let dst = frame[0];
        let src = frame[1];
        let kind = frame[2];
        ctx.cp_compute(ROUTE_CP_INSTRS).await;
        if dst == me {
            match kind {
                KIND_POISON => {
                    ts_sim::pool::put_words(frame);
                    return forwarded;
                }
                _ => {
                    hops_hist.observe(frame[5] as u64);
                    deliver.send((src, frame[HDR..].to_vec()));
                    ts_sim::pool::put_words(frame);
                }
            }
        } else {
            // Forward asynchronously: a daemon blocked in a rendezvous
            // send could not keep receiving, and two daemons sending to
            // each other would deadlock (e-cube only guarantees freedom
            // from *cyclic* waits given output buffering, which this
            // models — the hardware's DMA engines are exactly that).
            let fwd = ctx.clone();
            let tbl = table.clone();
            ctx.handle().spawn(async move {
                forward_frame(fwd, tbl, frame).await;
            });
            forwarded += 1;
        }
    }
}

/// Forward one frame a hop towards its destination, degrading gracefully:
/// prefer the strict e-cube dimension, fall back to the next live
/// correction dimension, detour on a non-correction dimension within the
/// frame's budget, retry when a link dies mid-hop, and drop (with a
/// counter) when nothing is left to try.
async fn forward_frame(ctx: NodeCtx, table: Rc<RouteTable>, mut frame: Vec<u32>) {
    let me = ctx.id();
    let dst = frame[0];
    loop {
        // Liveness is re-read from the cached status handles on every
        // attempt; dimension choice is then pure bit arithmetic. Lowest set
        // bit first everywhere, matching e-cube order.
        let live = table.live_mask();
        let diff = me ^ dst;
        let ecube = diff.trailing_zeros() as usize;
        let avoid = frame[4];
        let avoid_bit = if avoid < 32 { 1u32 << avoid } else { 0 };
        // Preferred: the lowest live dimension still needing correction,
        // skipping the detour dimension we just arrived on.
        let cand = diff & live & !avoid_bit;
        let mut choice = (cand != 0).then(|| cand.trailing_zeros() as usize);
        if choice.is_none() && diff & live & avoid_bit != 0 {
            // Undoing the detour is all that is left — allowed, it just
            // costs the budget already spent.
            choice = Some(avoid as usize);
        }
        let d = match choice {
            Some(d) => {
                frame[4] = AVOID_NONE;
                d
            }
            None => {
                // Every correction dimension is dead here: detour on the
                // lowest live dimension outside the correction set.
                let budget = frame[3];
                let det = live & !diff & !avoid_bit;
                let detour = (det != 0).then(|| det.trailing_zeros() as usize);
                match (budget, detour) {
                    (1.., Some(d)) => {
                        frame[3] = budget - 1;
                        frame[4] = d as u32;
                        d
                    }
                    _ => {
                        ctx.meters().cold().router_dropped.inc();
                        ts_sim::pool::put_words(frame);
                        return;
                    }
                }
            }
        };
        if d != ecube {
            ctx.meters().cold().router_reroutes.inc();
        }
        // Count the hop in the (pooled) copy we send; a failed attempt
        // retries from the original frame without inflating the count.
        let mut hop = ts_sim::pool::take_words(frame.len());
        hop.extend_from_slice(&frame);
        hop[5] += 1;
        let send = pin!(ctx.try_send_dim(d, hop));
        match ts_sim::select2(send, ctx.handle().sleep(FORWARD_DEADLINE)).await {
            ts_sim::Either::Left(Ok(())) => {
                ts_sim::pool::put_words(frame);
                return;
            }
            ts_sim::Either::Left(Err(_)) => {
                // The link died under us: pick again.
                ctx.meters().cold().router_retries.inc();
            }
            ts_sim::Either::Right(()) => {
                // Nobody took the frame within the deadline — the next
                // daemon is gone. Abandon rather than park forever.
                ctx.meters().cold().router_dropped.inc();
                ts_sim::pool::put_words(frame);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;
    use crate::MachineCfg;
    use ts_fpu::Sf64;
    use ts_node::CombineOp;

    #[test]
    fn point_to_point_across_the_cube() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        let router = Router::start(&m);
        let h0 = router.handle(0);
        let h7 = router.handle(7);
        let done = m.handle().spawn(async move {
            h0.send_to(7, vec![1, 2, 3]).await.unwrap();
            let (src, data) = h7.recv().await;
            router.shutdown().await;
            (src, data)
        });
        let r = m.run();
        assert!(r.quiescent, "router did not shut down cleanly");
        assert_eq!(done.try_take(), Some((0, vec![1, 2, 3])));
        // 0 → 7 in a 3-cube is exactly 3 e-cube hops, booked in the
        // receiver's hop histogram.
        let hops = m.registry().scope("node/7").histogram("router/hops");
        assert_eq!(hops.total(), 1);
        assert_eq!(hops.mean(), 3.0);
    }

    #[test]
    fn latency_scales_with_hops() {
        // 1-hop vs 3-hop delivery of the same payload.
        let time_for = |dst: u32| {
            let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
            let router = Router::start(&m);
            let h0 = router.handle(0);
            let hd = router.handle(dst);
            let jh = m.handle().spawn(async move {
                let t0 = hd.ctx.now();
                h0.send_to(dst, vec![0u32; 64]).await.unwrap();
                hd.recv().await;
                let dt = hd.ctx.now().since(t0);
                router.shutdown().await;
                dt
            });
            assert!(m.run().quiescent);
            jh.try_take().unwrap()
        };
        let one_hop = time_for(1);
        let three_hops = time_for(7);
        let ratio = three_hops.as_secs_f64() / one_hop.as_secs_f64();
        assert!(
            (2.5..3.5).contains(&ratio),
            "3 hops should cost ~3x one hop: {ratio} ({one_hop} vs {three_hops})"
        );
    }

    #[test]
    fn reroutes_around_downed_link() {
        // Kill edge 0–1 (dimension 0 at node 0). A 0→7 message still makes
        // it in 3 hops by correcting a higher dimension first; a 0→1
        // message needs a +2-hop detour. Both must be delivered.
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        FaultEvent::LinkDown { node: 0, dim: 0 }.apply(&m);
        let router = Router::start(&m);
        let h0 = router.handle(0);
        let h1 = router.handle(1);
        let h7 = router.handle(7);
        let done = m.handle().spawn(async move {
            h0.send_to(7, vec![77]).await.unwrap();
            let far = h7.recv().await;
            h0.send_to(1, vec![11]).await.unwrap();
            let near = h1.recv().await;
            router.shutdown().await;
            (far, near)
        });
        let r = m.run();
        assert!(r.quiescent, "degraded routing must still terminate");
        assert_eq!(done.try_take(), Some(((0, vec![77]), (0, vec![11]))));
        assert!(
            m.registry().sum_counters("router/reroutes") >= 1,
            "detour must be counted"
        );
    }

    #[test]
    fn message_to_crashed_node_dropped_without_hanging() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        let router = Router::start(&m);
        FaultEvent::NodeCrash { node: 7 }.apply(&m);
        let h0 = router.handle(0);
        let h7 = router.handle(7);
        let done = m.handle().spawn(async move {
            // Injecting *at* the crashed node errors immediately.
            assert!(h7.send_to(0, vec![1]).await.is_err());
            // A message *to* the crashed node is dropped en route.
            h0.send_to(7, vec![9]).await.unwrap();
            router.shutdown().await
        });
        let r = m.run();
        assert!(r.quiescent, "crashed node must not strand the fabric");
        assert!(done.try_take().is_some());
        assert!(m.registry().sum_counters("router/dropped") >= 1);
    }

    /// Shutdown is the reset line on any fabric: healthy, with crashed
    /// nodes or with a dead link, it ends one loopback frame plus one
    /// routing decision after it starts, every live daemon takes its poison
    /// (one routing charge each, none on a crashed node) and nothing is
    /// dropped.
    #[test]
    fn shutdown_is_one_loopback_hop_on_any_fabric() {
        use FaultEvent::{LinkDown, NodeCrash};
        let hop = LOOPBACK.message_time(HDR * 4) + ts_node::CP_INSTR_TIME * ROUTE_CP_INSTRS;
        let cases: [(&str, &[FaultEvent]); 4] = [
            ("healthy", &[]),
            ("node 0 crashed", &[NodeCrash { node: 0 }]),
            (
                "nodes 1 and 2 crashed",
                &[NodeCrash { node: 1 }, NodeCrash { node: 2 }],
            ),
            ("link 0/0 down", &[LinkDown { node: 0, dim: 0 }]),
        ];
        for (case, faults) in cases {
            let mut m = Machine::build(MachineCfg::cube_small_mem(4, 8));
            let router = Router::start(&m);
            faults.iter().for_each(|f| f.apply(&m));
            let sim = m.handle();
            let done = m.handle().spawn(async move {
                let start = sim.now();
                let forwarded = router.shutdown().await;
                (forwarded, sim.now().since(start))
            });
            assert!(m.run().quiescent, "{case}: not quiescent");
            assert_eq!(done.try_take(), Some((0, hop)), "{case}");
            for node in &m.nodes {
                let charged = if node.is_crashed() {
                    0
                } else {
                    ROUTE_CP_INSTRS
                };
                assert_eq!(
                    node.meters().cp_instrs.get(),
                    charged,
                    "{case}: node {}",
                    node.id
                );
            }
            assert_eq!(m.registry().sum_counters("router/dropped"), 0, "{case}");
        }
    }

    /// Every word a cube sublink carries is booked once at each end:
    /// Σ `link/words_sent` = Σ `link/words_recv` = Σ `link/bytes_sent` / 4
    /// over the machine, on routed traffic (whose hops each daemon receives
    /// through its `ALT`), on a collective, and on a collective whose
    /// transfers go-back-N recovers.
    #[test]
    fn every_link_word_is_booked_at_both_ends() {
        // Words sent, words received, and both byte counts in words.
        let balance = |m: &Machine| {
            let sum = |path| m.registry().sum_counters(path);
            let words = [sum("link/words_sent"), sum("link/words_recv")];
            let bytes = [sum("link/bytes_sent"), sum("link/bytes_recv")];
            [words[0], words[1], bytes[0] / 4, bytes[1] / 4]
        };
        let cube = || Machine::build(MachineCfg::cube_small_mem(4, 8));

        // One 8-word message from every node to node (id + 5) mod 16.
        let mut m = cube();
        let router = Router::start(&m);
        let ends: Vec<RouterHandle> = (0..16).map(|i| router.handle(i)).collect();
        m.handle().spawn(async move {
            for (i, end) in (0..).zip(&ends) {
                end.send_to((i + 5) % 16, vec![i; 8]).await.unwrap();
            }
            for end in &ends {
                end.recv().await;
            }
            router.shutdown().await;
        });
        assert!(m.run().quiescent);
        let routed = balance(&m);

        let allreduce = |m: &mut Machine| {
            let cube = m.cube;
            m.launch(move |ctx| async move {
                let mine = vec![Sf64::from(ctx.id() as f64); 4];
                crate::collectives::allreduce(&ctx, cube, CombineOp::Add, mine).await
            });
            assert!(m.run().quiescent);
        };
        let mut m = cube();
        allreduce(&mut m);
        let collective = balance(&m);

        let mut m = cube();
        for node in [0, 5, 10] {
            FaultEvent::WireCorrupt {
                node,
                dim: 1,
                flit_bit: 7,
            }
            .apply(&m);
            FaultEvent::FlitDrop { node, dim: 2 }.apply(&m);
        }
        allreduce(&mut m);
        assert!(m.registry().sum_counters("link/retransmits") > 0);
        let recovered = balance(&m);

        for (case, booked) in [
            ("routed", routed),
            ("collective", collective),
            ("recovered", recovered),
        ] {
            assert!(booked[0] > 0, "{case}: no traffic");
            assert_eq!(
                booked, [booked[0]; 4],
                "{case}: words out, words in, bytes out / 4, bytes in / 4"
            );
        }
    }

    #[test]
    fn random_all_to_all_delivers_everything() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        let router = Router::start(&m);
        let n = 8u32;
        // Every node sends one tagged message to every other node.
        let mut workers = Vec::new();
        for i in 0..n {
            let h = router.handle(i);
            let sender = m.handle().spawn({
                let h = h.clone();
                async move {
                    for j in 0..n {
                        if j != i {
                            h.send_to(j, vec![i * 1000 + j]).await.unwrap();
                        }
                    }
                }
            });
            let recvr = m.handle().spawn(async move {
                let mut got = Vec::new();
                for _ in 0..n - 1 {
                    let (src, data) = h.recv().await;
                    got.push((src, data[0]));
                }
                got.sort_unstable();
                got
            });
            workers.push((i, sender, recvr));
        }
        let closer = m.handle().spawn(async move {
            let mut results = Vec::new();
            for (i, s, r) in workers {
                s.await;
                results.push((i, r.await));
            }
            router.shutdown().await;
            results
        });
        let rep = m.run();
        assert!(rep.quiescent, "all-to-all did not terminate");
        let results = closer.try_take().unwrap();
        for (i, got) in results {
            let want: Vec<(u32, u32)> = (0..n)
                .filter(|&j| j != i)
                .map(|j| (j, j * 1000 + i))
                .collect();
            assert_eq!(got, want, "node {i}");
        }
    }
}
