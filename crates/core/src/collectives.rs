//! Collective communication on the binary n-cube.
//!
//! Everything is built from the two classical hypercube schedules:
//!
//! * **binomial trees** (via [`Hypercube::binomial_children`]) for rooted
//!   operations — broadcast and reduce complete in n = log₂ p steps, the
//!   O(log n) long-range cost the paper advertises; [`broadcast_striped`]
//!   streams n stripes of the payload, piece by piece, down the n
//!   edge-disjoint spanning binomial trees ([`Hypercube::esbt_parent`]) at
//!   once, so every link carries one stripe;
//! * **dimension exchange** for symmetric operations — all-reduce,
//!   all-gather and barriers exchange across dimension 0, 1, …, n−1 in
//!   turn, with both directions of each bidirectional link in flight at
//!   once: every step is one [`NodeCtx::exchange`] (or
//!   [`NodeCtx::exchange_f64s`]), the node's single Occam `PAR` of a send
//!   and a receive — sequential sends would rendezvous-deadlock, which the
//!   tests verify does not happen. The send borrows the node's running
//!   values, so a step copies nothing before it puts them on the wire.
//!
//! All functions are SPMD: every node of the cube must call them in the
//! same order, passing its own [`NodeCtx`].

use std::cell::RefCell;
use std::future::{poll_fn, Future};
use std::ops::Range;
use std::pin::{pin, Pin};
use std::rc::Rc;
use std::task::Poll;

use ts_cube::Hypercube;
use ts_fpu::Sf64;
use ts_node::{occam, CombineOp, NodeCtx};
use ts_sim::{select2, Dur, Either, SimHandle, Time};

use crate::model::NetModel;

/// Book one completed collective into the node's per-op latency histogram
/// (`node/{id}/collective/{op}_us` in the machine registry).
fn book_latency(ctx: &NodeCtx, op: &'static str, started: Time) {
    let us = ctx.now().since(started).as_ns() / 1_000;
    ctx.meters().collective_us(op).observe(us);
}

/// A collective (or any awaited operation) missed its deadline on every
/// allowed attempt — a partner is dead or the fabric is too degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExpired {
    /// How many attempts were made before giving up.
    pub attempts: u32,
}

impl std::fmt::Display for DeadlineExpired {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline expired after {} attempt(s)", self.attempts)
    }
}

impl std::error::Error for DeadlineExpired {}

/// Run `op` under a deadline, retrying up to `attempts` times. Each attempt
/// builds a fresh future via the closure and races it against a timer; a
/// timed-out attempt is dropped (cancelling its parked channel operations —
/// the claim protocol makes that safe) and retried. A collective whose
/// partner crashed thus errors within `attempts × dur` of simulated time
/// instead of blocking forever. Books `collective/retries` /
/// `collective/deadline_expired` under `ctx`'s node scope.
///
/// Caveat: operations that *spawn* helper tasks ([`broadcast_striped`]
/// runs one process per tree under a replicated `PAR`,
/// [`occam::par_all`]) leave those helpers parked after a timeout — they
/// hold no resources and are
/// swept away when the supervisor reboots the machine, but they keep the
/// run from reporting quiescent. The rooted trees, the dimension exchanges
/// (joined in place) and plain sends cancel cleanly.
pub async fn with_deadline<F, Fut, T>(
    ctx: &NodeCtx,
    dur: Dur,
    attempts: u32,
    mut op: F,
) -> Result<T, DeadlineExpired>
where
    F: FnMut() -> Fut,
    Fut: std::future::Future<Output = T>,
{
    let h: &SimHandle = ctx.handle();
    for attempt in 0..attempts.max(1) {
        if attempt > 0 {
            ctx.meters().cold().collective_retries.inc();
        }
        let fut = Box::pin(op());
        match select2(fut, h.sleep(dur)).await {
            Either::Left(v) => return Ok(v),
            Either::Right(()) => {}
        }
    }
    ctx.meters().cold().collective_deadline_expired.inc();
    Err(DeadlineExpired {
        attempts: attempts.max(1),
    })
}

/// Broadcast `data` from `root` to every node; returns the payload on all
/// nodes. Non-roots pass `None`.
pub async fn broadcast(
    ctx: &NodeCtx,
    cube: Hypercube,
    root: u32,
    data: Option<Vec<u32>>,
) -> Vec<u32> {
    let t0 = ctx.now();
    let me = ctx.id();
    let buf = if me == root {
        data.expect("root must provide the broadcast payload")
    } else {
        let parent = cube.binomial_parent(root, me);
        ctx.recv_dim(cube.link_dim(me, parent)).await
    };
    // Children: dimensions below our parent dimension (all for the root),
    // highest first so the biggest subtrees start earliest.
    let mut children = cube.binomial_children(root, me);
    children.reverse();
    for child in children {
        ctx.send_dim(cube.link_dim(me, child), buf.clone()).await;
    }
    book_latency(ctx, "broadcast", t0);
    buf
}

/// Broadcast that keeps every link of the cube busy: the `len` words are
/// cut into `n` stripes, and stripe `t` streams down tree `t` of the n
/// edge-disjoint spanning binomial trees ([`Hypercube::esbt_parent`]) in
/// [`NetModel::broadcast_pieces`] pieces. Every node runs one process per
/// tree (a replicated `PAR`); a process's step receives the next piece from
/// its parent while it forwards the last one to its children. No directed
/// link carries two trees, so the n pipelines flow side by side:
/// `(P + n)·(o + ⌈m/(nP)⌉·w)` ([`NetModel::broadcast_striped`]) against
/// [`broadcast`]'s `n·(o + m·w)`. Every node passes the payload's `len`
/// (the collective is SPMD); otherwise the contract of [`broadcast`]. An
/// empty payload returns at once: nothing moves and no latency is booked.
pub async fn broadcast_striped(
    ctx: &NodeCtx,
    cube: Hypercube,
    root: u32,
    len: usize,
    data: Option<Vec<u32>>,
) -> Vec<u32> {
    if len == 0 {
        return Vec::new();
    }
    let t0 = ctx.now();
    let (me, n) = (ctx.id(), cube.dim());
    let mut buf = if me == root {
        let buf = data.expect("root must provide the broadcast payload");
        assert_eq!(buf.len(), len, "the payload is `len` words");
        buf
    } else {
        vec![0; len]
    };
    if n > 0 {
        let net = NetModel::from_params(ctx.in_channel(0).wire().params());
        let pieces = net.broadcast_pieces(n, len);
        let shared = Rc::new(RefCell::new(buf));
        let dim = |node: u32| cube.link_dim(me, node);
        let trees = (0..n)
            .map(|t| {
                let stripe = t as usize * len / n as usize..(t + 1) as usize * len / n as usize;
                stream_stripe(
                    ctx.clone(),
                    cube.esbt_parent(t, root, me).map(dim),
                    cube.esbt_children(t, root, me)
                        .into_iter()
                        .map(dim)
                        .collect(),
                    cut(stripe, pieces),
                    shared.clone(),
                )
            })
            .collect();
        occam::par_all(ctx.handle(), trees).await;
        buf = Rc::unwrap_or_clone(shared).into_inner();
    }
    book_latency(ctx, "broadcast_striped", t0);
    buf
}

/// The non-empty pieces of `stripe` cut `count` ways, as evenly as whole
/// words allow.
fn cut(stripe: Range<usize>, count: usize) -> impl Iterator<Item = Range<usize>> {
    let (lo, len) = (stripe.start, stripe.len());
    (0..count)
        .map(move |i| lo + i * len / count..lo + (i + 1) * len / count)
        .filter(|piece| !piece.is_empty())
}

/// This node's part in one tree: take each of the stripe's `pieces` of
/// `buf` from across `from` (the root has no parent: it holds them) and
/// forward it across every dimension in `to`. Each step is one `PAR`,
/// joined in place, of the next piece's receive and the last one's sends.
async fn stream_stripe(
    ctx: NodeCtx,
    from: Option<usize>,
    to: Vec<usize>,
    pieces: impl Iterator<Item = Range<usize>>,
    buf: Rc<RefCell<Vec<u32>>>,
) {
    // One send slot per child, refilled every step.
    let mut sends: Vec<Pin<Box<Option<_>>>> = to.iter().map(|_| Box::pin(None)).collect();
    let mut ready: Option<Vec<u32>> = None;
    for piece in pieces.map(Some).chain([None]) {
        let recv = match (from, &piece) {
            (Some(d), Some(_)) => Some(ctx.recv_dim(d)),
            // The root forwards each piece in the step it reads it.
            (None, Some(r)) => {
                ready = Some(pooled_copy(&buf.borrow()[r.clone()]));
                None
            }
            _ => None,
        };
        if let Some(words) = ready.take() {
            let (&last, rest) = to.split_last().expect("only a node with children forwards");
            for (slot, &d) in sends.iter_mut().zip(rest) {
                slot.set(Some(ctx.send_dim(d, pooled_copy(&words))));
            }
            sends[rest.len()].set(Some(ctx.send_dim(last, words)));
        }
        let mut recv = pin!(recv);
        let mut got = None;
        poll_fn(|cx| {
            let mut busy = false;
            for send in &mut sends {
                if send
                    .as_mut()
                    .as_pin_mut()
                    .is_some_and(|f| f.poll(cx).is_ready())
                {
                    send.set(None);
                }
                busy |= send.is_some();
            }
            if let Some(Poll::Ready(words)) = recv.as_mut().as_pin_mut().map(|f| f.poll(cx)) {
                got = Some(words);
                recv.set(None);
            }
            if busy || recv.is_some() {
                Poll::Pending
            } else {
                Poll::Ready(())
            }
        })
        .await;
        if let (Some(words), Some(r)) = (got, piece) {
            buf.borrow_mut()[r].copy_from_slice(&words);
            if to.is_empty() {
                ts_sim::pool::put_words(words);
            } else {
                ready = Some(words);
            }
        }
    }
}

/// A copy of `words` in a buffer from the word pool.
fn pooled_copy(words: &[u32]) -> Vec<u32> {
    let mut copy = ts_sim::pool::take_words(words.len());
    copy.extend_from_slice(words);
    copy
}

/// Reduce element-wise (`op`) onto `root`; returns `Some(result)` there and
/// `None` elsewhere.
pub async fn reduce(
    ctx: &NodeCtx,
    cube: Hypercube,
    root: u32,
    op: CombineOp,
    mine: Vec<Sf64>,
) -> Option<Vec<Sf64>> {
    let t0 = ctx.now();
    let me = ctx.id();
    let mut acc = mine;
    // Receive from each child subtree (lowest dimension first — the order
    // children finish in a balanced tree).
    for child in cube.binomial_children(root, me) {
        let theirs = ctx.recv_f64s(cube.link_dim(me, child)).await;
        ctx.combine_values(op, &mut acc, &theirs).await;
        ts_node::recycle_values(theirs);
    }
    let result = if me == root {
        Some(acc)
    } else {
        let parent = cube.binomial_parent(root, me);
        ctx.send_f64s(cube.link_dim(me, parent), &acc).await;
        None
    };
    book_latency(ctx, "reduce", t0);
    result
}

/// All-reduce by dimension exchange: every node ends with the elementwise
/// `op` over all contributions, in n exchange steps.
pub async fn allreduce(
    ctx: &NodeCtx,
    cube: Hypercube,
    op: CombineOp,
    mine: Vec<Sf64>,
) -> Vec<Sf64> {
    let t0 = ctx.now();
    let mut acc = mine;
    for d in 0..cube.dim() as usize {
        let theirs = ctx.exchange_f64s(d, &acc, d).await;
        ctx.combine_values(op, &mut acc, &theirs).await;
        ts_node::recycle_values(theirs);
    }
    book_latency(ctx, "allreduce", t0);
    acc
}

/// All-gather by dimension doubling: returns every node's contribution,
/// indexed by node id.
pub async fn allgather(ctx: &NodeCtx, cube: Hypercube, mine: Vec<u32>) -> Vec<(u32, Vec<u32>)> {
    // Accumulated set of (node, payload), flattened for the wire as
    // [id, len, words..., id, len, words...].
    let t0 = ctx.now();
    let mut have: Vec<(u32, Vec<u32>)> = vec![(ctx.id(), mine)];
    for d in 0..cube.dim() as usize {
        let mut flat = Vec::new();
        for (id, words) in &have {
            flat.push(*id);
            flat.push(words.len() as u32);
            flat.extend_from_slice(words);
        }
        let theirs = ctx.exchange(d, flat, d).await;
        let mut i = 0;
        while i < theirs.len() {
            let id = theirs[i];
            let len = theirs[i + 1] as usize;
            have.push((id, theirs[i + 2..i + 2 + len].to_vec()));
            i += 2 + len;
        }
    }
    have.sort_by_key(|(id, _)| *id);
    book_latency(ctx, "allgather", t0);
    have
}

/// Inclusive prefix scan (`out[i] = op(v[0..=i])` by node id) using the
/// classic hypercube algorithm: at each dimension exchange a node folds the
/// partner's partial into its *total*, and into its *prefix* only when the
/// partner's id is lower. log₂ p steps, like all-reduce.
pub async fn scan(ctx: &NodeCtx, cube: Hypercube, op: CombineOp, mine: Vec<Sf64>) -> Vec<Sf64> {
    let t0 = ctx.now();
    let me = ctx.id();
    let mut prefix = mine.clone();
    let mut total = mine;
    for d in 0..cube.dim() as usize {
        let theirs = ctx.exchange_f64s(d, &total, d).await;
        ctx.combine_values(op, &mut total, &theirs).await;
        if me & (1 << d) != 0 {
            // Partner has a lower id: its subcube precedes ours.
            ctx.combine_values(op, &mut prefix, &theirs).await;
        }
        ts_node::recycle_values(theirs);
    }
    book_latency(ctx, "scan", t0);
    prefix
}

/// Barrier: a 1-word dimension exchange (all nodes leave only after all
/// have entered).
pub async fn barrier(ctx: &NodeCtx, cube: Hypercube) {
    let t0 = ctx.now();
    for d in 0..cube.dim() as usize {
        let mut tick = ts_sim::pool::take_words(1);
        tick.push(0);
        ts_sim::pool::put_words(ctx.exchange(d, tick, d).await);
    }
    book_latency(ctx, "barrier", t0);
}

#[cfg(test)]
mod tests {
    use crate::fault::FaultEvent;
    use crate::{Machine, MachineCfg};

    use super::*;

    fn small(dim: u32) -> Machine {
        Machine::build(MachineCfg::cube_small_mem(dim, 8))
    }

    #[test]
    fn broadcast_reaches_everyone() {
        for root in [0u32, 5] {
            let mut m = small(3);
            let cube = m.cube;
            let handles = m.launch(move |ctx| async move {
                let data = (ctx.id() == root).then(|| vec![42, 43, 44]);
                broadcast(&ctx, cube, root, data).await
            });
            assert!(m.run().quiescent, "broadcast deadlock (root {root})");
            for h in handles {
                assert_eq!(h.try_take(), Some(vec![42, 43, 44]));
            }
        }
    }

    #[test]
    fn striped_broadcast_delivers_what_broadcast_delivers() {
        // Every root, dims 0–5, lengths around the stripe count, around one
        // word a piece (n·P at a long row) and beyond.
        let net = crate::model::NetModel::default();
        for dim in 0..=5u32 {
            let d = dim as usize;
            let np = d * net.broadcast_pieces(dim, 301);
            let lens = [
                0,
                1,
                d.saturating_sub(1),
                d,
                np.saturating_sub(1),
                np,
                np + 1,
                256,
                301,
            ];
            for len in lens {
                let payload: Vec<u32> = (0..len as u32)
                    .map(|i| i.wrapping_mul(2654435761))
                    .collect();
                for root in 0..1u32 << dim {
                    let mut m = small(dim);
                    let cube = m.cube;
                    let handles = m.launch(|ctx| {
                        let mine = (ctx.id() == root).then(|| payload.clone());
                        async move {
                            let striped =
                                broadcast_striped(&ctx, cube, root, len, mine.clone()).await;
                            (striped, broadcast(&ctx, cube, root, mine).await)
                        }
                    });
                    assert!(m.run().quiescent, "dim {dim} len {len} root {root}");
                    for h in handles {
                        let (striped, plain) = h.try_take().unwrap();
                        assert_eq!(striped, plain, "dim {dim} len {len} root {root}");
                        assert_eq!(striped, payload);
                    }
                }
            }
        }
    }

    #[test]
    fn striped_broadcast_inside_a_subcube_view() {
        // A 2-subcube on physical dimensions {1, 3} of a 4-cube, based at
        // node 4: virtual neighbours are physical neighbours.
        let mut m = small(4);
        let sub = Hypercube::new(2);
        let payload: Vec<u32> = (0..77).collect();
        let handles: Vec<_> = (0..4u32)
            .map(|vid| {
                let phys = 4 | (vid & 1) << 1 | (vid >> 1) << 3;
                let ctx = m.ctx(phys).subcube_view(vid, vec![1, 3]);
                let data = (vid == 2).then(|| payload.clone());
                m.launch_on(phys, async move {
                    broadcast_striped(&ctx, sub, 2, 77, data).await
                })
            })
            .collect();
        assert!(m.run().quiescent);
        for h in handles {
            assert_eq!(h.try_take(), Some(payload.clone()));
        }
        // Only the view's two physical dimensions carried traffic, and at
        // the root both did.
        for phys in [4u32, 6, 12, 14] {
            let ctx = m.ctx(phys);
            for dim in 0..4 {
                let busy = ctx.in_channel(dim).wire().busy_total() > Dur::ZERO;
                assert!(!busy || dim == 1 || dim == 3, "node {phys} dim {dim}");
            }
        }
        for dim in [1, 3] {
            let out = m.nodes[12].out_channel(dim).unwrap();
            assert!(out.wire().busy_total() > Dur::ZERO, "root dim {dim}");
        }
    }

    #[test]
    fn broadcast_latency_is_log_p() {
        // Doubling the node count adds one link step, not a linear one.
        let mut times = Vec::new();
        for dim in [2u32, 4] {
            let mut m = small(dim);
            let cube = m.cube;
            m.launch(move |ctx| async move {
                let data = (ctx.id() == 0).then(|| vec![7u32; 64]);
                broadcast(&ctx, cube, 0, data).await;
            });
            assert!(m.run().quiescent);
            times.push(m.now().as_us_f64());
        }
        // 4-cube ≈ 2× the 2-cube time (4 steps vs 2), nowhere near the 4×
        // a linear topology would pay (16 nodes vs 4).
        let ratio = times[1] / times[0];
        assert!(ratio < 2.6, "broadcast ratio {ratio}");
    }

    #[test]
    fn reduce_sums_all_contributions() {
        let mut m = small(4);
        let cube = m.cube;
        let handles = m.launch(move |ctx| async move {
            let mine = vec![Sf64::from(ctx.id() as f64), Sf64::from(1.0)];
            reduce(&ctx, cube, 0, CombineOp::Add, mine).await
        });
        assert!(m.run().quiescent, "reduce deadlock");
        for (i, h) in handles.into_iter().enumerate() {
            let got = h.try_take().unwrap();
            if i == 0 {
                let v = got.expect("root gets the result");
                assert_eq!(v[0].to_host(), (0..16).sum::<i32>() as f64);
                assert_eq!(v[1].to_host(), 16.0);
            } else {
                assert!(got.is_none());
            }
        }
    }

    #[test]
    fn allreduce_all_nodes_agree() {
        let mut m = small(3);
        let cube = m.cube;
        let handles = m.launch(move |ctx| async move {
            let mine = vec![Sf64::from(2.0f64.powi(ctx.id() as i32))];
            allreduce(&ctx, cube, CombineOp::Add, mine).await
        });
        assert!(m.run().quiescent, "allreduce deadlock");
        for h in handles {
            let v = h.try_take().unwrap();
            assert_eq!(v[0].to_host(), 255.0); // 2^0 + ... + 2^7
        }
    }

    #[test]
    fn allreduce_max() {
        let mut m = small(3);
        let cube = m.cube;
        let handles = m.launch(move |ctx| async move {
            let mine = vec![Sf64::from(-(ctx.id() as f64))];
            allreduce(&ctx, cube, CombineOp::Max, mine).await
        });
        assert!(m.run().quiescent);
        for h in handles {
            assert_eq!(h.try_take().unwrap()[0].to_host(), 0.0);
        }
    }

    #[test]
    fn exchange_equals_the_par2_spelling() {
        // Every node of a 3-cube swaps across each dimension, then shifts
        // round the Gray-code ring (out to its successor, in from its
        // predecessor: two different dimensions), once in words and once
        // in floats — spelled as `exchange` or as an `occam::par2` of the
        // two transfers. Values, instants, link meters, polls and the
        // order of every traced span and flow agree.
        fn run(par2: bool) -> impl PartialEq + std::fmt::Debug {
            let mut m = small(3);
            let tracer = m.enable_tracing();
            let ring = ts_cube::embed::RingEmbedding::new(m.cube);
            let handles = m.launch(move |ctx| async move {
                let me = ctx.id();
                let dim_to = |nb: u32| (me ^ nb).trailing_zeros() as usize;
                let shift = (dim_to(ring.next(me)), dim_to(ring.prev(me)));
                assert_ne!(shift.0, shift.1);
                let mut seen = Vec::new();
                for (out, inp) in [(0, 0), (1, 1), (2, 2), shift] {
                    let words = vec![me; 1 + out];
                    let vals = vec![Sf64::from(me as f64 + 0.5); 3 - out];
                    let (w, v) = if par2 {
                        let (send, recv) = (ctx.send_dim(out, words), ctx.recv_dim(inp));
                        let (_, w) = occam::par2(ctx.handle(), send, recv).await;
                        let (send, recv) = (ctx.send_f64s(out, &vals), ctx.recv_f64s(inp));
                        (w, occam::par2(ctx.handle(), send, recv).await.1)
                    } else {
                        let w = ctx.exchange(out, words, inp).await;
                        (w, ctx.exchange_f64s(out, &vals, inp).await)
                    };
                    let v: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
                    seen.push((w, v, ctx.now()));
                }
                seen
            });
            assert!(m.run().quiescent);
            let seen: Vec<_> = handles.into_iter().map(|h| h.try_take()).collect();
            let mut links = m.registry().snapshot();
            links.retain(|(path, _)| path.contains("/link/"));
            (seen, links, m.profile().polls, tracer.events())
        }
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn allgather_collects_everything_in_order() {
        let mut m = small(3);
        let cube = m.cube;
        let handles = m.launch(move |ctx| async move {
            let mine = vec![ctx.id() * 100, ctx.id()];
            allgather(&ctx, cube, mine).await
        });
        assert!(m.run().quiescent, "allgather deadlock");
        for h in handles {
            let all = h.try_take().unwrap();
            assert_eq!(all.len(), 8);
            for (i, (id, words)) in all.iter().enumerate() {
                assert_eq!(*id, i as u32);
                assert_eq!(words, &vec![i as u32 * 100, i as u32]);
            }
        }
    }

    #[test]
    fn scan_computes_prefixes() {
        let mut m = small(4);
        let cube = m.cube;
        let handles = m.launch(move |ctx| async move {
            let mine = vec![Sf64::from((ctx.id() + 1) as f64)];
            scan(&ctx, cube, CombineOp::Add, mine).await
        });
        assert!(m.run().quiescent, "scan deadlocked");
        for (i, h) in handles.into_iter().enumerate() {
            let got = h.try_take().unwrap()[0].to_host();
            let want: f64 = (0..=i as u32).map(|j| (j + 1) as f64).sum();
            assert_eq!(got, want, "prefix at node {i}");
        }
    }

    #[test]
    fn scan_max_is_running_maximum() {
        let mut m = small(3);
        let cube = m.cube;
        // Values: 5, 1, 7, 2, 3, 9, 0, 4 by node id.
        let vals = [5.0, 1.0, 7.0, 2.0, 3.0, 9.0, 0.0, 4.0];
        let handles = m.launch(move |ctx| async move {
            let mine = vec![Sf64::from(vals[ctx.id() as usize])];
            scan(&ctx, cube, CombineOp::Max, mine).await
        });
        assert!(m.run().quiescent);
        let want = [5.0, 5.0, 7.0, 7.0, 7.0, 9.0, 9.0, 9.0];
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.try_take().unwrap()[0].to_host(), want[i]);
        }
    }

    #[test]
    fn barrier_synchronizes() {
        let mut m = small(3);
        let cube = m.cube;
        let handles = m.launch(move |ctx| async move {
            // Node i works i ms before the barrier; everyone must leave at
            // (or after) the slowest entrant.
            ctx.cp_compute(7500 * ctx.id() as u64).await; // i ms of work
            barrier(&ctx, cube).await;
            ctx.now()
        });
        assert!(m.run().quiescent, "barrier deadlock");
        let times: Vec<_> = handles.into_iter().map(|h| h.try_take().unwrap()).collect();
        let slowest_entry = 7.0e-3; // node 7: 7 ms of work
        for t in times {
            assert!(t.as_secs_f64() >= slowest_entry);
        }
    }

    #[test]
    fn striped_broadcast_sends_each_word_once_per_node() {
        // Pipelining adds messages, not words: every node but the root
        // hears each word once, m·(2ⁿ − 1) words on the links in all.
        for dim in 1..=5u32 {
            for len in [7usize, 256, 301] {
                let mut m = small(dim);
                let cube = m.cube;
                let root = (1 << dim) - 1;
                m.launch(move |ctx| async move {
                    let data = (ctx.id() == root).then(|| vec![1; len]);
                    broadcast_striped(&ctx, cube, root, len, data).await;
                });
                assert!(m.run().quiescent);
                let words = m.registry().sum_counters("link/words_sent");
                assert_eq!(words, len as u64 * ((1 << dim) - 1), "dim {dim} len {len}");
            }
        }
    }

    #[test]
    fn an_empty_striped_broadcast_returns_at_once() {
        // Nothing to send moves nothing: no task beyond the node programs,
        // no timer event and no latency sample.
        for dim in 0..=4u32 {
            let mut m = small(dim);
            let cube = m.cube;
            let handles = m.launch(move |ctx| async move {
                let data = (ctx.id() == 0).then(Vec::new);
                broadcast_striped(&ctx, cube, 0, 0, data).await
            });
            assert!(m.run().quiescent);
            for h in handles {
                assert_eq!(h.try_take(), Some(Vec::new()), "dim {dim}");
            }
            let profile = m.profile();
            assert_eq!(profile.spawned, cube.nodes() as u64, "dim {dim}");
            assert_eq!(profile.timer_events, 0, "dim {dim}");
            let snapshot = m.registry().snapshot();
            let booked = snapshot
                .iter()
                .any(|(path, _)| path.contains("broadcast_striped_us"));
            assert!(!booked, "dim {dim}");
        }
    }

    #[test]
    fn every_node_books_one_latency_sample_per_collective() {
        for dim in [0u32, 2] {
            let mut m = small(dim);
            let cube = m.cube;
            m.launch(move |ctx| async move {
                let payload = (ctx.id() == 0).then(|| vec![7u32; 64]);
                broadcast(&ctx, cube, 0, payload.clone()).await;
                broadcast_striped(&ctx, cube, 0, 64, payload).await;
                let mine = vec![Sf64::from(ctx.id() as f64)];
                allreduce(&ctx, cube, CombineOp::Add, mine).await;
                barrier(&ctx, cube).await;
            });
            assert!(m.run().quiescent);
            for id in 0..cube.nodes() {
                for op in ["broadcast", "broadcast_striped", "allreduce", "barrier"] {
                    let h = m
                        .registry()
                        .scope(&format!("node/{id}"))
                        .scope("collective")
                        .histogram(&format!("{op}_us"));
                    assert_eq!(h.total(), 1, "dim {dim} node {id} {op}");
                    // On a 0-cube every collective takes no time at all.
                    assert_eq!(h.mean() > 0.0, dim > 0, "dim {dim} node {id} {op}");
                    assert!(h.quantile_bound(0.99) as f64 >= h.mean(), "node {id} {op}");
                }
            }
        }
    }

    #[test]
    fn zero_cube_collectives_are_trivial() {
        let mut m = small(0);
        let cube = m.cube;
        let handles = m.launch(move |ctx| async move {
            let b = broadcast(&ctx, cube, 0, Some(vec![9])).await;
            let r = allreduce(&ctx, cube, CombineOp::Add, vec![Sf64::from(3.0)]).await;
            barrier(&ctx, cube).await;
            (b, r[0].to_host())
        });
        assert!(m.run().quiescent);
        assert_eq!(
            handles.into_iter().next().unwrap().try_take(),
            Some((vec![9], 3.0))
        );
    }

    #[test]
    fn collective_with_crashed_partner_times_out_within_deadline() {
        // Node 1 is dead before the broadcast starts. Without a deadline
        // the root's send would park forever on the rendezvous; with one,
        // node 0 gets an error after exactly attempts × dur of simulated
        // time.
        let mut m = small(1);
        let cube = m.cube;
        FaultEvent::NodeCrash { node: 1 }.apply(&m);
        let ctx = m.ctx(0);
        let jh = m.launch_on(0, async move {
            let r = with_deadline(&ctx, Dur::us(5_000), 3, || {
                broadcast(&ctx, cube, 0, Some(vec![1, 2, 3]))
            })
            .await;
            (r.map(|_| ()), ctx.now())
        });
        let report = m.run();
        assert!(report.quiescent, "deadline wrapper must not hang");
        let (r, t) = jh.try_take().unwrap();
        assert_eq!(r, Err(DeadlineExpired { attempts: 3 }));
        assert_eq!(t.since(ts_sim::Time::ZERO), Dur::us(15_000));
        assert_eq!(m.registry().sum_counters("collective/retries"), 2);
        assert_eq!(m.registry().sum_counters("collective/deadline_expired"), 1);
    }

    #[test]
    fn with_deadline_passes_through_success() {
        let mut m = small(2);
        let cube = m.cube;
        let handles = m.launch(move |ctx| async move {
            let mine = vec![Sf64::from(ctx.id() as f64)];
            with_deadline(&ctx, Dur::us(1_000_000), 2, || {
                allreduce(&ctx, cube, CombineOp::Add, mine.clone())
            })
            .await
        });
        assert!(m.run().quiescent);
        for h in handles {
            assert_eq!(h.try_take().unwrap().unwrap()[0].to_host(), 6.0);
        }
        assert_eq!(m.registry().sum_counters("collective/retries"), 0);
    }
}
