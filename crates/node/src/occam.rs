//! Occam-style process combinators.
//!
//! The paper (§II *Control*): "Occam differs from languages like Pascal or
//! C in that it directly provides for the execution of parallel,
//! communicating processes... A single process can be constructed from a
//! collection by specifying sequential, alternative or parallel execution
//! of the constituent processes."
//!
//! The mapping onto the simulator:
//!
//! * **SEQ** — ordinary `async` control flow (`.await` one thing after
//!   another);
//! * **PAR** — [`par2`]/[`par_all`]: run constituent processes
//!   concurrently on the node and resume when *all* complete (fork–join,
//!   like Occam's PAR);
//! * **ALT** — [`NodeCtx::alt_dims`](crate::NodeCtx::alt_dims) over link
//!   channels, or [`ts_sim::Alt`] over soft channels within a node.
//!
//! Soft (intra-node) channels are plain [`ts_sim::Rendezvous`] values; they
//! synchronize processes on the same node without hardware cost, the way
//! Occam channels between processes on one transputer compile to memory
//! words rather than links.

use std::future::Future;
use std::pin::pin;
use std::task::Poll;

use ts_sim::{JoinHandle, SimHandle};

/// Run two processes in parallel (Occam `PAR`), resuming when both finish.
///
/// The constituents are polled in place — a `PAR` costs no task spawns, no
/// boxing and no ready-queue round trips — so they may borrow from the
/// caller, as an Occam process reads the variables of the process it is
/// part of. Dropping the `PAR` cancels both constituents, as Occam's
/// process-tree semantics require.
pub async fn par2<A: Future, B: Future>(_h: &SimHandle, a: A, b: B) -> (A::Output, B::Output) {
    let mut a = pin!(a);
    let mut b = pin!(b);
    let mut ra = None;
    let mut rb = None;
    std::future::poll_fn(|cx| {
        if ra.is_none() {
            if let Poll::Ready(v) = a.as_mut().poll(cx) {
                ra = Some(v);
            }
        }
        if rb.is_none() {
            if let Poll::Ready(v) = b.as_mut().poll(cx) {
                rb = Some(v);
            }
        }
        if ra.is_some() && rb.is_some() {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    })
    .await;
    (ra.take().unwrap(), rb.take().unwrap())
}

/// Run a homogeneous collection of processes in parallel, collecting their
/// results in order (Occam's replicated `PAR`).
pub async fn par_all<F>(h: &SimHandle, procs: Vec<F>) -> Vec<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    let handles: Vec<JoinHandle<F::Output>> = procs.into_iter().map(|p| h.spawn(p)).collect();
    let mut out = Vec::with_capacity(handles.len());
    for jh in handles {
        out.push(jh.await);
    }
    out
}

#[cfg(test)]
mod tests {
    use ts_sim::{Dur, Rendezvous, Sim};

    use super::*;

    #[test]
    fn par_joins_at_the_latest_finisher() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let jh = sim.spawn(async move {
            // Both processes borrow the caller's handle.
            let (x, y) = par2(
                &h,
                async {
                    h.sleep(Dur::us(10)).await;
                    1u32
                },
                async {
                    h.sleep(Dur::us(25)).await;
                    2u32
                },
            )
            .await;
            (x + y, h.now().as_ns())
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some((3, 25_000)));
    }

    #[test]
    fn replicated_par_preserves_order() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let jh = sim.spawn(async move {
            let procs: Vec<_> = (0..8u64)
                .map(|i| {
                    let h = h.clone();
                    async move {
                        // Later indices sleep less: results must still come
                        // back in index order.
                        h.sleep(Dur::ns(800 - i * 100)).await;
                        i
                    }
                })
                .collect();
            par_all(&h, procs).await
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some((0..8).collect::<Vec<u64>>()));
    }

    #[test]
    fn soft_channels_synchronize_processes() {
        // Producer/consumer PAR over an intra-node rendezvous channel.
        let mut sim = Sim::new();
        let h = sim.handle();
        let ch: Rendezvous<u64> = Rendezvous::new();
        let (tx, rx) = (ch.clone(), ch);
        let jh = sim.spawn(async move {
            let h2 = h.clone();
            let (_, total) = par2(
                &h,
                async move {
                    for i in 0..5 {
                        tx.send(i).await;
                    }
                },
                async move {
                    let mut sum = 0;
                    for _ in 0..5 {
                        sum += rx.recv().await;
                        h2.sleep(Dur::ns(10)).await;
                    }
                    sum
                },
            )
            .await;
            total
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some(10));
    }
}
