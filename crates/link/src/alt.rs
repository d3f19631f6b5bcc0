//! Occam `ALT` over several sublinks.

use ts_sim::{select2, Alt, Either, SimHandle};

use crate::channel::Packet;
use crate::{DownWatch, LinkChannel, LinkError};

/// Occam-style `ALT` over a fixed set of sublinks: each receive resolves
/// to `(channel_index, payload)` for the first channel whose sender
/// commits, completing the framed transfer on that channel's wire.
///
/// A one-shot `ALT` is `AltSet::new(chans).recv(h)`. A daemon builds the
/// set once — the router `ALT`s over the same loopback-plus-dimensions list
/// for every message it ever handles. The set owns its branch cells and
/// claim flag ([`ts_sim::Alt`]), so a receive re-arms them and allocates
/// nothing, and the branches that did not fire are left holding this set's
/// one cell, not a cancelled one per message.
pub struct AltSet {
    alt: Alt<Packet, LinkChannel>,
}

impl AltSet {
    /// Prepare an `ALT` over `chans` (branch priority = slice order).
    pub fn new(chans: &[&LinkChannel]) -> AltSet {
        assert!(
            chans.iter().all(|c| !c.inner.boundary),
            "ALT over a shard-boundary channel is unsupported"
        );
        AltSet {
            alt: Alt::new(chans.iter().map(|&c| c.clone()).collect()),
        }
    }

    /// Wait for the first branch whose sender commits; completes the framed
    /// transfer on that branch's wire. Lowest index wins when several
    /// senders are already parked (`PRI ALT`).
    pub async fn recv(&mut self, h: &SimHandle) -> (usize, Vec<u32>) {
        let (idx, pkt) = self.alt.recv().await;
        (idx, self.alt.channels()[idx].complete_recv(h, pkt).await)
    }

    /// Failable [`AltSet::recv`]: resolves to [`LinkError::Down`] when
    /// `down` fires first. The watch is the caller's, so a daemon parks one
    /// waker on its health flag for all the messages it handles.
    pub async fn recv_or_down(
        &mut self,
        h: &SimHandle,
        down: &mut DownWatch,
    ) -> Result<(usize, Vec<u32>), LinkError> {
        if !down.is_up() {
            return Err(LinkError::Down);
        }
        match select2(self.alt.recv(), down).await {
            Either::Left((idx, pkt)) => {
                Ok((idx, self.alt.channels()[idx].complete_recv(h, pkt).await))
            }
            Either::Right(()) => Err(LinkError::Down),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkParams, Wire};
    use ts_sim::{Dur, Sim};

    #[test]
    fn alt_set_takes_first_sender() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let a = LinkChannel::new(Wire::new("a", LinkParams::default()));
        let b = LinkChannel::new(Wire::new("b", LinkParams::default()));
        let (a2, b2) = (a.clone(), b.clone());
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(Dur::us(100)).await;
            a2.send(&h2, vec![1, 1]).await;
        });
        let h3 = h.clone();
        sim.spawn(async move {
            b2.send(&h3, vec![2, 2, 2]).await; // arrives first
        });
        let jh = sim.spawn(async move {
            let mut set = AltSet::new(&[&a, &b]);
            let first = set.recv(&h).await;
            let second = set.recv(&h).await;
            (first, second)
        });
        assert!(sim.run().quiescent);
        let ((i1, w1), (i2, w2)) = jh.try_take().unwrap();
        assert_eq!((i1, w1.len()), (1, 3));
        assert_eq!((i2, w2.len()), (0, 2));
    }

    #[test]
    fn idle_branches_hold_one_cell_however_many_messages_pass() {
        // A daemon-shaped loop: 10 000 messages, all on branch 3 of six.
        // A per-message ALT left one cancelled cell in each idle branch per
        // message (50 000 by the end); the prepared set leaves its own one.
        let mut sim = Sim::new();
        let h = sim.handle();
        let chans: Vec<LinkChannel> = (0..6)
            .map(|_| LinkChannel::new(Wire::new("w", LinkParams::default())))
            .collect();
        let tx = chans[3].clone();
        let h2 = h.clone();
        sim.spawn(async move {
            for i in 0..10_000u32 {
                tx.send(&h2, vec![i]).await;
            }
        });
        let status = crate::LinkStatus::new();
        let jh = sim.spawn(async move {
            let mut set = AltSet::new(&chans.iter().collect::<Vec<_>>());
            let mut down = status.watch_down();
            let mut worst = 0;
            for i in 0..10_000u32 {
                let got = set.recv_or_down(&h, &mut down).await;
                assert_eq!(got, Ok((3, vec![i])));
                let idle = chans.iter().filter(|c| !c.inner.rv.sender_waiting());
                worst = worst.max(idle.map(|c| c.inner.rv.parked_receivers()).max().unwrap());
            }
            worst
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some(1));
    }

    #[test]
    fn alt_set_charges_wire_time() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let wire = Wire::new("w", LinkParams::default());
        let ch = LinkChannel::new(wire.clone());
        let tx = ch.clone();
        let h2 = h.clone();
        sim.spawn(async move { tx.send(&h2, vec![0u32; 8]).await });
        let jh = sim.spawn(async move {
            let (_, words) = AltSet::new(&[&ch]).recv(&h).await;
            (words.len(), h.now())
        });
        assert!(sim.run().quiescent);
        let (n, t) = jh.try_take().unwrap();
        assert_eq!(n, 8);
        // 5 µs startup + 32 bytes × 2 µs = 69 µs.
        assert_eq!(t.as_ns(), 69_000);
        assert_eq!(wire.busy_total(), Dur::us(64));
    }
}
