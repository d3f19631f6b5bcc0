//! Reliable transport of one sublink direction: transient impairments and
//! go-back-N retransmission.
//!
//! Messages are framed into [`Flit`]s. The receiver NAKs a flit whose CRC
//! fails; a flit that vanishes entirely is recovered by the sender's
//! retransmit timer. Either way the sender **goes back N**: it rewinds to
//! the failed sequence number and resends up to [`WINDOW`] flits. A
//! transfer that needs more than [`RETRANSMIT_BUDGET`] recovery rounds
//! condemns the link — it is declared permanently down and the
//! degraded-routing path takes over.

use std::collections::VecDeque;

use ts_sim::{Counter, Dur, Time};

use crate::frame::FLIT_WORDS;
use crate::wire::reserve_both;
use crate::{Flit, LinkChannel};

/// Go-back-N window: flits in flight before the sender stalls for an
/// acknowledge, and the most it resends per recovery round.
const WINDOW: usize = 8;
/// Retransmit timer for a flit that was never acknowledged (a drop —
/// nothing came back to NAK).
const RETRANSMIT_TIMEOUT: Dur = Dur::us(200);
/// Consecutive drops double the timeout up to
/// `RETRANSMIT_TIMEOUT << BACKOFF_CAP`.
const BACKOFF_CAP: u32 = 4;
/// Recovery rounds allowed per transfer before the link is condemned.
pub const RETRANSMIT_BUDGET: u32 = 8;

/// A queued transient impairment on one sublink direction, consumed by the
/// next transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Impair {
    /// One payload bit of one flit is flipped in flight (`flit_bit` indexes
    /// into the message's concatenated flit payloads).
    Corrupt { flit_bit: u64 },
    /// One flit vanishes entirely: no data, no NAK — only the sender's
    /// retransmit timer recovers it.
    Drop,
}

/// Per-direction reliable-transport state, shared by every clone of one
/// sublink. Its counts go to the meters the sublink was built with (the
/// sending node's, since retransmission is the sender's work).
pub(crate) struct TransportState {
    pending: VecDeque<Impair>,
    retransmits: Counter,
    crc_errors: Counter,
    escalations: Counter,
}

impl TransportState {
    pub(crate) fn new(retransmits: Counter, crc_errors: Counter, escalations: Counter) -> Self {
        TransportState {
            pending: VecDeque::new(),
            retransmits,
            crc_errors,
            escalations,
        }
    }
}

impl LinkChannel {
    /// Queue a transient wire fault: one payload bit of the next message on
    /// this direction is flipped in flight. The receiver's CRC catches it
    /// and the go-back-N protocol recovers.
    pub fn inject_corrupt(&self, flit_bit: u64) {
        self.inject(Impair::Corrupt { flit_bit });
    }

    /// Queue a transient wire fault: one flit of the next message on this
    /// direction vanishes; only the sender's retransmit timer recovers it.
    pub fn inject_drop(&self) {
        self.inject(Impair::Drop);
    }

    fn inject(&self, imp: Impair) {
        assert!(
            !self.inner.boundary,
            "transient faults on shard-boundary links are unsupported"
        );
        self.inner
            .cold
            .transport
            .borrow_mut()
            .pending
            .push_back(imp);
        self.inner.impaired.set(true);
    }

    /// Complete the framed transfer of `words` on both link engines,
    /// playing any queued transient impairments through the go-back-N
    /// recovery protocol.
    ///
    /// The healthy path is byte-for-byte identical to a plain
    /// [`reserve_both`] — framing overhead is already part of
    /// [`crate::LinkParams`]'s per-byte cost, so fault-free timing does not
    /// move. Each queued impairment costs one recovery round: a corrupted
    /// flit is NAKed after a CRC check on the actual framed words; a
    /// dropped flit waits out the retransmit timer (with exponential
    /// backoff on consecutive drops); either way the sender rewinds and
    /// resends up to [`WINDOW`] flits, whose bytes occupy both wires for
    /// real. A transfer needing more than [`RETRANSMIT_BUDGET`] rounds
    /// condemns the link — the message in flight still completes, but the
    /// link is permanently down and every later operation sees
    /// [`crate::LinkError::Down`].
    pub(crate) fn transfer(&self, now: Time, words: &[u32]) -> (Time, Time) {
        let inner = &*self.inner;
        let (start, end) = reserve_both(&inner.tx_wire, &inner.rx_wire, now, words.len() * 4);
        if !inner.impaired.get() {
            return (start, end);
        }

        inner.impaired.set(false);
        let mut tr = inner.cold.transport.borrow_mut();
        let flits = Flit::frame(words);
        let nflits = flits.len();
        let payload_bits = (FLIT_WORDS * 32) as u64;
        let byte_time = inner.rx_wire.params().byte_time();

        let mut rounds: u32 = 0;
        let mut idle = Dur::ZERO;
        let mut resent_bytes: usize = 0;
        let mut consecutive_drops: u32 = 0;
        while let Some(imp) = tr.pending.pop_front() {
            rounds += 1;
            let rewind_to = match imp {
                Impair::Corrupt { flit_bit } => {
                    consecutive_drops = 0;
                    let fi = ((flit_bit / payload_bits) as usize) % nflits;
                    let mut hit = flits[fi].clone();
                    hit.flip_bit(flit_bit % payload_bits);
                    if hit.check() {
                        // An undetected corruption (impossible for a single
                        // bit flip under CRC-16): delivered as-is.
                        continue;
                    }
                    tr.crc_errors.inc();
                    // NAK turnaround: one framed byte each way.
                    idle += byte_time * 2;
                    fi
                }
                Impair::Drop => {
                    // Nothing came back: the retransmit timer fires, doubled
                    // for consecutive drops up to the backoff cap.
                    let exp = consecutive_drops.min(BACKOFF_CAP);
                    idle += Dur::ps(RETRANSMIT_TIMEOUT.as_ps() << exp);
                    consecutive_drops += 1;
                    0
                }
            };
            // Go back N: resend from the failed flit, at most a window.
            let resent = (nflits - rewind_to).min(WINDOW);
            resent_bytes += resent * (FLIT_WORDS * 4 + Flit::OVERHEAD_BYTES);
            tr.retransmits.add(resent as u64);
        }

        let exhausted = rounds > RETRANSMIT_BUDGET;
        if exhausted {
            tr.escalations.inc();
        }
        drop(tr);

        // Retransmitted flits occupy both engines for real (part of the
        // original transfer, so they follow it on the wire); timer and NAK
        // waits leave the wire idle but delay completion.
        let mut final_end = end;
        if resent_bytes > 0 {
            final_end = reserve_both(&inner.tx_wire, &inner.rx_wire, end, resent_bytes).1;
        }
        final_end += idle;
        if exhausted {
            // Budget blown: the message in flight is delivered, then the
            // link is condemned — permanently down, immune to flap repair.
            inner.status.condemn();
        }
        (start, final_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkMeters, LinkParams, LinkStatus, Wire};
    use ts_sim::Sim;

    /// A sublink with both ends on `wire` that books into counters of its
    /// own, handed back beside it.
    fn own_meters(wire: Wire) -> (LinkChannel, LinkMeters) {
        let c = Counter::new;
        let meters = LinkMeters {
            msgs_sent: c(),
            bytes_sent: c(),
            words_sent: c(),
            retransmits: c(),
            crc_errors: c(),
            escalations: c(),
            msgs_recv: c(),
            bytes_recv: c(),
            words_recv: c(),
            latency_ns: None,
        };
        let ch = LinkChannel::metered(wire.clone(), wire, LinkStatus::new(), meters.clone());
        (ch, meters)
    }

    fn pending_impairments(ch: &LinkChannel) -> usize {
        ch.inner.cold.transport.borrow().pending.len()
    }

    #[test]
    fn corrupt_flit_costs_a_nak_and_a_window_resend() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let wire = Wire::new("w", LinkParams::default());
        let (ch, m) = own_meters(wire.clone());
        ch.inject_corrupt(0); // hits flit 0 of the next message
        let (tx, rx) = (ch.clone(), ch.clone());
        let h2 = h.clone();
        sim.spawn(async move { tx.send(&h2, vec![0xAB; 8]).await });
        let jh = sim.spawn(async move {
            let w = rx.recv(&h).await;
            (w.len(), h.now())
        });
        assert!(sim.run().quiescent);
        let (n, t) = jh.try_take().unwrap();
        assert_eq!(n, 8, "the message is still delivered intact");
        // Healthy: 5 µs startup + 32 B × 2 µs = 69 µs. The CRC failure on
        // flit 0 rewinds the full 2-flit message: 2 × (16 + 6) B = 44 B of
        // retransmission (88 µs) plus a 2-byte-time NAK turnaround (4 µs).
        assert_eq!(t.as_ns(), 69_000 + 88_000 + 4_000);
        assert_eq!(m.crc_errors.get(), 1);
        assert_eq!(m.retransmits.get(), 2);
        assert_eq!(m.escalations.get(), 0);
        assert_eq!(pending_impairments(&ch), 0, "impairment consumed");
        // The retransmitted bytes really occupied the wire, and the
        // message's payload was booked once each way.
        assert_eq!(wire.busy_total(), Dur::us(64 + 88));
        assert_eq!((m.bytes_sent.get(), m.bytes_recv.get()), (32, 32));
        assert!(ch.is_up(), "one recoverable error must not kill the link");
    }

    #[test]
    fn corruption_late_in_the_message_resends_less() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let (ch, m) = own_meters(Wire::new("w", LinkParams::default()));
        // Bit 128 lands in flit 1 (payload bits 0..128 are flit 0).
        ch.inject_corrupt(128);
        let (tx, rx) = (ch.clone(), ch.clone());
        let h2 = h.clone();
        sim.spawn(async move { tx.send(&h2, vec![1; 8]).await });
        let jh = sim.spawn(async move {
            rx.recv(&h).await;
            h.now()
        });
        assert!(sim.run().quiescent);
        // Only the tail flit is resent: 22 B = 44 µs + 4 µs NAK.
        assert_eq!(jh.try_take().unwrap().as_ns(), 69_000 + 44_000 + 4_000);
        assert_eq!(m.retransmits.get(), 1);
    }

    #[test]
    fn drops_back_off_exponentially() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let (ch, m) = own_meters(Wire::new("w", LinkParams::default()));
        ch.inject_drop();
        ch.inject_drop();
        let (tx, rx) = (ch.clone(), ch.clone());
        let h2 = h.clone();
        sim.spawn(async move { tx.send(&h2, vec![2; 8]).await });
        let jh = sim.spawn(async move {
            rx.recv(&h).await;
            h.now()
        });
        assert!(sim.run().quiescent);
        // Two consecutive drops: timeouts 200 µs + 400 µs of idle wire,
        // plus two full-window resends of the 2-flit message (2 × 88 µs).
        assert_eq!(
            jh.try_take().unwrap().as_ns(),
            69_000 + 2 * 88_000 + 600_000
        );
        assert_eq!(m.retransmits.get(), 4);
        assert_eq!(m.crc_errors.get(), 0, "a drop is not a CRC hit");
    }

    #[test]
    fn budget_exhaustion_condemns_the_link_but_delivers() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let (ch, m) = own_meters(Wire::new("w", LinkParams::default()));
        for _ in 0..=RETRANSMIT_BUDGET {
            ch.inject_drop();
        }
        let (tx, rx) = (ch.clone(), ch.clone());
        let h2 = h.clone();
        sim.spawn(async move { tx.send(&h2, vec![3; 4]).await });
        let h3 = h.clone();
        let jh = sim.spawn(async move { rx.recv(&h3).await });
        assert!(sim.run().quiescent);
        assert_eq!(
            jh.try_take(),
            Some(vec![3; 4]),
            "the in-flight message completes"
        );
        assert_eq!(m.escalations.get(), 1);
        assert!(
            !ch.is_up(),
            "budget exhaustion escalates to a permanent link-down"
        );
        assert!(ch.status().is_condemned());
        // A condemned link cannot be revived by a flap repair.
        ch.status().set_up();
        assert!(!ch.is_up());
        // Later failable traffic sees the dead link immediately.
        let jh2 = sim.spawn(async move {
            let r = ch.try_send(&h, vec![9; 2]).await;
            r.is_err()
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh2.try_take(), Some(true));
    }

    #[test]
    fn transport_meters_route_into_shared_counters() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let (retrans, crc, esc) = (Counter::new(), Counter::new(), Counter::new());
        let wire = Wire::new("w", LinkParams::default());
        let meters = LinkMeters {
            retransmits: retrans.clone(),
            crc_errors: crc.clone(),
            escalations: esc.clone(),
            ..LinkMeters::detached()
        };
        let ch = LinkChannel::metered(wire.clone(), wire, LinkStatus::new(), meters);
        ch.inject_corrupt(7);
        let (tx, rx) = (ch.clone(), ch);
        let h2 = h.clone();
        sim.spawn(async move { tx.send(&h2, vec![5; 4]).await });
        sim.spawn(async move {
            rx.recv(&h).await;
        });
        assert!(sim.run().quiescent);
        assert_eq!(crc.get(), 1);
        assert_eq!(retrans.get(), 1, "4-word message is a single flit");
        assert_eq!(esc.get(), 0);
    }
}
