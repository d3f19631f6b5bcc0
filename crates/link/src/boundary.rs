//! Shard-boundary channels (parallel backend): a sublink whose two ends
//! live on different simulation shards replays its rendezvous as three
//! plain-data protocol legs.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use ts_sim::{Dur, Mailbox, OneShot, SimHandle, Time};

use crate::channel::{await_done, take_done};
use crate::{LinkChannel, LinkMeters, LinkStatus, Wire};

/// One leg of the three-leg cross-shard transfer protocol.
///
/// When a sublink's two endpoints live on different simulation shards the
/// CSP rendezvous is replayed as plain-data messages: the sender posts
/// `Data` when it commits; the receiver answers with `Request`, carrying
/// its link engine's free watermark and the framed duration; the sender's
/// shard computes the joint slot exactly as [`ts_sim::ResourceCore::reserve_pair`]
/// would — `start = max(now, tx_free, rx_free)` — books its half, and
/// returns `Grant` so the receiver can book the other half. All three legs
/// travel at the same virtual instant (the lockstep driver's global `T`),
/// so fault-free timing and accounting stay bit-identical to the
/// sequential rendezvous.
#[derive(Debug)]
pub enum BoundaryLeg {
    /// Sender → receiver: payload, posted at the sender's commit instant.
    Data {
        /// Payload words (ownership moves across the thread boundary).
        words: Vec<u32>,
        /// Sender commit instant (post-DMA-startup), picoseconds.
        sent_at_ps: u64,
    },
    /// Receiver → sender: ask for the joint wire slot.
    Request {
        /// Receiving link engine's `busy_until` watermark, picoseconds.
        rx_free_ps: u64,
        /// Framed wire occupancy of the payload, picoseconds.
        dur_ps: u64,
    },
    /// Sender → receiver: the granted `[start, end]` slot.
    Grant {
        /// Slot start, picoseconds.
        start_ps: u64,
        /// Slot end, picoseconds.
        end_ps: u64,
    },
}

impl BoundaryLeg {
    /// Fixed ordering rank used by the determinism tiebreak: a `Data` leg
    /// of a given sequence number is always ingested before the `Request`
    /// it provokes, and `Request` before `Grant`.
    fn rank(&self) -> u8 {
        match self {
            BoundaryLeg::Data { .. } => 0,
            BoundaryLeg::Request { .. } => 1,
            BoundaryLeg::Grant { .. } => 2,
        }
    }
}

/// A cross-shard protocol message. Plain `Send` data — no `Rc`, no waker —
/// so it can ride an inter-thread queue between shard runtimes.
#[derive(Debug)]
pub struct BoundaryEnvelope {
    /// Virtual instant the envelope was posted, picoseconds. Under the
    /// lockstep driver every envelope of one delta round carries the same
    /// instant; it leads the sort key so the ordering rule reads
    /// "timestamp, then stable edge/sequence id".
    pub at_ps: u64,
    /// Stable directed-edge id: `(transmitting node id << 6) | dimension`.
    pub edge: u64,
    /// Per-edge message sequence number.
    pub seq: u64,
    /// Destination shard (routing hint for the lockstep driver).
    pub to_shard: u32,
    /// Protocol leg.
    pub leg: BoundaryLeg,
}

impl BoundaryEnvelope {
    /// Deterministic ingestion order: timestamp, then directed edge, then
    /// sequence number, then protocol-leg rank. Total and stable across
    /// shard counts — the cross-shard event-ordering rule of DESIGN.md §5i.
    pub fn sort_key(&self) -> (u64, u64, u64, u8) {
        (self.at_ps, self.edge, self.seq, self.leg.rank())
    }
}

const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<BoundaryEnvelope>();
};

/// Per-shard collection point for outbound [`BoundaryEnvelope`]s. Every
/// boundary channel built on a shard shares the shard's outbox; the
/// lockstep driver drains it after each delta round and routes the
/// envelopes to their destination shards.
pub type BoundaryOutbox = Rc<RefCell<Vec<BoundaryEnvelope>>>;

/// Boundary-mode state of one sublink whose far end lives on another shard.
pub(crate) struct BoundaryState {
    /// Stable directed-edge id (see [`BoundaryEnvelope::edge`]).
    edge: u64,
    /// The shard holding the far endpoint.
    peer_shard: u32,
    /// True on the transmitting side (local sender, remote receiver).
    is_tx: bool,
    outbox: BoundaryOutbox,
    /// Next sequence number to assign (tx side).
    next_seq: Cell<u64>,
    /// Tx side: parked senders awaiting their transfer-end instant.
    granted: RefCell<BTreeMap<u64, OneShot<Time>>>,
    /// Rx side: parked receivers awaiting their `(start, end)` grant.
    pending: RefCell<BTreeMap<u64, OneShot<(Time, Time)>>>,
    /// Rx side: landed `Data` legs `(seq, words, sent_at)` not yet consumed
    /// by a `recv`; receivers park on it FIFO while it is empty.
    inbox: Mailbox<(u64, Vec<u32>, Time)>,
}

impl BoundaryState {
    fn post(&self, at: Time, seq: u64, leg: BoundaryLeg) {
        self.outbox.borrow_mut().push(BoundaryEnvelope {
            at_ps: at.as_ps(),
            edge: self.edge,
            seq,
            to_shard: self.peer_shard,
            leg,
        });
    }
}

impl LinkChannel {
    /// Create the **transmitting half** of a shard-boundary sublink: the
    /// local sender's output wire, with the receiver on `peer_shard`.
    /// Protocol messages are collected into the shard's shared `outbox`;
    /// the half books into `meters` (the sending side's).
    pub fn new_boundary_tx(
        tx_wire: Wire,
        edge: u64,
        peer_shard: u32,
        outbox: BoundaryOutbox,
        meters: LinkMeters,
    ) -> LinkChannel {
        Self::new_boundary(tx_wire, true, edge, peer_shard, outbox, meters)
    }

    /// Create the **receiving half** of a shard-boundary sublink: the local
    /// receiver's input wire, with the sender on `peer_shard`; the half
    /// books into `meters` (the receiving side's).
    pub fn new_boundary_rx(
        rx_wire: Wire,
        edge: u64,
        peer_shard: u32,
        outbox: BoundaryOutbox,
        meters: LinkMeters,
    ) -> LinkChannel {
        Self::new_boundary(rx_wire, false, edge, peer_shard, outbox, meters)
    }

    /// One half of a boundary sublink: only the local engine's `wire`
    /// exists on this shard, so it stands on both sides of the channel.
    fn new_boundary(
        wire: Wire,
        is_tx: bool,
        edge: u64,
        peer_shard: u32,
        outbox: BoundaryOutbox,
        meters: LinkMeters,
    ) -> LinkChannel {
        let boundary = BoundaryState {
            edge,
            peer_shard,
            is_tx,
            outbox,
            next_seq: Cell::new(0),
            granted: RefCell::default(),
            pending: RefCell::default(),
            inbox: Mailbox::new(),
        };
        Self::assemble(
            wire.clone(),
            wire,
            LinkStatus::new(),
            meters,
            Some(boundary),
        )
    }

    fn boundary(&self) -> &BoundaryState {
        self.inner
            .cold
            .boundary
            .as_ref()
            .expect("boundary protocol on a local channel")
    }

    /// [`LinkChannel::send`] over a shard boundary. Identical observable
    /// timing and sender-side accounting: DMA startup, commit-time booking,
    /// then the task parks until the joint grant's `end` comes back —
    /// exactly where the sequential sender resumes.
    pub(crate) async fn boundary_send(&self, h: &SimHandle, words: Vec<u32>) {
        let b = self.boundary();
        debug_assert!(b.is_tx, "send on the receiving half of a boundary link");
        self.commit(h, words.len()).await;
        let seq = b.next_seq.get();
        b.next_seq.set(seq + 1);
        let done = take_done();
        b.granted.borrow_mut().insert(seq, done.clone());
        let now = h.now();
        b.post(
            now,
            seq,
            BoundaryLeg::Data {
                words,
                sent_at_ps: now.as_ps(),
            },
        );
        await_done(h, done).await;
    }

    /// [`LinkChannel::recv`] over a shard boundary: wait for the `Data`
    /// leg, post `Request` with this engine's free watermark, park for the
    /// `Grant`, book the receive half of the joint slot, and deliver at
    /// `end` — the instant the sequential receiver would deliver.
    pub(crate) async fn boundary_recv(&self, h: &SimHandle) -> Vec<u32> {
        let b = self.boundary();
        debug_assert!(!b.is_tx, "recv on the transmitting half of a boundary link");
        let (seq, words, sent_at) = b.inbox.recv().await;
        let rx_wire = &self.inner.rx_wire;
        let dur = rx_wire.params().wire_time(words.len() * 4);
        let slot: OneShot<(Time, Time)> = OneShot::new();
        b.pending.borrow_mut().insert(seq, slot.clone());
        b.post(
            h.now(),
            seq,
            BoundaryLeg::Request {
                rx_free_ps: rx_wire.resource().busy_until().as_ps(),
                dur_ps: dur.as_ps(),
            },
        );
        let (start, end) = slot.recv().await;
        // The receive half of what `reserve_both` books in one call.
        rx_wire.resource().apply_grant(start, end, dur);
        h.sleep_until(end).await;
        self.book_recv(sent_at, end, words.len());
        words
    }

    /// Ingest one cross-shard envelope addressed to this channel. Called by
    /// the lockstep driver, in [`BoundaryEnvelope::sort_key`] order, while
    /// the shard is stopped at the envelope's instant.
    pub fn boundary_ingest(&self, h: &SimHandle, env: BoundaryEnvelope) {
        let b = self.boundary();
        debug_assert_eq!(b.edge, env.edge, "envelope routed to the wrong channel");
        match env.leg {
            BoundaryLeg::Data { words, sent_at_ps } => {
                debug_assert!(!b.is_tx);
                b.inbox.send((env.seq, words, Time(sent_at_ps)));
            }
            BoundaryLeg::Request { rx_free_ps, dur_ps } => {
                debug_assert!(b.is_tx);
                let now = h.now();
                let dur = Dur::ps(dur_ps);
                let tx_wire = &self.inner.tx_wire;
                // The joint slot of `ResourceCore::reserve_pair`, computed from
                // the exchanged watermark: starts when both engines are free.
                let start = now
                    .max(tx_wire.resource().busy_until())
                    .max(Time(rx_free_ps));
                let end = start + dur;
                tx_wire.resource().apply_grant(start, end, dur);
                if let Some(done) = b.granted.borrow_mut().remove(&env.seq) {
                    done.send(end);
                } else {
                    debug_assert!(false, "Request for an unknown send seq");
                }
                b.post(
                    now,
                    env.seq,
                    BoundaryLeg::Grant {
                        start_ps: start.as_ps(),
                        end_ps: end.as_ps(),
                    },
                );
            }
            BoundaryLeg::Grant { start_ps, end_ps } => {
                debug_assert!(!b.is_tx);
                if let Some(slot) = b.pending.borrow_mut().remove(&env.seq) {
                    slot.send((Time(start_ps), Time(end_ps)));
                } else {
                    debug_assert!(false, "Grant for an unknown recv seq");
                }
            }
        }
    }
}
