//! One sublink: the CSP channel whose transfer holds both link engines for
//! the framed duration and charges the DMA startup.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use ts_sim::{
    select2, Counter, Dur, Either, Histogram, OneShot, RvCore, SimHandle, Time, Tracer, TrackId,
};

use crate::boundary::BoundaryState;
use crate::transport::TransportState;
use crate::{LinkError, LinkStatus, Wire};

pub(crate) struct Packet {
    words: Vec<u32>,
    /// Completion instant, reported back to the sender by the receiver.
    done: OneShot<Time>,
    /// When the sender committed the message (post-DMA-startup): the start
    /// of the end-to-end latency the receiver observes.
    sent_at: Time,
}

thread_local! {
    /// Free list of completion one-shots: every `send` needs one, and by the
    /// time the sender resumes the receiver has dropped its clone, so the
    /// cell can be reset and reused instead of reallocated per message.
    static DONE_POOL: RefCell<Vec<OneShot<Time>>> = const { RefCell::new(Vec::new()) };
}

pub(crate) fn take_done() -> OneShot<Time> {
    DONE_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

fn put_done(done: OneShot<Time>) {
    // Only recycle when the receiver's clone is truly gone; a cancelled
    // transfer may still hold one, in which case the cell just drops.
    if done.is_unique() {
        done.reset();
        DONE_POOL.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < ts_sim::pool::POOL_MAX {
                p.push(done);
            }
        });
    }
}

/// The tail of every send: park until the receiving side reports the
/// transfer's end, resume the sender at that instant (CSP: the sender
/// resumes when the transfer completes) and recycle the one-shot.
pub(crate) async fn await_done(h: &SimHandle, done: OneShot<Time>) {
    let end = done.recv().await;
    h.sleep_until(end).await;
    put_done(done);
}

thread_local! {
    /// The counters every bare sublink books into: one set per thread, so
    /// a sublink nobody meters allocates none of its own.
    static DETACHED: LinkMeters = LinkMeters {
        msgs_sent: Counter::new(),
        bytes_sent: Counter::new(),
        words_sent: Counter::new(),
        retransmits: Counter::new(),
        crc_errors: Counter::new(),
        escalations: Counter::new(),
        msgs_recv: Counter::new(),
        bytes_recv: Counter::new(),
        words_recv: Counter::new(),
        latency_ns: None,
    };
}

/// The meters one sublink books into, handed over when it is built. The
/// machine gives the transmitting node's message, byte, word and
/// retransmit counters and the receiving node's message, byte and word
/// counters and latency histogram; [`LinkMeters::detached`] is the
/// thread's shared counters nobody reads and no histogram.
#[derive(Clone)]
pub struct LinkMeters {
    /// Messages committed by the sender.
    pub msgs_sent: Counter,
    /// Payload bytes committed by the sender.
    pub bytes_sent: Counter,
    /// Payload words committed by the sender.
    pub words_sent: Counter,
    /// Flits resent by go-back-N recovery (the sender's work).
    pub retransmits: Counter,
    /// Flits that failed their CRC.
    pub crc_errors: Counter,
    /// Transfers that exhausted the retransmit budget.
    pub escalations: Counter,
    /// Messages delivered to the receiver.
    pub msgs_recv: Counter,
    /// Payload bytes delivered to the receiver.
    pub bytes_recv: Counter,
    /// Payload words delivered to the receiver.
    pub words_recv: Counter,
    /// End-to-end latency (sender commit → receiver completion, ns) of
    /// every delivered message.
    pub latency_ns: Option<Histogram>,
}

impl LinkMeters {
    /// The meters of a bare sublink (system thread, ring, loopback): this
    /// thread's one shared set of detached counters.
    pub fn detached() -> LinkMeters {
        DETACHED.with(LinkMeters::clone)
    }
}

/// One direction's per-message counters: messages, payload bytes and
/// payload words.
struct Traffic {
    msgs: Counter,
    bytes: Counter,
    words: Counter,
}

impl Traffic {
    #[inline]
    fn book(&self, words: usize) {
        self.msgs.inc();
        self.bytes.add(4 * words as u64);
        self.words.add(words as u64);
    }
}

/// Shared state of one sublink. Everything — both endpoints and every clone
/// they hand out — refers to a single `ChanInner` behind one `Rc`.
///
/// The leading fields are what a healthy message touches, in the order of
/// the layout pinned by `the_hot_fields_lead_the_sublink`: the rendezvous
/// core (held by value, so a message reaches its partner without a further
/// hop), both engine handles, both traffic meters and the latency histogram
/// fill the first 144 bytes; the sender's DMA start-up, the three flags
/// that guard the cold paths and the link status follow. What a
/// healthy, local, fault-free message never reads sits in one [`Cold`] box.
#[repr(C)]
pub(crate) struct ChanInner {
    pub(crate) rv: RvCore<Packet>,
    pub(crate) tx_wire: Wire,
    pub(crate) rx_wire: Wire,
    /// Booked at the sender's commit, into the transmitting node's meters.
    sent: Traffic,
    /// Booked at delivery, into the receiving node's meters.
    recv: Traffic,
    latency_ns: Option<Histogram>,
    /// `tx_wire`'s DMA start-up, copied so a send reads no engine.
    dma_startup: Dur,
    /// The far endpoint lives on another shard: `send`/`recv` replay the
    /// rendezvous over [`crate::BoundaryEnvelope`]s instead of `rv`.
    pub(crate) boundary: bool,
    /// Transient impairments are queued in the cold transport state.
    pub(crate) impaired: Cell<bool>,
    /// A flow trace is attached in the cold box.
    flow: Cell<bool>,
    pub(crate) status: LinkStatus,
    pub(crate) cold: Box<Cold>,
}

/// The cold state of one sublink: go-back-N recovery, the flow trace and
/// the shard-boundary protocol. Each is guarded by a flag in [`ChanInner`],
/// so a healthy local message never loads this box.
pub(crate) struct Cold {
    pub(crate) transport: RefCell<TransportState>,
    flow: RefCell<Option<(Tracer, TrackId, TrackId)>>,
    pub(crate) boundary: Option<BoundaryState>,
}

/// One **sublink**: a unidirectional CSP channel multiplexed onto the
/// sending node's output [`Wire`] and the receiving node's input wire.
///
/// `send`/`recv` rendezvous like an Occam channel; the transfer then holds
/// **both** link engines for the framed duration, so concurrent sublinks on
/// either engine divide its bandwidth. Clone freely; both ends hold the
/// same channel.
#[derive(Clone)]
pub struct LinkChannel {
    pub(crate) inner: Rc<ChanInner>,
}

impl LinkChannel {
    /// Create a sublink whose two ends share one `wire` (unit tests and
    /// simple point-to-point setups).
    pub fn new(wire: Wire) -> LinkChannel {
        LinkChannel::new_pair(wire.clone(), wire)
    }

    /// Create a sublink between two distinct link engines: the sender's
    /// output wire and the receiver's input wire. Its health flag is its
    /// own and its meters are detached.
    pub fn new_pair(tx_wire: Wire, rx_wire: Wire) -> LinkChannel {
        LinkChannel::metered(tx_wire, rx_wire, LinkStatus::new(), LinkMeters::detached())
    }

    /// Create a sublink with its final handles: the health flag of the
    /// physical link under it (both directions of one node-pair link share
    /// one, so a single fault fails traffic both ways) and the meters it
    /// books into.
    pub fn metered(
        tx_wire: Wire,
        rx_wire: Wire,
        status: LinkStatus,
        meters: LinkMeters,
    ) -> LinkChannel {
        LinkChannel::assemble(tx_wire, rx_wire, status, meters, None)
    }

    pub(crate) fn assemble(
        tx_wire: Wire,
        rx_wire: Wire,
        status: LinkStatus,
        meters: LinkMeters,
        boundary: Option<BoundaryState>,
    ) -> LinkChannel {
        let LinkMeters {
            msgs_sent,
            bytes_sent,
            words_sent,
            retransmits,
            crc_errors,
            escalations,
            msgs_recv,
            bytes_recv,
            words_recv,
            latency_ns,
        } = meters;
        LinkChannel {
            inner: Rc::new(ChanInner {
                rv: RvCore::new(),
                dma_startup: tx_wire.params().dma_startup,
                tx_wire,
                rx_wire,
                sent: Traffic {
                    msgs: msgs_sent,
                    bytes: bytes_sent,
                    words: words_sent,
                },
                recv: Traffic {
                    msgs: msgs_recv,
                    bytes: bytes_recv,
                    words: words_recv,
                },
                latency_ns,
                boundary: boundary.is_some(),
                impaired: Cell::new(false),
                flow: Cell::new(false),
                status,
                cold: Box::new(Cold {
                    transport: RefCell::new(TransportState::new(
                        retransmits,
                        crc_errors,
                        escalations,
                    )),
                    flow: RefCell::new(None),
                    boundary,
                }),
            }),
        }
    }

    /// Emit a trace flow arrow from track `from` to track `to` for every
    /// delivered message. Shared across clones, so enabling it on either
    /// end covers both.
    pub fn enable_flow_trace(&self, tracer: Tracer, from: TrackId, to: TrackId) {
        *self.inner.cold.flow.borrow_mut() = Some((tracer, from, to));
        self.inner.flow.set(true);
    }

    /// Receive-side accounting shared by every delivery path: the receiving
    /// node's counters, the optional latency histogram and the optional
    /// flow arrow.
    pub(crate) fn book_recv(&self, sent_at: Time, end: Time, words: usize) {
        let inner = &*self.inner;
        inner.recv.book(words);
        if let Some(hist) = &inner.latency_ns {
            hist.observe(end.since(sent_at).as_ns());
        }
        if inner.flow.get() {
            if let Some((tracer, from, to)) = &*inner.cold.flow.borrow() {
                tracer.flow(*from, *to, sent_at, end);
            }
        }
    }

    /// The shared health flag of the physical link under this sublink.
    pub fn status(&self) -> &LinkStatus {
        &self.inner.status
    }

    /// True while the underlying physical link is alive.
    pub fn is_up(&self) -> bool {
        self.inner.status.is_up()
    }

    /// The receiving-side wire this sublink is multiplexed onto.
    pub fn wire(&self) -> &Wire {
        &self.inner.rx_wire
    }

    /// The head of every committed send: DMA engine setup on the sending
    /// side, then the message is booked into the transmitting node's
    /// meters.
    pub(crate) async fn commit(&self, h: &SimHandle, words: usize) {
        h.sleep(self.inner.dma_startup).await;
        self.inner.sent.book(words);
    }

    /// Send `words` and suspend until the receiver has them (CSP semantics:
    /// the sender resumes when the transfer completes).
    pub async fn send(&self, h: &SimHandle, words: Vec<u32>) {
        if self.inner.boundary {
            return self.boundary_send(h, words).await;
        }
        self.commit(h, words.len()).await;
        let done = take_done();
        self.inner
            .rv
            .send(Packet {
                words,
                done: done.clone(),
                sent_at: h.now(),
            })
            .await;
        await_done(h, done).await;
    }

    /// Receive a message, suspending until a sender arrives and the framed
    /// transfer completes. Returns the payload words.
    pub async fn recv(&self, h: &SimHandle) -> Vec<u32> {
        if self.inner.boundary {
            return self.boundary_recv(h).await;
        }
        let pkt = self.inner.rv.recv().await;
        self.complete_recv(h, pkt).await
    }

    /// Finish a receive whose sender has committed `pkt`: run the framed
    /// transfer on both engines, wait it out, book the delivery on the
    /// receiving side and release the sender. Both receive paths — plain and
    /// `ALT` — end here.
    pub(crate) async fn complete_recv(&self, h: &SimHandle, pkt: Packet) -> Vec<u32> {
        let (_start, end) = self.transfer(h.now(), &pkt.words);
        h.sleep_until(end).await;
        self.book_recv(pkt.sent_at, end, pkt.words.len());
        pkt.done.send(end);
        pkt.words
    }

    /// Failable [`LinkChannel::send`]: identical timing on the success path,
    /// but resolves to [`LinkError::Down`] — instead of blocking forever —
    /// when the link is already dead or dies while the send is parked
    /// waiting for its rendezvous partner. Once the receiver has committed,
    /// the framed transfer is in flight and completes even if the link dies
    /// underneath it.
    pub async fn try_send(&self, h: &SimHandle, words: Vec<u32>) -> Result<(), LinkError> {
        if self.inner.boundary {
            // Boundary links carry no fault state (cross-shard faults are
            // unsupported); the plain protocol path always succeeds.
            self.boundary_send(h, words).await;
            return Ok(());
        }
        if !self.inner.status.is_up() {
            ts_sim::pool::put_words(words);
            return Err(LinkError::Down);
        }
        let n = words.len();
        // DMA engine setup on the sending side.
        h.sleep(self.inner.dma_startup).await;
        if !self.inner.status.is_up() {
            ts_sim::pool::put_words(words);
            return Err(LinkError::Down);
        }
        let done = take_done();
        let pkt = Packet {
            words,
            done: done.clone(),
            sent_at: h.now(),
        };
        match select2(self.inner.rv.send(pkt), self.inner.status.watch_down()).await {
            Either::Left(()) => {
                self.inner.sent.book(n);
                await_done(h, done).await;
                Ok(())
            }
            Either::Right(()) => Err(LinkError::Down),
        }
    }
}

/// An `ALT` reaches each sublink's rendezvous core through the channel.
impl AsRef<RvCore<Packet>> for LinkChannel {
    fn as_ref(&self) -> &RvCore<Packet> {
        &self.inner.rv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkParams;
    use ts_sim::{Dur, Sim};

    /// A healthy message reads only `ChanInner`'s leading fields. The
    /// rendezvous core, both engine handles, both traffic meters and the
    /// latency histogram fill the first two cache lines and the two word
    /// counters; the sender's DMA start-up, the three cold-path flags and
    /// the link status (read by the failable forms) end within the third;
    /// the cold box closes the struct.
    #[test]
    fn the_hot_fields_lead_the_sublink() {
        use std::mem::{offset_of, size_of};
        let ends = |fields: &[(usize, usize)]| fields.iter().map(|&(o, s)| o + s).max().unwrap();
        let hot = ends(&[
            (offset_of!(ChanInner, rv), size_of::<RvCore<Packet>>()),
            (offset_of!(ChanInner, tx_wire), size_of::<Wire>()),
            (offset_of!(ChanInner, rx_wire), size_of::<Wire>()),
            (offset_of!(ChanInner, sent), size_of::<Traffic>()),
            (offset_of!(ChanInner, recv), size_of::<Traffic>()),
            (
                offset_of!(ChanInner, latency_ns),
                size_of::<Option<Histogram>>(),
            ),
        ]);
        assert!(
            hot <= 128 + 2 * size_of::<Counter>(),
            "core, engines, meters and histogram end at byte {hot}"
        );
        let third = ends(&[
            (offset_of!(ChanInner, dma_startup), size_of::<Dur>()),
            (offset_of!(ChanInner, boundary), 1),
            (offset_of!(ChanInner, impaired), 1),
            (offset_of!(ChanInner, flow), 1),
            (offset_of!(ChanInner, status), size_of::<LinkStatus>()),
        ]);
        assert!(
            third <= 192,
            "start-up, flags and status end at byte {third}"
        );
        assert_eq!(
            offset_of!(ChanInner, cold) + size_of::<Box<Cold>>(),
            size_of::<ChanInner>(),
            "the cold box is the last field"
        );
    }

    #[test]
    fn single_transfer_timing() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let wire = Wire::new("w", LinkParams::default());
        let ch = LinkChannel::new(wire);
        let (tx, rx) = (ch.clone(), ch);
        let h2 = h.clone();
        sim.spawn(async move {
            tx.send(&h2, vec![0xff; 2]).await; // one 64-bit word
                                               // Sender resumes at startup (5 µs) + wire (16 µs) = 21 µs.
            assert_eq!(h2.now().as_ns(), 21_000);
        });
        let jh = sim.spawn(async move { rx.recv(&h).await });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some(vec![0xff, 0xff]));
        assert_eq!(sim.now().as_ns(), 21_000);
    }

    #[test]
    fn streaming_reaches_half_mb_per_s() {
        // Many back-to-back messages: amortized rate approaches 0.5 MB/s
        // minus the DMA startup share.
        let mut sim = Sim::new();
        let h = sim.handle();
        let wire = Wire::new("w", LinkParams::default());
        let ch = LinkChannel::new(wire.clone());
        let (tx, rx) = (ch.clone(), ch);
        let h2 = h.clone();
        const MSGS: usize = 100;
        const WORDS: usize = 256; // 1 KB messages
        sim.spawn(async move {
            for _ in 0..MSGS {
                tx.send(&h2, vec![1u32; WORDS]).await;
            }
        });
        sim.spawn(async move {
            for _ in 0..MSGS {
                rx.recv(&h).await;
            }
        });
        let mut sim = sim;
        assert!(sim.run().quiescent);
        let bytes = (MSGS * WORDS * 4) as u64;
        let rate = sim.now().since(Time::ZERO).throughput_bytes(bytes) / 1e6;
        assert!(rate > 0.49 && rate <= 0.5, "rate = {rate} MB/s");
        // The wire itself was busy for exactly bytes × 2 µs.
        assert_eq!(wire.busy_total(), Dur::us(2) * bytes);
    }

    #[test]
    fn two_sublinks_share_one_wire() {
        // Two sublinks multiplexed on one wire: aggregate stays 0.5 MB/s,
        // each sublink sees roughly half.
        let mut sim = Sim::new();
        let h = sim.handle();
        let wire = Wire::new("w", LinkParams::default());
        let mut finish = Vec::new();
        for _ in 0..2 {
            let ch = LinkChannel::new(wire.clone());
            let (tx, rx) = (ch.clone(), ch);
            let hs = h.clone();
            let hr = h.clone();
            sim.spawn(async move {
                for _ in 0..50 {
                    tx.send(&hs, vec![0u32; 256]).await;
                }
            });
            finish.push(sim.spawn(async move {
                for _ in 0..50 {
                    rx.recv(&hr).await;
                }
                hr.now()
            }));
        }
        assert!(sim.run().quiescent);
        let bytes = 2u64 * 50 * 256 * 4;
        let rate = sim.now().since(Time::ZERO).throughput_bytes(bytes) / 1e6;
        assert!(rate > 0.49 && rate <= 0.5, "aggregate = {rate} MB/s");
        // Both sublinks finished near the end (they interleaved, neither
        // starved).
        for jh in finish {
            let t = jh.try_take().unwrap();
            assert!(t.as_secs_f64() > sim.now().as_secs_f64() * 0.9);
        }
    }

    #[test]
    fn separate_wires_run_in_parallel() {
        // Two sublinks on *different* wires: aggregate 1.0 MB/s.
        let mut sim = Sim::new();
        let h = sim.handle();
        for name in ["w0", "w1"] {
            let ch = LinkChannel::new(Wire::new(name, LinkParams::default()));
            let (tx, rx) = (ch.clone(), ch);
            let hs = h.clone();
            let hr = h.clone();
            sim.spawn(async move {
                for _ in 0..50 {
                    tx.send(&hs, vec![0u32; 256]).await;
                }
            });
            sim.spawn(async move {
                for _ in 0..50 {
                    rx.recv(&hr).await;
                }
            });
        }
        assert!(sim.run().quiescent);
        let bytes = 2u64 * 50 * 256 * 4;
        let rate = sim.now().since(Time::ZERO).throughput_bytes(bytes) / 1e6;
        assert!(rate > 0.98 && rate <= 1.0, "aggregate = {rate} MB/s");
    }

    #[test]
    fn metrics_count_traffic() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let (msgs_sent, bytes_sent, words_sent) = (Counter::new(), Counter::new(), Counter::new());
        let (msgs_recv, bytes_recv, words_recv) = (Counter::new(), Counter::new(), Counter::new());
        let wire = Wire::new("w", LinkParams::default());
        let meters = LinkMeters {
            msgs_sent: msgs_sent.clone(),
            bytes_sent: bytes_sent.clone(),
            words_sent: words_sent.clone(),
            msgs_recv: msgs_recv.clone(),
            bytes_recv: bytes_recv.clone(),
            words_recv: words_recv.clone(),
            ..LinkMeters::detached()
        };
        let ch = LinkChannel::metered(wire.clone(), wire, LinkStatus::new(), meters);
        let (tx, rx) = (ch.clone(), ch);
        let h2 = h.clone();
        sim.spawn(async move { tx.send(&h2, vec![0; 4]).await });
        sim.spawn(async move {
            rx.recv(&h).await;
        });
        assert!(sim.run().quiescent);
        assert_eq!(
            (msgs_sent.get(), bytes_sent.get(), words_sent.get()),
            (1, 16, 4)
        );
        assert_eq!(
            (msgs_recv.get(), bytes_recv.get(), words_recv.get()),
            (1, 16, 4)
        );
    }

    #[test]
    fn latency_histogram_observes_message_time() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let hist = Histogram::new();
        let wire = Wire::new("w", LinkParams::default());
        let meters = LinkMeters {
            latency_ns: Some(hist.clone()),
            ..LinkMeters::detached()
        };
        let ch = LinkChannel::metered(wire.clone(), wire, LinkStatus::new(), meters);
        let (tx, rx) = (ch.clone(), ch);
        let h2 = h.clone();
        sim.spawn(async move { tx.send(&h2, vec![0xff; 2]).await });
        sim.spawn(async move {
            rx.recv(&h).await;
        });
        assert!(sim.run().quiescent);
        // One 64-bit word: 16 µs of wire time after the sender committed.
        assert_eq!(hist.total(), 1);
        assert!((hist.mean() - 16_000.0).abs() < 1e-9, "{}", hist.mean());
    }

    #[test]
    fn flow_trace_links_sender_and_receiver_tracks() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let ch = LinkChannel::new(Wire::new("w", LinkParams::default()));
        let tracer = Tracer::new();
        let from = tracer.track("n0.l0");
        let to = tracer.track("n1.l0");
        ch.enable_flow_trace(tracer.clone(), from, to);
        let (tx, rx) = (ch.clone(), ch);
        let h2 = h.clone();
        sim.spawn(async move { tx.send(&h2, vec![0; 2]).await });
        sim.spawn(async move {
            rx.recv(&h).await;
        });
        assert!(sim.run().quiescent);
        let flows: Vec<_> = tracer
            .events()
            .into_iter()
            .filter(|e| matches!(e, ts_sim::Event::Flow { .. }))
            .collect();
        assert_eq!(flows.len(), 1);
        match flows[0] {
            ts_sim::Event::Flow {
                from: f,
                to: t,
                depart,
                arrive,
                ..
            } => {
                assert_eq!((f, t), (from, to));
                assert!(arrive > depart);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn send_on_downed_link_errors_without_hanging() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let ch = LinkChannel::new(Wire::new("w", LinkParams::default()));
        ch.status().set_down();
        let jh = sim.spawn(async move {
            let r = ch.try_send(&h, vec![0; 2]).await;
            (r, h.now())
        });
        assert!(sim.run().quiescent);
        let (r, t) = jh.try_take().unwrap();
        assert_eq!(r, Err(LinkError::Down));
        // Refused before even charging DMA startup.
        assert_eq!(t.as_ns(), 0);
    }

    #[test]
    fn parked_send_aborts_when_link_dies() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let ch = LinkChannel::new(Wire::new("w", LinkParams::default()));
        let status = ch.status().clone();
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(Dur::us(100)).await;
            status.set_down();
        });
        // No receiver ever arrives: without the failable path this send
        // would park forever.
        let jh = sim.spawn(async move {
            let r = ch.try_send(&h, vec![0; 2]).await;
            (r, h.now())
        });
        let report = sim.run();
        assert!(report.quiescent, "sim must quiesce, not strand the sender");
        let (r, t) = jh.try_take().unwrap();
        assert_eq!(r, Err(LinkError::Down));
        assert_eq!(t.as_ns(), 100_000);
    }

    #[test]
    fn try_paths_keep_exact_timing_when_healthy() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let ch = LinkChannel::new(Wire::new("w", LinkParams::default()));
        let (tx, rx) = (ch.clone(), ch);
        let h2 = h.clone();
        sim.spawn(async move {
            tx.try_send(&h2, vec![0xff; 2]).await.unwrap();
            // Same clock as the infallible path: 5 µs startup + 16 µs wire.
            assert_eq!(h2.now().as_ns(), 21_000);
        });
        let jh = sim.spawn(async move {
            let words = rx.recv(&h).await;
            (words.len(), h.now())
        });
        assert!(sim.run().quiescent);
        let (n, t) = jh.try_take().unwrap();
        assert_eq!(n, 2);
        assert_eq!(t.as_ns(), 21_000);
    }

    #[test]
    fn status_shared_across_clones_and_directions() {
        let wa = Wire::new("a", LinkParams::default());
        let wb = Wire::new("b", LinkParams::default());
        let ab = LinkChannel::new_pair(wa.clone(), wb.clone());
        let ba = LinkChannel::metered(wb, wa, ab.status().clone(), LinkMeters::detached());
        let ab2 = ab.clone();
        ab.status().set_down();
        assert!(!ab2.is_up());
        assert!(!ba.is_up());
        ab.status().set_up();
        assert!(ba.is_up());
    }
}
