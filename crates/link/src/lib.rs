//! # ts-link — the node's serial communication links
//!
//! §II *Communications*: each control processor drives **four serial,
//! bidirectional links**. Every 8-bit byte travels with two synchronization
//! bits and one stop bit and is answered by a two-bit acknowledge, giving a
//! maximum unidirectional bandwidth of **over 0.5 MB/s per link** and over
//! 4 MB/s for the four links together. Links transfer by **DMA with about
//! 5 µs of startup**, and each link is **multiplexed four ways** into
//! sublinks (16 per node) that divide the available bandwidth in software.
//!
//! The model works at the level the paper specifies:
//!
//! * [`LinkParams`] — line rate and framing. The default calibration is a
//!   10 Mbit/s line with 11 frame bits + 2 ack bits + 7 bit-times of
//!   ack turnaround per byte = 20 bit-times = **2.0 µs/byte**, which makes
//!   the effective rate exactly the paper's 0.5 MB/s and a 64-bit word cost
//!   exactly the 16 µs used in the paper's 1 : 13 : 130 balance ratio.
//! * [`Wire`] — one direction of one physical link: a FIFO bandwidth
//!   server. All sublinks multiplexed onto the link contend here, which is
//!   how "these sublinks divide the available bandwidth" emerges.
//! * [`LinkChannel`] — one sublink: a CSP rendezvous (the Occam channel the
//!   hardware implements) whose transfer occupies the wire for the framed
//!   duration and charges the DMA startup.
//!
//! Payloads are `Vec<u32>` memory words — the unit the DMA engine moves
//! through the word port on each side.

#![deny(missing_docs)]

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use ts_sim::{
    select2, Counter, Dur, Either, Histogram, OneShot, Rendezvous, Resource, SimHandle, Time,
    Tracer, TrackId,
};

/// Line rate and framing of one serial link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkParams {
    /// Raw line rate, bits per second.
    pub bit_rate: u64,
    /// Bits framing each data byte on the forward wire
    /// (2 sync + 8 data + 1 stop = 11).
    pub frame_bits: u64,
    /// Acknowledge bits returned per byte.
    pub ack_bits: u64,
    /// Dead bit-times waiting for the (non-overlapped) acknowledge.
    pub turnaround_bits: u64,
    /// DMA engine startup per message.
    pub dma_startup: Dur,
}

impl Default for LinkParams {
    /// The paper calibration: 2.0 µs/byte effective (0.5 MB/s), 5 µs DMA
    /// startup.
    fn default() -> Self {
        LinkParams {
            bit_rate: 10_000_000,
            frame_bits: 11,
            ack_bits: 2,
            turnaround_bits: 7,
            dma_startup: Dur::us(5),
        }
    }
}

impl LinkParams {
    /// Wall-clock time for one framed, acknowledged byte.
    pub fn byte_time(&self) -> Dur {
        let bits = self.frame_bits + self.ack_bits + self.turnaround_bits;
        // bit time in ps = 1e12 / rate; exact for the default 10 MHz.
        Dur::ps(bits * 1_000_000_000_000 / self.bit_rate)
    }

    /// Wire-occupancy time for a payload of `bytes` (excludes DMA startup).
    pub fn wire_time(&self, bytes: usize) -> Dur {
        self.byte_time() * bytes as u64
    }

    /// Full message latency when the wire is idle: startup + transfer.
    pub fn message_time(&self, bytes: usize) -> Dur {
        self.dma_startup + self.wire_time(bytes)
    }

    /// Effective unidirectional bandwidth in MB/s (paper: "over 0.5").
    pub fn effective_mb_per_s(&self) -> f64 {
        self.byte_time().throughput_bytes(1) / 1e6
    }

    /// Aggregate bandwidth of all four links (paper: "over 4 MB/s" counting
    /// both directions of each bidirectional link).
    pub fn node_aggregate_mb_per_s(&self) -> f64 {
        self.effective_mb_per_s() * 4.0 * 2.0
    }
}

// ---------------------------------------------------------------------------
// Reliable transport: CRC-16 framing and go-back-N retransmission
// ---------------------------------------------------------------------------

/// 256-entry lookup table for CRC-16/CCITT-FALSE (polynomial 0x1021),
/// built at compile time — the table-driven form a link adapter's firmware
/// would burn into ROM.
const CRC16_TABLE: [u16; 256] = build_crc16_table();

const fn build_crc16_table() -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-16/CCITT-FALSE over a byte stream (init 0xFFFF, no reflection, no
/// final XOR). The check vector: `crc16(b"123456789") == 0x29B1`.
pub fn crc16(bytes: &[u8]) -> u16 {
    let mut crc = 0xFFFFu16;
    for &b in bytes {
        crc = (crc << 8) ^ CRC16_TABLE[(((crc >> 8) ^ b as u16) & 0xFF) as usize];
    }
    crc
}

/// CRC-16 over 32-bit payload words, fed big-endian byte by byte (the
/// order the serializer shifts them onto the wire).
pub fn crc16_words(words: &[u32]) -> u16 {
    let mut crc = 0xFFFFu16;
    for &w in words {
        for b in w.to_be_bytes() {
            crc = (crc << 8) ^ CRC16_TABLE[(((crc >> 8) ^ b as u16) & 0xFF) as usize];
        }
    }
    crc
}

// Reliable-transport parameters of a sublink direction.
//
// Messages are framed into flits of `FLIT_WORDS` payload words, each
// carrying a sequence number and a `crc16` trailer. The receiver NAKs a
// flit whose CRC fails; a flit that vanishes entirely is recovered by the
// sender's retransmit timer. Either way the sender **goes back N**: it
// rewinds to the failed sequence number and resends up to `WINDOW` flits.
// A transfer that needs more than `RETRANSMIT_BUDGET` recovery rounds
// condemns the link — it is declared permanently down and the
// degraded-routing path takes over.

/// Payload words per flit (the DMA engine's burst unit).
const FLIT_WORDS: usize = 4;
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

/// One framed flit: a sequence number, up to `flit_words` payload words,
/// and a CRC-16 over both.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Flit {
    /// Sequence number within the message.
    pub seq: u32,
    /// Payload words (the last flit of a message may be short).
    pub payload: Vec<u32>,
    /// CRC-16/CCITT-FALSE over the sequence word and the payload.
    pub crc: u16,
}

impl Flit {
    /// Wire overhead per flit beyond the payload: 4 bytes of sequence
    /// number + 2 bytes of CRC.
    pub const OVERHEAD_BYTES: usize = 6;

    /// Frame `seq` + `payload` with a freshly computed CRC.
    pub fn new(seq: u32, payload: Vec<u32>) -> Flit {
        let crc = Self::compute_crc(seq, &payload);
        Flit { seq, payload, crc }
    }

    fn compute_crc(seq: u32, payload: &[u32]) -> u16 {
        let mut crc = 0xFFFFu16;
        for b in seq.to_be_bytes() {
            crc = (crc << 8) ^ CRC16_TABLE[(((crc >> 8) ^ b as u16) & 0xFF) as usize];
        }
        for &w in payload {
            for b in w.to_be_bytes() {
                crc = (crc << 8) ^ CRC16_TABLE[(((crc >> 8) ^ b as u16) & 0xFF) as usize];
            }
        }
        crc
    }

    /// Split a message into sequence-numbered flits of `flit_words`
    /// payload words each.
    pub fn frame(words: &[u32], flit_words: usize) -> Vec<Flit> {
        let flit_words = flit_words.max(1);
        if words.is_empty() {
            return vec![Flit::new(0, Vec::new())];
        }
        words
            .chunks(flit_words)
            .enumerate()
            .map(|(i, chunk)| Flit::new(i as u32, chunk.to_vec()))
            .collect()
    }

    /// True when the stored CRC matches the sequence word and payload.
    pub fn check(&self) -> bool {
        self.crc == Self::compute_crc(self.seq, &self.payload)
    }

    /// Flip one payload bit (`bit` taken mod the payload width) — the
    /// transient a noisy wire inflicts mid-frame.
    pub fn flip_bit(&mut self, bit: u64) {
        if self.payload.is_empty() {
            // A headerless runt: flip a sequence bit instead.
            self.seq ^= 1 << (bit % 32);
            return;
        }
        let bit = bit % (self.payload.len() as u64 * 32);
        self.payload[(bit / 32) as usize] ^= 1 << (bit % 32);
    }
}

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
/// sublink.
#[derive(Default)]
struct TransportState {
    pending: VecDeque<Impair>,
    retransmits: Counter,
    crc_errors: Counter,
    escalations: Counter,
}

/// One direction of one physical serial link: a FIFO bandwidth server with
/// utilization accounting. The four sublinks multiplexed onto the link all
/// reserve capacity here.
#[derive(Clone)]
pub struct Wire {
    resource: Resource,
    params: LinkParams,
    /// Payload bytes carried, shared by every clone of this wire.
    bytes: Counter,
    /// Flits carried: one flit is a 32-bit payload word, the unit the DMA
    /// engine moves through the word port.
    flits: Counter,
    /// Transfers (reservations) granted.
    transfers: Counter,
}

impl Wire {
    /// Create an idle wire.
    pub fn new(name: &'static str, params: LinkParams) -> Wire {
        Wire {
            resource: Resource::new(name),
            params,
            bytes: Counter::new(),
            flits: Counter::new(),
            transfers: Counter::new(),
        }
    }

    /// Framing parameters.
    pub fn params(&self) -> LinkParams {
        self.params
    }

    /// Occupy the wire for a `bytes`-byte transfer starting no earlier than
    /// `now`; returns the `(start, end)` of the granted slot.
    pub fn reserve(&self, now: Time, bytes: usize) -> (Time, Time) {
        self.book(bytes);
        self.resource.reserve(now, self.params.wire_time(bytes))
    }

    /// Account a `bytes`-byte transfer in the per-wire tallies (called by
    /// every reservation path, including joint sender/receiver grants that
    /// bypass [`Wire::reserve`]).
    fn book(&self, bytes: usize) {
        self.bytes.add(bytes as u64);
        self.flits.add(bytes as u64 / 4);
        self.transfers.inc();
    }

    /// Account retransmitted bytes: they occupy the wire and count in the
    /// byte/flit tallies but are part of the original transfer, not a new
    /// one.
    fn book_extra(&self, bytes: usize) {
        self.bytes.add(bytes as u64);
        self.flits.add(bytes as u64 / 4);
    }

    /// Payload bytes this wire has carried.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes.get()
    }

    /// Flits (32-bit payload words) this wire has carried.
    pub fn flits_carried(&self) -> u64 {
        self.flits.get()
    }

    /// Transfers granted on this wire.
    pub fn transfers(&self) -> u64 {
        self.transfers.get()
    }

    /// Total time the wire has carried data.
    pub fn busy_total(&self) -> Dur {
        self.resource.busy_total()
    }

    /// The underlying FIFO server (for joint reservations).
    pub fn resource(&self) -> &Resource {
        &self.resource
    }

    /// Fraction of `[0, now]` the wire was busy.
    pub fn utilization(&self, now: Time) -> f64 {
        self.resource.utilization(now)
    }
}

// ---------------------------------------------------------------------------
// Failable state
// ---------------------------------------------------------------------------

/// Error returned by the failable sublink operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkError {
    /// The physical link (or its partner node) is down: the operation was
    /// refused or aborted without transferring any data.
    Down,
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Down => write!(f, "link down"),
        }
    }
}

impl std::error::Error for LinkError {}

struct StatusInner {
    up: bool,
    /// Set when the transport layer exhausted its retransmit budget: the
    /// hardware is declared broken and [`LinkStatus::set_up`] no longer
    /// revives it (a flap repair must not resurrect a condemned cable).
    condemned: bool,
    watchers: Vec<Waker>,
}

/// Shared health flag of one **physical link**. Both direction channels of a
/// node pair — and every clone of them — hold the same status, so a single
/// [`LinkStatus::set_down`] fails traffic in both directions at once.
#[derive(Clone)]
pub struct LinkStatus {
    inner: Rc<RefCell<StatusInner>>,
}

impl Default for LinkStatus {
    fn default() -> Self {
        Self::new()
    }
}

impl LinkStatus {
    /// A fresh, healthy link.
    pub fn new() -> LinkStatus {
        LinkStatus {
            inner: Rc::new(RefCell::new(StatusInner {
                up: true,
                condemned: false,
                watchers: Vec::new(),
            })),
        }
    }

    /// True while the link is alive.
    pub fn is_up(&self) -> bool {
        self.inner.borrow().up
    }

    /// Mark the link dead, waking every operation parked on it so it can
    /// resolve to [`LinkError::Down`] instead of hanging forever.
    pub fn set_down(&self) {
        let watchers = {
            let mut st = self.inner.borrow_mut();
            st.up = false;
            std::mem::take(&mut st.watchers)
        };
        for w in watchers {
            w.wake();
        }
    }

    /// Restore the link (a repaired machine reuses its fabric). A no-op on
    /// a condemned link: hardware the transport layer gave up on stays
    /// down until the whole fabric is rebuilt.
    pub fn set_up(&self) {
        let mut st = self.inner.borrow_mut();
        if !st.condemned {
            st.up = true;
        }
    }

    /// Permanently fail the link: down now, and immune to
    /// [`LinkStatus::set_up`]. Used by the transport layer when a
    /// transfer exhausts its retransmit budget.
    pub fn condemn(&self) {
        let watchers = {
            let mut st = self.inner.borrow_mut();
            st.up = false;
            st.condemned = true;
            std::mem::take(&mut st.watchers)
        };
        for w in watchers {
            w.wake();
        }
    }

    /// True once the link has been condemned by budget exhaustion.
    pub fn is_condemned(&self) -> bool {
        self.inner.borrow().condemned
    }

    /// A future that resolves once the link goes down (immediately if it
    /// already is). Race it against a channel operation with
    /// [`ts_sim::select2`].
    pub fn watch_down(&self) -> DownWatch {
        DownWatch {
            status: self.clone(),
        }
    }
}

/// Future returned by [`LinkStatus::watch_down`].
pub struct DownWatch {
    status: LinkStatus,
}

impl Future for DownWatch {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut st = self.status.inner.borrow_mut();
        if !st.up {
            return Poll::Ready(());
        }
        st.watchers.push(cx.waker().clone());
        Poll::Pending
    }
}

struct Packet {
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
    static DONE_POOL: std::cell::RefCell<Vec<OneShot<Time>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn take_done() -> OneShot<Time> {
    DONE_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

fn put_done(done: OneShot<Time>) {
    // Only recycle when the receiver's clone is truly gone; a cancelled
    // transfer may still hold one, in which case the cell just drops.
    if done.is_unique() {
        done.reset();
        DONE_POOL.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < 4096 {
                p.push(done);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Shard-boundary channels (parallel backend)
// ---------------------------------------------------------------------------

/// One leg of the three-leg cross-shard transfer protocol.
///
/// When a sublink's two endpoints live on different simulation shards the
/// CSP rendezvous is replayed as plain-data messages: the sender posts
/// `Data` when it commits; the receiver answers with `Request`, carrying
/// its link engine's free watermark and the framed duration; the sender's
/// shard computes the joint slot exactly as [`Resource::reserve_pair`]
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
        /// Payload bytes (for the sender-side byte/flit tallies).
        bytes: u64,
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
struct BoundaryState {
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
    granted: RefCell<std::collections::BTreeMap<u64, OneShot<Time>>>,
    /// Rx side: parked receivers awaiting their `(start, end)` grant.
    pending: RefCell<std::collections::BTreeMap<u64, OneShot<(Time, Time)>>>,
    /// Rx side: landed `Data` legs not yet consumed by a `recv`.
    inbox: RefCell<VecDeque<(u64, Vec<u32>, Time)>>,
    /// Rx side: receivers parked on an empty inbox, FIFO.
    waiting: RefCell<VecDeque<OneShot<()>>>,
}

impl BoundaryState {
    fn new(edge: u64, peer_shard: u32, is_tx: bool, outbox: BoundaryOutbox) -> BoundaryState {
        BoundaryState {
            edge,
            peer_shard,
            is_tx,
            outbox,
            next_seq: Cell::new(0),
            granted: RefCell::new(std::collections::BTreeMap::new()),
            pending: RefCell::new(std::collections::BTreeMap::new()),
            inbox: RefCell::new(VecDeque::new()),
            waiting: RefCell::new(VecDeque::new()),
        }
    }

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

/// Optional telemetry shared by every clone of one sublink: an end-to-end
/// message-latency histogram and a trace flow arrow per delivered message.
#[derive(Default)]
struct LinkTelemetry {
    latency_ns: Option<Histogram>,
    flow: Option<(Tracer, TrackId, TrackId)>,
}

/// One direction's per-message counters: messages and payload bytes. The
/// machine layer attaches the transmitting node's handles to a sublink's
/// `sent` side and the receiving node's to its `recv` side; a sublink built
/// bare keeps detached counters nobody reads.
#[derive(Default)]
struct Traffic {
    msgs: Counter,
    bytes: Counter,
}

impl Traffic {
    #[inline]
    fn book(&self, bytes: usize) {
        self.msgs.inc();
        self.bytes.add(bytes as u64);
    }
}

/// Shared state of one sublink. Everything — both endpoints and every clone
/// they hand out — refers to a single `ChanInner` behind one `Rc`, so
/// cloning a channel on the hot path is one refcount bump, not a field-by-
/// field clone of wires, counters and status flags.
struct ChanInner {
    rv: Rendezvous<Packet>,
    tx_wire: Wire,
    rx_wire: Wire,
    /// Booked at the sender's commit, into the transmitting node's meters.
    sent: Traffic,
    /// Booked at delivery, into the receiving node's meters.
    recv: Traffic,
    status: LinkStatus,
    telem: RefCell<LinkTelemetry>,
    transport: RefCell<TransportState>,
    /// Set when the far endpoint lives on another shard: `send`/`recv`
    /// replay the rendezvous over [`BoundaryEnvelope`]s instead of `rv`.
    boundary: Option<BoundaryState>,
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
    inner: Rc<ChanInner>,
}

impl LinkChannel {
    /// Create a sublink whose two ends share one `wire` (unit tests and
    /// simple point-to-point setups).
    pub fn new(wire: Wire) -> LinkChannel {
        LinkChannel::assemble(wire.clone(), wire, None)
    }

    /// Create a sublink between two distinct link engines: the sender's
    /// output wire and the receiver's input wire.
    pub fn new_pair(tx_wire: Wire, rx_wire: Wire) -> LinkChannel {
        LinkChannel::assemble(tx_wire, rx_wire, None)
    }

    fn assemble(tx_wire: Wire, rx_wire: Wire, boundary: Option<BoundaryState>) -> LinkChannel {
        LinkChannel {
            inner: Rc::new(ChanInner {
                rv: Rendezvous::new(),
                tx_wire,
                rx_wire,
                sent: Traffic::default(),
                recv: Traffic::default(),
                status: LinkStatus::new(),
                telem: RefCell::new(LinkTelemetry::default()),
                transport: RefCell::new(TransportState::default()),
                boundary,
            }),
        }
    }

    /// Create the **transmitting half** of a shard-boundary sublink: the
    /// local sender's output wire, with the receiver on `peer_shard`.
    /// Protocol messages are collected into the shard's shared `outbox`.
    pub fn new_boundary_tx(
        tx_wire: Wire,
        edge: u64,
        peer_shard: u32,
        outbox: BoundaryOutbox,
    ) -> LinkChannel {
        let boundary = BoundaryState::new(edge, peer_shard, true, outbox);
        Self::assemble(tx_wire.clone(), tx_wire, Some(boundary))
    }

    /// Create the **receiving half** of a shard-boundary sublink: the local
    /// receiver's input wire, with the sender on `peer_shard`.
    pub fn new_boundary_rx(
        rx_wire: Wire,
        edge: u64,
        peer_shard: u32,
        outbox: BoundaryOutbox,
    ) -> LinkChannel {
        let boundary = BoundaryState::new(edge, peer_shard, false, outbox);
        Self::assemble(rx_wire.clone(), rx_wire, Some(boundary))
    }

    /// Book every message this sublink sends into the transmitting node's
    /// meters. Must run before the channel is cloned out to its endpoints
    /// (the wiring phase), while this handle still owns the sublink.
    pub fn set_sent_meters(&mut self, msgs: Counter, bytes: Counter) {
        Rc::get_mut(&mut self.inner)
            .expect("set_sent_meters must run before the channel is cloned out")
            .sent = Traffic { msgs, bytes };
    }

    /// Book every message this sublink delivers into the receiving node's
    /// meters. Same wiring-phase rule as [`LinkChannel::set_sent_meters`].
    pub fn set_recv_meters(&mut self, msgs: Counter, bytes: Counter) {
        Rc::get_mut(&mut self.inner)
            .expect("set_recv_meters must run before the channel is cloned out")
            .recv = Traffic { msgs, bytes };
    }

    /// Record every delivered message's end-to-end latency (sender commit →
    /// receiver completion, in nanoseconds) into `hist`. The telemetry slot
    /// is shared across clones, so enabling it on either end covers both.
    pub fn set_latency_histogram(&self, hist: Histogram) {
        self.inner.telem.borrow_mut().latency_ns = Some(hist);
    }

    /// Emit a trace flow arrow from track `from` to track `to` for every
    /// delivered message. Shared across clones, like the histogram.
    pub fn enable_flow_trace(&self, tracer: Tracer, from: TrackId, to: TrackId) {
        self.inner.telem.borrow_mut().flow = Some((tracer, from, to));
    }

    /// Receive-side accounting shared by every delivery path: the receiving
    /// node's counters, the optional latency histogram and the optional
    /// flow arrow.
    fn book_recv(&self, sent_at: Time, end: Time, bytes: usize) {
        self.inner.recv.book(bytes);
        let telem = self.inner.telem.borrow();
        if let Some(hist) = &telem.latency_ns {
            hist.observe(end.since(sent_at).as_ns());
        }
        if let Some((tracer, from, to)) = &telem.flow {
            tracer.flow(*from, *to, sent_at, end);
        }
    }

    /// The shared health flag of the physical link under this sublink.
    pub fn status(&self) -> &LinkStatus {
        &self.inner.status
    }

    /// Tie this sublink to an existing physical-link status. Call before the
    /// channel is cloned out to its endpoints, e.g. so both direction
    /// channels of one node-pair link share a single flag.
    pub fn set_status(&mut self, status: LinkStatus) {
        Rc::get_mut(&mut self.inner)
            .expect("set_status must run before the channel is cloned out")
            .status = status;
    }

    /// True while the underlying physical link is alive.
    pub fn is_up(&self) -> bool {
        self.inner.status.is_up()
    }

    /// The receiving-side wire this sublink is multiplexed onto.
    pub fn wire(&self) -> &Wire {
        &self.inner.rx_wire
    }

    /// Send `words` and suspend until the receiver has them (CSP semantics:
    /// the sender resumes when the transfer completes).
    pub async fn send(&self, h: &SimHandle, words: Vec<u32>) {
        if self.inner.boundary.is_some() {
            return self.boundary_send(h, words).await;
        }
        let bytes = words.len() * 4;
        // DMA engine setup on the sending side.
        h.sleep(self.inner.tx_wire.params.dma_startup).await;
        let done = take_done();
        self.inner.sent.book(bytes);
        self.inner
            .rv
            .send(Packet {
                words,
                done: done.clone(),
                sent_at: h.now(),
            })
            .await;
        let end = done.recv().await;
        h.sleep_until(end).await;
        put_done(done);
    }

    /// Receive a message, suspending until a sender arrives and the framed
    /// transfer completes. Returns the payload words.
    pub async fn recv(&self, h: &SimHandle) -> Vec<u32> {
        if self.inner.boundary.is_some() {
            return self.boundary_recv(h).await;
        }
        let pkt = self.inner.rv.recv().await;
        self.complete_recv(h, pkt).await
    }

    /// Finish a receive whose sender has committed `pkt`: run the framed
    /// transfer on both engines, wait it out, book the delivery on the
    /// receiving side and release the sender. Every receive path — plain,
    /// failable, `ALT` — ends here.
    async fn complete_recv(&self, h: &SimHandle, pkt: Packet) -> Vec<u32> {
        let bytes = pkt.words.len() * 4;
        let (_start, end) = self.transfer(h.now(), &pkt.words);
        h.sleep_until(end).await;
        self.book_recv(pkt.sent_at, end, bytes);
        pkt.done.send(end);
        pkt.words
    }

    // --- shard-boundary protocol -------------------------------------------

    /// [`LinkChannel::send`] over a shard boundary. Identical observable
    /// timing and sender-side accounting: DMA startup, commit-time
    /// `book_sent`, then the task parks until the joint grant's `end` comes
    /// back — exactly where the sequential sender resumes.
    async fn boundary_send(&self, h: &SimHandle, words: Vec<u32>) {
        let b = self
            .inner
            .boundary
            .as_ref()
            .expect("boundary_send on a local channel");
        debug_assert!(b.is_tx, "send on the receiving half of a boundary link");
        let bytes = words.len() * 4;
        h.sleep(self.inner.tx_wire.params.dma_startup).await;
        self.inner.sent.book(bytes);
        let seq = b.next_seq.get();
        b.next_seq.set(seq + 1);
        let done: OneShot<Time> = OneShot::new();
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
        let end = done.recv().await;
        h.sleep_until(end).await;
    }

    /// [`LinkChannel::recv`] over a shard boundary: wait for the `Data`
    /// leg, post `Request` with this engine's free watermark, park for the
    /// `Grant`, book the receive half of the joint slot, and deliver at
    /// `end` — the instant the sequential receiver would deliver.
    async fn boundary_recv(&self, h: &SimHandle) -> Vec<u32> {
        let b = self
            .inner
            .boundary
            .as_ref()
            .expect("boundary_recv on a local channel");
        debug_assert!(!b.is_tx, "recv on the transmitting half of a boundary link");
        let (seq, words, sent_at) = loop {
            if let Some(item) = b.inbox.borrow_mut().pop_front() {
                break item;
            }
            let gate: OneShot<()> = OneShot::new();
            b.waiting.borrow_mut().push_back(gate.clone());
            gate.recv().await;
        };
        let bytes = words.len() * 4;
        let dur = self.inner.rx_wire.params.wire_time(bytes);
        let slot: OneShot<(Time, Time)> = OneShot::new();
        b.pending.borrow_mut().insert(seq, slot.clone());
        b.post(
            h.now(),
            seq,
            BoundaryLeg::Request {
                rx_free_ps: self.inner.rx_wire.resource().busy_until().as_ps(),
                dur_ps: dur.as_ps(),
                bytes: bytes as u64,
            },
        );
        let (start, end) = slot.recv().await;
        // The receive half of what `reserve_both` books in one call.
        self.inner.rx_wire.book(bytes);
        self.inner.rx_wire.resource().apply_grant(start, end, dur);
        h.sleep_until(end).await;
        self.book_recv(sent_at, end, bytes);
        words
    }

    /// Ingest one cross-shard envelope addressed to this channel. Called by
    /// the lockstep driver, in [`BoundaryEnvelope::sort_key`] order, while
    /// the shard is stopped at the envelope's instant.
    pub fn boundary_ingest(&self, h: &SimHandle, env: BoundaryEnvelope) {
        let b = self
            .inner
            .boundary
            .as_ref()
            .expect("boundary_ingest on a local channel");
        debug_assert_eq!(b.edge, env.edge, "envelope routed to the wrong channel");
        match env.leg {
            BoundaryLeg::Data { words, sent_at_ps } => {
                debug_assert!(!b.is_tx);
                b.inbox
                    .borrow_mut()
                    .push_back((env.seq, words, Time(sent_at_ps)));
                if let Some(gate) = b.waiting.borrow_mut().pop_front() {
                    gate.send(());
                }
            }
            BoundaryLeg::Request {
                rx_free_ps,
                dur_ps,
                bytes,
            } => {
                debug_assert!(b.is_tx);
                let now = h.now();
                let dur = Dur::ps(dur_ps);
                let tx_res = self.inner.tx_wire.resource();
                // The joint slot of `Resource::reserve_pair`, computed from
                // the exchanged watermark: starts when both engines are free.
                let start = now.max(tx_res.busy_until()).max(Time(rx_free_ps));
                let end = start + dur;
                self.inner.tx_wire.book(bytes as usize);
                tx_res.apply_grant(start, end, dur);
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

    /// Occupy both link engines for a `bytes`-byte transfer.
    fn reserve_both(&self, now: Time, bytes: usize) -> (Time, Time) {
        let inner = &*self.inner;
        inner.tx_wire.book(bytes);
        if !inner.tx_wire.resource().same_as(inner.rx_wire.resource()) {
            inner.rx_wire.book(bytes);
        }
        Resource::reserve_pair(
            inner.tx_wire.resource(),
            inner.rx_wire.resource(),
            now,
            inner.rx_wire.params.wire_time(bytes),
        )
    }

    // --- reliable transport -------------------------------------------------

    /// Route retransmit/CRC/escalation counts into pre-registered meters
    /// (the sending node's, since retransmission is the sender's work).
    pub fn set_transport_meters(
        &self,
        retransmits: Counter,
        crc_errors: Counter,
        escalations: Counter,
    ) {
        let mut tr = self.inner.transport.borrow_mut();
        tr.retransmits = retransmits;
        tr.crc_errors = crc_errors;
        tr.escalations = escalations;
    }

    /// Queue a transient wire fault: one payload bit of the next message on
    /// this direction is flipped in flight. The receiver's CRC catches it
    /// and the go-back-N protocol recovers.
    pub fn inject_corrupt(&self, flit_bit: u64) {
        assert!(
            self.inner.boundary.is_none(),
            "transient faults on shard-boundary links are unsupported"
        );
        self.inner
            .transport
            .borrow_mut()
            .pending
            .push_back(Impair::Corrupt { flit_bit });
    }

    /// Queue a transient wire fault: one flit of the next message on this
    /// direction vanishes; only the sender's retransmit timer recovers it.
    pub fn inject_drop(&self) {
        assert!(
            self.inner.boundary.is_none(),
            "transient faults on shard-boundary links are unsupported"
        );
        self.inner
            .transport
            .borrow_mut()
            .pending
            .push_back(Impair::Drop);
    }

    /// Impairments queued but not yet consumed by a transfer.
    pub fn pending_impairments(&self) -> usize {
        self.inner.transport.borrow().pending.len()
    }

    /// Flits retransmitted on this direction so far.
    pub fn transport_retransmits(&self) -> u64 {
        self.inner.transport.borrow().retransmits.get()
    }

    /// CRC errors detected on this direction so far.
    pub fn transport_crc_errors(&self) -> u64 {
        self.inner.transport.borrow().crc_errors.get()
    }

    /// Budget-exhaustion escalations on this direction so far.
    pub fn transport_escalations(&self) -> u64 {
        self.inner.transport.borrow().escalations.get()
    }

    /// Complete the framed transfer of `words` on both link engines,
    /// playing any queued transient impairments through the go-back-N
    /// recovery protocol.
    ///
    /// The healthy path is byte-for-byte identical to a plain
    /// [`LinkChannel::reserve_both`] — framing overhead is already part of
    /// [`LinkParams`]'s per-byte cost, so fault-free timing does not move.
    /// Each queued impairment costs one recovery round: a corrupted flit
    /// is NAKed after a CRC check on the actual framed words; a dropped
    /// flit waits out the retransmit timer (with exponential backoff on
    /// consecutive drops); either way the sender rewinds and resends up to
    /// [`WINDOW`] flits, whose bytes occupy both wires for real. A transfer
    /// needing more than [`RETRANSMIT_BUDGET`] rounds condemns the link — the
    /// message in flight still completes, but the link is permanently down
    /// and every later operation sees [`LinkError::Down`].
    fn transfer(&self, now: Time, words: &[u32]) -> (Time, Time) {
        let bytes = words.len() * 4;
        let (start, end) = self.reserve_both(now, bytes);
        if self.inner.transport.borrow().pending.is_empty() {
            return (start, end);
        }

        let mut tr = self.inner.transport.borrow_mut();
        let flits = Flit::frame(words, FLIT_WORDS);
        let nflits = flits.len();
        let payload_bits = (FLIT_WORDS * 32) as u64;
        let byte_time = self.inner.rx_wire.params.byte_time();

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

        // Retransmitted flits occupy both engines for real; timer and NAK
        // waits leave the wire idle but delay completion.
        let mut final_end = end;
        if resent_bytes > 0 {
            let inner = &*self.inner;
            inner.tx_wire.book_extra(resent_bytes);
            if !inner.tx_wire.resource().same_as(inner.rx_wire.resource()) {
                inner.rx_wire.book_extra(resent_bytes);
            }
            let (_s, e) = Resource::reserve_pair(
                inner.tx_wire.resource(),
                inner.rx_wire.resource(),
                end,
                inner.rx_wire.params.wire_time(resent_bytes),
            );
            final_end = e;
        }
        final_end += idle;
        if exhausted {
            // Budget blown: the message in flight is delivered, then the
            // link is condemned — permanently down, immune to flap repair.
            self.inner.status.condemn();
        }
        (start, final_end)
    }

    /// Failable [`LinkChannel::send`]: identical timing on the success path,
    /// but resolves to [`LinkError::Down`] — instead of blocking forever —
    /// when the link is already dead or dies while the send is parked
    /// waiting for its rendezvous partner. Once the receiver has committed,
    /// the framed transfer is in flight and completes even if the link dies
    /// underneath it.
    pub async fn try_send(&self, h: &SimHandle, words: Vec<u32>) -> Result<(), LinkError> {
        if self.inner.boundary.is_some() {
            // Boundary links carry no fault state (cross-shard faults are
            // unsupported); the plain protocol path always succeeds.
            self.boundary_send(h, words).await;
            return Ok(());
        }
        if !self.inner.status.is_up() {
            ts_sim::pool::put_words(words);
            return Err(LinkError::Down);
        }
        let bytes = words.len() * 4;
        // DMA engine setup on the sending side.
        h.sleep(self.inner.tx_wire.params.dma_startup).await;
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
                self.inner.sent.book(bytes);
                let end = done.recv().await;
                h.sleep_until(end).await;
                put_done(done);
                Ok(())
            }
            Either::Right(()) => Err(LinkError::Down),
        }
    }

    /// Failable [`LinkChannel::recv`]: resolves to [`LinkError::Down`] when
    /// the link is already dead or dies before any sender commits. A sender
    /// that committed first still hands its message over (the transfer was
    /// already in flight when the link died).
    pub async fn try_recv(&self, h: &SimHandle) -> Result<Vec<u32>, LinkError> {
        if self.inner.boundary.is_some() {
            return Ok(self.boundary_recv(h).await);
        }
        if !self.inner.status.is_up() {
            return Err(LinkError::Down);
        }
        match select2(self.inner.rv.recv(), self.inner.status.watch_down()).await {
            Either::Left(pkt) => Ok(self.complete_recv(h, pkt).await),
            Either::Right(()) => Err(LinkError::Down),
        }
    }

    /// True if a sender is currently blocked on this sublink (used by ALT).
    pub fn sender_waiting(&self) -> bool {
        self.inner.rv.sender_waiting()
    }
}

/// Occam-style `ALT` over several sublinks: resolves to
/// `(channel_index, payload)` for the first channel whose sender commits,
/// completing the framed transfer on that channel's wire. Lowest index wins
/// when several senders are already waiting (`PRI ALT`).
pub async fn alt_recv(h: &SimHandle, chans: &[&LinkChannel]) -> (usize, Vec<u32>) {
    let set = AltSet::new(chans);
    set.recv(h).await
}

/// A prepared `ALT` over a fixed set of sublinks.
///
/// Building the set once — e.g. per router daemon, which `ALT`s over the
/// same loopback-plus-dimensions list for every message it ever handles —
/// hoists the channel-list and rendezvous-handle allocations out of the
/// receive loop: each [`AltSet::recv`] borrows the prepared slices and
/// allocates nothing for the branch set.
pub struct AltSet {
    chans: Vec<LinkChannel>,
    rvs: Vec<Rendezvous<Packet>>,
}

impl AltSet {
    /// Prepare an `ALT` over `chans` (branch priority = slice order).
    pub fn new(chans: &[&LinkChannel]) -> AltSet {
        assert!(
            chans.iter().all(|c| c.inner.boundary.is_none()),
            "ALT over a shard-boundary channel is unsupported"
        );
        AltSet {
            chans: chans.iter().map(|&c| c.clone()).collect(),
            rvs: chans.iter().map(|c| c.inner.rv.clone()).collect(),
        }
    }

    /// Wait for the first branch whose sender commits; completes the framed
    /// transfer on that branch's wire. Lowest index wins when several
    /// senders are already parked (`PRI ALT`).
    pub async fn recv(&self, h: &SimHandle) -> (usize, Vec<u32>) {
        let (idx, pkt) = ts_sim::alt(&self.rvs).await;
        (idx, self.chans[idx].complete_recv(h, pkt).await)
    }

    /// Failable [`AltSet::recv`]: resolves to [`LinkError::Down`] when
    /// `watch` goes down first.
    pub async fn recv_or_down(
        &self,
        h: &SimHandle,
        watch: &LinkStatus,
    ) -> Result<(usize, Vec<u32>), LinkError> {
        if !watch.is_up() {
            return Err(LinkError::Down);
        }
        match select2(ts_sim::alt(&self.rvs), watch.watch_down()).await {
            Either::Left((idx, pkt)) => Ok((idx, self.chans[idx].complete_recv(h, pkt).await)),
            Either::Right(()) => Err(LinkError::Down),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_sim::Sim;

    #[test]
    fn calibration_matches_paper() {
        let p = LinkParams::default();
        assert_eq!(p.byte_time(), Dur::us(2));
        // Effective unidirectional rate = 0.5 MB/s.
        assert!((p.effective_mb_per_s() - 0.5).abs() < 1e-12);
        // A 64-bit word costs 16 µs on the wire — the paper's ratio basis.
        assert_eq!(p.wire_time(8), Dur::us(16));
        // Four bidirectional links: > 4 MB/s aggregate.
        assert!(p.node_aggregate_mb_per_s() >= 4.0);
        // Raw line rate is 10 Mb/s but framing eats 9/20 of it.
        let raw_mb = p.bit_rate as f64 / 8.0 / 1e6;
        assert!(p.effective_mb_per_s() < raw_mb / 2.0);
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
    fn dma_startup_amortization() {
        // Message latency = 5 µs + 2 µs/byte: tiny messages are startup
        // dominated; the crossover where startup is half the cost is 2.5
        // bytes — the argument for the paper's ~130-ops-per-word rule.
        let p = LinkParams::default();
        assert_eq!(p.message_time(1), Dur::us(7));
        assert_eq!(p.message_time(8), Dur::us(21));
        assert_eq!(p.message_time(1024), Dur::us(5 + 2048));
        let eff_1k = p.message_time(1024).throughput_bytes(1024) / 1e6;
        assert!(eff_1k > 0.49, "{eff_1k}");
    }

    #[test]
    fn metrics_count_traffic() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let (msgs_sent, bytes_sent) = (Counter::new(), Counter::new());
        let (msgs_recv, bytes_recv) = (Counter::new(), Counter::new());
        let mut ch = LinkChannel::new(Wire::new("w", LinkParams::default()));
        ch.set_sent_meters(msgs_sent.clone(), bytes_sent.clone());
        ch.set_recv_meters(msgs_recv.clone(), bytes_recv.clone());
        let (tx, rx) = (ch.clone(), ch);
        let h2 = h.clone();
        sim.spawn(async move { tx.send(&h2, vec![0; 4]).await });
        sim.spawn(async move {
            rx.recv(&h).await;
        });
        assert!(sim.run().quiescent);
        assert_eq!(msgs_sent.get(), 1);
        assert_eq!(bytes_sent.get(), 16);
        assert_eq!(msgs_recv.get(), 1);
        assert_eq!(bytes_recv.get(), 16);
    }

    #[test]
    fn wire_tallies_bytes_and_flits() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let wire = Wire::new("w", LinkParams::default());
        let ch = LinkChannel::new(wire.clone());
        let (tx, rx) = (ch.clone(), ch);
        let h2 = h.clone();
        sim.spawn(async move { tx.send(&h2, vec![0; 8]).await });
        sim.spawn(async move {
            rx.recv(&h).await;
        });
        assert!(sim.run().quiescent);
        assert_eq!(wire.bytes_carried(), 32);
        assert_eq!(wire.flits_carried(), 8);
        assert_eq!(wire.transfers(), 1);
    }

    #[test]
    fn latency_histogram_observes_message_time() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let ch = LinkChannel::new(Wire::new("w", LinkParams::default()));
        let hist = Histogram::new();
        ch.set_latency_histogram(hist.clone());
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
    fn alt_recv_takes_first_sender() {
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
            let first = alt_recv(&h, &[&a, &b]).await;
            let second = alt_recv(&h, &[&a, &b]).await;
            (first, second)
        });
        assert!(sim.run().quiescent);
        let ((i1, w1), (i2, w2)) = jh.try_take().unwrap();
        assert_eq!((i1, w1.len()), (1, 3));
        assert_eq!((i2, w2.len()), (0, 2));
    }

    #[test]
    fn alt_recv_charges_wire_time() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let wire = Wire::new("w", LinkParams::default());
        let ch = LinkChannel::new(wire.clone());
        let tx = ch.clone();
        let h2 = h.clone();
        sim.spawn(async move { tx.send(&h2, vec![0u32; 8]).await });
        let jh = sim.spawn(async move {
            let (_, words) = alt_recv(&h, &[&ch]).await;
            (words.len(), h.now())
        });
        assert!(sim.run().quiescent);
        let (n, t) = jh.try_take().unwrap();
        assert_eq!(n, 8);
        // 5 µs startup + 32 bytes × 2 µs = 69 µs.
        assert_eq!(t.as_ns(), 69_000);
        assert_eq!(wire.busy_total(), Dur::us(64));
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
    fn parked_recv_aborts_when_link_dies() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let ch = LinkChannel::new(Wire::new("w", LinkParams::default()));
        let status = ch.status().clone();
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(Dur::us(50)).await;
            status.set_down();
        });
        let jh = sim.spawn(async move {
            let r = ch.try_recv(&h).await;
            (r.is_err(), h.now())
        });
        assert!(sim.run().quiescent);
        let (errored, t) = jh.try_take().unwrap();
        assert!(errored);
        assert_eq!(t.as_ns(), 50_000);
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
            let words = rx.try_recv(&h).await.unwrap();
            (words.len(), h.now())
        });
        assert!(sim.run().quiescent);
        let (n, t) = jh.try_take().unwrap();
        assert_eq!(n, 2);
        assert_eq!(t.as_ns(), 21_000);
    }

    #[test]
    fn crc16_matches_the_ccitt_false_check_vector() {
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(crc16(b""), 0xFFFF);
        // The word-fed form agrees with the byte-fed form on the same
        // big-endian stream.
        assert_eq!(crc16_words(&[0x31323334]), crc16(b"1234"));
    }

    #[test]
    fn framing_round_trips_and_crc_checks() {
        let words: Vec<u32> = (0..10).collect();
        let flits = Flit::frame(&words, 4);
        assert_eq!(flits.len(), 3, "10 words / 4 per flit");
        assert_eq!(flits[2].payload.len(), 2, "short tail flit");
        let mut rebuilt = Vec::new();
        for (i, f) in flits.iter().enumerate() {
            assert_eq!(f.seq, i as u32);
            assert!(f.check(), "fresh flit must verify");
            rebuilt.extend_from_slice(&f.payload);
        }
        assert_eq!(rebuilt, words);
        // An empty message still frames as one (runt) flit.
        assert_eq!(Flit::frame(&[], 4).len(), 1);
    }

    #[test]
    fn single_bit_flips_are_always_detected() {
        let flit = Flit::new(3, vec![0xDEAD_BEEF, 0x0123_4567, 0, u32::MAX]);
        for bit in 0..128 {
            let mut hit = flit.clone();
            hit.flip_bit(bit);
            assert!(!hit.check(), "bit {bit} slipped past the CRC");
        }
    }

    #[test]
    fn corrupt_flit_costs_a_nak_and_a_window_resend() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let wire = Wire::new("w", LinkParams::default());
        let ch = LinkChannel::new(wire.clone());
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
        assert_eq!(ch.transport_crc_errors(), 1);
        assert_eq!(ch.transport_retransmits(), 2);
        assert_eq!(ch.transport_escalations(), 0);
        assert_eq!(ch.pending_impairments(), 0, "impairment consumed");
        // The retransmitted bytes really occupied the wire.
        assert_eq!(wire.busy_total(), Dur::us(64 + 88));
        assert_eq!(wire.bytes_carried(), 32 + 44);
        assert!(ch.is_up(), "one recoverable error must not kill the link");
    }

    #[test]
    fn corruption_late_in_the_message_resends_less() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let ch = LinkChannel::new(Wire::new("w", LinkParams::default()));
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
        assert_eq!(ch.transport_retransmits(), 1);
    }

    #[test]
    fn drops_back_off_exponentially() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let ch = LinkChannel::new(Wire::new("w", LinkParams::default()));
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
        assert_eq!(ch.transport_retransmits(), 4);
        assert_eq!(ch.transport_crc_errors(), 0, "a drop is not a CRC hit");
    }

    #[test]
    fn budget_exhaustion_condemns_the_link_but_delivers() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let ch = LinkChannel::new(Wire::new("w", LinkParams::default()));
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
        assert_eq!(ch.transport_escalations(), 1);
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
        let ch = LinkChannel::new(Wire::new("w", LinkParams::default()));
        let (retrans, crc, esc) = (Counter::new(), Counter::new(), Counter::new());
        ch.set_transport_meters(retrans.clone(), crc.clone(), esc.clone());
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

    // --- flap ordering (the LinkFlap fault path) ---------------------------

    #[test]
    fn down_up_down_wakes_each_rounds_waiters_exactly_once() {
        let mut sim = Sim::new();
        let status = LinkStatus::new();
        let s1 = status.clone();
        let first = sim.spawn(async move {
            s1.watch_down().await;
            1u32
        });
        sim.run();
        assert_eq!(first.try_take(), None, "no fault yet: waiter parked");
        status.set_down();
        sim.run();
        assert_eq!(
            first.try_take(),
            Some(1),
            "first flap wakes the first waiter"
        );

        status.set_up();
        assert!(status.is_up());
        let s2 = status.clone();
        let second = sim.spawn(async move {
            s2.watch_down().await;
            2u32
        });
        sim.run();
        assert_eq!(second.try_take(), None, "healed link: new waiter parks");
        status.set_down();
        sim.run();
        assert_eq!(
            second.try_take(),
            Some(2),
            "second flap wakes only the new waiter"
        );
    }

    #[test]
    fn a_heal_racing_the_wake_reparks_the_watcher() {
        // down → up faster than the woken task can run: when it finally
        // polls, the link is healthy again, so it must re-park and resolve
        // only on the *next* down — not spuriously complete.
        let mut sim = Sim::new();
        let status = LinkStatus::new();
        let s = status.clone();
        let jh = sim.spawn(async move {
            s.watch_down().await;
        });
        sim.run(); // parked
        status.set_down();
        status.set_up(); // heals before the waker is polled
        sim.run();
        assert_eq!(jh.try_take(), None, "watcher re-parks on a healed link");
        status.set_down();
        sim.run();
        assert_eq!(jh.try_take(), Some(()), "the next real down resolves it");
    }

    #[test]
    fn status_shared_across_clones_and_directions() {
        let wa = Wire::new("a", LinkParams::default());
        let wb = Wire::new("b", LinkParams::default());
        let ab = LinkChannel::new_pair(wa.clone(), wb.clone());
        let mut ba = LinkChannel::new_pair(wb, wa);
        ba.set_status(ab.status().clone());
        let ab2 = ab.clone();
        ab.status().set_down();
        assert!(!ab2.is_up());
        assert!(!ba.is_up());
        ab.status().set_up();
        assert!(ba.is_up());
    }
}
