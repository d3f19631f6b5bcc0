//! CSP-style channels.
//!
//! The paper's control processor runs Occam, whose inter-process
//! communication is synchronous rendezvous over channels. [`RvCore`] models
//! exactly that: a `send` and a `recv` meet, the value moves, and both sides
//! resume at the instant of the meeting (which, because the executor runs in
//! time order, is the later party's arrival time). It is the one rendezvous
//! implementation, held by value by whoever owns the channel: [`Rendezvous`]
//! shares one through an `Rc` (soft channels), and a `ts-link` sublink keeps
//! its own inline, layering the hardware transfer *durations* on top. A
//! plain party that finds nobody queued parks in the core's inline slot, so
//! a healthy message costs no cell, no claim flag and no queue buffer.
//!
//! [`Mailbox`] is a buffered (asynchronous) queue used for infrastructure
//! that is not rendezvous-shaped (e.g. metrics or host-side collection), and
//! [`OneShot`] carries a single completion value, typically "your DMA
//! finished at time t".
//!
//! [`Alt`] implements Occam's `ALT`: wait for the first of several input
//! channels to have a ready sender. When several are ready the lowest index
//! wins (Occam's `PRI ALT`), keeping programs deterministic. All of an ALT's
//! parked receive cells share one *claim flag*, so exactly one sender can
//! commit to the ALT — the others stay blocked, as CSP requires. The set
//! owns its cells and flag for its lifetime: a daemon that `ALT`s over the
//! same channels forever re-arms them each round instead of rebuilding them.

use std::cell::{Cell, OnceCell, RefCell, RefMut};
use std::collections::VecDeque;
use std::future::Future;
use std::ops::Deref;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// A single-value completion channel.
///
/// `send` is synchronous (it never blocks); `recv().await` suspends until the
/// value arrives. Sending twice panics; every simulated completion happens
/// exactly once.
pub struct OneShot<T> {
    state: Rc<RefCell<OneShotState<T>>>,
}

struct OneShotState<T> {
    value: Option<T>,
    sent: bool,
    waker: Option<Waker>,
}

impl<T> Clone for OneShot<T> {
    fn clone(&self) -> Self {
        OneShot {
            state: self.state.clone(),
        }
    }
}

impl<T> Default for OneShot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> OneShot<T> {
    /// Create an empty one-shot channel.
    pub fn new() -> Self {
        OneShot {
            state: Rc::new(RefCell::new(OneShotState {
                value: None,
                sent: false,
                waker: None,
            })),
        }
    }

    /// Deposit the value and wake the receiver. Panics on double send.
    pub fn send(&self, v: T) {
        let mut st = self.state.borrow_mut();
        assert!(!st.sent, "OneShot::send called twice");
        st.sent = true;
        st.value = Some(v);
        if let Some(w) = st.waker.take() {
            w.wake();
        }
    }

    /// Await the value.
    pub fn recv(&self) -> OneShotRecv<T> {
        OneShotRecv {
            state: self.state.clone(),
        }
    }

    /// True when this handle is the only one left — the counterpart and any
    /// pending `recv` future are gone, so the channel can be recycled.
    pub fn is_unique(&self) -> bool {
        Rc::strong_count(&self.state) == 1
    }

    /// Reset a fired one-shot for reuse (buffer pooling). Panics if a sent
    /// value was never received — recycling would silently lose it.
    pub fn reset(&self) {
        let mut st = self.state.borrow_mut();
        assert!(
            st.value.is_none(),
            "OneShot::reset with an undelivered value"
        );
        st.sent = false;
        st.waker = None;
    }
}

/// Future returned by [`OneShot::recv`].
pub struct OneShotRecv<T> {
    state: Rc<RefCell<OneShotState<T>>>,
}

impl<T> Future for OneShotRecv<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        match st.value.take() {
            Some(v) => Poll::Ready(v),
            None => {
                assert!(!st.sent, "OneShot value taken twice");
                st.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rendezvous
// ---------------------------------------------------------------------------

/// A queued receiver's cell: an `ALT` branch, or a plain receive that
/// arrived while another receiver was already parked.
///
/// `claim` is shared among all cells of one `ALT` (each plain `recv` has its
/// own): a sender may deposit only after winning the claim, which guarantees
/// at most one branch of an `ALT` fires. A set claim with no deposited value
/// means the receive was cancelled (or the `ALT` is between rounds); senders
/// skip such cells.
struct RecvCell<T> {
    value: Option<T>,
    branch: usize,
    claim: Rc<Cell<bool>>,
    waker: Option<Waker>,
    /// True while the cell sits in its channel's `receivers` queue. An
    /// [`Alt`]'s cells outlive a round, so re-arming must know which of
    /// them a sender has popped in the meantime.
    parked: bool,
}

/// A queued sender's cell. Its value leaves when a receiver takes it or
/// when the send is cancelled (its future dropped); receivers skip an
/// empty cell.
struct SendCell<T> {
    value: Option<T>,
    waker: Option<Waker>,
}

/// Who holds a core's inline slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// Nobody.
    Empty,
    /// A parked sender; its value waits in the slot.
    Send,
    /// A receiver took the parked sender's value; the sender has not yet
    /// been polled to see it.
    Taken,
    /// A parked receiver.
    Recv,
    /// A sender deposited into the parked receiver's slot; the receiver
    /// has not yet been polled to take it.
    Filled,
}

/// The cell queues behind the slot, allocated by a channel's first `ALT`
/// branch or second parker. A queued party allocates its cell (a plain
/// receive also its claim flag) and drops it when done: queueing is rare
/// enough that a pool of spent cells never pays for itself.
struct Queues<T> {
    senders: VecDeque<Rc<RefCell<SendCell<T>>>>,
    receivers: VecDeque<Rc<RefCell<RecvCell<T>>>>,
}

/// The state of one synchronous channel, held by value by whatever owns
/// the channel: [`Rendezvous`] wraps it in an `Rc`, and a link sublink
/// keeps it inline in its shared state, so a message reaches its partner
/// without a further pointer hop.
///
/// A plain send or receive that finds nobody queued parks in the core's
/// inline one-entry **slot** (value, waker, occupant): no cell, no claim
/// flag, no queue buffer. The cell **queues** behind it take `ALT` branches
/// and any party that parks while the slot or a queue is occupied. A slot
/// is only taken when its side's queue is empty and the queues only grow
/// behind a taken slot, so the slot is always the head of its side and
/// pairing stays FIFO. A party that leaves the slot (completed or
/// cancelled) vacates it at once; a cancelled queue cell lingers until a
/// partner skips it.
pub struct RvCore<T> {
    value: Cell<Option<T>>,
    waker: Cell<Option<Waker>>,
    slot: Cell<Slot>,
    queues: OnceCell<Box<RefCell<Queues<T>>>>,
}

impl<T> Default for RvCore<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> RvCore<T> {
    /// An empty channel: nobody parked, no queues.
    pub const fn new() -> RvCore<T> {
        RvCore {
            value: Cell::new(None),
            waker: Cell::new(None),
            slot: Cell::new(Slot::Empty),
            queues: OnceCell::new(),
        }
    }

    /// Send: completes when a receiver takes the value.
    pub fn send(&self, v: T) -> SendFut<'_, T> {
        SendFut {
            core: self,
            value: Some(v),
            cell: None,
            in_slot: false,
        }
    }

    /// Receive: completes when a sender provides a value.
    pub fn recv(&self) -> RecvFut<'_, T> {
        RecvFut {
            core: self,
            cell: None,
            in_slot: false,
        }
    }

    /// True if an (uncancelled) sender is currently blocked on this channel.
    pub fn sender_waiting(&self) -> bool {
        self.slot.get() == Slot::Send
            || self.queues.get().is_some_and(|q| {
                q.borrow()
                    .senders
                    .iter()
                    .any(|c| c.borrow().value.is_some())
            })
    }

    /// Receivers currently parked on this channel: one in the slot, and the
    /// queued cells, live or cancelled (cancelled cells linger until a
    /// sender next arrives and skips them).
    pub fn parked_receivers(&self) -> usize {
        let queued = self.queues.get().map_or(0, |q| q.borrow().receivers.len());
        usize::from(self.slot.get() == Slot::Recv) + queued
    }

    /// The queues, allocated on first use.
    fn queues_mut(&self) -> RefMut<'_, Queues<T>> {
        self.queues
            .get_or_init(|| {
                Box::new(RefCell::new(Queues {
                    senders: VecDeque::new(),
                    receivers: VecDeque::new(),
                }))
            })
            .borrow_mut()
    }

    /// Wake and clear whoever parked in the slot.
    fn wake_slot(&self) {
        if let Some(w) = self.waker.take() {
            w.wake();
        }
    }

    /// Re-register the slot's waker on a repeated poll.
    fn rewake_slot(&self, cx: &Context<'_>) {
        let w = match self.waker.take() {
            Some(w) if w.will_wake(cx.waker()) => w,
            _ => cx.waker().clone(),
        };
        self.waker.set(Some(w));
    }

    /// Park in the slot if it is free and nobody of this side is queued.
    fn park_in_slot(
        &self,
        side: Slot,
        value: Option<T>,
        cx: &Context<'_>,
    ) -> Result<(), Option<T>> {
        let free = self.slot.get() == Slot::Empty
            && self.queues.get().is_none_or(|q| {
                let q = q.borrow();
                match side {
                    Slot::Send => q.senders.is_empty(),
                    _ => q.receivers.is_empty(),
                }
            });
        if !free {
            return Err(value);
        }
        self.value.set(value);
        self.waker.set(Some(cx.waker().clone()));
        self.slot.set(side);
        Ok(())
    }

    /// Match the head sender, if one is parked: the slot, then the queue.
    fn try_take(&self) -> Option<T> {
        if self.slot.get() == Slot::Send {
            self.slot.set(Slot::Taken);
            let v = self.value.take();
            self.wake_slot();
            return v;
        }
        let mut q = self.queues.get()?.borrow_mut();
        while let Some(sc) = q.senders.pop_front() {
            let mut s = sc.borrow_mut();
            let Some(v) = s.value.take() else {
                continue; // cancelled send
            };
            if let Some(w) = s.waker.take() {
                w.wake();
            }
            return Some(v);
        }
        None
    }

    /// Hand `v` to the head receiver whose claim we can win: the slot, then
    /// the queue. Gives `v` back when nobody is listening.
    fn deposit(&self, v: T) -> Option<T> {
        if self.slot.get() == Slot::Recv {
            self.value.set(Some(v));
            self.slot.set(Slot::Filled);
            self.wake_slot();
            return None;
        }
        let Some(q) = self.queues.get() else {
            return Some(v);
        };
        let mut q = q.borrow_mut();
        while let Some(rc) = q.receivers.pop_front() {
            let mut r = rc.borrow_mut();
            r.parked = false;
            if r.claim.get() {
                continue; // cancelled receive, or an ALT that is not armed
            }
            r.claim.set(true);
            r.value = Some(v);
            if let Some(w) = r.waker.take() {
                w.wake();
            }
            return None;
        }
        Some(v)
    }

    /// Queue a receive cell (an ALT branch, or a receiver behind another).
    fn park_receiver(&self, cell: Rc<RefCell<RecvCell<T>>>) {
        cell.borrow_mut().parked = true;
        self.queues_mut().receivers.push_back(cell);
    }
}

/// Synchronous (unbuffered, CSP) channel, the Occam `CHAN`: an [`RvCore`]
/// shared by every clone. It dereferences to the core, whose `send` and
/// `recv` it offers.
pub struct Rendezvous<T> {
    core: Rc<RvCore<T>>,
}

impl<T> Clone for Rendezvous<T> {
    fn clone(&self) -> Self {
        Rendezvous {
            core: self.core.clone(),
        }
    }
}

impl<T> Default for Rendezvous<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Rendezvous<T> {
    /// Create an empty rendezvous channel.
    pub fn new() -> Self {
        Rendezvous {
            core: Rc::new(RvCore::new()),
        }
    }
}

impl<T> Deref for Rendezvous<T> {
    type Target = RvCore<T>;

    fn deref(&self) -> &RvCore<T> {
        &self.core
    }
}

impl<T> AsRef<RvCore<T>> for Rendezvous<T> {
    fn as_ref(&self) -> &RvCore<T> {
        &self.core
    }
}

/// Future returned by [`RvCore::send`].
pub struct SendFut<'a, T> {
    core: &'a RvCore<T>,
    value: Option<T>,
    cell: Option<Rc<RefCell<SendCell<T>>>>,
    /// Parked in the core's slot.
    in_slot: bool,
}

// The futures never rely on the address of their fields, so they are Unpin
// regardless of `T`.
impl<T> Unpin for SendFut<'_, T> {}
impl<T> Unpin for RecvFut<'_, T> {}

impl<T> Future for SendFut<'_, T> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let core = this.core;
        if this.in_slot {
            if core.slot.get() == Slot::Taken {
                core.slot.set(Slot::Empty);
                this.in_slot = false;
                return Poll::Ready(());
            }
            debug_assert_eq!(core.slot.get(), Slot::Send);
            core.rewake_slot(cx);
            return Poll::Pending;
        }
        if let Some(cell) = &this.cell {
            let mut c = cell.borrow_mut();
            if c.value.is_none() {
                drop(c);
                this.cell = None;
                return Poll::Ready(()); // taken
            }
            c.waker = Some(cx.waker().clone());
            return Poll::Pending;
        }
        let v = this.value.take().expect("SendFut polled after completion");
        let Some(v) = core.deposit(v) else {
            return Poll::Ready(());
        };
        // No receiver: park, in the slot when it is free and nobody is
        // queued, else in a queue cell.
        let v = match core.park_in_slot(Slot::Send, Some(v), cx) {
            Ok(()) => {
                this.in_slot = true;
                return Poll::Pending;
            }
            Err(v) => v,
        };
        let cell = Rc::new(RefCell::new(SendCell {
            value: v,
            waker: Some(cx.waker().clone()),
        }));
        core.queues_mut().senders.push_back(cell.clone());
        this.cell = Some(cell);
        Poll::Pending
    }
}

impl<T> Drop for SendFut<'_, T> {
    fn drop(&mut self) {
        if self.in_slot {
            // Cancelled (value and waker go) or completed but not yet
            // polled: either way the slot is free again.
            self.core.value.take();
            self.core.waker.take();
            self.core.slot.set(Slot::Empty);
        } else if let Some(cell) = &self.cell {
            cell.borrow_mut().value = None; // cancel: receivers skip this cell
        }
    }
}

/// Future returned by [`RvCore::recv`].
pub struct RecvFut<'a, T> {
    core: &'a RvCore<T>,
    cell: Option<Rc<RefCell<RecvCell<T>>>>,
    /// Parked in the core's slot.
    in_slot: bool,
}

impl<T> Future for RecvFut<'_, T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let this = self.get_mut();
        let core = this.core;
        if this.in_slot {
            if core.slot.get() == Slot::Filled {
                core.slot.set(Slot::Empty);
                this.in_slot = false;
                return Poll::Ready(core.value.take().expect("filled slot without value"));
            }
            debug_assert_eq!(core.slot.get(), Slot::Recv);
            core.rewake_slot(cx);
            return Poll::Pending;
        }
        if let Some(cell) = &this.cell {
            let mut c = cell.borrow_mut();
            if let Some(v) = c.value.take() {
                drop(c);
                this.cell = None;
                return Poll::Ready(v);
            }
            debug_assert!(!c.claim.get(), "RecvFut cell claimed without value");
            c.waker = Some(cx.waker().clone());
            return Poll::Pending;
        }
        // First poll: match a parked sender, else park ourselves.
        if let Some(v) = core.try_take() {
            return Poll::Ready(v);
        }
        if core.park_in_slot(Slot::Recv, None, cx).is_ok() {
            this.in_slot = true;
            return Poll::Pending;
        }
        let cell = Rc::new(RefCell::new(RecvCell {
            value: None,
            branch: 0,
            claim: Rc::new(Cell::new(false)),
            waker: Some(cx.waker().clone()),
            parked: false,
        }));
        core.park_receiver(cell.clone());
        this.cell = Some(cell);
        Poll::Pending
    }
}

impl<T> Drop for RecvFut<'_, T> {
    fn drop(&mut self) {
        if self.in_slot {
            // Cancelled, or filled but never polled out: the sender has
            // already resumed, so CSP-wise the communication completed and
            // the value is dropped.
            self.core.value.take();
            self.core.waker.take();
            self.core.slot.set(Slot::Empty);
        } else if let Some(cell) = &self.cell {
            let c = cell.borrow();
            if c.value.is_none() {
                c.claim.set(true); // cancel
            }
            // A deposited value is dropped with the cell, as above.
        }
    }
}

// ---------------------------------------------------------------------------
// ALT
// ---------------------------------------------------------------------------

/// A prepared Occam `ALT` over the *input* ends of a fixed set of channels.
/// Each [`Alt::recv`] round resolves to `(branch_index, value)` for the
/// first channel on which a sender commits; if several senders are already
/// waiting, the lowest branch index wins (Occam's `PRI ALT`).
///
/// The channels are anything that reaches an [`RvCore`]: [`Rendezvous`]
/// values by default, or a wrapper that holds its core inline (a link
/// sublink). The set owns one receive cell per branch and the claim flag
/// they share for its whole lifetime. A round *arms* the flag and queues
/// only the cells a sender has popped since they were last queued; the
/// cells of branches that did not fire stay queued where they are, skipped
/// like a cancelled receive while the flag is down and live again at the
/// next round. So a round allocates nothing, an idle branch never holds
/// more than this one cell, and dropping the set takes its cells out of the
/// queues. (A cell that stays queued keeps its place ahead of receivers
/// that park on the same channel later.)
pub struct Alt<T, C: AsRef<RvCore<T>> = Rendezvous<T>> {
    chans: Vec<C>,
    cells: Vec<Rc<RefCell<RecvCell<T>>>>,
    /// False only while a round is armed and no sender has committed.
    claim: Rc<Cell<bool>>,
}

impl<T, C: AsRef<RvCore<T>>> Alt<T, C> {
    /// Prepare an `ALT` over `chans` (branch priority = slice order).
    pub fn new(chans: Vec<C>) -> Alt<T, C> {
        let claim = Rc::new(Cell::new(true));
        let cells = (0..chans.len())
            .map(|branch| {
                Rc::new(RefCell::new(RecvCell {
                    value: None,
                    branch,
                    claim: claim.clone(),
                    waker: None,
                    parked: false,
                }))
            })
            .collect();
        Alt {
            chans,
            cells,
            claim,
        }
    }

    /// The channels, in branch order.
    pub fn channels(&self) -> &[C] {
        &self.chans
    }

    /// One round: wait for the first branch whose sender commits. Dropping
    /// the future unresolved cancels the round.
    pub fn recv(&mut self) -> AltFut<'_, T, C> {
        AltFut {
            alt: self,
            armed: false,
        }
    }
}

impl<T, C: AsRef<RvCore<T>>> Drop for Alt<T, C> {
    fn drop(&mut self) {
        for (ch, cell) in self.chans.iter().zip(&self.cells) {
            if cell.borrow().parked {
                ch.as_ref()
                    .queues_mut()
                    .receivers
                    .retain(|c| !Rc::ptr_eq(c, cell));
            }
        }
    }
}

/// Future returned by [`Alt::recv`].
pub struct AltFut<'a, T, C: AsRef<RvCore<T>>> {
    alt: &'a mut Alt<T, C>,
    /// This round has armed the claim flag and not yet taken a value.
    armed: bool,
}

impl<T, C: AsRef<RvCore<T>>> Future for AltFut<'_, T, C> {
    type Output = (usize, T);

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<(usize, T)> {
        let this = self.get_mut();
        let alt = &*this.alt;
        if this.armed {
            // A sender may have deposited into one of our cells.
            for cell in &alt.cells {
                let mut c = cell.borrow_mut();
                if let Some(v) = c.value.take() {
                    this.armed = false;
                    return Poll::Ready((c.branch, v));
                }
            }
        } else {
            // Fast path: an already-parked sender on the lowest-index branch.
            for (i, ch) in alt.chans.iter().enumerate() {
                if let Some(v) = ch.as_ref().try_take() {
                    return Poll::Ready((i, v));
                }
            }
            alt.claim.set(false);
            this.armed = true;
        }
        // Every branch must be queued on its channel and wake this task.
        for (ch, cell) in alt.chans.iter().zip(&alt.cells) {
            let mut c = cell.borrow_mut();
            if !c.waker.as_ref().is_some_and(|w| w.will_wake(cx.waker())) {
                c.waker = Some(cx.waker().clone());
            }
            if !c.parked {
                drop(c);
                ch.as_ref().park_receiver(cell.clone());
            }
        }
        Poll::Pending
    }
}

impl<T, C: AsRef<RvCore<T>>> Drop for AltFut<'_, T, C> {
    fn drop(&mut self) {
        if self.armed {
            // Cancel the round. If a branch fired but the value was not
            // polled out, it is dropped (the sender has already resumed).
            self.alt.claim.set(true);
            for cell in &self.alt.cells {
                cell.borrow_mut().value = None;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// select
// ---------------------------------------------------------------------------

/// Outcome of [`select2`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Either<A, B> {
    /// The first future completed first.
    Left(A),
    /// The second future completed first.
    Right(B),
}

/// Race two futures: the first to complete wins and the loser is dropped
/// (cancelling any parked channel operation — the claim protocol makes
/// that safe). With a [`crate::executor::Sleep`] as one branch this is
/// Occam's `ALT` with a timeout guard.
pub async fn select2<A, B>(a: A, b: B) -> Either<A::Output, B::Output>
where
    A: Future + Unpin,
    B: Future + Unpin,
{
    Select2 {
        a: Some(a),
        b: Some(b),
    }
    .await
}

struct Select2<A, B> {
    a: Option<A>,
    b: Option<B>,
}

impl<A, B> Future for Select2<A, B>
where
    A: Future + Unpin,
    B: Future + Unpin,
{
    type Output = Either<A::Output, B::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if let Some(a) = this.a.as_mut() {
            if let Poll::Ready(v) = Pin::new(a).poll(cx) {
                this.a = None;
                this.b = None; // drop (cancel) the loser now
                return Poll::Ready(Either::Left(v));
            }
        }
        if let Some(b) = this.b.as_mut() {
            if let Poll::Ready(v) = Pin::new(b).poll(cx) {
                this.b = None;
                this.a = None;
                return Poll::Ready(Either::Right(v));
            }
        }
        Poll::Pending
    }
}

// ---------------------------------------------------------------------------
// Mailbox
// ---------------------------------------------------------------------------

/// Unbounded buffered queue. `send` never blocks; `recv` awaits a value.
pub struct Mailbox<T> {
    state: Rc<RefCell<MailboxState<T>>>,
}

struct MailboxState<T> {
    queue: VecDeque<T>,
    wakers: VecDeque<Waker>,
}

impl<T> Clone for Mailbox<T> {
    fn clone(&self) -> Self {
        Mailbox {
            state: self.state.clone(),
        }
    }
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Mailbox<T> {
    /// Create an empty mailbox.
    pub fn new() -> Self {
        Mailbox {
            state: Rc::new(RefCell::new(MailboxState {
                queue: VecDeque::new(),
                wakers: VecDeque::new(),
            })),
        }
    }

    /// Enqueue a value, waking one waiting receiver.
    pub fn send(&self, v: T) {
        let mut st = self.state.borrow_mut();
        st.queue.push_back(v);
        if let Some(w) = st.wakers.pop_front() {
            w.wake();
        }
    }

    /// Dequeue, suspending while empty.
    pub fn recv(&self) -> MailboxRecv<T> {
        MailboxRecv {
            state: self.state.clone(),
        }
    }

    /// Queued element count.
    pub fn len(&self) -> usize {
        self.state.borrow().queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain everything currently queued.
    pub fn drain(&self) -> Vec<T> {
        self.state.borrow_mut().queue.drain(..).collect()
    }
}

/// Future returned by [`Mailbox::recv`].
pub struct MailboxRecv<T> {
    state: Rc<RefCell<MailboxState<T>>>,
}

impl<T> Future for MailboxRecv<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        match st.queue.pop_front() {
            Some(v) => Poll::Ready(v),
            None => {
                st.wakers.push_back(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::Dur;

    #[test]
    fn oneshot_delivers() {
        let mut sim = Sim::new();
        let os = OneShot::new();
        let os2 = os.clone();
        let h = sim.handle();
        let jh = sim.spawn(async move { os2.recv().await });
        sim.spawn(async move {
            h.sleep(Dur::ns(10)).await;
            os.send(99u8);
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some(99));
    }

    #[test]
    fn rendezvous_sender_first() {
        let mut sim = Sim::new();
        let ch = Rendezvous::new();
        let (tx, rx) = (ch.clone(), ch);
        let h = sim.handle();
        let sent_at = Rc::new(Cell::new(0u64));
        let sa = sent_at.clone();
        let h2 = h.clone();
        sim.spawn(async move {
            tx.send(7u32).await; // blocks until receiver arrives at t=50
            sa.set(h2.now().as_ns());
        });
        let jh = sim.spawn(async move {
            h.sleep(Dur::ns(50)).await;
            rx.recv().await
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some(7));
        assert_eq!(sent_at.get(), 50); // sender resumed at the meeting time
    }

    #[test]
    fn rendezvous_receiver_first() {
        let mut sim = Sim::new();
        let ch = Rendezvous::new();
        let (tx, rx) = (ch.clone(), ch);
        let h = sim.handle();
        let jh = sim.spawn(async move { rx.recv().await });
        sim.spawn(async move {
            h.sleep(Dur::ns(30)).await;
            tx.send(13u32).await;
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some(13));
    }

    #[test]
    fn rendezvous_fifo_pairing() {
        let mut sim = Sim::new();
        let ch: Rendezvous<u32> = Rendezvous::new();
        for i in 0..4 {
            let tx = ch.clone();
            sim.spawn(async move { tx.send(i).await });
        }
        let rx = ch.clone();
        let jh = sim.spawn(async move {
            let mut out = Vec::new();
            for _ in 0..4 {
                out.push(rx.recv().await);
            }
            out
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some(vec![0, 1, 2, 3]));
    }

    #[test]
    fn a_completion_not_yet_polled_keeps_the_slot_and_pairing_stays_fifo() {
        // At t = 0, in spawn order: the first sender parks in the slot, a
        // receiver takes its value (the slot holds the completion until the
        // sender is polled again, after the second sender's first poll), and
        // the second sender queues behind. A later receiver gets the second
        // value, and nothing stays parked.
        let mut sim = Sim::new();
        let ch: Rendezvous<u32> = Rendezvous::new();
        for (v, receive) in [(1, false), (0, true), (2, false)] {
            let ch = ch.clone();
            sim.spawn(async move {
                if receive {
                    assert_eq!(ch.recv().await, 1);
                } else {
                    ch.send(v).await;
                }
            });
        }
        let (rx, h) = (ch.clone(), sim.handle());
        let jh = sim.spawn(async move {
            h.sleep(Dur::ns(5)).await;
            rx.recv().await
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some(2));
        assert!(!ch.sender_waiting() && ch.parked_receivers() == 0);
    }

    #[test]
    fn deadlock_is_reported() {
        let mut sim = Sim::new();
        let ch: Rendezvous<()> = Rendezvous::new();
        sim.spawn(async move {
            ch.recv().await; // no sender ever
        });
        let r = sim.run();
        assert!(!r.quiescent);
        assert_eq!(r.live_tasks, 1);
    }

    #[test]
    fn mailbox_buffers() {
        let mut sim = Sim::new();
        let mb = Mailbox::new();
        let mb2 = mb.clone();
        mb.send(1u8);
        mb.send(2u8);
        let jh = sim.spawn(async move {
            let a = mb2.recv().await;
            let b = mb2.recv().await;
            let c = mb2.recv().await;
            (a, b, c)
        });
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(Dur::ns(5)).await;
            mb.send(3u8);
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some((1, 2, 3)));
    }

    #[test]
    fn alt_takes_first_arrival() {
        let mut sim = Sim::new();
        let a: Rendezvous<u32> = Rendezvous::new();
        let b: Rendezvous<u32> = Rendezvous::new();
        let (a2, b2) = (a.clone(), b.clone());
        let h = sim.handle();
        let jh = sim.spawn(async move { Alt::new(vec![a2, b2]).recv().await });
        sim.spawn(async move {
            h.sleep(Dur::ns(20)).await;
            b.send(42).await;
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some((1, 42)));
        drop(a);
    }

    #[test]
    fn alt_priority_when_both_ready() {
        let mut sim = Sim::new();
        let a: Rendezvous<u32> = Rendezvous::new();
        let b: Rendezvous<u32> = Rendezvous::new();
        let (a2, b2) = (a.clone(), b.clone());
        let h = sim.handle();
        sim.spawn({
            let a = a.clone();
            async move { a.send(1).await }
        });
        sim.spawn({
            let b = b.clone();
            async move { b.send(2).await }
        });
        let jh = sim.spawn(async move {
            h.sleep(Dur::ns(10)).await; // let both senders park
            let mut set = Alt::new(vec![a2, b2]);
            let first = set.recv().await;
            let second = set.recv().await; // unblocks the loser too
            (first, second)
        });
        let r = sim.run();
        assert!(r.quiescent);
        // Lowest index wins the first ALT (PRI ALT); the loser stays blocked
        // until the second ALT takes it.
        assert_eq!(jh.try_take(), Some(((0, 1), (1, 2))));
    }

    #[test]
    fn alt_loser_sender_stays_blocked() {
        let mut sim = Sim::new();
        let a: Rendezvous<u32> = Rendezvous::new();
        let b: Rendezvous<u32> = Rendezvous::new();
        let (a2, b2) = (a.clone(), b.clone());
        sim.spawn({
            let a = a.clone();
            async move { a.send(10).await }
        });
        sim.spawn({
            let b = b.clone();
            async move { b.send(20).await }
        });
        let h = sim.handle();
        let jh = sim.spawn(async move {
            h.sleep(Dur::ns(1)).await;
            Alt::new(vec![a2, b2]).recv().await
        });
        let r = sim.run();
        assert_eq!(jh.try_take(), Some((0, 10)));
        // The sender on `b` must still be parked: exactly one branch fired.
        assert_eq!(r.live_tasks, 1);
        assert!(b.sender_waiting());
    }

    #[test]
    fn alt_registered_path_single_commit() {
        // ALT parks first (no sender ready), then two senders arrive at the
        // same instant: only one may commit.
        let mut sim = Sim::new();
        let a: Rendezvous<u32> = Rendezvous::new();
        let b: Rendezvous<u32> = Rendezvous::new();
        let (a2, b2) = (a.clone(), b.clone());
        let jh = sim.spawn(async move { Alt::new(vec![a2, b2]).recv().await });
        let h = sim.handle();
        sim.spawn({
            let a = a.clone();
            let h = h.clone();
            async move {
                h.sleep(Dur::ns(10)).await;
                a.send(1).await;
            }
        });
        sim.spawn({
            let b = b.clone();
            let h = h.clone();
            async move {
                h.sleep(Dur::ns(10)).await;
                b.send(2).await;
            }
        });
        let r = sim.run();
        // FIFO at the same instant: task order decides; channel `a`'s sender
        // runs first and wins. Channel `b`'s sender stays blocked.
        assert_eq!(jh.try_take(), Some((0, 1)));
        assert_eq!(r.live_tasks, 1);
        assert!(b.sender_waiting());
        assert!(!a.sender_waiting());
    }

    #[test]
    fn alt_rearms_its_own_cells_round_after_round() {
        // 1 000 rounds, every message on branch 1 of three. The set parks
        // one cell per branch once; idle branches never collect more, and
        // dropping the set takes even those out.
        let mut sim = Sim::new();
        let chans: Vec<Rendezvous<u32>> = (0..3).map(|_| Rendezvous::new()).collect();
        let (tx, idle_a, idle_b) = (chans[1].clone(), chans[0].clone(), chans[2].clone());
        let h = sim.handle();
        let jh = sim.spawn(async move {
            let mut set = Alt::new(chans);
            let mut sum = 0u64;
            for round in 0..1000u32 {
                let (branch, v) = set.recv().await;
                assert_eq!((branch, v), (1, round));
                sum += v as u64;
                assert!(idle_a.parked_receivers() <= 1 && idle_b.parked_receivers() <= 1);
            }
            drop(set);
            assert_eq!(idle_a.parked_receivers() + idle_b.parked_receivers(), 0);
            sum
        });
        sim.spawn(async move {
            for i in 0..1000u32 {
                // Alternate which side arrives first.
                if i % 2 == 0 {
                    h.sleep(Dur::ns(3)).await;
                }
                tx.send(i).await;
            }
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some(999 * 1000 / 2));
    }

    #[test]
    fn alt_between_rounds_takes_nothing_and_an_abandoned_round_is_cancelled() {
        let mut sim = Sim::new();
        let a: Rendezvous<u32> = Rendezvous::new();
        let b: Rendezvous<u32> = Rendezvous::new();
        let (a2, b2) = (a.clone(), b.clone());
        let h = sim.handle();
        let jh = sim.spawn(async move {
            let mut set = Alt::new(vec![a2, b2]);
            let first = set.recv().await;
            // Not armed: the sender on `b` (t = 20) must stay blocked even
            // though the set's cell is still queued there.
            h.sleep(Dur::ns(50)).await;
            // A round that times out is cancelled, not left armed.
            let timed_out = select2(set.recv(), h.sleep(Dur::ns(5))).await;
            let second = match timed_out {
                Either::Left(got) => got,
                Either::Right(()) => unreachable!("the parked sender wins at once"),
            };
            let third = select2(set.recv(), h.sleep(Dur::ns(5))).await;
            (
                first,
                second,
                matches!(third, Either::Right(())),
                h.now().as_ns(),
            )
        });
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(Dur::ns(10)).await;
            a.send(1).await;
            h.sleep(Dur::ns(10)).await;
            b.send(2).await; // t = 20: parks until the second round at 60
            assert_eq!(h.now().as_ns(), 60);
            h.sleep(Dur::ns(100)).await;
            // t = 160: the third round was abandoned at 65; nobody listens.
            assert!(matches!(
                select2(b.send(3), h.sleep(Dur::ns(5))).await,
                Either::Right(())
            ));
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some(((0, 1), (1, 2), true, 65)));
    }

    #[test]
    fn cancelled_recv_is_skipped_by_sender() {
        let mut sim = Sim::new();
        let ch: Rendezvous<u32> = Rendezvous::new();
        let rx = ch.clone();
        let h = sim.handle();
        let jh = sim.spawn(async move {
            {
                // Park a receive, then cancel it by dropping the future.
                let fut = rx.recv();
                futures_park_once(fut).await;
            }
            // Real receive afterwards.
            rx.recv().await
        });
        let tx = ch.clone();
        sim.spawn(async move {
            h.sleep(Dur::ns(100)).await;
            tx.send(5).await;
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some(5));
    }

    #[test]
    fn select_timeout_fires_when_channel_is_silent() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let ch: Rendezvous<u32> = Rendezvous::new();
        let rx = ch.clone();
        let jh = sim.spawn(async move {
            match select2(rx.recv(), h.sleep(Dur::us(50))).await {
                Either::Left(v) => Some(v),
                Either::Right(()) => None,
            }
        });
        let r = sim.run();
        assert!(r.quiescent);
        assert_eq!(jh.try_take(), Some(None));
        assert_eq!(sim.now().as_ns(), 50_000);
        drop(ch);
    }

    #[test]
    fn select_prefers_ready_channel_over_timeout() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let ch: Rendezvous<u32> = Rendezvous::new();
        let (tx, rx) = (ch.clone(), ch);
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(Dur::us(10)).await;
            tx.send(77).await;
        });
        let jh = sim.spawn(async move {
            match select2(rx.recv(), h.sleep(Dur::us(50))).await {
                Either::Left(v) => Some(v),
                Either::Right(()) => None,
            }
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some(Some(77)));
        assert_eq!(sim.now().as_ns(), 10_000);
    }

    #[test]
    fn select_cancels_the_losing_receive() {
        // After a timed-out receive, a later sender must pair with a fresh
        // receive, not the cancelled cell.
        let mut sim = Sim::new();
        let h = sim.handle();
        let ch: Rendezvous<u32> = Rendezvous::new();
        let (tx, rx) = (ch.clone(), ch);
        let h2 = h.clone();
        let jh = sim.spawn(async move {
            let first = select2(rx.recv(), h.sleep(Dur::us(5))).await;
            assert!(matches!(first, Either::Right(())));
            rx.recv().await
        });
        sim.spawn(async move {
            h2.sleep(Dur::us(20)).await;
            tx.send(5).await;
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some(5));
    }

    /// Poll a future exactly once, then drop it (helper to exercise
    /// cancellation paths).
    async fn futures_park_once<F: Future + Unpin>(mut f: F) {
        let mut once = false;
        std::future::poll_fn(move |cx| {
            if once {
                return Poll::Ready(());
            }
            once = true;
            let _ = Pin::new(&mut f).poll(cx);
            // Request an immediate re-poll so we complete without a timer.
            cx.waker().wake_by_ref();
            Poll::Pending
        })
        .await
    }
}
