//! The deterministic single-threaded async executor.
//!
//! Tasks are ordinary `'static` futures. The executor keeps a FIFO ready
//! queue and a timer queue that fires in `(instant, registration sequence)`
//! order; because only one task runs at a time and tasks advance virtual
//! time only through [`SimHandle::sleep`]-family primitives, execution order
//! is a pure function of the program — the foundation of the workspace's
//! determinism guarantee (see crate docs).
//!
//! ## Hot-loop design (see DESIGN.md §5f)
//!
//! The simulator is strictly single-threaded, so the ready queue is a plain
//! `Rc<RefCell<VecDeque>>` behind a hand-rolled [`RawWaker`] — no `Arc`, no
//! `Mutex`, no atomics on the per-event path. Task slots are recycled
//! through a free list with a generation tag per slot; a wake carries the
//! generation it was created under, and the executor drops wakes whose
//! generation no longer matches (exactly as harmless as the old
//! never-reuse-a-slot scheme, but the task table stays small at 4096-node
//! scale instead of growing by every spawned task).
//!
//! The machine is homogeneous — a thousand lockstep nodes sleep to the same
//! picosecond — so pending timers are kept **by instant** ([`TimerQueue`]):
//! a min-heap holds each distinct pending instant once, and each instant
//! owns its waker slots in registration order. Registering into an instant
//! that is already pending is a push, a lockstep batch costs one heap pop,
//! and the batch is still woken and fully serviced one entry at a time, so
//! the observable event order is bit-identical to a heap of
//! `(instant, seq)` entries popped singly. Debug and test builds keep that
//! heap beside the queue and assert the two agree on every entry.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::future::Future;
use std::hash::{BuildHasherDefault, Hasher};
use std::mem::ManuallyDrop;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::time::{Dur, Time};

type BoxFut = Pin<Box<dyn Future<Output = ()>>>;

/// Local FIFO of `(task id, generation)` pairs made runnable by wakers.
///
/// The simulation never leaves one thread, so this needs no lock. The std
/// `Waker` contract nominally demands `Send + Sync`; the vtable below is
/// sound only because every waker clone stays on the simulation thread —
/// an invariant the executor already relies on for its `Rc`-based handles.
type ReadyQueue = Rc<RefCell<VecDeque<(usize, u64)>>>;

struct TaskWakerData {
    id: usize,
    gen: u64,
    ready: ReadyQueue,
}

const VTABLE: RawWakerVTable =
    RawWakerVTable::new(waker_clone, waker_wake, waker_wake_by_ref, waker_drop);

fn raw_waker(data: Rc<TaskWakerData>) -> RawWaker {
    RawWaker::new(Rc::into_raw(data) as *const (), &VTABLE)
}

fn task_waker(data: Rc<TaskWakerData>) -> Waker {
    // SAFETY: the vtable upholds the RawWaker contract (clone bumps the Rc,
    // wake/drop consume it, wake_by_ref borrows it); single-threadedness is
    // the executor-wide invariant documented on `ReadyQueue`.
    unsafe { Waker::from_raw(raw_waker(data)) }
}

unsafe fn waker_clone(p: *const ()) -> RawWaker {
    let rc = ManuallyDrop::new(Rc::from_raw(p as *const TaskWakerData));
    raw_waker(Rc::clone(&rc))
}

unsafe fn waker_wake(p: *const ()) {
    let rc = Rc::from_raw(p as *const TaskWakerData);
    rc.ready.borrow_mut().push_back((rc.id, rc.gen));
}

unsafe fn waker_wake_by_ref(p: *const ()) {
    let rc = ManuallyDrop::new(Rc::from_raw(p as *const TaskWakerData));
    rc.ready.borrow_mut().push_back((rc.id, rc.gen));
}

unsafe fn waker_drop(p: *const ()) {
    drop(Rc::from_raw(p as *const TaskWakerData));
}

struct Task {
    fut: BoxFut,
    waker: Waker,
}

/// Hasher for [`Time`] keys: one multiply. The keys are simulated instants
/// (never outside input), and the default SipHash on every registration and
/// retirement costs a short-run workload (`service_live`) 4–6 % of its wall
/// time.
#[derive(Default)]
struct InstantHasher(u64);

impl Hasher for InstantHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("Time hashes as a single u64");
    }

    fn write_u64(&mut self, ps: u64) {
        self.0 = ps.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        // Instants are multiples of a cycle time, so their low bits repeat;
        // fold the product's well-mixed high half onto the table index bits.
        self.0 ^ (self.0 >> 32)
    }
}

/// End of a bucket's chain of waker slots.
const NIL: usize = usize::MAX;

/// The waker slots registered for one pending instant, as a chain through
/// [`TimerQueue::next`] in registration order.
#[derive(Clone, Copy)]
struct Bucket {
    first: usize,
    last: usize,
    len: usize,
}

/// Pending timers grouped by instant: a min-heap of the *distinct* pending
/// instants and, per instant, its waker slots in registration order — which
/// is sequence order, so entries leave in `(instant, seq)` order with no
/// sequence number stored. A waker slot is pending in at most one instant,
/// so the per-instant lists are chains through one slot-indexed array and a
/// lone far-future timer (a deadline guard that is cancelled a moment
/// later) costs no allocation of its own. Cancellation is the executor's
/// business (an emptied waker slot); the queue only orders entries.
#[derive(Default)]
struct TimerQueue {
    /// `(instant, bucket index)` for every pending instant, earliest first.
    instants: BinaryHeap<Reverse<(Time, usize)>>,
    /// Bucket index of every instant in `instants`.
    bucket_of: HashMap<Time, usize, BuildHasherDefault<InstantHasher>>,
    /// Buckets of the pending instants (never empty while pending); retired
    /// ones are reused through `free`.
    buckets: Vec<Bucket>,
    free: Vec<usize>,
    /// `next[slot]`: the slot registered after `slot` for the same instant.
    next: Vec<usize>,
    /// Entries over all pending instants.
    len: usize,
    /// The reference order: one `(instant, seq, slot)` entry per timer.
    #[cfg(any(test, debug_assertions))]
    shadow: BinaryHeap<Reverse<(Time, u64, usize)>>,
    #[cfg(any(test, debug_assertions))]
    seq: u64,
}

impl TimerQueue {
    fn push(&mut self, at: Time, slot: usize) {
        if self.next.len() <= slot {
            self.next.resize(slot + 1, NIL);
        }
        self.next[slot] = NIL;
        match self.bucket_of.entry(at) {
            Entry::Occupied(e) => {
                let bucket = &mut self.buckets[*e.get()];
                self.next[bucket.last] = slot;
                bucket.last = slot;
                bucket.len += 1;
            }
            Entry::Vacant(e) => {
                let only = Bucket {
                    first: slot,
                    last: slot,
                    len: 1,
                };
                let bucket = match self.free.pop() {
                    Some(b) => {
                        self.buckets[b] = only;
                        b
                    }
                    None => {
                        self.buckets.push(only);
                        self.buckets.len() - 1
                    }
                };
                self.instants.push(Reverse((at, bucket)));
                e.insert(bucket);
            }
        }
        self.len += 1;
        #[cfg(any(test, debug_assertions))]
        {
            self.seq += 1;
            self.shadow.push(Reverse((at, self.seq, slot)));
            assert_eq!(self.len, self.shadow.len());
        }
    }

    /// The earliest entry: its instant and waker slot.
    fn front(&self) -> Option<(Time, usize)> {
        let &Reverse((at, bucket)) = self.instants.peek()?;
        Some((at, self.buckets[bucket].first))
    }

    /// Discard the entry [`TimerQueue::front`] returned.
    fn pop_front(&mut self) {
        let &Reverse((_at, b)) = self.instants.peek().expect("pop_front on an empty queue");
        let bucket = &mut self.buckets[b];
        #[cfg(any(test, debug_assertions))]
        {
            let Reverse((at, _, slot)) = self.shadow.pop().expect("reference heap ran dry");
            assert_eq!((_at, bucket.first), (at, slot), "front entry out of order");
        }
        bucket.first = self.next[bucket.first];
        bucket.len -= 1;
        self.len -= 1;
        if bucket.len == 0 {
            self.retire_front();
        }
    }

    /// Retire the earliest instant and hand over its entries: returns the
    /// first waker slot of the chain, the rest follow by [`TimerQueue::after`]
    /// (valid until the slot is registered again).
    fn take_front(&mut self) -> usize {
        let &Reverse((_at, b)) = self.instants.peek().expect("take_front on an empty queue");
        let bucket = self.buckets[b];
        self.len -= bucket.len;
        #[cfg(any(test, debug_assertions))]
        {
            let mut slot = Some(bucket.first);
            for _ in 0..bucket.len {
                let Reverse((at, _, s)) = self.shadow.pop().expect("reference heap ran dry");
                assert_eq!((_at, slot), (at, Some(s)), "batch entry out of order");
                slot = self.after(s);
            }
            let next = self.shadow.peek().map(|&Reverse((at, ..))| at);
            assert!(
                slot.is_none() && next != Some(_at),
                "batch and instant differ"
            );
            assert_eq!(self.len, self.shadow.len());
        }
        self.retire_front();
        bucket.first
    }

    /// The entry registered after `slot` for the same instant.
    fn after(&self, slot: usize) -> Option<usize> {
        Some(self.next[slot]).filter(|&next| next != NIL)
    }

    fn retire_front(&mut self) {
        let Reverse((at, bucket)) = self.instants.pop().expect("no instant to retire");
        self.bucket_of.remove(&at);
        self.free.push(bucket);
    }
}

struct Inner {
    now: Time,
    tasks: Vec<Option<Task>>,
    /// Generation per task slot: a wake is honoured only while its
    /// generation matches, so recycled slots never see stale wakes.
    task_gens: Vec<u64>,
    task_free: Vec<usize>,
    live: usize,
    timers: TimerQueue,
    /// Waker per timer slot; `None` once fired or cancelled.
    timer_wakers: Vec<Option<Waker>>,
    /// Generation per slot: guards cancellation against slot reuse.
    timer_gens: Vec<u64>,
    timer_free: Vec<usize>,
    ready: ReadyQueue,
    events: u64,
    /// Profiling: task polls (wakes serviced), tasks ever spawned, and the
    /// high-water mark of the timer heap. Cheap enough to keep always-on.
    polls: u64,
    spawned: u64,
    max_timers: usize,
}

impl Inner {
    fn register_timer(&mut self, at: Time, waker: Waker) -> (usize, u64) {
        let slot = match self.timer_free.pop() {
            Some(s) => {
                self.timer_wakers[s] = Some(waker);
                self.timer_gens[s] += 1;
                s
            }
            None => {
                self.timer_wakers.push(Some(waker));
                self.timer_gens.push(0);
                self.timer_wakers.len() - 1
            }
        };
        self.timers.push(at, slot);
        self.max_timers = self.max_timers.max(self.timers.len);
        (slot, self.timer_gens[slot])
    }

    /// The instant of the earliest *live* timer. Cancelled entries ahead of
    /// it are discarded on the way without touching the clock, so an instant
    /// whose timers were all cancelled is never proposed or advanced to.
    fn next_live_timer(&mut self) -> Option<Time> {
        while let Some((at, slot)) = self.timers.front() {
            if self.timer_wakers[slot].is_some() {
                return Some(at);
            }
            self.timers.pop_front();
            self.timer_free.push(slot);
        }
        None
    }
}

/// Outcome of a [`Sim::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunReport {
    /// True when every spawned task ran to completion.
    pub quiescent: bool,
    /// Number of tasks still alive (blocked on a channel with no partner,
    /// i.e. deadlocked, or stopped by a bounded run).
    pub live_tasks: usize,
    /// Virtual time when the run stopped.
    pub final_time: Time,
    /// Timer events processed.
    pub events: u64,
}

/// Always-on executor profile counters, read via [`Sim::profile`].
///
/// These are the scheduler-level "quantum/wake" hooks the telemetry layer
/// reports: how many wakes were serviced, how many timer events fired, how
/// many tasks ever existed and how deep the timer heap got. Useful for
/// spotting busy-wait storms (polls ≫ events) or runaway spawning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecProfile {
    /// Task polls serviced (each wake that reached a future's `poll`).
    pub polls: u64,
    /// Timer events fired.
    pub timer_events: u64,
    /// Tasks spawned over the executor's lifetime.
    pub spawned: u64,
    /// High-water mark of pending timer entries (cancelled ones count until
    /// the queue reaches them).
    pub max_timers: usize,
}

/// The discrete-event simulator: owns tasks, the clock and the timer queue.
pub struct Sim {
    inner: Rc<RefCell<Inner>>,
    /// Direct handle on the ready queue so the run loop's pops skip the
    /// `Inner` borrow entirely.
    ready: ReadyQueue,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation at `T+0`.
    pub fn new() -> Sim {
        let ready: ReadyQueue = Rc::new(RefCell::new(VecDeque::new()));
        Sim {
            inner: Rc::new(RefCell::new(Inner {
                now: Time::ZERO,
                tasks: Vec::new(),
                task_gens: Vec::new(),
                task_free: Vec::new(),
                live: 0,
                timers: TimerQueue::default(),
                timer_wakers: Vec::new(),
                timer_gens: Vec::new(),
                timer_free: Vec::new(),
                ready: ready.clone(),
                events: 0,
                polls: 0,
                spawned: 0,
                max_timers: 0,
            })),
            ready,
        }
    }

    /// A cloneable handle for use inside tasks: clock reads, sleeps, spawns.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            inner: self.inner.clone(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.inner.borrow().now
    }

    /// Scheduler profile counters accumulated since construction.
    pub fn profile(&self) -> ExecProfile {
        let inner = self.inner.borrow();
        ExecProfile {
            polls: inner.polls,
            timer_events: inner.events,
            spawned: inner.spawned,
            max_timers: inner.max_timers,
        }
    }

    /// Spawn a root task. Returns a [`JoinHandle`] that resolves to the
    /// task's output.
    pub fn spawn<T: 'static>(&mut self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        self.handle().spawn(fut)
    }

    /// Run until no events remain (or a deadlock leaves only blocked tasks).
    pub fn run(&mut self) -> RunReport {
        self.run_bounded(None)
    }

    /// Run, but do not advance the clock past `deadline`. Timers later than
    /// the deadline stay queued; the clock is left at `deadline` if reached.
    pub fn run_until(&mut self, deadline: Time) -> RunReport {
        self.run_bounded(Some(deadline))
    }

    /// Run for `d` more virtual time (see [`Sim::run_until`]).
    pub fn run_for(&mut self, d: Dur) -> RunReport {
        let deadline = self.now() + d;
        self.run_until(deadline)
    }

    /// The instant of the next pending event, if any: `now` when a task is
    /// already runnable, otherwise the expiry of the earliest live timer.
    /// Cancelled timer entries are discarded on the way (the same sweep the
    /// run loop performs), so the answer is exact, not an upper bound.
    ///
    /// This is the per-shard clock proposal of the parallel backend: the
    /// global lockstep instant is the minimum of every shard's value.
    pub fn next_event_time(&self) -> Option<Time> {
        if !self.ready.borrow().is_empty() {
            return Some(self.now());
        }
        self.inner.borrow_mut().next_live_timer()
    }

    /// Move the clock forward to `at` without running anything (no-op if the
    /// clock is already there or past). Used by the parallel backend to keep
    /// idle shards in lockstep with the global instant: `run_until` alone
    /// leaves the clock untouched when no timer is pending.
    pub fn advance_to(&mut self, at: Time) {
        let mut inner = self.inner.borrow_mut();
        inner.now = inner.now.max(at);
    }

    /// Number of tasks that have been spawned but have not completed.
    pub fn live_tasks(&self) -> usize {
        self.inner.borrow().live
    }

    /// Poll every runnable task, in wake order, until the queue is empty.
    fn drain_ready(&mut self) {
        loop {
            let next = self.ready.borrow_mut().pop_front();
            match next {
                Some((tid, gen)) => self.poll_task(tid, gen),
                None => break,
            }
        }
    }

    fn run_bounded(&mut self, deadline: Option<Time>) -> RunReport {
        loop {
            // Drain every runnable task before touching the clock.
            self.drain_ready();
            // Advance to the next *live* timer expiry and take the whole
            // instant's entries in one heap pop.
            let mut due = {
                let mut inner = self.inner.borrow_mut();
                let Some(at) = inner.next_live_timer() else {
                    break;
                };
                if let Some(dl) = deadline.filter(|&dl| at > dl) {
                    inner.now = dl.max(inner.now);
                    break;
                }
                debug_assert!(at >= inner.now, "timer in the past");
                inner.now = at;
                Some(inner.timers.take_front())
            };
            // Wakers are taken one by one at process time, so a wake early
            // in the batch can still cancel a later timer at the same
            // instant — exactly as if each entry were popped individually.
            while let Some(slot) = due {
                let fired = {
                    let mut inner = self.inner.borrow_mut();
                    // Read the link before the slot is free to be reused.
                    due = inner.timers.after(slot);
                    inner.timer_free.push(slot);
                    let w = inner.timer_wakers[slot].take();
                    if w.is_some() {
                        inner.events += 1;
                    }
                    w
                };
                if let Some(w) = fired {
                    w.wake();
                    self.drain_ready();
                }
            }
        }
        let inner = self.inner.borrow();
        RunReport {
            quiescent: inner.live == 0,
            live_tasks: inner.live,
            final_time: inner.now,
            events: inner.events,
        }
    }

    fn poll_task(&mut self, tid: usize, gen: u64) {
        let taken = {
            let mut inner = self.inner.borrow_mut();
            if inner.task_gens.get(tid).copied() != Some(gen) {
                None // stale wake of a completed (possibly recycled) slot
            } else {
                inner.tasks[tid].take()
            }
        };
        let Some(mut task) = taken else {
            return; // already finished, or a duplicate wake mid-drain
        };
        self.inner.borrow_mut().polls += 1;
        let Task { fut, waker } = &mut task;
        let mut cx = Context::from_waker(waker);
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                let mut inner = self.inner.borrow_mut();
                inner.live -= 1;
                // Retire the generation so in-flight wakes die, then recycle
                // the slot: task identity is (id, gen), not id alone.
                inner.task_gens[tid] += 1;
                inner.task_free.push(tid);
            }
            Poll::Pending => {
                self.inner.borrow_mut().tasks[tid] = Some(task);
            }
        }
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Tasks may capture SimHandle (an Rc to Inner); clearing them breaks
        // the reference cycle so deadlocked simulations do not leak. Move
        // them out before dropping: task destructors (e.g. a pending
        // `Sleep` cancelling its timer) re-borrow `inner`, which would
        // panic if the borrow were still held across the drop.
        let tasks = {
            let mut inner = self.inner.borrow_mut();
            std::mem::take(&mut inner.tasks)
        };
        drop(tasks);
    }
}

/// Cloneable capability to interact with the simulation from inside tasks.
#[derive(Clone)]
pub struct SimHandle {
    inner: Rc<RefCell<Inner>>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.inner.borrow().now
    }

    /// Suspend the calling task for `d` of virtual time.
    pub fn sleep(&self, d: Dur) -> Sleep {
        let at = self.now() + d;
        self.sleep_until(at)
    }

    /// Suspend the calling task until the clock reaches `at`.
    pub fn sleep_until(&self, at: Time) -> Sleep {
        Sleep {
            inner: self.inner.clone(),
            at,
            reg: None,
            done: false,
        }
    }

    /// Spawn a new task; it becomes runnable immediately (at the current
    /// instant, after already-runnable tasks).
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        let state = Rc::new(RefCell::new(JoinState {
            result: None,
            waker: None,
        }));
        let state2 = state.clone();
        let wrapped: BoxFut = Box::pin(async move {
            let out = fut.await;
            let mut st = state2.borrow_mut();
            st.result = Some(out);
            if let Some(w) = st.waker.take() {
                w.wake();
            }
        });
        let mut inner = self.inner.borrow_mut();
        let tid = match inner.task_free.pop() {
            Some(t) => t,
            None => {
                inner.tasks.push(None);
                inner.task_gens.push(0);
                inner.tasks.len() - 1
            }
        };
        let gen = inner.task_gens[tid];
        let waker = task_waker(Rc::new(TaskWakerData {
            id: tid,
            gen,
            ready: inner.ready.clone(),
        }));
        inner.tasks[tid] = Some(Task {
            fut: wrapped,
            waker,
        });
        inner.live += 1;
        inner.spawned += 1;
        inner.ready.borrow_mut().push_back((tid, gen));
        JoinHandle { state }
    }
}

/// Future returned by [`SimHandle::sleep`] / [`SimHandle::sleep_until`].
///
/// Dropping an unexpired `Sleep` **cancels** its timer: the clock will not
/// advance to the abandoned instant (this is what makes `select2`-style
/// timeouts exact).
pub struct Sleep {
    inner: Rc<RefCell<Inner>>,
    at: Time,
    reg: Option<(usize, u64)>,
    done: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut inner = self.inner.borrow_mut();
        if inner.now >= self.at {
            drop(inner);
            self.done = true;
            return Poll::Ready(());
        }
        if self.reg.is_none() {
            let at = self.at;
            let reg = inner.register_timer(at, cx.waker().clone());
            drop(inner);
            self.reg = Some(reg);
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        if let Some((slot, gen)) = self.reg {
            let mut inner = self.inner.borrow_mut();
            // Only cancel if the slot still belongs to this registration.
            if inner.timer_gens[slot] == gen {
                inner.timer_wakers[slot] = None;
            }
        }
    }
}

struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
}

/// Awaitable completion of a spawned task.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// True once the task has finished.
    pub fn is_finished(&self) -> bool {
        self.state.borrow().result.is_some()
    }

    /// Take the result if the task has finished (useful after `Sim::run`).
    pub fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        match st.result.take() {
            Some(v) => Poll::Ready(v),
            None => {
                st.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sim_quiesces() {
        let mut sim = Sim::new();
        let r = sim.run();
        assert!(r.quiescent);
        assert_eq!(r.final_time, Time::ZERO);
    }

    #[test]
    fn sleep_advances_clock() {
        let mut sim = Sim::new();
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(Dur::ns(100)).await;
            assert_eq!(h.now().as_ns(), 100);
            h.sleep(Dur::ns(25)).await;
            assert_eq!(h.now().as_ns(), 125);
        });
        let r = sim.run();
        assert!(r.quiescent);
        assert_eq!(sim.now().as_ns(), 125);
    }

    #[test]
    fn tasks_interleave_in_time_order() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (i, delay) in [30u64, 10, 20].into_iter().enumerate() {
            let h = sim.handle();
            let log = log.clone();
            sim.spawn(async move {
                h.sleep(Dur::ns(delay)).await;
                log.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 0]);
    }

    #[test]
    fn same_instant_fifo_order() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let h = sim.handle();
            let log = log.clone();
            sim.spawn(async move {
                h.sleep(Dur::ns(50)).await;
                log.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn join_handle_returns_value() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let jh = sim.spawn(async move {
            h.sleep(Dur::us(1)).await;
            42u32
        });
        let h2 = sim.handle();
        let outer = sim.spawn(async move {
            let inner = h2.spawn(async { 7u32 });
            inner.await
        });
        sim.run();
        assert_eq!(jh.try_take(), Some(42));
        assert_eq!(outer.try_take(), Some(7));
    }

    #[test]
    fn run_until_bounds_clock() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let done = Rc::new(RefCell::new(false));
        let d2 = done.clone();
        sim.spawn(async move {
            h.sleep(Dur::us(10)).await;
            *d2.borrow_mut() = true;
        });
        let r = sim.run_until(Time::ZERO + Dur::us(3));
        assert!(!r.quiescent);
        assert_eq!(r.live_tasks, 1);
        assert_eq!(sim.now(), Time::ZERO + Dur::us(3));
        assert!(!*done.borrow());
        let r2 = sim.run();
        assert!(r2.quiescent);
        assert!(*done.borrow());
        assert_eq!(sim.now(), Time::ZERO + Dur::us(10));
    }

    #[test]
    fn spawn_from_task() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let jh = sim.spawn(async move {
            let mut total = 0u64;
            let mut handles = Vec::new();
            for i in 0..4 {
                let h2 = h.clone();
                handles.push(h.spawn(async move {
                    h2.sleep(Dur::ns(i * 10)).await;
                    i
                }));
            }
            for jh in handles {
                total += jh.await;
            }
            total
        });
        sim.run();
        assert_eq!(jh.try_take(), Some(6));
    }

    #[test]
    fn determinism_identical_runs() {
        fn run_once() -> (Time, u64, Vec<u32>) {
            let mut sim = Sim::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..8u32 {
                let h = sim.handle();
                let log = log.clone();
                sim.spawn(async move {
                    for k in 0..5u64 {
                        h.sleep(Dur::ns((i as u64 * 7 + k * 13) % 29 + 1)).await;
                        log.borrow_mut().push(i * 100 + k as u32);
                    }
                });
            }
            let r = sim.run();
            let l = log.borrow().clone();
            (r.final_time, r.events, l)
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn task_slots_are_recycled() {
        let mut sim = Sim::new();
        let h = sim.handle();
        sim.spawn(async move {
            // Waves of short-lived tasks: the table must stay near the
            // high-water mark of concurrently-live tasks, not grow by the
            // total spawn count.
            for _ in 0..100u32 {
                let mut hs = Vec::new();
                for i in 0..4u64 {
                    let h2 = h.clone();
                    hs.push(h.spawn(async move {
                        h2.sleep(Dur::ns(i + 1)).await;
                    }));
                }
                for jh in hs {
                    jh.await;
                }
            }
        });
        let r = sim.run();
        assert!(r.quiescent);
        let p = sim.profile();
        assert_eq!(p.spawned, 401);
        assert!(
            sim.inner.borrow().tasks.len() <= 8,
            "task table grew to {} slots for 401 spawns",
            sim.inner.borrow().tasks.len()
        );
    }

    #[test]
    fn next_event_time_and_advance_to() {
        let mut sim = Sim::new();
        assert_eq!(sim.next_event_time(), None);
        let h = sim.handle();
        sim.spawn(async move {
            h.sleep(Dur::us(5)).await;
        });
        // A freshly spawned task is runnable now.
        assert_eq!(sim.next_event_time(), Some(Time::ZERO));
        sim.run_until(Time::ZERO + Dur::us(1));
        // Parked on its timer: the proposal is the timer expiry.
        assert_eq!(sim.next_event_time(), Some(Time::ZERO + Dur::us(5)));
        assert_eq!(sim.live_tasks(), 1);
        // A cancelled timer must not be proposed.
        let h2 = sim.handle();
        let early = h2.sleep(Dur::us(1));
        drop(early);
        assert_eq!(sim.next_event_time(), Some(Time::ZERO + Dur::us(5)));
        sim.run();
        assert_eq!(sim.next_event_time(), None);
        assert_eq!(sim.live_tasks(), 0);
        // advance_to moves an idle clock but never backwards.
        sim.advance_to(Time::ZERO + Dur::us(9));
        assert_eq!(sim.now(), Time::ZERO + Dur::us(9));
        sim.advance_to(Time::ZERO + Dur::us(7));
        assert_eq!(sim.now(), Time::ZERO + Dur::us(9));
    }

    /// Register `s`'s timer (one poll) without waiting for it.
    async fn park_once(s: &mut Sleep) {
        std::future::poll_fn(|cx| {
            let _ = Pin::new(&mut *s).poll(cx);
            Poll::Ready(())
        })
        .await
    }

    #[test]
    fn an_instant_whose_timers_were_all_cancelled_does_not_advance_the_clock() {
        let mut sim = Sim::new();
        let h = sim.handle();
        sim.spawn(async move {
            // Three timers at 5 µs, all abandoned; one live one at 10 µs.
            for _ in 0..3 {
                let mut s = h.sleep(Dur::us(5));
                park_once(&mut s).await;
            }
            h.sleep(Dur::us(10)).await;
        });
        // A deadline between the dead instant and the live one stops the
        // clock on the deadline, with nothing fired.
        let r = sim.run_until(Time::ZERO + Dur::us(7));
        assert_eq!((r.final_time, r.events), (Time::ZERO + Dur::us(7), 0));
        assert_eq!(sim.next_event_time(), Some(Time::ZERO + Dur::us(10)));
        let r = sim.run();
        assert_eq!((r.final_time, r.events), (Time::ZERO + Dur::us(10), 1));
        assert_eq!(sim.profile().max_timers, 4);

        // Nothing but cancelled timers: the clock never moves.
        let mut sim = Sim::new();
        let h = sim.handle();
        sim.spawn(async move {
            let mut s = h.sleep(Dur::us(5));
            park_once(&mut s).await;
        });
        let r = sim.run();
        assert!(r.quiescent);
        assert_eq!((r.final_time, r.events), (Time::ZERO, 0));
        assert_eq!(sim.next_event_time(), None);
    }

    #[test]
    fn timer_queue_drains_in_instant_then_registration_order() {
        // Seeded pushes (few distinct instants, so buckets fill), front
        // trims and whole-instant batches. Under `cfg(test)` the queue
        // checks every entry that leaves against its reference heap; here
        // the drained sequence is checked against a sort as well.
        let mut rng = crate::Rng::new(0x7153_0001);
        for _ in 0..64 {
            let mut q = TimerQueue::default();
            let mut pushed = Vec::new();
            let mut drained = Vec::new();
            let mut floor = 0u64;
            let take = |q: &mut TimerQueue, drained: &mut Vec<(Time, usize)>| {
                let (at, _) = q.front().expect("something pending");
                let mut slot = Some(q.take_front());
                while let Some(s) = slot {
                    drained.push((at, s));
                    slot = q.after(s);
                }
                at
            };
            for slot in 0..rng.range(1, 200) {
                let at = Time::ZERO + Dur::ns(floor + rng.below(6));
                q.push(at, slot);
                pushed.push((at, slot));
                match rng.below(8) {
                    0 => {
                        let front = q.front().expect("just pushed");
                        q.pop_front();
                        drained.push(front);
                    }
                    1 => {
                        // Like the executor's clock: nothing earlier than a
                        // fired instant is registered afterwards.
                        floor = take(&mut q, &mut drained).as_ns() + 1;
                    }
                    _ => {}
                }
                assert_eq!(q.len, pushed.len() - drained.len());
            }
            while q.front().is_some() {
                take(&mut q, &mut drained);
            }
            assert_eq!(q.len, 0);
            assert!(q.bucket_of.is_empty() && q.free.len() == q.buckets.len());
            // Each drain step took the minimum of what was pending, so with
            // pushes never undercutting a fired instant every entry leaves
            // once and, per instant, in push order.
            let mut want = pushed.clone();
            want.sort();
            let mut got = drained.clone();
            got.sort();
            assert_eq!(got, want);
            for w in drained.windows(2) {
                assert!(
                    w[0].0 != w[1].0 || w[0].1 < w[1].1,
                    "same-instant entries left out of registration order: {w:?}"
                );
            }
        }
    }

    #[test]
    fn stale_wakes_of_recycled_slots_are_dropped() {
        // A waker outliving its task (parked in a OneShot-style cell) must
        // not poll the unrelated task that later reuses the slot.
        let mut sim = Sim::new();
        let h = sim.handle();
        let parked: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
        let p2 = parked.clone();
        let jh = sim.spawn(async move {
            // Park our waker, then finish immediately.
            std::future::poll_fn(move |cx| {
                if p2.borrow().is_none() {
                    *p2.borrow_mut() = Some(cx.waker().clone());
                    cx.waker().wake_by_ref(); // self-wake so we resume
                    return Poll::Pending;
                }
                Poll::Ready(())
            })
            .await;
        });
        sim.run();
        assert!(jh.is_finished());
        // Slot 0 is now free; spawn a replacement that parks forever.
        let h2 = h.clone();
        let jh2 = h.spawn(async move {
            h2.sleep(Dur::ms(1000)).await;
        });
        // Let the replacement run to its sleep first, then fire the stale
        // waker: it must be ignored, not poll the new task.
        sim.run_until(Time::ZERO + Dur::ns(1));
        let polls_before = sim.profile().polls;
        parked.borrow_mut().take().unwrap().wake();
        let r = sim.run_until(Time::ZERO + Dur::us(1));
        assert_eq!(
            sim.profile().polls,
            polls_before,
            "stale wake reached a recycled slot"
        );
        assert_eq!(r.live_tasks, 1);
        assert!(!jh2.is_finished());
    }
}
