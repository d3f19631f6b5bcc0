//! The admission policy, defined once: who waits in what order, who ages,
//! what a blocked head reserves and who may start behind it. Its two drivers
//! ([`crate::Scheduler::run_batch`] on a live machine,
//! [`crate::ServiceScheduler::run`] on a timer clock) only tell it what
//! arrived, what ended and what time it is.
//!
//! 1. **Order.** Effective priority descending (class priority plus aging
//!    boost), then earliest absolute deadline (EDF among equals;
//!    best-effort jobs last), then id.
//! 2. **Aging.** A waiting job gains one level per aging period, up to a
//!    cap, so urgent arrivals cannot starve batch work; a wait's boost ends
//!    with it. A best-effort job's first wait ages by the clock alone, so it
//!    waits in its priority's [`Lane`], in arrival order, and is never
//!    re-keyed: the lane's cursors count its levels. Every other wait is
//!    filed under its key and re-filed on each promotion.
//! 3. **Heads.** The head of the queue starts while it fits, then the
//!    next head, on any free block — a reservation holds nothing back
//!    from a head. A head that started ahead of an earlier-submitted job
//!    of its own level is one EDF reorder. [`Policy::Fcfs`] stops at the
//!    first head that does not fit.
//! 4. **Reservation.** Once the blocked head has waited out the front
//!    door's grace it reserves the aligned block of its size with the most
//!    free nodes, kept while the same head waits (the block only drains)
//!    and re-sited if a condemned node poisons it.
//! 5. **Backfill.** The next [`BACKFILL_SCAN`] jobs behind the blocked
//!    head may start outside the reservation. Nothing is released during
//!    a pass, so a width that failed fails for every wider job
//!    ([`BuddyAllocator::alloc_outside`] is monotone) and costs a compare.
//!    A failure stays one until something is released, so `place` keeps
//!    what its last walk proved ([`Walked`]) and skips the next walk until
//!    a release, another reservation or a job that might fit moving into
//!    the walked window could change the answer.
//!
//! The grace is the one thing a front door chooses. The open-stream
//! service reserves at once: a stream never drains on its own, and a 1 ms
//! grace there doubles `service_queue`'s p99 wait (32.6 → 63.9 ms). A
//! closed batch waits [`RESERVE_AFTER`]: with none, a head that needs the
//! whole machine fences every block and backfill degenerates to FCFS
//! (`backfill_beats_fcfs_on_a_mixed_width_batch`: 15.95 ms both ways).

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::ops::Bound::{self, Excluded, Included, Unbounded};
use std::ops::ControlFlow;

use ts_cube::{NodeId, Subcube};
use ts_sim::{Dur, Time};

use crate::BuddyAllocator;

/// Queue discipline for jobs that are waiting for a subcube.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Strict arrival order (within descending priority): the head job
    /// blocks everything behind it until its subcube is free.
    Fcfs,
    /// Arrival order, but when the head job cannot be placed, later jobs
    /// that *do* fit start immediately on the leftover subcubes.
    FcfsBackfill,
}

/// Queued jobs examined per backfill pass behind a blocked head.
const BACKFILL_SCAN: usize = 64;

/// The reservation grace of a closed batch ([`crate::Scheduler::run_batch`]).
pub(crate) const RESERVE_AFTER: Dur = Dur::ms(1);

/// [`Waiter::deadline`] of a best-effort job.
const NO_DEADLINE: u64 = u64::MAX;

/// Base priorities that keep a [`Lane`]; a best-effort job of any other
/// waits keyed.
const LANES: usize = 4;

/// The largest aging cap lanes serve: a lane keeps one cursor per level,
/// and a larger cap leaves every job keyed.
const LANE_MAX_BOOST: u32 = 16;

/// A waiting job's place in the queue: effective priority descending, then
/// absolute deadline, then id.
type Key = (Reverse<u32>, u64, usize);

/// A key behind every job's: a window that reaches it covers the queue.
const QUEUE_END: Key = (Reverse(0), u64::MAX, usize::MAX);

/// What the queue knows of one job.
#[derive(Clone, Copy, Default)]
struct Waiter {
    /// Class priority, before any aging boost.
    priority: u32,
    /// Absolute deadline in ps on the driver's clock; [`NO_DEADLINE`] for
    /// none.
    deadline: u64,
    /// Subcube dimension asked for.
    dim: u32,
    /// Start of the current (or last) wait.
    since: Time,
    /// Aging levels earned in the current wait; a lane job's is its lane's
    /// to count, and is copied here when it leaves.
    boost: u32,
    queued: bool,
    /// The lane the job waits in, if it does.
    lane: Option<u8>,
}

impl Waiter {
    /// Effective priority: the level the job waits in.
    fn level(&self) -> u32 {
        self.priority.saturating_add(self.boost)
    }

    /// Job `id`'s place in the queue.
    fn key(&self, id: usize) -> Key {
        (Reverse(self.level()), self.deadline, id)
    }

    /// When the next aging step falls due: `boost + 1` periods into the wait.
    fn next_step(&self, period: Dur) -> Time {
        self.since + period * (self.boost as u64 + 1)
    }
}

/// Aging levels a wait from `since` has earned by `now`.
fn earned(since: Time, now: Time, period: Dur, max_boost: u32) -> u32 {
    (now.since(since).as_ps() / period.as_ps()).min(max_boost as u64) as u32
}

/// One job of a [`Lane`].
#[derive(Clone, Copy)]
struct Slot {
    since: Time,
    id: usize,
    /// The width it asks for, here so that a walk reads no job record.
    dim: u32,
}

/// The first waits of one base priority's best-effort jobs, in arrival
/// order, which is also their id order. Such a job's level is a function
/// of the clock, `priority + min((now − since) / period, max boost)`, so
/// along the lane levels fall while ids rise: its keys are sorted, and a
/// promotion moves no job.
struct Lane {
    priority: u32,
    period: Dur,
    slots: VecDeque<Slot>,
    /// `cursors[k − 1]`, cursor k: the index of the first job that had not
    /// waited k periods at the last aging (or the end). Each job a cursor
    /// passes is one promotion, so a job's boost is the number of cursors
    /// past it, and the cursors never increase with k.
    cursors: Vec<usize>,
    /// When the next cursor passes a job: the soonest of each cursor's job
    /// reaching its cursor's wait.
    due: Option<Time>,
}

impl Lane {
    fn new(priority: u32, (period, max_boost): (Dur, u32)) -> Lane {
        Lane {
            priority,
            period,
            slots: VecDeque::new(),
            cursors: vec![0; max_boost as usize],
            due: None,
        }
    }

    /// Recompute [`Lane::due`]: a cursor, or the job under one, changed.
    fn rearm(&mut self) {
        let due = |(k, &i): (usize, &usize)| {
            let slot = self.slots.get(i)?;
            Some(slot.since + self.period * (k as u64 + 1))
        };
        self.due = self.cursors.iter().enumerate().filter_map(due).min();
    }

    /// A job joins at the tail.
    fn push(&mut self, slot: Slot) {
        let i = self.slots.len();
        self.slots.push_back(slot);
        if self.cursors.contains(&i) {
            self.rearm();
        }
    }

    /// Whether a first wait of job `id` from `since` keeps the lane in
    /// arrival and id order.
    fn admits(&self, id: usize, since: Time) -> bool {
        self.slots
            .back()
            .is_none_or(|tail| id >= tail.id && since >= tail.since)
    }

    /// Levels earned by the job at index `i`: one per cursor past it.
    fn boost_at(&self, i: usize) -> u32 {
        self.cursors.iter().filter(|&&c| c > i).count() as u32
    }

    /// The key of the job at index `i`; it rises along the lane.
    fn key_at(&self, i: usize) -> Key {
        let (key, _) = self.job((i, self.boost_at(i))).expect("a job at i");
        key
    }

    /// The key and width of the job at `(index, its boost)`, if any.
    fn job(&self, (i, boost): (usize, u32)) -> Option<(Key, u32)> {
        let slot = self.slots.get(i)?;
        let level = self.priority.saturating_add(boost);
        Some(((Reverse(level), NO_DEADLINE, slot.id), slot.dim))
    }

    /// Move `(index, its boost)` on to the next job.
    fn advance(&self, (i, boost): &mut (usize, u32)) {
        *i += 1;
        while *boost > 0 && self.cursors[*boost as usize - 1] <= *i {
            *boost -= 1;
        }
    }

    /// The first index whose key is not before `from`.
    fn seek(&self, from: Bound<Key>) -> usize {
        let (bound, or_at) = match from {
            Included(k) => (k, false),
            Excluded(k) => (k, true),
            Unbounded => return 0,
        };
        // Keys rise along the lane: the jobs before `from` are a prefix.
        let (mut lo, mut hi) = (0, self.slots.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let key = self.key_at(mid);
            if key < bound || or_at && key == bound {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Take job `id` out, and return the levels it had earned. A job
    /// leaves from the lane's first window, so the shift is short.
    fn remove(&mut self, id: usize) -> u32 {
        let i = self.slots.partition_point(|s| s.id < id);
        debug_assert_eq!(self.slots[i].id, id);
        let boost = self.boost_at(i);
        let under_a_cursor = self.cursors.contains(&i);
        self.slots.remove(i);
        for c in self.cursors.iter_mut().filter(|c| **c > i) {
            *c -= 1;
        }
        if under_a_cursor {
            self.rearm();
        }
        boost
    }
}

/// Visit the waiting jobs from `from` on, in queue order, as their key and
/// width, until `visit` breaks: the keyed set merged with every lane. The
/// merge runs: the source with the least next key yields jobs while they
/// stay ahead of every other source's next key, and only then are the
/// sources compared again.
fn each_waiting(
    queue: &BTreeSet<Key>,
    lanes: &[Lane],
    jobs: &[Waiter],
    from: Bound<Key>,
    mut visit: impl FnMut(Key, u32) -> ControlFlow<()>,
) {
    let mut keyed = queue.range((from, Unbounded)).peekable();
    // Each lane's next index and the boost of the job there.
    let mut at = [(0, 0); LANES];
    for (at, lane) in at.iter_mut().zip(lanes) {
        let i = lane.seek(from);
        *at = (i, lane.boost_at(i));
    }
    loop {
        let mut lead = keyed.peek().map(|&&key| (key, None));
        let mut bound = None;
        for (l, lane) in lanes.iter().enumerate() {
            let Some((key, _)) = lane.job(at[l]) else {
                continue;
            };
            if lead.is_none_or(|(k, _)| key < k) {
                bound = lead.map(|(k, _)| k);
                lead = Some((key, Some(l)));
            } else if bound.is_none_or(|b| key < b) {
                bound = Some(key);
            }
        }
        let ahead = |key: Key| bound.is_none_or(|b| key < b);
        match lead {
            None => return,
            Some((_, None)) => {
                while let Some(&&key) = keyed.peek().filter(|&&&key| ahead(key)) {
                    keyed.next();
                    if visit(key, jobs[key.2].dim).is_break() {
                        return;
                    }
                }
            }
            Some((_, Some(l))) => {
                let lane = &lanes[l];
                while let Some((key, dim)) = lane.job(at[l]).filter(|&(key, _)| ahead(key)) {
                    lane.advance(&mut at[l]);
                    if visit(key, dim).is_break() {
                        return;
                    }
                }
            }
        }
    }
}

/// Visit the window a backfill walk tries: the [`BACKFILL_SCAN`] waiting
/// jobs behind the head, as their place in the window, key and width.
fn each_in_window(
    queue: &BTreeSet<Key>,
    lanes: &[Lane],
    jobs: &[Waiter],
    mut visit: impl FnMut(usize, Key, u32) -> ControlFlow<()>,
) {
    let mut seen = 0;
    each_waiting(queue, lanes, jobs, Unbounded, |key, dim| {
        seen += 1;
        if seen > 1 {
            visit(seen - 2, key, dim)?;
        }
        if seen > BACKFILL_SCAN {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
}

/// What the last backfill walk proved, kept while it stays true: nothing
/// was released since; a job `floor` wide fits nowhere outside `region`
/// (the head's width or one the walk tried failed), which stays so for
/// every wider job until a release (`buddy.rs`); and every waiting job at
/// or ahead of `end` is at least `floor` wide, more than [`BACKFILL_SCAN`]
/// of them unless `end` is [`QUEUE_END`]. So the window behind any head
/// lies there, and a walk under `region` starts nothing.
#[derive(Clone, Copy)]
struct Walked {
    /// `(base, dim)` of the reserved block.
    region: Option<(NodeId, u32)>,
    end: Key,
    floor: u32,
}

/// Wait queue, aging clock, allocator and reservation of one machine.
pub(crate) struct Admission {
    policy: Policy,
    /// `(period, max boost)`; `None` when waiting earns nothing.
    aging: Option<(Dur, u32)>,
    grace: Dur,
    alloc: BuddyAllocator,
    /// One record per job id.
    jobs: Vec<Waiter>,
    /// The waiting jobs outside the lanes, in the order they start in:
    /// deadline jobs, requeued jobs and the first waits no lane takes (id
    /// or arrival out of order, a priority beyond [`LANES`], a cap above
    /// [`LANE_MAX_BOOST`]). O(log n) to enter or leave; a promotion
    /// re-files the job.
    queue: BTreeSet<Key>,
    /// Best-effort first waits, at most one lane per base priority.
    lanes: Vec<Lane>,
    /// `(level, id)` of the waiting jobs that carry a deadline: only they
    /// can start ahead of an earlier-submitted job of their level.
    deadline_ids: BTreeSet<(u32, usize)>,
    /// Min-heap of `(a keyed job's next aging step, id)`, and the pending
    /// step of each lane job that left before its cap. An entry that no
    /// longer matches a keyed wait's [`Waiter::next_step`] wakes the driver
    /// once and is dropped.
    due: BinaryHeap<Reverse<(Time, usize)>>,
    /// `(blocked head, the block it is waiting to drain)`.
    reservation: Option<(usize, Subcube)>,
    walked: Option<Walked>,
    /// Backfill walks skipped on the strength of [`Admission::walked`].
    #[cfg(test)]
    skipped_walks: u64,
    /// Aging levels granted so far.
    pub promotions: u64,
    /// Heads started ahead of an earlier-submitted job of their level.
    pub edf_reorders: u64,
}

impl Admission {
    /// An empty queue over a free `dim`-cube, for job ids `0..jobs`.
    pub fn new(
        policy: Policy,
        aging: Option<(Dur, u32)>,
        grace: Dur,
        dim: u32,
        jobs: usize,
    ) -> Admission {
        assert!(
            aging.is_none_or(|(period, _)| !period.is_zero()),
            "aging period must be positive"
        );
        Admission {
            policy,
            aging: aging.filter(|&(_, max_boost)| max_boost > 0),
            grace,
            alloc: BuddyAllocator::new(dim),
            jobs: vec![Waiter::default(); jobs],
            queue: BTreeSet::new(),
            lanes: Vec::new(),
            deadline_ids: BTreeSet::new(),
            due: BinaryHeap::new(),
            reservation: None,
            walked: None,
            #[cfg(test)]
            skipped_walks: 0,
            promotions: 0,
            edf_reorders: 0,
        }
    }

    /// Job `id` arrives at `at`, wanting a `dim`-subcube by `deadline`
    /// after arrival, and starts waiting.
    pub fn enqueue(&mut self, id: usize, at: Time, priority: u32, deadline: Option<Dur>, dim: u32) {
        debug_assert!(!self.jobs[id].queued, "job {id} is already waiting");
        self.jobs[id] = Waiter {
            priority,
            deadline: deadline.map_or(NO_DEADLINE, |d| (at + d).as_ps()),
            dim,
            ..Waiter::default()
        };
        let lane = match deadline {
            None => self.lane_for(priority, id, at),
            Some(_) => None,
        };
        let Some(l) = lane else {
            return self.requeue(id, at);
        };
        self.lanes[l].push(Slot { since: at, id, dim });
        let w = &mut self.jobs[id];
        (w.since, w.queued, w.lane) = (at, true, Some(l as u8));
        let key = w.key(id);
        self.walked = self.walked.filter(|m| key > m.end || dim >= m.floor);
    }

    /// The lane a first wait of best-effort job `id` from `since` may join:
    /// its priority's if the order holds there, else a new one.
    fn lane_for(&mut self, priority: u32, id: usize, since: Time) -> Option<usize> {
        // No aging, no cursors.
        let aging = self.aging.unwrap_or((Dur::ZERO, 0));
        if aging.1 > LANE_MAX_BOOST {
            return None;
        }
        if let Some(l) = self.lanes.iter().position(|lane| lane.priority == priority) {
            return self.lanes[l].admits(id, since).then_some(l);
        }
        if self.lanes.len() == LANES {
            return None;
        }
        self.lanes.push(Lane::new(priority, aging));
        Some(self.lanes.len() - 1)
    }

    /// Job `id`, off its subcube at `now`, starts a fresh wait, keyed.
    pub fn requeue(&mut self, id: usize, now: Time) {
        let w = &mut self.jobs[id];
        debug_assert!(!w.queued, "job {id} is already waiting");
        (w.since, w.boost, w.queued) = (now, 0, true);
        let w = *w;
        self.insert(id);
        if let Some((period, _)) = self.aging {
            self.due.push(Reverse((w.next_step(period), id)));
        }
    }

    /// The instant the next aging step comes due: a lane's, or a keyed
    /// entry's (live or not).
    pub fn next_aging(&self) -> Option<Time> {
        self.aging?;
        let keyed = self.due.peek().map(|&Reverse((at, _))| at);
        let lanes = self.lanes.iter().filter_map(|lane| lane.due);
        keyed.into_iter().chain(lanes).min()
    }

    /// Grant the aging steps that have come due by `now`.
    pub fn age(&mut self, now: Time) {
        let Some((period, max_boost)) = self.aging else {
            return;
        };
        for lane in &mut self.lanes {
            if lane.due.is_none_or(|due| due > now) {
                continue;
            }
            for k in 0..lane.cursors.len() {
                let wait = period * (k as u64 + 1);
                while let Some(&Slot { since, id, dim }) = lane.slots.get(lane.cursors[k]) {
                    if since + wait > now {
                        break;
                    }
                    lane.cursors[k] += 1;
                    self.promotions += 1;
                    // Promoted into the walked window, as `insert` checks.
                    self.walked = self.walked.filter(|m| {
                        let boost = earned(since, now, period, max_boost);
                        let key = (
                            Reverse(lane.priority.saturating_add(boost)),
                            NO_DEADLINE,
                            id,
                        );
                        key > m.end || dim >= m.floor
                    });
                }
            }
            lane.rearm();
        }
        while let Some(&Reverse((due, id))) = self.due.peek() {
            if due > now {
                break;
            }
            self.due.pop();
            let mut w = self.jobs[id];
            if !w.queued || w.lane.is_some() || due != w.next_step(period) {
                continue;
            }
            self.remove(id);
            let boost = earned(w.since, now, period, max_boost);
            self.promotions += (boost - w.boost) as u64;
            w.boost = boost;
            self.jobs[id] = w;
            self.insert(id);
            if boost < max_boost {
                self.due.push(Reverse((w.next_step(period), id)));
            }
        }
    }

    /// The most urgent waiting job.
    fn head(&self) -> Option<usize> {
        let mut head = self.queue.first().copied();
        for lane in self.lanes.iter().filter(|lane| !lane.slots.is_empty()) {
            let key = lane.key_at(0);
            if head.is_none_or(|h| key < h) {
                head = Some(key);
            }
        }
        head.map(|(.., id)| id)
    }

    /// The most urgent waiting job, if no subcube of its size is free.
    pub fn blocked_head(&self) -> Option<usize> {
        self.head()
            .filter(|&id| !self.alloc.can_alloc(self.jobs[id].dim))
    }

    /// A job gave `sub` back.
    pub fn release(&mut self, sub: &Subcube) {
        self.alloc.release(sub);
        self.walked = None;
    }

    /// A job lost `sub` to a fault: retire `failed`, free the rest.
    pub fn condemn(&mut self, sub: &Subcube, failed: &[NodeId]) {
        self.alloc.condemn(sub, failed);
        self.walked = None;
    }

    /// Start every job the policy lets start at `now`, in order:
    /// `start(id, subcube, how long it waited)`. Allocates nothing when
    /// nothing starts.
    pub fn place(&mut self, now: Time, mut start: impl FnMut(usize, Subcube, Dur)) {
        let head = loop {
            let Some(id) = self.head() else {
                self.reservation = None;
                return;
            };
            let Some(sub) = self.alloc.alloc(self.jobs[id].dim) else {
                break id;
            };
            if self.jumps_an_earlier_id(id) {
                self.edf_reorders += 1;
            }
            start(id, sub, self.leave(id, now));
        };
        if self.policy == Policy::Fcfs {
            return;
        }
        let blocked = self.jobs[head];
        if now.since(blocked.since) < self.grace {
            self.reservation = None;
        } else if self
            .reservation
            .as_ref()
            .is_none_or(|(owner, r)| *owner != head || self.alloc.has_condemned_in(r))
        {
            let block = self.alloc.best_reservation(blocked.dim);
            self.reservation = block.map(|r| (head, r));
        }
        let region = self.reservation.as_ref().map(|(_, r)| r);
        let site = region.map(|r| (r.base(), r.dim()));
        let (queue, lanes, jobs) = (&self.queue, &self.lanes, &self.jobs);
        if self.walked.is_some_and(|m| m.region == site) {
            #[cfg(test)]
            {
                self.skipped_walks += 1;
            }
            // The walk it skips, on a copy of the allocator: no job fits.
            #[cfg(debug_assertions)]
            each_in_window(queue, lanes, jobs, |_, _, dim| {
                let fits = self.alloc.clone().alloc_outside(dim, region).is_some();
                assert!(!fits, "a skipped walk would start a job");
                ControlFlow::Continue(())
            });
            return;
        }
        let mut picked = Vec::new();
        // The head's own width has just failed to fit.
        let (mut too_wide, mut end) = (blocked.dim, QUEUE_END);
        each_in_window(queue, lanes, jobs, |i, key, dim| {
            if too_wide == 0 {
                return ControlFlow::Break(());
            }
            if i + 1 == BACKFILL_SCAN {
                // A full window ends at its last job.
                end = key;
            }
            if dim >= too_wide {
                debug_assert!(self.alloc.clone().alloc_outside(dim, region).is_none());
                return ControlFlow::Continue(());
            }
            match self.alloc.alloc_outside(dim, region) {
                Some(sub) => picked.push((key.2, sub)),
                None => too_wide = dim,
            }
            ControlFlow::Continue(())
        });
        let picks = picked.len();
        for (id, sub) in picked {
            start(id, sub, self.leave(id, now));
        }
        self.walked = self.slide(end, picks, too_wide).map(|end| Walked {
            region: site,
            end,
            floor: too_wide,
        });
    }

    /// The walked window ended at `end`, and `picks` jobs in it have since
    /// started: as many untried jobs behind `end` slide into it. Returns
    /// the window's new end, or `None` if one of them is narrower than
    /// `floor` and so might fit.
    fn slide(&self, mut end: Key, picks: usize, floor: u32) -> Option<Key> {
        let (mut left, mut fits) = (picks, false);
        if left > 0 {
            let (queue, lanes, jobs) = (&self.queue, &self.lanes, &self.jobs);
            each_waiting(queue, lanes, jobs, Excluded(end), |key, dim| {
                fits = dim < floor;
                if fits {
                    return ControlFlow::Break(());
                }
                (end, left) = (key, left - 1);
                if left == 0 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
        }
        match (fits, left) {
            (true, _) => None,
            (false, 0) => Some(end),
            // Nothing behind the window: it covers the queue.
            (false, _) => Some(QUEUE_END),
        }
    }

    /// Did waiting job `id` jump an earlier-submitted job of its level? Only
    /// a deadline can: a level's best-effort jobs wait behind its deadlines.
    fn jumps_an_earlier_id(&self, id: usize) -> bool {
        let (w, level) = (&self.jobs[id], self.jobs[id].level());
        if w.deadline == NO_DEADLINE {
            return false;
        }
        let best_effort = |id| (Reverse(level), NO_DEADLINE, id);
        let with_deadline = self.deadline_ids.range((level, 0)..(level, id)).next();
        let mut without = None;
        let (queue, lanes, jobs) = (&self.queue, &self.lanes, &self.jobs);
        each_waiting(queue, lanes, jobs, Included(best_effort(0)), |key, _| {
            without = Some(key);
            ControlFlow::Break(())
        });
        with_deadline.is_some() || without.is_some_and(|key| key < best_effort(id))
    }

    /// Take `id` out of the queue at `now`; returns how long it waited.
    /// A job leaving the walked window lets an untried one in. A lane job
    /// that leaves before its cap keeps its pending step, as a keyed job's
    /// stale entry does: it wakes the driver once.
    fn leave(&mut self, id: usize, now: Time) -> Dur {
        match self.jobs[id].lane.take() {
            Some(l) => {
                self.jobs[id].boost = self.lanes[l as usize].remove(id);
                let w = self.jobs[id];
                if let Some((period, max_boost)) = self.aging {
                    if w.boost < max_boost {
                        self.due.push(Reverse((w.next_step(period), id)));
                    }
                }
            }
            None => self.remove(id),
        }
        let w = self.jobs[id];
        self.jobs[id].queued = false;
        self.walked = self.walked.filter(|m| w.key(id) > m.end);
        now.since(w.since)
    }

    /// File waiting job `id` under its key. The walk memo stands if the
    /// job is behind the walked window or too wide to fit (every job
    /// already in the window is: a promotion keeps it there).
    fn insert(&mut self, id: usize) {
        let (w, key) = (self.jobs[id], self.jobs[id].key(id));
        self.queue.insert(key);
        if w.deadline != NO_DEADLINE {
            self.deadline_ids.insert((w.level(), id));
        }
        self.walked = self.walked.filter(|m| key > m.end || w.dim >= m.floor);
    }

    fn remove(&mut self, id: usize) {
        let w = self.jobs[id];
        self.queue.remove(&w.key(id));
        if w.deadline != NO_DEADLINE {
            self.deadline_ids.remove(&(w.level(), id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_sim::Rng;

    /// The policy the long way: every job is looked at on every call — the
    /// waiting ones filtered out and sorted, each aged from its own clock,
    /// the allocator walked for every job behind a blocked head.
    struct Reference {
        policy: Policy,
        aging: Option<(Dur, u32)>,
        grace: Dur,
        alloc: BuddyAllocator,
        jobs: Vec<Waiter>,
        reservation: Option<(usize, Subcube)>,
        promotions: u64,
        edf_reorders: u64,
        /// The wake clock kept as a heap of `(instant, id)`, one entry per
        /// pending step, live or not: a popped entry that is its job's next
        /// step re-arms it, any other is dropped.
        due: BinaryHeap<Reverse<(Time, usize)>>,
        /// The boost each job's live entry was armed for.
        due_boost: Vec<u32>,
    }

    impl Reference {
        fn queued_order(&self) -> Vec<usize> {
            let mut q: Vec<usize> = (0..self.jobs.len())
                .filter(|&id| self.jobs[id].queued)
                .collect();
            q.sort_by_key(|&id| {
                let w = &self.jobs[id];
                (Reverse(w.level()), w.deadline, id)
            });
            q
        }

        /// Job `id` starts a wait at `since`.
        fn wait(&mut self, id: usize, since: Time) {
            let w = &mut self.jobs[id];
            (w.since, w.boost, w.queued) = (since, 0, true);
            self.due_boost[id] = 0;
            if let Some((period, _)) = self.aging {
                self.due.push(Reverse((since + period, id)));
            }
        }

        fn next_aging(&self) -> Option<Time> {
            self.due.peek().map(|&Reverse((at, _))| at)
        }

        fn age(&mut self, now: Time) {
            let Some((period, max_boost)) = self.aging else {
                return;
            };
            while let Some(&Reverse((at, id))) = self.due.peek() {
                if at > now {
                    break;
                }
                self.due.pop();
                let w = self.jobs[id];
                if !w.queued || at != w.since + period * (self.due_boost[id] as u64 + 1) {
                    continue;
                }
                let boost = earned(w.since, now, period, max_boost);
                self.due_boost[id] = boost;
                if boost < max_boost {
                    let step = w.since + period * (boost as u64 + 1);
                    self.due.push(Reverse((step, id)));
                }
            }
            for w in self.jobs.iter_mut().filter(|w| w.queued) {
                let steps = now.since(w.since).as_ps() / period.as_ps();
                let boost = steps.min(max_boost as u64) as u32;
                self.promotions += (boost.max(w.boost) - w.boost) as u64;
                w.boost = boost.max(w.boost);
            }
        }

        fn place(&mut self, now: Time) -> Vec<(usize, Subcube, Dur)> {
            let mut placed = Vec::new();
            let mut order = self.queued_order();
            let head = loop {
                let Some(&id) = order.first() else {
                    self.reservation = None;
                    return placed;
                };
                let w = self.jobs[id];
                let Some(sub) = self.alloc.alloc(w.dim) else {
                    break id;
                };
                let eff = |o: &Waiter| o.level();
                if order[1..]
                    .iter()
                    .any(|&o| o < id && eff(&self.jobs[o]) == eff(&w))
                {
                    self.edf_reorders += 1;
                }
                order.remove(0);
                self.jobs[id].queued = false;
                placed.push((id, sub, now.since(w.since)));
            };
            if self.policy == Policy::Fcfs {
                return placed;
            }
            let w = self.jobs[head];
            if now.since(w.since) < self.grace {
                self.reservation = None;
            } else if !matches!(&self.reservation, Some((o, r)) if *o == head && !self.alloc.has_condemned_in(r))
            {
                self.reservation = self.alloc.best_reservation(w.dim).map(|r| (head, r));
            }
            let region = self.reservation.as_ref().map(|(_, r)| r);
            for &id in order[1..].iter().take(BACKFILL_SCAN) {
                let w = self.jobs[id];
                if let Some(sub) = self.alloc.alloc_outside(w.dim, region) {
                    self.jobs[id].queued = false;
                    placed.push((id, sub, now.since(w.since)));
                }
            }
            placed
        }
    }

    /// What one script saw: the core's counts, and the steps at which the
    /// queue held each case the lanes hand back to the keyed set.
    #[derive(Default, Debug)]
    struct Seen {
        promotions: u64,
        edf_reorders: u64,
        skipped_walks: u64,
        /// A keyed best-effort job had aged while a lane held a job.
        keyed_aged: u64,
        /// A deadline job shared its level with a lane job.
        shared_level: u64,
        /// A lane job's level had saturated.
        saturated: u64,
        /// A best-effort job waited keyed for want of a free lane.
        laneless: u64,
    }

    impl Seen {
        fn add(&mut self, o: Seen) {
            self.promotions += o.promotions;
            self.edf_reorders += o.edf_reorders;
            self.skipped_walks += o.skipped_walks;
            self.keyed_aged += o.keyed_aged;
            self.shared_level += o.shared_level;
            self.saturated += o.saturated;
            self.laneless += o.laneless;
        }
    }

    /// The core and the reference, fed the same events and compared at
    /// every step.
    struct Pair {
        core: Admission,
        long: Reference,
        now: Time,
        running: Vec<(usize, Subcube)>,
        placed: usize,
        next_id: usize,
        seen: Seen,
    }

    impl Pair {
        fn new(policy: Policy, aging: Option<(Dur, u32)>, grace: Dur, dim: u32) -> Pair {
            Pair {
                core: Admission::new(policy, aging, grace, dim, 4_000),
                long: Reference {
                    policy,
                    aging: aging.filter(|&(_, max_boost)| max_boost > 0),
                    grace,
                    alloc: BuddyAllocator::new(dim),
                    jobs: Vec::new(),
                    reservation: None,
                    promotions: 0,
                    edf_reorders: 0,
                    due: BinaryHeap::new(),
                    due_boost: Vec::new(),
                },
                now: Time(0),
                running: Vec::new(),
                placed: 0,
                next_id: 0,
                seen: Seen::default(),
            }
        }

        /// A job arrives now, under the next id; returns it.
        fn arrive(&mut self, priority: u32, deadline: Option<Dur>, dim: u32) -> usize {
            let id = self.next_id;
            self.next_id += 1;
            self.arrive_as(id, priority, deadline, dim);
            id
        }

        /// Job `id` arrives now.
        fn arrive_as(&mut self, id: usize, priority: u32, deadline: Option<Dur>, dim: u32) {
            let now = self.now;
            self.core.enqueue(id, now, priority, deadline, dim);
            let long = &mut self.long;
            if long.jobs.len() <= id {
                long.jobs.resize(id + 1, Waiter::default());
                long.due_boost.resize(id + 1, 0);
            }
            long.jobs[id] = Waiter {
                priority,
                deadline: deadline.map_or(NO_DEADLINE, |d| (now + d).as_ps()),
                dim,
                ..Waiter::default()
            };
            long.wait(id, now);
        }

        /// Running job number `i` ends: its subcube comes back, less the
        /// `failed` node; `requeue` sends the job back to the queue.
        fn end(&mut self, i: usize, failed: Option<NodeId>, requeue: bool) {
            let (id, sub) = self.running.swap_remove(i);
            if let Some(node) = failed {
                self.core.condemn(&sub, &[node]);
                self.long.alloc.condemn(&sub, &[node]);
            } else {
                self.core.release(&sub);
                self.long.alloc.release(&sub);
            }
            if requeue {
                self.core.requeue(id, self.now);
                self.long.wait(id, self.now);
            }
        }

        /// Age and place now, on both sides, and compare.
        fn step(&mut self, ctx: &str) {
            let now = self.now;
            assert_eq!(self.core.next_aging(), self.long.next_aging(), "{ctx}");
            self.core.age(now);
            self.long.age(now);
            self.witness();
            assert_eq!(
                self.core.head(),
                self.long.queued_order().first().copied(),
                "{ctx}"
            );
            let mut placed = Vec::new();
            self.core
                .place(now, |id, sub, waited| placed.push((id, sub, waited)));
            assert_eq!(placed, self.long.place(now), "{ctx}");
            assert_eq!(self.core.promotions, self.long.promotions, "{ctx}");
            assert_eq!(self.core.edf_reorders, self.long.edf_reorders, "{ctx}");
            assert_eq!(self.core.next_aging(), self.long.next_aging(), "{ctx}");
            self.placed += placed.len();
            self.running
                .extend(placed.into_iter().map(|(id, sub, _)| (id, sub)));
        }

        /// Count the cases the queue holds now.
        fn witness(&mut self) {
            let core = &self.core;
            let lane_levels: Vec<(u32, u32)> = core
                .lanes
                .iter()
                .flat_map(|lane| (0..lane.slots.len()).map(|i| (lane.priority, lane.boost_at(i))))
                .collect();
            let level = |(p, b): (u32, u32)| p.saturating_add(b);
            let keyed_best_effort = || {
                let keyed = core.queue.iter().filter(|&&(_, d, _)| d == NO_DEADLINE);
                keyed.map(|&(.., id)| core.jobs[id])
            };
            let seen = &mut self.seen;
            seen.keyed_aged +=
                u64::from(!lane_levels.is_empty() && keyed_best_effort().any(|w| w.boost > 0));
            seen.shared_level += u64::from(
                core.deadline_ids
                    .iter()
                    .any(|&(l, _)| lane_levels.iter().any(|&pb| level(pb) == l)),
            );
            seen.saturated +=
                u64::from(lane_levels.iter().any(|&(p, b)| p.checked_add(b).is_none()));
            seen.laneless += u64::from(
                keyed_best_effort()
                    .any(|w| !core.lanes.iter().any(|lane| lane.priority == w.priority)),
            );
        }

        fn seen(self) -> Seen {
            Seen {
                promotions: self.core.promotions,
                edf_reorders: self.core.edf_reorders,
                skipped_walks: self.core.skipped_walks,
                ..self.seen
            }
        }
    }

    /// What a seeded script's arrivals draw from: their base priorities,
    /// and whether each burst's ids are shuffled (so some arrive below a
    /// lane's tail and wait keyed).
    struct Mix {
        priorities: &'static [u32],
        shuffled: bool,
    }

    const PLAIN: Mix = Mix {
        priorities: &[0, 1, 2],
        shuffled: false,
    };

    /// One seeded script of arrivals, clock steps, completions, evictions
    /// and faults, run through the core and the reference side by side.
    /// A `calm` script spends three steps in four in release-free
    /// stretches: bursts of arrivals and aging steps, nothing ending, so
    /// the core's walk memo has to carry placements across them.
    fn run_script(
        seed: u64,
        policy: Policy,
        aging: Option<(Dur, u32)>,
        grace: Dur,
        calm: bool,
        mix: &Mix,
    ) -> Pair {
        let mut rng = Rng::new(seed);
        let mut pair = Pair::new(policy, aging, grace, 5);
        for step in 0..500 {
            let stretch = calm && step % 100 >= 25;
            pair.now += Dur::us([0, 10, 50, 130, 700][rng.range(0, 5)]);
            match rng.below(10) {
                // Arrivals, mostly narrow, some with deadlines. Whole-machine
                // jobs come early, faults late and only in the low half of
                // the cube, so no head is blocked for good.
                0..=3 => {
                    let burst = if stretch { 7 } else { 4 };
                    let mut ids: Vec<usize> =
                        (0..rng.range(1, burst)).map(|i| pair.next_id + i).collect();
                    pair.next_id += ids.len();
                    if mix.shuffled {
                        for i in (1..ids.len()).rev() {
                            ids.swap(i, rng.range(0, i + 1));
                        }
                    }
                    for id in ids {
                        let widest = if step < 150 { 10 } else { 9 };
                        let dim = [0, 0, 1, 1, 1, 2, 2, 3, 4, 5][rng.range(0, widest)];
                        let ps = mix.priorities;
                        let priority = ps[rng.below(ps.len() as u64) as usize];
                        let deadline = rng.bool().then(|| Dur::us(rng.below(3_000)));
                        pair.arrive_as(id, priority, deadline, dim);
                    }
                }
                // A completion, an eviction or (rarely) a fault.
                kind @ 4..=9 if !pair.running.is_empty() && !stretch => {
                    let i = rng.range(0, pair.running.len());
                    let sub = &pair.running[i].1;
                    let failed = (kind == 9 && step >= 250 && sub.base() < 16)
                        .then(|| sub.to_phys(rng.below(sub.len() as u64) as u32));
                    pair.end(i, failed, kind >= 8);
                }
                // Only the clock moves.
                _ => {}
            }
            pair.step(&format!("seed {seed} step {step}"));
        }
        let enough = if calm { 40 } else { 100 };
        assert!(pair.placed > enough, "seed {seed}: placed {}", pair.placed);
        pair
    }

    /// What the seeded scripts almost never do: a job promoted past the
    /// blocked head starts inside the head's reservation and so leaves the
    /// walked window, letting an untried single-node job behind the
    /// window's end slide in, where it fits outside the reservation.
    fn a_promotion_empties_a_window_slot() -> Seen {
        let mut pair = Pair::new(Policy::FcfsBackfill, Some((Dur::us(100), 2)), Dur::ZERO, 3);
        let at = |us| Time(0) + Dur::us(us);
        // Nodes 0–1, 2 and 4–5 are taken: the width-2 head reserves 4–7,
        // which holds a free pair, and node 3 is free outside it. Behind
        // the head, 63 pairs that cannot fit outside the reservation.
        for dim in [1, 0, 1] {
            pair.arrive(0, None, dim);
        }
        let head = pair.arrive(0, None, 2);
        for _ in 0..63 {
            pair.arrive(0, None, 1);
        }
        pair.step("fill");
        // A pair with a deadline, then a single: the window's 64th and
        // 65th jobs, a level below the others until they age.
        pair.now = at(150);
        let jumper = pair.arrive(0, Some(Dur::ms(10)), 1);
        pair.step("jumper");
        pair.now = at(160);
        let single = pair.arrive(0, None, 0);
        for us in [160, 200, 250, 260, 350] {
            pair.now = at(us);
            pair.step(&format!("{us} us"));
        }
        // At 350 µs the jumper reached the head's capped level: its deadline
        // put it first, it took the reserved pair, and the single slid in.
        let started: Vec<usize> = pair.running.iter().map(|&(id, _)| id).collect();
        assert!(started.ends_with(&[jumper, single]), "{started:?}");
        assert_eq!(pair.core.head(), Some(head));
        pair.seen()
    }

    /// Nodes 0, 2 and 4 taken, the rest free, and behind a width-2 head
    /// 63 pairs: the head reserves 4–7, and nodes 1 and 3 are free outside
    /// it, too few for any pair.
    fn a_reserving_head_behind_63_pairs(aging: Option<(Dur, u32)>) -> Pair {
        let mut pair = Pair::new(Policy::FcfsBackfill, aging, Dur::ZERO, 3);
        for _ in 0..5 {
            pair.arrive(0, None, 0);
        }
        pair.step("fill");
        for gone in [1, 3] {
            let i = pair.running.iter().position(|&(id, _)| id == gone);
            pair.end(i.expect("all five started"), None, false);
        }
        pair.arrive(0, None, 2);
        for _ in 0..63 {
            pair.arrive(0, None, 1);
        }
        pair
    }

    /// A full window whose last job starts leaves nothing behind it to
    /// slide in: the window now covers the whole queue, so a single that
    /// arrives behind it must be tried.
    fn a_pick_leaves_a_full_window_short() {
        let mut pair = a_reserving_head_behind_63_pairs(None);
        let last = pair.arrive(0, None, 0);
        pair.now = Time(0) + Dur::us(10);
        pair.step("the window's last job takes node 1");
        let single = pair.arrive(0, None, 0);
        pair.now = Time(0) + Dur::us(20);
        pair.step("a single arrives behind it");
        let started: Vec<usize> = pair.running.iter().map(|&(id, _)| id).collect();
        assert!(started.ends_with(&[last, single]), "{started:?}");
    }

    /// Why the wake clock keeps the steps of jobs that have left: a walk
    /// starts a single, and the single behind the full window slides in,
    /// narrower than the walk's floor, so the memo drops. Nothing else
    /// happens until the started single's step falls due, a stale one, and
    /// the slid-in single starts at exactly that instant. A driver that
    /// woke only for live steps would start it 10 µs later, at its own
    /// first step, and every wait and report behind it would move.
    fn a_stale_wake_starts_a_slid_in_job() {
        let mut pair = a_reserving_head_behind_63_pairs(Some((Dur::us(100), 2)));
        let at = |us| Time(0) + Dur::us(us);
        // The head and the pairs reach their cap: no live step of theirs
        // is left on the clock.
        for us in [0, 100, 200] {
            pair.now = at(us);
            pair.step(&format!("{us} us"));
        }
        pair.now = at(300);
        let first = pair.arrive(0, None, 0);
        pair.now = at(310);
        let second = pair.arrive(0, None, 0);
        pair.step("the walk starts the first single, the second slides in");
        let started = |pair: &Pair| -> Vec<usize> { pair.running.iter().map(|r| r.0).collect() };
        assert!(started(&pair).ends_with(&[first]), "{:?}", started(&pair));
        assert!(pair.core.walked.is_none());
        let stale = pair.core.next_aging();
        assert_eq!(stale, Some(at(400)), "the first single's step");
        let promotions = pair.core.promotions;
        pair.now = at(400);
        pair.step("the stale wake");
        assert_eq!(pair.core.promotions, promotions, "nothing ages at 400 µs");
        assert!(
            started(&pair).ends_with(&[first, second]),
            "{:?}",
            started(&pair)
        );
    }

    #[test]
    fn the_core_matches_the_policy_done_the_long_way() {
        let mut seed = 0x5eed_0021;
        let mut total = Seen::default();
        for calm in [false, true] {
            for policy in [Policy::Fcfs, Policy::FcfsBackfill] {
                for aging in [None, Some((Dur::us(300), 3))] {
                    for grace in [Dur::ZERO, RESERVE_AFTER] {
                        let mut seen = Seen::default();
                        for _ in 0..3 {
                            seed += 1;
                            seen.add(run_script(seed, policy, aging, grace, calm, &PLAIN).seen());
                        }
                        let what = format!("calm {calm} {policy:?} {aging:?} {grace:?}");
                        assert_eq!(seen.promotions > 0, aging.is_some(), "{what}");
                        assert!(seen.edf_reorders > 0, "{what}");
                        // Strict FCFS never walks; backfill must skip some.
                        assert_eq!(
                            seen.skipped_walks > 0,
                            policy == Policy::FcfsBackfill,
                            "{what}"
                        );
                        total.add(seen);
                    }
                }
            }
        }
        // Evictions requeue keyed, where they age beside the lanes.
        assert!(total.keyed_aged > 0 && total.shared_level > 0, "{total:?}");
        let seen = a_promotion_empties_a_window_slot();
        assert!(seen.promotions > 0 && seen.edf_reorders > 0 && seen.skipped_walks > 0);
        a_pick_leaves_a_full_window_short();
        a_stale_wake_starts_a_slid_in_job();
    }

    /// The waits the lanes hand to the keyed set, scripted: ids that
    /// arrive out of order, saturating levels, more base priorities than
    /// lanes, and a cap beyond what a lane serves.
    #[test]
    fn the_lane_fallbacks_match_the_policy_done_the_long_way() {
        let shuffled = Mix {
            shuffled: true,
            ..PLAIN
        };
        let saturating = Mix {
            priorities: &[0, 1, u32::MAX - 1, u32::MAX],
            shuffled: false,
        };
        let many = Mix {
            priorities: &[0, 1, 2, 3, 4, 5],
            shuffled: false,
        };
        let aging = Some((Dur::us(300), 3));
        let beyond = Some((Dur::us(300), LANE_MAX_BOOST + 1));
        let mut seed = 0x5eed_0044;
        for grace in [Dur::ZERO, RESERVE_AFTER] {
            // (mix, aging, whether a lane level saturates, whether a
            // best-effort job finds no lane)
            for (mix, aging, saturates, laneless) in [
                (&shuffled, aging, false, false),
                (&saturating, aging, true, false),
                (&many, aging, false, true),
                (&PLAIN, beyond, false, true),
            ] {
                let mut seen = Seen::default();
                let mut laned = false;
                for _ in 0..2 {
                    seed += 1;
                    let pair = run_script(seed, Policy::FcfsBackfill, aging, grace, false, mix);
                    laned |= !pair.core.lanes.is_empty();
                    seen.add(pair.seen());
                }
                let what = format!("{:?} {} {aging:?} {grace:?}", mix.priorities, mix.shuffled);
                assert!(seen.promotions > 0 && seen.skipped_walks > 0, "{what}");
                assert_eq!(laned, aging != beyond, "{what}");
                if laned {
                    assert!(
                        seen.keyed_aged > 0 && seen.shared_level > 0,
                        "{what}: {seen:?}"
                    );
                }
                assert_eq!(seen.saturated > 0, saturates, "{what}");
                assert_eq!(seen.laneless > 0, laneless, "{what}");
            }
        }
    }
}
