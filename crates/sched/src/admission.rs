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
//!    with it.
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
use std::collections::{BTreeSet, BinaryHeap};
use std::ops::Bound::{Excluded, Unbounded};

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
    /// Aging levels earned in the current wait.
    boost: u32,
    queued: bool,
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
    /// The waiting jobs in the order they start in; O(log n) to enter,
    /// leave or re-key on promotion.
    queue: BTreeSet<Key>,
    /// `(level, id)` of the waiting jobs that carry a deadline: only they
    /// can start ahead of an earlier-submitted job of their level.
    deadline_ids: BTreeSet<(u32, usize)>,
    /// Min-heap of `(a job's next aging step, id)`. An entry left over from
    /// a wait that has ended no longer matches [`Waiter::next_step`] and is
    /// dropped when it comes due.
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
        self.jobs[id] = Waiter {
            priority,
            deadline: deadline.map_or(NO_DEADLINE, |d| (at + d).as_ps()),
            dim,
            ..Waiter::default()
        };
        self.requeue(id, at);
    }

    /// Job `id`, off its subcube at `now`, starts a fresh wait.
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

    /// The instant the next aging entry comes due (live or not).
    pub fn next_aging(&self) -> Option<Time> {
        self.due.peek().map(|&Reverse((at, _))| at)
    }

    /// Grant the aging steps that have come due by `now`.
    pub fn age(&mut self, now: Time) {
        let Some((period, max_boost)) = self.aging else {
            return;
        };
        while let Some(&Reverse((due, id))) = self.due.peek() {
            if due > now {
                break;
            }
            self.due.pop();
            let mut w = self.jobs[id];
            if !w.queued || due != w.next_step(period) {
                continue;
            }
            self.remove(id);
            let steps = now.since(w.since).as_ps() / period.as_ps();
            let boost = steps.min(max_boost as u64) as u32;
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
        self.queue.first().map(|&(.., id)| id)
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
        let window = self.queue.iter().skip(1).take(BACKFILL_SCAN);
        if self.walked.is_some_and(|m| m.region == site) {
            #[cfg(test)]
            {
                self.skipped_walks += 1;
            }
            // The walk it skips, on a copy of the allocator: no job fits.
            debug_assert!(
                window.clone().all(|&(.., id)| {
                    let dim = self.jobs[id].dim;
                    self.alloc.clone().alloc_outside(dim, region).is_none()
                }),
                "a skipped walk would start a job"
            );
            return;
        }
        let mut picked = Vec::new();
        // The head's own width has just failed to fit.
        let (mut too_wide, mut end) = (blocked.dim, QUEUE_END);
        for (i, &key) in window.enumerate() {
            if too_wide == 0 {
                break;
            }
            if i + 1 == BACKFILL_SCAN {
                // A full window ends at its last job.
                end = key;
            }
            let (.., id) = key;
            let dim = self.jobs[id].dim;
            if dim >= too_wide {
                debug_assert!(self.alloc.clone().alloc_outside(dim, region).is_none());
                continue;
            }
            match self.alloc.alloc_outside(dim, region) {
                Some(sub) => picked.push((id, sub)),
                None => too_wide = dim,
            }
        }
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
        let mut behind = self.queue.range((Excluded(end), Unbounded));
        for _ in 0..picks {
            let Some(&key) = behind.next() else {
                return Some(QUEUE_END);
            };
            if self.jobs[key.2].dim < floor {
                return None;
            }
            end = key;
        }
        Some(end)
    }

    /// Did waiting job `id` jump an earlier-submitted job of its level? Only
    /// a deadline can: a level's best-effort jobs wait behind its deadlines.
    fn jumps_an_earlier_id(&self, id: usize) -> bool {
        let (w, level) = (&self.jobs[id], self.jobs[id].level());
        let best_effort = |id| (Reverse(level), NO_DEADLINE, id);
        let with_deadline = self.deadline_ids.range((level, 0)..(level, id)).next();
        let without = self.queue.range(best_effort(0)..best_effort(id)).next();
        w.deadline != NO_DEADLINE && (with_deadline.is_some() || without.is_some())
    }

    /// Take `id` out of the queue at `now`; returns how long it waited.
    /// A job leaving the walked window lets an untried one in.
    fn leave(&mut self, id: usize, now: Time) -> Dur {
        let w = self.jobs[id];
        self.remove(id);
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

        fn age(&mut self, now: Time) {
            let Some((period, max_boost)) = self.aging else {
                return;
            };
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

    /// What one script saw: promotions, EDF reorders and skipped walks.
    type Seen = (u64, u64, u64);

    /// The core and the reference, fed the same events and compared at
    /// every step.
    struct Pair {
        core: Admission,
        long: Reference,
        now: Time,
        running: Vec<(usize, Subcube)>,
        placed: usize,
    }

    impl Pair {
        fn new(policy: Policy, aging: Option<(Dur, u32)>, grace: Dur, dim: u32) -> Pair {
            Pair {
                core: Admission::new(policy, aging, grace, dim, 2_000),
                long: Reference {
                    policy,
                    aging: aging.filter(|&(_, max_boost)| max_boost > 0),
                    grace,
                    alloc: BuddyAllocator::new(dim),
                    jobs: Vec::new(),
                    reservation: None,
                    promotions: 0,
                    edf_reorders: 0,
                },
                now: Time(0),
                running: Vec::new(),
                placed: 0,
            }
        }

        /// A job arrives now; returns its id.
        fn arrive(&mut self, priority: u32, deadline: Option<Dur>, dim: u32) -> usize {
            let (id, now) = (self.long.jobs.len(), self.now);
            self.core.enqueue(id, now, priority, deadline, dim);
            self.long.jobs.push(Waiter {
                priority,
                deadline: deadline.map_or(NO_DEADLINE, |d| (now + d).as_ps()),
                dim,
                since: now,
                boost: 0,
                queued: true,
            });
            id
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
                self.long.jobs[id] = Waiter {
                    since: self.now,
                    boost: 0,
                    queued: true,
                    ..self.long.jobs[id]
                };
            }
        }

        /// Age and place now, on both sides, and compare.
        fn step(&mut self, ctx: &str) {
            let now = self.now;
            self.core.age(now);
            self.long.age(now);
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
            self.placed += placed.len();
            self.running
                .extend(placed.into_iter().map(|(id, sub, _)| (id, sub)));
        }

        fn seen(&self) -> Seen {
            let core = &self.core;
            (core.promotions, core.edf_reorders, core.skipped_walks)
        }
    }

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
    ) -> Seen {
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
                    for _ in 0..rng.range(1, burst) {
                        let widest = if step < 150 { 10 } else { 9 };
                        let dim = [0, 0, 1, 1, 1, 2, 2, 3, 4, 5][rng.range(0, widest)];
                        let priority = rng.below(3) as u32;
                        let deadline = rng.bool().then(|| Dur::us(rng.below(3_000)));
                        pair.arrive(priority, deadline, dim);
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
        pair.seen()
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

    /// A full window whose last job starts leaves nothing behind it to
    /// slide in: the window now covers the whole queue, so a single that
    /// arrives behind it must be tried.
    fn a_pick_leaves_a_full_window_short() {
        let mut pair = Pair::new(Policy::FcfsBackfill, None, Dur::ZERO, 3);
        // Nodes 0, 2 and 4 stay taken: the width-2 head reserves 4–7, and
        // nodes 1 and 3 are free outside it, too few for the 63 pairs.
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
        let last = pair.arrive(0, None, 0);
        pair.now = Time(0) + Dur::us(10);
        pair.step("the window's last job takes node 1");
        let single = pair.arrive(0, None, 0);
        pair.now = Time(0) + Dur::us(20);
        pair.step("a single arrives behind it");
        let started: Vec<usize> = pair.running.iter().map(|&(id, _)| id).collect();
        assert!(started.ends_with(&[last, single]), "{started:?}");
    }

    #[test]
    fn the_core_matches_the_policy_done_the_long_way() {
        let mut seed = 0x5eed_0021;
        for calm in [false, true] {
            for policy in [Policy::Fcfs, Policy::FcfsBackfill] {
                for aging in [None, Some((Dur::us(300), 3))] {
                    for grace in [Dur::ZERO, RESERVE_AFTER] {
                        let mut seen = (0, 0, 0);
                        for _ in 0..3 {
                            seed += 1;
                            let (p, e, s) = run_script(seed, policy, aging, grace, calm);
                            seen = (seen.0 + p, seen.1 + e, seen.2 + s);
                        }
                        let what = format!("calm {calm} {policy:?} {aging:?} {grace:?}");
                        assert_eq!(seen.0 > 0, aging.is_some(), "{what}");
                        assert!(seen.1 > 0, "{what}");
                        // Strict FCFS never walks; backfill must skip some.
                        assert_eq!(seen.2 > 0, policy == Policy::FcfsBackfill, "{what}");
                    }
                }
            }
        }
        let (promotions, edf_reorders, skipped) = a_promotion_empties_a_window_slot();
        assert!(promotions > 0 && edf_reorders > 0 && skipped > 0);
        a_pick_leaves_a_full_window_short();
    }
}
