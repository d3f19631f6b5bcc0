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
//!
//! The grace is the one thing a front door chooses. The open-stream
//! service reserves at once: a stream never drains on its own, and a 1 ms
//! grace there doubles `service_queue`'s p99 wait (32.6 → 63.9 ms). A
//! closed batch waits [`RESERVE_AFTER`]: with none, a head that needs the
//! whole machine fences every block and backfill degenerates to FCFS
//! (`backfill_beats_fcfs_on_a_mixed_width_batch`: 15.95 ms both ways).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

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

/// What the queue knows of one job.
#[derive(Clone, Copy, Default)]
struct Waiter {
    /// Class priority, before any aging boost.
    priority: u32,
    /// Absolute deadline in ps on the driver's clock; `u64::MAX` for none.
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
        self.priority + self.boost
    }

    /// When the next aging step falls due: `boost + 1` periods into the wait.
    fn next_step(&self, period: Dur) -> Time {
        self.since + period * (self.boost as u64 + 1)
    }
}

/// The waiting jobs of one effective priority.
#[derive(Default)]
struct Level {
    /// `(deadline, id)`: the order they start in.
    by_deadline: BTreeSet<(u64, usize)>,
    /// Submission order, to tell when a deadline jumped it.
    by_id: BTreeSet<usize>,
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
    /// The non-empty levels; O(log n) to enter, leave or re-key.
    levels: BTreeMap<u32, Level>,
    /// Min-heap of `(a job's next aging step, id)`. An entry left over from
    /// a wait that has ended no longer matches [`Waiter::next_step`] and is
    /// dropped when it comes due.
    due: BinaryHeap<Reverse<(Time, usize)>>,
    /// `(blocked head, the block it is waiting to drain)`.
    reservation: Option<(usize, Subcube)>,
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
            levels: BTreeMap::new(),
            due: BinaryHeap::new(),
            reservation: None,
            promotions: 0,
            edf_reorders: 0,
        }
    }

    /// Job `id` arrives at `at`, wanting a `dim`-subcube by `deadline`
    /// after arrival, and starts waiting.
    pub fn enqueue(&mut self, id: usize, at: Time, priority: u32, deadline: Option<Dur>, dim: u32) {
        self.jobs[id] = Waiter {
            priority,
            deadline: deadline.map_or(u64::MAX, |d| (at + d).as_ps()),
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
        self.level_insert(w.level(), w.deadline, id);
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
            self.level_remove(w.level(), w.deadline, id);
            let steps = now.since(w.since).as_ps() / period.as_ps();
            let boost = steps.min(max_boost as u64) as u32;
            self.promotions += (boost - w.boost) as u64;
            w.boost = boost;
            self.jobs[id] = w;
            self.level_insert(w.level(), w.deadline, id);
            if boost < max_boost {
                self.due.push(Reverse((w.next_step(period), id)));
            }
        }
    }

    /// The most urgent waiting job.
    fn head(&self) -> Option<usize> {
        let level = self.levels.values().next_back()?;
        level.by_deadline.first().map(|&(_, id)| id)
    }

    /// The most urgent waiting job, if no subcube of its size is free.
    pub fn blocked_head(&self) -> Option<usize> {
        self.head()
            .filter(|&id| !self.alloc.can_alloc(self.jobs[id].dim))
    }

    /// A job gave `sub` back.
    pub fn release(&mut self, sub: &Subcube) {
        self.alloc.release(sub);
    }

    /// A job lost `sub` to a fault: retire `failed`, free the rest.
    pub fn condemn(&mut self, sub: &Subcube, failed: &[NodeId]) {
        self.alloc.condemn(sub, failed);
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
            let w = self.jobs[id];
            let Some(sub) = self.alloc.alloc(w.dim) else {
                break id;
            };
            if self.levels[&w.level()].by_id.first() != Some(&id) {
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
        let mut picked: Vec<(usize, Subcube)> = Vec::new();
        // The head's own width has just failed to fit.
        let mut too_wide = blocked.dim;
        let mut scanned = 0;
        // Two plain loops: this body runs 64 times per instant, and a
        // flattened iterator costs `service_queue` a tenth of its `wall_s`.
        'scan: for level in self.levels.values().rev() {
            for &(_, id) in &level.by_deadline {
                if id == head {
                    continue;
                }
                if scanned == BACKFILL_SCAN || too_wide == 0 {
                    break 'scan;
                }
                scanned += 1;
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
        }
        for (id, sub) in picked {
            start(id, sub, self.leave(id, now));
        }
    }

    /// Take `id` out of the queue at `now`; returns how long it waited.
    fn leave(&mut self, id: usize, now: Time) -> Dur {
        let w = self.jobs[id];
        self.jobs[id].queued = false;
        self.level_remove(w.level(), w.deadline, id);
        now.since(w.since)
    }

    fn level_insert(&mut self, level: u32, deadline: u64, id: usize) {
        let level = self.levels.entry(level).or_default();
        level.by_deadline.insert((deadline, id));
        level.by_id.insert(id);
    }

    fn level_remove(&mut self, level: u32, deadline: u64, id: usize) {
        let waiting = self
            .levels
            .get_mut(&level)
            .expect("a waiting job has a level");
        waiting.by_deadline.remove(&(deadline, id));
        waiting.by_id.remove(&id);
        if waiting.by_id.is_empty() {
            self.levels.remove(&level);
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

    /// One seeded script of arrivals, clock steps, completions, evictions
    /// and faults, run through the core and the reference side by side.
    /// Returns the promotions and EDF reorders it saw.
    fn run_script(seed: u64, policy: Policy, aging: Option<(Dur, u32)>, grace: Dur) -> (u64, u64) {
        const DIM: u32 = 5;
        let mut rng = Rng::new(seed);
        let mut core = Admission::new(policy, aging, grace, DIM, 2_000);
        let mut long = Reference {
            policy,
            aging: aging.filter(|&(_, max_boost)| max_boost > 0),
            grace,
            alloc: BuddyAllocator::new(DIM),
            jobs: Vec::new(),
            reservation: None,
            promotions: 0,
            edf_reorders: 0,
        };
        let mut now = Time(0);
        let mut running: Vec<(usize, Subcube)> = Vec::new();
        let mut placed_total = 0;
        for step in 0..500 {
            let ctx = format!("seed {seed} step {step}");
            now += Dur::us([0, 10, 50, 130, 700][rng.range(0, 5)]);
            match rng.below(10) {
                // Arrivals, mostly narrow, some with deadlines. Whole-machine
                // jobs come early, faults late and only in the low half of
                // the cube, so no head is blocked for good.
                0..=3 => {
                    for _ in 0..rng.range(1, 4) {
                        let id = long.jobs.len();
                        let widest = if step < 150 { 10 } else { 9 };
                        let dim = [0, 0, 1, 1, 1, 2, 2, 3, 4, 5][rng.range(0, widest)];
                        let priority = rng.below(3) as u32;
                        let deadline = rng.bool().then(|| Dur::us(rng.below(3_000)));
                        core.enqueue(id, now, priority, deadline, dim);
                        long.jobs.push(Waiter {
                            priority,
                            deadline: deadline.map_or(u64::MAX, |d| (now + d).as_ps()),
                            dim,
                            since: now,
                            boost: 0,
                            queued: true,
                        });
                    }
                }
                // A completion, an eviction or (rarely) a fault.
                kind @ 4..=9 if !running.is_empty() => {
                    let (id, sub) = running.swap_remove(rng.range(0, running.len()));
                    if kind == 9 && step >= 250 && sub.base() < 16 {
                        let failed = [sub.to_phys(rng.below(sub.len() as u64) as u32)];
                        core.condemn(&sub, &failed);
                        long.alloc.condemn(&sub, &failed);
                    } else {
                        core.release(&sub);
                        long.alloc.release(&sub);
                    }
                    if kind >= 8 {
                        core.requeue(id, now);
                        long.jobs[id] = Waiter {
                            since: now,
                            boost: 0,
                            queued: true,
                            ..long.jobs[id]
                        };
                    }
                }
                _ => {}
            }
            core.age(now);
            long.age(now);
            assert_eq!(core.head(), long.queued_order().first().copied(), "{ctx}");
            let mut placed = Vec::new();
            core.place(now, |id, sub, waited| placed.push((id, sub, waited)));
            assert_eq!(placed, long.place(now), "{ctx}");
            assert_eq!(core.promotions, long.promotions, "{ctx}");
            assert_eq!(core.edf_reorders, long.edf_reorders, "{ctx}");
            placed_total += placed.len();
            running.extend(placed.into_iter().map(|(id, sub, _)| (id, sub)));
        }
        assert!(placed_total > 100, "seed {seed}: placed {placed_total}");
        (core.promotions, core.edf_reorders)
    }

    #[test]
    fn the_core_matches_the_policy_done_the_long_way() {
        let mut seed = 0x5eed_0021;
        for policy in [Policy::Fcfs, Policy::FcfsBackfill] {
            for aging in [None, Some((Dur::us(300), 3))] {
                for grace in [Dur::ZERO, RESERVE_AFTER] {
                    let (mut promotions, mut edf_reorders) = (0, 0);
                    for _ in 0..3 {
                        seed += 1;
                        let seen = run_script(seed, policy, aging, grace);
                        promotions += seen.0;
                        edf_reorders += seen.1;
                    }
                    assert_eq!(promotions > 0, aging.is_some(), "{policy:?} {grace:?}");
                    assert!(edf_reorders > 0, "{policy:?} {aging:?} {grace:?}");
                }
            }
        }
    }
}
