//! Property tests for the simulation kernel: determinism, time ordering,
//! resource FIFO discipline, channel pairing.
//!
//! Inputs are drawn from the workspace's own seeded [`Rng`] so the suite
//! runs fully offline; each test replays a fixed stream of random cases and
//! therefore fails reproducibly.

use std::cell::RefCell;
use std::rc::Rc;
use ts_sim::{Dur, Rendezvous, Resource, Rng, Sim, Time};

/// Any random program of sleeps is deterministic and time-ordered.
#[test]
fn random_sleep_programs_are_deterministic() {
    let mut rng = Rng::new(0x51b0_0001);
    for _ in 0..24 {
        let delays: Vec<Vec<u64>> = (0..rng.range(1, 12))
            .map(|_| (0..rng.range(1, 8)).map(|_| 1 + rng.below(9_999)).collect())
            .collect();
        let run = |delays: &[Vec<u64>]| {
            let mut sim = Sim::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            for (i, ds) in delays.iter().enumerate() {
                let h = sim.handle();
                let ds = ds.clone();
                let log = log.clone();
                sim.spawn(async move {
                    for d in ds {
                        h.sleep(Dur::ns(d)).await;
                        log.borrow_mut().push((h.now(), i));
                    }
                });
            }
            let r = sim.run();
            assert!(r.quiescent);
            let events = log.borrow().clone();
            (sim.now(), events)
        };
        let (t1, l1) = run(&delays);
        let (t2, l2) = run(&delays);
        assert_eq!(t1, t2);
        // The event log is identical and nondecreasing in time.
        assert_eq!(l1, l2);
        for w in l1.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        // Final time is the max per-task sum.
        let max_sum = delays
            .iter()
            .map(|ds| ds.iter().sum::<u64>())
            .max()
            .unwrap();
        assert_eq!(t1, Time::ZERO + Dur::ns(max_sum));
    }
}

/// A FIFO resource serves overlapping requests back-to-back with no gaps
/// and no overlap, and total busy time is the sum of demands.
#[test]
fn resource_serves_fifo_without_gaps() {
    let mut rng = Rng::new(0x51b0_0002);
    for _ in 0..32 {
        let durs: Vec<u64> = (0..rng.range(1, 20)).map(|_| 1 + rng.below(999)).collect();
        let mut sim = Sim::new();
        let res = Resource::new("r");
        let slots = Rc::new(RefCell::new(Vec::new()));
        for &d in &durs {
            let h = sim.handle();
            let res = res.clone();
            let slots = slots.clone();
            sim.spawn(async move {
                let (s, e) = res.use_for(&h, Dur::ns(d)).await;
                slots.borrow_mut().push((s, e));
            });
        }
        assert!(sim.run().quiescent);
        let mut slots = slots.borrow().clone();
        slots.sort();
        let mut cursor = Time::ZERO;
        for (s, e) in &slots {
            assert_eq!(*s, cursor, "no gap, no overlap");
            cursor = *e;
        }
        let total: u64 = durs.iter().sum();
        assert_eq!(res.busy_total(), Dur::ns(total));
    }
}

/// Rendezvous pairing is FIFO: k senders and k receivers match in arrival
/// order regardless of their timing offsets.
#[test]
fn rendezvous_matches_in_fifo_order() {
    let mut rng = Rng::new(0x51b0_0003);
    for _ in 0..32 {
        let send_delays: Vec<u64> = (0..rng.range(1, 10)).map(|_| rng.below(500)).collect();
        let k = send_delays.len();
        let mut sim = Sim::new();
        let ch: Rendezvous<usize> = Rendezvous::new();
        // Senders arrive in index order (cumulative delays).
        let mut acc = 0;
        for (i, &d) in send_delays.iter().enumerate() {
            acc += d + 1; // strictly increasing arrival times
            let tx = ch.clone();
            let h = sim.handle();
            let at = acc;
            sim.spawn(async move {
                h.sleep(Dur::ns(at)).await;
                tx.send(i).await;
            });
        }
        let rx = ch.clone();
        let jh = sim.spawn(async move {
            let mut got = Vec::new();
            for _ in 0..k {
                got.push(rx.recv().await);
            }
            got
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take().unwrap(), (0..k).collect::<Vec<_>>());
    }
}

/// run_until never passes the deadline and resuming completes the work
/// identically to one uninterrupted run.
#[test]
fn bounded_runs_compose() {
    let mut rng = Rng::new(0x51b0_0004);
    for _ in 0..64 {
        let total_ns = 1000 + rng.below(99_000);
        let cut = 1 + rng.below(998);
        let make = || {
            let mut sim = Sim::new();
            let h = sim.handle();
            let jh = sim.spawn(async move {
                h.sleep(Dur::ns(total_ns)).await;
                h.now()
            });
            (sim, jh)
        };
        // Uninterrupted.
        let (mut s1, j1) = make();
        s1.run();
        // Interrupted at an arbitrary fraction.
        let (mut s2, j2) = make();
        let cut_at = Time::ZERO + Dur::ns(total_ns * cut / 1000);
        let r = s2.run_until(cut_at);
        assert!(s2.now() <= cut_at);
        assert!(!r.quiescent || total_ns * cut / 1000 >= total_ns);
        s2.run();
        assert_eq!(j1.try_take(), j2.try_take());
        assert_eq!(s1.now(), s2.now());
    }
}

/// One step of a scripted task (all delays in ns, ≥ 1).
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Sleep and log the wake.
    Sleep(u64),
    /// `select2` of two sleeps: the earlier (the first on a tie) wins and
    /// the loser's timer is cancelled.
    Race(u64, u64),
    /// Register a timer and abandon it.
    Abandon(u64),
}

/// What the tasks of one script tell the test: every timer they hold, keyed
/// `(instant, registration order)`, and every wake in the order it ran.
#[derive(Default)]
struct Ledger {
    seq: u64,
    live: std::collections::BTreeSet<(Time, u64)>,
    wakes: Vec<(Time, u64)>,
}

impl Ledger {
    /// A task is about to register a timer for `at`.
    fn register(&mut self, at: Time) -> (Time, u64) {
        self.seq += 1;
        self.live.insert((at, self.seq));
        (at, self.seq)
    }
}

/// Seeded scripts of sleeps, same-instant bursts, `select2` timeouts and
/// abandoned sleeps, driven by `run_until`/`run_for` deadlines that fall
/// before, on and past the pending instants, with a `next_event_time` probe
/// at every stop. The per-instant timer queue must behave as one heap of
/// `(instant, seq)` entries: wakes in exactly that order and at their own
/// instant, one event and one poll per wake, cancelled timers never firing
/// or holding the clock, the deadline honoured, the probe exact. (A debug
/// build also checks every queue entry against the reference heap the
/// executor keeps under `cfg(any(test, debug_assertions))`, which is what
/// pins `max_timers`.)
#[test]
fn scripted_timers_fire_in_instant_then_registration_order() {
    use std::future::Future;
    use std::pin::Pin;
    use std::task::Poll;
    use ts_sim::{select2, Either};

    let mut rng = Rng::new(0x51b0_0005);
    for case in 0..96 {
        // A small delay alphabet makes same-instant bursts and ties common.
        let delays: Vec<u64> = (0..rng.range(2, 6)).map(|_| 1 + rng.below(40)).collect();
        let pick = |rng: &mut Rng| delays[rng.below(delays.len() as u64) as usize];
        let scripts: Vec<Vec<Step>> = (0..rng.range(1, 10))
            .map(|_| {
                (0..rng.range(1, 9))
                    .map(|_| match rng.below(6) {
                        0 => Step::Race(pick(&mut rng), pick(&mut rng)),
                        1 => Step::Abandon(pick(&mut rng)),
                        _ => Step::Sleep(pick(&mut rng)),
                    })
                    .collect()
            })
            .collect();

        let run = |stops: &[(bool, u64)]| {
            let mut sim = Sim::new();
            let ledger = Rc::new(RefCell::new(Ledger::default()));
            for script in &scripts {
                let (h, script, ledger) = (sim.handle(), script.clone(), ledger.clone());
                sim.spawn(async move {
                    let at = |d: u64| h.now() + Dur::ns(d);
                    for step in script {
                        match step {
                            Step::Sleep(d) => {
                                let key = ledger.borrow_mut().register(at(d));
                                h.sleep(Dur::ns(d)).await;
                                assert_eq!(h.now(), key.0, "woke off its instant");
                                let mut l = ledger.borrow_mut();
                                l.live.remove(&key);
                                l.wakes.push(key);
                            }
                            Step::Race(a, b) => {
                                let (ka, kb) = {
                                    let mut l = ledger.borrow_mut();
                                    (l.register(at(a)), l.register(at(b)))
                                };
                                let won = select2(h.sleep(Dur::ns(a)), h.sleep(Dur::ns(b))).await;
                                let winner = if a <= b { ka } else { kb };
                                assert_eq!(won == Either::Left(()), a <= b, "wrong branch won");
                                assert_eq!(h.now(), winner.0, "woke off its instant");
                                let mut l = ledger.borrow_mut();
                                l.live.remove(&ka);
                                l.live.remove(&kb);
                                l.wakes.push(winner);
                            }
                            Step::Abandon(d) => {
                                ledger.borrow_mut().seq += 1;
                                let mut s = h.sleep(Dur::ns(d));
                                std::future::poll_fn(|cx| {
                                    let _ = Pin::new(&mut s).poll(cx);
                                    Poll::Ready(())
                                })
                                .await;
                            }
                        }
                    }
                });
            }
            // Bounded runs first, then to quiescence.
            for &(relative, ns) in stops {
                let before = sim.now();
                let deadline = if relative {
                    before + Dur::ns(ns)
                } else {
                    Time::ZERO + Dur::ns(ns)
                };
                let r = if relative {
                    sim.run_for(Dur::ns(ns))
                } else {
                    sim.run_until(deadline)
                };
                let l = ledger.borrow();
                let next = l.live.first().map(|&(at, _)| at);
                assert_eq!(sim.next_event_time(), next, "case {case}: probe");
                assert!(
                    next.is_none_or(|at| at > deadline),
                    "case {case}: left a due timer"
                );
                let last_wake = l.wakes.last().map_or(Time::ZERO, |&(at, _)| at);
                let want = if next.is_some() {
                    deadline.max(before)
                } else {
                    last_wake.max(before)
                };
                assert_eq!(
                    (sim.now(), r.final_time),
                    (want, want),
                    "case {case}: clock"
                );
                assert_eq!(r.events, l.wakes.len() as u64, "case {case}: events");
            }
            let r = sim.run();
            assert!(r.quiescent, "case {case}");
            assert_eq!(sim.next_event_time(), None);
            let l = ledger.borrow();
            assert!(l.live.is_empty());
            let p = sim.profile();
            // One event per wake; one poll per task start and per wake.
            assert_eq!(p.timer_events, l.wakes.len() as u64, "case {case}");
            assert_eq!(p.polls, p.spawned + p.timer_events, "case {case}");
            assert!(p.max_timers as u64 <= l.seq, "case {case}");
            for w in l.wakes.windows(2) {
                assert!(
                    w[0] < w[1],
                    "case {case}: wakes out of (instant, seq) order: {w:?}"
                );
            }
            let last_wake = l.wakes.last().map_or(Time::ZERO, |&(at, _)| at);
            assert!(r.final_time >= last_wake);
            (l.wakes.clone(), r.final_time, p)
        };

        let free = run(&[]);
        // Deadlines on, between and past the instants the free run woke at.
        let mut stops = Vec::new();
        let mut floor = 0;
        for _ in 0..rng.range(1, 8) {
            let horizon = free.1.as_ns() + 5;
            let abs = match rng.below(3) {
                0 if !free.0.is_empty() => {
                    free.0[rng.below(free.0.len() as u64) as usize].0.as_ns()
                }
                _ => rng.below(horizon + 1),
            };
            if rng.below(2) == 0 {
                stops.push((true, rng.below(30)));
            } else {
                floor = abs.max(floor);
                stops.push((false, floor));
            }
        }
        let bounded = run(&stops);
        // Stopping and resuming moves nothing but the final clock, which a
        // deadline past the last wake may have carried forward.
        assert_eq!(bounded.0, free.0, "case {case}: wake order");
        assert_eq!(
            (bounded.2.timer_events, bounded.2.polls, bounded.2.spawned),
            (free.2.timer_events, free.2.polls, free.2.spawned),
            "case {case}: profile"
        );
        assert_eq!(
            bounded.2.max_timers, free.2.max_timers,
            "case {case}: max_timers"
        );
        assert!(bounded.1 >= free.1);
        assert_eq!(run(&stops), bounded, "case {case}: not deterministic");
    }
}

/// One party of a rendezvous script. Every arrival and timeout instant
/// (ns) is distinct across the script, so no two things happen at once and
/// the outcome is a pure function of the arrival order.
#[derive(Clone, Debug)]
enum Party {
    /// Send this op's id on `ch`, cancelled by a `select2` timeout if given.
    Send {
        ch: usize,
        at: u64,
        timeout: Option<u64>,
    },
    /// Receive on `ch`, cancelled by a `select2` timeout if given.
    Recv {
        ch: usize,
        at: u64,
        timeout: Option<u64>,
    },
    /// One prepared `Alt` over every channel, one round per `(at, timeout)`;
    /// each round is an op of its own.
    Alt { rounds: Vec<(u64, u64)> },
}

/// How an op ended, or `None` if it was cancelled or never paired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Outcome {
    /// A send completed at this instant (ns).
    Sent(u64),
    /// A receive (or an `Alt` round, on this branch) took this sender's id.
    Got { at: u64, branch: usize, from: usize },
}

/// A receive entry queued on one channel of the reference model.
#[derive(Clone, Copy)]
enum Rx {
    Plain(usize),
    /// An `Alt` party's cell for one branch.
    Alt(usize, usize),
}

/// The FIFO reference model: every parked party in one queue per side and
/// channel, in arrival order, cancelled ones skipped lazily, an `Alt`'s
/// cells queued where they were parked until a sender pops them — the
/// pairing the inline slot must keep.
struct Model {
    senders: Vec<std::collections::VecDeque<usize>>,
    receivers: Vec<std::collections::VecDeque<Rx>>,
    waiting: Vec<bool>,
    out: Vec<Option<Outcome>>,
    /// Per `Alt` party: the round op that is armed, and which cells are queued.
    armed: Vec<Option<usize>>,
    cell_queued: Vec<Vec<bool>>,
    /// Times a plain party parked behind a live one of its own side.
    second_parkers: u32,
}

impl Model {
    fn pair(&mut self, t: u64, send: usize, recv: usize, branch: usize) {
        self.waiting[send] = false;
        self.waiting[recv] = false;
        self.out[send] = Some(Outcome::Sent(t));
        self.out[recv] = Some(Outcome::Got {
            at: t,
            branch,
            from: send,
        });
    }

    fn pop_live_sender(&mut self, ch: usize) -> Option<usize> {
        while let Some(s) = self.senders[ch].pop_front() {
            if self.waiting[s] {
                return Some(s);
            }
        }
        None
    }

    fn send(&mut self, t: u64, op: usize, ch: usize) {
        while let Some(rx) = self.receivers[ch].pop_front() {
            match rx {
                Rx::Plain(r) if self.waiting[r] => return self.pair(t, op, r, ch),
                Rx::Plain(_) => {}
                Rx::Alt(p, b) => {
                    self.cell_queued[p][b] = false;
                    if let Some(round) = self.armed[p].take() {
                        return self.pair(t, op, round, b);
                    }
                }
            }
        }
        if self.senders[ch].iter().any(|&s| self.waiting[s]) {
            self.second_parkers += 1;
        }
        self.senders[ch].push_back(op);
        self.waiting[op] = true;
    }

    fn recv(&mut self, t: u64, op: usize, ch: usize) {
        if let Some(s) = self.pop_live_sender(ch) {
            return self.pair(t, s, op, ch);
        }
        let live = |rx: &Rx, m: &Model| match *rx {
            Rx::Plain(r) => m.waiting[r],
            Rx::Alt(p, _) => m.armed[p].is_some(),
        };
        if self.receivers[ch].iter().any(|rx| live(rx, self)) {
            self.second_parkers += 1;
        }
        self.receivers[ch].push_back(Rx::Plain(op));
        self.waiting[op] = true;
    }

    fn alt_round(&mut self, t: u64, op: usize, party: usize) {
        for ch in 0..self.senders.len() {
            if let Some(s) = self.pop_live_sender(ch) {
                return self.pair(t, s, op, ch);
            }
        }
        self.armed[party] = Some(op);
        self.waiting[op] = true;
        for ch in 0..self.senders.len() {
            if !self.cell_queued[party][ch] {
                self.cell_queued[party][ch] = true;
                self.receivers[ch].push_back(Rx::Alt(party, ch));
            }
        }
    }
}

/// Seeded scripts over one to three channels mixing the four ways a
/// rendezvous pairs: plain sends and receives that park alone (the inline
/// slot), parties that park behind another of their side (the queue),
/// prepared `Alt` rounds over the same channels, and sends, receives and
/// rounds cancelled by a `select2` timeout. Every pairing and every
/// completion instant must equal the FIFO reference model's.
#[test]
fn rendezvous_pairs_like_the_fifo_reference() {
    use ts_sim::{select2, Alt, Either};

    let mut rng = Rng::new(0x51b0_0006);
    let (mut second_parkers, mut alt_pairings, mut cancelled) = (0, 0, 0);
    for case in 0..256 {
        let nch = rng.range(1, 4);
        let mut used = std::collections::HashSet::new();
        let mut fresh = |rng: &mut Rng, lo: u64, span: u64| loop {
            let t = lo + rng.below(span);
            if used.insert(t) {
                return t;
            }
        };
        let parties: Vec<Party> = (0..rng.range(2, 16))
            .map(|_| {
                let ch = rng.below(nch as u64) as usize;
                let at = fresh(&mut rng, 1, 400);
                let timeout = (rng.below(3) == 0).then(|| fresh(&mut rng, at + 1, 200));
                match rng.below(9) {
                    0..=3 => Party::Send { ch, at, timeout },
                    4..=7 => Party::Recv { ch, at, timeout },
                    _ => {
                        let mut rounds = Vec::new();
                        let mut end = at;
                        for _ in 0..rng.range(1, 5) {
                            let at = fresh(&mut rng, end + 1, 100);
                            end = fresh(&mut rng, at + 1, 100);
                            rounds.push((at, end));
                        }
                        Party::Alt { rounds }
                    }
                }
            })
            .collect();
        // Op ids: each send and receive, then each round, in party order.
        let mut first_op = Vec::new();
        let mut ops = 0;
        for p in &parties {
            first_op.push(ops);
            ops += match p {
                Party::Alt { rounds } => rounds.len(),
                _ => 1,
            };
        }

        // The simulated run.
        let mut sim = Sim::new();
        let chans: Vec<Rendezvous<usize>> = (0..nch).map(|_| Rendezvous::new()).collect();
        let out: Rc<RefCell<Vec<Option<Outcome>>>> = Rc::new(RefCell::new(vec![None; ops]));
        let at_ns = |t: u64| Time::ZERO + Dur::ns(t);
        for (p, party) in parties.iter().enumerate() {
            let (h, out, chans, party, op) = (
                sim.handle(),
                out.clone(),
                chans.clone(),
                party.clone(),
                first_op[p],
            );
            sim.spawn(async move {
                let now = || h.now().as_ns();
                match party {
                    Party::Send { ch, at, timeout } => {
                        h.sleep_until(at_ns(at)).await;
                        let done = match timeout {
                            None => {
                                chans[ch].send(op).await;
                                true
                            }
                            Some(to) => {
                                let race = select2(chans[ch].send(op), h.sleep_until(at_ns(to)));
                                matches!(race.await, Either::Left(()))
                            }
                        };
                        if done {
                            out.borrow_mut()[op] = Some(Outcome::Sent(now()));
                        }
                    }
                    Party::Recv { ch, at, timeout } => {
                        h.sleep_until(at_ns(at)).await;
                        let got = match timeout {
                            None => Some(chans[ch].recv().await),
                            Some(to) => {
                                match select2(chans[ch].recv(), h.sleep_until(at_ns(to))).await {
                                    Either::Left(v) => Some(v),
                                    Either::Right(()) => None,
                                }
                            }
                        };
                        if let Some(from) = got {
                            out.borrow_mut()[op] = Some(Outcome::Got {
                                at: now(),
                                branch: ch,
                                from,
                            });
                        }
                    }
                    Party::Alt { rounds } => {
                        let mut set = Alt::new(chans);
                        for (k, (at, to)) in rounds.into_iter().enumerate() {
                            h.sleep_until(at_ns(at)).await;
                            let race = select2(set.recv(), h.sleep_until(at_ns(to)));
                            if let Either::Left((branch, from)) = race.await {
                                out.borrow_mut()[op + k] = Some(Outcome::Got {
                                    at: now(),
                                    branch,
                                    from,
                                });
                            }
                        }
                    }
                }
            });
        }
        sim.run();

        // The reference model, event by event in instant order.
        enum Ev {
            Arrive(usize),
            Timeout(usize),
        }
        let mut events: Vec<(u64, usize, Ev)> = Vec::new();
        let mut alt_party = vec![None; ops];
        for (p, party) in parties.iter().enumerate() {
            let op = first_op[p];
            match party {
                Party::Send { at, timeout, .. } | Party::Recv { at, timeout, .. } => {
                    events.push((*at, p, Ev::Arrive(op)));
                    if let Some(to) = timeout {
                        events.push((*to, p, Ev::Timeout(op)));
                    }
                }
                Party::Alt { rounds } => {
                    for (k, &(at, to)) in rounds.iter().enumerate() {
                        alt_party[op + k] = Some(p);
                        events.push((at, p, Ev::Arrive(op + k)));
                        events.push((to, p, Ev::Timeout(op + k)));
                    }
                }
            }
        }
        events.sort_by_key(|e| e.0);
        let mut m = Model {
            senders: vec![Default::default(); nch],
            receivers: vec![Default::default(); nch],
            waiting: vec![false; ops],
            out: vec![None; ops],
            armed: vec![None; parties.len()],
            cell_queued: vec![vec![false; nch]; parties.len()],
            second_parkers: 0,
        };
        for (t, p, ev) in events {
            match (ev, &parties[p]) {
                (Ev::Arrive(op), Party::Send { ch, .. }) => m.send(t, op, *ch),
                (Ev::Arrive(op), Party::Recv { ch, .. }) => m.recv(t, op, *ch),
                (Ev::Arrive(op), Party::Alt { .. }) => m.alt_round(t, op, p),
                (Ev::Timeout(op), _) => {
                    if m.waiting[op] {
                        m.waiting[op] = false;
                        cancelled += 1;
                        if alt_party[op].is_some() {
                            m.armed[p] = None;
                        }
                    }
                }
            }
        }
        second_parkers += m.second_parkers;
        alt_pairings += m
            .out
            .iter()
            .zip(&alt_party)
            .filter(|(o, p)| o.is_some() && p.is_some())
            .count();
        assert_eq!(*out.borrow(), m.out, "case {case}: {parties:?}");
    }
    // The scripts mixed all four cases.
    assert!(second_parkers > 200 && alt_pairings > 100 && cancelled > 200);
}
