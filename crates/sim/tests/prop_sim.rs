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
