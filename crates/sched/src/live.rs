//! The live driver: [`Scheduler::run_batch`] runs jobs on a simulated
//! machine and tells [`crate::admission`] what the machine adds to a queue
//! — arrivals on its clock, faults, phase boundaries and priority
//! preemption. Who waits, ages, reserves and starts is decided there.
//!
//! ## Preemption and faults without task cancellation
//!
//! The deterministic executor cannot kill a task, so the scheduler never
//! needs to: jobs only yield the machine at **phase boundaries**, where
//! a partition has no live tasks and its whole state is node memory.
//! Every job owns a [`t_series_core::checkpoint::CheckpointStore`] sized
//! for its subcube — the same saved-memory format the machine-wide
//! checkpoint uses — filled by [`Machine::capture_subcube`] (a full image
//! at first placement, the dirty rows at each later boundary) and loaded
//! by [`Machine::load_subcube`]. Preemption marks a running job; at its
//! next boundary the scheduler captures the partition into the job's
//! store, frees the subcube and re-queues the job, which later resumes —
//! bit-identically — on whatever subcube is free. A fault (crashed node,
//! latent parity error) inside a partition instead **condemns** the
//! subcube permanently: its parked tasks and corrupt memory are harmless
//! on nodes that are never handed out again, and the job is re-allocated
//! to a fresh subcube and replayed from its last boundary checkpoint.
//!
//! Checkpoint streaming cost is charged as a gate before the job's next
//! phase launches — each boundary's dirty-row delta when captured, an
//! evicted job's last delta plus the full image back in when it resumes,
//! all at the module disk's 1 MB/s; the host-side capture and load
//! themselves take no simulated time, mirroring how
//! [`t_series_core::supervisor`] charges snapshot cost to job time.

use std::cmp::Reverse;

use t_series_core::checkpoint::CheckpointStore;
use t_series_core::Machine;
use ts_cube::{NodeId, Subcube};
use ts_sim::{mflops, Counter, Dur, JoinHandle, Time, Tracer, TrackId};

use crate::admission::{Admission, RESERVE_AFTER};
use crate::{BatchReport, JobOutcome, JobSpec, Policy};

enum State {
    /// Waiting for a subcube (not yet arrived, fresh, or evicted).
    Queued,
    /// Holding `sub`. `handles` is `None` between placement and the
    /// first launch (the resume gate), `Some` while a phase is in
    /// flight.
    Running {
        sub: Subcube,
        gate: Time,
        held_since: Time,
        handles: Option<Vec<JoinHandle<()>>>,
    },
    Done,
}

struct Job {
    spec: JobSpec,
    state: State,
    next_phase: u32,
    /// Boundary checkpoint: the partition's memory (virtual node order)
    /// with phases `0..next_phase` applied. Nothing committed until first
    /// placement; kept current by each boundary's dirty-row delta.
    ckpt: CheckpointStore,
    /// Delta bytes captured at the last eviction, still to be streamed
    /// out — charged (with the full image back in) at the resume gate.
    pending_out_bytes: u64,
    preempt_requested: bool,
    preemptions: u32,
    reallocations: u32,
    wait: Dur,
    run: Dur,
    done_at: Option<Time>,
    result: Vec<u64>,
    meters: JobMeters,
}

/// The `job/{id}/...` counters a job can bump more than once, and its
/// Perfetto track. Each registers the first time it is used — the registry
/// lists only what happened to a job — and is a held handle from then on:
/// a boundary costs a `Cell` store, not a formatted path and a map lookup.
#[derive(Default)]
struct JobMeters {
    preemptions: Option<Counter>,
    reallocations: Option<Counter>,
    ckpt_bytes_in: Option<Counter>,
    ckpt_bytes_out: Option<Counter>,
    track: Option<TrackId>,
}

/// Register (or look up) the counter `job/{id}/{name}`.
fn job_counter(m: &Machine, id: usize, name: &str) -> Counter {
    m.registry().counter(&format!("job/{id}/{name}"))
}

/// Add `n` to `job/{id}/{name}`, held in `slot` from its first use on.
fn bump(slot: &mut Option<Counter>, m: &Machine, id: usize, name: &str, n: u64) {
    slot.get_or_insert_with(|| job_counter(m, id, name)).add(n);
}

/// The space-sharing runtime. Construct with [`Scheduler::new`],
/// optionally enable [`Scheduler::aging`], then [`Scheduler::run_batch`].
pub struct Scheduler {
    pub(crate) policy: Policy,
    pub(crate) aging: Option<(Dur, u32)>,
    /// Reservation grace (`admission.rs`): none behind the service's door.
    pub(crate) grace: Dur,
}

/// Scheduling granularity: phase boundaries, arrivals and faults are
/// observed at most this much simulated time after they occur.
const QUANTUM: Dur = Dur::us(50);

/// The gate a job waits out while `bytes` of checkpoint traffic stream at
/// the module disk rate: each boundary's dirty-row delta is charged as a
/// gate when captured, and a resume charges the evicted job's pending delta
/// plus the full image back in before its next phase may launch.
fn stream_gate(now: Time, bytes: u64) -> Time {
    now + Dur::from_secs_f64(bytes as f64 / t_series_core::system::DISK_RATE)
}

impl Scheduler {
    /// A scheduler with the given queue policy and no priority aging.
    pub fn new(policy: Policy) -> Scheduler {
        Scheduler {
            policy,
            aging: None,
            grace: RESERVE_AFTER,
        }
    }

    /// Enable priority aging: a waiting job gains one priority level per
    /// `period` spent in the queue, up to `max_boost` levels, so a
    /// best-effort stream cannot be starved by a stream of urgent
    /// arrivals. The boost resets whenever the job is placed.
    pub fn aging(mut self, period: Dur, max_boost: u32) -> Scheduler {
        assert!(!period.is_zero(), "aging period must be positive");
        self.aging = Some((period, max_boost));
        self
    }

    /// Run a batch of jobs to completion on `m`, space-sharing the cube.
    /// Deterministic: the same machine, batch and scheduler settings
    /// produce the same report, bit for bit.
    pub fn run_batch(
        &self,
        m: &mut Machine,
        specs: Vec<JobSpec>,
        tracer: Option<&Tracer>,
    ) -> BatchReport {
        let machine_dim = m.cube.dim();
        for s in &specs {
            assert!(
                s.dim <= machine_dim,
                "job '{}' wants a {}-cube of a {machine_dim}-cube",
                s.name,
                s.dim
            );
        }
        let t0 = m.now();
        let mut adm = Admission::new(
            self.policy,
            self.aging,
            self.grace,
            machine_dim,
            specs.len(),
        );
        let mut jobs: Vec<Job> = specs
            .into_iter()
            .map(|spec| Job {
                ckpt: CheckpointStore::new(1 << spec.dim),
                spec,
                state: State::Queued,
                next_phase: 0,
                pending_out_bytes: 0,
                preempt_requested: false,
                preemptions: 0,
                reallocations: 0,
                wait: Dur::ZERO,
                run: Dur::ZERO,
                done_at: None,
                result: Vec::new(),
                meters: JobMeters::default(),
            })
            .collect();
        // Job ids by arrival; the first `arrived` of them have arrived.
        let mut arrivals: Vec<usize> = (0..jobs.len()).collect();
        arrivals.sort_by_key(|&id| (jobs[id].spec.submit_at, id));
        let mut arrived = 0;
        // Ids of the jobs holding a subcube, ascending: at most one per
        // node, and the only jobs the patrol and the boundary step visit.
        let mut running: Vec<usize> = Vec::new();
        let mut done = 0;

        loop {
            let now = m.now();

            // 1. Arrivals join the queue.
            while let Some(&id) = arrivals.get(arrived) {
                let spec = &jobs[id].spec;
                let at = t0 + spec.submit_at;
                if at > now {
                    break;
                }
                arrived += 1;
                adm.enqueue(id, at, spec.priority, spec.deadline, spec.dim);
            }

            // 2. Fault patrol: a crashed node or latent parity error
            //    inside a partition condemns exactly the failed nodes
            //    (the buddy allocator splits the block and frees the
            //    healthy buddies); the job re-queues for a fresh subcube
            //    and boundary replay.
            running.retain(|&id| {
                let job = &mut jobs[id];
                let State::Running {
                    sub,
                    held_since,
                    handles,
                    ..
                } = &job.state
                else {
                    unreachable!("the running set holds running jobs");
                };
                let sick = |p: NodeId| m.nodes[p as usize].is_unfit();
                if !sub.iter().any(sick) {
                    return true;
                }
                // Retire the failed nodes, plus any node whose phase task
                // is still parked: its channels are not quiescent, and a
                // stale receiver could steal a successor job's messages.
                // Nodes whose task already completed are healthy buddies —
                // the allocator splits the block and returns them to the
                // free lists.
                let mut retire: Vec<NodeId> = sub.iter().filter(|&p| sick(p)).collect();
                if let Some(hs) = handles {
                    for (v, p) in sub.iter().enumerate() {
                        if !hs[v].is_finished() && !retire.contains(&p) {
                            retire.push(p);
                        }
                    }
                }
                adm.condemn(sub, &retire);
                let held_since = *held_since;
                job.state = State::Queued;
                job.reallocations += 1;
                bump(&mut job.meters.reallocations, m, id, "reallocations", 1);
                // In-flight tasks of the lost phase stay parked on the
                // retired nodes — harmless, never reused. The
                // eviction-time delta (if any) died with the subcube:
                // replay restarts from the last committed boundary.
                job.pending_out_bytes = 0;
                job.run += now.since(held_since);
                job.record_span(tracer, id, held_since, now);
                job.preempt_requested = false;
                adm.requeue(id, now);
                false
            });

            // 3. Advance running jobs at phase boundaries.
            running.retain(|&id| {
                let job = &mut jobs[id];
                let State::Running {
                    sub,
                    gate,
                    held_since,
                    handles,
                } = &mut job.state
                else {
                    unreachable!("the running set holds running jobs");
                };
                if now < *gate {
                    return true;
                }
                // Past its gate a job is ready to launch its next phase, or
                // the phase in flight has drained.
                let phase_done = match handles {
                    None => false,
                    Some(hs) if hs.iter().all(|h| h.is_finished()) => true,
                    Some(_) => return true,
                };
                let held_since = *held_since;
                if phase_done {
                    job.next_phase += 1;
                }
                if phase_done && job.next_phase >= job.spec.kernel.phases() {
                    job.result = job.spec.kernel.result(m, sub);
                    adm.release(sub);
                    job.state = State::Done;
                    job.run += now.since(held_since);
                    job.done_at = Some(now);
                    done += 1;
                    job.record_span(tracer, id, held_since, now);
                    job_counter(m, id, "wait_us").add(job.wait.as_ns() / 1_000);
                    job_counter(m, id, "run_us").add(job.run.as_ns() / 1_000);
                    job_counter(m, id, "flops").add(job.spec.kernel.flops(job.spec.dim));
                    return false;
                }
                // After a phase, fold the rows it dirtied into the checkpoint
                // and book the delta's wire size.
                let mut delta = 0;
                if phase_done {
                    delta = m
                        .capture_subcube(&mut job.ckpt, sub)
                        .unwrap_or_else(|e| panic!("boundary checkpoint of job {id} failed: {e}"));
                    bump(
                        &mut job.meters.ckpt_bytes_out,
                        m,
                        id,
                        "ckpt_bytes_out",
                        delta,
                    );
                }
                if job.preempt_requested {
                    // Evict. A fresh delta's stream-out is still owed and is
                    // charged at resume, on top of the full restore; at the
                    // gate the last one is already paid for.
                    if phase_done {
                        job.pending_out_bytes = delta;
                    }
                    adm.release(sub);
                    job.state = State::Queued;
                    job.preemptions += 1;
                    bump(&mut job.meters.preemptions, m, id, "preemptions", 1);
                    job.run += now.since(held_since);
                    job.record_span(tracer, id, held_since, now);
                    job.preempt_requested = false;
                    adm.requeue(id, now);
                    return false;
                }
                if phase_done {
                    // Charge the delta's stream-out as a gate before the
                    // next phase may launch.
                    *gate = stream_gate(now, delta);
                    *handles = None;
                } else {
                    *handles = Some(job.spec.kernel.launch_phase(m, sub, job.next_phase));
                }
                true
            });

            // 4. Priority preemption: once waiting has aged whom it may,
            //    if the most urgent waiting job cannot be placed, ask the
            //    least important running job (youngest on ties) to yield
            //    at its next boundary. The comparison uses *spec*
            //    priorities — an aging boost moves a job up the queue but
            //    never grants it eviction rights over its own class, else
            //    equal-priority jobs under scarcity preempt each other in
            //    an endless evict/resume cycle.
            adm.age(now);
            if let Some(cand_pri) = adm.blocked_head().map(|id| jobs[id].spec.priority) {
                let victim = running
                    .iter()
                    .copied()
                    .filter(|&id| jobs[id].spec.priority < cand_pri && !jobs[id].preempt_requested)
                    .min_by_key(|&id| (jobs[id].spec.priority, Reverse(id)));
                if let Some(v) = victim {
                    jobs[v].preempt_requested = true;
                }
            }

            // 5. Whoever the admission policy lets start, starts.
            adm.place(now, |id, sub, waited| {
                jobs[id].start(m, id, now, sub, waited);
                let at = running.binary_search(&id).unwrap_err();
                running.insert(at, id);
            });

            if done == jobs.len() {
                break;
            }
            // Stall guard: nothing running (so nothing was placeable) and
            // nothing still to arrive — condemnations have eaten the machine.
            if running.is_empty() && arrived == jobs.len() {
                let stuck: Vec<&str> = jobs
                    .iter()
                    .filter(|j| matches!(j.state, State::Queued))
                    .map(|j| j.spec.name.as_str())
                    .collect();
                panic!("scheduler stalled: no free subcube will ever fit {stuck:?}");
            }
            // The executor advances time only along timers, so a machine
            // whose every job is gated (e.g. all waiting out a resume
            // cost) would leave the clock short of the quantum: move it
            // the rest of the way so scheduler time flows regardless.
            m.run_for(QUANTUM);
            m.advance_to(now + QUANTUM);
        }

        let makespan = jobs
            .iter()
            .filter_map(|j| j.done_at)
            .max()
            .map_or(Dur::ZERO, |t| t.since(t0));
        let total_wait: u64 = jobs.iter().map(|j| j.wait.as_ps()).sum();
        let node_time: f64 = jobs
            .iter()
            .map(|j| j.run.as_secs_f64() * (1u64 << j.spec.dim) as f64)
            .sum();
        let capacity = makespan.as_secs_f64() * (1u64 << machine_dim) as f64;
        let outcomes: Vec<JobOutcome> = jobs
            .into_iter()
            .enumerate()
            .map(|(id, j)| {
                let turnaround = j
                    .done_at
                    .expect("all jobs done")
                    .since(t0 + j.spec.submit_at);
                JobOutcome {
                    id: id as u32,
                    dim: j.spec.dim,
                    priority: j.spec.priority,
                    wait: j.wait,
                    run: j.run,
                    turnaround,
                    preemptions: j.preemptions,
                    reallocations: j.reallocations,
                    mflops: mflops(j.spec.kernel.flops(j.spec.dim), j.run),
                    missed_deadline: j.spec.deadline.is_some_and(|d| turnaround > d),
                    name: j.spec.name,
                    result: j.result,
                }
            })
            .collect();
        BatchReport {
            makespan,
            mean_wait: Dur::ps(total_wait / outcomes.len().max(1) as u64),
            utilization: if capacity > 0.0 {
                node_time / capacity
            } else {
                0.0
            },
            preemptions: outcomes.iter().map(|j| j.preemptions).sum(),
            reallocations: outcomes.iter().map(|j| j.reallocations).sum(),
            aging_promotions: adm.promotions as u32,
            edf_reorders: adm.edf_reorders as u32,
            jobs: outcomes,
        }
    }
}

impl Job {
    /// Take the subcube `sub` after `waited` in the queue: `Running` with
    /// no phase launched yet (the boundary step launches once the resume
    /// gate has passed).
    fn start(&mut self, m: &mut Machine, id: usize, now: Time, sub: Subcube, waited: Dur) {
        self.wait += waited;
        let gate = if self.ckpt.has_committed() {
            let full_in = m
                .load_subcube(&self.ckpt, &sub)
                .unwrap_or_else(|e| panic!("restore of job {id} failed: {e}"));
            let bytes = full_in + self.pending_out_bytes;
            self.pending_out_bytes = 0;
            bump(
                &mut self.meters.ckpt_bytes_in,
                m,
                id,
                "ckpt_bytes_in",
                full_in,
            );
            stream_gate(now, bytes)
        } else {
            // First placement: initialise memory, take the baseline
            // boundary checkpoint (host-side, free — streaming cost
            // is charged at resume, never on the fresh path).
            self.spec.kernel.setup(m, &sub);
            m.capture_subcube(&mut self.ckpt, &sub)
                .unwrap_or_else(|e| panic!("baseline checkpoint of job {id} failed: {e}"));
            now
        };
        self.state = State::Running {
            sub,
            gate,
            held_since: now,
            handles: None,
        };
    }

    /// One Perfetto span on the job's `job/{id}` track for a held interval.
    fn record_span(&mut self, tracer: Option<&Tracer>, id: usize, start: Time, end: Time) {
        if let Some(t) = tracer {
            let track = *self
                .meters
                .track
                .get_or_insert_with(|| t.track(&format!("job/{id}")));
            t.record_span(track, start, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_standalone, JobKernel};
    use t_series_core::MachineCfg;

    fn cfg(dim: u32) -> MachineCfg {
        MachineCfg::cube_small_mem(dim, 8)
    }

    #[test]
    fn single_job_batch_matches_standalone() {
        let spec = JobSpec::new("solo", 1, JobKernel::AllReduce { phases: 2 });
        let alone = run_standalone(cfg(1), &spec);
        let mut m = Machine::build(cfg(3));
        let rep = Scheduler::new(Policy::Fcfs).run_batch(&mut m, vec![spec], None);
        assert_eq!(rep.jobs[0].result, alone.result);
        assert_eq!(rep.jobs[0].preemptions, 0);
        assert!(rep.makespan > Dur::ZERO);
    }

    #[test]
    fn concurrent_jobs_stay_isolated() {
        // Four dim-1 jobs fill a 3-cube's lower half plus two more —
        // all run concurrently, none corrupts another's results.
        let mk = |i: u32| {
            JobSpec::new(
                &format!("j{i}"),
                1,
                JobKernel::AllReduce {
                    phases: 2 + (i % 2),
                },
            )
        };
        let alone: Vec<_> = (0..4).map(|i| run_standalone(cfg(1), &mk(i))).collect();
        let mut m = Machine::build(cfg(3));
        let rep =
            Scheduler::new(Policy::FcfsBackfill).run_batch(&mut m, (0..4).map(mk).collect(), None);
        for (i, a) in alone.iter().enumerate() {
            assert_eq!(
                rep.jobs[i].result, a.result,
                "job {i} diverged from its dedicated run"
            );
        }
        // All four fit at once, so nobody should have waited long.
        assert!(rep.utilization > 0.0 && rep.utilization <= 1.0);
    }

    #[test]
    fn deadline_outcome_is_reported() {
        let fast = JobSpec::new(
            "fast",
            0,
            JobKernel::Saxpy {
                phases: 1,
                sweeps: 1,
            },
        )
        .deadline(Dur::secs(1));
        let late = JobSpec::new(
            "late",
            0,
            JobKernel::Saxpy {
                phases: 2,
                sweeps: 4,
            },
        )
        .deadline(Dur::ps(1));
        let mut m = Machine::build(cfg(2));
        let rep = Scheduler::new(Policy::Fcfs).run_batch(&mut m, vec![fast, late], None);
        assert!(!rep.jobs[0].missed_deadline);
        assert!(rep.jobs[1].missed_deadline);
    }

    #[test]
    fn batch_run_is_deterministic() {
        let batch = || {
            vec![
                JobSpec::new("a", 2, JobKernel::AllReduce { phases: 2 }),
                JobSpec::new(
                    "b",
                    1,
                    JobKernel::Saxpy {
                        phases: 2,
                        sweeps: 3,
                    },
                ),
                JobSpec::new(
                    "c",
                    0,
                    JobKernel::Saxpy {
                        phases: 1,
                        sweeps: 2,
                    },
                ),
                JobSpec::new("d", 1, JobKernel::AllReduce { phases: 1 }),
            ]
        };
        let run = || {
            let mut m = Machine::build(cfg(2));
            Scheduler::new(Policy::FcfsBackfill)
                .run_batch(&mut m, batch(), None)
                .render()
        };
        assert_eq!(run(), run(), "same batch must render byte-identically");
    }

    /// Satellite regression: under backfill, a wide job at the head of
    /// the queue must not be starved by an open-ended stream of small
    /// jobs. The head's reservation keeps backfill out of the block it
    /// is waiting for, so it runs long before the stream drains.
    #[test]
    fn backfill_reservation_prevents_head_starvation() {
        let mut specs = vec![JobSpec::new(
            "wide",
            3,
            JobKernel::Saxpy {
                phases: 1,
                sweeps: 1,
            },
        )
        .submit_at(Dur::us(60))];
        // A dense stream of pair jobs: the first wave fills the 3-cube
        // before the wide job arrives, and fresh arrivals land faster
        // than jobs finish, so naive backfill would keep the wide head
        // waiting long past the reservation grace period — and without
        // the reservation it would run dead last.
        for i in 0..60 {
            specs.push(
                JobSpec::new(
                    &format!("s{i}"),
                    1,
                    JobKernel::Saxpy {
                        phases: 1,
                        sweeps: 6,
                    },
                )
                .submit_at(Dur::us(40 * i)),
            );
        }
        let mut m = Machine::build(cfg(3));
        let rep = Scheduler::new(Policy::FcfsBackfill).run_batch(&mut m, specs, None);
        let done_at = |j: &JobOutcome, spec_submit: Dur| spec_submit + j.turnaround;
        let wide_done = done_at(&rep.jobs[0], Dur::us(60));
        let later = rep.jobs[1..]
            .iter()
            .enumerate()
            .filter(|(i, j)| done_at(j, Dur::us(40 * *i as u64)) > wide_done)
            .count();
        assert!(
            later >= 15,
            "wide head must finish well before the stream drains ({later} after it)"
        );
    }

    #[test]
    fn aging_lets_batch_overtake_an_urgent_stream() {
        // One batch job queued behind a steady stream of *fresh* urgent
        // arrivals on a 1-cube (one job at a time) — the classic
        // starvation shape, since each new urgent job outranks the
        // waiting batch job. Without aging the batch job runs dead
        // last; with aging its boost eventually beats a fresh arrival
        // and part of the stream finishes after it.
        let build = |aging: Option<(Dur, u32)>| {
            let mut specs = vec![JobSpec::new(
                "batch",
                1,
                JobKernel::Saxpy {
                    phases: 1,
                    sweeps: 1,
                },
            )];
            for i in 0..10 {
                specs.push(
                    JobSpec::new(
                        &format!("u{i}"),
                        1,
                        JobKernel::Saxpy {
                            phases: 1,
                            sweeps: 1,
                        },
                    )
                    .priority(5)
                    .submit_at(Dur::us(100 * i)),
                );
            }
            let mut m = Machine::build(cfg(1));
            let mut s = Scheduler::new(Policy::Fcfs);
            if let Some((p, b)) = aging {
                s = s.aging(p, b);
            }
            s.run_batch(&mut m, specs, None)
        };
        let done = |jobs: &[JobOutcome]| -> Vec<Dur> {
            jobs.iter()
                .map(|j| {
                    let submit = if j.id == 0 {
                        Dur::ZERO
                    } else {
                        Dur::us(100 * (j.id as u64 - 1))
                    };
                    submit + j.turnaround
                })
                .collect()
        };
        let plain = build(None);
        assert_eq!(plain.aging_promotions, 0);
        let d = done(&plain.jobs);
        assert!(
            d[1..].iter().all(|&t| t <= d[0]),
            "without aging the batch job finishes last"
        );
        let aged = build(Some((Dur::us(100), 8)));
        assert!(aged.aging_promotions > 0, "waiting must earn promotions");
        let d = done(&aged.jobs);
        assert!(
            d[1..].iter().any(|&t| t > d[0]),
            "with aging the batch job must overtake part of the stream"
        );
    }

    #[test]
    fn edf_orders_equal_priority_jobs_by_deadline() {
        // Three same-priority jobs with inverted deadline order on a
        // 1-cube: placement must follow deadlines, not submission ids.
        let specs = vec![
            JobSpec::new("loose", 1, JobKernel::AllReduce { phases: 1 }).deadline(Dur::ms(30)),
            JobSpec::new("mid", 1, JobKernel::AllReduce { phases: 1 }).deadline(Dur::ms(20)),
            JobSpec::new("tight", 1, JobKernel::AllReduce { phases: 1 }).deadline(Dur::ms(10)),
        ];
        let mut m = Machine::build(cfg(1));
        let rep = Scheduler::new(Policy::Fcfs).run_batch(&mut m, specs, None);
        assert!(rep.edf_reorders > 0, "deadline order differs from id order");
        let done: Vec<Dur> = rep.jobs.iter().map(|j| j.turnaround).collect();
        assert!(
            done[2] < done[1] && done[1] < done[0],
            "completion must follow deadline order, got {done:?}"
        );
    }
}
