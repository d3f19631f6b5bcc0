//! # ts-sched — space-sharing job scheduler for the T Series
//!
//! The paper's machine is built from 8-node modules that each form a
//! 3-subcube (§III), and any aligned subcube of a binary n-cube is a
//! complete hypercube — so the machine is naturally *space-shareable*:
//! disjoint subcubes can run independent jobs with full isolation, the
//! partitioned mode of operation contemporary hypercubes shipped with.
//! This crate adds that system-software layer on top of
//! [`t_series_core::Machine`]:
//!
//! * [`BuddyAllocator`] — deterministic buddy allocation of aligned
//!   d-subcubes (split/coalesce, module affinity for free);
//! * [`JobSpec`] / [`JobKernel`] — phase-structured SPMD jobs that
//!   address nodes only by virtual id, so results are bit-identical on
//!   any subcube of the right dimension;
//! * [`Scheduler`] — a space-sharing runtime driving many jobs
//!   concurrently on one simulated machine under [`Policy::Fcfs`] or
//!   [`Policy::FcfsBackfill`], with priority preemption and fault-driven
//!   re-allocation, both via a per-job checkpoint store kept current at
//!   phase boundaries;
//! * per-job accounting — `job/{id}/...` counters in the machine's
//!   [`ts_sim::MetricsRegistry`] and job spans on a Perfetto
//!   [`ts_sim::Tracer`].
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

mod buddy;
mod job;
mod service;

pub use buddy::BuddyAllocator;
pub use job::{JobKernel, JobSpec};
pub use service::{ServiceCfg, ServiceReport, ServiceScheduler};

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use t_series_core::checkpoint::CheckpointStore;
use t_series_core::{Machine, MachineCfg};
use ts_cube::{NodeId, Subcube};
use ts_sim::{Counter, Dur, JoinHandle, Time, Tracer, TrackId};

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

/// What one job experienced, measured by the scheduler.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job id (submission order).
    pub id: u32,
    /// Name from the spec.
    pub name: String,
    /// Subcube dimension the job ran on.
    pub dim: u32,
    /// Priority from the spec.
    pub priority: u32,
    /// Total time spent queued (arrival to placement, summed over
    /// every eviction/re-queue cycle).
    pub wait: Dur,
    /// Total time holding a subcube (including resume gates).
    pub run: Dur,
    /// Submission to completion.
    pub turnaround: Dur,
    /// Times the job was evicted for a higher-priority job.
    pub preemptions: u32,
    /// Times a fault forced re-allocation to a fresh subcube.
    pub reallocations: u32,
    /// Achieved MFLOPS over the job's run time.
    pub mflops: f64,
    /// Did the job finish after its deadline?
    pub missed_deadline: bool,
    /// The job's numerical result (f64 bit patterns in virtual node
    /// order) — the unit of the bit-identity guarantees.
    pub result: Vec<u64>,
}

/// Batch-level summary returned by [`Scheduler::run_batch`].
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<JobOutcome>,
    /// Batch start to last completion.
    pub makespan: Dur,
    /// Mean of the jobs' wait times.
    pub mean_wait: Dur,
    /// Node-time actually allocated to jobs over `makespan × nodes`.
    pub utilization: f64,
    /// Total preemptions across the batch.
    pub preemptions: u32,
    /// Total fault-driven re-allocations across the batch.
    pub reallocations: u32,
    /// Priority-aging steps granted to waiting jobs (see
    /// [`Scheduler::aging`]).
    pub aging_promotions: u32,
    /// Placements where a deadline pulled a job ahead of an
    /// earlier-submitted job of equal effective priority.
    pub edf_reorders: u32,
}

impl BatchReport {
    /// Render the report as a fixed-width table (deterministic: same
    /// batch, same bytes).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:>3} {:<12} {:>3} {:>3} {:>12} {:>12} {:>7} {:>7} {:>9}",
            "job", "name", "dim", "pri", "wait", "run", "preempt", "realloc", "MFLOPS"
        );
        for j in &self.jobs {
            let _ = writeln!(
                s,
                "{:>3} {:<12} {:>3} {:>3} {:>10.1}us {:>10.1}us {:>7} {:>7} {:>9.3}{}",
                j.id,
                j.name,
                j.dim,
                j.priority,
                j.wait.as_us_f64(),
                j.run.as_us_f64(),
                j.preemptions,
                j.reallocations,
                j.mflops,
                if j.missed_deadline { "  LATE" } else { "" }
            );
        }
        let _ = writeln!(
            s,
            "makespan {:.1}us  mean wait {:.1}us  utilization {:.1}%  \
             preemptions {}  reallocations {}  promotions {}  edf {}",
            self.makespan.as_us_f64(),
            self.mean_wait.as_us_f64(),
            self.utilization * 100.0,
            self.preemptions,
            self.reallocations,
            self.aging_promotions,
            self.edf_reorders
        );
        s
    }
}

/// A job's dedicated-machine reference run (see [`run_standalone`]).
#[derive(Debug, Clone)]
pub struct StandaloneRun {
    /// Result bits, virtual node order.
    pub result: Vec<u64>,
    /// Simulated duration of the phases.
    pub elapsed: Dur,
}

/// Run `spec` alone on a dedicated cube of exactly its dimension — the
/// reference against which space-shared runs must be bit-identical.
pub fn run_standalone(cfg: MachineCfg, spec: &JobSpec) -> StandaloneRun {
    assert_eq!(
        cfg.dim, spec.dim,
        "dedicated machine must match the job's dim"
    );
    let mut m = Machine::build(cfg);
    let sub = Subcube::aligned(0, spec.dim);
    spec.kernel.setup(&m, &sub);
    let t0 = m.now();
    for p in 0..spec.kernel.phases() {
        let handles = spec.kernel.launch_phase(&mut m, &sub, p);
        assert!(m.run().quiescent, "standalone phase {p} stalled");
        debug_assert!(handles.iter().all(|h| h.is_finished()));
    }
    StandaloneRun {
        result: spec.kernel.result(&m, &sub),
        elapsed: m.now().since(t0),
    }
}

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

/// What a gate-passed running job is ready for at this scheduler tick.
enum BoundaryKind {
    /// The resume/checkpoint gate has passed; launch the next phase.
    Launch,
    /// The in-flight phase's tasks have all finished.
    PhaseDone,
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
    /// When the current wait interval began (arrival or re-queue).
    queued_at: Time,
    /// Priority-aging boost earned in the current wait interval; added
    /// to the spec priority for ordering and preemption decisions.
    boost: u32,
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

/// A job's effective priority: spec priority plus its aging boost.
fn eff_priority(job: &Job) -> u32 {
    job.spec.priority + job.boost
}

/// Absolute-deadline sort key (ps since batch start); best-effort jobs
/// sort after every deadline.
fn deadline_key(job: &Job) -> u64 {
    job.spec
        .deadline
        .map_or(u64::MAX, |d| (job.spec.submit_at + d).as_ps())
}

/// What the wait queue sorts by, most urgent first: effective priority
/// descending (spec priority plus aging boost), then earliest absolute
/// deadline (EDF among equals; best-effort jobs last), then submission
/// order.
type QueueKey = (Reverse<u32>, u64, usize);

fn queue_key(id: usize, job: &Job) -> QueueKey {
    (Reverse(eff_priority(job)), deadline_key(job), id)
}

/// The jobs that have arrived and are waiting for a subcube, kept in
/// placement order, plus the instant each next earns an aging step — so a
/// tick touches the jobs whose standing changed, not every job.
struct WaitQueue {
    /// `(period, max boost)`; `None` when waiting earns nothing.
    aging: Option<(Dur, u32)>,
    /// Sorted; a job's key changes only when aging promotes it.
    order: Vec<QueueKey>,
    /// Min-heap of `(instant the next aging step is due, job id, start of
    /// the wait interval earning it)`. An entry whose interval has ended
    /// (the job was placed since) is dropped when it comes due.
    due: BinaryHeap<Reverse<(Time, usize, Time)>>,
}

impl WaitQueue {
    /// Enter `job`, whose wait starts at its `queued_at` with no boost.
    fn push(&mut self, id: usize, job: &Job) {
        debug_assert!(job.boost == 0 && matches!(job.state, State::Queued));
        let key = queue_key(id, job);
        let at = self.order.binary_search(&key).unwrap_err();
        self.order.insert(at, key);
        if let Some((period, _)) = self.aging {
            self.due
                .push(Reverse((job.queued_at + period, id, job.queued_at)));
        }
    }

    /// Re-enter `job`, evicted or condemned off its subcube at `now`: a
    /// fresh wait, and whatever asked it to yield has been served.
    fn requeue(&mut self, id: usize, job: &mut Job, now: Time) {
        job.preempt_requested = false;
        job.queued_at = now;
        job.boost = 0;
        self.push(id, job);
    }

    /// Age the waiting jobs: one priority level per period spent queued,
    /// capped, so urgent streams cannot starve batch. Returns the levels
    /// granted at this tick.
    fn age(&mut self, now: Time, jobs: &mut [Job]) -> u32 {
        let Some((period, max_boost)) = self.aging else {
            return 0;
        };
        let mut granted = 0;
        while let Some(&Reverse((due, id, since))) = self.due.peek() {
            if due > now {
                break;
            }
            self.due.pop();
            let job = &mut jobs[id];
            if !matches!(job.state, State::Queued) || job.queued_at != since {
                continue;
            }
            let at = self
                .order
                .binary_search(&queue_key(id, job))
                .expect("a waiting job is in the queue");
            self.order.remove(at);
            let steps = (now.since(job.queued_at).as_ps() / period.as_ps()) as u32;
            let boost = steps.min(max_boost);
            granted += boost - job.boost;
            job.boost = boost;
            let key = queue_key(id, job);
            let at = self.order.binary_search(&key).unwrap_err();
            self.order.insert(at, key);
            if boost < max_boost {
                let next = job.queued_at + period * (boost as u64 + 1);
                self.due.push(Reverse((next, id, since)));
            }
        }
        granted
    }
}

/// The space-sharing runtime. Construct with [`Scheduler::new`],
/// optionally enable [`Scheduler::aging`], then [`Scheduler::run_batch`].
pub struct Scheduler {
    policy: Policy,
    aging: Option<(Dur, u32)>,
}

/// Scheduling granularity: phase boundaries, arrivals and faults are
/// observed at most this much simulated time after they occur.
const QUANTUM: Dur = Dur::us(50);

/// How long the head of the queue must wait before it earns a backfill
/// reservation. Below the threshold later jobs backfill greedily (maximum
/// utilization for batches that drain on their own); past it the head's
/// block is fenced off so an open stream of small jobs cannot starve a
/// wide one.
const RESERVE_AFTER: Dur = Dur::ms(1);

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
        let mut alloc = BuddyAllocator::new(machine_dim);
        let mut jobs: Vec<Job> = specs
            .into_iter()
            .map(|spec| Job {
                queued_at: t0 + spec.submit_at,
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
                boost: 0,
                done_at: None,
                result: Vec::new(),
                meters: JobMeters::default(),
            })
            .collect();
        // Job ids by arrival; the first `arrived` of them have arrived.
        let mut arrivals: Vec<usize> = (0..jobs.len()).collect();
        arrivals.sort_by_key(|&id| (jobs[id].queued_at, id));
        let mut arrived = 0;
        let mut waiting = WaitQueue {
            aging: self.aging.filter(|&(_, max_boost)| max_boost > 0),
            order: Vec::new(),
            due: BinaryHeap::new(),
        };
        // Ids of the jobs holding a subcube, ascending: at most one per
        // node, and the only jobs the patrol and the boundary step visit.
        let mut running: Vec<usize> = Vec::new();
        let mut done = 0;
        let mut aging_promotions = 0u32;
        let mut edf_reorders = 0u32;
        // Backfill reservation: (head job id, the aligned block it is
        // waiting to drain). Backfilled jobs are placed outside it.
        let mut reservation: Option<(usize, Subcube)> = None;

        loop {
            let now = m.now();

            while let Some(&id) = arrivals.get(arrived) {
                if jobs[id].queued_at > now {
                    break;
                }
                arrived += 1;
                waiting.push(id, &jobs[id]);
            }

            // 1. Fault patrol: a crashed node or latent parity error
            //    inside a partition condemns exactly the failed nodes
            //    (the buddy allocator splits the block and frees the
            //    healthy buddies); the job re-queues for a fresh subcube
            //    and boundary replay.
            running.retain(|&id| {
                let job = &mut jobs[id];
                let State::Running { sub, .. } = &job.state else {
                    unreachable!("the running set holds running jobs");
                };
                let sick = |p: NodeId| {
                    let n = &m.nodes[p as usize];
                    n.is_crashed() || n.mem().parity_errors() > 0
                };
                if !sub.iter().any(sick) {
                    return true;
                }
                let State::Running {
                    sub,
                    held_since,
                    handles,
                    ..
                } = std::mem::replace(&mut job.state, State::Queued)
                else {
                    unreachable!();
                };
                // Retire the failed nodes, plus any node whose phase task
                // is still parked: its channels are not quiescent, and a
                // stale receiver could steal a successor job's messages.
                // Nodes whose task already completed are healthy buddies —
                // the allocator splits the block and returns them to the
                // free lists.
                let mut retire: Vec<NodeId> = sub.iter().filter(|&p| sick(p)).collect();
                if let Some(hs) = &handles {
                    for (v, p) in sub.iter().enumerate() {
                        if !hs[v].is_finished() && !retire.contains(&p) {
                            retire.push(p);
                        }
                    }
                }
                alloc.condemn(&sub, &retire);
                job.run += now.since(held_since);
                record_span(tracer, id, job, held_since, now);
                job.reallocations += 1;
                bump(&mut job.meters.reallocations, m, id, "reallocations", 1);
                // In-flight tasks of the lost phase stay parked on the
                // retired nodes — harmless, never reused. The
                // eviction-time delta (if any) died with the subcube:
                // replay restarts from the last committed boundary.
                job.pending_out_bytes = 0;
                waiting.requeue(id, job, now);
                false
            });

            // 2. Advance running jobs at phase boundaries.
            running.retain(|&id| {
                let job = &mut jobs[id];
                let State::Running { gate, handles, .. } = &job.state else {
                    unreachable!("the running set holds running jobs");
                };
                if now < *gate {
                    return true;
                }
                let kind = match handles {
                    None => BoundaryKind::Launch,
                    Some(hs) if hs.iter().all(|h| h.is_finished()) => BoundaryKind::PhaseDone,
                    Some(_) => return true,
                };
                // Most boundaries end the holding; the two that do not
                // put the partition back.
                let State::Running {
                    sub,
                    gate,
                    held_since,
                    ..
                } = std::mem::replace(&mut job.state, State::Queued)
                else {
                    unreachable!();
                };
                if matches!(kind, BoundaryKind::PhaseDone) {
                    job.next_phase += 1;
                }
                let evict = |job: &mut Job, m: &Machine| {
                    job.run += now.since(held_since);
                    job.preemptions += 1;
                    bump(&mut job.meters.preemptions, m, id, "preemptions", 1);
                };
                match kind {
                    BoundaryKind::PhaseDone if job.next_phase >= job.spec.kernel.phases() => {
                        // Complete.
                        job.result = job.spec.kernel.result(m, &sub);
                        job.run += now.since(held_since);
                        job.done_at = Some(now);
                        job.state = State::Done;
                        done += 1;
                        record_span(tracer, id, job, held_since, now);
                        alloc.release(&sub);
                        job_counter(m, id, "wait_us").add(job.wait.as_ns() / 1_000);
                        job_counter(m, id, "run_us").add(job.run.as_ns() / 1_000);
                        job_counter(m, id, "flops").add(job.spec.kernel.flops(job.spec.dim));
                        false
                    }
                    BoundaryKind::PhaseDone if job.preempt_requested => {
                        // Evict: fold this boundary's dirty rows into the
                        // checkpoint; their stream-out is still owed and is
                        // charged at resume, on top of the full restore.
                        job.pending_out_bytes = checkpoint_boundary(m, id, job, &sub);
                        evict(job, m);
                        record_span(tracer, id, job, held_since, now);
                        alloc.release(&sub);
                        waiting.requeue(id, job, now);
                        false
                    }
                    BoundaryKind::PhaseDone => {
                        // Boundary checkpoint: fold the dirty rows into
                        // the checkpoint and charge the delta's stream-out
                        // as a gate before the next phase may launch.
                        let gate = stream_gate(now, checkpoint_boundary(m, id, job, &sub));
                        job.state = State::Running {
                            sub,
                            gate,
                            held_since,
                            handles: None,
                        };
                        true
                    }
                    BoundaryKind::Launch if job.preempt_requested => {
                        // Evict at the gate: the boundary delta is already
                        // folded into the checkpoint and its stream-out paid.
                        evict(job, m);
                        record_span(tracer, id, job, held_since, now);
                        alloc.release(&sub);
                        waiting.requeue(id, job, now);
                        false
                    }
                    BoundaryKind::Launch => {
                        let hs = job.spec.kernel.launch_phase(m, &sub, job.next_phase);
                        job.state = State::Running {
                            sub,
                            gate,
                            held_since,
                            handles: Some(hs),
                        };
                        true
                    }
                }
            });

            // 3. Age waiting jobs.
            aging_promotions += waiting.age(now, &mut jobs);
            #[cfg(debug_assertions)]
            assert!(
                waiting
                    .order
                    .iter()
                    .map(|k| k.2)
                    .eq(queued_order(&jobs, now)),
                "the wait queue left placement order"
            );

            // 4. Priority preemption: if the most urgent waiting job
            //    cannot be placed, ask the least important running job
            //    (youngest on ties) to yield at its next boundary. The
            //    comparison uses *spec* priorities — an aging boost
            //    moves a job up the queue but never grants it eviction
            //    rights over its own class, else equal-priority jobs
            //    under scarcity preempt each other in an endless
            //    evict/resume cycle.
            let head = waiting.order.first().map(|k| k.2);
            if let Some(cand) = head {
                if !alloc.can_alloc(jobs[cand].spec.dim) {
                    let cand_pri = jobs[cand].spec.priority;
                    let victim = running
                        .iter()
                        .copied()
                        .filter(|&id| {
                            jobs[id].spec.priority < cand_pri && !jobs[id].preempt_requested
                        })
                        .min_by_key(|&id| (jobs[id].spec.priority, Reverse(id)));
                    if let Some(v) = victim {
                        jobs[v].preempt_requested = true;
                    }
                }
            }

            // 5. Backfill head reservation: when the head of the queue
            //    cannot be placed, earmark the block it should wait for
            //    and keep backfilled jobs out of it, so a wide job is
            //    never starved by a stream of small ones. A head earns
            //    its reservation only after waiting out the grace
            //    period ([`RESERVE_AFTER`]) — before that,
            //    jobs that fit backfill greedily around it, which is
            //    the whole point of the policy. Sticky while the same
            //    head waits (the reserved block only drains); re-sited
            //    if a condemned node poisons it.
            if self.policy == Policy::FcfsBackfill {
                match head {
                    Some(head)
                        if !alloc.can_alloc(jobs[head].spec.dim)
                            && now.since(jobs[head].queued_at) >= RESERVE_AFTER =>
                    {
                        let stale = match &reservation {
                            Some((owner, r)) => *owner != head || alloc.has_condemned_in(r),
                            None => true,
                        };
                        if stale {
                            reservation = alloc
                                .best_reservation(jobs[head].spec.dim)
                                .map(|r| (head, r));
                        }
                    }
                    _ => reservation = None,
                }
            }

            // 6. Placement in queue order; Fcfs stops at the first job
            //    that does not fit, backfill keeps scanning but avoids
            //    the head's reserved block. Nothing is released during
            //    the scan, so once a dimension fails to fit every job at
            //    least as wide fails too (see `alloc_outside`) and costs
            //    one compare — and once a single node fails, or none was
            //    free to begin with, the scan is over. Jobs that stay are
            //    compacted in place.
            let mut placed_any = false;
            let mut too_wide = if alloc.can_alloc(0) { u32::MAX } else { 0 };
            let (mut qi, mut kept) = (0, 0);
            while qi < waiting.order.len() && too_wide > 0 {
                let key = waiting.order[qi];
                let id = key.2;
                let dim = jobs[id].spec.dim;
                let region = match &reservation {
                    Some((_, r)) if qi > 0 => Some(r),
                    _ => None,
                };
                let sub = if dim >= too_wide {
                    debug_assert!(alloc.clone().alloc_outside(dim, region).is_none());
                    None
                } else {
                    alloc.alloc_outside(dim, region)
                };
                qi += 1;
                let Some(sub) = sub else {
                    too_wide = too_wide.min(dim);
                    waiting.order[kept] = key;
                    kept += 1;
                    if self.policy == Policy::Fcfs {
                        break;
                    }
                    continue;
                };
                placed_any = true;
                // A placement that jumped an earlier-submitted job of
                // equal effective priority is an EDF reorder.
                let jumped = waiting.order[qi..]
                    .iter()
                    .take_while(|k| k.0 == key.0)
                    .any(|k| k.2 < id);
                if jumped {
                    edf_reorders += 1;
                }
                Self::place(m, &mut jobs[id], id, now, sub);
                let at = running.binary_search(&id).unwrap_err();
                running.insert(at, id);
            }
            if kept < qi {
                // What the scan did not reach stays queued.
                let unreached = qi..waiting.order.len();
                waiting.order.copy_within(unreached.clone(), kept);
                waiting.order.truncate(kept + unreached.len());
            }

            if done == jobs.len() {
                break;
            }

            // Stall guard: nothing running, nothing placeable, nothing
            // still to arrive — condemnations have eaten the machine.
            if running.is_empty() && arrived == jobs.len() && !placed_any {
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

        // Batch summary.
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
        let njobs = jobs.len();
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
                    mflops: j.spec.kernel.flops(j.spec.dim) as f64
                        / j.run.as_secs_f64().max(f64::MIN_POSITIVE)
                        / 1e6,
                    missed_deadline: j.spec.deadline.is_some_and(|d| turnaround > d),
                    name: j.spec.name,
                    result: j.result,
                }
            })
            .collect();
        BatchReport {
            makespan,
            mean_wait: Dur::ps(total_wait / njobs.max(1) as u64),
            utilization: if capacity > 0.0 {
                node_time / capacity
            } else {
                0.0
            },
            preemptions: outcomes.iter().map(|j| j.preemptions).sum(),
            reallocations: outcomes.iter().map(|j| j.reallocations).sum(),
            aging_promotions,
            edf_reorders,
            jobs: outcomes,
        }
    }

    /// Give `job` the subcube `sub`: the job transitions to `Running` with
    /// no phase launched yet (step 2 launches once the resume gate has
    /// passed).
    fn place(m: &mut Machine, job: &mut Job, id: usize, now: Time, sub: Subcube) {
        job.wait += now.since(job.queued_at);
        job.boost = 0;
        let gate = if job.ckpt.has_committed() {
            let full_in = m
                .load_subcube(&job.ckpt, &sub)
                .unwrap_or_else(|e| panic!("restore of job {id} failed: {e}"));
            let bytes = full_in + job.pending_out_bytes;
            job.pending_out_bytes = 0;
            bump(
                &mut job.meters.ckpt_bytes_in,
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
            job.spec.kernel.setup(m, &sub);
            m.capture_subcube(&mut job.ckpt, &sub)
                .unwrap_or_else(|e| panic!("baseline checkpoint of job {id} failed: {e}"));
            now
        };
        job.state = State::Running {
            sub,
            gate,
            held_since: now,
            handles: None,
        };
    }
}

/// Fold the rows `job` dirtied on `sub` since its last boundary into its
/// checkpoint and book the delta's wire size, which is returned, as
/// `ckpt_bytes_out`.
fn checkpoint_boundary(m: &Machine, id: usize, job: &mut Job, sub: &Subcube) -> u64 {
    let bytes = m
        .capture_subcube(&mut job.ckpt, sub)
        .unwrap_or_else(|e| panic!("boundary checkpoint of job {id} failed: {e}"));
    bump(
        &mut job.meters.ckpt_bytes_out,
        m,
        id,
        "ckpt_bytes_out",
        bytes,
    );
    bytes
}

/// One Perfetto span on the job's `job/{id}` track for a held interval.
fn record_span(tracer: Option<&Tracer>, id: usize, job: &mut Job, start: Time, end: Time) {
    if let Some(t) = tracer {
        let track = *job
            .meters
            .track
            .get_or_insert_with(|| t.track(&format!("job/{id}")));
        t.record_span(track, start, end);
    }
}

/// The wait queue's order built the long way — filter every job, sort —
/// as the oracle [`WaitQueue::order`] is checked against each tick.
#[cfg(debug_assertions)]
fn queued_order(jobs: &[Job], now: Time) -> Vec<usize> {
    let mut q: Vec<usize> = (0..jobs.len())
        .filter(|&id| matches!(jobs[id].state, State::Queued) && now >= jobs[id].queued_at)
        .collect();
    q.sort_by_key(|&id| queue_key(id, &jobs[id]));
    q
}

#[cfg(test)]
mod tests {
    use super::*;

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
