//! Open-arrival service front-end: admission queue, priority aging, EDF
//! ordering and capacity accounting over a [`ts_workload::Trace`].
//!
//! The batch runtime in [`crate::Scheduler`] answers "how long does this
//! fixed set of jobs take?"; a shared facility instead faces an *open*
//! stream — jobs keep arriving whether or not the machine is keeping
//! up, and the questions become *how long do arrivals wait*, *by how
//! much are they slowed down*, and *what sustained throughput does the
//! fleet hold at a given utilization*. [`ServiceScheduler`] answers
//! those two ways:
//!
//! * [`ServiceScheduler::run`] — the **capacity path**: a machineless
//!   discrete-event simulation of admission alone. Every arrival is
//!   treated as an opaque reservation that holds an aligned subcube for
//!   exactly its service demand, so millions of jobs stream through in
//!   seconds while exercising the *real* [`crate::BuddyAllocator`] and the
//!   full admission policy. No `Machine` is built.
//! * [`ServiceScheduler::run_on_machine`] — the **fidelity path**: the
//!   same trace converted to [`JobSpec`]s (synthetic holds become
//!   [`JobKernel::Sleep`]; kernel arrivals run real SAXPY/all-reduce
//!   gangs) and driven through [`Scheduler::run_batch`]'s tick loop on a
//!   live simulated machine.
//!
//! Both drive the one admission policy of `admission.rs`, and both reserve
//! for a blocked head at once: an open stream never drains on its own.
//!
//! Everything is deterministic: one seed pins the trace, and the queue
//! and clock use only ordered containers, so two runs of the same trace
//! render byte-identical [`ServiceReport`]s.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use t_series_core::Machine;
use ts_cube::Subcube;
use ts_sim::{Dur, Histogram, Time};
use ts_workload::{Arrival, Trace, WorkKind};

use crate::admission::Admission;
use crate::{BatchReport, JobKernel, JobSpec, Policy, Scheduler};

/// Admission-policy knobs for [`ServiceScheduler`].
#[derive(Debug, Clone)]
pub struct ServiceCfg {
    /// Fleet dimension (`2^dim` nodes) for the capacity path.
    pub dim: u32,
    /// Queue time per aging promotion (one priority level each).
    pub aging_period: Dur,
    /// Cap on aging promotions per wait.
    pub max_boost: u32,
}

impl ServiceCfg {
    /// Defaults: 1 ms aging period, 4 levels of boost.
    pub fn new(dim: u32) -> ServiceCfg {
        ServiceCfg {
            dim,
            aging_period: Dur::ms(1),
            max_boost: 4,
        }
    }

    /// Set the aging policy (period per promotion, max promotions).
    pub fn aging(mut self, period: Dur, max_boost: u32) -> ServiceCfg {
        assert!(!period.is_zero(), "aging period must be positive");
        self.aging_period = period;
        self.max_boost = max_boost;
        self
    }
}

/// What the service measured over one trace.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Fleet dimension the stream was served on.
    pub dim: u32,
    /// Arrivals admitted (every one completes; admission never drops).
    pub jobs: u64,
    /// Stream start to last completion.
    pub makespan: Dur,
    /// Mean time from arrival to placement.
    pub mean_wait: Dur,
    /// Median wait.
    pub p50_wait: Dur,
    /// 99th-percentile wait.
    pub p99_wait: Dur,
    /// Mean of `(wait + service) / service` per job.
    pub mean_slowdown: f64,
    /// 99th-percentile slowdown, in thousandths (1000 = no slowdown).
    pub p99_slowdown_milli: u64,
    /// Sustained completion rate over the makespan, jobs per simulated
    /// second.
    pub jobs_per_sec: f64,
    /// Node-time held by jobs over `makespan × fleet nodes`.
    pub utilization: f64,
    /// Aging promotions granted while jobs waited.
    pub aging_promotions: u64,
    /// Placements where a deadline pulled a job ahead of an
    /// earlier-arrived job of equal effective priority.
    pub edf_reorders: u64,
    /// Jobs that completed after their absolute deadline.
    pub missed_deadlines: u64,
    /// Per-class `(name, jobs, p50 wait, p99 wait, missed deadlines)`.
    pub classes: Vec<(String, u64, Dur, Dur, u64)>,
}

impl ServiceReport {
    /// Render as a fixed-width capacity report (deterministic: same
    /// trace, same bytes).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "service dim {}: {} jobs in {:.3}ms  ({:.0} jobs/s, utilization {:.1}%)",
            self.dim,
            self.jobs,
            self.makespan.as_us_f64() / 1e3,
            self.jobs_per_sec,
            self.utilization * 100.0
        );
        let _ = writeln!(
            s,
            "wait mean {:.1}us p50 {:.1}us p99 {:.1}us  slowdown mean {:.3} p99 {:.3}",
            self.mean_wait.as_us_f64(),
            self.p50_wait.as_us_f64(),
            self.p99_wait.as_us_f64(),
            self.mean_slowdown,
            self.p99_slowdown_milli as f64 / 1e3
        );
        let _ = writeln!(
            s,
            "promotions {}  edf reorders {}  missed deadlines {}",
            self.aging_promotions, self.edf_reorders, self.missed_deadlines
        );
        for (name, jobs, p50, p99, missed) in &self.classes {
            let _ = writeln!(
                s,
                "  class {:<10} {:>8} jobs  wait p50 {:>9.1}us p99 {:>9.1}us  missed {}",
                name,
                jobs,
                p50.as_us_f64(),
                p99.as_us_f64(),
                missed
            );
        }
        s
    }
}

/// The admission front-end. Construct with [`ServiceScheduler::new`].
pub struct ServiceScheduler {
    cfg: ServiceCfg,
}

impl ServiceScheduler {
    /// A service with the given admission configuration.
    pub fn new(cfg: ServiceCfg) -> ServiceScheduler {
        ServiceScheduler { cfg }
    }

    /// Serve `trace` on the capacity path: admission + buddy allocation
    /// only, every job an opaque hold of its service demand. Handles
    /// millions of arrivals; deterministic to the byte.
    pub fn run(&self, trace: &Trace) -> ServiceReport {
        let dim = self.cfg.dim;
        assert!(
            trace.max_dim() <= dim,
            "trace contains a job wider than the {dim}-cube fleet"
        );
        let arrivals = &trace.arrivals;
        let mut adm = Admission::new(
            Policy::FcfsBackfill,
            Some((self.cfg.aging_period, self.cfg.max_boost)),
            Dur::ZERO,
            dim,
            arrivals.len(),
        );
        // The clock: the next arrival, the completions due — a min-heap of
        // `(instant, seq, the subcube that comes back)`, at most one per
        // node — and the core's next aging step.
        let mut next_arrival = 0usize;
        let mut running: BinaryHeap<Reverse<(Time, usize, Subcube)>> = BinaryHeap::new();
        let mut stats = StreamStats::new(trace);

        let never = Time(u64::MAX);
        let arrives = |i: usize| arrivals.get(i).map_or(never, |a| Time::ZERO + a.at);
        while next_arrival < arrivals.len() || !running.is_empty() {
            let ends = running.peek().map_or(never, |Reverse(e)| e.0);
            let ages = adm.next_aging().unwrap_or(never);
            let now = arrives(next_arrival).min(ends).min(ages);

            while arrives(next_arrival) == now {
                let a = &arrivals[next_arrival];
                adm.enqueue(next_arrival, now, a.priority, a.deadline, a.dim);
                next_arrival += 1;
            }
            // Completions before aging and placement, so freed nodes are
            // visible to every decision made at this instant.
            while running.peek().is_some_and(|Reverse(e)| e.0 == now) {
                let Reverse((_, seq, sub)) = running.pop().expect("just peeked");
                adm.release(&sub);
                stats.complete(now.0, &arrivals[seq]);
            }
            adm.age(now);
            adm.place(now, |seq, sub, waited| {
                let a = &arrivals[seq];
                stats.place(a, waited, a.service);
                running.push(Reverse((now + a.service.max(Dur::ps(1)), seq, sub)));
            });
        }

        stats.finish(dim, trace, adm.promotions, adm.edf_reorders)
    }

    /// Serve `trace` on the fidelity path: every arrival becomes a
    /// [`JobSpec`] (synthetic holds run [`JobKernel::Sleep`], kernel
    /// arrivals run real gangs) driven through [`Scheduler::run_batch`]'s
    /// tick loop on `m` under the same policy as [`ServiceScheduler::run`],
    /// reservation grace included. Returns the raw batch report alongside
    /// the service view of it.
    pub fn run_on_machine(&self, m: &mut Machine, trace: &Trace) -> (BatchReport, ServiceReport) {
        let specs: Vec<JobSpec> = trace
            .arrivals
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let kernel = match a.work {
                    WorkKind::Synthetic => JobKernel::Sleep { dur: a.service },
                    WorkKind::Saxpy { phases, sweeps } => JobKernel::Saxpy { phases, sweeps },
                    WorkKind::AllReduce { phases } => JobKernel::AllReduce { phases },
                };
                let mut s = JobSpec::new(&format!("a{i}"), a.dim, kernel)
                    .priority(a.priority)
                    .submit_at(a.at);
                if let Some(d) = a.deadline {
                    s = s.deadline(d);
                }
                s
            })
            .collect();
        let dim = m.cube.dim();
        let live = Scheduler {
            policy: Policy::FcfsBackfill,
            aging: Some((self.cfg.aging_period, self.cfg.max_boost)),
            grace: Dur::ZERO,
        };
        let rep = live.run_batch(m, specs, None);
        let svc = service_view(dim, trace, &rep);
        (rep, svc)
    }
}

/// Streaming accumulation of the service metrics.
#[derive(Default)]
struct StreamStats {
    wait_us: Histogram,
    slowdown_milli: Histogram,
    class_wait_us: Vec<Histogram>,
    class_jobs: Vec<u64>,
    class_missed: Vec<u64>,
    sum_wait_ps: u128,
    sum_slowdown: f64,
    busy_node_ps: u128,
    completed: u64,
    last_completion_ps: u64,
    missed: u64,
}

impl StreamStats {
    fn new(trace: &Trace) -> StreamStats {
        StreamStats {
            class_wait_us: trace.classes.iter().map(|_| Histogram::new()).collect(),
            class_jobs: vec![0; trace.classes.len()],
            class_missed: vec![0; trace.classes.len()],
            ..StreamStats::default()
        }
    }

    /// A job started after `wait` in the queue and holds its subcube for
    /// `service`: its declared demand on a timer clock, its measured run on
    /// a live machine.
    fn place(&mut self, a: &Arrival, wait: Dur, service: Dur) {
        let wait_ps = wait.as_ps();
        let wait_us = wait_ps / 1_000_000;
        self.wait_us.observe(wait_us);
        self.class_wait_us[a.class as usize].observe(wait_us);
        self.class_jobs[a.class as usize] += 1;
        self.sum_wait_ps += wait_ps as u128;
        let service = service.as_ps().max(1);
        let slowdown_milli = ((wait_ps as u128 + service as u128) * 1000 / service as u128) as u64;
        self.slowdown_milli.observe(slowdown_milli);
        self.sum_slowdown += slowdown_milli as f64 / 1e3;
        self.busy_node_ps += (service as u128) << a.dim;
    }

    fn complete(&mut self, now: u64, a: &Arrival) {
        self.completed += 1;
        self.last_completion_ps = self.last_completion_ps.max(now);
        if a.deadline.is_some_and(|d| now > (a.at + d).as_ps()) {
            self.missed += 1;
            self.class_missed[a.class as usize] += 1;
        }
    }

    /// The report, with the admission core's two counts.
    fn finish(self, dim: u32, trace: &Trace, promotions: u64, reorders: u64) -> ServiceReport {
        let makespan_ps = self.last_completion_ps;
        let makespan_s = makespan_ps as f64 / 1e12;
        let n = self.completed.max(1);
        let classes = trace
            .classes
            .iter()
            .enumerate()
            .map(|(i, name)| {
                (
                    name.clone(),
                    self.class_jobs[i],
                    Dur::us(self.class_wait_us[i].quantile(0.5)),
                    Dur::us(self.class_wait_us[i].quantile(0.99)),
                    self.class_missed[i],
                )
            })
            .collect();
        ServiceReport {
            dim,
            jobs: self.completed,
            makespan: Dur::ps(makespan_ps),
            mean_wait: Dur::ps((self.sum_wait_ps / n as u128) as u64),
            p50_wait: Dur::us(self.wait_us.quantile(0.5)),
            p99_wait: Dur::us(self.wait_us.quantile(0.99)),
            mean_slowdown: self.sum_slowdown / n as f64,
            p99_slowdown_milli: self.slowdown_milli.quantile(0.99),
            jobs_per_sec: if makespan_s > 0.0 {
                self.completed as f64 / makespan_s
            } else {
                0.0
            },
            utilization: if makespan_ps > 0 {
                self.busy_node_ps as f64 / (makespan_ps as f64 * (1u64 << dim) as f64)
            } else {
                0.0
            },
            aging_promotions: promotions,
            edf_reorders: reorders,
            missed_deadlines: self.missed,
            classes,
        }
    }
}

/// Build the service view of a machine-path batch report: every wait,
/// run and completion as the machine measured it.
fn service_view(dim: u32, trace: &Trace, rep: &BatchReport) -> ServiceReport {
    let mut stats = StreamStats::new(trace);
    for (j, a) in rep.jobs.iter().zip(trace.arrivals.iter()) {
        stats.place(a, j.wait, j.run);
        stats.complete((a.at + j.turnaround).as_ps(), a);
    }
    let (promotions, reorders) = (rep.aging_promotions, rep.edf_reorders);
    stats.finish(dim, trace, promotions as u64, reorders as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_workload::{Dist, TraceGen};

    fn gen(dim: u32, load: f64, n: usize) -> Trace {
        // Size the arrival rate for the requested offered load.
        let g = TraceGen::new(99)
            .sizes(&[(1, 0.6), (2, 0.3), (3, 0.1)])
            .service(Dist::Exp { mean: 1e-4 })
            .classes("batch", 0.8, 0, None)
            .class("urgent", 0.2, 3, Some(30.0));
        let unit = g
            .clone()
            .interarrival(Dist::Fixed(1.0))
            .offered_load(dim)
            .unwrap();
        g.interarrival(Dist::Exp { mean: unit / load }).generate(n)
    }

    #[test]
    fn open_stream_completes_every_job_and_is_deterministic() {
        let trace = gen(6, 0.8, 20_000);
        let svc = ServiceScheduler::new(ServiceCfg::new(6).aging(Dur::us(500), 4));
        let a = svc.run(&trace);
        let b = svc.run(&trace);
        assert_eq!(a.render(), b.render(), "same trace must render identically");
        assert_eq!(a.jobs, 20_000);
        assert!(
            a.utilization > 0.5 && a.utilization < 1.0,
            "{}",
            a.utilization
        );
        assert!(a.aging_promotions > 0, "waiting batch jobs must age");
        assert!(a.edf_reorders > 0, "deadlines must reorder some picks");
    }

    #[test]
    fn light_load_waits_little_heavy_load_waits_long() {
        let light = ServiceScheduler::new(ServiceCfg::new(6)).run(&gen(6, 0.3, 10_000));
        let heavy = ServiceScheduler::new(ServiceCfg::new(6)).run(&gen(6, 0.95, 10_000));
        assert!(
            heavy.p99_wait > light.p99_wait,
            "p99 wait must grow with load: {:?} vs {:?}",
            light.p99_wait,
            heavy.p99_wait
        );
        assert!(heavy.utilization > light.utilization);
        assert!(heavy.mean_slowdown >= light.mean_slowdown);
    }

    #[test]
    fn machine_path_agrees_with_capacity_path_on_occupancy() {
        // A short all-synthetic trace: both paths serve it; the machine
        // path is quantum-grained so waits differ, but both complete
        // every job and see comparable utilization.
        let trace = TraceGen::new(17)
            .interarrival(Dist::Exp { mean: 2e-4 })
            .service(Dist::Exp { mean: 3e-4 })
            .sizes(&[(0, 0.5), (1, 0.5)])
            .generate(60);
        let svc = ServiceScheduler::new(ServiceCfg::new(2).aging(Dur::ms(1), 2));
        let fast = svc.run(&trace);
        let mut m = Machine::build(t_series_core::MachineCfg::cube_small_mem(2, 8));
        let (rep, slow) = svc.run_on_machine(&mut m, &trace);
        assert_eq!(fast.jobs, 60);
        assert_eq!(slow.jobs, 60);
        assert_eq!(rep.jobs.len(), 60);
        let ratio = slow.utilization / fast.utilization.max(1e-12);
        assert!(
            (0.5..2.0).contains(&ratio),
            "utilizations should be comparable: fast {} machine {}",
            fast.utilization,
            slow.utilization
        );
    }

    #[test]
    fn wide_head_is_not_starved_by_an_open_stream() {
        // A dim-3 job arrives early into a dim-3 fleet saturated by an
        // endless stream of dim-0/1 jobs. The reservation must get it
        // placed long before the stream drains.
        let mut trace = Trace::new();
        let stream = trace.class("stream");
        let wide = trace.class("wide");
        for i in 0..500u64 {
            trace.push(ts_workload::Arrival {
                at: Dur::us(20 * i),
                dim: (i % 2) as u32,
                priority: 0,
                class: stream,
                work: WorkKind::Synthetic,
                service: Dur::us(120),
                deadline: None,
            });
            if i == 10 {
                trace.push(ts_workload::Arrival {
                    at: Dur::us(20 * i + 1),
                    dim: 3,
                    priority: 0,
                    class: wide,
                    work: WorkKind::Synthetic,
                    service: Dur::us(100),
                    deadline: None,
                });
            }
        }
        // Both roads reserve for a blocked head at once (a batch's 1 ms
        // grace would alone keep the wide job waiting longer than this).
        let svc = ServiceScheduler::new(ServiceCfg::new(3));
        let mut m = Machine::build(t_series_core::MachineCfg::cube_small_mem(3, 8));
        for rep in [svc.run(&trace), svc.run_on_machine(&mut m, &trace).1] {
            assert_eq!(rep.jobs, 501);
            // The stream oversubscribes the fleet (load > 1), so stream
            // waits grow without bound — but the wide job's wait is bounded
            // by the drain of its reserved block, not by the stream length.
            let (_, n, wide_wait, _, _) = rep.classes[wide as usize].clone();
            assert_eq!(n, 1);
            assert!(
                wide_wait < Dur::ms(1),
                "wide job waited {wide_wait:?}: reservation failed to protect it"
            );
            let (_, _, stream_p50, _, _) = rep.classes[stream as usize].clone();
            assert!(
                stream_p50 > wide_wait,
                "overloaded stream should wait longer than the reserved head"
            );
        }
    }

    #[test]
    fn a_top_priority_job_ages_without_overflow_and_starts_first() {
        // A p=0 job holds the whole 1-cube for 2 ms; a p=u32::MAX job and
        // then a p=0 job queue behind it, and both age once (1 ms period)
        // before it ends. The urgent job's level saturates instead of
        // overflowing (a panic in debug, a wrap to the bottom in release).
        let trace = Trace::parse(
            "class first\nclass urgent\nclass last\n\
             0ps job d=1 p=0 c=first k=synthetic s=2000000000ps dl=-\n\
             10000000ps job d=1 p=4294967295 c=urgent k=synthetic s=1000000000ps dl=-\n\
             20000000ps job d=1 p=0 c=last k=synthetic s=1000000000ps dl=-\n",
        )
        .unwrap();
        let rep = ServiceScheduler::new(ServiceCfg::new(1)).run(&trace);
        let wait = |class: usize| rep.classes[class].2;
        assert!(
            wait(1) < wait(2),
            "the urgent job waited {:?}, the last {:?}",
            wait(1),
            wait(2)
        );
    }
}
