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
//!   phase boundaries (`live.rs`);
//! * [`ServiceScheduler`] — the same policy over an open stream of
//!   arrivals, on a live machine or with no machine at all;
//! * per-job accounting — `job/{id}/...` counters in the machine's
//!   [`ts_sim::MetricsRegistry`] and job spans on a Perfetto
//!   [`ts_sim::Tracer`].
//!
//! Queue order, aging, reservation and backfill are defined once, in
//! `admission.rs`; [`Scheduler::run_batch`] (a live machine's 50 µs tick)
//! and [`ServiceScheduler::run`] (a timer clock) only drive it: they differ
//! in how a job ends, never in who starts.

mod admission;
mod buddy;
mod job;
mod live;
mod report;
mod service;

pub use admission::Policy;
pub use buddy::BuddyAllocator;
pub use job::{run_standalone, JobKernel, JobSpec, StandaloneRun};
pub use live::Scheduler;
pub use report::{BatchReport, JobOutcome};
pub use service::{ServiceCfg, ServiceReport, ServiceScheduler};
