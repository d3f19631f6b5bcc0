//! `service_live` — the same scheduler layer used differently.
//!
//! `ServiceScheduler::run_on_machine` on a live 16-node machine: over a
//! thousand short gangs (60 % real SAXPY / all-reduce kernels), preemption
//! and checkpoint resume gates. A scheduler gain tuned on `service_queue`
//! that costs the live path, or an executor gain tuned for one huge launch
//! that costs many small ones, shows here. Open loop, like `service_queue`.

use std::collections::BTreeMap;

use fps_t_series::machine::{Machine, MachineCfg};
use fps_t_series::sched::{run_standalone, JobKernel, JobSpec, ServiceScheduler};
use fps_t_series::workload::WorkKind;

use super::service_queue::{digest_report, service_cfg, service_trace, service_values};
use super::{Checks, RepCtx, RepOut, Workload};
use crate::alloc;
use crate::census::Census;
use crate::stats::Fnv;

struct Sizes {
    dim: u32,
    jobs: usize,
    load: f64,
    kernel_fraction: f64,
}

/// The issue sized 4 000 jobs (3.3 s per call on this host: the live path
/// costs ~0.7 ms of host time per job); 1 200 fit the contract's 15 s run with a dozen repetitions.
fn sizes(quick: bool) -> Sizes {
    Sizes {
        dim: 4,
        jobs: if quick { 120 } else { 1_200 },
        load: 0.7,
        kernel_fraction: 0.6,
    }
}

fn sizes_table(quick: bool) -> Vec<(&'static str, f64)> {
    let s = sizes(quick);
    vec![
        ("dim", s.dim as f64),
        ("nodes", (1u64 << s.dim) as f64),
        ("jobs", s.jobs as f64),
        ("offered_load", s.load),
        ("kernel_fraction", s.kernel_fraction),
    ]
}

fn kernel_of(work: WorkKind) -> Option<JobKernel> {
    match work {
        WorkKind::Synthetic => None,
        WorkKind::Saxpy { phases, sweeps } => Some(JobKernel::Saxpy { phases, sweeps }),
        WorkKind::AllReduce { phases } => Some(JobKernel::AllReduce { phases }),
    }
}

fn rep(ctx: &mut RepCtx<'_>) -> RepOut {
    let s = sizes(ctx.quick);
    let spans = &mut *ctx.spans;
    let mut checks = Checks::default();

    let setup = spans.open("setup");
    let (mut m, build_s) = spans.time("core.build", || {
        Machine::build(MachineCfg::cube_small_mem(s.dim, 8))
    });
    let (trace, _) = spans.time("workload.gen", || {
        service_trace(ctx.seed, s.dim, s.load, s.jobs, s.kernel_fraction)
    });
    let svc = ServiceScheduler::new(service_cfg(s.dim));
    let setup_s = spans.close(setup);
    let nodes = m.cube.nodes();

    let run = spans.open_granted("run");
    let (((batch, report), run_s), allocs) = alloc::count(ctx.traced, || {
        spans.time_granted("sched.run", || svc.run_on_machine(&mut m, &trace))
    });
    let wall_s = spans.close_with(run, &[("events", m.profile().timer_events as f64)]);
    let census = Census::of_machine(&m);

    let verify = spans.open("verify");
    // Every job completed exactly once ...
    let mut seen = vec![0u32; trace.len()];
    for job in &batch.jobs {
        if let Some(slot) = seen.get_mut(job.id as usize) {
            *slot += 1;
        }
    }
    for (i, &n) in seen.iter().enumerate() {
        checks.check(n == 1, || format!("job {i} completed {n} times"));
    }
    // ... and every kernel job's result equals its dedicated-machine
    // reference, bit for bit, wherever and however often it was placed.
    let mut reference: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut digest = Fnv::default();
    for job in &batch.jobs {
        let Some(arrival) = trace.arrivals.get(job.id as usize) else {
            continue;
        };
        job.result.iter().for_each(|&w| digest.u64(w));
        let Some(kernel) = kernel_of(arrival.work) else {
            continue;
        };
        let key = format!("{:?}/{}", arrival.work, arrival.dim);
        let want = reference.entry(key).or_insert_with(|| {
            let spec = JobSpec::new("reference", arrival.dim, kernel);
            run_standalone(MachineCfg::cube_small_mem(arrival.dim, 8), &spec).result
        });
        checks.check(&job.result == want, || {
            format!(
                "job {} ({:?} on a {}-cube) differs from its standalone run",
                job.id, arrival.work, arrival.dim
            )
        });
    }
    digest_report(&mut digest, &report);
    digest.u64(census.sim_ps);
    spans.close(verify);

    let mut values = census.layer_metrics(wall_s, ctx.traced.then_some(allocs));
    values.extend(service_values(&report, run_s));
    values.extend([
        ("core.build_us_per_node", build_s * 1e6 / nodes as f64),
        ("sched.preemptions", batch.preemptions as f64),
        ("sched.reallocations", batch.reallocations as f64),
        (
            "sched.ckpt_bytes",
            m.registry().sum_counters("ckpt_bytes_out") as f64,
        ),
    ]);

    RepOut {
        setup_s,
        wall_s,
        values,
        digest: digest.0,
        checks,
    }
}

/// The workload.
pub const WORKLOAD: Workload = Workload {
    name: "service_live",
    sizes: sizes_table,
    rep,
    once: None,
};
