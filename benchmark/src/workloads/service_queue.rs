//! `service_queue` — the scheduler lane, no simulator at all.
//!
//! Machineless `ServiceScheduler::run` on a dim-8 fleet at offered load
//! 0.95. The deep queue is the expensive case: every placement walks
//! aging, EDF and buddy state. Set-up generates the trace and takes it
//! through its text form, as a trace file would be read, so `ts-workload`
//! has a metric of its own. Open loop: the trace's arrival times are
//! replayed on the simulated clock whatever the service rate.

use fps_t_series::sched::{ServiceCfg, ServiceReport, ServiceScheduler};
use fps_t_series::sim::Dur;
use fps_t_series::workload::{Dist, Trace, TraceGen};

use super::{Checks, RepCtx, RepOut, Workload};
use crate::stats::Fnv;

struct Sizes {
    dim: u32,
    jobs: usize,
    load: f64,
}

/// The issue sized 300 k jobs (2.8 s per call on this host); the contract's
/// 15 s run, kept to a dozen repetitions for a steady median, leaves room
/// for 100 k.
fn sizes(quick: bool) -> Sizes {
    Sizes {
        dim: 8,
        jobs: if quick { 4_000 } else { 100_000 },
        load: 0.95,
    }
}

fn sizes_table(quick: bool) -> Vec<(&'static str, f64)> {
    let s = sizes(quick);
    vec![
        ("fleet_dim", s.dim as f64),
        ("jobs", s.jobs as f64),
        ("offered_load", s.load),
    ]
}

/// BENCH_7's size/class mix: mostly narrow jobs plus an occasional wide
/// one (the wide tail is what makes a large fleet queue), exponential
/// 100 us service, 75 % best-effort and 25 % priority-3 arrivals with a 30x
/// deadline slack. The arrival rate is sized from the mix's own offered
/// load, so the requested load is hit whatever the seed.
pub fn service_trace(seed: u64, dim: u32, load: f64, jobs: usize, kernel_fraction: f64) -> Trace {
    let full = [
        (0u32, 0.1),
        (1, 0.48),
        (2, 0.25),
        (3, 0.1),
        (4, 0.04),
        (6, 0.02),
        (8, 0.01),
    ];
    let top = dim.saturating_sub(2).max(1);
    let mix: Vec<(u32, f64)> = full.iter().copied().filter(|&(d, _)| d <= top).collect();
    let g = TraceGen::new(seed)
        .sizes(&mix)
        .service(Dist::Exp { mean: 1e-4 })
        .classes("batch", 0.75, 0, None)
        .class("urgent", 0.25, 3, Some(30.0))
        .kernel_fraction(kernel_fraction);
    let unit = g
        .clone()
        .interarrival(Dist::Fixed(1.0))
        .offered_load(dim)
        .expect("the service mix has finite moments");
    g.interarrival(Dist::Exp { mean: unit / load })
        .generate(jobs)
}

/// The admission policy both service workloads run under (BENCH_7's).
pub fn service_cfg(dim: u32) -> ServiceCfg {
    ServiceCfg::new(dim).aging(Dur::us(500), 4)
}

/// The end-to-end and `sched.*` metrics both service workloads share.
pub fn service_values(rep: &ServiceReport, run_s: f64) -> Vec<(&'static str, f64)> {
    let jobs = rep.jobs.max(1) as f64;
    vec![
        ("sim_elapsed_ms", rep.makespan.as_secs_f64() * 1e3),
        ("sim_p99_wait_us", rep.p99_wait.as_us_f64()),
        ("sim_jobs_per_s", rep.jobs_per_sec),
        (
            "sim_missed_deadline_frac",
            rep.missed_deadlines as f64 / jobs,
        ),
        ("sched.ns_per_job", run_s * 1e9 / jobs),
        ("sched.promotions", rep.aging_promotions as f64),
        ("sched.edf_reorders", rep.edf_reorders as f64),
        ("sched.utilization", rep.utilization),
    ]
}

/// Fold the deterministic part of a service report into a digest.
pub fn digest_report(h: &mut Fnv, rep: &ServiceReport) {
    h.u64(rep.jobs);
    h.u64(rep.makespan.as_ps());
    h.u64(rep.mean_wait.as_ps());
    h.u64(rep.p50_wait.as_ps());
    h.u64(rep.p99_wait.as_ps());
    h.u64(rep.p99_slowdown_milli);
    h.u64(rep.aging_promotions);
    h.u64(rep.edf_reorders);
    h.u64(rep.missed_deadlines);
    for (name, jobs, p50, p99, missed) in &rep.classes {
        h.bytes(name.as_bytes());
        h.u64(*jobs);
        h.u64(p50.as_ps());
        h.u64(p99.as_ps());
        h.u64(*missed);
    }
}

fn rep(ctx: &mut RepCtx<'_>) -> RepOut {
    let s = sizes(ctx.quick);
    let spans = &mut *ctx.spans;
    let mut checks = Checks::default();

    let setup = spans.open("setup");
    let (generated, gen_s) = spans.time("workload.gen", || {
        service_trace(ctx.seed, s.dim, s.load, s.jobs, 0.0)
    });
    let (parsed, roundtrip_s) = spans.time("workload.roundtrip", || {
        Trace::parse(&generated.to_string())
    });
    let svc = ServiceScheduler::new(service_cfg(s.dim));
    let setup_s = spans.close(setup);

    // The scheduler is fed what came back from the text form.
    checks.check(parsed.as_ref() == Ok(&generated), || {
        "trace text did not round-trip to the generated trace".into()
    });
    let trace = parsed.unwrap_or(generated);

    let run = spans.open_granted("run");
    let (report, run_s) = spans.time_granted("sched.run", || svc.run(&trace));
    let wall_s = spans.close(run);

    let verify = spans.open("verify");
    // Every job completed exactly once: the report's totals are the only
    // public evidence on the machineless path.
    let by_class: u64 = report.classes.iter().map(|c| c.1).sum();
    checks.check(report.jobs == trace.len() as u64, || {
        format!("{} arrivals, {} completions", trace.len(), report.jobs)
    });
    checks.check(by_class == report.jobs, || {
        format!(
            "per-class completions sum to {by_class}, not {}",
            report.jobs
        )
    });
    checks.check(report.makespan >= trace.span(), || {
        "makespan is shorter than the arrival span".into()
    });
    let mut digest = Fnv::default();
    digest_report(&mut digest, &report);
    spans.close(verify);

    let mut values = service_values(&report, run_s);
    values.extend([
        // No simulator: the event counters are a true zero here.
        ("sim.events", 0.0),
        ("workload.gen_ns_per_job", gen_s * 1e9 / s.jobs as f64),
        (
            "workload.roundtrip_ns_per_job",
            roundtrip_s * 1e9 / s.jobs as f64,
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
    name: "service_queue",
    sizes: sizes_table,
    rep,
    once: None,
};
