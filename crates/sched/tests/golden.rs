//! Golden pins for the batch runtime's decision paths.
//!
//! Each test drives [`Scheduler::run_batch`] down a path the
//! `service_live` benchmark never takes — fault condemnation and
//! re-allocation, eviction at both boundary gates, out-of-order
//! submission, strict FCFS — or through the service front-end (both the
//! machineless and the live path) at a size a debug build can afford, and
//! pins an FNV-1a digest of everything observable afterwards: the rendered
//! report, every job's result bits, the final simulated instant and the
//! full metrics registry (so a `job/{id}/...` counter that is missing, or
//! registered for a job it never happened to, moves the digest too). The
//! constants were recorded before the tick loop was made incremental; they
//! must never need re-recording for a change that claims to leave decisions
//! alone. Two were re-recorded once, when both loops moved onto the one
//! admission core and the live loop took the machineless loop's decisions
//! (every successive head may take the reserved block, a 64-job backfill
//! scan, EDF reorders counted on head placements): `arrivals_out_of_id_order`
//! and `seeded_kernel_mix_through_the_service`, the latter also because the
//! service's live path reserves at once and reports slowdown over measured
//! runs. The machineless pin did not move.

use t_series_core::fault::{FaultEvent, FaultPlan};
use t_series_core::{Machine, MachineCfg};
use ts_sched::{BatchReport, JobKernel, JobSpec, Policy, Scheduler, ServiceCfg, ServiceScheduler};
use ts_sim::Dur;

mod common;

fn small(dim: u32) -> MachineCfg {
    MachineCfg::cube_small_mem(dim, 8)
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digest of everything a batch run leaves behind.
fn digest(m: &Machine, rep: &BatchReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut h, rep.render().as_bytes());
    for j in &rep.jobs {
        fnv(&mut h, &j.turnaround.as_ps().to_le_bytes());
        for w in &j.result {
            fnv(&mut h, &w.to_le_bytes());
        }
    }
    fnv(&mut h, &m.now().as_ps().to_le_bytes());
    fnv(&mut h, m.registry().report().as_bytes());
    h
}

fn sax(name: &str, dim: u32, phases: u32, sweeps: u32) -> JobSpec {
    JobSpec::new(name, dim, JobKernel::Saxpy { phases, sweeps })
}

fn ar(name: &str, dim: u32, phases: u32) -> JobSpec {
    JobSpec::new(name, dim, JobKernel::AllReduce { phases })
}

/// Three faults inside running partitions: a node crash mid-phase
/// (its partner's task stays parked and is retired with it), a flip in a
/// row no kernel touches (a latent error only the patrol finds) and a
/// flip under a running SAXPY (the read fails, the rest of the gang is
/// retired in flight). Each job is condemned off its subcube, re-queued
/// and replayed on a fresh one while later arrivals soak up the healthy
/// buddies the allocator split off.
#[test]
fn crash_and_mem_flips_condemn_and_reallocate() {
    let specs = vec![
        ar("pair-ar", 1, 4),
        sax("quad-sax", 2, 3, 4),
        ar("pair-ar2", 1, 3),
        sax("quad-long", 2, 2, 40),
        sax("solo-a", 0, 2, 2).submit_at(Dur::us(400)),
        ar("pair-late", 1, 2).submit_at(Dur::us(900)),
        sax("solo-b", 0, 1, 5).submit_at(Dur::us(1_300)).priority(2),
        ar("quad-late", 2, 2).submit_at(Dur::us(2_000)),
    ];
    let mut m = Machine::build(small(4));
    // The deterministic allocator puts job 0 on {0, 1}, job 1 on {4..8}
    // and job 3 on {8..12}.
    let flip = |node, addr| FaultEvent::MemFlip { node, addr, bit: 3 };
    FaultPlan::new()
        .with(Dur::us(60), FaultEvent::NodeCrash { node: 1 })
        .with(Dur::us(200), flip(9, 4))
        .with(Dur::us(700), flip(5, 5 * 256 + 9))
        .schedule(&m);
    let rep = Scheduler::new(Policy::FcfsBackfill)
        .aging(Dur::us(500), 3)
        .run_batch(&mut m, specs, None);
    let reallocs: Vec<u32> = rep.jobs.iter().map(|j| j.reallocations).collect();
    assert_eq!(reallocs, [1, 1, 0, 1, 0, 0, 0, 0]);
    assert_eq!(digest(&m, &rep), 0x9b825f0f19a514b6, "{}", rep.render());
}

/// Priority preemption with evictions at both gates: an urgent
/// whole-machine job evicts two running jobs at the end of their
/// in-flight phases (`PhaseDone`), and a second urgent arrival lands
/// while the evicted jobs sit in their resume gates, so they yield again
/// without launching (`Launch`).
#[test]
fn preemption_evicts_at_both_gates() {
    let specs = vec![
        sax("low-sax", 2, 3, 200),
        ar("mid-ar", 2, 6).priority(1),
        sax("urgent-all", 3, 1, 2)
            .priority(5)
            .submit_at(Dur::us(200)),
        sax("urgent-quad", 2, 1, 2)
            .priority(5)
            .submit_at(Dur::ms(20)),
        sax("tail", 1, 1, 3).submit_at(Dur::ms(21)),
    ];
    let mut m = Machine::build(small(3));
    let rep = Scheduler::new(Policy::FcfsBackfill).run_batch(&mut m, specs, None);
    assert_eq!(rep.jobs[0].preemptions, 1, "evicted in flight");
    assert_eq!(
        rep.jobs[1].preemptions, 2,
        "evicted in flight, then at its gate"
    );
    assert_eq!(digest(&m, &rep), 0xc2c8132eff853fca, "{}", rep.render());
}

/// Submission times that fall as ids rise: arrival order is by
/// `submit_at`, not by id.
#[test]
fn arrivals_out_of_id_order() {
    let specs: Vec<JobSpec> = (0..9u32)
        .map(|i| {
            let at = Dur::us(130 * (8 - i) as u64);
            let spec = if i % 2 == 0 {
                sax(&format!("s{i}"), i % 3, 2, 3)
            } else {
                ar(&format!("a{i}"), 1 + i % 2, 2)
            };
            let spec = spec.submit_at(at).priority(i % 3);
            if i % 4 == 1 {
                spec.deadline(Dur::ms(2))
            } else {
                spec
            }
        })
        .collect();
    let mut m = Machine::build(small(2));
    let rep = Scheduler::new(Policy::FcfsBackfill)
        .aging(Dur::us(300), 2)
        .run_batch(&mut m, specs, None);
    assert_eq!(rep.jobs[8].wait, Dur::ZERO, "job 8 arrives first");
    assert_eq!(digest(&m, &rep), 0xa0a1d9affc38bd6a, "{}", rep.render());
}

/// Strict FCFS: placement stops at the first queued job that does not
/// fit, so the narrow jobs behind the blocked wide one wait although
/// their subcubes are free.
#[test]
fn fcfs_stops_at_the_first_miss() {
    let specs = vec![
        ar("long-pair", 1, 5),
        sax("wide", 2, 2, 4),
        sax("short-pair", 1, 1, 1),
        sax("solo", 0, 1, 1),
        ar("late-pair", 1, 1).submit_at(Dur::us(150)).priority(1),
    ];
    let mut m = Machine::build(small(2));
    let rep = Scheduler::new(Policy::Fcfs).run_batch(&mut m, specs, None);
    assert!(
        rep.jobs[2].wait > rep.jobs[1].wait,
        "the short pair may not pass the blocked wide job"
    );
    assert_eq!(digest(&m, &rep), 0xda077a052d6cb8d0, "{}", rep.render());
}

/// The machineless capacity path at a load that keeps a blocked head and a
/// deep backfill scan behind it for most of the stream.
#[test]
fn capacity_path_report_is_pinned() {
    let dim = 6;
    let sizes = [(0, 0.1), (1, 0.45), (2, 0.25), (3, 0.12), (4, 0.08)];
    let trace = common::stream(0x5eed_0019, dim, &sizes, 0.95, 0.0, 20_000);
    let rep = ServiceScheduler::new(ServiceCfg::new(dim).aging(Dur::us(500), 4)).run(&trace);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut h, rep.render().as_bytes());
    assert_eq!(h, 0x9f8bee3c6645a350, "{}", rep.render());
}

/// The whole service stack on a live machine: a seeded 300-job kernel
/// mix with aging, EDF, reservation backfill and preemption all active.
#[test]
fn seeded_kernel_mix_through_the_service() {
    let dim = 4;
    let sizes = [(0, 0.15), (1, 0.5), (2, 0.35)];
    let trace = common::stream(0x5eed_0019, dim, &sizes, 0.7, 0.6, 300);
    let mut m = Machine::build(small(dim));
    let svc = ServiceScheduler::new(ServiceCfg::new(dim).aging(Dur::us(500), 4));
    let (batch, service) = svc.run_on_machine(&mut m, &trace);
    assert!(batch.aging_promotions > 0 && batch.edf_reorders > 0);
    let mut h = digest(&m, &batch);
    fnv(&mut h, service.render().as_bytes());
    assert_eq!(h, 0x41479ffd2912aa90, "{}", service.render());
}
