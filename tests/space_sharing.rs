//! Space-sharing acceptance tests: subcube isolation, preemptive
//! multi-job scheduling, fault-driven re-allocation, per-job accounting.

use fps_t_series::cube::{Hypercube, Subcube};
use fps_t_series::machine::{collectives, Machine, MachineCfg};
use fps_t_series::node::CombineOp;
use fps_t_series::sched::{run_standalone, JobKernel, JobSpec, Policy, Scheduler};
use ts_fpu::Sf64;
use ts_sim::{Dur, Tracer};

fn small(dim: u32) -> MachineCfg {
    MachineCfg::cube_small_mem(dim, 8)
}

/// Satellite: an all-reduce inside a 2-subcube of a 4-cube — on
/// *non-contiguous* dims, so the relabeling is nontrivial — produces
/// results and per-node link traffic identical to a dedicated 2-cube.
#[test]
fn allreduce_in_a_subcube_matches_a_dedicated_2cube() {
    let cube2 = Hypercube::new(2);
    let program = |ctx: fps_t_series::node::NodeCtx| async move {
        let mine = vec![Sf64::from(ctx.id() as f64 + 1.0)];
        collectives::allreduce(&ctx, cube2, CombineOp::Add, mine).await
    };

    // Reference: the same program on a dedicated 2-cube.
    let mut m2 = Machine::build(small(2));
    let ref_handles = m2.launch(program);
    assert!(m2.run().quiescent);
    let want: Vec<Vec<Sf64>> = ref_handles.iter().map(|h| h.try_take().unwrap()).collect();

    // A 2-subcube of a 4-cube: virtual dim 0 rides physical dim 1,
    // virtual dim 1 rides physical dim 3, based away from node 0.
    let mut m4 = Machine::build(small(4));
    let sub = Subcube::new(0b0101, vec![1, 3]);
    let handles = m4.launch_subcube(&sub, program);
    assert!(m4.run().quiescent);
    for (v, h) in handles.iter().enumerate() {
        assert_eq!(h.try_take().unwrap(), want[v], "virtual node {v} diverged");
    }

    // Identical communication, hop for hop: each virtual node moved
    // exactly the words its dedicated-cube twin moved.
    for v in 0..sub.len() {
        let twin = m2.nodes[v as usize].meters();
        let here = m4.nodes[sub.to_phys(v) as usize].meters();
        assert_eq!(
            here.link_words_sent.get(),
            twin.link_words_sent.get(),
            "node {v} sent"
        );
        assert_eq!(
            here.link_words_recv.get(),
            twin.link_words_recv.get(),
            "node {v} recv"
        );
    }
    // And the partition stayed isolated: nodes outside it moved nothing.
    for p in (0..16).filter(|&p| !sub.contains(p)) {
        assert_eq!(m4.nodes[p as usize].meters().link_words_sent.get(), 0);
    }
}

/// Acceptance: a high-priority arrival evicts the running job via
/// checkpoint; the evicted job resumes later and still produces
/// bit-identical results; the `job/{id}/preemptions` counter and the
/// Perfetto job spans both show the eviction.
#[test]
fn preemption_is_checkpointed_and_bit_identical() {
    let long = JobSpec::new("long", 2, JobKernel::AllReduce { phases: 6 });
    let urgent = JobSpec::new(
        "urgent",
        1,
        JobKernel::Saxpy {
            phases: 1,
            sweeps: 2,
        },
    )
    .priority(5)
    .submit_at(Dur::us(200));
    let long_alone = run_standalone(small(2), &long);
    let urgent_alone = run_standalone(small(1), &urgent);

    let tracer = Tracer::new();
    let mut m = Machine::build(small(2));
    let rep = Scheduler::new(Policy::Fcfs).run_batch(&mut m, vec![long, urgent], Some(&tracer));

    assert!(
        rep.jobs[0].preemptions >= 1,
        "the urgent job must evict the long one"
    );
    assert_eq!(
        rep.jobs[0].result, long_alone.result,
        "evicted job resumed bit-identically"
    );
    assert_eq!(rep.jobs[1].result, urgent_alone.result);
    assert!(
        rep.jobs[1].turnaround < rep.jobs[0].turnaround,
        "priority let the urgent job cut ahead of the long one"
    );

    // Accounting: the counter is on the machine's registry...
    assert_eq!(
        m.registry().get_counter("job/0/preemptions"),
        Some(rep.jobs[0].preemptions as u64)
    );
    // The checkpoint traffic the gates charged: five boundary deltas out
    // (1032 B per node each), one resume of four 8 KB images back in.
    assert_eq!(
        m.registry().get_counter("job/0/ckpt_bytes_out"),
        Some(20_640)
    );
    assert_eq!(
        m.registry().get_counter("job/0/ckpt_bytes_in"),
        Some(32_768)
    );
    // ...and the job's Perfetto track shows one span per held interval.
    let spans = tracer
        .spans()
        .into_iter()
        .filter(|s| s.track == "job/0")
        .count() as u32;
    assert_eq!(
        spans,
        rep.jobs[0].preemptions + 1,
        "an eviction splits the job span"
    );
}

/// Acceptance: backfill achieves strictly lower makespan than strict
/// FCFS on a mixed-width batch (a wide head job blocks a short narrow
/// one that could run beside the current job).
#[test]
fn backfill_beats_fcfs_on_a_mixed_width_batch() {
    let batch = || {
        vec![
            JobSpec::new("long-narrow", 1, JobKernel::AllReduce { phases: 6 }),
            JobSpec::new(
                "wide",
                2,
                JobKernel::Saxpy {
                    phases: 2,
                    sweeps: 4,
                },
            ),
            JobSpec::new(
                "short-narrow",
                1,
                JobKernel::Saxpy {
                    phases: 1,
                    sweeps: 1,
                },
            ),
        ]
    };
    let run = |policy| {
        let mut m = Machine::build(small(2));
        Scheduler::new(policy).run_batch(&mut m, batch(), None)
    };
    let fcfs = run(Policy::Fcfs);
    let backfill = run(Policy::FcfsBackfill);

    assert!(
        backfill.makespan < fcfs.makespan,
        "backfill {:?} must beat FCFS {:?}",
        backfill.makespan,
        fcfs.makespan
    );
    // The schedule changes; the numbers must not.
    for (b, f) in backfill.jobs.iter().zip(&fcfs.jobs) {
        assert_eq!(
            b.result, f.result,
            "job '{}' diverged across policies",
            b.name
        );
    }
}

/// Acceptance: a fault inside a partition condemns that subcube, and the
/// job is re-allocated to a fresh subcube and replayed from checkpoint.
#[test]
fn node_crash_reallocates_the_job_to_a_fresh_subcube() {
    let job = JobSpec::new("victim", 1, JobKernel::AllReduce { phases: 4 });
    let alone = run_standalone(small(1), &job);

    let mut m = Machine::build(small(3));
    // The deterministic allocator places job 0 on nodes {0, 1}; crash
    // node 1 mid-run from a host-side timer task.
    let doomed = m.nodes[1].clone();
    let h = m.handle();
    m.launch_on(0, async move {
        h.sleep(Dur::us(300)).await;
        doomed.crash();
    });
    let rep = Scheduler::new(Policy::Fcfs).run_batch(&mut m, vec![job], None);

    assert_eq!(
        rep.jobs[0].reallocations, 1,
        "the crash must force one re-allocation"
    );
    assert_eq!(
        rep.jobs[0].result, alone.result,
        "replay from checkpoint is bit-identical"
    );
    assert_eq!(m.registry().get_counter("job/0/reallocations"), Some(1));
    assert!(m.nodes[1].is_crashed(), "the condemned node stays dead");
}

/// Acceptance: a mixed 6-job batch on a 4-cube — dims 0 through 3, both
/// kernels — runs concurrently, deterministically, and every job's
/// result is bit-identical to a dedicated run at the same dim.
#[test]
fn mixed_batch_on_a_4cube_is_deterministic_and_isolated() {
    let batch = || {
        vec![
            JobSpec::new("wide-ar", 3, JobKernel::AllReduce { phases: 2 }),
            JobSpec::new(
                "pair-sax",
                1,
                JobKernel::Saxpy {
                    phases: 2,
                    sweeps: 3,
                },
            ),
            JobSpec::new("quad-ar", 2, JobKernel::AllReduce { phases: 3 }),
            JobSpec::new(
                "solo-sax",
                0,
                JobKernel::Saxpy {
                    phases: 1,
                    sweeps: 5,
                },
            ),
            JobSpec::new("pair-ar", 1, JobKernel::AllReduce { phases: 1 }),
            JobSpec::new("solo-ar", 0, JobKernel::AllReduce { phases: 2 }),
        ]
    };
    let run = || {
        let mut m = Machine::build(small(4));
        let rep = Scheduler::new(Policy::FcfsBackfill).run_batch(&mut m, batch(), None);
        let wait_us: Vec<Option<u64>> = (0..6)
            .map(|i| m.registry().get_counter(&format!("job/{i}/wait_us")))
            .collect();
        (rep, wait_us)
    };
    let (rep1, wait1) = run();
    let (rep2, wait2) = run();
    assert_eq!(
        rep1.render(),
        rep2.render(),
        "seeded batch must be byte-identical"
    );
    assert_eq!(wait1, wait2);
    for (spec, out) in batch().iter().zip(&rep1.jobs) {
        let alone = run_standalone(small(spec.dim), spec);
        assert_eq!(
            out.result, alone.result,
            "job '{}' diverged from dedicated run",
            spec.name
        );
    }
    for (i, w) in wait1.iter().enumerate() {
        assert!(w.is_some(), "job {i} must book wait_us into the registry");
    }
    assert!(rep1.utilization > 0.0 && rep1.utilization <= 1.0);
}
