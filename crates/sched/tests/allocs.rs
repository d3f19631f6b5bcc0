//! Allocation gates for the live scheduler (ROADMAP aim 1: gate on
//! deterministic proxies exactly).
//!
//! `Scheduler::run_batch` ticks every 50 µs of simulated time whether or
//! not anything happened, so what a tick costs when nothing did decides
//! the host cost of a long run. Under a counting global allocator: a
//! quantum in which nothing arrives, finishes or ages allocates nothing
//! at all — not in the scheduler, not in the executor — and a whole
//! seeded live trace stays under a pinned number of allocations per job.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use t_series_core::{Machine, MachineCfg};
use ts_sched::{JobKernel, JobSpec, Policy, Scheduler, ServiceCfg, ServiceScheduler};
use ts_sim::Dur;

mod common;

struct CountingAlloc;

thread_local! {
    /// Per thread, so each test samples only its own allocations.
    /// Const-initialised and without a destructor, so the allocator may
    /// touch it at any time.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Allocations `f` performs on this thread.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(|n| n.get());
    let out = f();
    (out, ALLOCS.with(|n| n.get()) - before)
}

/// One job sleeps on the whole machine for `hold` while six more wait
/// behind it, blocked, reserved for and aged to their cap within the
/// first 2 ms; then they drain.
fn blocked_queue_behind_a_sleeper(hold: Dur) -> (Dur, u64) {
    let mut specs = vec![JobSpec::new("hold", 2, JobKernel::Sleep { dur: hold })];
    for i in 0..6u32 {
        let kernel = JobKernel::Saxpy {
            phases: 1,
            sweeps: 1 + i % 3,
        };
        specs.push(
            JobSpec::new(&format!("w{i}"), i % 3, kernel)
                .priority(i % 2)
                .submit_at(Dur::us(100 * i as u64)),
        );
    }
    let mut m = Machine::build(MachineCfg::cube_small_mem(2, 8));
    let sched = Scheduler::new(Policy::FcfsBackfill).aging(Dur::us(400), 3);
    let (rep, allocs) = allocs_in(|| sched.run_batch(&mut m, specs, None));
    assert!(rep.aging_promotions > 0, "the waiting jobs must age");
    (rep.makespan, allocs)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a debug build's oracles allocate every tick; run with --release"
)]
fn a_quantum_in_which_nothing_happens_allocates_nothing() {
    let (short, short_allocs) = blocked_queue_behind_a_sleeper(Dur::ms(5));
    let (long, long_allocs) = blocked_queue_behind_a_sleeper(Dur::ms(105));
    // Same arrivals, promotions, placements and completions; the long run
    // only adds 2 000 quanta in which six jobs wait and one sleeps.
    assert_eq!(long, short + Dur::ms(100));
    assert_eq!(
        long_allocs,
        short_allocs,
        "2 000 idle quanta allocated {} times",
        long_allocs as i64 - short_allocs as i64
    );
}

/// 51 when pinned (705 before the tick loop went incremental): spawning a
/// gang, its checkpoint captures and its report row, nothing per tick.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a debug build's oracles allocate every tick; run with --release"
)]
fn a_live_trace_stays_under_its_allocation_budget() {
    const JOBS: usize = 200;
    let dim = 4;
    let sizes = [(0, 0.15), (1, 0.5), (2, 0.35)];
    let trace = common::stream(0xa110c5, dim, &sizes, 0.7, 0.6, JOBS);
    let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
    let svc = ServiceScheduler::new(ServiceCfg::new(dim).aging(Dur::us(500), 4));
    let ((batch, _), allocs) = allocs_in(|| svc.run_on_machine(&mut m, &trace));
    assert_eq!(batch.jobs.len(), JOBS);
    let per_job = allocs / JOBS as u64;
    assert!(
        per_job <= 64,
        "{per_job} allocations per job ({allocs} over {JOBS} jobs)"
    );
}
