//! Scale guards for the executor overhaul.
//!
//! The hot-loop rewrite (local ready queue, due-batch timer drain, slot
//! recycling, routing tables) must not move a single event:
//! the simulator's output is a pure function of the program, so a dim-8
//! allreduce must produce bit-identical results *and* finish at the
//! identical picosecond before and after the optimizations. The golden
//! digest below was captured from the pre-optimization revision; any
//! change to it means an optimization reordered wakeups and broke
//! determinism.
//!
//! The profile assertions pin the scheduler's efficiency: polls must stay
//! within a small factor of timer events (no busy-wait storms at scale),
//! and meter updates must not allocate (verified with a counting global
//! allocator).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use t_series_core::parallel::{run_parallel, ParallelCfg};
use t_series_core::{collectives, Hypercube, Machine, MachineCfg};
use ts_fpu::Sf64;
use ts_node::CombineOp;

/// Counting allocator: every test in this binary runs under it, and the
/// zero-allocation assertions sample the counter around a hot region.
struct CountingAlloc;

thread_local! {
    /// Per thread, so a test samples only its own allocations while the
    /// other tests of this binary run beside it. Const-initialised and
    /// without a destructor, so the allocator may touch it at any time.
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

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Run a dim-8 (256-node) allreduce and fold every node's result — values
/// and order — plus the finish time into one digest.
fn dim8_allreduce_digest() -> u64 {
    let dim = 8;
    let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
    let cube = m.cube;
    let handles = m.launch(move |ctx| async move {
        let id = ctx.id();
        let mine = vec![
            Sf64::from(id as f64),
            Sf64::from(1.0 / (1.0 + id as f64)),
            Sf64::from((id % 17) as f64 * 0.5),
            Sf64::from(1.0),
        ];
        collectives::allreduce(&ctx, cube, CombineOp::Add, mine).await
    });
    assert!(m.run().quiescent, "dim-8 allreduce stalled");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for jh in handles {
        let vals = jh.try_take().expect("allreduce result missing");
        for v in vals {
            h = fnv(h, &v.to_bits().to_le_bytes());
        }
    }
    fnv(h, &m.now().as_ps().to_le_bytes())
}

/// Golden digest of the dim-8 allreduce, captured at the seed revision
/// (before the hot-loop rewrite). Optimizations must keep it bit-identical.
const GOLDEN_DIM8_ALLREDUCE: u64 = 0xa15af5783f80f7de;

#[test]
fn dim8_allreduce_matches_preoptimization_digest() {
    let got = dim8_allreduce_digest();
    assert_eq!(
        got, GOLDEN_DIM8_ALLREDUCE,
        "dim-8 allreduce digest changed: got {got:#018x}, golden {GOLDEN_DIM8_ALLREDUCE:#018x} \
         — an optimization reordered events or perturbed results"
    );
}

#[test]
fn digest_is_reproducible_within_one_process() {
    assert_eq!(dim8_allreduce_digest(), dim8_allreduce_digest());
}

/// The same dim-8 allreduce on the parallel backend, sharded across
/// threads. Bit-identical results and finish time are the whole contract:
/// the digest must equal the sequential golden, at every shard count.
fn dim8_allreduce_digest_parallel(shards: u32) -> u64 {
    let dim = 8;
    let cube = Hypercube::new(dim);
    let run = run_parallel(
        MachineCfg::cube_small_mem(dim, 8),
        &ParallelCfg::new(shards),
        move |ctx| async move {
            let id = ctx.id();
            let mine = vec![
                Sf64::from(id as f64),
                Sf64::from(1.0 / (1.0 + id as f64)),
                Sf64::from((id % 17) as f64 * 0.5),
                Sf64::from(1.0),
            ];
            collectives::allreduce(&ctx, cube, CombineOp::Add, mine).await
        },
    );
    assert!(run.quiescent, "parallel dim-8 allreduce stalled");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for vals in run.results {
        for v in vals.expect("allreduce result missing") {
            h = fnv(h, &v.to_bits().to_le_bytes());
        }
    }
    fnv(h, &run.final_time.as_ps().to_le_bytes())
}

#[test]
fn parallel_backend_matches_golden_digest_at_2_shards() {
    let got = dim8_allreduce_digest_parallel(2);
    assert_eq!(
        got, GOLDEN_DIM8_ALLREDUCE,
        "2-shard parallel digest diverged from the sequential golden"
    );
}

#[test]
fn parallel_backend_matches_golden_digest_at_4_shards() {
    let got = dim8_allreduce_digest_parallel(4);
    assert_eq!(
        got, GOLDEN_DIM8_ALLREDUCE,
        "4-shard parallel digest diverged from the sequential golden"
    );
}

#[test]
fn parallel_backend_matches_golden_digest_at_1_shard() {
    // shards == 1 degenerates to the sequential backend; pin that too.
    let got = dim8_allreduce_digest_parallel(1);
    assert_eq!(got, GOLDEN_DIM8_ALLREDUCE);
}

/// Allreduce `[id, 1.0]` on `m`: every node must hold the two sums, and
/// the poll count must stay within 2x of the timer event count — every
/// wake does useful work, so scaling the node count cannot trigger poll
/// storms. Returns the run's timer events and the allocations it made
/// (the program's vectors come from and go back to the value pool).
fn allreduce_sums_without_poll_storm(m: &mut Machine) -> (u64, u64) {
    let cube = m.cube;
    let handles = m.launch(move |ctx| async move {
        let mut mine = ts_node::take_values(2);
        mine.extend([Sf64::from(ctx.id() as f64), Sf64::from(1.0)]);
        collectives::allreduce(&ctx, cube, CombineOp::Add, mine).await
    });
    let (p0, allocs) = (m.profile(), ALLOCS.with(Cell::get));
    assert!(m.run().quiescent, "dim-{} allreduce stalled", cube.dim());
    let allocs = ALLOCS.with(Cell::get) - allocs;
    let n = handles.len() as f64;
    for h in handles {
        let got = h.try_take().expect("allreduce result missing");
        assert_eq!(got[0].to_host(), n * (n - 1.0) / 2.0);
        assert_eq!(got[1].to_host(), n);
        ts_node::recycle_values(got);
    }
    let p = m.profile();
    let (events, polls) = (p.timer_events - p0.timer_events, p.polls - p0.polls);
    assert!(events > 0 && polls > 0, "profile counters empty");
    assert!(
        polls <= 2 * events,
        "poll storm at dim {}: {polls} polls for {events} timer events (> 2x)",
        cube.dim(),
    );
    (events, allocs)
}

#[test]
fn polls_stay_within_twice_events() {
    allreduce_sums_without_poll_storm(&mut Machine::build(MachineCfg::cube_small_mem(6, 8)));
}

/// The paper's largest machine, run sequentially: the 14-cube (16,384
/// nodes, every node ending on `[134209536, 16384]`) on the full sublink
/// budget, twice. The first allreduce fills the buffer pools; the second
/// finds every buffer it has in flight there, so it allocates at most once
/// per fifty timer events: a pool must cover a lockstep round of 16 384
/// nodes. Release-only — a debug build takes minutes.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn dim14_cube_max_allreduce_runs_sequentially() {
    let mut m = Machine::build(MachineCfg::cube_max(14));
    allreduce_sums_without_poll_storm(&mut m);
    let (events, allocs) = allreduce_sums_without_poll_storm(&mut m);
    assert!(
        allocs * 50 <= events,
        "second dim-14 allreduce: {allocs} allocations for {events} timer events"
    );
}

/// Building a machine makes what it keeps: every sublink is built with its
/// final meters and health flag, the bare ones (system thread, ring) book
/// into the thread's one detached set, and a node's cube channels sit in a
/// table filled once, so a dim-10 build makes at most 150 allocations per
/// node.
#[test]
fn building_a_machine_keeps_what_it_makes() {
    let before = ALLOCS.with(Cell::get);
    let m = Machine::build(MachineCfg::cube_small_mem(10, 8));
    let per_node = (ALLOCS.with(Cell::get) - before) / m.nodes.len() as u64;
    assert!(per_node <= 150, "{per_node} allocations per node");
}

/// Starting the router on a dim-10 machine costs each node its loopback
/// sublink (an engine, the channel and its cold box; its meters are the
/// thread's detached set), its delivery mailbox and its daemon, whose join
/// handle the router keeps: at most 7 allocations per node.
#[test]
fn starting_the_router_allocates_at_most_7_per_node() {
    let m = Machine::build(MachineCfg::cube_small_mem(10, 8));
    let before = ALLOCS.with(Cell::get);
    let _router = t_series_core::router::Router::start(&m);
    let per_node = (ALLOCS.with(Cell::get) - before) / m.nodes.len() as u64;
    assert!(per_node <= 7, "{per_node} allocations per node");
}

/// Stopping the router is one loopback frame and one routing decision per
/// node, not a routed wave: after a dim-10 exchange in which every node
/// sends 8 words to its antipode (10 hops, so 10 forwards per message),
/// shutdown adds at most 3 timer events per node and reports the data
/// frames forwarded, nothing else.
#[test]
fn router_shutdown_adds_at_most_3_events_per_node() {
    let mut m = Machine::build(MachineCfg::cube_small_mem(10, 8));
    let router = t_series_core::router::Router::start(&m);
    let n = m.nodes.len() as u32;
    for id in 0..n {
        let end = router.handle(id);
        m.handle().spawn(async move {
            end.send_to(!id & (n - 1), vec![id; 8]).await.unwrap();
            assert_eq!(end.recv().await, (!id & (n - 1), vec![!id & (n - 1); 8]));
        });
    }
    // The daemons outlive the exchange.
    assert!(!m.run().quiescent);
    let before = m.profile().timer_events;
    let forwarded = m.handle().spawn(router.shutdown());
    assert!(m.run().quiescent);
    let events = m.profile().timer_events - before;
    assert!(events <= 3 * n as u64, "{events} timer events to shut down");
    assert_eq!(forwarded.try_take(), Some(10 * n as u64));
}

/// Meter updates are allocation-free: at 4096 nodes the per-event metrics
/// cost has to be a plain counter bump, not a map insert or a box.
#[test]
fn meter_updates_do_not_allocate() {
    let reg = ts_sim::MetricsRegistry::new();
    let counter = reg.counter("scale/alloc_free");
    let busy = reg.busy_time("scale/busy");
    let hist = reg.histogram("scale/lens");
    // Warm the histogram's bucket storage before sampling.
    hist.observe(1);
    let before = ALLOCS.with(Cell::get);
    for i in 0..10_000u64 {
        counter.add(1);
        busy.add(ts_sim::Dur::ns(100));
        hist.observe(i % 64);
    }
    let after = ALLOCS.with(Cell::get);
    assert_eq!(
        after - before,
        0,
        "meter hot path allocated {} times in 30k updates",
        after - before
    );
    assert_eq!(reg.get_counter("scale/alloc_free"), Some(10_000));
}

/// A steady-state routed hop allocates nothing below the router: the
/// daemon's prepared `ALT` re-arms the cells it owns, its health watch
/// parks one waker for the daemon's lifetime, the completion one-shot and
/// the frame come from pools. (The daemon's own per-hop work — spawning the
/// forwarder — is `core::router`'s and is not exercised here.)
#[test]
fn a_steady_state_alt_receive_does_not_allocate() {
    use ts_link::{AltSet, LinkChannel, LinkParams, LinkStatus, Wire};
    use ts_sim::{pool, Sim};

    const WARM_UP: u32 = 64;
    const MEASURED: u32 = 2_000;
    let mut sim = Sim::new();
    let h = sim.handle();
    // Loopback plus five dimensions, like a dim-5 router daemon.
    let chans: Vec<LinkChannel> = (0..6)
        .map(|_| LinkChannel::new(Wire::new("hop", LinkParams::default())))
        .collect();
    let senders = [chans[0].clone(), chans[4].clone()];
    let h_tx = h.clone();
    sim.spawn(async move {
        for i in 0..WARM_UP + MEASURED {
            let mut frame = pool::take_words(8);
            frame.extend([i; 8]);
            senders[i as usize % 2].send(&h_tx, frame).await;
        }
    });
    let health = LinkStatus::new();
    let measured = sim.spawn(async move {
        let mut set = AltSet::new(&chans.iter().collect::<Vec<_>>());
        let mut crashed = health.watch_down();
        let mut before = 0;
        for i in 0..WARM_UP + MEASURED {
            if i == WARM_UP {
                before = ALLOCS.with(Cell::get);
            }
            let (_, frame) = set
                .recv_or_down(&h, &mut crashed)
                .await
                .expect("healthy node");
            assert_eq!(frame, [i; 8]);
            pool::put_words(frame);
        }
        ALLOCS.with(Cell::get) - before
    });
    assert!(sim.run().quiescent);
    assert_eq!(
        measured.try_take(),
        Some(0),
        "allocations in {MEASURED} steady-state ALT receives"
    );
}
