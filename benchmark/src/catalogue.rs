//! The metric and workload catalogue: every name this benchmark prints,
//! with its unit, clock, direction and — for end-to-end metrics — the bound
//! by which the median may worsen before `compare` calls it a regression.
//!
//! The names are the contract later issues cite; `BENCHMARK.json`, the
//! README tables and the self-tests are all checked against this file.

/// Which clock a number is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Wall clock (or memory) of the simulator process: noisy, reported as
    /// a median with quartiles.
    Host,
    /// The simulated clock or a count made by the simulated machine: a pure
    /// function of program and seed, must repeat exactly.
    Sim,
    /// Neither (the failed-check share).
    None,
}

impl Clock {
    /// Label printed beside every number.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::None => "-",
        }
    }
}

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far an end-to-end metric may worsen before it is a regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// A share of the base median.
    Rel(f64),
    /// An absolute distance in the metric's own unit (for shares that sit
    /// near zero, where a relative bound means nothing).
    Abs(f64),
}

/// One metric of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// The name, as printed and as written to result files.
    pub name: &'static str,
    /// Unit (letters, digits, `_ / % . -` only).
    pub unit: &'static str,
    /// Clock the number is read from.
    pub clock: Clock,
    /// Direction of improvement.
    pub better: Better,
    /// `Some` for an end-to-end metric: the regression bound `compare`
    /// applies. `None` for a per-layer metric (informational, never gated).
    pub bound: Option<Bound>,
    /// End-to-end metrics handed to the driver through `BENCHMARK.json`
    /// carry the bound written there: these four apply to every workload
    /// and are never 0, as the driver's contract demands. The other
    /// end-to-end metrics ride in its `per_layer` list. The driver measures
    /// spread across ten *different* seeds on a host whose speed moves in
    /// regimes of seconds, so these bounds are wider than `bound`, which
    /// `compare` applies at equal seeds.
    pub driver_bound: Option<f64>,
    /// What the metric measures, or — for a per-layer metric — which
    /// end-to-end metric on which workload it should move.
    pub note: &'static str,
}

impl MetricDef {
    /// Sim-clock numbers and counts repeat bit-for-bit and compare exactly.
    pub fn exact(&self) -> bool {
        self.clock == Clock::Sim
    }

    /// Whether this is one of the benchmark's own end-to-end metrics.
    pub fn end_to_end(&self) -> bool {
        self.bound.is_some()
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: Bound,
    driver_bound: Option<f64>,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        bound: Some(bound),
        driver_bound,
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        bound: None,
        driver_bound: None,
        note,
    }
}

use Better::{Higher, Lower};
use Clock::{Host, Sim};

/// Every metric, end-to-end first.
pub const METRICS: &[MetricDef] = &[
    // --- end to end --------------------------------------------------------
    e2e("setup_s", "s", Host, Lower, Bound::Rel(0.10), Some(0.25),
        "all: machine build + input/trace generation, before the first timed call"),
    e2e("wall_s", "s", Host, Lower, Bound::Rel(0.10), Some(0.25),
        "all: the timed region of one repetition (launch, run to quiescence, results taken), net of seconds the hypervisor stole"),
    e2e("peak_rss_mb", "MB", Host, Lower, Bound::Rel(0.05), Some(0.10),
        "all: VmHWM of the workload's own process after the timed repetitions"),
    e2e("failed_frac", "ratio", Clock::None, Lower, Bound::Abs(0.0), None,
        "all: failed output checks / checks attempted"),
    e2e("sim_elapsed_ms", "ms", Sim, Lower, Bound::Rel(0.01), Some(0.25),
        "all: simulated time at quiescence, summed over machine incarnations (service: makespan)"),
    e2e("sim_efficiency", "ratio", Sim, Higher, Bound::Rel(0.01), None,
        "kernel_dense: flops retired / (simulated seconds x 16 nodes x 16 MFLOPS) over the three kernels"),
    e2e("sim_p99_wait_us", "us", Sim, Lower, Bound::Rel(0.01), None,
        "service_queue, service_live: 99th-percentile arrival-to-placement wait"),
    e2e("sim_jobs_per_s", "jobs/s", Sim, Higher, Bound::Rel(0.01), None,
        "service_queue, service_live: completions per simulated second over the makespan"),
    e2e("sim_missed_deadline_frac", "ratio", Sim, Lower, Bound::Abs(0.01), None,
        "service_queue, service_live: jobs finished after their deadline / jobs"),
    e2e("sim_snapshot_ms", "ms", Sim, Lower, Bound::Rel(0.01), None,
        "recovery_storm: mean simulated time of a committed delta checkpoint"),
    e2e("model_err_max", "ratio", Sim, Lower, Bound::Abs(0.01), None,
        "collective_storm: max over p2p/broadcast/allreduce/all-to-all of |simulated - NetModel| / model"),
    // --- ts-sim ------------------------------------------------------------
    layer("sim.events", "count", Sim, Lower,
        "wall_s on collective_storm, recovery_storm, service_live; 0 on service_queue"),
    layer("sim.polls_per_event", "ratio", Sim, Lower,
        "wall_s on collective_storm, recovery_storm, service_live"),
    // Host clock: the allocator is the host's. The count is deterministic up
    // to the warm-up of ts-sim's thread-local buffer pools, which outlive a
    // machine, so it is sampled like a timing rather than pinned.
    layer("sim.allocs_per_event", "ratio", Host, Lower,
        "wall_s and peak_rss_mb on collective_storm, recovery_storm, service_live (counting allocator, traced repetitions only)"),
    layer("sim.host_ns_per_event", "ns", Host, Lower,
        "wall_s on collective_storm (event handling) vs kernel_dense (arithmetic per event)"),
    layer("sim.max_timers", "count", Sim, Lower,
        "peak_rss_mb on collective_storm, sharded_dim12"),
    // --- ts-fpu / ts-vec / ts-mem -----------------------------------------
    layer("fpu.ns_per_flop", "ns", Host, Lower,
        "wall_s on kernel_dense (host time of the kernel spans / flops retired); no move on collective_storm"),
    layer("vec.ns_per_element", "ns", Host, Lower,
        "wall_s on kernel_dense (host time of the kernel spans / vector elements streamed)"),
    layer("mem.ns_per_row_op", "ns", Host, Lower,
        "wall_s on kernel_dense (host time of the LU span / vector forms issued in it; LU alone computes in node memory, up to 3 rows a form)"),
    layer("mem.rows_moved", "count", Sim, Lower,
        "sim_elapsed_ms on kernel_dense (physical row moves; reads 0 while no kernel calls row_move/row_swap)"),
    layer("vec.busy_frac", "ratio", Sim, Higher,
        "sim_efficiency and sim_elapsed_ms on kernel_dense (share of node-time; shares may overlap)"),
    layer("cp.busy_frac", "ratio", Sim, Lower,
        "sim_efficiency on kernel_dense (share of node-time; may overlap vec.busy_frac)"),
    layer("node.blocked_frac", "ratio", Sim, Lower,
        "sim_efficiency on kernel_dense (1 - vec - cp: waiting on links, ports or peers)"),
    layer("vec.mean_len", "count", Sim, Higher,
        "sim_efficiency on kernel_dense (mean vector-form length; startup amortises over it)"),
    layer("link.wire_busy_frac", "ratio", Sim, Lower,
        "sim_elapsed_ms on kernel_dense, collective_storm (computed: words sent x 8 us / node-time)"),
    // --- ts-link -----------------------------------------------------------
    layer("link.words_sent", "count", Sim, Lower,
        "sim_elapsed_ms on collective_storm, recovery_storm"),
    layer("link.latency_ns_mean", "ns", Sim, Lower,
        "sim_elapsed_ms on collective_storm, recovery_storm (mean inbound message latency)"),
    layer("link.retransmits", "count", Sim, Lower,
        "sim_elapsed_ms on recovery_storm; must read 0 on every other workload"),
    layer("link.crc_errors", "count", Sim, Lower,
        "sim_elapsed_ms on recovery_storm; must read 0 on every other workload"),
    layer("link.escalations", "count", Sim, Lower,
        "sim_elapsed_ms on recovery_storm; must read 0 on every other workload"),
    // --- t-series-core -----------------------------------------------------
    layer("core.router_hops_mean", "count", Sim, Lower,
        "sim_elapsed_ms on collective_storm (routed phase), recovery_storm"),
    layer("core.router_reroutes", "count", Sim, Lower,
        "sim_elapsed_ms on recovery_storm (detours around flapping links)"),
    layer("core.coll_retries", "count", Sim, Lower,
        "sim_elapsed_ms on recovery_storm (deadline-guarded broadcast retries)"),
    layer("core.build_us_per_node", "us", Host, Lower,
        "setup_s on every machine workload; inside wall_s on sharded_dim12"),
    layer("core.ckpt_bytes_streamed", "bytes", Sim, Lower,
        "sim_snapshot_ms on recovery_storm"),
    layer("core.ckpt_delta_ratio", "ratio", Sim, Lower,
        "sim_snapshot_ms on recovery_storm (bytes streamed / full-image equivalent)"),
    layer("core.ckpt_torn_aborts", "count", Sim, Lower,
        "sim_elapsed_ms on recovery_storm (one per seeded mid-snapshot crash)"),
    layer("core.ckpt_host_ms", "ms", Host, Lower,
        "wall_s on recovery_storm (host time inside Machine::checkpoint)"),
    layer("core.restore_host_ms", "ms", Host, Lower,
        "wall_s on recovery_storm (host time inside restore_from, reboot included)"),
    layer("core.rework_sim_ms", "ms", Sim, Lower,
        "sim_elapsed_ms on recovery_storm (restore + replayed rounds)"),
    layer("core.parallel_rounds_per_sim_ms", "1/ms", Sim, Lower,
        "wall_s on sharded_dim12 (lockstep barrier rounds per simulated ms)"),
    layer("core.parallel_boundary_events", "count", Sim, Lower,
        "wall_s on sharded_dim12 (events beyond the sequential run)"),
    layer("core.parallel_speedup_vs_seq", "ratio", Host, Higher,
        "wall_s on sharded_dim12 (sequential build+run / 2-shard build+run)"),
    layer("core.parallel_1shard_overhead", "ratio", Host, Lower,
        "wall_s on sharded_dim12 (1-shard build+run / sequential build+run)"),
    // --- ts-kernels --------------------------------------------------------
    layer("kernels.matmul_sim_ms", "ms", Sim, Lower, "sim_elapsed_ms on kernel_dense"),
    layer("kernels.fft_sim_ms", "ms", Sim, Lower, "sim_elapsed_ms on kernel_dense"),
    layer("kernels.lu_sim_ms", "ms", Sim, Lower, "sim_elapsed_ms on kernel_dense"),
    layer("kernels.matmul_efficiency", "ratio", Sim, Higher, "sim_efficiency on kernel_dense"),
    layer("kernels.fft_efficiency", "ratio", Sim, Higher, "sim_efficiency on kernel_dense"),
    layer("kernels.lu_efficiency", "ratio", Sim, Higher, "sim_efficiency on kernel_dense"),
    layer("kernels.matmul_host_s", "s", Host, Lower, "wall_s on kernel_dense"),
    layer("kernels.fft_host_s", "s", Host, Lower, "wall_s on kernel_dense"),
    layer("kernels.lu_host_s", "s", Host, Lower, "wall_s on kernel_dense"),
    layer("kernels.matmul_scaling_eff", "ratio", Sim, Higher,
        "sim_efficiency on kernel_dense (16-node efficiency / 1-node n=128 efficiency)"),
    // --- ts-sched ----------------------------------------------------------
    layer("sched.ns_per_job", "ns", Host, Lower, "wall_s on service_queue, service_live"),
    layer("sched.promotions", "count", Sim, Lower, "sim_p99_wait_us on service_queue, service_live"),
    layer("sched.edf_reorders", "count", Sim, Lower, "sim_missed_deadline_frac on service_queue, service_live"),
    layer("sched.preemptions", "count", Sim, Lower, "sim_jobs_per_s on service_live"),
    layer("sched.reallocations", "count", Sim, Lower, "sim_jobs_per_s on service_live"),
    layer("sched.utilization", "ratio", Sim, Higher, "sim_jobs_per_s on service_queue, service_live"),
    layer("sched.ckpt_bytes", "bytes", Sim, Lower, "sim_jobs_per_s on service_live (preemption checkpoints)"),
    // --- ts-workload -------------------------------------------------------
    layer("workload.gen_ns_per_job", "ns", Host, Lower, "setup_s on service_queue"),
    layer("workload.roundtrip_ns_per_job", "ns", Host, Lower,
        "setup_s on service_queue (Display then parse, as a trace file would be read)"),
    // --- paper anchors (measured through public APIs, checked in range) -----
    layer("link.sim_mb_per_s", "MB/s", Sim, Higher, "paper anchor: 0.5 MB/s per link (+-1 %)"),
    layer("vec.sim_saxpy_mflops", "MFLOPS", Sim, Higher, "paper anchor: 16 MFLOPS single-node SAXPY (+-5 %)"),
    layer("core.full_snapshot_sim_s", "s", Sim, Lower, "paper anchor: ~15 s full-memory module snapshot (13-18 s)"),
    // --- the ladder: each layer alone under a fixed budget -----------------
    layer("sim.exec_ns_per_event", "ns", Host, Lower, "ladder: 64 tasks x 10 k sleeps on a bare Sim"),
    layer("sim.chan_ns_per_msg", "ns", Host, Lower, "ladder: rendezvous ping-pong"),
    layer("link.ns_per_msg", "ns", Host, Lower, "ladder: 8-word LinkChannel transfers, healthy"),
    layer("link.ns_per_msg_faulted", "ns", Host, Lower, "ladder: 8-word transfers with seeded corrupt flits (CRC + go-back-N)"),
    layer("cube.ns_per_route", "ns", Host, Lower, "ladder: Hypercube::route between seeded pairs at dim 12"),
    layer("core.router_ns_per_hop", "ns", Host, Lower, "ladder: routed messages on a dim-6 machine"),
    layer("core.coll_ns_per_event", "ns", Host, Lower, "ladder: dim-8 allreduce"),
    layer("cp.host_mips", "MIPS", Host, Higher, "ladder: ts_cp::programs::sum_words on the emulator (no workload is CP-bound)"),
    layer("sched.buddy_ns_per_op", "ns", Host, Lower, "ladder: seeded BuddyAllocator alloc/release churn"),
    layer("sched.ns_per_job_light", "ns", Host, Lower, "ladder: service_queue's trace at load 0.5 (allocator-bound twin)"),
    layer("core.report_ms", "ms", Host, Lower, "ladder: utilization_report() at dim 10"),
    layer("sim.trace_on_overhead_frac", "ratio", Host, Lower, "ladder: collective rounds with Machine::enable_tracing on vs off"),
    layer("bench.span_overhead_frac", "ratio", Host, Lower, "traced wall_s / untraced median - 1, per workload"),
];

/// Look a metric up by name.
pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// One workload of the catalogue.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Closed loop, or an open-arrival trace replayed on the simulated clock.
    pub open_loop: bool,
    /// Whether `BENCHMARK.json` hands the workload to the driver.
    pub driver: bool,
    /// One sentence: why this workload is in the suite.
    pub why: &'static str,
}

/// The six workloads.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "collective_storm",
        open_loop: false,
        driver: true,
        why: "1024 nodes of allreduce/broadcast/barrier rounds plus a routed phase: all host time is executor, link, router and collectives, almost no arithmetic",
    },
    WorkloadDef {
        name: "kernel_dense",
        open_loop: false,
        driver: true,
        why: "Cannon matmul, FFT and LU on 16 full-memory nodes: host time is soft-float, vector unit and memory with few events; the simulated-efficiency workload",
    },
    WorkloadDef {
        name: "service_queue",
        open_loop: true,
        driver: true,
        why: "machineless ServiceScheduler::run at load 0.95: pure queue/aging/EDF/buddy work with trace generation in set-up and no simulator events at all",
    },
    WorkloadDef {
        name: "service_live",
        open_loop: true,
        driver: true,
        why: "the same scheduler driving thousands of short gangs with preemption on a live 16-node machine, so a queue gain that costs the live path shows",
    },
    WorkloadDef {
        name: "recovery_storm",
        open_loop: false,
        driver: true,
        why: "transient link faults, a delta checkpoint per round and seeded mid-snapshot crashes: the link slow path and the only user of checkpoint, ring, disks and restore",
    },
    WorkloadDef {
        name: "sharded_dim12",
        open_loop: false,
        // Two lockstep threads on two virtual cores: any stolen core stalls
        // both, and ten runs of the same commit spread by 13 to 34 %, past
        // the 0.25 the driver's contract allows a bound. `run all` measures
        // it; `compare` says `unresolved` when it is noisy.
        driver: false,
        why: "run_parallel on 4096 nodes with 2 shards: the only workload where core::parallel and the BoundaryLeg protocol do the work; collective_storm is its sequential control",
    },
];

/// Whether `name` uses only the characters the contract allows, starts with
/// a letter or digit and is at most 64 long.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Whether `unit` uses only the characters the contract allows.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_within_the_contract_limits() {
        assert!(WORKLOADS.len() <= 8);
        assert!(METRICS.iter().filter(|m| m.end_to_end()).count() <= 16);
        assert!(METRICS.iter().filter(|m| !m.end_to_end()).count() <= 128);
        for m in METRICS {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(m.note.len() <= 200, "{}", m.name);
            assert_eq!(
                METRICS.iter().filter(|o| o.name == m.name).count(),
                1,
                "{} listed twice",
                m.name
            );
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
