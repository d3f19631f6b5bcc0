//! Job specifications and the kernels a job can run.
//!
//! A job is a gang-scheduled SPMD program over a d-subcube, structured —
//! like [`t_series_core::supervisor`] phases — as replayable units whose
//! entire effect is on node memory. That structure is what makes both
//! preemption and fault recovery cheap: at a phase boundary the partition
//! has no live tasks, so the job's complete state is its node memory
//! images, and restoring those images on *any* d-subcube and replaying
//! the remaining phases reproduces the original results bit-identically.
//!
//! Kernels address nodes only by **virtual id** (the relabeled
//! [`ts_node::NodeCtx::id`] inside a subcube view), so the same job is
//! bit-identical whether it runs at base 0 of a dedicated d-cube or on
//! any aligned d-subcube of a shared machine.

use t_series_core::{collectives, Machine, MachineCfg};
use ts_cube::{Hypercube, Subcube};
use ts_fpu::Sf64;
use ts_mem::ROW_WORDS;
use ts_node::CombineOp;
use ts_sim::{Dur, JoinHandle};
use ts_vec::VecForm;

/// Elements per node in the SAXPY kernel (one 256-word row of f64s).
const SAXPY_LEN: usize = 128;
/// Values per node in the all-reduce kernel.
const AR_LEN: usize = 8;

/// What a job computes. Every kernel is phase-structured and a pure
/// function of node memory and virtual node ids (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKernel {
    /// Vector-unit bound: each phase runs `sweeps` chained SAXPY passes
    /// (`acc += ones`) per node. No communication — legal at any dim
    /// including a single node.
    Saxpy {
        /// Replayable phases.
        phases: u32,
        /// SAXPY passes per phase.
        sweeps: u32,
    },
    /// Link bound: each phase all-reduces an 8-value vector across the
    /// subcube, then adds the node's virtual id back in (so node states
    /// diverge again and every phase has fresh work).
    AllReduce {
        /// Replayable phases.
        phases: u32,
    },
    /// Pure occupancy: every node of the partition sleeps for `dur` of
    /// simulated time, touching no memory. The workhorse of synthetic
    /// open-arrival streams — a job that holds its subcube for exactly
    /// its service demand with no vector or link traffic.
    Sleep {
        /// How long each node holds its place.
        dur: Dur,
    },
}

impl JobKernel {
    /// Phases in the job.
    pub fn phases(&self) -> u32 {
        match *self {
            JobKernel::Saxpy { phases, .. } | JobKernel::AllReduce { phases } => phases,
            JobKernel::Sleep { .. } => 1,
        }
    }

    /// Initialise the partition's node memory by virtual id. Host-side
    /// and zero-time, like the supervisor's setup step.
    pub fn setup(&self, m: &Machine, sub: &Subcube) {
        for v in 0..sub.len() {
            let node = &m.nodes[sub.to_phys(v) as usize];
            let mut mem = node.mem_mut();
            match *self {
                JobKernel::Saxpy { .. } => {
                    let acc = mem.cfg().rows_a() * ROW_WORDS;
                    for i in 0..SAXPY_LEN {
                        mem.write_f64(2 * i, Sf64::from(1.0)).unwrap();
                        mem.write_f64(acc + 2 * i, Sf64::from(v as f64)).unwrap();
                    }
                }
                JobKernel::AllReduce { .. } => {
                    for i in 0..AR_LEN {
                        let seed = (v as usize * AR_LEN + i + 1) as f64;
                        mem.write_f64(2 * i, Sf64::from(seed)).unwrap();
                    }
                }
                JobKernel::Sleep { .. } => {}
            }
        }
    }

    /// Launch one phase as an SPMD gang over the partition. The caller
    /// drives the simulation; the phase is complete when every returned
    /// handle is finished.
    pub fn launch_phase(&self, m: &mut Machine, sub: &Subcube, _phase: u32) -> Vec<JoinHandle<()>> {
        let cube = Hypercube::new(sub.dim());
        match *self {
            JobKernel::Saxpy { sweeps, .. } => m.launch_subcube(sub, move |ctx| async move {
                let rows_a = ctx.mem().cfg().rows_a();
                for _ in 0..sweeps {
                    let r = ctx
                        .vec(
                            VecForm::Saxpy(Sf64::from(1.0)),
                            0,
                            rows_a,
                            rows_a,
                            SAXPY_LEN,
                        )
                        .await;
                    if r.is_err() {
                        return;
                    }
                }
            }),
            JobKernel::AllReduce { .. } => m.launch_subcube(sub, move |ctx| async move {
                let mine: Vec<Sf64> = (0..AR_LEN)
                    .map(|i| ctx.mem().read_f64(2 * i).unwrap())
                    .collect();
                let mut acc = collectives::allreduce(&ctx, cube, CombineOp::Add, mine).await;
                let vid = vec![Sf64::from(ctx.id() as f64); AR_LEN];
                ctx.combine_values(CombineOp::Add, &mut acc, &vid).await;
                let mut mem = ctx.mem_mut();
                for (i, v) in acc.iter().enumerate() {
                    mem.write_f64(2 * i, *v).unwrap();
                }
            }),
            JobKernel::Sleep { dur } => m.launch_subcube(sub, move |ctx| async move {
                ctx.handle().sleep(dur).await;
            }),
        }
    }

    /// Read the job's result out of the partition's node memory, in
    /// virtual node order, as raw f64 bit patterns (the unit of the
    /// bit-identity guarantees).
    pub fn result(&self, m: &Machine, sub: &Subcube) -> Vec<u64> {
        let mut out = Vec::new();
        for v in 0..sub.len() {
            let node = &m.nodes[sub.to_phys(v) as usize];
            let mem = node.mem();
            match *self {
                JobKernel::Saxpy { .. } => {
                    let acc = mem.cfg().rows_a() * ROW_WORDS;
                    out.push(mem.read_f64(acc).unwrap().to_host().to_bits());
                    out.push(
                        mem.read_f64(acc + 2 * (SAXPY_LEN - 1))
                            .unwrap()
                            .to_host()
                            .to_bits(),
                    );
                }
                JobKernel::AllReduce { .. } => {
                    for i in 0..AR_LEN {
                        out.push(mem.read_f64(2 * i).unwrap().to_host().to_bits());
                    }
                }
                JobKernel::Sleep { .. } => {}
            }
        }
        out
    }

    /// Total floating-point operations the job performs on a d-subcube
    /// (for MFLOPS accounting; static, so accounting never perturbs the
    /// simulation).
    pub fn flops(&self, dim: u32) -> u64 {
        let nodes = 1u64 << dim;
        match *self {
            // 2 flops per SAXPY element.
            JobKernel::Saxpy { phases, sweeps } => {
                phases as u64 * sweeps as u64 * 2 * SAXPY_LEN as u64 * nodes
            }
            // One add per value per dimension exchange, plus the local
            // id add-back.
            JobKernel::AllReduce { phases } => {
                phases as u64 * nodes * AR_LEN as u64 * (dim as u64 + 1)
            }
            JobKernel::Sleep { .. } => 0,
        }
    }
}

/// One job submitted to the scheduler.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable name (report rows, Perfetto track labels).
    pub name: String,
    /// Subcube dimension the job needs (`2^dim` nodes, gang-scheduled).
    pub dim: u32,
    /// What to run.
    pub kernel: JobKernel,
    /// Larger is more urgent; a queued job of strictly higher priority
    /// may preempt a running lower-priority job.
    pub priority: u32,
    /// Arrival time, relative to the batch start.
    pub submit_at: Dur,
    /// Completion deadline relative to submission, for reporting
    /// (`missed_deadline` in the job's outcome). `None` = best effort.
    pub deadline: Option<Dur>,
}

impl JobSpec {
    /// A best-effort job: priority 0, submitted at batch start, no
    /// deadline.
    pub fn new(name: &str, dim: u32, kernel: JobKernel) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            dim,
            kernel,
            priority: 0,
            submit_at: Dur::ZERO,
            deadline: None,
        }
    }

    /// Set the priority.
    pub fn priority(mut self, p: u32) -> JobSpec {
        self.priority = p;
        self
    }

    /// Set the arrival time (relative to batch start).
    pub fn submit_at(mut self, at: Dur) -> JobSpec {
        self.submit_at = at;
        self
    }

    /// Set the deadline (relative to submission).
    pub fn deadline(mut self, d: Dur) -> JobSpec {
        self.deadline = Some(d);
        self
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
