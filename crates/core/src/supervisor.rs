//! Self-healing supervisor: checkpoint, watch, reboot, restore, replay.
//!
//! §III of the paper describes the system software's answer to hardware
//! faults: periodic memory snapshots through the system boards ("about 10
//! minutes provides a good compromise"), and on failure a reboot followed
//! by a restart from the last snapshot. The [`Supervisor`] reproduces that
//! loop as a simulated procedure around a [`Machine`]:
//!
//! 1. the protected job is a list of **phases** — replayable closures
//!    whose entire effect is on node memory (launch tasks, run to
//!    quiescence);
//! 2. the supervisor drives the simulation in **quanta**, slicing each
//!    quantum around the next scheduled fault of a [`FaultPlan`] so
//!    injection lands at its exact job time;
//! 3. after every quantum it checks **health**: a crashed control
//!    processor or a latent memory parity error marks the incarnation
//!    dead;
//! 4. on a dead incarnation it **reboots** (a fresh [`Machine`] — task
//!    state does not survive), re-applies persistent faults (a broken
//!    cable stays broken), restores the last *committed* checkpoint from
//!    the two-version [`CheckpointStore`] (which, like the real disks,
//!    survives the reboot), and replays every phase since it;
//! 5. after a phase completes, if at least the checkpoint interval of job
//!    time has passed since the last commit, it takes an incremental
//!    snapshot — only rows dirtied since the last commit are staged.
//!    Plan faults scheduled inside the snapshot window are armed as sim
//!    timers first, so they land *during* checkpoint-in-flight: a torn
//!    attempt aborts, the previous version stays committed, and the
//!    normal reboot path heals it.
//!
//! Job time is the accumulated simulated time across all incarnations —
//! snapshots, restores and replayed (lost) work all cost job time, which
//! is how the checkpoint-interval trade-off of [`crate::checkpoint`]
//! becomes observable end to end. With [`Supervisor::mtbf`] the interval
//! itself comes from Young's approximation fed with the *measured*
//! baseline snapshot cost, closing the loop the paper describes ("about
//! 10 minutes provides a good compromise").

use std::fmt;

use ts_sim::{Dur, Time};

use crate::checkpoint::{young_interval, CheckpointStore, SnapshotMode};
use crate::fault::FaultPlan;
use crate::{Machine, MachineCfg, MachineError};

/// One replayable unit of work: launch tasks on the machine; the
/// supervisor runs them to quiescence. Must be a pure function of node
/// memory so a replay after restore reproduces the original effect.
pub type Phase<'a> = Box<dyn Fn(&mut Machine) + 'a>;

/// Why a protected run could not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SupervisorError {
    /// A phase deadlocked with no pending timers and no faults left to
    /// blame — replaying would deadlock identically, so the supervisor
    /// gives up instead of looping.
    Wedged {
        /// Index of the wedged phase.
        phase: usize,
    },
    /// More reboots than `max_reboots` — the fault plan (or the job)
    /// keeps killing every incarnation.
    RebootStorm,
    /// A snapshot or restore failed at the machine level (dead node,
    /// malformed image set, or a stalled system thread).
    Machine(MachineError),
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupervisorError::Wedged { phase } => {
                write!(f, "phase {phase} deadlocked with no fault to recover from")
            }
            SupervisorError::RebootStorm => write!(f, "reboot limit exceeded"),
            SupervisorError::Machine(e) => write!(f, "checkpoint machinery failed: {e}"),
        }
    }
}

impl std::error::Error for SupervisorError {}

impl From<MachineError> for SupervisorError {
    fn from(e: MachineError) -> SupervisorError {
        SupervisorError::Machine(e)
    }
}

/// What a protected run cost and what it survived.
#[derive(Clone, Debug, Default)]
pub struct SupervisorReport {
    /// Total job time: simulated time accumulated across every
    /// incarnation, including snapshots, restores and replayed work.
    pub total: Dur,
    /// Reboot-restore-replay cycles taken.
    pub reboots: u32,
    /// Snapshots committed (including the baseline).
    pub snapshots: u32,
    /// How many of `snapshots` were incremental (delta) commits.
    pub delta_snapshots: u32,
    /// Snapshot attempts torn by a fault mid-flight: aborted, rolled back
    /// to the previous committed version, and healed by reboot-replay.
    pub torn_checkpoints: u32,
    /// The checkpoint interval actually used: the explicit one, or Young's
    /// optimum derived from the measured baseline snapshot cost and the
    /// configured MTBF.
    pub interval_used: Dur,
    /// Job time spent on work that was later lost and replayed.
    pub rework: Dur,
    /// Hangs broken by the watchdog: the clock froze with the job
    /// unfinished after a transient fault, and the supervisor rebooted
    /// instead of spinning forever.
    pub watchdog_trips: u32,
    /// Human-readable log of every injected fault, in order.
    pub faults: Vec<String>,
}

/// Supervises a machine through a phased job under a fault plan.
///
/// Construct with [`Supervisor::new`], tune with the builder methods, and
/// call [`Supervisor::run_to_completion`].
pub struct Supervisor {
    cfg: MachineCfg,
    interval: Dur,
    mtbf: Option<Dur>,
    max_reboots: u32,
    hang_horizon: Dur,
}

/// Health-check granularity: how much simulated time may pass between looks
/// at the machine (and the outer bound on fault-to-detection latency).
const QUANTUM: Dur = Dur::ms(1);

impl Supervisor {
    /// A supervisor for machines of configuration `cfg`, with a 10-minute
    /// checkpoint interval (the paper's recommendation), a 1 ms health
    /// quantum, and a 16-reboot limit.
    pub fn new(cfg: MachineCfg) -> Supervisor {
        Supervisor {
            cfg,
            interval: Dur::secs(600),
            mtbf: None,
            max_reboots: 16,
            hang_horizon: Dur::secs(60),
        }
    }

    /// Derive the checkpoint interval from Young's approximation,
    /// `T* = sqrt(2 · δ · MTBF)`, where δ is the *measured* duration of
    /// the baseline snapshot — the wiring the paper implies when it pairs
    /// "about 15 seconds" of snapshot with "about 10 minutes" of interval.
    /// Overrides [`Supervisor::checkpoint_interval`].
    pub fn mtbf(mut self, m: Dur) -> Supervisor {
        assert!(!m.is_zero(), "mtbf must be positive");
        self.mtbf = Some(m);
        self
    }

    /// Watchdog horizon: job time charged for detecting a hang. When the
    /// sim clock freezes with the phase unfinished *after a transient
    /// fault has fired*, the supervisor assumes the fault wedged the job
    /// (a flap stranding a task on a link-status check, a crash partner
    /// parked on a rendezvous), charges this much job time — the
    /// wall-clock a real watchdog timer would have waited — and reboots
    /// from the last checkpoint instead of giving up. A hang with no
    /// fault to blame is still reported as [`SupervisorError::Wedged`]:
    /// replaying a deterministic deadlock would deadlock identically.
    pub fn hang_horizon(mut self, d: Dur) -> Supervisor {
        assert!(!d.is_zero(), "hang horizon must be positive");
        self.hang_horizon = d;
        self
    }

    /// Snapshot whenever at least this much job time has passed since the
    /// last snapshot, measured at phase boundaries.
    pub fn checkpoint_interval(mut self, d: Dur) -> Supervisor {
        assert!(!d.is_zero(), "checkpoint interval must be positive");
        self.interval = d;
        self
    }

    /// Give up with [`SupervisorError::RebootStorm`] after this many
    /// reboots.
    pub fn max_reboots(mut self, n: u32) -> Supervisor {
        self.max_reboots = n;
        self
    }

    /// Run `phases` to completion under `plan`, healing as needed.
    ///
    /// `setup` initialises node memory on the first incarnation only —
    /// later incarnations get their state from snapshot restore. Returns
    /// the final machine (for inspecting node memory) and the report.
    pub fn run_to_completion(
        &self,
        setup: impl Fn(&mut Machine),
        phases: &[Phase<'_>],
        plan: &FaultPlan,
    ) -> Result<(Machine, SupervisorReport), SupervisorError> {
        let mut report = SupervisorReport::default();
        let mut fired = vec![false; plan.len()];

        let mut m = Machine::build(self.cfg);
        setup(&mut m);
        let mut mark = m.now(); // incarnation origin
        let mut base = Dur::ZERO; // job time at the origin
        let job = |base: Dur, m: &Machine, mark: Time| base + m.now().since(mark);

        // Baseline checkpoint: a full image staged through the system
        // boards onto disk — the earliest state recovery can return to,
        // and the measured δ that Young's formula needs.
        let mut store = CheckpointStore::new(m.nodes.len());
        let baseline = m.checkpoint(&mut store, SnapshotMode::Full)?;
        report.snapshots += 1;
        let interval = match self.mtbf {
            Some(mtbf) => young_interval(baseline.duration, mtbf),
            None => self.interval,
        };
        report.interval_used = interval;
        let mut ckpt_phase = 0usize; // first phase the snapshot does NOT cover
        let mut committed = job(base, &m, mark); // job time at last commit

        let mut phase_idx = 0usize;
        while phase_idx < phases.len() {
            phases[phase_idx](&mut m);

            // Drive this phase in quanta, injecting faults on schedule.
            let healthy = loop {
                let jnow = job(base, &m, mark);
                let next_fault = plan
                    .iter()
                    .zip(&fired)
                    .filter(|(_, f)| !**f)
                    .map(|(tf, _)| tf.at)
                    .min();
                let slice = match next_fault {
                    Some(at) if at <= jnow => Dur::ZERO, // overdue: inject below
                    Some(at) if at < jnow + QUANTUM => at - jnow,
                    _ => QUANTUM,
                };
                let before = m.now();
                let ran = if slice.is_zero() {
                    None
                } else {
                    Some(m.run_for(slice))
                };

                let jnow = job(base, &m, mark);
                let mut injected = false;
                for (i, tf) in plan.iter().enumerate() {
                    if !fired[i] && tf.at <= jnow {
                        tf.event.apply(&m);
                        fired[i] = true;
                        injected = true;
                        report.faults.push(format!("t={} {}", tf.at, tf.event));
                    }
                }

                if m.nodes.iter().any(|n| n.is_unfit()) {
                    break false;
                }

                if let Some(r) = ran {
                    if r.quiescent {
                        break true;
                    }
                    if m.now() == before && !injected {
                        // Parked tasks, no timers, clock frozen. If a fault
                        // is still pending, warp job time to it — on real
                        // hardware the wall clock reaches the fault even
                        // when the program is stuck — and let injection
                        // (next iteration) shake things loose or kill the
                        // incarnation. Otherwise the deadlock is the job's
                        // own and replay cannot fix it.
                        match next_fault {
                            Some(at) if at > jnow => base += at - jnow,
                            _ => {
                                // No fault left to wait for. If a transient
                                // fault already fired, the hang is (possibly)
                                // its doing — e.g. a flap stranding a task
                                // that sampled the link while it was down —
                                // and a reboot-replay heals it. The watchdog
                                // charges its detection horizon and breaks
                                // the hang. With no fault in the story the
                                // deadlock is the job's own: replay would
                                // wedge identically, so give up.
                                let transient_fired = plan
                                    .iter()
                                    .zip(&fired)
                                    .any(|(tf, f)| *f && !tf.event.is_persistent());
                                if !transient_fired {
                                    return Err(SupervisorError::Wedged { phase: phase_idx });
                                }
                                base += self.hang_horizon;
                                report.watchdog_trips += 1;
                                break false;
                            }
                        }
                    }
                }
            };

            if healthy {
                phase_idx += 1;
                let jnow = job(base, &m, mark);
                let mut torn = false;
                if jnow.saturating_sub(committed) >= interval && phase_idx < phases.len() {
                    // Interval snapshots are incremental. Faults the plan
                    // schedules inside the snapshot window are armed as
                    // sim timers first, so they land mid-stream; a torn
                    // attempt keeps the previous committed version and
                    // falls through to the reboot path below.
                    let eta = m.checkpoint_eta(&store, SnapshotMode::Delta);
                    let mut armed = false;
                    for (i, tf) in plan.iter().enumerate() {
                        if !fired[i] && tf.at <= jnow + eta {
                            tf.event.arm(&m, m.now() + tf.at.saturating_sub(jnow));
                            fired[i] = true;
                            armed = true;
                            report.faults.push(format!("t={} {}", tf.at, tf.event));
                        }
                    }
                    match m.checkpoint(&mut store, SnapshotMode::Delta) {
                        Ok(stats) => {
                            report.snapshots += 1;
                            if stats.mode == SnapshotMode::Delta {
                                report.delta_snapshots += 1;
                            }
                            ckpt_phase = phase_idx;
                            committed = job(base, &m, mark);
                            // An armed fault may have landed after its
                            // node's payload drained; the next quantum's
                            // health check picks it up.
                        }
                        Err(MachineError::Stalled { .. }) if armed => {
                            report.torn_checkpoints += 1;
                            torn = true;
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
                if !torn {
                    continue;
                }
            }

            // Reboot, restore, replay.
            report.reboots += 1;
            if report.reboots > self.max_reboots {
                return Err(SupervisorError::RebootStorm);
            }
            let jnow = job(base, &m, mark);
            report.rework += jnow.saturating_sub(committed);
            base = jnow;
            m = Machine::build(self.cfg);
            mark = m.now();
            for (i, tf) in plan.iter().enumerate() {
                if fired[i] && tf.event.is_persistent() {
                    tf.event.apply(&m);
                }
            }
            m.restore_from(&store)?;
            phase_idx = ckpt_phase;
        }

        report.total = job(base, &m, mark);
        // Book the supervisor's own accounting into the machine's registry
        // so `Machine::utilization_report` can show the recovery story.
        let booked = m.registry().scope("machine/supervisor");
        for (name, count) in [
            ("reboots", report.reboots),
            ("snapshots", report.snapshots),
            ("delta_snapshots", report.delta_snapshots),
            ("torn_checkpoints", report.torn_checkpoints),
            ("watchdog_trips", report.watchdog_trips),
        ] {
            booked.counter(name).add(count as u64);
        }
        booked.busy_time("rework").add(report.rework);
        Ok((m, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;
    use ts_fpu::Sf64;
    use ts_mem::ROW_WORDS;
    use ts_vec::VecForm;

    fn cfg() -> MachineCfg {
        MachineCfg::cube_small_mem(3, 8)
    }

    /// Seed every node: a ones vector in bank A row 0, an id-valued
    /// accumulator in bank B row 0.
    fn seed(m: &mut Machine) {
        for node in &m.nodes {
            let mut mem = node.mem_mut();
            let rows_a = mem.cfg().rows_a();
            for i in 0..128 {
                mem.write_f64(2 * i, Sf64::from(1.0)).unwrap();
                mem.write_f64(rows_a * ROW_WORDS + 2 * i, Sf64::from(node.id as f64))
                    .unwrap();
            }
        }
    }

    /// A phase of `sweeps` SAXPY passes (acc += ones) on every node. A
    /// parity error aborts the node's work — the supervisor's patrol scan
    /// catches the latent fault and rolls back.
    fn sweep_phase(sweeps: usize) -> Phase<'static> {
        Box::new(move |m: &mut Machine| {
            m.launch(move |ctx| async move {
                let rows_a = ctx.mem().cfg().rows_a();
                for _ in 0..sweeps {
                    let r = ctx
                        .vec(VecForm::Saxpy(Sf64::from(1.0)), 0, rows_a, rows_a, 128)
                        .await;
                    if r.is_err() {
                        return;
                    }
                }
            });
        })
    }

    fn accs(m: &Machine) -> Vec<f64> {
        (0..m.nodes.len())
            .map(|n| {
                let mem = m.nodes[n].mem();
                let rows_a = mem.cfg().rows_a();
                mem.read_f64(rows_a * ROW_WORDS + 34).unwrap().to_host()
            })
            .collect()
    }

    fn phases() -> Vec<Phase<'static>> {
        vec![sweep_phase(3), sweep_phase(5), sweep_phase(2)]
    }

    #[test]
    fn fault_free_run_takes_only_the_baseline_snapshot() {
        let sup = Supervisor::new(cfg());
        let (m, rep) = sup
            .run_to_completion(seed, &phases(), &FaultPlan::new())
            .unwrap();
        assert_eq!(
            accs(&m),
            (0..8).map(|n| n as f64 + 10.0).collect::<Vec<_>>()
        );
        assert_eq!(rep.reboots, 0);
        assert_eq!(
            rep.snapshots, 1,
            "default 10-minute interval: baseline only"
        );
        assert_eq!(rep.rework, Dur::ZERO);
        assert_eq!(rep.delta_snapshots, 0);
        assert_eq!(rep.torn_checkpoints, 0);
        assert_eq!(rep.interval_used, Dur::secs(600));
        assert!(rep.faults.is_empty());
    }

    #[test]
    fn mtbf_wires_youngs_optimum_to_the_measured_snapshot_cost() {
        let (d0, _, _) = probe_times();
        let mtbf = Dur::secs(3 * 3600);
        let sup = Supervisor::new(cfg()).mtbf(mtbf);
        let (_, rep) = sup
            .run_to_completion(seed, &phases(), &FaultPlan::new())
            .unwrap();
        let want = (2.0 * d0.as_secs_f64() * mtbf.as_secs_f64()).sqrt();
        let got = rep.interval_used.as_secs_f64();
        assert!(
            (got - want).abs() / want < 1e-6,
            "interval {got} s vs Young's {want} s"
        );
    }

    #[test]
    fn crash_during_snapshot_tears_it_and_recovery_replays_cleanly() {
        // Snapshot after every phase; the crash is timed to land inside
        // the snapshot window that follows phase 0, mid-stream.
        let sup = Supervisor::new(cfg()).checkpoint_interval(Dur::us(1));
        let (ref_m, _) = sup
            .run_to_completion(seed, &phases(), &FaultPlan::new())
            .unwrap();
        let want = accs(&ref_m);

        let (d0, p0, _) = probe_times();
        let plan = FaultPlan::new().with(d0 + p0 + Dur::ms(1), FaultEvent::NodeCrash { node: 5 });
        let (m, rep) = sup.run_to_completion(seed, &phases(), &plan).unwrap();
        assert_eq!(rep.torn_checkpoints, 1, "the crash tore the snapshot");
        assert_eq!(rep.reboots, 1);
        assert_eq!(
            accs(&m),
            want,
            "recovery from the previous version is exact"
        );
        assert!(rep.delta_snapshots >= 1, "retried snapshot is incremental");
        assert!(!m.nodes[5].is_crashed());
        assert_eq!(
            m.registry()
                .get_counter("machine/supervisor/torn_checkpoints"),
            Some(1)
        );
    }

    #[test]
    fn every_report_key_is_booked_where_the_key_table_says() {
        use crate::collectives::{broadcast, with_deadline};
        use crate::report::COUNTER_KEYS;
        use crate::router::Router;

        // The torn-snapshot fixture above: one torn attempt, one reboot,
        // delta commits on the surviving incarnation.
        let sup = Supervisor::new(cfg()).checkpoint_interval(Dur::us(1));
        let (d0, p0, _) = probe_times();
        let plan = FaultPlan::new().with(d0 + p0 + Dur::ms(1), FaultEvent::NodeCrash { node: 5 });
        let (mut m, rep) = sup.run_to_completion(seed, &phases(), &plan).unwrap();
        assert_eq!((rep.torn_checkpoints, rep.reboots), (1, 1));

        // The reboot took incarnation 1's counters with it, so the rest of
        // the story is booked on the survivor: all six fault kinds, struck
        // in three waves between the steps that need the machine whole.
        let six = FaultPlan::new()
            .with(
                Dur::ZERO,
                FaultEvent::MemFlip {
                    node: 2,
                    addr: 40,
                    bit: 3,
                },
            )
            .with(
                Dur::ZERO,
                FaultEvent::WireCorrupt {
                    node: 0,
                    dim: 0,
                    flit_bit: 5,
                },
            )
            .with(Dur::ZERO, FaultEvent::FlitDrop { node: 0, dim: 0 })
            .with(
                Dur::ZERO,
                FaultEvent::LinkFlap {
                    node: 3,
                    dim: 1,
                    down_for: Dur::us(10),
                },
            )
            .with(Dur::us(100), FaultEvent::LinkDown { node: 0, dim: 0 })
            .with(Dur::ms(5), FaultEvent::NodeCrash { node: 7 });
        // Arm the plan's faults due `at` that long after now.
        let arm = |m: &Machine, at: Dur| {
            for tf in six.iter().filter(|tf| tf.at == at) {
                let (h, node, event) = (
                    m.handle(),
                    m.nodes[tf.event.node() as usize].clone(),
                    tf.event,
                );
                m.handle().spawn(async move {
                    h.sleep(at).await;
                    event.apply_to(&node);
                });
            }
        };

        // A full commit, the first wave, and a restore that scrubs the flip.
        let mut store = CheckpointStore::new(m.nodes.len());
        m.checkpoint(&mut store, SnapshotMode::Full).unwrap();
        arm(&m, Dur::ZERO);
        m.restore_from(&store).unwrap();

        // The transport absorbs the corrupt + drop queued on 0 -> 1; nine
        // more drops on 4 -> 6 exhaust the budget and condemn that link.
        for _ in 0..=ts_link::RETRANSMIT_BUDGET {
            FaultEvent::FlitDrop { node: 4, dim: 1 }.apply(&m);
        }
        for (from, dim) in [(0u32, 0usize), (4, 1)] {
            let (tx, rx) = (m.ctx(from), m.ctx(from ^ (1 << dim)));
            m.launch_on(from, async move {
                tx.row_move(0, 1, 1).await.unwrap();
                tx.send_dim(dim, vec![7; 64]).await;
            });
            m.launch_on(from ^ (1 << dim), async move {
                rx.recv_dim(dim).await;
            });
        }
        assert!(m.run().quiescent);

        // Two routed frames 0 -> 1 back to back: the second is parked behind
        // the first's 0.5 ms transfer when the link dies under it (a retry),
        // and then goes the long way round (a reroute).
        let router = Router::start(&m);
        let (h0, h1) = (router.handle(0), router.handle(1));
        arm(&m, Dur::us(100));
        let routed = m.handle().spawn(async move {
            h0.send_to(1, vec![1; 64]).await.unwrap();
            h0.send_to(1, vec![2; 64]).await.unwrap();
            let got = (h1.recv().await.1[0], h1.recv().await.1[0]);
            router.shutdown().await;
            got
        });
        assert!(m.run().quiescent);
        assert_eq!(routed.try_take(), Some((1, 2)));

        // A broadcast nobody joins: one retry, then the deadline expires.
        let ctx = m.ctx(6);
        let cube = m.cube;
        m.launch_on(6, async move {
            let tried = with_deadline(&ctx, Dur::ms(1), 2, || {
                broadcast(&ctx, cube, 6, Some(vec![1]))
            });
            assert!(tried.await.is_err());
        });
        assert!(m.run().quiescent);

        // The crash lands 5 ms into the next snapshot and tears it; the
        // machine is never quiescent again, but the fabric still routes —
        // and drops what is addressed to the dead node.
        arm(&m, Dur::ms(5));
        assert!(m.checkpoint(&mut store, SnapshotMode::Full).is_err());
        let router = Router::start(&m);
        let h0 = router.handle(0);
        let dropped = m.handle().spawn(async move {
            h0.send_to(7, vec![9]).await.unwrap();
            router.shutdown().await
        });
        m.run();
        assert!(dropped.try_take().is_some());

        let data = m.report_data();
        assert_eq!(data.rework_ps, rep.rework.as_ps());
        for (&(key, _), &(booked, count)) in COUNTER_KEYS.iter().zip(&data.counters) {
            assert_eq!(key, booked);
            assert!(count > 0, "{key} was never booked\n{}", data.render());
            let path = key.replace('.', "/");
            assert_eq!(count, m.registry().sum_counters(&path), "{key}");
        }
    }

    /// Measure the job timeline without a supervisor: (baseline snapshot
    /// cost, duration of phase 0, duration of phase 1). Used to pin fault
    /// times to the middle of a specific phase — snapshots dominate job
    /// time, so fractional positioning would land inside a snapshot where
    /// there is no work to lose.
    fn probe_times() -> (Dur, Dur, Dur) {
        let mut m = Machine::build(cfg());
        seed(&mut m);
        let mut store = CheckpointStore::new(m.nodes.len());
        let d0 = m
            .checkpoint(&mut store, SnapshotMode::Full)
            .unwrap()
            .duration;
        let ph = phases();
        let t1 = m.now();
        ph[0](&mut m);
        assert!(m.run().quiescent);
        let p0 = m.now().since(t1);
        let t2 = m.now();
        ph[1](&mut m);
        assert!(m.run().quiescent);
        let p1 = m.now().since(t2);
        (d0, p0, p1)
    }

    #[test]
    fn node_crash_mid_run_is_healed_bit_identically() {
        let sup = Supervisor::new(cfg());
        let (ref_m, ref_rep) = sup
            .run_to_completion(seed, &phases(), &FaultPlan::new())
            .unwrap();
        let want = accs(&ref_m);

        // Crash node 5 halfway through phase 1.
        let (d0, p0, p1) = probe_times();
        let crash_at = d0 + p0 + Dur::from_secs_f64(p1.as_secs_f64() / 2.0);
        let plan = FaultPlan::new().with(crash_at, FaultEvent::NodeCrash { node: 5 });
        let (m, rep) = sup.run_to_completion(seed, &phases(), &plan).unwrap();

        assert_eq!(accs(&m), want, "healed run must be bit-identical");
        assert_eq!(rep.reboots, 1);
        assert_eq!(rep.faults.len(), 1);
        assert!(rep.faults[0].contains("n5 crashed"), "{:?}", rep.faults);
        assert!(rep.rework > Dur::ZERO, "the interrupted work was replayed");
        assert!(rep.total > ref_rep.total, "healing costs job time");
        assert!(!m.nodes[5].is_crashed(), "reboot repaired the node");
        // Supervisor accounting is visible through machine metrics.
        assert_eq!(
            m.registry().get_counter("machine/supervisor/reboots"),
            Some(1)
        );
        assert_eq!(
            m.registry().get_counter("machine/supervisor/snapshots"),
            Some(1)
        );
    }

    #[test]
    fn mem_flip_is_caught_by_patrol_scan_and_rolled_back() {
        let sup = Supervisor::new(cfg());
        let (ref_m, _) = sup
            .run_to_completion(seed, &phases(), &FaultPlan::new())
            .unwrap();
        let want = accs(&ref_m);

        // Flip a bit of the accumulator itself, mid phase 1: without
        // recovery the final memory would be wrong, not just a transient
        // error.
        let (d0, p0, p1) = probe_times();
        let flip_at = d0 + p0 + Dur::from_secs_f64(p1.as_secs_f64() / 2.0);
        let rows_a = ref_m.nodes[0].mem().cfg().rows_a();
        let plan = FaultPlan::new().with(
            flip_at,
            FaultEvent::MemFlip {
                node: 2,
                addr: rows_a * ROW_WORDS + 34,
                bit: 52,
            },
        );
        let (m, rep) = sup.run_to_completion(seed, &phases(), &plan).unwrap();
        assert_eq!(accs(&m), want);
        assert_eq!(rep.reboots, 1);
        assert_eq!(
            m.nodes[2].mem().parity_errors(),
            0,
            "restore scrubbed the flip"
        );
    }

    #[test]
    fn link_down_persists_across_the_healing_reboot() {
        let sup = Supervisor::new(cfg());
        let (d0, p0, p1) = probe_times();
        let plan = FaultPlan::new()
            .with(
                d0 + Dur::from_secs_f64(p0.as_secs_f64() / 2.0),
                FaultEvent::LinkDown { node: 1, dim: 2 },
            )
            .with(
                d0 + p0 + Dur::from_secs_f64(p1.as_secs_f64() / 2.0),
                FaultEvent::NodeCrash { node: 6 },
            );
        let (m, rep) = sup.run_to_completion(seed, &phases(), &plan).unwrap();
        assert_eq!(rep.reboots, 1, "link down alone must not trigger a reboot");
        assert!(
            !m.faults().is_link_up(1, 2),
            "the broken cable stays broken after reboot"
        );
        assert_eq!(rep.faults.len(), 2);
    }

    #[test]
    fn same_plan_reproduces_the_same_run() {
        let sup = Supervisor::new(cfg()).checkpoint_interval(Dur::us(1));
        let plan = FaultPlan::generate(7, 3, 8 * ROW_WORDS, 2, Dur::secs(1));
        let run = || {
            // Faults beyond the job's end never fire; that's fine for a
            // determinism check as long as both runs agree.
            sup.run_to_completion(seed, &phases(), &plan)
        };
        let (m1, r1) = run().unwrap();
        let (m2, r2) = run().unwrap();
        assert_eq!(r1.total, r2.total);
        assert_eq!(r1.faults, r2.faults);
        assert_eq!(r1.reboots, r2.reboots);
        assert_eq!(accs(&m1), accs(&m2));
    }

    #[test]
    fn watchdog_breaks_a_flap_induced_hang_and_replay_heals_it() {
        // The job samples its dim-0 link status once at launch and parks
        // forever if the link is down — a hang a LinkFlap can cause but a
        // replay (with the link healthy again) cannot. The flap fires
        // before the task's first poll, so incarnation 1 wedges; the
        // repair timer keeps the clock alive until 10 ms, then the clock
        // freezes and the watchdog must reboot rather than report Wedged.
        let link_gated: Vec<Phase<'static>> = vec![Box::new(|m: &mut Machine| {
            let ctx = m.ctx(0);
            m.launch_on(0, async move {
                if !ctx.link_up(0) {
                    std::future::pending::<()>().await;
                }
            });
        })];
        let plan = FaultPlan::new().with(
            Dur::ps(1),
            FaultEvent::LinkFlap {
                node: 0,
                dim: 0,
                down_for: Dur::ms(10),
            },
        );
        let sup = Supervisor::new(cfg()).hang_horizon(Dur::secs(2));
        let (m, rep) = sup.run_to_completion(seed, &link_gated, &plan).unwrap();
        assert_eq!(rep.watchdog_trips, 1, "the hang was detected, not spun on");
        assert_eq!(rep.reboots, 1, "watchdog trip heals via reboot-replay");
        assert!(
            rep.total >= Dur::secs(2),
            "the detection horizon is charged as job time"
        );
        assert!(
            m.faults().is_link_up(0, 0),
            "a flap is transient: reboot comes back clean"
        );
        assert_eq!(
            m.registry()
                .get_counter("machine/supervisor/watchdog_trips"),
            Some(1)
        );
        // The flap itself was booked on incarnation 1's metrics, which died
        // with the reboot — only the supervisor's accounting survives.
        assert_eq!(rep.faults.len(), 1);
        assert!(rep.faults[0].contains("link flapped"), "{:?}", rep.faults);

        // Determinism: the same flap plan reproduces the same healing run.
        let (_, rep2) = sup.run_to_completion(seed, &link_gated, &plan).unwrap();
        assert_eq!(rep2.total, rep.total);
        assert_eq!(rep2.watchdog_trips, 1);
    }

    #[test]
    fn a_jobs_own_deadlock_is_reported_not_retried() {
        let sup = Supervisor::new(cfg());
        let wedge: Vec<Phase<'static>> = vec![Box::new(|m: &mut Machine| {
            let ctx = m.ctx(0);
            m.launch_on(0, async move {
                // Receive that no one will ever send: a deterministic hang.
                ctx.recv_dim(0).await;
            });
        })];
        let err = match sup.run_to_completion(seed, &wedge, &FaultPlan::new()) {
            Err(e) => e,
            Ok(_) => panic!("a deadlocked phase must not complete"),
        };
        assert_eq!(err, SupervisorError::Wedged { phase: 0 });
    }
}
