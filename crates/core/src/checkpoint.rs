//! Checkpoint storage and interval policy (§III, experiment E8).
//!
//! "The user is able to specify the interval between snapshots. About 10
//! minutes provides a good compromise between time spent to record memory
//! and interval between restart points. It takes about 15 seconds to take
//! a snapshot, regardless of configuration."
//!
//! Three pieces reproduce that engineering judgement:
//!
//! * [`CheckpointStore`] — the one format a saved memory state has: a
//!   **two-version store** per node (one committed image, one staging
//!   slot) with an atomic commit over all its nodes. A crash at any point
//!   during a snapshot leaves the previous committed version intact, so a
//!   torn image can never be restored. Incremental snapshots stage a
//!   [`ts_mem::RowDelta`] that the commit folds into the committed image.
//!   `Machine::checkpoint` / `restore_from` fill and load it with the whole
//!   machine's images as simulated traffic through the system boards;
//!   `Machine::capture_subcube` / `load_subcube` do the same for one
//!   partition host-side, in zero simulated time.
//! * [`young_interval`] — Young's classical first-order optimum
//!   `T* = sqrt(2 δ M)` for snapshot cost δ and mean time between failures
//!   M. The paper's 10 minutes is optimal for δ ≈ 16 s at M ≈ 3.1 h —
//!   a plausible MTBF for a 1986 multi-cabinet machine. The supervisor
//!   feeds the *measured* baseline snapshot time in as δ (see
//!   [`crate::supervisor::Supervisor::mtbf`]).
//! * [`simulate_run`] — a Monte-Carlo replay: exponential failures, work
//!   segments of `interval`, a snapshot after each, rollback to the last
//!   snapshot on failure. Sweeping the interval reproduces the U-shaped
//!   overhead curve whose flat bottom sits near the 10-minute choice.

use ts_mem::RowDelta;
use ts_sim::{Dur, Rng};

/// How much of memory a snapshot streams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotMode {
    /// Every word of every node (the baseline, and the only legal first
    /// snapshot into an empty store).
    Full,
    /// Only the rows written since the last committed snapshot, applied on
    /// top of the committed version at staging time. Falls back to full
    /// when the store holds no committed version yet.
    Delta,
}

/// Errors raised by [`CheckpointStore`] staging operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// A delta was staged but the store has no committed base to apply it
    /// to.
    NoBase {
        /// Node whose delta had no base image.
        node: usize,
    },
    /// Commit was requested while some node had nothing staged.
    Incomplete {
        /// First node with an empty staging slot.
        node: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NoBase { node } => {
                write!(f, "delta for node {node} has no committed base image")
            }
            StoreError::Incomplete { node } => {
                write!(f, "commit with node {node} not staged")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// What one committed machine-wide snapshot cost (returned by
/// `Machine::checkpoint`).
#[derive(Clone, Copy, Debug)]
pub struct CheckpointStats {
    /// The mode that actually ran (a requested delta with no committed
    /// base is promoted to full).
    pub mode: SnapshotMode,
    /// Simulated wall-clock the snapshot took, staging through commit.
    pub duration: Dur,
    /// Bytes streamed over the system threads (headers included).
    pub bytes_streamed: u64,
    /// Bytes a full snapshot would have streamed.
    pub bytes_full: u64,
    /// Dirty rows carried (0 for a full snapshot).
    pub dirty_rows: u64,
}

/// One node's contribution to a snapshot: every word of its memory, or
/// the rows written since the last commit.
#[derive(Clone, Debug)]
pub(crate) enum Payload {
    /// A full memory image.
    Full(Vec<u32>),
    /// The dirty rows, to be folded into the committed image.
    Delta(RowDelta),
}

/// The two-version checkpoint store: what survives on the module disks
/// across node crashes and machine reboots.
///
/// Invariant: the committed images are only ever replaced *all at once* by
/// [`CheckpointStore::commit`], after every node's payload has been fully
/// staged and the ring commit token has gone around. An abort at any
/// earlier point discards staging and leaves the committed version — and
/// the nodes' dirty bits — untouched.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    /// Committed full image per node; empty until the first commit.
    committed: Vec<Vec<u32>>,
    /// In-flight staging slot per node.
    staging: Vec<Option<Payload>>,
    epoch: u64,
    torn_aborts: u64,
    full_snapshots: u64,
    delta_snapshots: u64,
    bytes_streamed: u64,
    bytes_full_equiv: u64,
}

impl CheckpointStore {
    /// An empty store for a machine of `nodes` nodes.
    pub fn new(nodes: usize) -> CheckpointStore {
        CheckpointStore {
            committed: Vec::new(),
            staging: vec![None; nodes],
            ..CheckpointStore::default()
        }
    }

    /// Nodes the store covers.
    pub fn nodes(&self) -> usize {
        self.staging.len()
    }

    /// Completed commits.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True once a first snapshot has committed.
    pub fn has_committed(&self) -> bool {
        !self.committed.is_empty()
    }

    /// The committed images (empty slice before the first commit).
    pub fn committed(&self) -> &[Vec<u32>] {
        &self.committed
    }

    /// Snapshots that were aborted mid-flight (and whose staging was
    /// discarded, never restored).
    pub fn torn_aborts(&self) -> u64 {
        self.torn_aborts
    }

    /// Committed full snapshots.
    pub fn full_snapshots(&self) -> u64 {
        self.full_snapshots
    }

    /// Committed delta snapshots.
    pub fn delta_snapshots(&self) -> u64 {
        self.delta_snapshots
    }

    /// Bytes actually streamed to disk by committed snapshots.
    pub fn bytes_streamed(&self) -> u64 {
        self.bytes_streamed
    }

    /// Bytes full snapshots would have streamed for the same commits.
    pub fn bytes_full_equiv(&self) -> u64 {
        self.bytes_full_equiv
    }

    /// The mode a snapshot requested as `mode` actually runs in: a delta
    /// with no committed base to apply to is promoted to full.
    pub(crate) fn effective_mode(&self, mode: SnapshotMode) -> SnapshotMode {
        if self.has_committed() {
            mode
        } else {
            SnapshotMode::Full
        }
    }

    /// Begin a snapshot: clear any leftover staging slots.
    pub fn begin(&mut self) {
        for s in &mut self.staging {
            *s = None;
        }
    }

    /// Stage the payload one node captured. A delta stays a delta until
    /// [`CheckpointStore::commit`] folds its rows into the committed image
    /// (the disk has both on hand), so an abort costs the base nothing.
    pub(crate) fn stage(&mut self, node: usize, payload: Payload) -> Result<(), StoreError> {
        if matches!(payload, Payload::Delta(_)) && node >= self.committed.len() {
            return Err(StoreError::NoBase { node });
        }
        self.staging[node] = Some(payload);
        Ok(())
    }

    /// Atomically flip staging to committed. Only legal once every node is
    /// staged; accounting records how many bytes the snapshot actually
    /// streamed (`streamed`) vs what a full snapshot would have moved.
    pub fn commit(
        &mut self,
        mode: SnapshotMode,
        streamed: u64,
        full_equiv: u64,
    ) -> Result<(), StoreError> {
        if let Some(node) = self.staging.iter().position(|s| s.is_none()) {
            return Err(StoreError::Incomplete { node });
        }
        self.committed.resize(self.staging.len(), Vec::new());
        for (image, staged) in self.committed.iter_mut().zip(&mut self.staging) {
            match staged.take().expect("every slot checked staged") {
                Payload::Full(full) => *image = full,
                Payload::Delta(delta) => delta.apply_to(image),
            }
        }
        self.epoch += 1;
        match mode {
            SnapshotMode::Full => self.full_snapshots += 1,
            SnapshotMode::Delta => self.delta_snapshots += 1,
        }
        self.bytes_streamed += streamed;
        self.bytes_full_equiv += full_equiv;
        Ok(())
    }

    /// Abort an in-flight snapshot: discard staging, keep the committed
    /// version. The snapshot is counted as torn.
    pub fn abort(&mut self) {
        self.begin();
        self.torn_aborts += 1;
    }
}

/// Young's approximation of the optimal checkpoint interval:
/// `T* = sqrt(2 · snapshot_cost · mtbf)`.
pub fn young_interval(snapshot_cost: Dur, mtbf: Dur) -> Dur {
    Dur::from_secs_f64((2.0 * snapshot_cost.as_secs_f64() * mtbf.as_secs_f64()).sqrt())
}

/// Expected total running time (first-order model) to complete `work` with
/// checkpoints every `interval`, snapshot cost `snapshot`, and exponential
/// failures of mean `mtbf`. Useful as the smooth reference curve.
pub fn expected_runtime(work: Dur, interval: Dur, snapshot: Dur, mtbf: Dur) -> Dur {
    let t = interval.as_secs_f64();
    let d = snapshot.as_secs_f64();
    let m = mtbf.as_secs_f64();
    // Per-segment: work t + snapshot d; failures hit at rate 1/m and cost
    // on average half a segment of rework plus recovery ≈ restore ≈ d.
    let segment = t + d;
    let failure_overhead = segment / m * (t / 2.0 + d);
    let seconds = work.as_secs_f64() * (segment + failure_overhead) / t;
    Dur::from_secs_f64(seconds)
}

/// Outcome of one Monte-Carlo run.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Wall-clock to finish all work (including snapshots and rework).
    pub total: Dur,
    /// Failures encountered.
    pub failures: u64,
    /// Time spent writing snapshots.
    pub snapshot_time: Dur,
    /// Work redone after rollbacks.
    pub rework: Dur,
}

/// Simulate completing `work` with checkpoints every `interval`.
///
/// Failures are exponential with mean `mtbf`; on failure the machine
/// restores the last snapshot (cost `snapshot`, the restore path being
/// symmetric with the save path) and replays lost work.
pub fn simulate_run(work: Dur, interval: Dur, snapshot: Dur, mtbf: Dur, seed: u64) -> RunStats {
    assert!(!interval.is_zero(), "interval must be positive");
    let mut rng = Rng::new(seed);
    let mut next_failure = rng.exp(mtbf.as_secs_f64());
    let mut clock = 0.0f64; // seconds
    let mut done = 0.0f64; // committed work seconds
    let work_s = work.as_secs_f64();
    let int_s = interval.as_secs_f64();
    let snap_s = snapshot.as_secs_f64();
    let mut failures = 0u64;
    let mut snap_total = 0.0f64;
    let mut rework = 0.0f64;

    while done < work_s {
        let segment = int_s.min(work_s - done);
        // Try to execute [segment of work] + [snapshot committing it].
        let attempt = segment + snap_s;
        if clock + attempt <= next_failure {
            clock += attempt;
            done += segment;
            snap_total += snap_s;
        } else {
            // Failure mid-attempt: lose everything since the last commit.
            let lost = next_failure - clock;
            rework += lost.min(segment);
            clock = next_failure;
            failures += 1;
            // Restore from the last snapshot before resuming.
            clock += snap_s;
            next_failure = clock + rng.exp(mtbf.as_secs_f64());
        }
    }
    RunStats {
        total: Dur::from_secs_f64(clock),
        failures,
        snapshot_time: Dur::from_secs_f64(snap_total),
        rework: Dur::from_secs_f64(rework),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_mem::{MemCfg, NodeMemory};

    #[test]
    fn two_version_commit_is_atomic() {
        let mut store = CheckpointStore::new(2);
        assert!(!store.has_committed());
        store.begin();
        store.stage(0, Payload::Full(vec![1, 2])).unwrap();
        // Committing with node 1 unstaged must fail and commit nothing.
        assert_eq!(
            store.commit(SnapshotMode::Full, 8, 8),
            Err(StoreError::Incomplete { node: 1 })
        );
        assert!(!store.has_committed());
        store.stage(1, Payload::Full(vec![3, 4])).unwrap();
        store.commit(SnapshotMode::Full, 16, 16).unwrap();
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.committed(), &[vec![1, 2], vec![3, 4]]);
    }

    #[test]
    fn abort_keeps_the_previous_version() {
        let mut store = CheckpointStore::new(1);
        store.begin();
        store.stage(0, Payload::Full(vec![7; 4])).unwrap();
        store.commit(SnapshotMode::Full, 16, 16).unwrap();
        // Second snapshot starts staging, then the machine crashes.
        store.begin();
        store.stage(0, Payload::Full(vec![9; 4])).unwrap();
        store.abort();
        assert_eq!(store.committed(), &[vec![7; 4]]);
        assert_eq!(store.torn_aborts(), 1);
        assert_eq!(store.epoch(), 1, "aborted snapshot never commits");
    }

    #[test]
    fn delta_staging_needs_a_committed_base() {
        let mut mem = NodeMemory::new(MemCfg::small(4));
        mem.write_word(5, 42).unwrap();
        let delta = mem.snapshot_delta();
        let mut store = CheckpointStore::new(1);
        store.begin();
        assert_eq!(
            store.stage(0, Payload::Delta(delta.clone())),
            Err(StoreError::NoBase { node: 0 })
        );
        // Commit a full base, then the delta applies on top of it.
        store
            .stage(0, Payload::Full(vec![0; mem.cfg().words()]))
            .unwrap();
        store
            .commit(SnapshotMode::Full, mem.cfg().bytes() as u64, 0)
            .unwrap();
        // A torn delta snapshot leaves the base exactly as committed.
        store.begin();
        store.stage(0, Payload::Delta(delta.clone())).unwrap();
        store.abort();
        assert_eq!(store.committed()[0], vec![0; mem.cfg().words()]);
        store.begin();
        let delta_bytes = delta.bytes() as u64;
        store.stage(0, Payload::Delta(delta)).unwrap();
        store.commit(SnapshotMode::Delta, delta_bytes, 0).unwrap();
        assert_eq!(store.committed()[0], mem.snapshot());
        assert_eq!(store.delta_snapshots(), 1);
        assert!(store.bytes_streamed() > 0);
    }

    #[test]
    fn paper_interval_is_youngs_optimum() {
        // δ = 16 s (one module's 8 MB over the 0.5 MB/s system thread),
        // M = 3.1 h → T* ≈ 10 minutes, the paper's recommendation.
        let t = young_interval(Dur::secs(16), Dur::from_secs_f64(3.1 * 3600.0));
        let minutes = t.as_secs_f64() / 60.0;
        assert!((minutes - 10.0).abs() < 0.3, "T* = {minutes} min");
    }

    #[test]
    fn no_failures_means_pure_overhead() {
        // Effectively infinite MTBF: total = work + snapshots.
        let stats = simulate_run(
            Dur::secs(3600),
            Dur::secs(600),
            Dur::secs(15),
            Dur::secs(10_000_000), // ~115 days; no failure hits this seeded run
            1,
        );
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.total, Dur::secs(3600 + 6 * 15));
        assert_eq!(stats.rework, Dur::ZERO);
    }

    #[test]
    fn frequent_failures_punish_long_intervals() {
        let work = Dur::secs(4 * 3600);
        let mtbf = Dur::secs(1800);
        let snap = Dur::secs(15);
        let avg = |interval: Dur| {
            let mut total = 0.0;
            for seed in 0..40 {
                total += simulate_run(work, interval, snap, mtbf, seed)
                    .total
                    .as_secs_f64();
            }
            total / 40.0
        };
        let short = avg(Dur::secs(30)); // snapshot-dominated
        let tuned = avg(young_interval(snap, mtbf)); // ≈ 4.9 min
        let long = avg(Dur::secs(3600)); // rework-dominated
        assert!(tuned < short, "tuned {tuned} vs short {short}");
        assert!(tuned < long, "tuned {tuned} vs long {long}");
    }

    #[test]
    fn expected_runtime_is_u_shaped() {
        let work = Dur::secs(36_000);
        let snap = Dur::secs(16);
        let mtbf = Dur::from_secs_f64(3.1 * 3600.0);
        let y = young_interval(snap, mtbf);
        let at = |t: Dur| expected_runtime(work, t, snap, mtbf).as_secs_f64();
        assert!(at(y) < at(Dur::secs(60)));
        assert!(at(y) < at(Dur::secs(7200)));
        // The optimum of the smooth model sits near Young's formula.
        let dense: Vec<(f64, f64)> = (1..200)
            .map(|k| {
                let t = Dur::secs(k * 30);
                (t.as_secs_f64(), at(t))
            })
            .collect();
        let best =
            dense.iter().cloned().fold(
                (0.0, f64::INFINITY),
                |acc, x| {
                    if x.1 < acc.1 {
                        x
                    } else {
                        acc
                    }
                },
            );
        let ratio = best.0 / y.as_secs_f64();
        assert!(
            (0.5..2.0).contains(&ratio),
            "optimum {} vs Young {}",
            best.0,
            y
        );
    }

    #[test]
    fn monte_carlo_tracks_expected_model() {
        let work = Dur::secs(7200);
        let interval = Dur::secs(600);
        let snap = Dur::secs(16);
        let mtbf = Dur::secs(3600 * 3);
        let mut total = 0.0;
        const RUNS: u64 = 60;
        for seed in 0..RUNS {
            total += simulate_run(work, interval, snap, mtbf, seed)
                .total
                .as_secs_f64();
        }
        let sim = total / RUNS as f64;
        let model = expected_runtime(work, interval, snap, mtbf).as_secs_f64();
        let err = (sim - model).abs() / model;
        assert!(err < 0.05, "sim {sim} vs model {model}");
    }
}
