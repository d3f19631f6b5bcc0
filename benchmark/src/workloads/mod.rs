//! The six workloads. Each is one module exposing a [`Workload`]: a
//! repetition function that sets up from the seed, runs the timed region
//! and checks the outputs, plus an optional once-per-process part for
//! comparators too expensive to repeat.
//!
//! The program under test receives only the generated inputs; the seed
//! never reaches it.

pub mod closed_form;
pub mod collective_storm;
pub mod kernel_dense;
pub mod recovery_storm;
pub mod routed;
pub mod service_live;
pub mod service_queue;
pub mod sharded_dim12;

use crate::spans::Spans;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 1986;

/// Output checks of one repetition. A missing or wrong result is a failed
/// check, never a panic that would hide the other metrics.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check; `what` is rendered only on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Record `n` checks that share one verdict (e.g. every node of a
    /// launch whose results are missing).
    pub fn check_n(&mut self, n: u64, ok: bool, what: impl FnOnce() -> String) {
        if n > 0 {
            self.check(ok, what);
            self.attempted += n - 1;
            if !ok {
                self.failed += n - 1;
            }
        }
    }

    /// Fold another set in.
    pub fn merge(&mut self, o: Checks) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        for f in o.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// What a repetition is given.
pub struct RepCtx<'a> {
    /// The workload seed.
    pub seed: u64,
    /// Reduced sizes (self-tests, `check.sh`).
    pub quick: bool,
    /// A traced repetition: spans are kept, allocations counted, lockstep
    /// rounds recorded.
    pub traced: bool,
    /// The span recorder (always times; keeps spans only when tracing).
    pub spans: &'a mut Spans,
}

/// What a repetition hands back.
#[derive(Clone, Debug, Default)]
pub struct RepOut {
    /// Host seconds of set-up: build + input generation.
    pub setup_s: f64,
    /// Host seconds of the timed region.
    pub wall_s: f64,
    /// Every other metric of this repetition, by catalogue name.
    pub values: Vec<(&'static str, f64)>,
    /// FNV-1a over computed values and the final picosecond.
    pub digest: u64,
    /// Output checks (made outside the timed region).
    pub checks: Checks,
}

/// What the once-per-process part hands back.
#[derive(Clone, Debug, Default)]
pub struct OnceOut {
    /// Metrics by catalogue name.
    pub values: Vec<(&'static str, f64)>,
    /// Output checks.
    pub checks: Checks,
}

/// One workload.
pub struct Workload {
    /// Its name in the catalogue.
    pub name: &'static str,
    /// The sizes in force, for the result file.
    pub sizes: fn(quick: bool) -> Vec<(&'static str, f64)>,
    /// One repetition.
    pub rep: fn(&mut RepCtx<'_>) -> RepOut,
    /// Run once after the repetitions, outside every timed region.
    /// `traced` adds the comparators only the traced pass pays for.
    pub once: Option<fn(seed: u64, quick: bool, traced: bool) -> OnceOut>,
}

/// All six, in catalogue order.
pub const ALL: &[&Workload] = &[
    &collective_storm::WORKLOAD,
    &kernel_dense::WORKLOAD,
    &service_queue::WORKLOAD,
    &service_live::WORKLOAD,
    &recovery_storm::WORKLOAD,
    &sharded_dim12::WORKLOAD,
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}
