//! What a batch run reports: one [`JobOutcome`] per job and the
//! [`BatchReport`] over them.

use ts_sim::Dur;

/// What one job experienced, measured by the scheduler.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job id (submission order).
    pub id: u32,
    /// Name from the spec.
    pub name: String,
    /// Subcube dimension the job ran on.
    pub dim: u32,
    /// Priority from the spec.
    pub priority: u32,
    /// Total time spent queued (arrival to placement, summed over
    /// every eviction/re-queue cycle).
    pub wait: Dur,
    /// Total time holding a subcube (including resume gates).
    pub run: Dur,
    /// Submission to completion.
    pub turnaround: Dur,
    /// Times the job was evicted for a higher-priority job.
    pub preemptions: u32,
    /// Times a fault forced re-allocation to a fresh subcube.
    pub reallocations: u32,
    /// Achieved MFLOPS over the job's run time.
    pub mflops: f64,
    /// Did the job finish after its deadline?
    pub missed_deadline: bool,
    /// The job's numerical result (f64 bit patterns in virtual node
    /// order) — the unit of the bit-identity guarantees.
    pub result: Vec<u64>,
}

/// Batch-level summary returned by [`crate::Scheduler::run_batch`].
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<JobOutcome>,
    /// Batch start to last completion.
    pub makespan: Dur,
    /// Mean of the jobs' wait times.
    pub mean_wait: Dur,
    /// Node-time actually allocated to jobs over `makespan × nodes`.
    pub utilization: f64,
    /// Total preemptions across the batch.
    pub preemptions: u32,
    /// Total fault-driven re-allocations across the batch.
    pub reallocations: u32,
    /// Priority-aging steps granted to waiting jobs (see
    /// [`crate::Scheduler::aging`]).
    pub aging_promotions: u32,
    /// Placements where a deadline pulled a job ahead of an
    /// earlier-submitted job of equal effective priority.
    pub edf_reorders: u32,
}

impl BatchReport {
    /// Render the report as a fixed-width table (deterministic: same
    /// batch, same bytes).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:>3} {:<12} {:>3} {:>3} {:>12} {:>12} {:>7} {:>7} {:>9}",
            "job", "name", "dim", "pri", "wait", "run", "preempt", "realloc", "MFLOPS"
        );
        for j in &self.jobs {
            let _ = writeln!(
                s,
                "{:>3} {:<12} {:>3} {:>3} {:>10.1}us {:>10.1}us {:>7} {:>7} {:>9.3}{}",
                j.id,
                j.name,
                j.dim,
                j.priority,
                j.wait.as_us_f64(),
                j.run.as_us_f64(),
                j.preemptions,
                j.reallocations,
                j.mflops,
                if j.missed_deadline { "  LATE" } else { "" }
            );
        }
        let _ = writeln!(
            s,
            "makespan {:.1}us  mean wait {:.1}us  utilization {:.1}%  \
             preemptions {}  reallocations {}  promotions {}  edf {}",
            self.makespan.as_us_f64(),
            self.mean_wait.as_us_f64(),
            self.utilization * 100.0,
            self.preemptions,
            self.reallocations,
            self.aging_promotions,
            self.edf_reorders
        );
        s
    }
}
