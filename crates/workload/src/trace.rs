//! The replayable arrival-trace format.
//!
//! A [`Trace`] is the unit of workload replay: an ordered list of job
//! [`Arrival`]s, each carrying everything the admission layer needs —
//! arrival offset, subcube order, priority class, a service-time figure
//! and what to actually run. Like `FaultPlan` in `t-series-core`, a
//! trace serializes to a plain-text format whose `Display` and
//! [`Trace::parse`] are exact inverses, so a generated trace can be
//! committed next to a test, mailed around in a bug report, and replayed
//! byte-identically forever.
//!
//! ```text
//! # one declaration line per class, then one line per arrival
//! class batch
//! class urgent
//! 0ps job d=2 p=0 c=batch k=synthetic s=400000ps dl=-
//! 125000ps job d=3 p=3 c=urgent k=allreduce/2 s=900000ps dl=4500000ps
//! ```
//!
//! Times are integer picoseconds (`<n>ps`), matching the simulator's
//! clock, so round-trips never lose precision. `s=` is the job's service
//! demand: synthetic jobs hold their subcube for exactly that long, and
//! kernel jobs use it as the runtime *estimate* the backfill reservation
//! plans around. `dl=` is the completion deadline relative to arrival
//! (`-` for best-effort). `at + s` and `at + dl` must fall before the
//! clock's last picosecond (`u64::MAX` ps, ~213 days).

use std::fmt;

use ts_sim::{text, Dur};

/// What an arriving job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkKind {
    /// Hold the allocated subcube for the service time, doing no machine
    /// work. The lightweight job of capacity runs: admission, placement
    /// and accounting are exercised at full fidelity while millions of
    /// jobs stay cheap to simulate.
    Synthetic,
    /// The vector-bound `ts-sched` SAXPY kernel.
    Saxpy {
        /// Replayable phases.
        phases: u32,
        /// SAXPY passes per phase.
        sweeps: u32,
    },
    /// The link-bound `ts-sched` all-reduce kernel.
    AllReduce {
        /// Replayable phases.
        phases: u32,
    },
}

impl fmt::Display for WorkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WorkKind::Synthetic => write!(f, "synthetic"),
            WorkKind::Saxpy { phases, sweeps } => write!(f, "saxpy/{phases}/{sweeps}"),
            WorkKind::AllReduce { phases } => write!(f, "allreduce/{phases}"),
        }
    }
}

impl WorkKind {
    /// Parse the token form written by `Display`.
    pub fn parse(tok: &str) -> Option<WorkKind> {
        let mut parts = tok.split('/');
        let kind = parts.next()?;
        let mut num = || text::number(parts.next()?);
        let k = match kind {
            "synthetic" => WorkKind::Synthetic,
            "saxpy" => WorkKind::Saxpy {
                phases: num()?,
                sweeps: num()?,
            },
            "allreduce" => WorkKind::AllReduce { phases: num()? },
            _ => return None,
        };
        parts.next().is_none().then_some(k)
    }
}

/// One job arriving on the open stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival offset from the stream start.
    pub at: Dur,
    /// Subcube order the job needs (`2^dim` nodes).
    pub dim: u32,
    /// Base priority; larger is more urgent. Admission may boost it via
    /// aging, but the trace records what the submitter asked for.
    pub priority: u32,
    /// Index into [`Trace::classes`] (the stream the job belongs to).
    pub class: u8,
    /// What to run.
    pub work: WorkKind,
    /// Service demand: exact hold time for synthetic jobs, runtime
    /// estimate for kernel jobs.
    pub service: Dur,
    /// Completion deadline relative to arrival; `None` is best-effort.
    pub deadline: Option<Dur>,
}

/// Error from [`Trace::parse`], pointing at the offending line.
pub type TraceParseError = text::ParseError;

/// An open-arrival workload trace: class names plus arrivals sorted by
/// offset (ties keep push order, which is the submission order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Class names, indexed by [`Arrival::class`].
    pub classes: Vec<String>,
    /// Arrivals in non-decreasing `at` order.
    pub arrivals: Vec<Arrival>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Register a class name, returning its index. Re-registering an
    /// existing name returns the original index.
    pub fn class(&mut self, name: &str) -> u8 {
        if let Some(i) = self.classes.iter().position(|c| c == name) {
            return i as u8;
        }
        assert!(self.classes.len() < 256, "too many classes");
        self.classes.push(name.to_string());
        (self.classes.len() - 1) as u8
    }

    /// Append an arrival. Must be pushed in non-decreasing `at` order —
    /// the service layer consumes the trace as a sorted event stream.
    pub fn push(&mut self, a: Arrival) {
        assert!((a.class as usize) < self.classes.len(), "unknown class");
        if let Some(last) = self.arrivals.last() {
            assert!(a.at >= last.at, "arrivals must be time-sorted");
        }
        self.arrivals.push(a);
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when the trace has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Largest subcube order any arrival requests (0 for an empty trace).
    pub fn max_dim(&self) -> u32 {
        self.arrivals.iter().map(|a| a.dim).max().unwrap_or(0)
    }

    /// Offset of the last arrival (zero for an empty trace).
    pub fn span(&self) -> Dur {
        self.arrivals.last().map_or(Dur::ZERO, |a| a.at)
    }

    /// Parse the plain-text trace format written by `Display`: `class`
    /// declarations followed by one `<at>ps job ...` line per arrival.
    /// Blank lines and `#` comments are ignored. Exact inverse of
    /// `to_string`.
    pub fn parse(text: &str) -> Result<Trace, TraceParseError> {
        const JOB: &str = "expected `job` after the time";
        let mut trace = Trace::new();
        for mut rec in text::records(text) {
            let first = rec.token("missing time")?;
            if first == "class" {
                let name = rec.token("missing class name")?;
                if !trace.arrivals.is_empty() {
                    return Err(rec.err("class declared after an arrival"));
                }
                // A class index is a `u8`.
                if trace.classes.len() == 256 && !trace.classes.iter().any(|c| c == name) {
                    return Err(rec.err("too many classes"));
                }
                trace.class(name);
                rec.end("trailing tokens after class name")?;
                continue;
            }
            let at_ps = text::ps(first).ok_or_else(|| rec.err("bad time (want `<int>ps`)"))?;
            if rec.token(JOB)? != "job" {
                return Err(rec.err(JOB));
            }
            let dim = rec.number("d=", "bad dim")?;
            let priority = rec.number("p=", "bad priority")?;
            let cname = rec.field("c=", "bad or missing field")?;
            let work = WorkKind::parse(rec.field("k=", "bad work kind")?)
                .ok_or_else(|| rec.err("bad work kind"))?;
            let svc = rec.ps("s=", "bad service time")?;
            let deadline = match rec.field("dl=", "bad deadline")? {
                "-" => None,
                dl => Some(Dur::ps(
                    text::ps(dl).ok_or_else(|| rec.err("bad deadline"))?,
                )),
            };
            rec.end("trailing tokens")?;
            // Past `u64::MAX` ps the clock overflows; at it, a deadline
            // reads as none.
            let horizon = u64::MAX - at_ps;
            if svc >= horizon || deadline.is_some_and(|d| d.as_ps() >= horizon) {
                return Err(rec.err("past the picosecond horizon"));
            }
            let class = trace
                .classes
                .iter()
                .position(|c| c == cname)
                .ok_or_else(|| rec.err("undeclared class"))? as u8;
            let a = Arrival {
                at: Dur::ps(at_ps),
                dim,
                priority,
                class,
                work,
                service: Dur::ps(svc),
                deadline,
            };
            if trace.arrivals.last().is_some_and(|last| a.at < last.at) {
                return Err(rec.err("arrivals out of time order"));
            }
            trace.arrivals.push(a);
        }
        Ok(trace)
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for name in &self.classes {
            writeln!(f, "class {name}")?;
        }
        for a in &self.arrivals {
            write!(
                f,
                "{}ps job d={} p={} c={} k={} s={}ps dl=",
                a.at.as_ps(),
                a.dim,
                a.priority,
                self.classes[a.class as usize],
                a.work,
                a.service.as_ps(),
            )?;
            match a.deadline {
                Some(d) => writeln!(f, "{}ps", d.as_ps())?,
                None => writeln!(f, "-")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::new();
        let batch = t.class("batch");
        let urgent = t.class("urgent");
        t.push(Arrival {
            at: Dur::ZERO,
            dim: 2,
            priority: 0,
            class: batch,
            work: WorkKind::Synthetic,
            service: Dur::us(40),
            deadline: None,
        });
        t.push(Arrival {
            at: Dur::ns(125),
            dim: 3,
            priority: 3,
            class: urgent,
            work: WorkKind::AllReduce { phases: 2 },
            service: Dur::us(90),
            deadline: Some(Dur::us(450)),
        });
        t.push(Arrival {
            at: Dur::us(7),
            dim: 0,
            priority: 1,
            class: batch,
            work: WorkKind::Saxpy {
                phases: 2,
                sweeps: 3,
            },
            service: Dur::us(10),
            deadline: None,
        });
        t
    }

    #[test]
    fn display_parse_round_trip() {
        let t = sample();
        let text = t.to_string();
        let back = Trace::parse(&text).expect("parse");
        assert_eq!(back, t);
        // And the text itself is a fixed point.
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = format!("# a day of service\n\n{}\n# end\n", sample());
        assert_eq!(Trace::parse(&text).expect("parse"), sample());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for (bad, why) in [
            ("12 job d=1 p=0 c=x k=synthetic s=1ps dl=-", "time"),
            ("12ps d=1 p=0 c=x k=synthetic s=1ps dl=-", "job token"),
            ("class x\n12ps job d=1 p=0 c=y k=synthetic s=1ps dl=-", "class"),
            ("class x\n12ps job d=1 p=0 c=x k=weird s=1ps dl=-", "kind"),
            ("class x\n12ps job d=1 p=0 c=x k=synthetic s=1 dl=-", "svc"),
            (
                "class x\n9ps job d=1 p=0 c=x k=synthetic s=1ps dl=-\n3ps job d=1 p=0 c=x k=synthetic s=1ps dl=-",
                "order",
            ),
        ] {
            assert!(Trace::parse(bad).is_err(), "should reject ({why}): {bad}");
        }
    }

    #[test]
    fn a_257th_class_is_a_parse_error() {
        let mut text: String = (0..256).map(|i| format!("class c{i}\n")).collect();
        // Re-declaring a known class at the limit is still fine.
        text.push_str("class c7\n");
        assert_eq!(Trace::parse(&text).expect("256 classes").classes.len(), 256);
        text.push_str("class c256\n");
        assert_eq!(
            Trace::parse(&text),
            Err(TraceParseError {
                line: 258,
                what: "too many classes",
                text: "class c256".into(),
            })
        );
    }

    /// A job must end, and meet its deadline, before the clock's last
    /// picosecond: past it the service's clock overflows, and at it the
    /// deadline reads as none.
    #[test]
    fn ends_past_the_picosecond_horizon_are_parse_errors() {
        for line in [
            "1ps job d=0 p=0 c=a k=synthetic s=1ps dl=18446744073709551615ps",
            "1ps job d=0 p=0 c=a k=synthetic s=18446744073709551615ps dl=-",
            "0ps job d=0 p=0 c=a k=synthetic s=1ps dl=18446744073709551615ps",
        ] {
            assert_eq!(
                Trace::parse(&format!("class a\n{line}")),
                Err(TraceParseError {
                    line: 2,
                    what: "past the picosecond horizon",
                    text: line.into(),
                })
            );
        }
        let last =
            "0ps job d=0 p=0 c=a k=synthetic s=18446744073709551614ps dl=18446744073709551614ps";
        assert!(Trace::parse(&format!("class a\n{last}")).is_ok());
    }

    #[test]
    fn work_kind_tokens_round_trip() {
        for k in [
            WorkKind::Synthetic,
            WorkKind::Saxpy {
                phases: 4,
                sweeps: 7,
            },
            WorkKind::AllReduce { phases: 1 },
        ] {
            assert_eq!(WorkKind::parse(&k.to_string()), Some(k));
        }
        assert_eq!(WorkKind::parse("saxpy/1"), None);
        assert_eq!(WorkKind::parse("allreduce/1/2"), None);
    }

    #[test]
    fn push_enforces_time_order_and_known_class() {
        let mut t = Trace::new();
        let c = t.class("only");
        let mk = |at| Arrival {
            at,
            dim: 0,
            priority: 0,
            class: c,
            work: WorkKind::Synthetic,
            service: Dur::us(1),
            deadline: None,
        };
        t.push(mk(Dur::us(5)));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut t2 = t.clone();
            t2.push(mk(Dur::us(1)));
        }));
        assert!(r.is_err(), "out-of-order push must panic");
        assert_eq!(t.span(), Dur::us(5));
        assert_eq!(t.max_dim(), 0);
    }
}
