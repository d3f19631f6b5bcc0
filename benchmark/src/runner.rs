//! Runs one workload: a warm-up, then timed repetitions for the run's
//! length, each rebuilding the machine from scratch; aggregates what they
//! report and renders it for people, for result files and for the driver.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::catalogue::{self, Clock, METRICS};
use crate::json::Json;
use crate::spans::Spans;
use crate::stats::Summary;
use crate::workloads::{Checks, OnceOut, RepCtx, RepOut, Workload};
use crate::{anchors, ladder};

/// Fewest timed repetitions of a full-size run: host metrics are medians,
/// and the issue fixes five as the floor.
pub const MIN_REPS: usize = 5;
/// Fewest timed repetitions at `--quick` sizes.
pub const MIN_REPS_QUICK: usize = 2;

/// What to measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Spans off: the end-to-end numbers.
    Run,
    /// Traced and untraced repetitions alternate: the per-layer numbers,
    /// the span file and the tracing overhead.
    Trace,
}

impl Mode {
    /// Section name in a result file.
    pub fn key(self) -> &'static str {
        match self {
            Mode::Run => "run",
            Mode::Trace => "trace",
        }
    }
}

/// How to measure.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload seed.
    pub seed: u64,
    /// How long to keep repeating, seconds.
    pub seconds: f64,
    /// Reduced sizes.
    pub quick: bool,
    /// Whether a traced pass also walks the ladder.
    pub ladder: bool,
}

/// What one mode measured on one workload.
pub struct Outcome {
    /// The workload's name (or `ladder`).
    pub workload: &'static str,
    /// The mode it was measured in.
    pub mode: Mode,
    /// Timed repetitions behind the host samples.
    pub reps: usize,
    /// All output checks, every repetition and the once-per-process parts.
    pub checks: Checks,
    /// FNV-1a over computed values and the final picosecond.
    pub digest: u64,
    /// Samples by metric name; sim-clock metrics hold their one value.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// The spans of a traced pass.
    pub spans: Spans,
}

impl Outcome {
    fn new(workload: &'static str, mode: Mode) -> Outcome {
        Outcome {
            workload,
            mode,
            reps: 0,
            checks: Checks::default(),
            digest: 0,
            samples: BTreeMap::new(),
            spans: Spans::new(false),
        }
    }

    /// Book one value: host-clock values accumulate as samples, sim-clock
    /// values must repeat bit-for-bit (a repetition that disagrees is a
    /// failed check).
    fn book(&mut self, name: &'static str, v: f64) {
        let def = catalogue::metric(name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        let slot = self.samples.entry(name).or_default();
        if def.exact() {
            match slot.first() {
                None => slot.push(v),
                Some(&first) => self.checks.check(first.to_bits() == v.to_bits(), || {
                    format!("{name} differed between repetitions: {first} vs {v}")
                }),
            }
        } else {
            slot.push(v);
        }
    }

    fn book_once(&mut self, once: OnceOut) {
        for (name, v) in once.values {
            self.book(name, v);
        }
        self.checks.merge(once.checks);
    }

    /// Book a repetition's digest and checks. The first (the warm-up) sets
    /// the digest; every later one must reproduce it.
    fn book_checks(&mut self, digest: u64, checks: Checks, first: bool) {
        if first {
            self.digest = digest;
        } else {
            let want = self.digest;
            self.checks.check(digest == want, || {
                format!("result_digest differed between repetitions: {want:016x} vs {digest:016x}")
            });
        }
        self.checks.merge(checks);
    }

    /// Failed checks over checks attempted.
    pub fn failed_frac(&self) -> f64 {
        self.checks.failed as f64 / self.checks.attempted.max(1) as f64
    }

    /// Median of a metric's samples, if it was measured.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.samples
            .get(name)
            .filter(|s| !s.is_empty())
            .map(|s| Summary::of(s).median)
    }
}

fn one_rep(w: &Workload, opt: &Options, spans: &mut Spans, index: u32, traced: bool) -> RepOut {
    spans.set_enabled(traced);
    spans.begin_rep(index);
    let root = spans.open("rep");
    let out = (w.rep)(&mut RepCtx {
        seed: opt.seed,
        quick: opt.quick,
        traced,
        spans,
    });
    spans.close(root);
    out
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Measure one workload in one mode.
pub fn measure(w: &'static Workload, mode: Mode, opt: &Options) -> Outcome {
    let mut out = Outcome::new(w.name, mode);
    let min_reps = if opt.quick { MIN_REPS_QUICK } else { MIN_REPS };
    // In a traced pass every other repetition is untraced, so the tracing
    // overhead is measured inside the same process and the same minutes.
    let min_timed = match mode {
        Mode::Run => min_reps,
        Mode::Trace => 2 * min_reps.div_ceil(2),
    };

    // Warm-up: caches fill and lazy set-up finishes before anything is timed.
    let warm = one_rep(w, opt, &mut out.spans, 0, false);
    out.book_checks(warm.digest, warm.checks, true);

    let started = Instant::now();
    let mut untraced_wall = Vec::new();
    let mut index = 0u32;
    while (index as usize) < min_timed || started.elapsed().as_secs_f64() < opt.seconds {
        index += 1;
        let traced = mode == Mode::Trace && index.is_multiple_of(2);
        let rep = one_rep(w, opt, &mut out.spans, index, traced);
        out.book_checks(rep.digest, rep.checks, false);
        if mode == Mode::Trace && !traced {
            // Only the comparator side of the overhead figure.
            untraced_wall.push(rep.wall_s);
            continue;
        }
        out.reps += 1;
        if mode == Mode::Run {
            out.book("setup_s", rep.setup_s);
        }
        out.book("wall_s", rep.wall_s);
        for (name, v) in rep.values {
            out.book(name, v);
        }
    }

    match mode {
        Mode::Run => match peak_rss_mb() {
            Some(mb) => out.book("peak_rss_mb", mb),
            None => out
                .checks
                .check(false, || "VmHWM is not readable on this host".into()),
        },
        Mode::Trace => {
            let traced = out.median("wall_s").unwrap_or(f64::NAN);
            let untraced = Summary::of(&untraced_wall).median;
            out.book("bench.span_overhead_frac", traced / untraced - 1.0);
            // End-to-end host numbers come from `run` only.
            out.samples.remove("wall_s");
        }
    }

    // Once-per-process parts, outside every timed region.
    let traced = mode == Mode::Trace;
    if let Some(once) = w.once {
        out.book_once(once(opt.seed, opt.quick, traced));
    }
    out.book_once(anchors::measure());
    if traced && opt.ladder {
        out.book_once(ladder::measure(opt.seed, opt.quick));
    }
    let failed_frac = out.failed_frac();
    if mode == Mode::Run {
        out.book("failed_frac", failed_frac);
    }
    out
}

/// The ladder on its own (what `trace all` runs once, after the workloads).
pub fn measure_ladder(opt: &Options) -> Outcome {
    let mut out = Outcome::new("ladder", Mode::Trace);
    out.book_once(ladder::measure(opt.seed, opt.quick));
    out
}

/// Which metrics of an outcome a mode reports: `run` the end-to-end ones,
/// `trace` the per-layer ones.
fn reported(out: &Outcome) -> impl Iterator<Item = (&'static catalogue::MetricDef, &Vec<f64>)> {
    METRICS.iter().filter_map(move |def| {
        let samples = out.samples.get(def.name).filter(|s| !s.is_empty())?;
        let wanted = match out.mode {
            Mode::Run => def.end_to_end(),
            Mode::Trace => !def.end_to_end(),
        };
        wanted.then_some((def, samples))
    })
}

/// The table printed for people.
pub fn render(out: &Outcome, opt: &Options) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    // The ladder has rungs, not repetitions or computed results.
    let repetitions = if out.reps > 0 {
        format!(
            "  {} timed repetition(s) + 1 warm-up  result_digest {:016x}",
            out.reps, out.digest
        )
    } else {
        String::new()
    };
    let _ = writeln!(
        s,
        "{} [{}]  seed {}{}{}  checks {}/{} passed",
        out.workload,
        out.mode.key(),
        opt.seed,
        if opt.quick { "  --quick sizes" } else { "" },
        repetitions,
        out.checks.attempted - out.checks.failed,
        out.checks.attempted,
    );
    let _ = writeln!(
        s,
        "  {:<32} {:<5} {:<7} {:>14} {:>14} {:>14} {:>3}",
        "metric", "clock", "unit", "median", "q1", "q3", "n"
    );
    for (def, samples) in reported(out) {
        let sum = Summary::of(samples);
        if def.clock == Clock::Host {
            let _ = writeln!(
                s,
                "  {:<32} {:<5} {:<7} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                def.name,
                def.clock.label(),
                def.unit,
                sum.median,
                sum.q1,
                sum.q3,
                sum.n
            );
        } else {
            let _ = writeln!(
                s,
                "  {:<32} {:<5} {:<7} {:>14.6} {:>14} {:>14} {:>3}",
                def.name,
                def.clock.label(),
                def.unit,
                sum.median,
                "(exact)",
                "",
                1
            );
        }
    }
    if out.reps > 0 {
        let _ = writeln!(
            s,
            "  host metrics: median and quartiles of {} samples; that many cannot support a tail percentile, so none is given",
            out.reps
        );
    }
    if out.reps > 0 {
        let _ = writeln!(
            s,
            "  the hypervisor stole {:.1} % of the timed seconds; wall_s and what derives from it are net of that",
            100.0 * out.spans.stolen_frac()
        );
    }
    for f in &out.checks.failures {
        let _ = writeln!(s, "  FAILED CHECK: {f}");
    }
    s
}

/// The section this outcome contributes to a result file.
pub fn section(out: &Outcome) -> Json {
    let metrics = reported(out).map(|(def, samples)| {
        let sum = Summary::of(samples);
        (
            def.name,
            Json::obj([
                ("unit", Json::str(def.unit)),
                ("clock", Json::str(def.clock.label())),
                ("better", Json::str(def.better.word())),
                ("exact", Json::Bool(def.exact())),
                ("n", Json::Num(sum.n as f64)),
                ("median", Json::Num(sum.median)),
                ("q1", Json::Num(sum.q1)),
                ("q3", Json::Num(sum.q3)),
                ("samples", Json::nums(samples)),
            ]),
        )
    });
    Json::obj([
        ("reps", Json::Num(out.reps as f64)),
        ("attempted", Json::Num(out.checks.attempted as f64)),
        ("failed", Json::Num(out.checks.failed as f64)),
        (
            "failures",
            Json::Arr(out.checks.failures.iter().map(Json::str).collect()),
        ),
        ("result_digest", Json::str(format!("{:016x}", out.digest))),
        ("stolen_frac", Json::Num(out.spans.stolen_frac())),
        ("metrics", Json::obj(metrics)),
    ])
}

/// The commit checked out above the benchmark, read from `.git` without
/// spawning a process; `unknown` outside a git checkout (the driver's).
pub fn git_head(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Write (or merge into) `<dir>/<workload>.json`: one file per workload,
/// one section per mode, with the host it was measured on.
pub fn write_result(
    dir: &Path,
    out: &Outcome,
    opt: &Options,
    sizes: &[(&'static str, f64)],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", out.workload));
    let header = [
        ("schema", Json::str("ts-benchmark/1")),
        ("workload", Json::str(out.workload)),
        ("seed", Json::Num(opt.seed as f64)),
        ("quick", Json::Bool(opt.quick)),
        (
            "host_cores",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        (
            "commit",
            Json::str(git_head(&Path::new(env!("CARGO_MANIFEST_DIR")).join(".."))),
        ),
        (
            "sizes",
            Json::obj(sizes.iter().map(|&(k, v)| (k, Json::Num(v)))),
        ),
    ];
    // Keep the other mode's section when it was measured with the same
    // seed and sizes; anything else is a different experiment.
    let mut doc: BTreeMap<String, Json> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|old| old.as_obj().cloned())
        .filter(|old| {
            ["seed", "quick", "sizes", "schema"]
                .iter()
                .all(|k| old.get(*k) == header.iter().find(|(h, _)| h == k).map(|(_, v)| v))
        })
        .unwrap_or_default();
    for (k, v) in header {
        doc.insert(k.to_string(), v);
    }
    doc.insert(out.mode.key().to_string(), section(out));
    std::fs::write(&path, Json::Obj(doc).pretty())?;
    if out.mode == Mode::Trace && !out.spans.recorded().is_empty() {
        std::fs::write(
            dir.join(format!("{}.trace.json", out.workload)),
            out.spans.to_chrome_trace().line(),
        )?;
    }
    Ok(())
}

/// The driver's line: `correct`, `attempted`, `failed` and one value per
/// metric `BENCHMARK.json` lists for this mode. The driver wants every
/// listed metric on every workload, so a per-layer metric whose layer does
/// no work here reads 0 (a true zero for the counts).
pub fn driver_line(out: &Outcome) -> String {
    let metrics = METRICS
        .iter()
        .filter(|def| match out.mode {
            Mode::Run => def.driver_bound.is_some(),
            Mode::Trace => def.driver_bound.is_none() && def.name != "failed_frac",
        })
        .map(|def| {
            (
                def.name,
                Json::obj([
                    ("value", Json::Num(out.median(def.name).unwrap_or(0.0))),
                    ("unit", Json::str(def.unit)),
                ]),
            )
        });
    Json::obj([
        ("correct", Json::Bool(out.checks.failed == 0)),
        ("attempted", Json::Num(out.checks.attempted.max(1) as f64)),
        ("failed", Json::Num(out.checks.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .line()
}
