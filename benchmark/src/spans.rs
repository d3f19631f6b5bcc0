//! Spans recorded by the benchmark's own code around every call into a
//! layer: name, start, end, parent, one id per repetition. Kept in memory
//! and written once, when the run ends, as a Chrome `trace_event` file.
//!
//! Opening and closing always times the interval (that is how `setup_s`
//! and `wall_s` are taken), but a span is *recorded* only when tracing is
//! on, so the untraced runs keep nothing.
//!
//! **Granted seconds.** This benchmark runs in virtual machines whose
//! hypervisor at times takes the CPU away for a quarter or more of a
//! repetition (`steal` in `/proc/stat`). A span opened with
//! [`Spans::open_granted`] samples that counter at both ends and reports
//! wall seconds minus stolen seconds: the time the simulator actually had.
//! Stolen time is counted in ticks of 10 ms, so only spans of a good
//! fraction of a second are worth correcting; `setup_s` is left raw.

use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name (`core.build`, `sched.run`, ...).
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a repetition root.
    pub parent: Option<usize>,
    /// The repetition this span belongs to.
    pub rep: u32,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Public counters sampled when the span closed.
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    /// Length of the span, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: close it with [`Spans::close`].
#[must_use = "an open span must be closed"]
pub struct Open {
    started: Instant,
    index: Option<usize>,
    /// Stolen ticks when the span opened, if it reports granted seconds.
    steal0: Option<u64>,
}

/// Ticks per second of the counters in `/proc/stat` (`USER_HZ`, fixed at
/// 100 by the Linux ABI on every mainstream architecture).
const TICKS_PER_S: f64 = 100.0;

/// Ticks the hypervisor has stolen from this machine's CPUs so far (the
/// eighth counter of the aggregate `cpu` line); 0 where `/proc/stat` does
/// not say.
fn stolen_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| {
            let first = t.lines().next()?;
            first.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// The span recorder.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    rep: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
    /// Granted spans currently open (they nest: `run` holds `kernels.*`).
    granted_open: u32,
    /// Raw and stolen seconds over the outermost granted spans, for the
    /// report.
    granted_raw_s: f64,
    granted_stolen_s: f64,
}

impl Spans {
    /// A recorder; `enabled` decides whether spans are kept.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            rep: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            granted_open: 0,
            granted_raw_s: 0.0,
            granted_stolen_s: 0.0,
        }
    }

    /// Turn recording on or off between repetitions.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    /// Start the next repetition: spans opened from now on carry `rep`.
    pub fn begin_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Open a span that reports granted seconds: wall minus stolen.
    pub fn open_granted(&mut self, name: &'static str) -> Open {
        // Sampled before the clock starts (and after it stops), so reading
        // the counter is never inside the interval it corrects.
        let steal0 = stolen_ticks();
        self.granted_open += 1;
        Open {
            steal0: Some(steal0),
            ..self.open(name)
        }
    }

    /// Share of the outermost granted spans' wall time that was stolen.
    pub fn stolen_frac(&self) -> f64 {
        if self.granted_raw_s > 0.0 {
            self.granted_stolen_s / self.granted_raw_s
        } else {
            0.0
        }
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.enabled.then(|| {
            let at = started.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                parent: self.stack.last().copied(),
                rep: self.rep,
                start_ns: at,
                end_ns: at,
                counters: Vec::new(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open {
            started,
            index,
            steal0: None,
        }
    }

    /// Close a span; returns its length in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        self.close_with(open, &[])
    }

    /// Close a span, attaching counters sampled at this boundary.
    pub fn close_with(&mut self, open: Open, counters: &[(&'static str, f64)]) -> f64 {
        let elapsed = open.started.elapsed();
        if let Some(i) = open.index {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans closed out of order");
            self.spans[i].end_ns = self.spans[i].start_ns + elapsed.as_nanos() as u64;
            self.spans[i].counters = counters.to_vec();
        }
        let raw = elapsed.as_secs_f64();
        match open.steal0 {
            None => raw,
            Some(steal0) => {
                // Tick accounting can run a tick ahead of the clock; never
                // hand back less than a tenth of what the clock saw.
                let stolen =
                    (stolen_ticks().saturating_sub(steal0) as f64 / TICKS_PER_S).min(0.9 * raw);
                self.granted_open -= 1;
                if self.granted_open == 0 {
                    self.granted_raw_s += raw;
                    self.granted_stolen_s += stolen;
                }
                raw - stolen
            }
        }
    }

    /// Time one call into a layer as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.open(name);
        let r = f();
        (r, self.close(open))
    }

    /// [`Spans::time`], in granted seconds.
    pub fn time_granted<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.open_granted(name);
        let r = f();
        (r, self.close(open))
    }

    /// Everything recorded so far.
    pub fn recorded(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its length minus the part its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// The Chrome `trace_event` document (complete events, one thread per
    /// repetition; `args` carry parent, self time and sampled counters).
    pub fn to_chrome_trace(&self) -> Json {
        let own = self.self_ns();
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut args = vec![
                    ("id".to_string(), Json::Num(i as f64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("self_us".to_string(), Json::Num(own[i] as f64 / 1e3)),
                ];
                args.extend(
                    s.counters
                        .iter()
                        .map(|&(k, v)| (k.to_string(), Json::Num(v))),
                );
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(s.rep as f64)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut s = Spans::new(true);
        let root = s.open("rep");
        let a = s.open("setup");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.close(a);
        let (_, leaf) = s.time("run", || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        assert!(leaf >= 0.003);
        s.close(root);
        let own = s.self_ns();
        let spans = s.recorded();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(
            own[0] + spans[1].dur_ns() + spans[2].dur_ns(),
            spans[0].dur_ns()
        );
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut s = Spans::new(false);
        let (_, t) = s.time("run", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(t >= 0.001);
        assert!(s.recorded().is_empty());
    }
}
