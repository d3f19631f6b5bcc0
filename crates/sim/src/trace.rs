//! Execution tracing: structured events, busy-interval capture and ASCII
//! Gantt rendering.
//!
//! Attach a [`Tracer`] to [`Resource`](crate::Resource)s and every granted
//! slot is recorded as a span [`Event`] on an interned [`TrackId`]. The
//! tracer feeds two renderers: the ASCII Gantt below (the quickest way to
//! *see* the §II overlap story — vector unit crunching while the control
//! processor gathers and the links stream) and the Chrome `trace_event`
//! JSON exporter in [`perfetto`](crate::perfetto), which produces files
//! loadable in `ui.perfetto.dev`.
//!
//! Tracks are interned once (`track()` returns a copyable [`TrackId`]), so
//! recording a span on the hot path pushes a fixed-size [`Event`] — no
//! `String` allocation per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::metrics::natural_cmp;
use crate::time::Time;

/// Interned identifier of one timeline track (e.g. `"n0.vec"`).
///
/// Obtained from [`Tracer::track`]; copying it is free, and recording
/// against it allocates nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrackId(pub u32);

/// One structured trace event with a typed payload.
///
/// Events are fixed-size and `Copy`: the hot path pushes one into the
/// tracer's buffer without allocating.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A completed busy interval on `track` (a resource grant, a unit
    /// executing one operation, a wire carrying one transfer).
    Span {
        /// Track the interval belongs to.
        track: TrackId,
        /// Slot start.
        start: Time,
        /// Slot end.
        end: Time,
    },
    /// A flow arrow connecting a departure on one track to an arrival on
    /// another (one link message travelling between nodes).
    Flow {
        /// Sending track.
        from: TrackId,
        /// Receiving track.
        to: TrackId,
        /// When the message left `from`.
        depart: Time,
        /// When it arrived at `to`.
        arrive: Time,
        /// Unique id tying the two arrow endpoints together.
        id: u64,
    },
}

/// One busy interval on a named track, as returned by [`Tracer::spans`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Track label (e.g. `"n0.vec"`).
    pub track: String,
    /// Slot start.
    pub start: Time,
    /// Slot end.
    pub end: Time,
}

#[derive(Default)]
struct TracerInner {
    /// Interned track names, indexed by `TrackId`.
    tracks: Vec<String>,
    /// Reverse index: name → id.
    index: BTreeMap<String, TrackId>,
    /// Recorded events, in recording order.
    events: Vec<Event>,
    /// Next flow-arrow id.
    next_flow: u64,
}

/// A shared collector of structured trace [`Event`]s.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Rc<RefCell<TracerInner>>,
}

impl Tracer {
    /// New, empty tracer.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Intern `name` and return its [`TrackId`]. Calling twice with the
    /// same name returns the same id; hold on to the id and record against
    /// it so the hot path never touches the name again.
    pub fn track(&self, name: &str) -> TrackId {
        let mut inner = self.inner.borrow_mut();
        if let Some(id) = inner.index.get(name) {
            return *id;
        }
        let id = TrackId(inner.tracks.len() as u32);
        inner.tracks.push(name.to_string());
        inner.index.insert(name.to_string(), id);
        id
    }

    /// All interned track names, in interning order (index = `TrackId`).
    pub fn tracks(&self) -> Vec<String> {
        self.inner.borrow().tracks.clone()
    }

    /// Record a busy interval on an interned track. Allocation-free.
    pub fn record_span(&self, track: TrackId, start: Time, end: Time) {
        self.inner
            .borrow_mut()
            .events
            .push(Event::Span { track, start, end });
    }

    /// Record a flow arrow from `from` (at `depart`) to `to` (at `arrive`).
    /// Returns the arrow id.
    pub fn flow(&self, from: TrackId, to: TrackId, depart: Time, arrive: Time) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let id = inner.next_flow;
        inner.next_flow += 1;
        inner.events.push(Event::Flow {
            from,
            to,
            depart,
            arrive,
            id,
        });
        id
    }

    /// All events recorded so far, in recording order. Because the
    /// executor is deterministic, two identical runs yield identical
    /// event vectors — the integration tests assert this.
    pub fn events(&self) -> Vec<Event> {
        self.inner.borrow().events.clone()
    }

    /// All span events recorded so far (in recording order), with track
    /// names resolved.
    pub fn spans(&self) -> Vec<Span> {
        let inner = self.inner.borrow();
        inner
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Span { track, start, end } => Some(Span {
                    track: inner.tracks[track.0 as usize].clone(),
                    start: *start,
                    end: *end,
                }),
                _ => None,
            })
            .collect()
    }

    /// Render an ASCII Gantt chart `width` characters wide covering
    /// `[0, horizon]`. Each row is one track in natural (node, unit)
    /// order; `#` marks busy buckets, `.` idle ones.
    pub fn gantt(&self, horizon: Time, width: usize) -> String {
        use std::fmt::Write;
        assert!(width > 0 && horizon > Time::ZERO);
        let spans = self.spans();
        let mut tracks: Vec<String> = spans
            .iter()
            .map(|s| s.track.clone())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        tracks.sort_by(|a, b| natural_cmp(a, b));
        let h = horizon.as_ps() as f64;
        let mut out = String::new();
        let label_w = tracks.iter().map(|t| t.len()).max().unwrap_or(4).max(4);
        let _ = writeln!(
            out,
            "{:label_w$} |{}| 0..{horizon}",
            "",
            "-".repeat(width),
            label_w = label_w
        );
        for track in &tracks {
            let mut row = vec![false; width];
            for s in spans.iter().filter(|s| &s.track == track) {
                let a = ((s.start.as_ps() as f64 / h) * width as f64).floor() as usize;
                let b = ((s.end.as_ps() as f64 / h) * width as f64).ceil() as usize;
                for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *cell = true;
                }
            }
            let bar: String = row.iter().map(|&b| if b { '#' } else { '.' }).collect();
            let _ = writeln!(out, "{track:label_w$} |{bar}|", label_w = label_w);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    fn t(us: u64) -> Time {
        Time::ZERO + Dur::us(us)
    }

    fn span(tr: &Tracer, track: &str, start: Time, end: Time) {
        tr.record_span(tr.track(track), start, end);
    }

    #[test]
    fn records_and_sums() {
        let tr = Tracer::new();
        span(&tr, "a", t(0), t(10));
        span(&tr, "a", t(20), t(30));
        span(&tr, "b", t(5), t(15));
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans[2],
            Span {
                track: "b".into(),
                start: t(5),
                end: t(15)
            }
        );
    }

    #[test]
    fn interning_reuses_track_ids() {
        let tr = Tracer::new();
        let a = tr.track("n0.vec");
        let b = tr.track("n0.vec");
        let c = tr.track("n0.cp");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(tr.tracks()[a.0 as usize], "n0.vec");
        assert_eq!(tr.tracks().len(), 2);
    }

    #[test]
    fn typed_events_round_trip() {
        let tr = Tracer::new();
        let a = tr.track("n0.cp");
        let b = tr.track("n1.cp");
        tr.record_span(a, t(0), t(5));
        let id = tr.flow(a, b, t(1), t(4));
        assert_eq!(id, 0);
        let ev = tr.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(
            ev[0],
            Event::Span {
                track: a,
                start: t(0),
                end: t(5)
            }
        );
        assert_eq!(
            ev[1],
            Event::Flow {
                from: a,
                to: b,
                depart: t(1),
                arrive: t(4),
                id: 0
            }
        );
    }

    #[test]
    fn gantt_marks_busy_buckets() {
        let tr = Tracer::new();
        span(&tr, "vec", t(0), t(50));
        span(&tr, "cp", t(50), t(100));
        let g = tr.gantt(t(100), 10);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3);
        let cp = lines.iter().find(|l| l.starts_with("cp")).unwrap();
        let vec = lines.iter().find(|l| l.starts_with("vec")).unwrap();
        assert!(cp.contains(".....#####"), "{cp}");
        assert!(vec.contains("#####....."), "{vec}");

        // Rows come out in natural (node, unit) order: digit runs compare
        // numerically, so n2 precedes n10.
        let tr = Tracer::new();
        span(&tr, "n10.vec", t(0), t(1));
        span(&tr, "n2.vec", t(0), t(1));
        span(&tr, "n2.cp", t(0), t(1));
        let g = tr.gantt(t(100), 10);
        let rows: Vec<&str> = g
            .lines()
            .skip(1)
            .map(|l| l.split(' ').next().unwrap())
            .collect();
        assert_eq!(rows, vec!["n2.cp", "n2.vec", "n10.vec"]);
    }

    #[test]
    fn overlapping_spans_merge_visually() {
        let tr = Tracer::new();
        span(&tr, "x", t(0), t(60));
        span(&tr, "x", t(40), t(100));
        let g = tr.gantt(t(100), 10);
        let x = g.lines().find(|l| l.starts_with('x')).unwrap();
        assert!(x.contains("##########"), "{x}");
    }
}
