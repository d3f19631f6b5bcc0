//! Chrome `trace_event` / Perfetto JSON export.
//!
//! Serializes a [`Tracer`](crate::Tracer)'s structured event stream into
//! the JSON Array-of-events format understood by `chrome://tracing` and
//! <https://ui.perfetto.dev> (drag the file into the UI, or `File → Open`).
//!
//! Mapping:
//! * tracks named `n{id}.{unit}` become thread `{unit}` of process
//!   `node {id}`, so each node's CP / vector / port / link timelines stack
//!   under one process group;
//! * span events become complete slices (`"ph":"X"`) with microsecond
//!   `ts`/`dur`;
//! * flow arrows become a `"ph":"s"`/`"ph":"f"` pair sharing an `id`.
//!
//! The writer is hand-rolled (the workspace builds offline with no JSON
//! dependency); the telemetry integration tests validate the output with a
//! small JSON parser to keep the schema honest.

use std::fmt::Write as _;

use crate::time::Time;
use crate::trace::{Event, Tracer, TrackId};

/// Escape a string for inclusion in a JSON string literal.
fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Picoseconds → microsecond timestamp, the unit `trace_event` expects.
fn us(t: Time) -> f64 {
    t.as_ps() as f64 / 1e6
}

/// Where a track lands in the process/thread grid of the trace viewer.
struct TrackAddr {
    pid: u64,
    tid: u64,
    process: String,
    thread: String,
}

/// Tracks named `n{id}.{rest}` map to process `node {id}`; anything else
/// goes under a shared process `sim`. Thread ids are 1-based track ids so
/// every track is distinct.
fn addr(name: &str, id: TrackId) -> TrackAddr {
    let tid = id.0 as u64 + 1;
    if let Some(rest) = name.strip_prefix('n') {
        if let Some(dot) = rest.find('.') {
            if let Ok(node) = rest[..dot].parse::<u64>() {
                return TrackAddr {
                    pid: node + 2,
                    tid,
                    process: format!("node {node}"),
                    thread: rest[dot + 1..].to_string(),
                };
            }
        }
    }
    TrackAddr {
        pid: 1,
        tid,
        process: "sim".to_string(),
        thread: name.to_string(),
    }
}

/// Serialize `tracer`'s event stream as Chrome `trace_event` JSON.
///
/// The result is a single JSON object `{"traceEvents": [...],
/// "displayTimeUnit": "ns"}` loadable in `ui.perfetto.dev`.
pub fn trace_event_json(tracer: &Tracer) -> String {
    let tracks = tracer.tracks();
    let addrs: Vec<TrackAddr> = tracks
        .iter()
        .enumerate()
        .map(|(i, n)| addr(n, TrackId(i as u32)))
        .collect();

    let events = tracer.events();
    let mut out = String::with_capacity(4096 + events.len() * 96);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, line: &str| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(line);
    };

    // Metadata: name each process once and each thread once.
    let mut seen_pids = std::collections::BTreeSet::new();
    for a in &addrs {
        if seen_pids.insert(a.pid) {
            let mut name = String::new();
            escape(&a.process, &mut name);
            push(
                &mut out,
                &mut first,
                &format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                     \"args\":{{\"name\":\"{name}\"}}}}",
                    a.pid
                ),
            );
        }
        let mut name = String::new();
        escape(&a.thread, &mut name);
        push(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                 \"args\":{{\"name\":\"{name}\"}}}}",
                a.pid, a.tid
            ),
        );
    }

    for e in events {
        let line = match e {
            Event::Span { track, start, end } => {
                let a = &addrs[track.0 as usize];
                let mut name = String::new();
                escape(&a.thread, &mut name);
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"busy\",\"ph\":\"X\",\"ts\":{},\
                     \"dur\":{},\"pid\":{},\"tid\":{}}}",
                    us(start),
                    us(end) - us(start),
                    a.pid,
                    a.tid
                )
            }
            Event::Flow {
                from,
                to,
                depart,
                arrive,
                id,
            } => {
                let fa = &addrs[from.0 as usize];
                let ta = &addrs[to.0 as usize];
                format!(
                    "{{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{id},\
                     \"ts\":{},\"pid\":{},\"tid\":{}}},\n\
                     {{\"name\":\"msg\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\
                     \"id\":{id},\"ts\":{},\"pid\":{},\"tid\":{}}}",
                    us(depart),
                    fa.pid,
                    fa.tid,
                    us(arrive),
                    ta.pid,
                    ta.tid
                )
            }
        };
        push(&mut out, &mut first, &line);
    }

    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

/// Serialize `tracer` and write the JSON to `path`.
pub fn write_trace(tracer: &Tracer, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, trace_event_json(tracer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    fn t(us: u64) -> Time {
        Time::ZERO + Dur::us(us)
    }

    #[test]
    fn node_tracks_group_by_process() {
        let tr = Tracer::new();
        let vec = tr.track("n3.vec");
        tr.record_span(vec, t(0), t(5));
        let json = trace_event_json(&tr);
        assert!(json.contains("\"name\":\"node 3\""), "{json}");
        assert!(json.contains("\"name\":\"vec\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"dur\":5"), "{json}");
    }

    #[test]
    fn all_event_kinds_serialize() {
        let tr = Tracer::new();
        let a = tr.track("n0.cp");
        let b = tr.track("n1.cp");
        let m = tr.track("sys.ring");
        tr.record_span(a, t(0), t(2));
        tr.record_span(m, t(1), t(2));
        tr.flow(a, b, t(0), t(2));
        let json = trace_event_json(&tr);
        for frag in ["\"ph\":\"X\"", "\"ph\":\"s\"", "\"ph\":\"f\""] {
            assert!(json.contains(frag), "missing {frag} in {json}");
        }
        // Non-node track lands in the shared "sim" process.
        assert!(json.contains("\"name\":\"sim\""), "{json}");
        assert!(json.contains("\"name\":\"sys.ring\""), "{json}");
    }

    #[test]
    fn escapes_control_characters() {
        let mut s = String::new();
        escape("a\"b\\c\nd", &mut s);
        assert_eq!(s, "a\\\"b\\\\c\\nd");
    }
}
