//! Telemetry-spine integration tests: the Perfetto export must be
//! schema-valid `trace_event` JSON, histogram bucketing must respect its
//! own bucket-range invariants, and a deterministic simulator must emit
//! byte-identical event streams for identical runs.

use fps_t_series::fpu::Sf64;
use fps_t_series::machine::{Machine, MachineCfg};
use fps_t_series::sim::{trace_event_json, Histogram, Tracer};
use fps_t_series::vector::VecForm;

/// A tiny recursive-descent JSON parser — just enough to validate the
/// hand-rolled exporter's output structurally instead of by substring
/// matching. Numbers, strings with the escapes the exporter emits,
/// arrays, objects.
mod json {
    /// A parsed JSON value.
    #[derive(Debug, PartialEq)]
    pub enum Value {
        /// `null` / `true` / `false` (the exporter never emits these, but
        /// accepting them keeps the parser honest).
        Null,
        /// Boolean.
        Bool(bool),
        /// Any JSON number.
        Num(f64),
        /// String.
        Str(String),
        /// Array.
        Arr(Vec<Value>),
        /// Object, insertion-ordered.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, *pos))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => Ok(Value::Str(string(b, pos)?)),
            Some(b't') => keyword(b, pos, "true", Value::Bool(true)),
            Some(b'f') => keyword(b, pos, "false", Value::Bool(false)),
            Some(b'n') => keyword(b, pos, "null", Value::Null),
            Some(_) => number(b, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn keyword(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad keyword at byte {}", *pos))
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            fields.push((key, value(b, pos)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while let Some(&c) = b.get(*pos) {
            *pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *b.get(*pos).ok_or("dangling escape")?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&b[*pos..*pos + 4])
                                .map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                            *pos += 4;
                        }
                        _ => return Err(format!("unknown escape \\{}", esc as char)),
                    }
                }
                c => out.push(c as char),
            }
        }
        Err("unterminated string".into())
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// Two nodes, three rounds: node 0 overlaps a vector form with a gather
/// and a send; node 1 receives and computes. Exercises span, flow and
/// metadata emission on CP, vector, port and wire tracks.
fn traced_workload() -> Tracer {
    let mut m = Machine::build(MachineCfg::cube(1));
    let tracer = m.enable_tracing();
    let rows_a = m.ctx(0).mem().cfg().rows_a();
    let tx = m.ctx(0);
    m.launch_on(0, async move {
        for round in 0..3u32 {
            let (_, done) = tx
                .issue_vec(VecForm::Saxpy(Sf64::from(2.0)), 0, rows_a, rows_a, 128)
                .unwrap();
            let srcs: Vec<usize> = (0..32).map(|i| 8192 + 4 * i).collect();
            tx.gather64(&srcs, 1024).await.unwrap();
            tx.send_dim(0, vec![round; 64]).await;
            tx.wait(done).await;
        }
    });
    let rx = m.ctx(1);
    m.launch_on(1, async move {
        for _ in 0..3 {
            let words = rx.recv_dim(0).await;
            rx.vec(
                VecForm::Saxpy(Sf64::from(0.5)),
                0,
                rows_a,
                rows_a,
                words.len(),
            )
            .await
            .unwrap();
        }
    });
    assert!(m.run().quiescent);
    tracer
}

#[test]
fn perfetto_export_is_schema_valid_trace_event_json() {
    let tracer = traced_workload();
    let text = trace_event_json(&tracer);
    let doc = json::parse(&text).expect("exporter must emit parseable JSON");

    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("top-level traceEvents array");
    assert!(!events.is_empty(), "trace must not be empty");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ns")
    );

    let mut spans = 0;
    let mut flows_s = 0;
    let mut flows_f = 0;
    let mut span_pids = std::collections::BTreeSet::new();
    for e in events {
        let ph = e
            .get("ph")
            .and_then(|v| v.as_str())
            .expect("every event has ph");
        assert!(
            e.get("name").and_then(|v| v.as_str()).is_some(),
            "every event has a name"
        );
        assert!(
            e.get("pid").and_then(|v| v.as_f64()).is_some(),
            "every event has pid"
        );
        assert!(
            e.get("tid").and_then(|v| v.as_f64()).is_some(),
            "every event has tid"
        );
        match ph {
            "M" => {
                let name = e.get("name").unwrap().as_str().unwrap();
                assert!(
                    name == "process_name" || name == "thread_name",
                    "metadata event {name:?}"
                );
                assert!(e.get("args").and_then(|a| a.get("name")).is_some());
            }
            "X" => {
                spans += 1;
                span_pids.insert(e.get("pid").unwrap().as_f64().unwrap() as u64);
                let ts = e.get("ts").and_then(|v| v.as_f64()).expect("X has ts");
                let dur = e.get("dur").and_then(|v| v.as_f64()).expect("X has dur");
                assert!(ts >= 0.0 && dur >= 0.0, "non-negative ts/dur");
            }
            "s" => {
                flows_s += 1;
                assert!(e.get("id").is_some(), "flow start has id");
            }
            "f" => {
                flows_f += 1;
                assert!(e.get("id").is_some(), "flow finish has id");
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(spans > 0, "workload must produce busy spans");
    assert_eq!(flows_s, flows_f, "every flow start pairs with a finish");
    assert!(flows_s > 0, "link sends must emit flow arrows");
    // Both nodes' units must appear as their own processes (pid = id + 2).
    assert!(
        span_pids.contains(&2) && span_pids.contains(&3),
        "pids: {span_pids:?}"
    );
}

#[test]
fn histogram_bucketing_respects_bucket_ranges() {
    // Deterministic xorshift sweep across all magnitudes.
    let mut x = 0x9e3779b97f4a7c15u64;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let h = Histogram::new();
    let mut n = 0u64;
    for _ in 0..4096 {
        // Mask to a random width so small values are as common as huge ones.
        let width = (rand() % 64) as u32;
        let v = rand() & (u64::MAX >> width);
        let b = Histogram::bucket_of(v);
        let (lo, hi) = Histogram::bucket_range(b);
        assert!(lo <= v, "value {v} below its bucket's lower bound {lo}");
        assert!(v <= hi, "value {v} above its bucket's upper bound {hi}");
        if b > 0 {
            // Buckets are half-open powers of two: [2^(b-1), 2^b).
            assert!(v >= 1 << (b - 1).min(63), "{v} too small for bucket {b}");
        } else {
            assert_eq!(v, 0, "bucket 0 holds exactly the value 0");
        }
        h.observe(v);
        n += 1;
    }
    assert_eq!(h.total(), n);
    assert_eq!(h.counts().iter().sum::<u64>(), n);
    // Quantile bounds are monotone in q and end at the max observed bucket.
    let q50 = h.quantile_bound(0.50);
    let q99 = h.quantile_bound(0.99);
    let q100 = h.quantile_bound(1.0);
    assert!(q50 <= q99 && q99 <= q100, "{q50} <= {q99} <= {q100}");
}

#[test]
fn identical_runs_emit_identical_event_streams() {
    let a = traced_workload();
    let b = traced_workload();
    assert_eq!(
        a.tracks(),
        b.tracks(),
        "track interning must be deterministic"
    );
    assert_eq!(
        trace_event_json(&a),
        trace_event_json(&b),
        "two identical runs must serialize to byte-identical traces"
    );
}
