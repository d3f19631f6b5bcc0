//! Self-tests of the benchmark, at `--quick` sizes: determinism of
//! everything the simulated clock produces, seed sensitivity, the span
//! tree, the emitted files and the committed `BENCHMARK.json`.

use std::path::{Path, PathBuf};

use ts_benchmark::catalogue::{self, METRICS, WORKLOADS};
use ts_benchmark::compare;
use ts_benchmark::json::Json;
use ts_benchmark::runner::{self, Mode, Options, Outcome};
use ts_benchmark::schema;
use ts_benchmark::workloads;

fn opt(seed: u64) -> Options {
    Options {
        seed,
        seconds: 0.0,
        quick: true,
        ladder: false,
    }
}

fn measure(name: &str, mode: Mode, seed: u64) -> Outcome {
    runner::measure(
        workloads::by_name(name).expect("a catalogue workload"),
        mode,
        &opt(seed),
    )
}

/// Every sim-clock metric and exact count of an outcome, by name.
fn exact_values(out: &Outcome) -> Vec<(&'static str, u64)> {
    out.samples
        .iter()
        .filter(|(name, _)| catalogue::metric(name).is_some_and(|m| m.exact()))
        .map(|(name, v)| (*name, v[0].to_bits()))
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn same_seed_repeats_exactly_and_another_seed_does_not() {
    for w in WORKLOADS {
        let a = measure(w.name, Mode::Trace, 1986);
        let b = measure(w.name, Mode::Trace, 1986);
        assert_eq!(a.checks.failed, 0, "{}: {:?}", w.name, a.checks.failures);
        assert_eq!(a.digest, b.digest, "{}: result_digest moved", w.name);
        assert_eq!(exact_values(&a), exact_values(&b), "{}", w.name);
        assert!(!exact_values(&a).is_empty());

        let c = measure(w.name, Mode::Trace, 7);
        assert_eq!(c.checks.failed, 0, "{}: {:?}", w.name, c.checks.failures);
        assert_ne!(
            a.digest, c.digest,
            "{}: the seed does not reach the inputs",
            w.name
        );
    }
}

#[test]
fn run_mode_reports_every_applicable_end_to_end_metric() {
    let universal = [
        "setup_s",
        "wall_s",
        "peak_rss_mb",
        "failed_frac",
        "sim_elapsed_ms",
    ];
    let specific: &[(&str, &[&str])] = &[
        ("collective_storm", &["model_err_max"]),
        ("kernel_dense", &["sim_efficiency"]),
        (
            "service_queue",
            &[
                "sim_p99_wait_us",
                "sim_jobs_per_s",
                "sim_missed_deadline_frac",
            ],
        ),
        (
            "service_live",
            &[
                "sim_p99_wait_us",
                "sim_jobs_per_s",
                "sim_missed_deadline_frac",
            ],
        ),
        ("recovery_storm", &["sim_snapshot_ms"]),
        ("sharded_dim12", &[]),
    ];
    for (name, own) in specific {
        let out = measure(name, Mode::Run, 1986);
        assert_eq!(out.checks.failed, 0, "{name}: {:?}", out.checks.failures);
        assert_eq!(out.median("failed_frac"), Some(0.0));
        let section = runner::section(&out);
        let reported = section.get("metrics").and_then(Json::as_obj).unwrap();
        for m in universal.iter().chain(own.iter()) {
            assert!(reported.contains_key(*m), "{name} does not report {m}");
        }
        // A metric that does not apply is omitted, never reported as 0.
        for m in METRICS.iter().filter(|m| m.end_to_end()) {
            let applies = universal.contains(&m.name) || own.contains(&m.name);
            assert_eq!(reported.contains_key(m.name), applies, "{name}/{}", m.name);
        }
        for m in ["setup_s", "wall_s", "peak_rss_mb", "sim_elapsed_ms"] {
            assert!(out.median(m).unwrap() > 0.0, "{name}/{m} must never be 0");
        }
    }
}

#[test]
fn layer_predictions_hold_at_quick_sizes() {
    // service_queue runs no simulator at all.
    let queue = measure("service_queue", Mode::Trace, 1986);
    assert_eq!(queue.median("sim.events"), Some(0.0));
    // Retransmit counters are non-zero only where faults are injected.
    let storm = measure("recovery_storm", Mode::Trace, 1986);
    assert!(storm.median("link.retransmits").unwrap() > 0.0);
    assert!(storm.median("core.ckpt_torn_aborts").unwrap() > 0.0);
    for healthy in [
        "collective_storm",
        "kernel_dense",
        "service_live",
        "sharded_dim12",
    ] {
        let out = measure(healthy, Mode::Trace, 1986);
        for counter in ["link.retransmits", "link.crc_errors", "link.escalations"] {
            assert_eq!(out.median(counter), Some(0.0), "{healthy}/{counter}");
        }
    }
}

#[test]
fn span_tree_is_well_formed_and_self_times_sum_to_the_root() {
    let out = measure("recovery_storm", Mode::Trace, 1986);
    let spans = out.spans.recorded();
    let own = out.spans.self_ns();
    assert!(!spans.is_empty());
    for (i, s) in spans.iter().enumerate() {
        assert!(s.end_ns >= s.start_ns);
        match s.parent {
            None => assert_eq!(s.name, "rep", "only a repetition is a root"),
            Some(p) => {
                assert!(p < i, "a parent opens before its child");
                let parent = &spans[p];
                assert_eq!(parent.rep, s.rep);
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            }
        }
    }
    for (i, root) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        let total: u64 = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.rep == root.rep)
            .map(|(_, &ns)| ns)
            .sum();
        let diff = total.abs_diff(root.dur_ns()) as f64;
        assert!(
            diff <= 0.01 * root.dur_ns() as f64,
            "rep {i}: self times sum to {total}, root is {}",
            root.dur_ns()
        );
        let names: Vec<&str> = spans
            .iter()
            .filter(|s| s.rep == root.rep)
            .map(|s| s.name)
            .collect();
        for want in [
            "setup",
            "core.build",
            "run",
            "core.checkpoint",
            "core.restore",
            "verify",
        ] {
            assert!(names.contains(&want), "rep {i} has no {want} span");
        }
    }
}

#[test]
fn emitted_files_meet_the_contract_and_compare_with_themselves() {
    let dir = scratch("emitted");
    let o = Options {
        ladder: true,
        ..opt(1986)
    };
    for w in WORKLOADS {
        let workload = workloads::by_name(w.name).unwrap();
        for mode in [Mode::Run, Mode::Trace] {
            // One ladder is enough.
            let o = Options {
                ladder: o.ladder && w.name == "service_queue",
                ..o
            };
            let out = runner::measure(workload, mode, &o);
            runner::write_result(&dir, &out, &o, &(workload.sizes)(true)).unwrap();

            // The driver's line: exactly the names BENCHMARK.json lists.
            let line = Json::parse(&runner::driver_line(&out)).unwrap();
            let keys: Vec<&str> = line.as_obj().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{}", w.name);
            let listed = schema::manifest();
            let list = if mode == Mode::Run {
                "end_to_end"
            } else {
                "per_layer"
            };
            let want: Vec<&str> = listed
                .get(list)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .filter_map(|m| m.get("name").and_then(Json::as_str))
                .collect();
            let mut got: Vec<&str> = line
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap()
                .keys()
                .map(String::as_str)
                .collect();
            let mut want_sorted = want.clone();
            want_sorted.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want_sorted, "{} [{list}]", w.name);
        }
    }
    let summary = schema::check_results(&dir).unwrap_or_else(|p| panic!("{p:#?}"));
    assert!(summary.contains("6 workloads"), "{summary}");

    // Both sections landed in one file per workload, with the host recorded.
    let doc =
        Json::parse(&std::fs::read_to_string(dir.join("kernel_dense.json")).unwrap()).unwrap();
    assert!(doc.get("run").is_some() && doc.get("trace").is_some());
    assert!(doc.get("host_cores").and_then(Json::as_f64).unwrap() >= 1.0);
    assert!(dir.join("kernel_dense.trace.json").exists());

    // A result set compared with itself passes, whatever the host noise.
    let rep = compare::compare(&dir, &dir).unwrap();
    assert!(rep.passes(), "{}", rep.text);

    // A simulated-clock regression past its bound is `worse` and fails.
    let worse = scratch("emitted-worse");
    std::fs::create_dir_all(&worse).unwrap();
    let text = std::fs::read_to_string(dir.join("kernel_dense.json")).unwrap();
    let mut doc = Json::parse(&text).unwrap();
    let slow = |doc: &mut Json, path: &[&str]| {
        let mut at = doc;
        for key in path {
            let Json::Obj(m) = at else {
                panic!("not an object at {key}")
            };
            at = m.get_mut(*key).unwrap();
        }
        let Json::Arr(samples) = at else {
            panic!("no samples")
        };
        for s in samples {
            *s = Json::Num(s.as_f64().unwrap() * 1.5);
        }
    };
    slow(&mut doc, &["run", "metrics", "sim_elapsed_ms", "samples"]);
    std::fs::write(worse.join("kernel_dense.json"), doc.pretty()).unwrap();
    let rep = compare::compare(
        &dir.join("kernel_dense.json"),
        &worse.join("kernel_dense.json"),
    )
    .unwrap();
    assert!(!rep.passes());
    assert_eq!(rep.worse, ["kernel_dense/sim_elapsed_ms"]);
}

#[test]
fn committed_benchmark_json_is_the_generated_one() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(schema::check_manifest(&doc), Vec::<String>::new());
    assert_eq!(
        doc,
        schema::manifest(),
        "regenerate it: cargo run --release --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
    );
}

#[test]
fn readme_names_every_metric_and_workload() {
    let readme = std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"))
        .expect("benchmark/README.md");
    for m in METRICS {
        assert!(
            readme.contains(&format!("`{}`", m.name)),
            "README lacks {}",
            m.name
        );
    }
    for w in WORKLOADS {
        assert!(
            readme.contains(&format!("`{}`", w.name)),
            "README lacks {}",
            w.name
        );
    }
}
