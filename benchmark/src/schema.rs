//! `BENCHMARK.json` and the result files, checked against the limits of
//! the benchmark contract.
//!
//! `BENCHMARK.json` is generated from the catalogue (`ts-benchmark manifest`)
//! so it cannot drift from what the program prints; the self-tests compare
//! the committed file with [`manifest`] and run [`check_manifest`] and
//! [`check_results`] on what the benchmark emits.

use std::collections::BTreeSet;
use std::path::Path;

use crate::catalogue::{valid_name, valid_unit, METRICS, WORKLOADS};
use crate::cli::RUN_SECONDS;
use crate::json::Json;

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, from the catalogue. The four end-to-end metrics that
/// apply to every workload and are never 0 go to the driver as
/// `end_to_end`; every other metric (the workload-specific end-to-end ones
/// included) rides in `per_layer`. `failed_frac` is always 0 on a passing
/// run, so the driver reads it from `failed` / `attempted` instead.
pub fn manifest() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::str(*s)).collect());
    let workloads = WORKLOADS
        .iter()
        .filter(|w| w.driver)
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = METRICS
        .iter()
        .filter_map(|m| {
            m.driver_bound.map(|bound| {
                Json::obj([
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.word())),
                    ("bound", Json::Num(bound)),
                ])
            })
        })
        .collect();
    let per_layer = METRICS
        .iter()
        .filter(|m| m.driver_bound.is_none() && m.name != "failed_frac")
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.word())),
            ])
        })
        .collect();
    Json::obj([
        ("command", strs(COMMAND)),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

fn names_of(
    list: Option<&Json>,
    what: &str,
    keys: &[&str],
    problems: &mut Vec<String>,
) -> Vec<String> {
    let mut names = Vec::new();
    for item in list.and_then(Json::as_arr).unwrap_or(&[]) {
        let Some(obj) = item.as_obj() else {
            problems.push(format!("{what}: an entry is not an object"));
            continue;
        };
        let have: Vec<&str> = obj.keys().map(String::as_str).collect();
        let mut want = keys.to_vec();
        want.sort_unstable();
        if have != want {
            problems.push(format!("{what}: keys {have:?}, expected exactly {want:?}"));
        }
        let name = obj.get("name").and_then(Json::as_str).unwrap_or("");
        if !valid_name(name) {
            problems.push(format!("{what}: bad name {name:?}"));
        }
        if let Some(unit) = obj.get("unit").and_then(Json::as_str) {
            if !valid_unit(unit) {
                problems.push(format!("{what}: {name} has bad unit {unit:?}"));
            }
        }
        if let Some(better) = obj.get("better").and_then(Json::as_str) {
            if !matches!(better, "lower" | "higher") {
                problems.push(format!("{what}: {name} has bad direction {better:?}"));
            }
        }
        names.push(name.to_string());
    }
    names
}

/// Check a `BENCHMARK.json` document against the contract's limits.
/// Returns every problem found (empty = fine).
pub fn check_manifest(doc: &Json) -> Vec<String> {
    let mut p = Vec::new();
    let keys: BTreeSet<&str> = doc
        .as_obj()
        .map(|o| o.keys().map(String::as_str).collect())
        .unwrap_or_default();
    let want = BTreeSet::from([
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ]);
    if keys != want {
        p.push(format!(
            "top-level keys {keys:?}, expected exactly {want:?}"
        ));
    }
    let strings = |key: &str| -> Vec<&str> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_str)
            .collect()
    };
    let command = strings("command");
    if command.is_empty() || command.len() > 32 || command.iter().any(|s| s.len() > 200) {
        p.push("command: 1 to 32 strings of at most 200 characters".into());
    }
    if command
        .iter()
        .any(|s| s.starts_with('/') || s.split('/').any(|c| c == ".."))
    {
        p.push("command: no absolute path and no path through ..".into());
    }
    let paths = strings("paths");
    if paths.is_empty() || paths.len() > 16 {
        p.push("paths: 1 to 16 directories".into());
    }
    for path in &paths {
        let ok = path.len() <= 200
            && !path.starts_with('/')
            && path.split('/').all(|c| c != "..")
            && path
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-' | b'/'));
        if !ok {
            p.push(format!("paths: bad path {path:?}"));
        }
    }
    match doc.get("run_seconds").and_then(Json::as_f64) {
        Some(s) if s.fract() == 0.0 && (1.0..=60.0).contains(&s) => {}
        other => p.push(format!(
            "run_seconds: {other:?} is not a whole number from 1 to 60"
        )),
    }
    let workloads = names_of(doc.get("workloads"), "workloads", &["name", "why"], &mut p);
    if !(2..=8).contains(&workloads.len()) {
        p.push(format!(
            "workloads: {} listed, 2 to 8 allowed",
            workloads.len()
        ));
    }
    for w in doc.get("workloads").and_then(Json::as_arr).unwrap_or(&[]) {
        let why = w.get("why").and_then(Json::as_str).unwrap_or("");
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            p.push("workloads: a why must be one line of at most 200 characters".into());
        }
    }
    let e2e = names_of(
        doc.get("end_to_end"),
        "end_to_end",
        &["name", "unit", "better", "bound"],
        &mut p,
    );
    if !(1..=16).contains(&e2e.len()) {
        p.push(format!("end_to_end: {} listed, 1 to 16 allowed", e2e.len()));
    }
    for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]) {
        match m.get("bound").and_then(Json::as_f64) {
            Some(b) if b > 0.0 && b <= 0.25 => {}
            other => p.push(format!("end_to_end: bound {other:?} is not in (0, 0.25]")),
        }
    }
    let setup = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"));
    match setup {
        Some(m)
            if m.get("unit").and_then(Json::as_str) == Some("s")
                && m.get("better").and_then(Json::as_str) == Some("lower") => {}
        _ => p.push("end_to_end: setup_s with unit s and better lower is required".into()),
    }
    let layers = names_of(
        doc.get("per_layer"),
        "per_layer",
        &["name", "unit", "better"],
        &mut p,
    );
    if !(1..=128).contains(&layers.len()) {
        p.push(format!(
            "per_layer: {} listed, 1 to 128 allowed",
            layers.len()
        ));
    }
    let mut seen = BTreeSet::new();
    for n in workloads.iter().chain(&e2e).chain(&layers) {
        if !seen.insert(n.as_str()) {
            p.push(format!("name {n} is used twice"));
        }
    }
    if doc.line().len() > 64 * 1024 {
        p.push("the file is larger than 64 KiB".into());
    }
    p
}

/// Check every result file in `dir`: at most 8 workloads, at most 16
/// end-to-end and 128 per-layer names, every name and unit within the
/// allowed character set, every number finite, no failed check.
pub fn check_results(dir: &Path) -> Result<String, Vec<String>> {
    let mut problems = Vec::new();
    let mut workloads = BTreeSet::new();
    let mut e2e = BTreeSet::new();
    let mut layers = BTreeSet::new();
    let mut files: Vec<_> = match std::fs::read_dir(dir) {
        Ok(rd) => rd.filter_map(|e| e.ok().map(|e| e.path())).collect(),
        Err(e) => return Err(vec![format!("{}: {e}", dir.display())]),
    };
    files.sort();
    for path in files {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json") {
            continue;
        }
        let doc = match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t).map_err(|e| e.to_string()))
        {
            Ok(doc) => doc,
            Err(e) => {
                problems.push(format!("{name}: {e}"));
                continue;
            }
        };
        if name.ends_with(".trace.json") {
            // A span file: Chrome trace_event format.
            let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]);
            if events.is_empty() {
                problems.push(format!("{name}: no trace events"));
            }
            for key in ["name", "ph", "ts", "dur", "pid", "tid"] {
                if events.iter().any(|e| e.get(key).is_none()) {
                    problems.push(format!("{name}: an event lacks \"{key}\""));
                }
            }
            continue;
        }
        let workload = doc.get("workload").and_then(Json::as_str).unwrap_or("");
        if !valid_name(workload) {
            problems.push(format!("{name}: bad workload name {workload:?}"));
        }
        if workload != "ladder" {
            workloads.insert(workload.to_string());
        }
        for key in [
            "schema",
            "seed",
            "quick",
            "host_cores",
            "rustc",
            "commit",
            "sizes",
        ] {
            if doc.get(key).is_none() {
                problems.push(format!("{name}: no \"{key}\" member"));
            }
        }
        for mode in ["run", "trace"] {
            let Some(section) = doc.get(mode) else {
                continue;
            };
            if section.get("failed").and_then(Json::as_f64) != Some(0.0) {
                problems.push(format!("{name} [{mode}]: failed checks"));
            }
            let metrics = section.get("metrics").and_then(Json::as_obj);
            for (metric, body) in metrics.into_iter().flatten() {
                let unit = body.get("unit").and_then(Json::as_str).unwrap_or("");
                if !valid_name(metric) || !valid_unit(unit) {
                    problems.push(format!(
                        "{name}: bad metric name or unit: {metric} [{unit}]"
                    ));
                }
                for key in ["median", "q1", "q3"] {
                    if !body
                        .get(key)
                        .and_then(Json::as_f64)
                        .is_some_and(f64::is_finite)
                    {
                        problems.push(format!("{name}: {metric} has no finite {key}"));
                    }
                }
                let set = if mode == "run" { &mut e2e } else { &mut layers };
                set.insert(metric.clone());
            }
        }
    }
    if workloads.is_empty() {
        problems.push(format!("{}: no result files", dir.display()));
    }
    if workloads.len() > 8 {
        problems.push(format!("{} workloads, at most 8 allowed", workloads.len()));
    }
    if e2e.len() > 16 {
        problems.push(format!(
            "{} end-to-end names, at most 16 allowed",
            e2e.len()
        ));
    }
    if layers.len() > 128 {
        problems.push(format!(
            "{} per-layer names, at most 128 allowed",
            layers.len()
        ));
    }
    if problems.is_empty() {
        Ok(format!(
            "{} workloads, {} end-to-end and {} per-layer metric names: within the limits",
            workloads.len(),
            e2e.len(),
            layers.len()
        ))
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_manifest_meets_the_contract() {
        assert_eq!(check_manifest(&manifest()), Vec::<String>::new());
    }

    #[test]
    fn contract_violations_are_reported() {
        let mut doc = manifest();
        if let Json::Obj(m) = &mut doc {
            m.insert("extra".into(), Json::Null);
            m.insert("run_seconds".into(), Json::Num(90.0));
        }
        let problems = check_manifest(&doc);
        assert!(
            problems.iter().any(|p| p.contains("top-level keys")),
            "{problems:?}"
        );
        assert!(
            problems.iter().any(|p| p.contains("run_seconds")),
            "{problems:?}"
        );
    }
}
