//! `compare <a> <b>` — the one regression function.
//!
//! `a` is the base and `b` the change; each is a result file or a
//! directory of them. Per workload and metric it prints both medians with
//! quartiles, the ratio with its base, and a verdict:
//!
//! * `better` / `worse` — the median moved past the bound (any move, for a
//!   per-layer count) in that direction;
//! * `same` — it did not;
//! * `unresolved` — a host-clock metric whose run-to-run spread exceeds the
//!   bound while the two sides' samples overlap: the data cannot tell.
//!
//! Sim-clock metrics and counts are pure functions of program and seed, so
//! they compare exactly: no spread, no `unresolved`. Only end-to-end
//! metrics gate: the exit code is non-zero on any `worse` among them or any
//! rise in failed checks. Per-layer rows are there to say *where*.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::catalogue::{self, Better, Bound};
use crate::json::Json;
use crate::stats::Summary;

/// Bound used for the verdict word of a host-clock per-layer metric (they
/// have none of their own and never gate).
const LAYER_HOST_BOUND: f64 = 0.10;

/// The verdict on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Moved past the bound in the good direction.
    Better,
    /// Did not move past the bound.
    Same,
    /// Moved past the bound in the bad direction.
    Worse,
    /// Spread exceeds the bound and the samples overlap.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// What `compare` found.
#[derive(Debug, Default)]
pub struct Report {
    /// The rendered comparison.
    pub text: String,
    /// End-to-end metrics judged `worse`, as `workload/metric`.
    pub worse: Vec<String>,
    /// Metrics judged `unresolved`, as `workload/metric`.
    pub unresolved: Vec<String>,
    /// Workloads whose failed-check count rose.
    pub failed_rose: Vec<String>,
}

impl Report {
    /// Whether the change passes: nothing worse, no new failed check.
    pub fn passes(&self) -> bool {
        self.worse.is_empty() && self.failed_rose.is_empty()
    }
}

/// How far `new` is from `base` in the worse direction (positive = worse),
/// as a share of the base or absolutely, to match the bound's kind.
fn worse_by(base: f64, new: f64, better: Better, bound: Bound) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    match bound {
        Bound::Abs(_) => delta,
        Bound::Rel(_) if base == 0.0 => {
            if delta == 0.0 {
                0.0
            } else {
                delta.signum() * f64::INFINITY
            }
        }
        Bound::Rel(_) => delta / base.abs(),
    }
}

/// Judge one metric from its two sample sets.
pub fn judge(
    base: &[f64],
    new: &[f64],
    better: Better,
    exact: bool,
    bound: Option<Bound>,
) -> Verdict {
    let (a, b) = (Summary::of(base), Summary::of(new));
    if exact {
        // No noise: any move is real. An end-to-end metric is a regression
        // only past its bound; a count has none, so any rise is `worse`.
        let by = worse_by(a.median, b.median, better, bound.unwrap_or(Bound::Abs(0.0)));
        let limit = match bound {
            Some(Bound::Rel(x) | Bound::Abs(x)) => x,
            None => 0.0,
        };
        return if a.median.to_bits() == b.median.to_bits() {
            Verdict::Same
        } else if by > limit {
            Verdict::Worse
        } else if by < 0.0 {
            Verdict::Better
        } else {
            Verdict::Same
        };
    }
    let bound = bound.unwrap_or(Bound::Rel(LAYER_HOST_BOUND));
    let limit = match bound {
        Bound::Rel(x) | Bound::Abs(x) => x,
    };
    let spread = match bound {
        Bound::Rel(_) => a.spread().max(b.spread()),
        Bound::Abs(_) => (a.q3 - a.q1).max(b.q3 - b.q1),
    };
    let overlap = a.min <= b.max && b.min <= a.max;
    if spread > limit && overlap {
        return Verdict::Unresolved;
    }
    let by = worse_by(a.median, b.median, better, bound);
    // One sample a side says nothing about spread: a move past the bound
    // may be noise, and is reported as such.
    if a.n.min(b.n) < 2 && by.abs() > limit {
        return Verdict::Unresolved;
    }
    if by > limit {
        Verdict::Worse
    } else if -by > limit {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn samples_of(metric: &Json) -> Option<Vec<f64>> {
    let v: Vec<f64> = metric
        .get("samples")?
        .as_arr()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    (!v.is_empty()).then_some(v)
}

fn load(path: &Path) -> Result<BTreeMap<String, Json>, String> {
    let files: Vec<PathBuf> = if path.is_dir() {
        let mut v: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                name.ends_with(".json") && !name.ends_with(".trace.json")
            })
            .collect();
        v.sort();
        v
    } else {
        vec![path.to_path_buf()]
    };
    let mut out = BTreeMap::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no \"workload\" member", f.display()))?
            .to_string();
        out.insert(workload, doc);
    }
    if out.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    Ok(out)
}

fn fmt_side(s: &Summary, exact: bool) -> String {
    if exact {
        format!("{:.6}", s.median)
    } else {
        format!("{:.6} [{:.6}, {:.6}] n={}", s.median, s.q1, s.q3, s.n)
    }
}

/// Compare two result sets; `Err` when either cannot be read.
pub fn compare(a: &Path, b: &Path) -> Result<Report, String> {
    let (base, new) = (load(a)?, load(b)?);
    let mut rep = Report::default();
    let _ = writeln!(
        rep.text,
        "base = {}\nnew  = {}\nratio = new median / base median",
        a.display(),
        b.display()
    );
    for (workload, bdoc) in &base {
        let Some(ndoc) = new.get(workload) else {
            let _ = writeln!(rep.text, "\n{workload}: only in base, skipped");
            continue;
        };
        for key in ["seed", "quick", "sizes"] {
            if bdoc.get(key) != ndoc.get(key) {
                let _ = writeln!(
                    rep.text,
                    "\n{workload}: \"{key}\" differs between the two sides; numbers are not comparable"
                );
            }
        }
        for mode in ["run", "trace"] {
            let (Some(bs), Some(ns)) = (bdoc.get(mode), ndoc.get(mode)) else {
                continue;
            };
            let _ = writeln!(rep.text, "\n{workload} [{mode}]");
            let failed = |s: &Json| s.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            let attempted = |s: &Json| s.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            let (fb, fn_) = (failed(bs), failed(ns));
            let _ = writeln!(
                rep.text,
                "  failed checks: base {fb}/{} new {fn_}/{}{}",
                attempted(bs),
                attempted(ns),
                if fn_ > fb { "  ROSE" } else { "" }
            );
            if fn_ > fb {
                rep.failed_rose.push(format!("{workload}[{mode}]"));
            }
            let digest = |s: &Json| {
                s.get("result_digest")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string()
            };
            let _ = writeln!(
                rep.text,
                "  result_digest: {} (not gated; a simulator-only change must keep it)",
                if digest(bs) == digest(ns) {
                    format!("identical {}", digest(bs))
                } else {
                    format!("differs {} -> {}", digest(bs), digest(ns))
                }
            );
            let (Some(bm), Some(nm)) = (
                bs.get("metrics").and_then(Json::as_obj),
                ns.get("metrics").and_then(Json::as_obj),
            ) else {
                continue;
            };
            for (name, bmetric) in bm {
                let Some(def) = catalogue::metric(name) else {
                    continue;
                };
                let (Some(sb), Some(sn)) = (samples_of(bmetric), nm.get(name).and_then(samples_of))
                else {
                    let _ = writeln!(rep.text, "  {name:<32} missing on one side");
                    continue;
                };
                let verdict = judge(&sb, &sn, def.better, def.exact(), def.bound);
                let (qb, qn) = (Summary::of(&sb), Summary::of(&sn));
                let ratio = if qb.median == 0.0 {
                    "n/a (base is 0)".to_string()
                } else {
                    format!("{:.4}", qn.median / qb.median)
                };
                let _ = writeln!(
                    rep.text,
                    "  {:<32} {:<5} {:<7} base {}  new {}  ratio {}  {}{}",
                    name,
                    def.clock.label(),
                    def.unit,
                    fmt_side(&qb, def.exact()),
                    fmt_side(&qn, def.exact()),
                    ratio,
                    verdict.word(),
                    if def.end_to_end() {
                        ""
                    } else {
                        " (per-layer, not gated)"
                    },
                );
                let id = format!("{workload}/{name}");
                match verdict {
                    Verdict::Worse if def.end_to_end() => rep.worse.push(id),
                    Verdict::Unresolved => rep.unresolved.push(id),
                    _ => {}
                }
            }
        }
    }
    let _ = writeln!(
        rep.text,
        "\nworse (end-to-end): {}\nunresolved: {}\nfailed checks rose: {}\nverdict: {}",
        list(&rep.worse),
        list(&rep.unresolved),
        list(&rep.failed_rose),
        if rep.passes() { "PASS" } else { "FAIL" }
    );
    Ok(rep)
}

fn list(v: &[String]) -> String {
    if v.is_empty() {
        "none".into()
    } else {
        v.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REL10: Option<Bound> = Some(Bound::Rel(0.10));

    #[test]
    fn host_metric_verdicts() {
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        let same = [1.03, 1.02, 1.04, 1.03, 1.01];
        let worse = [1.20, 1.21, 1.19, 1.22, 1.20];
        let better = [0.80, 0.81, 0.79, 0.80, 0.82];
        assert_eq!(
            judge(&base, &same, Better::Lower, false, REL10),
            Verdict::Same
        );
        assert_eq!(
            judge(&base, &worse, Better::Lower, false, REL10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&base, &better, Better::Lower, false, REL10),
            Verdict::Better
        );
        assert_eq!(
            judge(&base, &better, Better::Higher, false, REL10),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_overlapping_spread_is_unresolved_not_unchanged() {
        let base = [1.0, 1.3, 0.8, 1.1, 0.9];
        let new = [1.05, 1.35, 0.85, 1.0, 0.95];
        assert_eq!(
            judge(&base, &new, Better::Lower, false, REL10),
            Verdict::Unresolved
        );
        // ... unless every run of the change beats every run of the base.
        let clear = [0.5, 0.6, 0.4, 0.55, 0.45];
        assert_eq!(
            judge(&base, &clear, Better::Lower, false, REL10),
            Verdict::Better
        );
    }

    #[test]
    fn exact_metrics_compare_exactly() {
        let rel1 = Some(Bound::Rel(0.01));
        assert_eq!(
            judge(&[62.245], &[62.245], Better::Lower, true, rel1),
            Verdict::Same
        );
        assert_eq!(
            judge(&[62.245], &[62.0], Better::Lower, true, rel1),
            Verdict::Better
        );
        assert_eq!(
            judge(&[62.245], &[62.3], Better::Lower, true, rel1),
            Verdict::Same
        );
        assert_eq!(
            judge(&[62.245], &[63.0], Better::Lower, true, rel1),
            Verdict::Worse
        );
        // A per-layer count has no bound: any rise is worse.
        assert_eq!(
            judge(&[100.0], &[101.0], Better::Lower, true, None),
            Verdict::Worse
        );
        assert_eq!(
            judge(&[0.0], &[0.0], Better::Lower, true, None),
            Verdict::Same
        );
        assert_eq!(
            judge(&[0.0], &[3.0], Better::Lower, true, rel1),
            Verdict::Worse
        );
    }
}
