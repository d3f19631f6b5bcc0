//! The command line: `run`, `trace`, `compare`, and the flag-only form the
//! driver of `BENCHMARK.json` uses.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::catalogue::WORKLOADS;
use crate::compare;
use crate::runner::{self, Mode, Options};
use crate::schema;
use crate::workloads::{self, DEFAULT_SEED};

/// `run_seconds` of `BENCHMARK.json`: how long one run keeps repeating.
pub const RUN_SECONDS: f64 = 15.0;

const USAGE: &str = "\
usage:
  ts-benchmark run     <workload|all> [--seed N] [--seconds S] [--quick] [--out DIR]
  ts-benchmark trace   <workload|all> [--seed N] [--seconds S] [--quick] [--out DIR] [--skip-ladder]
  ts-benchmark compare <base.json|dir> <new.json|dir>
  ts-benchmark schema  <dir>           check result files against the contract's limits
  ts-benchmark manifest                print BENCHMARK.json, generated from the catalogue
  ts-benchmark list
  ts-benchmark --workload <name> --seed N --seconds S --trace <0|1>     (driver form)

run      end-to-end metrics, spans off: a warm-up, then timed repetitions for S
         seconds (at least 5), each rebuilding the machine from scratch
trace    per-layer metrics: traced and untraced repetitions alternate, spans
         go to <out>/<workload>.trace.json, then the layer ladder is walked
compare  per workload and metric: medians, quartiles, ratio with its base and
         better / same / worse / unresolved; exit 1 on any end-to-end `worse`
         or any rise in failed checks
--seed     workload seed (default 1986); the program under test sees only the
           inputs generated from it
--seconds  how long to keep repeating (default 15; 0 with --quick)
--quick    reduced sizes (self-tests and check.sh); not comparable to full runs
--out      where result files go (default benchmark/out)";

struct Args {
    opt: Options,
    out: PathBuf,
    positional: Vec<String>,
    workload: Option<String>,
    trace: Option<bool>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        opt: Options {
            seed: DEFAULT_SEED,
            seconds: f64::NAN,
            quick: false,
            ladder: true,
        },
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        positional: Vec::new(),
        workload: None,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--seed" => {
                a.opt.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                a.opt.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=3600.0).contains(s))
                    .ok_or("--seconds takes a number from 0 to 3600")?;
            }
            "--trace" => {
                a.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--workload" => a.workload = Some(value("--workload")?),
            "--out" => a.out = PathBuf::from(value("--out")?),
            "--quick" => a.opt.quick = true,
            "--skip-ladder" => a.opt.ladder = false,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => a.positional.push(arg.clone()),
        }
    }
    if a.opt.seconds.is_nan() {
        a.opt.seconds = if a.opt.quick { 0.0 } else { RUN_SECONDS };
    }
    Ok(a)
}

/// Measure one workload in this process; returns failed checks.
fn one(name: &str, mode: Mode, a: &Args, driver: bool) -> Result<u64, String> {
    let w = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of: {}", names.join(", "))
    })?;
    let out = runner::measure(w, mode, &a.opt);
    print!("{}", runner::render(&out, &a.opt));
    runner::write_result(&a.out, &out, &a.opt, &(w.sizes)(a.opt.quick))
        .map_err(|e| format!("writing results to {}: {e}", a.out.display()))?;
    if driver {
        println!("{}", runner::driver_line(&out));
    }
    Ok(out.checks.failed)
}

/// Measure every workload, one child process each (so `peak_rss_mb` is the
/// workload's own), then the ladder once.
fn all(mode: Mode, a: &Args, raw: &[String]) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut failed = 0u64;
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.arg(mode.key()).arg(w.name).arg("--skip-ladder");
        // Everything after `<mode> all` is passed through unchanged.
        cmd.args(raw.iter().skip(2).filter(|s| *s != "--skip-ladder"));
        let status = cmd
            .status()
            .map_err(|e| format!("starting the {} child: {e}", w.name))?;
        if !status.success() {
            failed += 1;
        }
        println!();
    }
    if mode == Mode::Trace && a.opt.ladder {
        let out = runner::measure_ladder(&a.opt);
        print!("{}", runner::render(&out, &a.opt));
        runner::write_result(&a.out, &out, &a.opt, &[])
            .map_err(|e| format!("writing results to {}: {e}", a.out.display()))?;
        failed += out.checks.failed;
    }
    Ok(failed)
}

/// Run the command line; returns the process exit code.
pub fn main(raw: Vec<String>) -> i32 {
    let a = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return 2;
        }
    };
    let pos: Vec<&str> = a.positional.iter().map(String::as_str).collect();
    let outcome = match (pos.as_slice(), &a.workload) {
        // The driver's form. It exits 0 even when a check fails: the line
        // it prints says so.
        ([], Some(name)) => {
            let mode = if a.trace == Some(true) {
                Mode::Trace
            } else {
                Mode::Run
            };
            one(name, mode, &a, true).map(|_| 0)
        }
        ([cmd @ ("run" | "trace"), target], None) => {
            let mode = if *cmd == "run" {
                Mode::Run
            } else {
                Mode::Trace
            };
            if *target == "all" {
                all(mode, &a, &raw)
            } else {
                one(target, mode, &a, false)
            }
        }
        (["compare", base, new], None) => {
            return match compare::compare(Path::new(base), Path::new(new)) {
                Ok(rep) => {
                    print!("{}", rep.text);
                    i32::from(!rep.passes())
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    2
                }
            };
        }
        (["schema", dir], None) => {
            return match schema::check_results(Path::new(dir)) {
                Ok(summary) => {
                    println!("{summary}");
                    0
                }
                Err(problems) => {
                    problems.iter().for_each(|p| eprintln!("schema: {p}"));
                    1
                }
            };
        }
        (["manifest"], None) => {
            print!("{}", schema::manifest().pretty());
            Ok(0)
        }
        (["list"], None) => {
            for w in WORKLOADS {
                println!(
                    "{:<18} {}  {}",
                    w.name,
                    if w.open_loop { "open  " } else { "closed" },
                    w.why
                );
            }
            Ok(0)
        }
        (["help"], None) => {
            println!("{USAGE}");
            Ok(0)
        }
        _ => {
            eprintln!("{USAGE}");
            return 2;
        }
    };
    match outcome {
        Ok(0) => 0,
        Ok(failed) => {
            eprintln!("{failed} check(s) or workload(s) failed");
            1
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}
