//! `repro` — regenerate every figure and quantitative claim of the paper.
//!
//! ```text
//! cargo run --release -p ts-bench --bin repro -- all
//! cargo run --release -p ts-bench --bin repro -- e5 e10
//! ```

use ts_bench::{run_all, EXPERIMENTS};

fn usage() -> ! {
    eprintln!("usage: repro <all | e1 .. e16>...\n");
    for (name, what, _) in EXPERIMENTS {
        eprintln!("  {name:<4} {what}");
    }
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    for arg in &args {
        let arg = arg.to_ascii_lowercase();
        if arg == "all" {
            run_all();
        } else if let Some((_, _, run)) = EXPERIMENTS.iter().find(|(name, ..)| *name == arg) {
            run();
        } else {
            eprintln!("unknown experiment `{arg}`");
            usage();
        }
    }
}
