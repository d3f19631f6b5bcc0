//! `ts-benchmark` — see `README.md`, or run with `help`.

fn main() {
    std::process::exit(ts_benchmark::cli::main(std::env::args().skip(1).collect()));
}
