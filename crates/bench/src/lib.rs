//! # ts-bench — the experiment harness
//!
//! One function per experiment in DESIGN.md's index (E1–E16). Each runs the
//! simulator, prints a paper-versus-measured table, and returns the headline
//! measurements so tests can assert on them. Host-clock and per-layer
//! measurement lives in `benchmark/`, not here.
//!
//! Run everything: `cargo run -p ts-bench --bin repro -- all`
//! Run one:        `cargo run -p ts-bench --bin repro -- e5`

#![deny(missing_docs)]

pub mod experiments;

pub use experiments::*;

/// Pretty-print a paper-vs-measured row.
pub fn row(label: &str, paper: &str, measured: &str) {
    println!("  {label:<46} {paper:>18} {measured:>18}");
}

/// Print a table header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
    println!("  {:<46} {:>18} {:>18}", "quantity", "paper", "measured");
}
