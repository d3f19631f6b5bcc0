//! # ts-benchmark — the repo's one benchmark
//!
//! Six seeded workloads, a layer ladder and a traced run, for both clocks
//! of the simulator: the **simulated** clock (what the modelled machine
//! would take: exact, reproducible) and the **host** clock (what the
//! simulator itself takes: noisy, reported as medians with quartiles).
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions and reading public counters; nothing outside `benchmark/`
//! changes. See `README.md` for the metric and workload tables and the
//! layer-to-end-to-end interaction map.

#![deny(missing_docs)]

pub mod alloc;
pub mod anchors;
pub mod catalogue;
pub mod census;
pub mod cli;
pub mod compare;
pub mod json;
pub mod ladder;
pub mod runner;
pub mod schema;
pub mod spans;
pub mod stats;
pub mod workloads;

/// Allocations per simulated event is a per-layer metric; see [`alloc`].
#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
