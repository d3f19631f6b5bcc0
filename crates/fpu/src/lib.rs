//! # ts-fpu — the T Series floating-point arithmetic, in software
//!
//! The paper (§II *Arithmetic*) specifies the node's arithmetic hardware:
//!
//! * a floating-point **adder** with a six-stage pipeline (add, subtract,
//!   compare, data conversions, 32- and 64-bit),
//! * a floating-point **multiplier**, five-stage in 32-bit mode and
//!   seven-stage in 64-bit mode,
//! * both produce one 32- or 64-bit result every 125 ns — 16 MFLOPS peak,
//! * numbers use "the proposed IEEE Floating-point standard format;
//!   however, **gradual underflow is not supported**".
//!
//! This crate reimplements that arithmetic **bit-accurately in software**:
//!
//! * [`soft`] — a from-scratch IEEE-754 binary32/binary64 implementation
//!   (unpack/align/operate/normalize/round-to-nearest-even/pack) with
//!   **flush-to-zero** semantics: subnormal inputs are treated as zeros and
//!   results that would be subnormal are replaced by a same-signed zero.
//!   This reproduces the T Series' documented deviation from IEEE-754.
//!   `add`/`sub`/`mul` take the host's result where it provably carries
//!   the same bits (normal operands, result clear of the underflow edge)
//!   and the bit-level datapath everywhere else.
//! * [`soft::row`] — the same arithmetic a row at a time: one guard pass
//!   per block of lanes, a native loop, and the element path only for the
//!   lanes the guard rejects. Every vector form and kernel row uses it.
//! * [`Sf32`] / [`Sf64`] — ergonomic wrappers with operator overloads.
//! * [`pipeline`] — occupancy/latency models of the two pipelined units and
//!   of *chained* vector forms (multiplier output feeding the adder), in
//!   units of 125 ns machine cycles.
//! * [`softdiv`] — division, reciprocal and square root as Newton–Raphson
//!   software routines built only from the hardware's add and multiply, the
//!   way a machine without a divider actually computes them.
//!
//! There is **no divider** in the node; that is why `softdiv` exists.
//!
//! The crate is dependency-free and panic-free on all inputs.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod pipeline;
pub mod soft;
pub mod softdiv;

pub use pipeline::{chained_vector_cycles, vector_cycles, Pipeline, Precision, CYCLE_NS};
pub use soft::{Sf32, Sf64};
