//! # ts-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate on which the whole FPS T Series model runs.
//! It provides a **single-threaded, deterministic, picosecond-resolution**
//! discrete-event executor for ordinary Rust `async` code:
//!
//! * [`Time`] / [`Dur`] — virtual time as integer picoseconds, so the
//!   machine's 125 ns arithmetic cycle and 62.5 ns half-cycle are exact.
//! * [`Sim`] — the executor. Tasks are plain futures; every await point that
//!   models hardware latency suspends the task until the virtual clock
//!   reaches the right instant.
//! * [`channel`] — CSP-style rendezvous channels (the Occam model the paper's
//!   control processor executes), one-shot completions, and buffered
//!   mailboxes, plus an `ALT`-style select.
//! * [`resource`] — FIFO servers used to model contended hardware (physical
//!   links, memory ports, disks).
//! * [`metrics`] — the typed metrics registry: counters, busy time and
//!   histograms behind pre-registered handles.
//! * [`text`] — the strict line reader of the plain-text formats (fault
//!   plans, arrival traces).
//!
//! ## Determinism
//!
//! The executor runs one task at a time and orders timer expirations by
//! `(time, sequence-number)`. Because tasks advance virtual time only through
//! the primitives in this crate, two runs of the same program produce
//! identical event orders and identical final clocks. The integration tests
//! assert this property; the rest of the workspace relies on it to make
//! contention modeling exact.
//!
//! ## Example
//!
//! ```
//! use ts_sim::{Sim, Dur};
//!
//! let mut sim = Sim::new();
//! let h = sim.handle();
//! sim.spawn(async move {
//!     h.sleep(Dur::ns(125)).await; // one arithmetic cycle
//!     assert_eq!(h.now().as_ns(), 125);
//! });
//! let report = sim.run();
//! assert!(report.quiescent);
//! assert_eq!(sim.now().as_ns(), 125);
//! ```

#![deny(missing_docs)]

pub mod channel;
pub mod executor;
pub mod metrics;
pub mod perfetto;
pub mod pool;
pub mod resource;
pub mod rng;
pub mod text;
pub mod time;
pub mod trace;

pub use channel::{select2, Alt, Either, Mailbox, OneShot, Rendezvous, RvCore};
pub use executor::{ExecProfile, JoinHandle, RunReport, Sim, SimHandle};
pub use metrics::{
    mflops, natural_cmp, BusyTime, Counter, HistSnapshot, Histogram, MetricValue, MetricsRegistry,
    MetricsScope,
};
pub use perfetto::{trace_event_json, write_trace};
pub use resource::{Resource, ResourceCore};
pub use rng::Rng;
pub use time::{Dur, Time};
pub use trace::{Event, Span, Tracer, TrackId};
