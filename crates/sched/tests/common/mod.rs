//! Shared by the integration tests beside it.

use ts_workload::{Dist, Trace, TraceGen};

/// A seeded open-arrival stream sized to offered load `load` on a
/// `dim`-cube: the given width mix, exponential 100 µs service, a `batch`
/// class and a priority-3 `urgent` quarter with a 30× deadline slack, and
/// `kernels` of the arrivals running real SAXPY / all-reduce gangs.
pub fn stream(
    seed: u64,
    dim: u32,
    sizes: &[(u32, f64)],
    load: f64,
    kernels: f64,
    jobs: usize,
) -> Trace {
    let g = TraceGen::new(seed)
        .sizes(sizes)
        .service(Dist::Exp { mean: 1e-4 })
        .classes("batch", 0.75, 0, None)
        .class("urgent", 0.25, 3, Some(30.0))
        .kernel_fraction(kernels);
    let unit = g
        .clone()
        .interarrival(Dist::Fixed(1.0))
        .offered_load(dim)
        .expect("the mix has finite moments");
    g.interarrival(Dist::Exp { mean: unit / load })
        .generate(jobs)
}
