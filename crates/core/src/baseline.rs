//! The paper's §I comparison points, as checkable models (experiment E13).
//!
//! "Shared memory systems are expensive when scaled to large dimensions
//! because of the rapid growth of the interconnection network; the distance
//! from memory to the processing elements also degrades performance by
//! increasing latency... the cost of switching and the time to route
//! messages is much smaller on such statically configured systems."
//!
//! * [`SharedBusMachine`] — p vector processors behind one shared memory
//!   bus: per-processor bandwidth collapses as 1/p once the bus saturates,
//!   and queueing delay grows without bound as utilization → 1.
//! * [`CrossbarCost`] — a full crossbar needs p × b switch points (O(p²)
//!   when banks scale with processors); the n-cube needs p·log₂(p)/2
//!   links. The crossover is the quantitative form of the paper's cost
//!   argument.

/// A bus-based shared-memory multiprocessor (the scaling strawman).
#[derive(Clone, Copy, Debug)]
pub struct SharedBusMachine {
    /// Processor count.
    pub processors: u64,
    /// Bus bandwidth, bytes/second.
    pub bus_bytes_per_s: f64,
    /// Demand per processor, bytes/second, when unconstrained.
    pub demand_bytes_per_s: f64,
    /// Peak MFLOPS per processor when memory keeps up.
    pub peak_mflops_per_proc: f64,
}

impl SharedBusMachine {
    /// Bus utilization if every processor ran unconstrained (may exceed 1).
    pub fn offered_load(&self) -> f64 {
        self.processors as f64 * self.demand_bytes_per_s / self.bus_bytes_per_s
    }

    /// Fraction of peak each processor actually achieves: 1 until the bus
    /// saturates, then `bus / (p · demand)`.
    pub fn efficiency(&self) -> f64 {
        let load = self.offered_load();
        if load <= 1.0 {
            1.0
        } else {
            1.0 / load
        }
    }

    /// Aggregate achieved MFLOPS.
    pub fn achieved_mflops(&self) -> f64 {
        self.processors as f64 * self.peak_mflops_per_proc * self.efficiency()
    }
}

/// Interconnect cost counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrossbarCost {
    /// Processors (and memory banks, kept equal as the machine scales).
    pub p: u64,
}

impl CrossbarCost {
    /// Switch points in a full p × p crossbar: p².
    pub fn crossbar_switches(&self) -> u64 {
        self.p * self.p
    }

    /// Bidirectional links in a binary n-cube of p = 2ⁿ nodes: p·n/2.
    pub fn hypercube_links(&self) -> u64 {
        let n = self.p.trailing_zeros() as u64;
        debug_assert!(self.p.is_power_of_two());
        self.p * n / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus(p: u64) -> SharedBusMachine {
        SharedBusMachine {
            processors: p,
            // A fast 1986 bus: 100 MB/s; each 16 MFLOPS vector processor
            // wants two 8-byte operands + one result per 2 flops: 192 MB/s
            // unconstrained — the dual-bank row port is what makes the
            // T Series node immune to this.
            bus_bytes_per_s: 100.0e6,
            demand_bytes_per_s: 192.0e6,
            peak_mflops_per_proc: 16.0,
        }
    }

    #[test]
    fn single_processor_already_starved() {
        let m = bus(1);
        assert!(m.efficiency() < 1.0);
    }

    #[test]
    fn aggregate_throughput_saturates() {
        // Once the bus is the bottleneck, adding processors adds nothing.
        let m8 = bus(8).achieved_mflops();
        let m64 = bus(64).achieved_mflops();
        assert!((m8 - m64).abs() / m8 < 1e-9, "{m8} vs {m64}");
        // The distributed machine scales linearly: 64 nodes = 8 × 8 nodes.
        let cube8 = 8.0 * 16.0;
        let cube64 = 64.0 * 16.0;
        assert_eq!(cube64 / cube8, 8.0);
        assert!(cube64 > m64 * 7.0);
    }

    #[test]
    fn crossbar_grows_quadratically() {
        let small = CrossbarCost { p: 16 };
        let big = CrossbarCost { p: 4096 };
        assert_eq!(small.crossbar_switches(), 256);
        assert_eq!(small.hypercube_links(), 32);
        assert_eq!(big.crossbar_switches(), 16_777_216);
        assert_eq!(big.hypercube_links(), 24_576);
    }
}
