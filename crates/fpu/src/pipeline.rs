//! Pipeline occupancy and latency models of the arithmetic units.
//!
//! The paper's numbers (§II *Arithmetic*):
//!
//! * machine cycle **125 ns**;
//! * adder: **6-stage** pipeline in both 32- and 64-bit modes;
//! * multiplier: **5-stage** (32-bit) or **7-stage** (64-bit);
//! * one result per cycle from each unit once the pipeline is full, giving
//!   the 16 MFLOPS peak when both run (8 MFLOPS from a single unit);
//! * vector forms can **chain**: "outputs from the functional units can be
//!   fed directly back as inputs" — a SAXPY streams through multiplier then
//!   adder with depth `mul_stages + add_stages`.
//!
//! Times here are expressed in integer **cycles** so that this crate stays
//! dependency-free; `ts-vec` converts cycles to simulated time.

/// The machine cycle, in nanoseconds (125 ns → 8 MHz result rate per unit).
pub const CYCLE_NS: u64 = 125;

/// Operand width mode. The T Series treats precision as a mode bit of the
/// vector form, not a property of the register file.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit mode: vectors of 256 elements per 1024-byte register row.
    Single,
    /// 64-bit mode: vectors of 128 elements per row.
    Double,
}

impl Precision {
    /// Element size in bytes.
    pub const fn bytes(self) -> usize {
        match self {
            Precision::Single => 4,
            Precision::Double => 8,
        }
    }

    /// Elements per 1024-byte vector register row.
    pub const fn elems_per_row(self) -> usize {
        match self {
            Precision::Single => 256,
            Precision::Double => 128,
        }
    }
}

/// A pipelined functional unit: `stages` deep, one initiation per cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pipeline {
    /// Pipeline depth in stages.
    pub stages: u32,
}

impl Pipeline {
    /// The floating-point adder (6 stages in both modes).
    pub const fn adder(_p: Precision) -> Pipeline {
        Pipeline { stages: 6 }
    }

    /// The floating-point multiplier (5 stages single, 7 double).
    pub const fn multiplier(p: Precision) -> Pipeline {
        match p {
            Precision::Single => Pipeline { stages: 5 },
            Precision::Double => Pipeline { stages: 7 },
        }
    }

    /// Cycles to stream an `n`-element vector through this unit:
    /// fill the pipe, then one result per cycle.
    pub const fn vector_cycles(self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.stages as u64 + (n - 1)
        }
    }
}

/// Cycles for an `n`-element vector form through a single unit.
pub const fn vector_cycles(unit: Pipeline, n: u64) -> u64 {
    unit.vector_cycles(n)
}

/// Cycles for an `n`-element **chained** form (e.g. SAXPY): the multiplier's
/// output feeds the adder, so the effective depth is the sum of both pipes
/// while the initiation rate stays one element per cycle.
pub const fn chained_vector_cycles(first: Pipeline, second: Pipeline, n: u64) -> u64 {
    if n == 0 {
        0
    } else {
        (first.stages + second.stages) as u64 + (n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_stage_counts() {
        assert_eq!(Pipeline::adder(Precision::Double).stages, 6);
        assert_eq!(Pipeline::adder(Precision::Single).stages, 6);
        assert_eq!(Pipeline::multiplier(Precision::Double).stages, 7);
        assert_eq!(Pipeline::multiplier(Precision::Single).stages, 5);
    }

    #[test]
    fn vector_throughput_is_one_per_cycle() {
        let add = Pipeline::adder(Precision::Double);
        assert_eq!(add.vector_cycles(1), 6);
        assert_eq!(add.vector_cycles(128), 6 + 127);
        assert_eq!(add.vector_cycles(0), 0);
        // Long vectors approach 1 cycle/element → 8 MFLOPS per unit.
        let n = 1_000_000u64;
        let cycles = add.vector_cycles(n);
        let mflops = n as f64 / (cycles as f64 * CYCLE_NS as f64 * 1e-9) / 1e6;
        assert!((mflops - 8.0).abs() < 0.01, "{mflops}");
    }

    #[test]
    fn chained_saxpy_peak_is_16_mflops() {
        // SAXPY does 2 flops per element through the chained pipe.
        let mul = Pipeline::multiplier(Precision::Double);
        let add = Pipeline::adder(Precision::Double);
        let n = 1_000_000u64;
        let cycles = chained_vector_cycles(mul, add, n);
        assert_eq!(cycles, 13 + (n - 1));
        let mflops = (2 * n) as f64 / (cycles as f64 * CYCLE_NS as f64 * 1e-9) / 1e6;
        assert!((mflops - 16.0).abs() < 0.01, "{mflops}");
    }

    #[test]
    fn row_geometry() {
        assert_eq!(Precision::Double.elems_per_row(), 128);
        assert_eq!(Precision::Single.elems_per_row(), 256);
        assert_eq!(
            Precision::Double.bytes() * Precision::Double.elems_per_row(),
            1024
        );
        assert_eq!(
            Precision::Single.bytes() * Precision::Single.elems_per_row(),
            1024
        );
    }
}
