//! Seeded allreduce contributions with exact closed-form sums, shared by
//! the three workloads that check collectives on every node.
//!
//! Contributions are integers below a small prime, so every partial sum is
//! an exact integer in `f64` and the closed form holds bit-for-bit in any
//! add order — whatever tree the dimension exchange happens to build.

use fps_t_series::fpu::Sf64;
use fps_t_series::sim::Rng;

/// Values per allreduce.
pub const AR_VALUES: usize = 4;
const MODULUS: u64 = 1021;

/// Node `id` contributes `(id·a + round·b + c) mod 1021` per value; plain
/// `Copy` data, so a sharded run can hand it to every thread.
#[derive(Clone, Copy)]
pub struct Contributions {
    coef: [(u64, u64, u64); AR_VALUES],
}

impl Contributions {
    /// Draw the coefficients.
    pub fn generate(rng: &mut Rng) -> Contributions {
        Contributions {
            coef: std::array::from_fn(|_| {
                (
                    1 + rng.below(MODULUS - 1),
                    rng.below(MODULUS),
                    rng.below(MODULUS),
                )
            }),
        }
    }

    fn term(&(a, b, c): &(u64, u64, u64), id: u64, round: u64) -> u64 {
        (id * a + round * b + c) % MODULUS
    }

    /// What node `id` contributes in `round`.
    pub fn of(&self, id: u32, round: u32) -> Vec<Sf64> {
        self.coef
            .iter()
            .map(|k| Sf64::from(Contributions::term(k, id as u64, round as u64) as f64))
            .collect()
    }

    /// What every node must hold after `round`'s allreduce over `nodes`.
    pub fn sums(&self, nodes: u32, round: u32) -> [f64; AR_VALUES] {
        self.coef.map(|k| {
            (0..nodes as u64)
                .map(|id| Contributions::term(&k, id, round as u64))
                .sum::<u64>() as f64
        })
    }
}
