//! All-pairs N-body on the embedded ring — the concurrent-processor
//! workload of Fox & Otto, whom the paper cites (refs. 3 and 4) as the
//! algorithmic foundation for machines of this class.
//!
//! Bodies are split evenly over the 2ⁿ nodes arranged as the Gray-code
//! ring (Figure 3). A travelling buffer of bodies circulates the ring for
//! p−1 steps; at each step every node accumulates the forces its resident
//! bodies feel from the visitors, then passes the buffer to its ring
//! successor (one physical hop, dilation 1). Communication is perfectly
//! balanced: every link carries the same traffic at the same time.
//!
//! Forces use a Plummer-softened inverse square law, in `Sf64` by the
//! FPU's rules. Each resident issues its pairs' arithmetic as vector forms
//! over the visitor vector ([`PAIR`]): the r⁻³ factor needs the node's
//! *software* square root and reciprocal (no divider!), so a pair costs
//! far more than the naive flop count — an honest accounting of 1986 node
//! arithmetic.

use ts_cube::{embed::RingEmbedding, Hypercube};
use ts_fpu::{softdiv, Sf64};
use ts_node::NodeCtx;
use ts_sim::Time;
use ts_vec::VecForm;

use crate::{pack, rand_f64, run_spmd, unpack, KernelStats};

/// A point mass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Body {
    /// Position.
    pub x: f64,
    /// Position.
    pub y: f64,
    /// Mass.
    pub m: f64,
}

/// Softening length (Plummer) keeping close encounters finite.
pub const SOFTENING: f64 = 1e-3;

/// The forms of one resident's pairs, each over the visitor vector: the
/// differences, `r² = (dx² + dy²) + ε²`, `1/√r²` by [`VecForm::SQRT`] and
/// [`VecForm::RECIP`], `f = m·M·r⁻¹·r⁻¹·r⁻¹` and the force components
/// `Σ f·dx`, `Σ f·dy`. (A scalar operand is the resident's coordinate or
/// mass; a form's time does not depend on it.)
pub const PAIR: [&[VecForm]; 4] = {
    use VecForm::{Dot, VAdd, VMul, VSAdd, VSMul};
    let zero = Sf64::ZERO;
    [
        &[VSAdd(zero), VSAdd(zero), VMul, VMul, VAdd, VSAdd(zero)],
        &VecForm::SQRT,
        &VecForm::RECIP,
        &[VSMul(zero), VMul, VMul, VMul, Dot, Dot],
    ]
};

/// Add to each resident's force what `visitors` exert on it.
fn accumulate(residents: &[Body], visitors: &[Body], forces: &mut [(Sf64, Sf64)]) {
    let eps2 = Sf64::from(SOFTENING * SOFTENING);
    for (r, force) in residents.iter().zip(forces) {
        let [rx, ry, rm] = [r.x, r.y, r.m].map(Sf64::from);
        for v in visitors {
            let [vx, vy, vm] = [v.x, v.y, v.m].map(Sf64::from);
            let (dx, dy) = (vx - rx, vy - ry);
            let inv_r = softdiv::recip(softdiv::sqrt(dx * dx + dy * dy + eps2));
            let f = rm * vm * inv_r * inv_r * inv_r;
            *force = (force.0 + f * dx, force.1 + f * dy);
        }
    }
}

/// [`PAIR`] over `visitors` elements for each of `residents`, as one chain.
fn issue_pairs(ctx: &NodeCtx, residents: usize, visitors: usize) -> Time {
    let mut done = ctx.now();
    for forms in (0..residents).flat_map(|_| PAIR) {
        done = ctx.issue_forms(forms, visitors);
    }
    done
}

/// The per-node program: returns the total force on each resident body.
pub async fn nbody_node(ctx: NodeCtx, cube: Hypercube, residents: Vec<Body>) -> Vec<(f64, f64)> {
    let ring = RingEmbedding::new(cube);
    let me = ctx.id();
    let nl = residents.len();

    let mut forces = vec![(Sf64::ZERO, Sf64::ZERO); nl];
    // Self-interactions (excluding each body with itself).
    for i in 0..nl {
        let mut others = residents.clone();
        others.swap_remove(i);
        accumulate(&residents[i..=i], &others, &mut forces[i..=i]);
    }
    ctx.wait(issue_pairs(&ctx, nl, nl.saturating_sub(1))).await;

    // Circulate the visitor buffer p−1 steps around the ring (a ring of
    // one node has no link to cross).
    let mut visitors = residents.clone();
    for _ in 1..cube.nodes() {
        let words = pack(visitors.iter().flat_map(|b| [&b.x, &b.y, &b.m]));
        let [send, recv] = [ring.next(me), ring.prev(me)].map(|nb| cube.link_dim(me, nb));
        let incoming = ctx.exchange(send, words, recv).await;
        visitors = unpack(&incoming)
            .chunks_exact(3)
            .map(|v| Body {
                x: v[0],
                y: v[1],
                m: v[2],
            })
            .collect();
        accumulate(&residents, &visitors, &mut forces);
        ctx.wait(issue_pairs(&ctx, nl, visitors.len())).await;
    }
    forces
        .into_iter()
        .map(|(x, y)| (x.into(), y.into()))
        .collect()
}

/// Host driver: total forces for `total` random bodies; returns
/// `(bodies, forces, stats)` in global order.
pub fn distributed_nbody(
    machine: &mut t_series_core::Machine,
    total: usize,
    seed: u64,
) -> (Vec<Body>, Vec<(f64, f64)>, KernelStats) {
    let cube = machine.cube;
    let p = cube.nodes() as usize;
    assert!(total.is_multiple_of(p));
    let nl = total / p;
    let mut st = seed;
    let bodies: Vec<Body> = (0..total)
        .map(|_| Body {
            x: rand_f64(&mut st) * 10.0,
            y: rand_f64(&mut st) * 10.0,
            m: rand_f64(&mut st).abs() + 0.1,
        })
        .collect();

    let (forces, stats) = run_spmd(machine, "n-body", |ctx| {
        let lo = ctx.id() as usize * nl;
        nbody_node(ctx, cube, bodies[lo..lo + nl].to_vec())
    });
    (bodies, forces.concat(), stats)
}

/// Host reference: direct all-pairs summation.
pub fn reference_forces(bodies: &[Body]) -> Vec<(f64, f64)> {
    let mut out = vec![(0.0, 0.0); bodies.len()];
    for (i, r) in bodies.iter().enumerate() {
        for (j, v) in bodies.iter().enumerate() {
            if i == j {
                continue;
            }
            let dx = v.x - r.x;
            let dy = v.y - r.y;
            let r2 = dx * dx + dy * dy + SOFTENING * SOFTENING;
            let inv_r = 1.0 / r2.sqrt();
            let f = r.m * v.m * inv_r * inv_r * inv_r;
            out[i].0 += f * dx;
            out[i].1 += f * dy;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use t_series_core::{Machine, MachineCfg};

    fn check(dim: u32, total: usize) -> KernelStats {
        let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
        let (bodies, forces, stats) = distributed_nbody(&mut m, total, 2718);
        let want = reference_forces(&bodies);
        for (i, ((gx, gy), (wx, wy))) in forces.iter().zip(&want).enumerate() {
            // Summation order differs between the ring schedule and the
            // reference loop; allow float reassociation noise.
            assert!(
                (gx - wx).abs() < 1e-9 && (gy - wy).abs() < 1e-9,
                "force[{i}] = ({gx},{gy}), want ({wx},{wy})"
            );
        }
        stats
    }

    #[test]
    fn nbody_single_node() {
        check(0, 16);
    }

    #[test]
    fn nbody_on_a_square() {
        let stats = check(2, 32);
        assert!(stats.bytes_sent > 0);
    }

    #[test]
    fn nbody_on_a_cube() {
        // 8 nodes: the buffer makes 7 hops; traffic is balanced.
        let stats = check(3, 32);
        // Every node sends its 4-body buffer (24 words + ...) 7 times.
        assert_eq!(stats.bytes_sent, 8 * 7 * 4 * 6 * 4);
    }

    #[test]
    fn ring_steps_are_single_hops() {
        // The schedule's communication partner is always one physical hop.
        let cube = ts_cube::Hypercube::new(4);
        let ring = ts_cube::embed::RingEmbedding::new(cube);
        for node in cube.iter() {
            assert_eq!(cube.distance(node, ring.next(node)), 1);
        }
    }

    #[test]
    fn softened_forces_are_finite_for_coincident_bodies() {
        let bodies = vec![
            Body {
                x: 1.0,
                y: 1.0,
                m: 1.0,
            },
            Body {
                x: 1.0,
                y: 1.0,
                m: 2.0,
            },
        ];
        let f = reference_forces(&bodies);
        assert!(f[0].0.is_finite() && f[0].1.is_finite());
    }
}
