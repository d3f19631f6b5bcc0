//! Jacobi relaxation on the embedded 2-D mesh — the workload behind the
//! "meshes (up to dimension n)" entry of Figure 3.
//!
//! The machine's nodes form an s×s mesh (Gray-coded, dilation 1); each owns
//! a g×g tile of the global (s·g)×(s·g) grid. Every sweep exchanges halo
//! rows/columns with the (up to four) mesh neighbours — mesh faces have no
//! neighbour; the global boundary is held at zero — then relaxes
//! `u' = ¼·(((W + E) + N) + S)` in `Sf64` by the FPU's rules, issuing
//! the vector forms of that arithmetic over the tile ([`RELAX`]).

use std::future::Future;

use ts_cube::{embed::MeshEmbedding, Hypercube};
use ts_fpu::soft::row;
use ts_fpu::Sf64;
use ts_node::{f64s_of, occam, pack_f64s_into, NodeCtx};
use ts_vec::VecForm;

use crate::{run_spmd, KernelStats};

/// Jacobi's forms over a tile: the neighbour sums (three adds), then the
/// quarter.
pub const RELAX: [VecForm; 4] = {
    use VecForm::{VAdd, VSMul};
    [VAdd, VAdd, VAdd, VSMul(QUARTER)]
};

const QUARTER: Sf64 = Sf64::from_bits(0.25f64.to_bits());

/// A node's g×g tile of the 2-D mesh the grid kernels (Jacobi here, and
/// CG) distribute, with the cube dimension to each of its up to four mesh
/// neighbours — mesh faces have none; the global boundary is held at zero.
pub(crate) struct Tile {
    g: usize,
    /// West, east, north, south.
    dims: [Option<usize>; 4],
}

impl Tile {
    pub(crate) fn new(ctx: &NodeCtx, cube: Hypercube, g: usize) -> Tile {
        let half = cube.dim() / 2;
        let mesh = MeshEmbedding::new(cube, &[half, cube.dim() - half]);
        let me = ctx.id();
        let coords = mesh.coords_of(me);
        let neighbor = |axis: usize, forward: bool| -> Option<usize> {
            mesh.step(&coords, axis, forward)
                .map(|nc| cube.link_dim(me, mesh.node_at(&nc)))
        };
        Tile {
            g,
            dims: [
                neighbor(0, false),
                neighbor(0, true),
                neighbor(1, false),
                neighbor(1, true),
            ],
        }
    }

    /// The five-point stencil's neighbour sums on fresh halos: exchange
    /// `p`'s edge strips with every neighbour, then `((W + E) + N) + S` at
    /// every point, the three adds both grid kernels start with.
    pub(crate) async fn neighbour_sums(&self, ctx: &NodeCtx, p: &[Sf64]) -> Vec<Sf64> {
        let g = self.g;
        let col = |x: usize| -> Vec<Sf64> { (0..g).map(|y| p[y * g + x]).collect() };
        let row = |y: usize| -> Vec<Sf64> { p[y * g..(y + 1) * g].to_vec() };
        // One exchange per edge, all four in PAR (deadlock-free: every
        // edge has a send and a receive posted at once).
        let strips = [col(0), col(g - 1), row(0), row(g - 1)];
        let edges = (self.dims.into_iter().zip(strips)).filter_map(|(dim, strip)| {
            let (d, ctx, mut words) = (dim?, ctx.clone(), Vec::new());
            pack_f64s_into(&mut words, &strip);
            Some(async move { ctx.exchange(d, words, d).await })
        });
        let halos = occam::par_all(ctx.handle(), edges.collect()).await;
        let mut halos = halos.iter().map(|words| f64s_of(words).collect::<Vec<_>>());
        let [w_h, e_h, n_h, s_h] = self.dims.map(|d| d.and_then(|_| halos.next()));
        let halo =
            |h: &Option<Vec<Sf64>>, i: isize| h.as_ref().map_or(Sf64::ZERO, |h| h[i as usize]);
        let at = |x: isize, y: isize| -> Sf64 {
            if x < 0 {
                halo(&w_h, y)
            } else if x >= g as isize {
                halo(&e_h, y)
            } else if y < 0 {
                halo(&n_h, x)
            } else if y >= g as isize {
                halo(&s_h, x)
            } else {
                p[y as usize * g + x as usize]
            }
        };
        let side = |dx: isize, dy: isize| -> Vec<Sf64> {
            (0..g * g)
                .map(|i| at((i % g) as isize + dx, (i / g) as isize + dy))
                .collect()
        };
        let mut sums = side(-1, 0);
        for (dx, dy) in [(1, 0), (0, -1), (0, 1)] {
            row::add(&mut sums, &side(dx, dy));
        }
        sums
    }
}

/// The tiled-mesh driver behind the grid kernels: cut `grid`, the global
/// (s·g)-wide row-major grid, into each node's g×g tile, run `program` on
/// every node with its tile, and paste the tiles the nodes return back into
/// one grid. Also returns each node's second output, in node order.
pub(crate) fn on_tiles<X: 'static, Fut: Future<Output = (Vec<Sf64>, X)> + 'static>(
    machine: &mut t_series_core::Machine,
    kernel: &str,
    g: usize,
    grid: &[f64],
    program: impl Fn(NodeCtx, Vec<Sf64>) -> Fut,
) -> (Vec<f64>, Vec<X>, KernelStats) {
    let cube = machine.cube;
    let half = cube.dim() / 2;
    let mesh = MeshEmbedding::new(cube, &[half, cube.dim() - half]);
    let side_x = mesh.side(0) as usize * g;
    assert_eq!(grid.len(), side_x * mesh.side(1) as usize * g);
    // Where element i of node `id`'s tile sits in the grid.
    let place = |id: u32| {
        let c = mesh.coords_of(id);
        let corner = c[1] as usize * g * side_x + c[0] as usize * g;
        move |i: usize| corner + i / g * side_x + i % g
    };
    let (outs, stats) = run_spmd(machine, kernel, |ctx| {
        let at = place(ctx.id());
        program(ctx, (0..g * g).map(|i| Sf64::from(grid[at(i)])).collect())
    });
    let mut out = vec![0.0; grid.len()];
    let mut extras = Vec::with_capacity(outs.len());
    for (id, (tile, extra)) in outs.into_iter().enumerate() {
        let at = place(id as u32);
        for (i, v) in tile.into_iter().enumerate() {
            out[at(i)] = v.to_host();
        }
        extras.push(extra);
    }
    (out, extras, stats)
}

/// The per-node Jacobi program: `tile` is g×g row-major; runs `sweeps`
/// iterations and returns the final tile.
pub async fn jacobi_node(
    ctx: NodeCtx,
    cube: Hypercube,
    g: usize,
    mut tile: Vec<Sf64>,
    sweeps: usize,
) -> Vec<Sf64> {
    let geo = Tile::new(&ctx, cube, g);
    for _ in 0..sweeps {
        let sums = geo.neighbour_sums(&ctx, &tile).await;
        row::scale(QUARTER, &sums, &mut tile);
        ctx.wait(ctx.issue_forms(&RELAX, g * g)).await;
    }
    tile
}

/// Host driver: run `sweeps` Jacobi iterations over an initial global grid
/// (side = s·g); returns the final grid and stats.
pub fn distributed_jacobi(
    machine: &mut t_series_core::Machine,
    g: usize,
    sweeps: usize,
    init: &[f64],
) -> (Vec<f64>, KernelStats) {
    let cube = machine.cube;
    let (out, _, stats) = on_tiles(machine, "Jacobi", g, init, |ctx, tile| async move {
        (jacobi_node(ctx, cube, g, tile, sweeps).await, ())
    });
    (out, stats)
}

/// Host reference: the same sweeps on the full grid (zero boundary).
pub fn reference_jacobi(width: usize, height: usize, sweeps: usize, init: &[f64]) -> Vec<f64> {
    let mut cur = init.to_vec();
    for _ in 0..sweeps {
        let sums = host_neighbour_sums(width, height, &cur);
        cur = sums.iter().map(|sum| 0.25 * sum).collect();
    }
    cur
}

/// The host's `((W + E) + N) + S` at every point of a `width × height`
/// row-major grid with a zero boundary.
pub(crate) fn host_neighbour_sums(width: usize, height: usize, grid: &[f64]) -> Vec<f64> {
    let at = |x: isize, y: isize| -> f64 {
        if x < 0 || y < 0 || x >= width as isize || y >= height as isize {
            0.0
        } else {
            grid[y as usize * width + x as usize]
        }
    };
    let sum = |x: isize, y: isize| at(x - 1, y) + at(x + 1, y) + at(x, y - 1) + at(x, y + 1);
    let xy = |i: usize| ((i % width) as isize, (i / width) as isize);
    (0..width * height).map(|i| sum(xy(i).0, xy(i).1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand_f64;
    use t_series_core::{Machine, MachineCfg};

    fn check(dim: u32, g: usize, sweeps: usize) -> KernelStats {
        let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
        let half = dim / 2;
        let (sx, sy) = (1usize << half, 1usize << (dim - half));
        let mut st = 5u64;
        let init: Vec<f64> = (0..sx * g * sy * g).map(|_| rand_f64(&mut st)).collect();
        let (got, stats) = distributed_jacobi(&mut m, g, sweeps, &init);
        let want = reference_jacobi(sx * g, sy * g, sweeps, &init);
        for (i, (&a, &b)) in got.iter().zip(&want).enumerate() {
            assert!((a - b).abs() < 1e-12, "grid[{i}] = {a}, want {b}");
        }
        stats
    }

    #[test]
    fn jacobi_single_node() {
        check(0, 8, 3);
    }

    #[test]
    fn jacobi_on_a_line() {
        check(1, 4, 4);
    }

    #[test]
    fn jacobi_on_a_square() {
        let stats = check(2, 4, 5);
        assert!(stats.bytes_sent > 0);
    }

    #[test]
    fn jacobi_on_an_8_node_rectangle() {
        check(3, 4, 3);
    }

    #[test]
    fn sweep_timing_is_pinned() {
        // The halo exchange's schedule, to the picosecond: three sweeps of
        // g = 8 tiles, the same on a square and on a 4-cube's 4 × 4 mesh,
        // and the simulator's timer events per machine.
        for (dim, events) in [(2u32, 60u64), (4, 336)] {
            let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
            let init: Vec<f64> = (0..64 << dim).map(|i| (i % 7) as f64).collect();
            let (_, stats) = distributed_jacobi(&mut m, 8, 3, &init);
            assert_eq!(stats.elapsed.as_ps(), 518_775_000, "dim {dim}");
            assert_eq!(m.profile().timer_events, events, "dim {dim}");
        }
    }

    #[test]
    fn a_subnormal_quarter_flushes_to_zero() {
        // §II: the FPU flushes subnormal results to zero. One point of
        // 2⁻¹⁰²¹ (normal): its neighbours' quarter of it, 2⁻¹⁰²³, is
        // subnormal, which host IEEE keeps and the node flushes.
        let mut m = Machine::build(MachineCfg::cube_small_mem(0, 8));
        let mut init = vec![0.0; 64];
        init[27] = f64::from_bits(2 << 52);
        let host = reference_jacobi(8, 8, 1, &init);
        assert_eq!(host[26].to_bits(), 1 << 51, "host IEEE keeps 2⁻¹⁰²³");
        let (got, _) = distributed_jacobi(&mut m, 8, 1, &init);
        assert!(got.iter().all(|v| v.to_bits() == 0), "{got:?}");
    }

    #[test]
    fn zero_boundary_decays_constant_field() {
        // A constant field with zero boundary must decay monotonically.
        let mut m = Machine::build(MachineCfg::cube_small_mem(2, 8));
        let g = 4;
        let init = vec![1.0; 8 * 8];
        let (out, _) = distributed_jacobi(&mut m, g, 10, &init);
        let max = out.iter().cloned().fold(0.0f64, f64::max);
        assert!(max < 1.0);
    }
}
