//! Jacobi relaxation on the embedded 2-D mesh — the workload behind the
//! "meshes (up to dimension n)" entry of Figure 3.
//!
//! The machine's nodes form an s×s mesh (Gray-coded, dilation 1); each owns
//! a g×g tile of the global (s·g)×(s·g) grid. Every sweep exchanges halo
//! rows/columns with the (up to four) mesh neighbours — mesh faces have no
//! neighbour; the global boundary is held at zero — then relaxes
//! `u' = ¼(N+S+E+W)`, charging the vector units 4 flops per interior
//! point. Numerics use host `f64` values carried through `Sf64` storage.

use std::future::Future;

use ts_cube::{embed::MeshEmbedding, Hypercube};
use ts_node::{occam, NodeCtx};

use crate::{pack, run_spmd, unpack, KernelStats};

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

    /// The five-point stencil on fresh halos: exchange `p`'s edge strips
    /// with every neighbour, then `out[i] = f(p[i], W + E + N + S)`.
    pub(crate) async fn five_point(
        &self,
        ctx: &NodeCtx,
        p: &[f64],
        f: impl Fn(f64, f64) -> f64,
    ) -> Vec<f64> {
        let g = self.g;
        let col = |x: usize| -> Vec<f64> { (0..g).map(|y| p[y * g + x]).collect() };
        let row = |y: usize| -> Vec<f64> { p[y * g..(y + 1) * g].to_vec() };
        // One exchange per edge, all four in PAR (deadlock-free: every
        // edge has a send and a receive posted at once).
        let strips = [col(0), col(g - 1), row(0), row(g - 1)];
        let edges = (self.dims.into_iter().zip(strips)).filter_map(|(dim, strip)| {
            let (d, ctx, words) = (dim?, ctx.clone(), pack(&strip));
            Some(async move { ctx.exchange(d, words, d).await })
        });
        let halos = occam::par_all(ctx.handle(), edges.collect()).await;
        let mut halos = halos.iter().map(|words| unpack(words));
        let [w_h, e_h, n_h, s_h] = self.dims.map(|d| d.and_then(|_| halos.next()));
        let at = |x: isize, y: isize| -> f64 {
            if x < 0 {
                w_h.as_ref().map_or(0.0, |h| h[y as usize])
            } else if x >= g as isize {
                e_h.as_ref().map_or(0.0, |h| h[y as usize])
            } else if y < 0 {
                n_h.as_ref().map_or(0.0, |h| h[x as usize])
            } else if y >= g as isize {
                s_h.as_ref().map_or(0.0, |h| h[x as usize])
            } else {
                p[y as usize * g + x as usize]
            }
        };
        let mut out = vec![0.0; g * g];
        for y in 0..g as isize {
            for x in 0..g as isize {
                let sum = at(x - 1, y) + at(x + 1, y) + at(x, y - 1) + at(x, y + 1);
                let i = y as usize * g + x as usize;
                out[i] = f(p[i], sum);
            }
        }
        out
    }
}

/// The tiled-mesh driver behind the grid kernels: cut `grid`, the global
/// (s·g)-wide row-major grid, into each node's g×g tile, run `program` on
/// every node with its tile, and paste the tiles the nodes return back into
/// one grid. Also returns each node's second output, in node order.
pub(crate) fn on_tiles<X: 'static, Fut: Future<Output = (Vec<f64>, X)> + 'static>(
    machine: &mut t_series_core::Machine,
    kernel: &str,
    g: usize,
    grid: &[f64],
    program: impl Fn(NodeCtx, Vec<f64>) -> Fut,
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
        program(ctx, (0..g * g).map(|i| grid[at(i)]).collect())
    });
    let mut out = vec![0.0; grid.len()];
    let mut extras = Vec::with_capacity(outs.len());
    for (id, (tile, extra)) in outs.into_iter().enumerate() {
        let at = place(id as u32);
        for (i, v) in tile.into_iter().enumerate() {
            out[at(i)] = v;
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
    mut tile: Vec<f64>,
    sweeps: usize,
) -> Vec<f64> {
    let geo = Tile::new(&ctx, cube, g);
    for _ in 0..sweeps {
        tile = geo.five_point(&ctx, &tile, |_, sum| 0.25 * sum).await;
        ctx.charge_vec_flops(4 * (g * g) as u64).await;
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
    let at = |g: &[f64], x: isize, y: isize| -> f64 {
        if x < 0 || y < 0 || x >= width as isize || y >= height as isize {
            0.0
        } else {
            g[y as usize * width + x as usize]
        }
    };
    for _ in 0..sweeps {
        let mut next = vec![0.0; cur.len()];
        for y in 0..height as isize {
            for x in 0..width as isize {
                next[y as usize * width + x as usize] = 0.25
                    * (at(&cur, x - 1, y)
                        + at(&cur, x + 1, y)
                        + at(&cur, x, y - 1)
                        + at(&cur, x, y + 1));
            }
        }
        cur = next;
    }
    cur
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
            assert_eq!(stats.elapsed.as_ps(), 455_475_000, "dim {dim}");
            assert_eq!(m.profile().timer_events, events, "dim {dim}");
        }
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
