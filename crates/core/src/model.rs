//! Closed-form performance models, cross-validated against the simulator.
//!
//! The architecture is simple enough (fixed link rate, fixed DMA startup,
//! deterministic schedules) that collective costs have LogP-style closed
//! forms. This module states them and the tests check the *simulator*
//! against them — a second, independent derivation of every timing the
//! benches report. Where the two disagree by more than the stated slack,
//! one of them is wrong.
//!
//! Symbols: `o` = DMA startup (5 µs), `w` = wire time per 32-bit word
//! (8 µs at 0.5 MB/s), `n` = cube dimension, `m` = message words.

use ts_link::LinkParams;
use ts_mem::ROW_WORDS;
use ts_sim::Dur;

/// The model's machine constants (derived from [`LinkParams`]).
#[derive(Clone, Copy, Debug)]
pub struct NetModel {
    /// DMA startup per message.
    pub o: Dur,
    /// Wire occupancy per 32-bit word.
    pub w: Dur,
}

impl Default for NetModel {
    fn default() -> Self {
        NetModel::from_params(LinkParams::default())
    }
}

impl NetModel {
    /// Derive the model from link parameters.
    pub fn from_params(p: LinkParams) -> NetModel {
        NetModel {
            o: p.dma_startup,
            w: p.wire_time(4),
        }
    }

    /// One point-to-point message of `m` words between neighbours:
    /// `o + m·w`.
    pub fn p2p(&self, m: usize) -> Dur {
        self.o + self.w * m as u64
    }

    /// Unpipelined binomial broadcast of `m` words on an `n`-cube:
    /// the critical path is `n` successive neighbour messages —
    /// `n · (o + m·w)`.
    pub fn broadcast(&self, n: u32, m: usize) -> Dur {
        self.p2p(m) * n as u64
    }

    /// Dimension-exchange all-reduce of `m` f64 values (2m words) on an
    /// `n`-cube, ignoring the (overlapped-ish) combine cost:
    /// `n · (o + 2m·w)`.
    pub fn allreduce(&self, n: u32, m_f64: usize) -> Dur {
        self.p2p(2 * m_f64) * n as u64
    }

    /// Dimension-exchange max-loc of one `(f64, index)` pair (3 words: the
    /// value's two halves and the index) on an `n`-cube, every node ending
    /// with the winner — LU's pivot vote: `n · (o + 3w)`.
    pub fn max_loc(&self, n: u32) -> Dur {
        self.p2p(3) * n as u64
    }

    /// One step of LU's communication on a `2^dr × 2^dc` process grid, from
    /// the pivot candidates on: the max-loc vote down the pivot's process
    /// column, its row index along each process row, then at once, on
    /// disjoint links, the `rows` multipliers along the process rows and
    /// the pivot row's `cols` trailing values down the process columns
    /// (64-bit values, two words each; nothing to send moves nothing) —
    /// `max_loc(dr) + broadcast(dc, 1) + max(broadcast_striped(dc, 2·rows),
    /// broadcast_striped(dr, 2·cols))`.
    pub fn lu_step(&self, dr: u32, dc: u32, rows: usize, cols: usize) -> Dur {
        let l = self.broadcast_striped(dc, 2 * rows);
        let u = self.broadcast_striped(dr, 2 * cols);
        self.max_loc(dr) + self.broadcast(dc, 1) + l.max(u)
    }

    /// Pipelined broadcast down the n edge-disjoint spanning binomial trees
    /// ([`collectives::broadcast_striped`](crate::collectives::broadcast_striped)):
    /// stripe t of the `m` words (⌈m/n⌉ at most) streams down tree t in `P`
    /// pieces ([`NetModel::broadcast_pieces`]). No link carries two trees,
    /// so the n pipelines run side by side, one piece a step; the last
    /// piece leaves the root at step `P` and is n + 1 hops deep —
    /// `(P + n)·(o + ⌈m/(nP)⌉·w)`, and `P·(o + ⌈m/P⌉·w)` on a 1-cube,
    /// whose one tree is one hop deep. Exact while every dimension has a
    /// link to itself (n ≤ 4, one cabinet); beyond that dimensions `d` and
    /// `d + 4` share one and the form is a lower bound. An empty payload
    /// moves nothing and costs nothing.
    pub fn broadcast_striped(&self, n: u32, m: usize) -> Dur {
        self.striped_at(n, m, self.broadcast_pieces(n, m))
    }

    /// Pieces per stripe of [`NetModel::broadcast_striped`]: the `P` in
    /// `1..=2n` its closed form is least at, the fewest on a tie. At
    /// `P = 2n` the pipeline's fill, n steps, is a third of it, and every
    /// further piece a stripe is n·(2ⁿ − 1) more messages.
    pub fn broadcast_pieces(&self, n: u32, m: usize) -> usize {
        (1..=2 * n.max(1) as usize)
            .min_by_key(|&pieces| self.striped_at(n, m, pieces))
            .expect("at least one piece")
    }

    /// [`NetModel::broadcast_striped`] at `pieces` pieces per stripe.
    fn striped_at(&self, n: u32, m: usize, pieces: usize) -> Dur {
        // Hops after the first: a tree is n + 1 deep, 1 on a 1-cube.
        let hops = match (n, m) {
            (0, _) | (_, 0) => return Dur::ZERO,
            (1, _) => 0,
            _ => n as u64,
        };
        self.p2p(m.div_ceil(n as usize * pieces)) * (pieces as u64 + hops)
    }

    /// `n` successive dimension exchanges of `m` words run as a pipeline of
    /// `pieces` (stage k works on piece i while stage k+1 has piece i−1,
    /// each stage on its own link): `(pieces + n − 1) · (o + ⌈m/pieces⌉·w)`.
    pub fn pipelined_exchange(&self, n: u32, m: usize, pieces: usize) -> Dur {
        self.p2p(m.div_ceil(pieces)) * (pieces as u64 + n as u64 - 1)
    }

    /// The piece length (words) that minimises [`NetModel::pipelined_exchange`]:
    /// `√(m·o / ((n−1)·w))`; the whole message when there is one stage.
    pub fn pipeline_piece_words(&self, n: u32, m: usize) -> usize {
        if n <= 1 {
            return m;
        }
        let ideal = m as f64 * self.o.as_secs_f64() / ((n - 1) as f64 * self.w.as_secs_f64());
        (ideal.sqrt().ceil() as usize).clamp(1, m.max(1))
    }

    /// One `b × b` Cannon block moved `k` positions round a ring of `s`,
    /// as [`panels`] one-row panels split as [`ring_split`] cuts them: each
    /// panel crosses its way's hops store-and-forward and the panels of one
    /// way follow each other, the short way's `short` hops carrying
    /// `P − L` panels and the long way's `s − short` hops `L`, both at once
    /// — `max(short·(P−L), (s−short)·L) · p2p(2b²/P)`.
    pub fn torus_move(&self, s: u32, k: u32, b: usize) -> Dur {
        let p = panels(b);
        let (short, long) = ring_split(s, k, p);
        let rounds = (short as usize * (p - long)).max((s - short) as usize * long);
        self.p2p(2 * b * b / p) * rounds as u64
    }

    /// Cannon on an `s × s` torus with `b × b` blocks that stream
    /// ([`NetModel::torus_move`]) while the GEMM multiplies each panel as it
    /// lands: the skew (both matrices at once; the slowest ring sets it),
    /// then `s − 1` steps of `max(gemm, move(1))` — both moves fly while
    /// the GEMM runs — and the last panel's share of the last GEMM:
    /// `max over k of move(k) + (s−1)·max(gemm, move(1)) + gemm/P`.
    pub fn cannon(&self, s: u32, b: usize, gemm: Dur) -> Dur {
        let skew = (0..s).fold(Dur::ZERO, |a, k| a.max(self.torus_move(s, k, b)));
        skew + self.torus_move(s, 1, b).max(gemm) * (s as u64 - 1) + gemm / panels(b) as u64
    }

    /// E-cube routed message over `h` hops, store-and-forward:
    /// `h · (o + m·w)` plus per-hop routing decisions charged elsewhere.
    pub fn routed(&self, h: u32, m: usize) -> Dur {
        self.p2p(m) * h as u64
    }

    /// All-to-all personalized exchange (hypercube transpose schedule):
    /// `n` steps each moving half the local data `D` (words):
    /// `n · (o + (D/2)·w)`.
    pub fn all_to_all(&self, n: u32, local_words: usize) -> Dur {
        self.p2p(local_words / 2) * n as u64
    }
}

/// k-slices per panel of a `b × b` Cannon block. A k-slice — a column of
/// A or a row of B — is `b` values, `2b` words; a panel is as many whole
/// slices as fill one memory row (the unit the link DMA streams), or one
/// slice when a slice is longer. So a block under one row is one panel.
pub fn panel_slices(b: usize) -> usize {
    (ROW_WORDS / (2 * b).max(1)).clamp(1, b.max(1))
}

/// Panels a `b × b` Cannon block moves as (the last one ragged when
/// [`panel_slices`] does not divide `b`).
pub fn panels(b: usize) -> usize {
    b.div_ceil(panel_slices(b))
}

/// How `p` panels of a block moved `k` positions round a ring of `s` divide
/// between the ring's two ways: `(short, long)`, the short way's hop count
/// `min(k, s − k)` and the panels the long way (`s − short` hops) carries.
/// That is `p·short/s` rounded down, so both directions of the ring carry
/// the same load; it is zero — one path, the short way — for a ring of
/// two, where both ways are one link, or when it would be under one panel.
pub fn ring_split(s: u32, k: u32, p: usize) -> (u32, usize) {
    let short = k.min(s - k);
    let long = if s <= 2 {
        0
    } else {
        p * short as usize / s as usize
    };
    (short, long)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{collectives, Machine, MachineCfg};
    use ts_fpu::Sf64;
    use ts_node::CombineOp;

    fn within(measured: Dur, predicted: Dur, slack: f64) -> bool {
        let m = measured.as_secs_f64();
        let p = predicted.as_secs_f64();
        (m - p).abs() <= p * slack
    }

    #[test]
    fn constants_from_link_params() {
        let net = NetModel::default();
        assert_eq!(net.o, Dur::us(5));
        assert_eq!(net.w, Dur::us(8));
        assert_eq!(net.p2p(64), Dur::us(5 + 512));
    }

    #[test]
    fn broadcast_matches_model() {
        let net = NetModel::default();
        for (dim, words) in [(2u32, 64usize), (3, 64), (4, 256), (5, 16)] {
            let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
            let cube = m.cube;
            m.launch(move |ctx| async move {
                let data = (ctx.id() == 0).then(|| vec![0u32; words]);
                collectives::broadcast(&ctx, cube, 0, data).await;
            });
            assert!(m.run().quiescent);
            let measured = m.now().since(ts_sim::Time::ZERO);
            let predicted = net.broadcast(dim, words);
            assert!(
                within(measured, predicted, 0.05),
                "broadcast dim {dim}, {words}w: measured {measured}, model {predicted}"
            );
        }
    }

    #[test]
    fn striped_broadcast_matches_model() {
        let net = NetModel::default();
        for dim in 1..=4u32 {
            for words in [0usize, 7, 64, 250, 256] {
                for root in [1, (1u32 << dim) - 1] {
                    let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
                    let cube = m.cube;
                    m.launch(move |ctx| async move {
                        let data = (ctx.id() == root).then(|| vec![0u32; words]);
                        collectives::broadcast_striped(&ctx, cube, root, words, data).await;
                    });
                    assert!(m.run().quiescent);
                    let measured = m.now().since(ts_sim::Time::ZERO);
                    let predicted = net.broadcast_striped(dim, words);
                    assert!(
                        within(measured, predicted, 0.05),
                        "striped broadcast dim {dim}, {words}w, root {root}: \
                         measured {measured}, model {predicted}"
                    );
                }
            }
        }
        // An empty payload costs nothing on any cube.
        for dim in 0..=7 {
            assert_eq!(net.broadcast_striped(dim, 0), Dur::ZERO, "dim {dim}");
        }
        // A long row streams in 2n pieces a stripe; a word a stripe in one.
        assert_eq!(net.broadcast_pieces(4, 256), 8);
        assert_eq!(net.broadcast_pieces(4, 4), 1);
    }

    #[test]
    fn striped_broadcast_on_shared_links_stays_between_the_bounds() {
        // Five dimensions on four links: dims 0 and 4 share one, so the
        // closed form is a floor — and the plain tree still the ceiling.
        let net = NetModel::default();
        let mut m = Machine::build(MachineCfg::cube_small_mem(5, 8));
        let cube = m.cube;
        m.launch(move |ctx| async move {
            let data = (ctx.id() == 0).then(|| vec![0u32; 320]);
            collectives::broadcast_striped(&ctx, cube, 0, 320, data).await;
        });
        assert!(m.run().quiescent);
        let measured = m.now().since(ts_sim::Time::ZERO);
        assert!(measured >= net.broadcast_striped(5, 320));
        assert!(measured < net.broadcast(5, 320) / 2);
    }

    #[test]
    fn pipeline_piece_minimises_the_closed_form() {
        let net = NetModel::default();
        let (n, m) = (4u32, 65_536usize);
        let best = net.pipeline_piece_words(n, m);
        let at = |piece: usize| net.pipelined_exchange(n, m, m.div_ceil(piece));
        assert!(at(best) <= at(best / 2) && at(best) <= at(best * 2));
        assert!(
            at(best) < net.p2p(m) * n as u64 * 3 / 10,
            "≈ one exchange, not four"
        );
        assert_eq!(
            net.pipeline_piece_words(1, m),
            m,
            "one stage: nothing to pipeline"
        );
        assert_eq!(net.pipelined_exchange(3, 100, 1), net.p2p(100) * 3);
    }

    #[test]
    fn allreduce_close_to_model() {
        // The combine (vector-unit) time is not in the model; allow slack
        // that shrinks as messages grow.
        let net = NetModel::default();
        for (dim, m_f64) in [(3u32, 128usize), (4, 256)] {
            let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
            let cube = m.cube;
            m.launch(move |ctx| async move {
                let mine = vec![Sf64::from(1.0); m_f64];
                collectives::allreduce(&ctx, cube, CombineOp::Add, mine).await;
            });
            assert!(m.run().quiescent);
            let measured = m.now().since(ts_sim::Time::ZERO);
            let predicted = net.allreduce(dim, m_f64);
            assert!(
                measured >= predicted,
                "simulation can't beat the lower bound: {measured} vs {predicted}"
            );
            assert!(
                within(measured, predicted, 0.25),
                "allreduce dim {dim}, {m_f64} f64: measured {measured}, model {predicted}"
            );
        }
    }

    #[test]
    fn routed_message_matches_model() {
        use crate::router::Router;
        let net = NetModel::default();
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        let router = Router::start(&m);
        let h0 = router.handle(0);
        let h7 = router.handle(7);
        let jh = m.handle().spawn(async move {
            let t0 = h7.ctx().now();
            h0.send_to(7, vec![0u32; 59]).await.unwrap(); // 59 + 5 header = 64 words
            h7.recv().await;
            let dt = h7.ctx().now().since(t0);
            router.shutdown().await;
            dt
        });
        assert!(m.run().quiescent);
        let measured = jh.try_take().unwrap();
        let predicted = net.routed(3, 64);
        // Router adds CP routing charges and the loopback hop; allow 10%.
        assert!(
            within(measured, predicted, 0.10),
            "routed 3 hops: measured {measured}, model {predicted}"
        );
    }

    #[test]
    fn lu_step_is_built_from_the_vote_and_the_broadcasts() {
        // The kernels crate's LU tests check it against a one-step probe;
        // here the closed form itself: 16 nodes, 32 rows and columns a node.
        let net = NetModel::default();
        let stripe = net.broadcast_striped(2, 64);
        assert_eq!(
            net.lu_step(2, 2, 32, 32),
            Dur::us(2 * 29) + Dur::us(2 * 13) + stripe
        );
        assert_eq!(net.lu_step(2, 2, 32, 0), net.lu_step(2, 2, 32, 32));
        assert_eq!(net.lu_step(2, 2, 0, 32), net.lu_step(2, 2, 32, 32));
        assert_eq!(net.lu_step(2, 2, 0, 0), Dur::us(2 * 29 + 2 * 13));
        assert_eq!(
            net.lu_step(2, 3, 0, 5),
            net.lu_step(2, 3, 0, 0) + net.broadcast_striped(2, 10)
        );
        assert_eq!(
            net.lu_step(2, 3, 5, 0),
            net.lu_step(2, 3, 0, 0) + net.broadcast_striped(3, 10)
        );
        assert_eq!(
            net.lu_step(0, 0, 5, 5),
            Dur::ZERO,
            "one node talks to no one"
        );
    }

    #[test]
    fn all_to_all_closed_form() {
        // The kernels crate's transpose test pins the measured traffic;
        // here we pin the closed form itself.
        let net = NetModel::default();
        let t = net.all_to_all(3, 320);
        assert_eq!(t, (Dur::us(5) + Dur::us(8) * 160) * 3);
    }
}
