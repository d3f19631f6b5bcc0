//! The communication schedules of the three dense kernels (Cannon matmul,
//! butterfly FFT, LU) may be rearranged freely — every link and the vector
//! unit busy at once — but not their arithmetic. This file pins:
//!
//! * **outputs**: FNV digests of C, the spectrum and the LU rows, taken at
//!   the commit *before* the schedules were overlapped (`190ffa5`), and
//!   unmoved since by every schedule change (the FFT's cyclic placement,
//!   half exchange and in-piece stages, LU's pivot vote, Cannon's split
//!   moves);
//! * **simulated time**: deterministic ceilings, so the overlap cannot
//!   silently regress to the one-link-at-a-time schedule;
//! * **simulator events** of all three, exactly: the GEMM chains its
//!   SAXPYs behind one completion interrupt per block step, the FFT's feed
//!   its forms behind one per piece, and LU's elimination its SAXPYs and
//!   the control processor's work between them behind one per step, and a
//!   schedule that went back to sleeping after every form would compute
//!   the same bits in the same simulated time at several times the events;
//! * **LU's simulated time**, to the picosecond;
//! * **overlap itself**: on a Cannon node the vector unit's busy time plus
//!   its incoming wires' busy time exceeds the elapsed time, which a
//!   schedule that does one thing at a time cannot produce, and every
//!   link carries traffic both ways.

use fps_t_series::kernels::{fft::distributed_fft, lu::distributed_lu, matmul::distributed_matmul};
use fps_t_series::machine::{Machine, MachineCfg};
use ts_sim::Dur;

/// FNV-1a over the bit patterns of a float sequence.
fn fnv(vals: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in vals {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn fft_input(points: usize) -> Vec<(f64, f64)> {
    (0..points)
        .map(|i| ((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
        .collect()
}

/// `(dim, size, digest at the parent commit, simulated-time ceiling)`. The
/// ceilings sit within 5 % above what the overlapped schedules take; the
/// sequential ones took 224.6 ms, 136.9 ms and 1151 ms on the last row of
/// each table. Cannon splits every move between the two ways round its
/// ring (88.9 ms at n = 128 moving one way) and streams it in one-row
/// panels that the GEMM multiplies as they land (60.292 ms at n = 128 with
/// whole blocks; the smaller blocks are one panel). The FFT rows cross each
/// link with half a block (one operand of every butterfly, not both:
/// 43.9 ms at 2¹⁴ points with the whole block), run the in-piece local
/// stages under the pipeline (23.9 ms at 2¹⁴ points with every local stage
/// first) and release the pieces depth-first (22.143 ms at 2¹⁴ points with
/// every cross-piece stage before the first piece); each cross stage
/// computes a piece's butterflies under the next piece's exchange, and the
/// feed charges the cross-piece stages at a derived constant rate (21.463
/// ms at 2¹⁴ points with the butterflies between exchanges and each block
/// charged whole at the piece that opens it). LU agrees on a
/// pivot with a 3-word max-loc vote and lets the control processor store
/// multipliers under the SAXPYs (235.4 ms at n = 128 with an all-gather
/// vote and a wait per row; 1.370 ms on one node, where only the wait per
/// row applied). LU streams each pivot row down n edge-disjoint spanning
/// trees in pieces (with n rotated trees all leaving the root: 12.650 ms at
/// n = 32 on dim 2, 46.644 ms at n = 64 and 170.551 ms at n = 128 on
/// dim 4), and lays the matrix on a 2-D process grid: the vote runs down
/// one process column, and the multipliers and the pivot row's trailing
/// columns stream along the process rows and down the process columns at
/// once (rows cyclic over all nodes, each node sent the whole trailing
/// row: 11.362 ms at n = 32 on dim 2, 28.161 ms at n = 64 and 92.538 ms at
/// n = 128 on dim 4; 1.306 ms on one node, which formed each multiplier
/// with its own flop). Each step's communication is
/// `t_series_core::model::NetModel::lu_step`, and LU's time lies between
/// their sum and that plus the work between them (`ts-kernels`' LU tests).
/// The FFT's butterflies and LU's reciprocal are priced as the vector forms
/// their arithmetic is, not as flops at the 16 MFLOPS peak; that moved the
/// four rows' times from 136.950 µs, 2.241 ms, 4.344 ms and 20.582 ms
/// (FFT) and 0.959, 7.729, 19.869 and 64.896 ms (LU).
type Case = (u32, usize, u64, Dur);

const MATMUL: [Case; 4] = [
    (0, 8, 0x044f21f450531a61, Dur::us(250)),
    (2, 16, 0x8a69de326dd77700, Dur::us(2_400)),
    (4, 32, 0xa58efba468da0095, Dur::us(5_600)),
    (4, 128, 0x5162e951f1f550cc, Dur::us(57_800)),
];

const FFT: [Case; 4] = [
    (0, 64, 0x6211dd68d732bde0, Dur::us(365)),
    (2, 256, 0xc5bceab057184184, Dur::us(2_600)),
    (4, 1024, 0x8ac909e5526ca33f, Dur::us(4_850)),
    (4, 1 << 14, 0x4f6f6cbc9325d55c, Dur::us(22_800)),
];

const LU: [Case; 4] = [
    (0, 16, 0xa94c207878fe7883, Dur::us(1_590)),
    (2, 32, 0x88cdbf76201bf065, Dur::us(9_250)),
    (4, 64, 0x03667c5d4d604d36, Dur::us(23_200)),
    (4, 128, 0xe7c040a474133ab1, Dur::us(72_900)),
];

fn check(kernel: &str, case: Case, digest: u64, elapsed: Dur) {
    let (dim, size, want, ceiling) = case;
    println!("{kernel} dim {dim} size {size}: digest {digest:#018x}, {elapsed}");
    assert_eq!(
        digest, want,
        "{kernel} dim {dim} size {size}: output differs from the sequential schedule's"
    );
    assert!(
        elapsed <= ceiling,
        "{kernel} dim {dim} size {size}: {elapsed} simulated, ceiling {ceiling}"
    );
}

/// Timer events of each [`MATMUL`] run: two per message a node sends (the
/// DMA start and the transfer's end; a panel relayed h hops is h messages)
/// and one GEMM sleep per block step. A block moves as
/// `t_series_core::model::panels(b)` panels, and a one-position move on a
/// ring of 4 sends its `P/4` long-way panels 3 hops and the rest 1 hop. The
/// blocks of the first three runs (b ≤ 8) are one panel each; at n = 128,
/// b = 32 is 8 panels, so a one-position move is 12 messages, not the 4 of
/// a head and tail sent whole (1 024 events then), and the 2-position skew
/// 16, not 4. With one completion sleep per SAXPY instead of per block
/// step, every block step would add b² − 1 more.
const MATMUL_EVENTS: [u64; 4] = [1, 32, 320, 3008];

#[test]
fn cannon_output_is_pinned_and_time_is_bounded() {
    for (case, events) in MATMUL.into_iter().zip(MATMUL_EVENTS) {
        let mut m = Machine::build(MachineCfg::cube(case.0));
        let (_, _, c, stats) = distributed_matmul(&mut m, case.1, 1986);
        check("matmul", case, fnv(c), stats.elapsed);
        let got = m.profile().timer_events;
        assert_eq!(
            got, events,
            "matmul dim {} size {}: simulator events moved",
            case.0, case.1
        );
    }
}

/// Timer events of each [`FFT`] run: p · pieces · (1 + 3n). Per piece a
/// node's feed sleeps once on its chain of forms, and each of the n cross
/// stages sleeps twice for the message (the DMA start and the transfer's
/// end) and once on its butterflies. The first three runs are one piece a
/// node; at 2¹⁴ points there are 16. One node sleeps once, on the chain of
/// every stage.
const FFT_EVENTS: [u64; 4] = [1, 28, 208, 3328];

#[test]
fn fft_output_is_pinned_and_time_is_bounded() {
    for (case, events) in FFT.into_iter().zip(FFT_EVENTS) {
        let mut m = Machine::build(MachineCfg::cube(case.0));
        let (spectrum, stats) = distributed_fft(&mut m, &fft_input(case.1));
        let flat = spectrum.into_iter().flat_map(|(re, im)| [re, im]);
        check("fft", case, fnv(flat), stats.elapsed);
        let got = m.profile().timer_events;
        assert_eq!(
            got, events,
            "fft dim {} size {}: simulator events moved",
            case.0, case.1
        );
    }
}

/// Simulated time of each [`LU`] run, to the picosecond: booking the
/// control processor's per-row charges ahead (`NodeCtx::issue_cp`) instead
/// of sleeping on each moved no instant.
const LU_PS: [u64; 4] = [1_521_324_920, 8_857_108_168, 22_133_399_664, 69_494_165_312];

/// Timer events of each [`LU`] run: two per message a node sends (the DMA
/// start and the transfer's end: 0, 250, 11 336 and 24 274 messages) and
/// the sleeps of the work. Per step, on each process row's node of the
/// pivot column, one on the reciprocal's flops and, while the process row
/// has free rows, one on the gather and one on the `AbsMax`; and one wait
/// per elimination step on each node whose process row still has free
/// rows — the control processor books the masking pass and each row's
/// 4-instruction charge, and the SAXPYs are issued at the instants it
/// reaches, so the step sleeps once. One node: 16 · 3 + 15 = 63. With a
/// sleep on the masking pass and on every row's charge, the four runs took
/// 198, 1 926, 33 440 and 86 570 events.
const LU_EVENTS: [u64; 4] = [63, 812, 24_400, 52_062];

#[test]
fn lu_output_is_pinned_and_time_is_bounded() {
    for ((case, ps), events) in LU.into_iter().zip(LU_PS).zip(LU_EVENTS) {
        let (dim, n) = (case.0, case.1);
        let mut m = Machine::build(MachineCfg::cube(dim));
        let (_, perm, rows, stats) = distributed_lu(&mut m, n, 1986);
        // The derivation of `LU_EVENTS`, from the pivot order: process row
        // r (of pr) holds the rows g ≡ r (mod pr) on its pc nodes.
        let (pr, pc) = (1 << (dim / 2), 1 << dim.div_ceil(2));
        let free = |r: usize, k: usize| (r..n).step_by(pr).any(|g| !perm[..k].contains(&g));
        let work: u64 = (0..n)
            .flat_map(|k| (0..pr).map(move |r| (k, r)))
            .map(|(k, r)| 1 + 2 * free(r, k) as u64 + pc * free(r, k + 1) as u64)
            .sum();
        let msgs: u64 = m
            .nodes
            .iter()
            .map(|x| x.meters().link_msgs_sent.get())
            .sum();
        let flat = perm.iter().map(|&p| p as f64).chain(rows);
        check("lu", case, fnv(flat), stats.elapsed);
        assert_eq!(
            stats.elapsed,
            Dur::ps(ps),
            "lu dim {dim} size {n}: time moved"
        );
        let got = m.profile().timer_events;
        assert_eq!(
            got,
            2 * msgs + work,
            "lu dim {dim} size {n}: a sleep per row?"
        );
        assert_eq!(got, events, "lu dim {dim} size {n}: simulator events moved");
    }
}

#[test]
fn cannon_overlaps_both_shifts_with_the_gemm() {
    // 4×4 torus, 32×32 blocks. A node that did one thing at a time would
    // have elapsed ≥ vector busy + A-wire busy + B-wire busy.
    let mut m = Machine::build(MachineCfg::cube(4));
    let (_, _, _, stats) = distributed_matmul(&mut m, 128, 7);
    for node in &m.nodes {
        let vec_busy = node.meters().vec_busy.get();
        let ctx = node.ctx();
        let wires: Vec<Dur> = (0..4)
            .map(|d| ctx.in_channel(d).wire().busy_total())
            .collect();
        let wire_busy = wires.iter().fold(Dur::ZERO, |a, &b| a + b);
        assert!(
            vec_busy + wire_busy > stats.elapsed,
            "node {}: vec {vec_busy} + wires {wire_busy} within elapsed {}",
            node.id,
            stats.elapsed
        );
        // Every move splits between the two ways round its ring, so all
        // four links carried traffic in both directions.
        assert!(
            wires.iter().all(|w| *w > Dur::ZERO),
            "node {}: an in-wire idle",
            node.id
        );
        for d in 0..4 {
            let out = node.out_channel(d).expect("wired");
            assert!(
                out.wire().busy_total() > Dur::ZERO,
                "node {}: out-wire {d} idle",
                node.id
            );
        }
    }
}
