//! The paper anchors: four numbers the paper states outright, measured on
//! the simulated clock through public APIs and checked in range. They ride
//! along with every workload (outside every timed region), so a model
//! change that moves one of them fails a check whatever it was meant to do.

use fps_t_series::fpu::Sf64;
use fps_t_series::machine::checkpoint::{CheckpointStore, SnapshotMode};
use fps_t_series::machine::{Machine, MachineCfg};
use fps_t_series::vector::VecForm;

use crate::workloads::{Checks, OnceOut};

/// 64-bit words in the link probe message: long enough that the 5 us DMA
/// startup is 0.03 % of the transfer.
const LINK_F64S: usize = 1024;
/// Elements in the SAXPY probe (64 memory rows).
const SAXPY_ELEMS: usize = 8192;

/// Measure and check the anchors.
pub fn measure() -> OnceOut {
    let mut out = OnceOut::default();
    link_rate(&mut out);
    saxpy_peak(&mut out);
    full_snapshot(&mut out);
    out
}

fn in_range(checks: &mut Checks, what: &str, v: f64, lo: f64, hi: f64) {
    checks.check((lo..=hi).contains(&v), || {
        format!("paper anchor {what} = {v}, outside {lo}..{hi}")
    });
}

/// §II: 0.5 MB/s per link, i.e. 16 us per 64-bit word.
fn link_rate(out: &mut OnceOut) {
    let mut m = Machine::build(MachineCfg::cube_small_mem(1, 8));
    let tx = m.ctx(0);
    let sent = m.launch_on(0, async move {
        let t0 = tx.now();
        tx.send_f64s(0, &vec![Sf64::ZERO; LINK_F64S]).await;
        tx.now().since(t0).as_secs_f64()
    });
    let rx = m.ctx(1);
    m.launch_on(1, async move {
        rx.recv_f64s(0).await;
    });
    let quiescent = m.run().quiescent;
    let secs = sent.try_take().filter(|_| quiescent).unwrap_or(f64::NAN);
    let mb_per_s = LINK_F64S as f64 * 8.0 / secs / 1e6;
    let us_per_word = secs * 1e6 / LINK_F64S as f64;
    in_range(&mut out.checks, "link MB/s", mb_per_s, 0.495, 0.505);
    in_range(
        &mut out.checks,
        "us per 64-bit word",
        us_per_word,
        15.84,
        16.16,
    );
    out.values.push(("link.sim_mb_per_s", mb_per_s));
}

/// §II: 16 MFLOPS peak per node, reached by the chained SAXPY form.
fn saxpy_peak(out: &mut OnceOut) {
    let mut m = Machine::build(MachineCfg::cube(0));
    let ctx = m.ctx(0);
    let done = m.launch_on(0, async move {
        let rows_a = ctx.mem().cfg().rows_a();
        let t0 = ctx.now();
        let r = ctx
            .vec(
                VecForm::Saxpy(Sf64::from(2.0)),
                0,
                rows_a,
                rows_a,
                SAXPY_ELEMS,
            )
            .await;
        (r.is_ok(), ctx.now().since(t0).as_secs_f64())
    });
    let quiescent = m.run().quiescent;
    let (ok, secs) = done.try_take().unwrap_or((false, f64::NAN));
    out.checks
        .check(ok && quiescent, || "SAXPY anchor probe failed".into());
    let flops = m.registry().sum_counters("vec/flops") as f64;
    let mflops = flops / secs / 1e6;
    in_range(&mut out.checks, "SAXPY MFLOPS", mflops, 15.2, 16.8);
    out.values.push(("vec.sim_saxpy_mflops", mflops));
}

/// §III: "about 15 seconds to take a snapshot, regardless of
/// configuration" — one module of eight full-memory nodes.
fn full_snapshot(out: &mut OnceOut) {
    let mut m = Machine::build(MachineCfg::cube(3));
    let mut store = CheckpointStore::new(m.nodes.len());
    let secs = match m.checkpoint(&mut store, SnapshotMode::Full) {
        Ok(stats) => stats.duration.as_secs_f64(),
        Err(_) => f64::NAN,
    };
    in_range(&mut out.checks, "full snapshot s", secs, 13.0, 18.0);
    out.values.push(("core.full_snapshot_sim_s", secs));
}
