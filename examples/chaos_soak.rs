//! Chaos soak: a seeded schedule of transient link faults — corrupted
//! flits, dropped flits, flapping links — runs underneath every
//! collective plus the Cannon matmul and the distributed FFT. The
//! reliable transport must absorb all of it: the run completes with
//! results bit-identical to a fault-free baseline, and the damage shows
//! up only as retransmit/CRC counters in the utilization report. On a
//! mismatch the harness shrinks the schedule to a minimal reproducing
//! plan and prints it in the copy-pasteable `FaultPlan` text format.
//!
//! ```text
//! cargo run --example chaos_soak -- --seed 42
//! cargo run --example chaos_soak -- --seed 7 --faults 12 --dim 3
//! ```

use fps_t_series::kernels::{fft, matmul};
use fps_t_series::machine::collectives::{allgather, allreduce, barrier, broadcast, reduce, scan};
use fps_t_series::machine::fault::{FaultEvent, FaultPlan};
use fps_t_series::machine::{Machine, MachineCfg};
use fps_t_series::node::CombineOp;
use ts_fpu::Sf64;
use ts_sim::Dur;

/// FNV-1a over little-endian bytes: a stable, dependency-free digest.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

struct Outcome {
    digest: u64,
    retransmits: u64,
    crc_errors: u64,
    flaps: u64,
    report: String,
}

/// Run the soak workload with `plan` armed; digest every computed result
/// (and nothing timing-dependent).
fn run_workload(dim: u32, plan: &FaultPlan) -> Outcome {
    assert!(
        dim >= 2 && dim.is_multiple_of(2),
        "Cannon needs an even cube dimension ≥ 2"
    );
    let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
    let cube = m.cube;
    plan.schedule(&m);

    let handles = m.launch(move |ctx| async move {
        let data = (ctx.id() == 0).then(|| vec![0xB0A0_0001, 0xB0A0_0002, 0xB0A0_0003]);
        let b = broadcast(&ctx, cube, 0, data).await;
        let r = reduce(
            &ctx,
            cube,
            0,
            CombineOp::Add,
            vec![Sf64::from(ctx.id() as f64 + 0.5)],
        )
        .await;
        let ar = allreduce(
            &ctx,
            cube,
            CombineOp::Add,
            vec![Sf64::from(1.0 + ctx.id() as f64)],
        )
        .await;
        let ag = allgather(&ctx, cube, vec![ctx.id() * 7 + 1]).await;
        let sc = scan(
            &ctx,
            cube,
            CombineOp::Add,
            vec![Sf64::from(ctx.id() as f64)],
        )
        .await;
        barrier(&ctx, cube).await;
        (b, r, ar, ag, sc)
    });
    assert!(m.run().quiescent, "collectives deadlocked under chaos");

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for h in handles {
        let (b, r, ar, ag, sc) = h.try_take().expect("collective task incomplete");
        b.iter().for_each(|w| fnv(&mut digest, &w.to_le_bytes()));
        for v in r.into_iter().flatten().chain(ar).chain(sc) {
            fnv(&mut digest, &v.to_host().to_bits().to_le_bytes());
        }
        for (id, words) in ag {
            fnv(&mut digest, &id.to_le_bytes());
            words
                .iter()
                .for_each(|w| fnv(&mut digest, &w.to_le_bytes()));
        }
    }

    let side = 1usize << (dim / 2);
    let (_, _, c, _) = matmul::distributed_matmul(&mut m, 4 * side, 7);
    c.iter()
        .for_each(|v| fnv(&mut digest, &v.to_bits().to_le_bytes()));

    let points = (4usize << dim).next_power_of_two();
    let input: Vec<(f64, f64)> = (0..points)
        .map(|i| (i as f64 * 0.25, -(i as f64) * 0.125))
        .collect();
    let (spectrum, _) = fft::distributed_fft(&mut m, &input);
    for (re, im) in spectrum {
        fnv(&mut digest, &re.to_bits().to_le_bytes());
        fnv(&mut digest, &im.to_bits().to_le_bytes());
    }

    let met = m.registry();
    Outcome {
        digest,
        retransmits: met.sum_counters("link/retransmits"),
        crc_errors: met.sum_counters("link/crc_errors"),
        flaps: met.sum_counters("fault/link_flap"),
        report: m.utilization_report(),
    }
}

fn main() {
    let mut seed = 42u64;
    let mut faults = 8usize;
    let mut dim = 2u32;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut grab = |what: &str| {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| {
                    eprintln!("--{what} needs an integer value");
                    std::process::exit(2);
                })
        };
        match a.as_str() {
            "--seed" => seed = grab("seed"),
            "--faults" => faults = grab("faults") as usize,
            "--dim" => dim = grab("dim") as u32,
            _ => {
                eprintln!("usage: chaos_soak [--seed N] [--faults N] [--dim N]");
                std::process::exit(2);
            }
        }
    }

    println!(
        "chaos soak: {}-cube, seed {seed}, {faults} transient faults\n",
        dim
    );

    let baseline = run_workload(dim, &FaultPlan::new());
    assert_eq!(
        baseline.retransmits, 0,
        "fault-free run must not retransmit"
    );
    println!("baseline digest (fault-free): {:016x}", baseline.digest);

    // A guaranteed early corruption + drop on the broadcast root, then the
    // seeded transient tail.
    let mut plan = FaultPlan::new()
        .with(
            Dur::ps(1),
            FaultEvent::WireCorrupt {
                node: 0,
                dim: 0,
                flit_bit: 17,
            },
        )
        .with(Dur::ps(2), FaultEvent::FlitDrop { node: 0, dim: 1 });
    for tf in FaultPlan::generate_transient(seed, dim, faults, Dur::ms(50)).iter() {
        plan.push(tf.at, tf.event);
    }
    println!("fault schedule:\n{plan}");

    let out = run_workload(dim, &plan);
    println!("chaos digest:                 {:016x}", out.digest);
    println!(
        "absorbed: {} flits retransmitted, {} CRC errors, {} link flaps\n",
        out.retransmits, out.crc_errors, out.flaps
    );

    if out.digest != baseline.digest {
        eprintln!("MISMATCH: results diverged under chaos; shrinking the schedule...");
        let minimal = plan.shrink(|p| run_workload(dim, p).digest != baseline.digest);
        eprintln!(
            "minimal reproducing plan ({} of {} faults) — copy-paste into FaultPlan::parse:\n{minimal}",
            minimal.len(),
            plan.len(),
        );
        std::process::exit(1);
    }

    println!("results bit-identical to the fault-free baseline ✓\n");
    println!("{}", out.report);
}
