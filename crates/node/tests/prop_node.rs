//! Property tests for the node layer: data integrity of gather/scatter,
//! timing additivity, and determinism of random operation sequences.
//! Seeded random cases via [`Rng`] (offline, reproducible).

use ts_fpu::Sf64;
use ts_node::{Node, NodeCfg};
use ts_sim::{Rng, Sim};
use ts_vec::VecForm;

fn small_node(sim: &Sim) -> Node {
    let cfg = NodeCfg {
        mem: ts_mem::MemCfg::small(16),
        ..NodeCfg::default()
    };
    Node::new(0, cfg, sim.handle())
}

/// gather64 then scatter64 back to the original addresses restores every
/// element (addresses distinct by construction).
#[test]
fn gather_scatter_roundtrip() {
    let mut rng = Rng::new(0x40de_0001);
    for _ in 0..32 {
        let n = rng.range(1, 60);
        let mut sim = Sim::new();
        let node = small_node(&sim);
        // Distinct source addresses: even stride from 2048, shuffled.
        let mut addrs: Vec<usize> = (0..n).map(|i| 2048 + 4 * i).collect();
        for i in (1..addrs.len()).rev() {
            let j = rng.range(0, i + 1);
            addrs.swap(i, j);
        }
        {
            let mut mem = node.mem_mut();
            for (k, &a) in addrs.iter().enumerate() {
                mem.write_f64(a, Sf64::from(k as f64 + 0.5)).unwrap();
            }
        }
        let ctx = node.ctx();
        let addrs2 = addrs.clone();
        sim.spawn(async move {
            ctx.gather64(&addrs2, 1024).await.unwrap();
            // Wipe the originals, then scatter back.
            {
                let mut mem = ctx.mem_mut();
                for &a in &addrs2 {
                    mem.write_f64(a, Sf64::ZERO).unwrap();
                }
            }
            ctx.scatter64(1024, &addrs2).await.unwrap();
        });
        assert!(sim.run().quiescent);
        let mem = node.mem();
        for (k, &a) in addrs.iter().enumerate() {
            assert_eq!(mem.read_f64(a).unwrap().to_host(), k as f64 + 0.5);
        }
    }
}

/// Sequential ops cost the sum of their individual times.
#[test]
fn sequential_timing_is_additive() {
    let mut rng = Rng::new(0x40de_0002);
    for _ in 0..24 {
        let n1 = rng.range(1, 200);
        let n2 = rng.range(1, 200);
        let time_of = |ns: &[usize]| {
            let mut sim = Sim::new();
            let node = small_node(&sim);
            let ctx = node.ctx();
            let ns = ns.to_vec();
            sim.spawn(async move {
                for n in ns {
                    ctx.vec(VecForm::VAdd, 0, 4, 5, n).await.unwrap();
                }
            });
            assert!(sim.run().quiescent);
            sim.now().as_ps()
        };
        let t1 = time_of(&[n1]);
        let t2 = time_of(&[n2]);
        let t12 = time_of(&[n1, n2]);
        assert_eq!(t12, t1 + t2);
    }
}

/// Random interleavings of vec/gather/cp ops are deterministic.
#[test]
fn random_programs_are_deterministic() {
    let mut rng = Rng::new(0x40de_0003);
    for _ in 0..24 {
        let ops: Vec<usize> = (0..rng.range(1, 20)).map(|_| rng.range(0, 4)).collect();
        let run = |ops: &[usize]| {
            let mut sim = Sim::new();
            let node = small_node(&sim);
            let ctx = node.ctx();
            let ops = ops.to_vec();
            sim.spawn(async move {
                let mut pending = Vec::new();
                for op in ops {
                    match op {
                        0 => {
                            ctx.vec(VecForm::VMul, 0, 4, 5, 64).await.unwrap();
                        }
                        1 => {
                            pending.push(ctx.vec_async(VecForm::VAdd, 1, 5, 6, 128).unwrap());
                        }
                        2 => {
                            let srcs: Vec<usize> = (0..16).map(|i| 2048 + 4 * i).collect();
                            ctx.gather64(&srcs, 1500).await.unwrap();
                        }
                        _ => ctx.cp_compute(100).await,
                    }
                }
                for p in pending {
                    p.await;
                }
            });
            assert!(sim.run().quiescent);
            (
                sim.now(),
                node.meters().vec_flops.get(),
                node.meters().cp_busy.get(),
            )
        };
        assert_eq!(run(&ops), run(&ops));
    }
}

/// Message payloads cross links bit-exactly, any size, any values.
#[test]
fn link_payload_integrity() {
    let mut rng = Rng::new(0x40de_0004);
    for _ in 0..24 {
        let vals: Vec<u64> = (0..rng.range(1, 100)).map(|_| rng.next_u64()).collect();
        let mut sim = Sim::new();
        let a = small_node(&sim);
        let b = Node::new(
            1,
            NodeCfg {
                mem: ts_mem::MemCfg::small(16),
                ..NodeCfg::default()
            },
            sim.handle(),
        );
        let w1 = ts_link::Wire::new("ab", ts_link::LinkParams::default());
        let w2 = ts_link::Wire::new("ba", ts_link::LinkParams::default());
        let ab = ts_link::LinkChannel::new(w1);
        let ba = ts_link::LinkChannel::new(w2);
        a.wire_dim(0, ab.clone(), ba.clone());
        b.wire_dim(0, ba, ab);
        let (ca, cb) = (a.ctx(), b.ctx());
        let sent: Vec<Sf64> = vals.iter().map(|&v| Sf64::from_bits(v)).collect();
        let sent2 = sent.clone();
        sim.spawn(async move { ca.send_f64s(0, &sent2).await });
        let jh = sim.spawn(async move { cb.recv_f64s(0).await });
        assert!(sim.run().quiescent);
        let got = jh.try_take().unwrap();
        assert_eq!(got.len(), sent.len());
        for (g, s) in got.iter().zip(&sent) {
            assert_eq!(g.to_bits(), s.to_bits());
        }
    }
}
