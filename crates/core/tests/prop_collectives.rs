//! Property tests for the collectives: correctness on random payloads,
//! roots and cube sizes; agreement with sequential references. Seeded
//! random cases via [`Rng`] (offline, reproducible).

use t_series_core::checkpoint::{CheckpointStore, SnapshotMode};
use t_series_core::{collectives, Machine, MachineCfg};
use ts_fpu::Sf64;
use ts_node::CombineOp;
use ts_sim::Rng;

fn machine(dim: u32) -> Machine {
    Machine::build(MachineCfg::cube_small_mem(dim, 8))
}

/// Local splitmix64: per-node value derivation must be a pure function of
/// (seed, id, j) so every node computes the same reference.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[test]
fn broadcast_any_root_any_payload() {
    let mut rng = Rng::new(0xc011_0001);
    for _ in 0..24 {
        let dim = rng.below(5) as u32;
        let root_seed = rng.next_u32();
        let payload: Vec<u32> = (0..rng.range(1, 50)).map(|_| rng.next_u32()).collect();
        let mut m = machine(dim);
        let cube = m.cube;
        let root = root_seed % cube.nodes();
        let p2 = payload.clone();
        let handles = m.launch(move |ctx| {
            let p = p2.clone();
            async move {
                let data = (ctx.id() == root).then_some(p);
                collectives::broadcast(&ctx, cube, root, data).await
            }
        });
        assert!(m.run().quiescent, "broadcast deadlocked");
        for h in handles {
            assert_eq!(h.try_take().unwrap(), payload.clone());
        }
    }
}

#[test]
fn reduce_equals_sequential_sum() {
    let mut rng = Rng::new(0xc011_0002);
    for _ in 0..24 {
        let dim = rng.below(5) as u32;
        let root_seed = rng.next_u32();
        let vals_seed = rng.next_u64();
        let len = rng.range(1, 20);
        let mut m = machine(dim);
        let cube = m.cube;
        let root = root_seed % cube.nodes();
        // Per-node values derived from a seed (deterministic in the test).
        let value = move |id: u32, j: usize| {
            let mut s = vals_seed ^ (id as u64) << 32 ^ j as u64;
            (splitmix(&mut s) % 1000) as f64 - 500.0
        };
        let handles = m.launch(move |ctx| async move {
            let mine: Vec<Sf64> = (0..len).map(|j| Sf64::from(value(ctx.id(), j))).collect();
            collectives::reduce(&ctx, cube, root, CombineOp::Add, mine).await
        });
        assert!(m.run().quiescent, "reduce deadlocked");
        for (i, h) in handles.into_iter().enumerate() {
            let got = h.try_take().unwrap();
            if i as u32 == root {
                let v = got.expect("root result");
                for (j, out) in v.iter().enumerate() {
                    // Integer-valued contributions: sums are exact.
                    let want: f64 = (0..cube.nodes()).map(|id| value(id, j)).sum();
                    assert_eq!(out.to_host(), want);
                }
            } else {
                assert!(got.is_none());
            }
        }
    }
}

#[test]
fn allreduce_variants_agree_on_all_nodes() {
    let mut rng = Rng::new(0xc011_0003);
    for _ in 0..24 {
        let dim = rng.below(5) as u32;
        let vals_seed = rng.next_u64();
        let op = [CombineOp::Add, CombineOp::Max, CombineOp::Min][rng.range(0, 3)];
        let mut m = machine(dim);
        let cube = m.cube;
        let value = move |id: u32| {
            let mut s = vals_seed ^ id as u64;
            (splitmix(&mut s) % 1_000_000) as f64
        };
        let handles = m.launch(move |ctx| async move {
            let mine = vec![Sf64::from(value(ctx.id()))];
            collectives::allreduce(&ctx, cube, op, mine).await
        });
        assert!(m.run().quiescent, "allreduce deadlocked");
        let all: Vec<f64> = (0..cube.nodes()).map(value).collect();
        let want = match op {
            CombineOp::Add => all.iter().sum::<f64>(),
            CombineOp::Max => all.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            CombineOp::Min => all.iter().cloned().fold(f64::INFINITY, f64::min),
            CombineOp::Mul => unreachable!(),
        };
        for h in handles {
            assert_eq!(h.try_take().unwrap()[0].to_host(), want);
        }
    }
}

#[test]
fn allgather_collects_all_ids() {
    let mut rng = Rng::new(0xc011_0004);
    for _ in 0..24 {
        let dim = rng.below(5) as u32;
        let tag = rng.next_u32();
        let mut m = machine(dim);
        let cube = m.cube;
        let handles = m.launch(move |ctx| async move {
            collectives::allgather(&ctx, cube, vec![ctx.id() ^ tag]).await
        });
        assert!(m.run().quiescent, "allgather deadlocked");
        for h in handles {
            let got = h.try_take().unwrap();
            assert_eq!(got.len() as u32, cube.nodes());
            for (i, (id, words)) in got.iter().enumerate() {
                assert_eq!(*id, i as u32);
                assert_eq!(words[0], i as u32 ^ tag);
            }
        }
    }
}

/// Snapshot then restore reproduces arbitrary memory contents exactly.
#[test]
fn snapshot_restore_arbitrary_state() {
    let mut rng = Rng::new(0xc011_0005);
    for _ in 0..16 {
        let dim = rng.below(4) as u32;
        let writes: Vec<(usize, u32)> = (0..rng.range(1, 30))
            .map(|_| (rng.range(0, 1024), rng.next_u32()))
            .collect();
        let mut m = machine(dim);
        for (k, node) in m.nodes.iter().enumerate() {
            for &(addr, v) in &writes {
                node.mem_mut().write_word(addr, v ^ k as u32).unwrap();
            }
        }
        let mut store = CheckpointStore::new(m.nodes.len());
        m.checkpoint(&mut store, SnapshotMode::Full).unwrap();
        for node in &m.nodes {
            node.mem_mut().write_word(writes[0].0, !0).unwrap();
        }
        m.restore_from(&store).unwrap();
        for (k, node) in m.nodes.iter().enumerate() {
            let mut model = std::collections::HashMap::new();
            for &(addr, v) in &writes {
                model.insert(addr, v ^ k as u32);
            }
            for (&addr, &want) in &model {
                assert_eq!(node.mem().read_word(addr).unwrap(), want);
            }
        }
    }
}
