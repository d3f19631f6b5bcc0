//! Property tests for the dual-ported memory: port consistency, parity,
//! snapshot fidelity. Seeded random cases via [`Rng`] (offline, reproducible).

use ts_mem::{join, split, MemCfg, NodeMemory, ROW_WORDS};
use ts_sim::Rng;

/// The one 64-bit layout memory, registers and links share: `join` undoes
/// `split`, the low word comes first, and `write_u64` lays a value down as
/// `split` cuts it.
#[test]
fn a_64_bit_value_is_two_words_low_first() {
    let mut rng = Rng::new(0x3e30_0064);
    let edges = [0, 1, 1 << 31, 1 << 32, u64::MAX];
    let seeded: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
    let mut m = NodeMemory::new(MemCfg::small(16));
    for (n, &v) in edges.iter().chain(&seeded).enumerate() {
        assert_eq!(join(&split(v)), v, "{v:#x}");
        assert_eq!(split(v), [v as u32, (v >> 32) as u32], "{v:#x}");
        let addr = 2 * n + 1;
        m.write_u64(addr, v).unwrap();
        assert_eq!(m.read_word(addr).unwrap(), split(v)[0], "{v:#x}");
        assert_eq!(m.read_word(addr + 1).unwrap(), split(v)[1], "{v:#x}");
        assert_eq!(m.read_u64(addr).unwrap(), v, "{v:#x}");
    }
}

/// Writes through either port are visible through both.
#[test]
fn ports_share_storage() {
    let mut rng = Rng::new(0x3e30_0001);
    for _ in 0..48 {
        let writes: Vec<(usize, u32)> = (0..rng.range(1, 50))
            .map(|_| (rng.range(0, 16 * ROW_WORDS), rng.next_u32()))
            .collect();
        let mut m = NodeMemory::new(MemCfg::small(16));
        let mut model = vec![0u32; 16 * ROW_WORDS];
        for &(addr, v) in &writes {
            m.write_word(addr, v).unwrap();
            model[addr] = v;
        }
        // Word port agrees with the model.
        for &(addr, _) in &writes {
            assert_eq!(m.read_word(addr).unwrap(), model[addr]);
        }
        // Row port sees the same bytes.
        let mut row = [0u32; ROW_WORDS];
        for r in 0..16 {
            m.read_row(r, &mut row).unwrap();
            assert_eq!(&row[..], &model[r * ROW_WORDS..(r + 1) * ROW_WORDS]);
        }
    }
}

/// A row write followed by word reads round-trips.
#[test]
fn row_write_word_read() {
    let mut rng = Rng::new(0x3e30_0002);
    for _ in 0..64 {
        let r = rng.range(0, 16);
        let data: Vec<u32> = (0..ROW_WORDS).map(|_| rng.next_u32()).collect();
        let mut m = NodeMemory::new(MemCfg::small(16));
        let mut row = [0u32; ROW_WORDS];
        row.copy_from_slice(&data);
        m.write_row(r, &row).unwrap();
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(m.read_word(r * ROW_WORDS + i).unwrap(), v);
        }
    }
}

/// Parity detects any single-bit flip and pinpoints the byte lane.
#[test]
fn parity_catches_any_single_bit_flip() {
    let mut rng = Rng::new(0x3e30_0003);
    for _ in 0..256 {
        let addr = rng.range(0, 16 * ROW_WORDS);
        let value = rng.next_u32();
        let bit = rng.below(32) as u32;
        let mut m = NodeMemory::new(MemCfg::small(16));
        m.write_word(addr, value).unwrap();
        m.inject_bit_flip(addr, bit).unwrap();
        match m.read_word(addr) {
            Err(ts_mem::MemError::Parity { addr: a, lane }) => {
                assert_eq!(a, addr);
                assert_eq!(lane as u32, bit / 8);
            }
            other => panic!("expected parity error, got {other:?}"),
        }
        // Rewriting heals it.
        m.write_word(addr, value).unwrap();
        assert_eq!(m.read_word(addr).unwrap(), value);
    }
}

/// Two flips in the same byte evade parity (even parity limitation) —
/// pinned as documented behaviour of per-byte parity.
#[test]
fn double_flip_same_byte_escapes_parity() {
    let mut rng = Rng::new(0x3e30_0004);
    let mut cases = 0;
    while cases < 128 {
        let addr = rng.range(0, 8 * ROW_WORDS);
        let value = rng.next_u32();
        let lane = rng.below(4) as u32;
        let b1 = rng.below(8) as u32;
        let b2 = rng.below(8) as u32;
        if b1 == b2 {
            continue;
        }
        cases += 1;
        let mut m = NodeMemory::new(MemCfg::small(8));
        m.write_word(addr, value).unwrap();
        m.inject_bit_flip(addr, lane * 8 + b1).unwrap();
        m.inject_bit_flip(addr, lane * 8 + b2).unwrap();
        assert!(m.read_word(addr).is_ok());
    }
}

/// Snapshot/restore is a faithful copy of all state.
#[test]
fn snapshot_restore_faithful() {
    let mut rng = Rng::new(0x3e30_0005);
    for _ in 0..48 {
        let writes: Vec<(usize, u32)> = (0..rng.range(1, 40))
            .map(|_| (rng.range(0, 8 * ROW_WORDS), rng.next_u32()))
            .collect();
        let mut m = NodeMemory::new(MemCfg::small(8));
        for &(a, v) in &writes {
            m.write_word(a, v).unwrap();
        }
        let snap = m.snapshot();
        // Trash everything, including parity state.
        for a in 0..8 * ROW_WORDS {
            m.write_word(a, !0).unwrap();
        }
        m.inject_bit_flip(0, 3).unwrap();
        m.restore(&snap);
        for &(a, _) in &writes {
            let mut expected = 0;
            // last write to address a wins
            for &(aa, vv) in &writes {
                if aa == a {
                    expected = vv;
                }
            }
            assert_eq!(m.read_word(a).unwrap(), expected);
        }
    }
}

/// f64 storage round-trips bit-exactly, including NaN payloads.
#[test]
fn f64_roundtrip() {
    let mut rng = Rng::new(0x3e30_0006);
    for _ in 0..256 {
        let addr = rng.range(0, 8 * ROW_WORDS - 2);
        let bits = rng.next_u64();
        let mut m = NodeMemory::new(MemCfg::small(8));
        m.write_u64(addr, bits).unwrap();
        assert_eq!(m.read_u64(addr).unwrap(), bits);
    }
}
