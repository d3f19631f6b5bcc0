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

// --- the full-parity reference model ----------------------------------------

use ts_mem::MemError;

/// The store with a parity nibble beside every word, written with its data
/// and checked on every read: the oracle [`NodeMemory`]'s parity by
/// exception must equal.
struct FullParity {
    data: Vec<u32>,
    parity: Vec<u8>,
}

/// Bit `i` = parity of byte lane `i`, one lane at a time.
fn lanes(word: u32) -> u8 {
    (0..4).fold(0, |p, lane| {
        p | (((word >> (8 * lane)) as u8).count_ones() as u8 & 1) << lane
    })
}

impl FullParity {
    fn new(words: usize) -> FullParity {
        FullParity {
            data: vec![0; words],
            parity: vec![0; words],
        }
    }

    fn check(&self, addr: usize) -> Result<(), MemError> {
        let words = self.data.len();
        if addr < words {
            Ok(())
        } else {
            Err(MemError::OutOfRange { addr, words })
        }
    }

    fn read_word(&self, addr: usize) -> Result<u32, MemError> {
        self.check(addr)?;
        let bad = lanes(self.data[addr]) ^ self.parity[addr];
        match bad {
            0 => Ok(self.data[addr]),
            _ => Err(MemError::Parity {
                addr,
                lane: bad.trailing_zeros() as usize,
            }),
        }
    }

    fn write_word(&mut self, addr: usize, w: u32) -> Result<(), MemError> {
        self.check(addr)?;
        self.data[addr] = w;
        self.parity[addr] = lanes(w);
        Ok(())
    }

    fn read_row(&self, row: usize, out: &mut [u32; ROW_WORDS]) -> Result<(), MemError> {
        let base = row * ROW_WORDS;
        self.check(base + ROW_WORDS - 1)?;
        for (o, addr) in out.iter_mut().zip(base..) {
            *o = self.read_word(addr)?;
        }
        Ok(())
    }

    fn write_row(&mut self, row: usize, data: &[u32; ROW_WORDS]) -> Result<(), MemError> {
        let base = row * ROW_WORDS;
        self.check(base + ROW_WORDS - 1)?;
        for (&w, addr) in data.iter().zip(base..) {
            self.write_word(addr, w)?;
        }
        Ok(())
    }

    fn inject_bit_flip(&mut self, addr: usize, bit: u32) -> Result<(), MemError> {
        self.check(addr)?;
        self.data[addr] ^= 1 << (bit % 32);
        Ok(())
    }

    fn scrub(&mut self, addr: usize) -> Result<(), MemError> {
        self.check(addr)?;
        self.parity[addr] = lanes(self.data[addr]);
        Ok(())
    }

    fn parity_errors(&self) -> usize {
        (0..self.data.len())
            .filter(|&a| self.read_word(a).is_err())
            .count()
    }

    fn scrub_all(&mut self) -> usize {
        let bad = self.parity_errors();
        for a in 0..self.data.len() {
            self.scrub(a).unwrap();
        }
        bad
    }

    fn restore(&mut self, image: &[u32]) {
        self.data.copy_from_slice(image);
        self.scrub_all();
    }
}

/// Parity by exception ≡ a parity nibble beside every word: seeded scripts
/// of every reader and mutator — repeated flips of one bit, two flips in a
/// byte, flips on rows never written, out-of-range addresses — return the
/// same `Ok` values, the same errors (address and lane) and the same
/// counts through both stores, step by step, and both read ports agree
/// with the model over the whole window after every step.
#[test]
fn parity_by_exception_equals_a_parity_nibble_per_word() {
    for seed in [1u64, 0x1986, 0xfeed_f00d, 0x3e30_0007] {
        let mut rng = Rng::new(seed);
        let cfg = MemCfg::small(8);
        let (words, rows) = (cfg.words(), cfg.rows());
        let mut m = NodeMemory::new(cfg);
        let mut model = FullParity::new(words);
        let mut images = vec![m.snapshot()];
        let mut last_flip = (0usize, 0u32);
        for step in 0..2_000 {
            let ctx = format!("seed {seed:#x} step {step}");
            // A small window of three rows, so that writes, scrubs and
            // repeat flips keep landing on faulted words, and now and then
            // any word, or one past the end.
            let addr = match rng.below(32) {
                0 => words + rng.range(0, 3),
                1..=3 => rng.range(0, words),
                _ => rng.range(0, 3) * ROW_WORDS + rng.range(0, 24),
            };
            let row = addr / ROW_WORDS;
            match rng.below(20) {
                0..=2 => {
                    let w = rng.next_u32();
                    assert_eq!(m.write_word(addr, w), model.write_word(addr, w), "{ctx}");
                }
                3 => {
                    let data: Vec<u32> = (0..ROW_WORDS).map(|_| rng.next_u32()).collect();
                    let data: &[u32; ROW_WORDS] = data.as_slice().try_into().unwrap();
                    assert_eq!(m.write_row(row, data), model.write_row(row, data), "{ctx}");
                }
                4..=8 => {
                    last_flip = (addr, rng.below(64) as u32);
                    let (a, b) = last_flip;
                    assert_eq!(m.inject_bit_flip(a, b), model.inject_bit_flip(a, b));
                }
                // The same bit again: the data is whole, the word clean.
                9 => {
                    let (a, b) = last_flip;
                    assert_eq!(m.inject_bit_flip(a, b), model.inject_bit_flip(a, b));
                }
                // A second bit of the same byte: parity cannot see it.
                10 => {
                    let (a, b) = last_flip;
                    let b = b / 8 * 8 + (b + 1 + rng.below(7) as u32) % 8;
                    assert_eq!(m.inject_bit_flip(a, b), model.inject_bit_flip(a, b));
                }
                11..=12 => assert_eq!(m.scrub(addr), model.scrub(addr), "{ctx}"),
                13 if rng.below(4) == 0 => assert_eq!(m.scrub_all(), model.scrub_all(), "{ctx}"),
                14 if rng.below(4) == 0 => {
                    let image = &images[rng.below(images.len() as u64) as usize];
                    m.restore(image);
                    model.restore(image);
                }
                15 if rng.below(4) == 0 => images.push(m.snapshot()),
                16..=17 => assert_eq!(m.read_word(addr), model.read_word(addr), "{ctx}"),
                _ => {
                    let (mut got, mut want) = ([1u32; ROW_WORDS], [1u32; ROW_WORDS]);
                    let read = (m.read_row(row, &mut got), model.read_row(row, &mut want));
                    assert_eq!(read.0, read.1, "{ctx}: row {row}");
                    if read.0.is_ok() {
                        assert_eq!(got, want, "{ctx}: row {row}");
                    }
                }
            }
            assert_eq!(m.parity_errors(), model.parity_errors(), "{ctx}");
            assert_eq!(m.snapshot(), model.data, "{ctx}");
            for a in 0..4 * ROW_WORDS {
                assert_eq!(m.read_word(a), model.read_word(a), "{ctx}: word {a}");
            }
            let (mut got, mut want) = ([0u32; ROW_WORDS], [0u32; ROW_WORDS]);
            for r in 0..=rows {
                let read = (m.read_row(r, &mut got), model.read_row(r, &mut want));
                assert_eq!(read.0, read.1, "{ctx}: row {r}");
            }
        }
    }
}
