//! # ts-mem — the node's dual-ported central memory
//!
//! §II *Memory*: each node carries **1 MByte of dual-ported dynamic RAM**
//! with one parity bit per byte, organized as
//!
//! * a conventional **random-access word port** used by the control
//!   processor and the communication links — 32-bit words, 400 ns per
//!   access, hence the paper's 10 MB/s effective control-processor
//!   bandwidth;
//! * a **row port** used by the vector registers — an entire 1024-byte row
//!   moves in parallel in the same 400 ns it takes to move one word, hence
//!   the paper's 2560 MB/s;
//! * two banks: **Bank A, 64 K words** (256 rows) and **Bank B, 192 K
//!   words** (768 rows). "The division of memory into two banks permits two
//!   inputs in parallel to the arithmetic unit on each cycle."
//!
//! The model stores real data (the kernels compute on it) and exposes the
//! *cost* of every access as constants, so the node layer can charge
//! simulated time and arbitrate the two ports. Gather/scatter cost falls
//! out of the word-port arithmetic: moving a 64-bit operand is two reads
//! plus two writes = 4 × 400 ns = **1.6 µs**, exactly the paper's number.
//!
//! Parity is real, stored by exception: a word's stored parity is its
//! data's until [`NodeMemory::inject_bit_flip`] changes the data alone, so
//! the store keeps only each flipped word's old parity nibble. A read
//! checks the entries of its word or row (a row read with nothing injected
//! is a copy), and a flipped word fails the way the hardware would.

#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::ops::Range;

use ts_sim::Dur;

/// Bytes per memory word (the word port is 32 bits wide).
pub const WORD_BYTES: usize = 4;
/// Bytes per memory row (and per vector register).
pub const ROW_BYTES: usize = 1024;
/// Words per row.
pub const ROW_WORDS: usize = ROW_BYTES / WORD_BYTES; // 256

/// One random access through the word port: 400 ns (the paper's "(4 bytes) /
/// (0.4 µs) ≈ 10 MB/s").
pub const WORD_TIME: Dur = Dur::ns(400);
/// One full-row transfer through the row port: 400 ns ("in the same time
/// that it would have taken to read or write a single 32-bit word").
pub const ROW_TIME: Dur = Dur::ns(400);

/// Cost of gathering or scattering one 64-bit element through the word
/// port: two 32-bit reads + two 32-bit writes (§II: 1.6 µs).
pub const GATHER64_TIME: Dur = Dur::ns(4 * 400);
/// Cost for a 32-bit element: one read + one write (§II: 0.8 µs).
pub const GATHER32_TIME: Dur = Dur::ns(2 * 400);

/// The one layout of a 64-bit value over 32-bit words — in memory, in a
/// vector register and on a link: two words, low word first.
pub fn split(v: u64) -> [u32; 2] {
    [v as u32, (v >> 32) as u32]
}

/// The inverse of [`split`]: the 64-bit value in `w[0]` (low) and `w[1]`.
pub fn join(w: &[u32]) -> u64 {
    w[0] as u64 | ((w[1] as u64) << 32)
}

/// Which bank a row lives in. The vector unit streams one operand from each
/// bank per cycle; two operands in the same bank halve the stream rate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Bank {
    /// Bank A: 64 K words = 256 rows (default geometry).
    A,
    /// Bank B: 192 K words = 768 rows.
    B,
}

/// Memory geometry. The paper's node is `MemCfg::default()`; reduced sizes
/// keep host memory bounded when simulating thousands of nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemCfg {
    /// Words in bank A.
    pub words_a: usize,
    /// Words in bank B.
    pub words_b: usize,
}

impl Default for MemCfg {
    /// The paper's geometry: 64 K + 192 K 32-bit words = 1 MByte.
    fn default() -> Self {
        MemCfg {
            words_a: 64 * 1024,
            words_b: 192 * 1024,
        }
    }
}

impl MemCfg {
    /// A reduced geometry (same 1:3 bank split) for large-machine tests.
    pub fn small(rows: usize) -> MemCfg {
        assert!(
            rows >= 4 && rows.is_multiple_of(4),
            "need a multiple of 4 rows"
        );
        MemCfg {
            words_a: rows / 4 * ROW_WORDS,
            words_b: rows * 3 / 4 * ROW_WORDS,
        }
    }

    /// Total words.
    pub fn words(&self) -> usize {
        self.words_a + self.words_b
    }

    /// Total bytes.
    pub fn bytes(&self) -> usize {
        self.words() * WORD_BYTES
    }

    /// Total rows.
    pub fn rows(&self) -> usize {
        self.words() / ROW_WORDS
    }

    /// First row of bank B (bank A occupies rows `0..rows_a`).
    pub fn rows_a(&self) -> usize {
        self.words_a / ROW_WORDS
    }

    /// Validate the geometry (row-aligned banks).
    pub fn validate(&self) -> Result<(), String> {
        if !self.words_a.is_multiple_of(ROW_WORDS) || !self.words_b.is_multiple_of(ROW_WORDS) {
            return Err("banks must be whole rows (1024-byte aligned)".into());
        }
        if self.words_a == 0 || self.words_b == 0 {
            return Err("both banks must be non-empty".into());
        }
        Ok(())
    }
}

/// Errors the memory system can raise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemError {
    /// Word address beyond the configured geometry.
    OutOfRange {
        /// The offending word address.
        addr: usize,
        /// Configured size in words.
        words: usize,
    },
    /// A read saw a byte whose stored parity disagrees with its data —
    /// either injected corruption or a simulated DRAM fault.
    Parity {
        /// Word address of the bad byte.
        addr: usize,
        /// Byte lane (0–3) within the word.
        lane: usize,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfRange { addr, words } => {
                write!(
                    f,
                    "word address {addr} out of range (memory is {words} words)"
                )
            }
            MemError::Parity { addr, lane } => {
                write!(f, "parity error at word {addr}, byte lane {lane}")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// The dual-ported memory of one node.
///
/// All accessors are purely functional with respect to simulated time; the
/// node layer charges [`WORD_TIME`] / [`ROW_TIME`] and arbitrates port
/// contention.
///
/// Every write also sets a per-row **dirty bit** (the DRAM row is the
/// natural delta unit — 1024 bytes, one row-port transfer). The checkpoint
/// subsystem reads the dirty set to build incremental snapshots and clears
/// it only once a checkpoint has durably committed, so an aborted snapshot
/// loses no delta information.
///
/// The backing store is allocated a row at a time, on the row's first
/// write: a row never written reads as zeros with clean parity, so a
/// machine of thousands of 1 MB nodes holds only the rows its programs use.
pub struct NodeMemory {
    cfg: MemCfg,
    /// The rows written so far; `None` reads as [`ZERO_ROW`].
    rows: Vec<Option<Box<Row>>>,
    /// One bit per row: set on any write touching the row, cleared only by
    /// [`NodeMemory::clear_dirty`] (i.e. by a committed checkpoint).
    dirty: Vec<u64>,
    /// The stored parity of every word whose data may disagree with it:
    /// one entry per word [`NodeMemory::inject_bit_flip`] touched, holding
    /// the nibble the word had before its first flip. Every other word's
    /// stored parity is its data's (every other mutator writes both, and
    /// the rows are private), so reads and the patrol check these entries
    /// only. A flip undone by a second flip leaves its entry, which checks
    /// clean, until the word is rewritten or scrubbed.
    flipped: BTreeMap<usize, u8>,
}

/// One row of backing store: its data, with no parity beside it.
type Row = [u32; ROW_WORDS];

/// A row never written: zeros, whose parity is zero.
const ZERO_ROW: Row = [0; ROW_WORDS];

/// Bit `i` = parity of byte lane `i`, for all four lanes at once: an
/// xor-fold leaves each byte's parity in its bit 0, and the multiply
/// gathers bits 0, 8, 16, 24 into bits 24..=27 (the partial products land
/// on distinct bits, none of them in 28..=31, so nothing carries).
#[inline]
fn parity_nibble(word: u32) -> u8 {
    let mut x = word;
    x ^= x >> 4;
    x ^= x >> 2;
    x ^= x >> 1;
    ((x & 0x0101_0101).wrapping_mul(0x0102_0408) >> 24) as u8
}

impl NodeMemory {
    /// A zeroed memory with the given geometry (no row allocated yet).
    pub fn new(cfg: MemCfg) -> NodeMemory {
        cfg.validate().expect("invalid memory geometry");
        NodeMemory {
            cfg,
            rows: (0..cfg.rows()).map(|_| None).collect(),
            dirty: vec![0; cfg.rows().div_ceil(64)],
            flipped: BTreeMap::new(),
        }
    }

    /// The geometry.
    pub fn cfg(&self) -> MemCfg {
        self.cfg
    }

    /// Which bank a row belongs to.
    pub fn bank_of_row(&self, row: usize) -> Bank {
        if row < self.cfg.rows_a() {
            Bank::A
        } else {
            Bank::B
        }
    }

    /// Row `r` as stored, or [`ZERO_ROW`] if it was never written.
    fn row(&self, r: usize) -> &Row {
        self.rows[r].as_deref().unwrap_or(&ZERO_ROW)
    }

    /// Row `r` for writing, allocated zeroed on first use.
    fn row_mut(&mut self, r: usize) -> &mut Row {
        self.rows[r].get_or_insert_with(|| Box::new(ZERO_ROW))
    }

    #[inline]
    fn check(&self, addr: usize) -> Result<(), MemError> {
        if addr < self.cfg.words() {
            Ok(())
        } else {
            Err(MemError::OutOfRange {
                addr,
                words: self.cfg.words(),
            })
        }
    }

    /// The parity error a read of word `addr` raises, given its stored
    /// nibble `stored`: the lowest byte lane whose data disagrees.
    fn fault(&self, addr: usize, stored: u8) -> Option<MemError> {
        let bad = parity_nibble(self.row(addr / ROW_WORDS)[addr % ROW_WORDS]) ^ stored;
        let lane = bad.trailing_zeros() as usize;
        (bad != 0).then_some(MemError::Parity { addr, lane })
    }

    /// The first parity error among the words `range`, in address order.
    fn first_fault(&self, range: Range<usize>) -> Result<(), MemError> {
        self.flipped
            .range(range)
            .find_map(|(&a, &p)| self.fault(a, p))
            .map_or(Ok(()), Err)
    }

    /// Forget the entries of the words `range`, whose data was just written
    /// with its parity.
    fn heal(&mut self, range: Range<usize>) {
        if self.flipped.range(range.clone()).next().is_some() {
            self.flipped.retain(|a, _| !range.contains(a));
        }
    }

    /// Word-port read (charge [`WORD_TIME`]).
    pub fn read_word(&self, addr: usize) -> Result<u32, MemError> {
        self.check(addr)?;
        self.first_fault(addr..addr + 1)?;
        Ok(self.row(addr / ROW_WORDS)[addr % ROW_WORDS])
    }

    /// Word-port write (charge [`WORD_TIME`]).
    pub fn write_word(&mut self, addr: usize, w: u32) -> Result<(), MemError> {
        self.check(addr)?;
        self.row_mut(addr / ROW_WORDS)[addr % ROW_WORDS] = w;
        self.flipped.remove(&addr);
        self.mark_row_dirty(addr / ROW_WORDS);
        Ok(())
    }

    /// Row-port read of one full 1024-byte row into a vector register
    /// buffer (charge [`ROW_TIME`]). Fails at the row's first bad word.
    pub fn read_row(&self, row: usize, out: &mut [u32; ROW_WORDS]) -> Result<(), MemError> {
        let base = row * ROW_WORDS;
        self.check(base + ROW_WORDS - 1)?;
        self.first_fault(base..base + ROW_WORDS)?;
        out.copy_from_slice(self.row(row));
        Ok(())
    }

    /// Row-port write of one full row (charge [`ROW_TIME`]).
    pub fn write_row(&mut self, row: usize, data: &[u32; ROW_WORDS]) -> Result<(), MemError> {
        let base = row * ROW_WORDS;
        self.check(base + ROW_WORDS - 1)?;
        *self.row_mut(row) = *data;
        self.heal(base..base + ROW_WORDS);
        self.mark_row_dirty(row);
        Ok(())
    }

    /// Read a 64-bit value as two consecutive words (low word first).
    pub fn read_u64(&self, addr: usize) -> Result<u64, MemError> {
        Ok(join(&[self.read_word(addr)?, self.read_word(addr + 1)?]))
    }

    /// Write a 64-bit value as two consecutive words (low word first).
    pub fn write_u64(&mut self, addr: usize, v: u64) -> Result<(), MemError> {
        let [lo, hi] = split(v);
        self.write_word(addr, lo)?;
        self.write_word(addr + 1, hi)
    }

    /// Read an `Sf64` stored at `addr` (two words).
    pub fn read_f64(&self, addr: usize) -> Result<ts_fpu::Sf64, MemError> {
        Ok(ts_fpu::Sf64::from_bits(self.read_u64(addr)?))
    }

    /// Write an `Sf64` at `addr` (two words).
    pub fn write_f64(&mut self, addr: usize, v: ts_fpu::Sf64) -> Result<(), MemError> {
        self.write_u64(addr, v.to_bits())
    }

    /// Inject a single-bit fault into the backing store *without* updating
    /// parity — the next read of this word reports a parity error. This is
    /// the fault model behind the checkpoint/restart experiments.
    pub fn inject_bit_flip(&mut self, addr: usize, bit: u32) -> Result<(), MemError> {
        self.check(addr)?;
        let (r, i) = (addr / ROW_WORDS, addr % ROW_WORDS);
        let before = parity_nibble(self.row(r)[i]);
        self.flipped.entry(addr).or_insert(before);
        self.row_mut(r)[i] ^= 1 << (bit % 32);
        self.mark_row_dirty(r);
        Ok(())
    }

    /// Store the parity of the word at `addr` from its data, clearing any
    /// injected corruption (the scrubber's repair step after a restore has
    /// rewritten the word).
    pub fn scrub(&mut self, addr: usize) -> Result<(), MemError> {
        self.check(addr)?;
        self.flipped.remove(&addr);
        Ok(())
    }

    /// Scrub the whole memory — store every word's parity from its data —
    /// and return how many words had mismatched parity. Run by the
    /// recovery path so a restored machine starts with a clean store.
    pub fn scrub_all(&mut self) -> usize {
        let fixed = self.parity_errors();
        self.flipped.clear();
        fixed
    }

    /// Count words whose stored parity disagrees with their data, without
    /// repairing anything. The health monitor's patrol read: a non-zero
    /// count means a latent fault is waiting to fail the next access. Costs
    /// one check per word a fault was injected into since it was last
    /// rewritten or scrubbed, not one per word of memory.
    pub fn parity_errors(&self) -> usize {
        let faults = self.flipped.iter().filter_map(|(&a, &p)| self.fault(a, p));
        faults.count()
    }

    /// Copy the entire contents out (the system disk's snapshot image).
    pub fn snapshot(&self) -> Vec<u32> {
        let mut image = Vec::with_capacity(self.cfg.words());
        for r in 0..self.cfg.rows() {
            image.extend_from_slice(self.row(r));
        }
        image
    }

    /// Restore contents from a snapshot image (the restore path rewrites
    /// every word, data and parity, so no flip survives it). Every row is
    /// marked dirty — the restore physically rewrote it — so callers that
    /// know memory now equals a committed checkpoint should follow up with
    /// [`NodeMemory::clear_dirty`].
    pub fn restore(&mut self, image: &[u32]) {
        assert_eq!(image.len(), self.cfg.words(), "snapshot geometry mismatch");
        for (r, words) in image.chunks_exact(ROW_WORDS).enumerate() {
            // A row never written and zero in the image stays unwritten.
            if self.rows[r].is_some() || words.iter().any(|&w| w != 0) {
                self.row_mut(r).copy_from_slice(words);
            }
        }
        self.flipped.clear();
        self.mark_all_dirty();
    }

    #[inline]
    fn mark_row_dirty(&mut self, row: usize) {
        self.dirty[row >> 6] |= 1 << (row & 63);
    }

    /// Mark every row dirty (a full image was rewritten).
    pub fn mark_all_dirty(&mut self) {
        let rows = self.cfg.rows();
        for (i, w) in self.dirty.iter_mut().enumerate() {
            let lo = i * 64;
            *w = if lo + 64 <= rows {
                u64::MAX
            } else {
                (1u64 << (rows - lo)) - 1
            };
        }
    }

    /// Clear every dirty bit. Call only when the current contents are known
    /// durable (a checkpoint committed, or a restore just reproduced one).
    pub fn clear_dirty(&mut self) {
        self.dirty.fill(0);
    }

    /// Rows written since the last [`NodeMemory::clear_dirty`], ascending.
    pub fn dirty_rows(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (i, &w) in self.dirty.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(i * 64 + b);
                bits &= bits - 1;
            }
        }
        out
    }

    /// Number of dirty rows (cheaper than materialising the list).
    pub fn dirty_row_count(&self) -> usize {
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Capture the current dirty rows as an incremental checkpoint delta.
    /// Pure data extraction — parity is *not* checked, mirroring the full
    /// [`NodeMemory::snapshot`] (the DMA engine reads raw DRAM).
    pub fn snapshot_delta(&self) -> RowDelta {
        let rows = self.dirty_rows();
        let mut words = Vec::with_capacity(rows.len() * ROW_WORDS);
        for &r in &rows {
            words.extend_from_slice(self.row(r));
        }
        RowDelta {
            rows: rows.into_iter().map(|r| r as u32).collect(),
            words,
        }
    }
}

/// An incremental checkpoint: the contents of the rows written since the
/// last committed snapshot. Applying a delta on top of the previous
/// committed full image reproduces the current memory exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowDelta {
    rows: Vec<u32>,
    /// `ROW_WORDS` words per entry of `rows`, concatenated in order.
    words: Vec<u32>,
}

impl RowDelta {
    /// Number of rows carried.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were dirty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Payload size in bytes as streamed to disk: a row index word plus the
    /// row data per dirty row, plus the row-count word.
    pub fn bytes(&self) -> usize {
        (1 + self.rows.len() + self.words.len()) * WORD_BYTES
    }

    /// Flat wire encoding: `[nrows, row indices..., row data...]`.
    pub fn encode(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(1 + self.rows.len() + self.words.len());
        out.push(self.rows.len() as u32);
        out.extend_from_slice(&self.rows);
        out.extend_from_slice(&self.words);
        out
    }

    /// Decode a wire payload produced by [`RowDelta::encode`].
    pub fn decode(payload: &[u32]) -> Option<RowDelta> {
        let &n = payload.first()?;
        let n = n as usize;
        if payload.len() != 1 + n + n * ROW_WORDS {
            return None;
        }
        Some(RowDelta {
            rows: payload[1..1 + n].to_vec(),
            words: payload[1 + n..].to_vec(),
        })
    }

    /// Apply the delta onto a full image (the disk's committed version),
    /// producing the state the delta was captured from.
    pub fn apply_to(&self, image: &mut [u32]) {
        for (i, &r) in self.rows.iter().enumerate() {
            let dst = r as usize * ROW_WORDS;
            let src = i * ROW_WORDS;
            image[dst..dst + ROW_WORDS].copy_from_slice(&self.words[src..src + ROW_WORDS]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        let cfg = MemCfg::default();
        assert_eq!(cfg.words(), 256 * 1024); // 256 K words
        assert_eq!(cfg.bytes(), 1024 * 1024); // 1 MByte
        assert_eq!(cfg.rows(), 1024);
        assert_eq!(cfg.rows_a(), 256); // 256 vectors in one bank, 768 in the other
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn bandwidth_constants_match_paper() {
        // Word port: 4 bytes / 400 ns = 10 MB/s.
        let cp = WORD_TIME.throughput_bytes(4) / 1e6;
        assert!((cp - 10.0).abs() < 1e-9, "{cp}");
        // Row port: 1024 bytes / 400 ns = 2560 MB/s.
        let row = ROW_TIME.throughput_bytes(1024) / 1e6;
        assert!((row - 2560.0).abs() < 1e-9, "{row}");
        // Gather: 1.6 µs per 64-bit element, 0.8 µs per 32-bit.
        assert_eq!(GATHER64_TIME, Dur::us(1) + Dur::ns(600));
        assert_eq!(GATHER32_TIME, Dur::ns(800));
    }

    #[test]
    fn word_roundtrip() {
        let mut m = NodeMemory::new(MemCfg::small(8));
        m.write_word(7, 0xdead_beef).unwrap();
        assert_eq!(m.read_word(7).unwrap(), 0xdead_beef);
        assert_eq!(m.read_word(8).unwrap(), 0);
    }

    #[test]
    fn out_of_range_reported() {
        let m = NodeMemory::new(MemCfg::small(8));
        let words = m.cfg().words();
        assert_eq!(
            m.read_word(words),
            Err(MemError::OutOfRange { addr: words, words })
        );
    }

    #[test]
    fn row_roundtrip_and_banks() {
        let mut m = NodeMemory::new(MemCfg::default());
        let mut row = [0u32; ROW_WORDS];
        for (i, w) in row.iter_mut().enumerate() {
            *w = (i as u32).wrapping_mul(2654435761);
        }
        m.write_row(300, &row).unwrap();
        let mut back = [0u32; ROW_WORDS];
        m.read_row(300, &mut back).unwrap();
        assert_eq!(row, back);
        // Row 300 is in bank B; row 0 in bank A.
        assert_eq!(m.bank_of_row(0), Bank::A);
        assert_eq!(m.bank_of_row(255), Bank::A);
        assert_eq!(m.bank_of_row(256), Bank::B);
        assert_eq!(m.bank_of_row(300), Bank::B);
    }

    #[test]
    fn row_and_word_ports_see_same_storage() {
        let mut m = NodeMemory::new(MemCfg::small(8));
        m.write_word(ROW_WORDS + 5, 12345).unwrap();
        let mut row = [0u32; ROW_WORDS];
        m.read_row(1, &mut row).unwrap();
        assert_eq!(row[5], 12345);
        row[6] = 999;
        m.write_row(1, &row).unwrap();
        assert_eq!(m.read_word(ROW_WORDS + 6).unwrap(), 999);
    }

    #[test]
    fn f64_storage() {
        let mut m = NodeMemory::new(MemCfg::small(8));
        let v = ts_fpu::Sf64::from(std::f64::consts::PI);
        m.write_f64(10, v).unwrap();
        assert_eq!(m.read_f64(10).unwrap().to_host(), std::f64::consts::PI);
    }

    #[test]
    fn parity_catches_injected_fault() {
        let mut m = NodeMemory::new(MemCfg::small(8));
        m.write_word(42, 0x0102_0304).unwrap();
        m.inject_bit_flip(42, 9).unwrap(); // flips a bit in byte lane 1
        match m.read_word(42) {
            Err(MemError::Parity { addr: 42, lane: 1 }) => {}
            other => panic!("expected parity error, got {other:?}"),
        }
        // Row port sees it too.
        let mut row = [0u32; ROW_WORDS];
        assert!(matches!(
            m.read_row(0, &mut row),
            Err(MemError::Parity { addr: 42, .. })
        ));
        // Rewriting the word clears the fault.
        m.write_word(42, 7).unwrap();
        assert_eq!(m.read_word(42).unwrap(), 7);
    }

    #[test]
    fn parity_nibble_equals_per_lane_popcount() {
        fn by_lane(word: u32) -> u8 {
            (0..4).fold(0, |p, lane| {
                let byte = (word >> (8 * lane)) as u8;
                p | ((byte.count_ones() as u8 & 1) << lane)
            })
        }
        // Every pattern of each half-word, with the other half clear and set.
        for half in 0..=0xffffu32 {
            for word in [half, half << 16, half | 0xffff_0000, (half << 16) | 0xffff] {
                assert_eq!(parity_nibble(word), by_lane(word), "{word:#010x}");
            }
        }
        let mut rng = ts_sim::Rng::new(0x9a71_0001);
        for _ in 0..1 << 20 {
            let word = rng.next_u32();
            assert_eq!(parity_nibble(word), by_lane(word), "{word:#010x}");
        }
    }

    #[test]
    fn row_read_reports_the_lowest_faulting_word() {
        let mut m = NodeMemory::new(MemCfg::small(8));
        let mut row = [0u32; ROW_WORDS];
        for (i, w) in row.iter_mut().enumerate() {
            *w = (i as u32).wrapping_mul(2654435761);
        }
        m.write_row(1, &row).unwrap();
        // Two flips, the higher address injected first and in a lower lane.
        m.inject_bit_flip(ROW_WORDS + 200, 3).unwrap();
        m.inject_bit_flip(ROW_WORDS + 77, 21).unwrap();
        let mut out = [7u32; ROW_WORDS];
        assert_eq!(
            m.read_row(1, &mut out),
            Err(MemError::Parity {
                addr: ROW_WORDS + 77,
                lane: 2
            })
        );
        assert_eq!(out, [7; ROW_WORDS], "a faulted read delivers nothing");
        // Two flips in one word report the lower lane.
        m.inject_bit_flip(ROW_WORDS + 77, 8).unwrap();
        assert_eq!(
            m.read_row(1, &mut out),
            Err(MemError::Parity {
                addr: ROW_WORDS + 77,
                lane: 1
            })
        );
        m.scrub(ROW_WORDS + 77).unwrap();
        m.scrub(ROW_WORDS + 200).unwrap();
        m.read_row(1, &mut out).unwrap();
        assert_eq!(out[78], row[78]);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut m = NodeMemory::new(MemCfg::small(8));
        for i in 0..m.cfg().words() {
            m.write_word(i, i as u32 ^ 0x5a5a).unwrap();
        }
        let snap = m.snapshot();
        for i in 0..16 {
            m.write_word(i, 0).unwrap();
        }
        m.inject_bit_flip(20, 3).unwrap();
        m.restore(&snap);
        for i in 0..m.cfg().words() {
            assert_eq!(m.read_word(i).unwrap(), i as u32 ^ 0x5a5a);
        }
    }

    #[test]
    fn a_row_is_its_data_alone() {
        assert_eq!(std::mem::size_of::<Row>(), ROW_BYTES);
    }

    /// Rows allocated so far.
    fn resident(m: &NodeMemory) -> usize {
        m.rows.iter().flatten().count()
    }

    #[test]
    fn rows_are_allocated_on_first_write() {
        let mut m = NodeMemory::new(MemCfg::default());
        assert_eq!(resident(&m), 0, "a fresh memory holds no row");
        // An untouched row reads zero, clean through both ports, and a read
        // neither allocates nor dirties it.
        let mut out = [7u32; ROW_WORDS];
        m.read_row(600, &mut out).unwrap();
        assert_eq!(out, [0; ROW_WORDS]);
        assert_eq!(m.read_u64(5 * ROW_WORDS + 8).unwrap(), 0);
        assert_eq!((resident(&m), m.parity_errors(), m.scrub_all()), (0, 0, 0));
        assert_eq!(m.dirty_rows(), Vec::<usize>::new());
        m.write_word(3 * ROW_WORDS + 1, 9).unwrap();
        assert_eq!((resident(&m), m.dirty_rows()), (1, vec![3]));
        // A flip on an untouched row allocates it and is caught.
        m.inject_bit_flip(900 * ROW_WORDS + 4, 12).unwrap();
        assert_eq!((resident(&m), m.parity_errors()), (2, 1));
        assert_eq!(m.dirty_rows(), vec![3, 900]);
        assert!(matches!(
            m.read_word(900 * ROW_WORDS + 4),
            Err(MemError::Parity { lane: 1, .. })
        ));
    }

    #[test]
    fn a_sparse_image_round_trips_and_stays_sparse() {
        let mut m = NodeMemory::new(MemCfg::default());
        m.write_word(17, 0xfeed).unwrap();
        m.write_word(700 * ROW_WORDS + 255, 0xbeef).unwrap();
        let image = m.snapshot();
        assert_eq!(image.len(), m.cfg().words());

        let mut fresh = NodeMemory::new(MemCfg::default());
        fresh.restore(&image);
        assert_eq!(resident(&fresh), 2, "zero rows of the image stay unwritten");
        assert_eq!(fresh.snapshot(), image);
        assert_eq!(fresh.dirty_row_count(), fresh.cfg().rows());
        // Over a memory that held other rows, the image's zeros win.
        m.write_word(40 * ROW_WORDS, 1).unwrap();
        m.inject_bit_flip(41 * ROW_WORDS, 0).unwrap();
        m.restore(&image);
        assert_eq!(m.snapshot(), image);
        assert_eq!(m.parity_errors(), 0);
    }

    #[test]
    fn small_geometry() {
        let cfg = MemCfg::small(16);
        assert_eq!(cfg.rows(), 16);
        assert_eq!(cfg.rows_a(), 4);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn bad_small_geometry() {
        let _ = MemCfg::small(6);
    }

    #[test]
    fn writes_set_dirty_bits_per_row() {
        let mut m = NodeMemory::new(MemCfg::small(8));
        assert_eq!(m.dirty_rows(), Vec::<usize>::new());
        m.write_word(3, 1).unwrap(); // row 0
        m.write_word(2 * ROW_WORDS + 1, 2).unwrap(); // row 2
        let row = [7u32; ROW_WORDS];
        m.write_row(5, &row).unwrap();
        assert_eq!(m.dirty_rows(), vec![0, 2, 5]);
        assert_eq!(m.dirty_row_count(), 3);
        m.clear_dirty();
        assert_eq!(m.dirty_row_count(), 0);
        // A 64-bit write and an injected fault both dirty their row.
        m.write_u64(ROW_WORDS, 0xABCD_EF01_2345_6789).unwrap();
        m.inject_bit_flip(6 * ROW_WORDS, 3).unwrap();
        assert_eq!(m.dirty_rows(), vec![1, 6]);
    }

    #[test]
    fn delta_over_committed_image_reproduces_memory() {
        let mut m = NodeMemory::new(MemCfg::small(8));
        for i in 0..m.cfg().words() {
            m.write_word(i, i as u32).unwrap();
        }
        let committed = m.snapshot();
        m.clear_dirty();
        // Touch two rows.
        m.write_word(5, 999).unwrap();
        m.write_word(3 * ROW_WORDS + 7, 777).unwrap();
        let delta = m.snapshot_delta();
        assert_eq!(delta.row_count(), 2);
        assert!(delta.bytes() < m.cfg().bytes(), "delta beats full");
        // Wire round trip, then apply onto the committed version.
        let decoded = RowDelta::decode(&delta.encode()).unwrap();
        assert_eq!(decoded, delta);
        let mut image = committed;
        decoded.apply_to(&mut image);
        assert_eq!(image, m.snapshot());
    }

    #[test]
    fn empty_and_corrupt_delta_payloads() {
        let m = NodeMemory::new(MemCfg::small(8));
        let d = m.snapshot_delta();
        assert!(d.is_empty());
        assert_eq!(d.bytes(), WORD_BYTES); // just the count word
        assert_eq!(RowDelta::decode(&d.encode()).unwrap(), d);
        assert!(RowDelta::decode(&[]).is_none());
        assert!(RowDelta::decode(&[2, 0]).is_none(), "truncated payload");
    }

    #[test]
    fn restore_marks_all_rows_dirty() {
        let mut m = NodeMemory::new(MemCfg::small(8));
        let snap = m.snapshot();
        m.clear_dirty();
        m.restore(&snap);
        assert_eq!(m.dirty_row_count(), m.cfg().rows());
        m.clear_dirty();
        m.mark_all_dirty();
        assert_eq!(m.dirty_rows().len(), 8);
        assert_eq!(*m.dirty_rows().last().unwrap(), 7);
    }
}
