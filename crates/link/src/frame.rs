//! CRC-16 and flit framing: what a message looks like on the wire.
//!
//! Messages are framed into flits of [`FLIT_WORDS`] payload words, each
//! carrying a sequence number and a [`crc16`] trailer; the receiver NAKs a
//! flit whose CRC fails (see the `transport` module for the recovery).

/// 256-entry lookup table for CRC-16/CCITT-FALSE (polynomial 0x1021),
/// built at compile time — the table-driven form a link adapter's firmware
/// would burn into ROM.
const CRC16_TABLE: [u16; 256] = build_crc16_table();

const fn build_crc16_table() -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC register before the first byte.
const CRC_INIT: u16 = 0xFFFF;

/// Shift one byte into the CRC register.
#[inline]
fn crc_step(crc: u16, b: u8) -> u16 {
    (crc << 8) ^ CRC16_TABLE[(((crc >> 8) ^ b as u16) & 0xFF) as usize]
}

/// CRC-16/CCITT-FALSE over a byte stream (init 0xFFFF, no reflection, no
/// final XOR). The check vector: `crc16(b"123456789") == 0x29B1`.
pub fn crc16(bytes: &[u8]) -> u16 {
    bytes.iter().fold(CRC_INIT, |crc, &b| crc_step(crc, b))
}

/// Payload words per flit (the DMA engine's burst unit).
pub(crate) const FLIT_WORDS: usize = 4;

/// One framed flit: a sequence number, up to `FLIT_WORDS` (4) payload words,
/// and a CRC-16 over both.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Flit {
    /// Sequence number within the message.
    pub seq: u32,
    /// Payload words (the last flit of a message may be short).
    pub payload: Vec<u32>,
    /// CRC-16/CCITT-FALSE over the sequence word and the payload.
    pub crc: u16,
}

impl Flit {
    /// Wire overhead per flit beyond the payload: 4 bytes of sequence
    /// number + 2 bytes of CRC.
    pub const OVERHEAD_BYTES: usize = 6;

    /// Frame `seq` + `payload` with a freshly computed CRC.
    pub fn new(seq: u32, payload: Vec<u32>) -> Flit {
        let crc = Self::compute_crc(seq, &payload);
        Flit { seq, payload, crc }
    }

    /// CRC over the sequence word then the payload words, each fed
    /// big-endian byte by byte (the order the serializer shifts them onto
    /// the wire).
    fn compute_crc(seq: u32, payload: &[u32]) -> u16 {
        std::iter::once(&seq)
            .chain(payload)
            .flat_map(|w| w.to_be_bytes())
            .fold(CRC_INIT, crc_step)
    }

    /// Split a message into sequence-numbered flits of `FLIT_WORDS` (4)
    /// payload words each.
    pub fn frame(words: &[u32]) -> Vec<Flit> {
        if words.is_empty() {
            return vec![Flit::new(0, Vec::new())];
        }
        words
            .chunks(FLIT_WORDS)
            .enumerate()
            .map(|(i, chunk)| Flit::new(i as u32, chunk.to_vec()))
            .collect()
    }

    /// True when the stored CRC matches the sequence word and payload.
    pub fn check(&self) -> bool {
        self.crc == Self::compute_crc(self.seq, &self.payload)
    }

    /// Flip one payload bit (`bit` taken mod the payload width) — the
    /// transient a noisy wire inflicts mid-frame.
    pub fn flip_bit(&mut self, bit: u64) {
        if self.payload.is_empty() {
            // A headerless runt: flip a sequence bit instead.
            self.seq ^= 1 << (bit % 32);
            return;
        }
        let bit = bit % (self.payload.len() as u64 * 32);
        self.payload[(bit / 32) as usize] ^= 1 << (bit % 32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc16_matches_the_ccitt_false_check_vector() {
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(crc16(b""), 0xFFFF);
    }

    #[test]
    fn flit_crc_is_crc16_over_the_serialized_flit() {
        // The flit CRC and the byte-fed CRC are one table step: a flit's
        // trailer is `crc16` of its sequence word then its payload words,
        // big-endian.
        let serialized = |seq: u32, payload: &[u32]| -> Vec<u8> {
            let mut bytes = seq.to_be_bytes().to_vec();
            for w in payload {
                bytes.extend_from_slice(&w.to_be_bytes());
            }
            bytes
        };
        // "1234" as the sequence word, "5678" as payload: the check
        // vector's first eight bytes ('9' does not fill a word).
        let flit = Flit::new(0x3132_3334, vec![0x3536_3738]);
        assert_eq!(serialized(flit.seq, &flit.payload), b"12345678");
        assert_eq!(flit.crc, crc16(b"12345678"));
        let mut rng = ts_sim::Rng::new(0x11c0_c4c1);
        for _ in 0..1000 {
            let payload: Vec<u32> = (0..rng.range(0, FLIT_WORDS + 1))
                .map(|_| rng.next_u32())
                .collect();
            let flit = Flit::new(rng.next_u32(), payload);
            assert_eq!(flit.crc, crc16(&serialized(flit.seq, &flit.payload)));
            assert!(flit.check());
        }
    }

    #[test]
    fn framing_round_trips_and_crc_checks() {
        let words: Vec<u32> = (0..10).collect();
        let flits = Flit::frame(&words);
        assert_eq!(flits.len(), 3, "10 words / 4 per flit");
        assert_eq!(flits[2].payload.len(), 2, "short tail flit");
        let mut rebuilt = Vec::new();
        for (i, f) in flits.iter().enumerate() {
            assert_eq!(f.seq, i as u32);
            assert!(f.check(), "fresh flit must verify");
            rebuilt.extend_from_slice(&f.payload);
        }
        assert_eq!(rebuilt, words);
        // An empty message still frames as one (runt) flit.
        assert_eq!(Flit::frame(&[]).len(), 1);
    }

    #[test]
    fn single_bit_flips_are_always_detected() {
        let flit = Flit::new(3, vec![0xDEAD_BEEF, 0x0123_4567, 0, u32::MAX]);
        for bit in 0..128 {
            let mut hit = flit.clone();
            hit.flip_bit(bit);
            assert!(!hit.check(), "bit {bit} slipped past the CRC");
        }
    }
}
