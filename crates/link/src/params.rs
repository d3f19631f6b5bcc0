//! Line rate and framing arithmetic of one serial link.

use ts_sim::Dur;

/// Line rate and framing of one serial link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkParams {
    /// Raw line rate, bits per second.
    pub bit_rate: u64,
    /// Bits framing each data byte on the forward wire
    /// (2 sync + 8 data + 1 stop = 11).
    pub frame_bits: u64,
    /// Acknowledge bits returned per byte.
    pub ack_bits: u64,
    /// Dead bit-times waiting for the (non-overlapped) acknowledge.
    pub turnaround_bits: u64,
    /// DMA engine startup per message.
    pub dma_startup: Dur,
}

impl Default for LinkParams {
    /// The paper calibration: 2.0 µs/byte effective (0.5 MB/s), 5 µs DMA
    /// startup.
    fn default() -> Self {
        LinkParams {
            bit_rate: 10_000_000,
            frame_bits: 11,
            ack_bits: 2,
            turnaround_bits: 7,
            dma_startup: Dur::us(5),
        }
    }
}

impl LinkParams {
    /// Wall-clock time for one framed, acknowledged byte.
    pub fn byte_time(&self) -> Dur {
        let bits = self.frame_bits + self.ack_bits + self.turnaround_bits;
        // bit time in ps = 1e12 / rate; exact for the default 10 MHz.
        Dur::ps(bits * 1_000_000_000_000 / self.bit_rate)
    }

    /// Wire-occupancy time for a payload of `bytes` (excludes DMA startup).
    pub fn wire_time(&self, bytes: usize) -> Dur {
        self.byte_time() * bytes as u64
    }

    /// Full message latency when the wire is idle: startup + transfer.
    pub fn message_time(&self, bytes: usize) -> Dur {
        self.dma_startup + self.wire_time(bytes)
    }

    /// Effective unidirectional bandwidth in MB/s (paper: "over 0.5").
    pub fn effective_mb_per_s(&self) -> f64 {
        self.byte_time().throughput_bytes(1) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_paper() {
        let p = LinkParams::default();
        assert_eq!(p.byte_time(), Dur::us(2));
        // Effective unidirectional rate = 0.5 MB/s.
        assert!((p.effective_mb_per_s() - 0.5).abs() < 1e-12);
        // A 64-bit word costs 16 µs on the wire — the paper's ratio basis.
        assert_eq!(p.wire_time(8), Dur::us(16));
        // Raw line rate is 10 Mb/s but framing eats 9/20 of it.
        let raw_mb = p.bit_rate as f64 / 8.0 / 1e6;
        assert!(p.effective_mb_per_s() < raw_mb / 2.0);
    }

    #[test]
    fn dma_startup_amortization() {
        // Message latency = 5 µs + 2 µs/byte: tiny messages are startup
        // dominated; the crossover where startup is half the cost is 2.5
        // bytes — the argument for the paper's ~130-ops-per-word rule.
        let p = LinkParams::default();
        assert_eq!(p.message_time(1), Dur::us(7));
        assert_eq!(p.message_time(8), Dur::us(21));
        assert_eq!(p.message_time(1024), Dur::us(5 + 2048));
        let eff_1k = p.message_time(1024).throughput_bytes(1024) / 1e6;
        assert!(eff_1k > 0.49, "{eff_1k}");
    }
}
