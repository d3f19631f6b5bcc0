//! Summaries of repeated measurements, and the FNV-1a result digest.

/// Median and quartiles of a set of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise `samples` (at least one). Quartiles follow the exclusive
    /// method of Python's `statistics.quantiles(v, n=4)`, the rule the
    /// benchmark contract measures spread with; a single sample is its own
    /// quartiles.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let at = |i: i64| -> f64 {
            if n == 1 {
                return v[0];
            }
            let m = n as i64 + 1;
            let j = (i * m / 4).clamp(1, n as i64 - 1);
            let delta = (i * m - j * 4) as f64;
            (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
        };
        Summary {
            n,
            q1: at(1),
            median: at(2),
            q3: at(3),
            min: v[0],
            max: v[n - 1],
        }
    }

    /// Interquartile distance as a share of the median (0 when the median
    /// is 0): the run-to-run spread `compare` weighs a difference against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Median of `samples` (at least one).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// FNV-1a, 64 bit: the repo's dependency-free digest (the golden digests of
/// the root test suite use the same constants).
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Fold one integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold one float in, by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let s = Summary::of(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 3.0, 4.5));
        assert_eq!(Summary::of(&[7.0]).spread(), 0.0);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }
}
