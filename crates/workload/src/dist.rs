//! Sampling distributions for arrival and service processes.
//!
//! Everything draws from the workspace's deterministic [`Rng`]
//! (xorshift64* — no external crates), so a seed pins the whole stream:
//! the same [`Dist`] and seed produce the same samples forever, on every
//! platform the repo targets. The menu covers what machine-room traces
//! actually look like: exponential interarrivals (a Poisson stream),
//! Pareto and lognormal for the heavy tails real job runtimes and bursty
//! arrival gaps exhibit, plus fixed and uniform for calibration runs.

use std::f64::consts::PI;

use ts_sim::Rng;

/// A continuous distribution over non-negative values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Every sample is exactly `v`.
    Fixed(f64),
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Exponential with the given mean — interarrival gaps of a Poisson
    /// process with rate `1 / mean`.
    Exp {
        /// Mean of the distribution.
        mean: f64,
    },
    /// Pareto (type I): density `∝ x^-(alpha+1)` on `[xmin, ∞)`. The
    /// classic heavy tail; `alpha ≤ 1` has infinite mean, `alpha ≤ 2`
    /// infinite variance. Supercomputer service times are commonly fit
    /// with `alpha` around 1.2–2.5.
    Pareto {
        /// Scale: smallest possible sample.
        xmin: f64,
        /// Tail index: smaller is heavier.
        alpha: f64,
    },
    /// Lognormal: `exp(N(mu, sigma²))`. Median `e^mu`; the usual fit for
    /// job runtimes with a moderate tail.
    LogNormal {
        /// Mean of the underlying normal (log-space).
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
}

impl Dist {
    /// Draw one sample. Consumes one or two RNG values depending on the
    /// variant, so a stream of samples is reproducible given the seed
    /// *and* the draw order.
    pub fn sample(&self, rng: &mut Rng) -> f64 {
        match *self {
            Dist::Fixed(v) => v,
            Dist::Uniform { lo, hi } => lo + (hi - lo) * rng.f64(),
            Dist::Exp { mean } => rng.exp(mean),
            Dist::Pareto { xmin, alpha } => {
                // Inverse CDF: xmin · u^(-1/alpha). Clamp u away from 0
                // so the tail stays finite.
                let u = rng.f64().max(f64::EPSILON);
                xmin * u.powf(-1.0 / alpha)
            }
            Dist::LogNormal { mu, sigma } => {
                // Box–Muller on two uniforms; one sample per draw keeps
                // the stream position deterministic (the sine half is
                // discarded rather than cached).
                let u1 = rng.f64().max(f64::EPSILON);
                let u2 = rng.f64();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos();
                (mu + sigma * z).exp()
            }
        }
    }

    /// The distribution's mean, where finite (`None` for a Pareto with
    /// `alpha ≤ 1`). Used to size offered load analytically.
    pub fn mean(&self) -> Option<f64> {
        match *self {
            Dist::Fixed(v) => Some(v),
            Dist::Uniform { lo, hi } => Some((lo + hi) / 2.0),
            Dist::Exp { mean } => Some(mean),
            Dist::Pareto { xmin, alpha } => (alpha > 1.0).then(|| alpha * xmin / (alpha - 1.0)),
            Dist::LogNormal { mu, sigma } => Some((mu + sigma * sigma / 2.0).exp()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean(d: Dist, n: usize, seed: u64) -> f64 {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn samples_are_deterministic_per_seed() {
        for d in [
            Dist::Exp { mean: 3.0 },
            Dist::Pareto {
                xmin: 1.0,
                alpha: 1.5,
            },
            Dist::LogNormal {
                mu: 0.0,
                sigma: 1.0,
            },
            Dist::Uniform { lo: 2.0, hi: 4.0 },
        ] {
            let mut a = Rng::new(42);
            let mut b = Rng::new(42);
            for _ in 0..100 {
                assert_eq!(d.sample(&mut a).to_bits(), d.sample(&mut b).to_bits());
            }
        }
    }

    #[test]
    fn means_converge() {
        let exp = Dist::Exp { mean: 5.0 };
        let got = empirical_mean(exp, 40_000, 7);
        assert!((got - 5.0).abs() < 0.25, "exp mean {got}");

        let par = Dist::Pareto {
            xmin: 2.0,
            alpha: 3.0,
        };
        let want = par.mean().unwrap(); // 3.0
        let got = empirical_mean(par, 40_000, 8);
        assert!((got - want).abs() < 0.2, "pareto mean {got} want {want}");

        let ln = Dist::LogNormal {
            mu: 1.0,
            sigma: 0.5,
        };
        let want = ln.mean().unwrap();
        let got = empirical_mean(ln, 40_000, 9);
        assert!(
            (got / want - 1.0).abs() < 0.1,
            "lognormal mean {got} want {want}"
        );
    }

    #[test]
    fn pareto_tail_is_heavy_and_bounded_below() {
        let d = Dist::Pareto {
            xmin: 1.0,
            alpha: 1.2,
        };
        let mut rng = Rng::new(1986);
        let mut max = 0.0f64;
        for _ in 0..20_000 {
            let v = d.sample(&mut rng);
            assert!(v >= 1.0);
            max = max.max(v);
        }
        // A 20k draw from alpha=1.2 all but surely exceeds 100× xmin.
        assert!(max > 100.0, "heavy tail missing: max {max}");
        assert!(d.mean().unwrap() > 5.9); // alpha/(alpha-1) = 6
        assert_eq!(
            Dist::Pareto {
                xmin: 1.0,
                alpha: 0.9
            }
            .mean(),
            None
        );
    }
}
