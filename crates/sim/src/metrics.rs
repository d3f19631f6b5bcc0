//! Metrics: one typed, hierarchical registry.
//!
//! [`MetricsRegistry`] is the machine-wide store, and the only one.
//! Producers register a handle once — a [`Counter`], a [`BusyTime`]
//! accumulator or a log₂-bucket [`Histogram`] — under a scoped path such as
//! `node/3/vec/flops`, then bump the handle on the hot path with nothing
//! but a `Cell` store: no map lookup, no allocation, no string. Cold paths
//! (fault bookkeeping, router retries, supervisor accounting) register
//! their counter at the moment they first bump it. Consumers read handles
//! they hold, [`MetricsRegistry::sum_counters`] /
//! [`MetricsRegistry::get_counter`], or walk [`MetricsRegistry::snapshot`]
//! (paths in natural order, so `node/2` precedes `node/10`).

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::time::Dur;

// ---------------------------------------------------------------------------
// Natural ordering
// ---------------------------------------------------------------------------

/// Compare two strings in *natural* order: maximal digit runs compare as
/// integers, everything else byte-wise. `"n2.vec" < "n10.vec"` and
/// `"node/2/cp" < "node/10/cp"`, where plain lexicographic order would put
/// the 10 first. Used to sort metric paths and trace tracks
/// deterministically by (node, unit).
pub fn natural_cmp(a: &str, b: &str) -> Ordering {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i].is_ascii_digit() && b[j].is_ascii_digit() {
            let (mut x, mut y) = (i, j);
            while x < a.len() && a[x].is_ascii_digit() {
                x += 1;
            }
            while y < b.len() && b[y].is_ascii_digit() {
                y += 1;
            }
            // Strip leading zeros, then compare by length and digits.
            let da = {
                let mut s = i;
                while s + 1 < x && a[s] == b'0' {
                    s += 1;
                }
                &a[s..x]
            };
            let db = {
                let mut s = j;
                while s + 1 < y && b[s] == b'0' {
                    s += 1;
                }
                &b[s..y]
            };
            let ord = da.len().cmp(&db.len()).then_with(|| da.cmp(db));
            if ord != Ordering::Equal {
                return ord;
            }
            i = x;
            j = y;
        } else {
            let ord = a[i].cmp(&b[j]);
            if ord != Ordering::Equal {
                return ord;
            }
            i += 1;
            j += 1;
        }
    }
    (a.len() - i).cmp(&(b.len() - j))
}

// ---------------------------------------------------------------------------
// Typed handles
// ---------------------------------------------------------------------------

/// A pre-registered event counter. Cloning shares the underlying cell;
/// incrementing is a single `Cell` store — allocation-free and lookup-free.
#[derive(Clone, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// New standalone counter (normally obtained from a registry).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().wrapping_add(n));
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A pre-registered busy-time accumulator (stored as picoseconds).
#[derive(Clone, Default)]
pub struct BusyTime(Rc<Cell<u64>>);

impl BusyTime {
    /// New standalone accumulator (normally obtained from a registry).
    pub fn new() -> BusyTime {
        BusyTime::default()
    }

    /// Accumulate a span of busy time.
    #[inline]
    pub fn add(&self, d: Dur) {
        self.0.set(self.0.get().wrapping_add(d.as_ps()));
    }

    /// Total accumulated busy time.
    #[inline]
    pub fn get(&self) -> Dur {
        Dur::ps(self.0.get())
    }
}

/// Number of buckets in a [`Histogram`]: bucket 0 holds the value 0 and
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`, so all of `u64` fits.
pub const HIST_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples (message latencies in ns,
/// vector-op lengths, queue depths, hop counts).
#[derive(Clone)]
pub struct Histogram(Rc<RefCell<HistInner>>);

struct HistInner {
    counts: [u64; HIST_BUCKETS],
    total: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Rc::new(RefCell::new(HistInner {
            counts: [0; HIST_BUCKETS],
            total: 0,
            sum: 0,
        })))
    }
}

impl Histogram {
    /// New standalone histogram (normally obtained from a registry).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Bucket index a value lands in: 0 for 0, else `⌊log₂ v⌋ + 1`.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Value range `[lo, hi)` covered by `bucket`; the last bucket,
    /// `[2^63, u64::MAX]`, is inclusive, since `u64::MAX` lands in it.
    pub fn bucket_range(bucket: usize) -> (u64, u64) {
        match bucket {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            b => (1 << (b - 1), 1 << b),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&self, v: u64) {
        let mut h = self.0.borrow_mut();
        h.counts[Self::bucket_of(v)] += 1;
        h.total += 1;
        h.sum += v as u128;
    }

    /// Number of samples recorded.
    pub fn total(&self) -> u64 {
        self.0.borrow().total
    }

    /// Mean of all samples (0.0 if empty).
    pub fn mean(&self) -> f64 {
        let h = self.0.borrow();
        if h.total == 0 {
            0.0
        } else {
            h.sum as f64 / h.total as f64
        }
    }

    /// Snapshot of all bucket counts.
    pub fn counts(&self) -> Vec<u64> {
        self.0.borrow().counts.to_vec()
    }

    /// The histogram's summary as plain data.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            counts: self.counts(),
            total: self.total(),
            mean: self.mean(),
        }
    }

    /// See [`HistSnapshot::quantile_bound`].
    pub fn quantile_bound(&self, q: f64) -> u64 {
        self.snapshot().quantile_bound(q)
    }

    /// See [`HistSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// A plain-data summary of a [`Histogram`], or of several merged: bucket
/// counts, sample count and mean (kept as the `f64` the live histogram
/// computed, so a merged weighted mean reproduces bit for bit). It is
/// `Send`, so per-shard captures cross threads.
#[derive(Clone, Debug, PartialEq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts ([`HIST_BUCKETS`] entries).
    pub counts: Vec<u64>,
    /// Number of samples.
    pub total: u64,
    /// Mean sample value (0.0 if empty).
    pub mean: f64,
}

impl HistSnapshot {
    /// Merge `snaps` into one summary: bucket adds, then a weighted mean
    /// accumulated in input order (the `f64` accumulation order is part of
    /// the utilization report's byte-for-byte contract).
    pub fn merge(snaps: &[HistSnapshot]) -> HistSnapshot {
        let mut counts = vec![0u64; HIST_BUCKETS];
        let mut total = 0u64;
        let mut weighted = 0.0f64;
        for s in snaps {
            for (acc, c) in counts.iter_mut().zip(s.counts.iter()) {
                *acc += c;
            }
            total += s.total;
            weighted += s.mean * s.total as f64;
        }
        let mean = if total > 0 {
            weighted / total as f64
        } else {
            0.0
        };
        HistSnapshot {
            counts,
            total,
            mean,
        }
    }

    /// The bucket holding the rank-`⌈q·total⌉` sample (rank at least 1),
    /// and that sample's rank within the bucket; `None` if there are no
    /// samples. Every quantile read walks through here.
    fn rank_bucket(&self, q: f64) -> Option<(usize, u64)> {
        if self.total == 0 {
            return None;
        }
        let mut rank = ((self.total as f64 * q).ceil() as u64).clamp(1, self.total);
        for (b, &c) in self.counts.iter().enumerate() {
            if rank <= c {
                return Some((b, rank));
            }
            rank -= c;
        }
        None
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`); 0 if there are no samples.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        self.rank_bucket(q)
            .map_or(0, |(b, _)| Histogram::bucket_range(b).1)
    }

    /// Point estimate of the `q`-quantile (`q` in `[0, 1]`): the bucket
    /// holding the rank-`⌈q·n⌉` sample, interpolated linearly through the
    /// bucket's value range under a uniform-within-bucket assumption and
    /// clamped to it. Tighter than [`HistSnapshot::quantile_bound`] (which
    /// always reports `hi`), and exact for buckets 0 and 1 where the range
    /// is a single value. 0 if there are no samples.
    pub fn quantile(&self, q: f64) -> u64 {
        self.rank_bucket(q).map_or(0, |(b, rank)| {
            let (lo, hi) = Histogram::bucket_range(b);
            // Position of the rank within this bucket, in (0, 1].
            let frac = rank as f64 / self.counts[b] as f64;
            lo + (((hi - lo) as f64 * frac).round() as u64).min(hi - lo)
        })
    }
}

/// Achieved MFLOPS: `flops` over the simulated span `over`; 0 over zero
/// time.
pub fn mflops(flops: u64, over: Dur) -> f64 {
    let secs = over.as_secs_f64();
    if secs == 0.0 {
        0.0
    } else {
        flops as f64 / secs / 1e6
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum Slot {
    Counter(Counter),
    Busy(BusyTime),
    Hist(Histogram),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Busy(_) => "busy-time",
            Slot::Hist(_) => "histogram",
        }
    }
}

/// A snapshot value read back from a [`MetricsRegistry`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// An event count.
    Count(u64),
    /// Accumulated busy time.
    Busy(Dur),
    /// Histogram summary.
    Hist(HistSnapshot),
}

/// Typed, hierarchical metrics store shared by every unit of a machine.
///
/// Paths are `/`-separated — by convention `node/{id}/{unit}/{metric}` for
/// per-node units and bare scopes like `wire/...` or `collective/...` for
/// shared infrastructure. Registering the same path twice returns a handle
/// to the same underlying cell (so producers and consumers can rendezvous
/// on a path), but re-registering with a different *kind* panics.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<BTreeMap<String, Slot>>>,
}

impl MetricsRegistry {
    /// New, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn register(&self, path: &str, make: Slot) -> Slot {
        let mut map = self.inner.borrow_mut();
        if let Some(existing) = map.get(path) {
            assert!(
                std::mem::discriminant(existing) == std::mem::discriminant(&make),
                "metric {path:?} already registered as a {}",
                existing.kind()
            );
            return existing.clone();
        }
        map.insert(path.to_string(), make.clone());
        make
    }

    /// Register (or look up) a counter at `path`.
    pub fn counter(&self, path: &str) -> Counter {
        match self.register(path, Slot::Counter(Counter::new())) {
            Slot::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Register (or look up) a busy-time accumulator at `path`.
    pub fn busy_time(&self, path: &str) -> BusyTime {
        match self.register(path, Slot::Busy(BusyTime::new())) {
            Slot::Busy(b) => b,
            _ => unreachable!(),
        }
    }

    /// Register (or look up) a histogram at `path`.
    pub fn histogram(&self, path: &str) -> Histogram {
        match self.register(path, Slot::Hist(Histogram::new())) {
            Slot::Hist(h) => h,
            _ => unreachable!(),
        }
    }

    /// A view of this registry that prefixes every path with `prefix/`.
    pub fn scope(&self, prefix: &str) -> MetricsScope {
        MetricsScope {
            reg: self.clone(),
            prefix: prefix.to_string(),
        }
    }

    /// Read a counter's value, if registered.
    pub fn get_counter(&self, path: &str) -> Option<u64> {
        match self.inner.borrow().get(path) {
            Some(Slot::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Read a busy-time accumulator's value, if registered.
    pub fn get_busy(&self, path: &str) -> Option<Dur> {
        match self.inner.borrow().get(path) {
            Some(Slot::Busy(b)) => Some(b.get()),
            _ => None,
        }
    }

    /// Sum of every registered counter whose path ends with `/suffix`.
    pub fn sum_counters(&self, suffix: &str) -> u64 {
        self.inner
            .borrow()
            .iter()
            .filter_map(|(k, v)| match v {
                Slot::Counter(c) if k.ends_with(suffix) => Some(c.get()),
                _ => None,
            })
            .sum()
    }

    /// Snapshot every metric, sorted by path in natural order (so
    /// `node/2/...` precedes `node/10/...`).
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let mut out: Vec<(String, MetricValue)> = self
            .inner
            .borrow()
            .iter()
            .map(|(k, v)| {
                let val = match v {
                    Slot::Counter(c) => MetricValue::Count(c.get()),
                    Slot::Busy(b) => MetricValue::Busy(b.get()),
                    Slot::Hist(h) => MetricValue::Hist(h.snapshot()),
                };
                (k.clone(), val)
            })
            .collect();
        out.sort_by(|a, b| natural_cmp(&a.0, &b.0));
        out
    }

    /// Human-readable dump of the whole registry, one metric per line.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (path, val) in self.snapshot() {
            match val {
                MetricValue::Count(n) => {
                    let _ = writeln!(out, "{path:<40} {n}");
                }
                MetricValue::Busy(d) => {
                    let _ = writeln!(out, "{path:<40} {d}");
                }
                MetricValue::Hist(HistSnapshot { total, mean, .. }) => {
                    let _ = writeln!(out, "{path:<40} n={total} mean={mean:.1}");
                }
            }
        }
        out
    }
}

/// A path-prefixed view of a [`MetricsRegistry`].
#[derive(Clone)]
pub struct MetricsScope {
    reg: MetricsRegistry,
    prefix: String,
}

impl MetricsScope {
    /// Register (or look up) a counter at `{prefix}/{name}`.
    pub fn counter(&self, name: &str) -> Counter {
        self.reg.counter(&format!("{}/{}", self.prefix, name))
    }

    /// Register (or look up) a busy-time accumulator at `{prefix}/{name}`.
    pub fn busy_time(&self, name: &str) -> BusyTime {
        self.reg.busy_time(&format!("{}/{}", self.prefix, name))
    }

    /// Register (or look up) a histogram at `{prefix}/{name}`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.reg.histogram(&format!("{}/{}", self.prefix, name))
    }

    /// A sub-scope at `{prefix}/{sub}`.
    pub fn scope(&self, sub: &str) -> MetricsScope {
        self.reg.scope(&format!("{}/{}", self.prefix, sub))
    }

    /// The underlying registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.reg
    }

    /// This scope's path prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn natural_order() {
        assert_eq!(natural_cmp("n2.vec", "n10.vec"), Ordering::Less);
        assert_eq!(natural_cmp("node/10/cp", "node/2/cp"), Ordering::Greater);
        assert_eq!(natural_cmp("a", "a"), Ordering::Equal);
        assert_eq!(natural_cmp("a2", "a2b"), Ordering::Less);
        assert_eq!(natural_cmp("n02", "n2"), Ordering::Equal);
        assert_eq!(natural_cmp("alpha", "beta"), Ordering::Less);
    }

    #[test]
    fn registry_handles_share_state() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("node/0/vec/flops");
        let b = reg.counter("node/0/vec/flops");
        a.add(5);
        b.inc();
        assert_eq!(reg.get_counter("node/0/vec/flops"), Some(6));
        let t = reg.busy_time("node/0/vec/busy");
        t.add(Dur::us(3));
        assert_eq!(reg.get_busy("node/0/vec/busy"), Some(Dur::us(3)));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.busy_time("x");
    }

    #[test]
    fn scopes_prefix_paths() {
        let reg = MetricsRegistry::new();
        let node = reg.scope("node/7");
        node.scope("vec").counter("flops").add(42);
        assert_eq!(reg.get_counter("node/7/vec/flops"), Some(42));
        assert_eq!(node.prefix(), "node/7");
    }

    #[test]
    fn snapshot_in_natural_order() {
        let reg = MetricsRegistry::new();
        reg.counter("node/10/x").inc();
        reg.counter("node/2/x").inc();
        reg.counter("node/2/a").inc();
        let paths: Vec<String> = reg.snapshot().into_iter().map(|(p, _)| p).collect();
        assert_eq!(paths, vec!["node/2/a", "node/2/x", "node/10/x"]);
    }

    #[test]
    fn histogram_buckets() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 1024] {
            h.observe(v);
        }
        assert_eq!(h.total(), 5);
        let c = h.counts();
        assert_eq!(c[0], 1);
        assert_eq!(c[1], 1);
        assert_eq!(c[2], 2);
        assert_eq!(c[11], 1);
        assert!((h.mean() - 206.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.observe(10); // bucket 4, range [8, 16)
        }
        h.observe(1 << 20);
        assert_eq!(h.quantile_bound(0.5), 16);
        assert_eq!(h.quantile_bound(1.0), 1 << 21);
        assert_eq!(Histogram::new().quantile_bound(0.5), 0);
    }

    #[test]
    fn quantile_interpolates_within_the_bucket() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.observe(10); // bucket 4, range [8, 16)
        }
        // All mass in one bucket: p50 sits at rank 50 of 100, i.e. half
        // way through [8, 16) under the uniform assumption.
        assert_eq!(h.quantile(0.5), 12);
        assert_eq!(h.quantile(1.0), 16);
        // Point estimate never exceeds the bound.
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert!(h.quantile(q) <= h.quantile_bound(q));
        }
        // Exact buckets (0 and 1) interpolate to their single value.
        let z = Histogram::new();
        z.observe(0);
        z.observe(1);
        assert_eq!(z.quantile(0.5), 1); // rank 1 is the 0 sample → hi of [0,1)
        assert_eq!(z.quantile(1.0), 2);
        assert_eq!(Histogram::new().quantile(0.99), 0);
    }

    #[test]
    fn the_last_bucket_reads_u64_max() {
        let h = Histogram::new();
        h.observe(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.quantile_bound(1.0), u64::MAX);
    }

    #[test]
    fn merged_snapshots_equal_one_histogram_of_every_sample() {
        let mut rng = crate::Rng::new(1986);
        for nodes in [1, 2, 7, 16] {
            let whole = Histogram::new();
            let parts: Vec<HistSnapshot> = (0..nodes)
                .map(|_| {
                    let h = Histogram::new();
                    for _ in 0..rng.below(200) {
                        // Magnitudes spread over the buckets.
                        let v = rng.next_u64() >> rng.below(64);
                        h.observe(v);
                        whole.observe(v);
                    }
                    h.snapshot()
                })
                .collect();
            let merged = HistSnapshot::merge(&parts);
            let want = whole.snapshot();
            assert_eq!(merged.counts, want.counts);
            assert_eq!(merged.total, want.total);
            for q in [0.0, 0.5, 0.99, 1.0] {
                assert_eq!(merged.quantile_bound(q), want.quantile_bound(q), "q {q}");
            }
            let err = (merged.mean - want.mean).abs();
            assert!(
                err <= 1e-12 * want.mean.abs(),
                "{} vs {}",
                merged.mean,
                want.mean
            );
        }
        // An empty summary reads 0, merged or live.
        let empty = HistSnapshot::merge(&[Histogram::new().snapshot()]);
        assert_eq!((empty.total, empty.mean), (0, 0.0));
        assert_eq!(empty.quantile_bound(0.99), 0);
        assert_eq!(empty.quantile(0.99), 0);
    }

    #[test]
    fn quantile_spreads_across_buckets() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        // p50 of 1..=1000 is ~500; the log₂ estimate lands in [256,512)
        // or [512,1024) depending on rounding — either way within 2× of
        // the true median, which is the histogram's resolution promise.
        let p50 = h.quantile(0.5);
        assert!((250..=1024).contains(&p50), "p50 estimate {p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 >= h.quantile(0.5));
        assert!(p99 <= h.quantile_bound(0.99));
    }
}
