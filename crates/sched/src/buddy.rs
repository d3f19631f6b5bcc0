//! Buddy subcube allocator over the binary n-cube's address space.
//!
//! A d-subcube aligned to the low d address bits occupies node ids
//! `base .. base + 2^d` with `base` a multiple of `2^d` — exactly the
//! blocks of a classical buddy allocator over the id space. Splitting an
//! aligned k-block yields two aligned (k−1)-blocks whose bases differ in
//! bit k−1 (the *buddies*); freeing re-merges a block with its buddy
//! whenever both are free, so an idle machine always coalesces back to
//! one free n-cube.
//!
//! Module affinity falls out of alignment: the paper's 8-node module is
//! the aligned 3-subcube `ids 8m .. 8m+8`, and any aligned block of
//! order ≤ 3 sits inside one module (its base mod 8 is a multiple of its
//! size, so the block cannot straddle a multiple of 8). Allocating the
//! lowest free base first additionally packs jobs into the lowest
//! modules, keeping the high ids free for wide jobs.
//!
//! Everything is deterministic: free lists are kept sorted and the
//! allocator always picks the smallest sufficient block at the lowest
//! base, so the same request sequence yields the same placements.

use ts_cube::{NodeId, Subcube};

/// Buddy allocator handing out aligned subcubes of a `dim`-cube.
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    dim: u32,
    /// `free[k]` holds the bases of free aligned k-blocks, sorted.
    free: Vec<Vec<NodeId>>,
    /// Node ids removed from service by [`BuddyAllocator::condemn`],
    /// sorted. Kept as ids (not a count) so reservation placement can
    /// avoid blocks that will never be whole again.
    condemned: Vec<NodeId>,
}

impl BuddyAllocator {
    /// An allocator for the whole `dim`-cube, initially one free n-block.
    pub fn new(dim: u32) -> BuddyAllocator {
        let mut free = vec![Vec::new(); dim as usize + 1];
        free[dim as usize].push(0);
        BuddyAllocator {
            dim,
            free,
            condemned: Vec::new(),
        }
    }

    /// The machine dimension this allocator covers.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Allocate an aligned d-subcube, or `None` if no block fits.
    /// Deterministic best-fit: the smallest free order that can satisfy
    /// the request, split down to size, lowest base first.
    pub fn alloc(&mut self, d: u32) -> Option<Subcube> {
        if d > self.dim {
            return None;
        }
        let mut k = (d..=self.dim).find(|&k| !self.free[k as usize].is_empty())?;
        let base = self.free[k as usize].remove(0);
        while k > d {
            k -= 1;
            // Keep the low half; its buddy (the high half) becomes free.
            Self::insert(&mut self.free[k as usize], base | (1 << k));
        }
        Some(Subcube::aligned(base, d))
    }

    /// Would [`BuddyAllocator::alloc`]`(d)` currently succeed?
    pub fn can_alloc(&self, d: u32) -> bool {
        d <= self.dim && (d..=self.dim).any(|k| !self.free[k as usize].is_empty())
    }

    /// Return an allocated subcube, coalescing with free buddies as far
    /// as possible. The subcube must have come from [`BuddyAllocator::alloc`].
    pub fn release(&mut self, sub: &Subcube) {
        let mut d = sub.dim();
        let mut base = sub.base();
        while d < self.dim {
            let buddy = base ^ (1 << d);
            match self.free[d as usize].binary_search(&buddy) {
                Ok(i) => {
                    self.free[d as usize].remove(i);
                    base &= !(1 << d);
                    d += 1;
                }
                Err(_) => break,
            }
        }
        Self::insert(&mut self.free[d as usize], base);
    }

    /// Permanently remove the *failed* nodes of an allocated subcube from
    /// service, splitting the block buddy-by-buddy: any aligned sub-block
    /// containing no failed node goes back to the free lists (coalescing
    /// as usual), while each failed node is retired alone. Condemned
    /// nodes are simply never handed out again: their parked tasks and
    /// corrupt memory can do no harm there. Failed ids outside `sub` are
    /// ignored; with no failed id inside, the whole block is released.
    pub fn condemn(&mut self, sub: &Subcube, failed: &[NodeId]) {
        self.condemn_block(sub.base(), sub.dim(), failed);
    }

    fn condemn_block(&mut self, base: NodeId, d: u32, failed: &[NodeId]) {
        let size = 1u32 << d;
        if !failed.iter().any(|&n| n >= base && n < base + size) {
            self.release(&Subcube::aligned(base, d));
            return;
        }
        if d == 0 {
            Self::insert(&mut self.condemned, base);
            return;
        }
        self.condemn_block(base, d - 1, failed);
        self.condemn_block(base | (1 << (d - 1)), d - 1, failed);
    }

    /// Nodes currently free (not allocated, not condemned).
    pub fn free_nodes(&self) -> u32 {
        self.free
            .iter()
            .enumerate()
            .map(|(k, v)| (v.len() as u32) << k)
            .sum()
    }

    /// Nodes permanently out of service.
    pub fn condemned_nodes(&self) -> u32 {
        self.condemned.len() as u32
    }

    /// Does `sub` contain a condemned node? A reservation whose region
    /// is poisoned can never fill and must be re-sited.
    pub fn has_condemned_in(&self, sub: &Subcube) -> bool {
        self.condemned
            .iter()
            .any(|&n| block_contains(sub.base(), sub.dim(), n, 0))
    }

    /// True when every non-condemned node has coalesced back into free
    /// blocks — with nothing condemned, exactly one free n-block.
    pub fn is_idle(&self) -> bool {
        self.free_nodes() + self.condemned_nodes() == 1 << self.dim
    }

    /// The aligned d-block a blocked head job should wait for: the one
    /// with the most currently-free nodes (so it drains soonest as the
    /// jobs inside finish), never one containing a condemned node (it
    /// can never be whole again), lowest base on ties. `None` only when
    /// every d-block is poisoned by a condemned node or `d > dim`.
    pub fn best_reservation(&self, d: u32) -> Option<Subcube> {
        if d > self.dim {
            return None;
        }
        let nblocks = 1usize << (self.dim - d);
        let mut free_in = vec![0u32; nblocks];
        for (k, list) in self.free.iter().enumerate() {
            for &base in list {
                if (k as u32) >= d {
                    // A free block of order ≥ d spans whole d-blocks;
                    // mark each as completely free.
                    for i in 0..(1usize << (k as u32 - d)) {
                        free_in[(base as usize >> d) + i] = 1 << d;
                    }
                } else {
                    free_in[base as usize >> d] += 1 << k;
                }
            }
        }
        let mut poisoned = vec![false; nblocks];
        for &n in &self.condemned {
            poisoned[n as usize >> d] = true;
        }
        let mut best: Option<(u32, usize)> = None;
        for (i, &f) in free_in.iter().enumerate() {
            if !poisoned[i] && best.is_none_or(|(bf, _)| f > bf) {
                best = Some((f, i));
            }
        }
        best.map(|(_, i)| Subcube::aligned((i as NodeId) << d, d))
    }

    /// Allocate an aligned d-subcube *disjoint from* `region` (a
    /// reserved aligned block that a waiting head job is draining).
    /// First preference: the smallest free block wholly outside the
    /// region, split as usual. Fallback: a free block strictly
    /// containing the region, split so that at every level the half
    /// holding the region goes back on the free lists and the other
    /// half is carved down to size. With no region this is
    /// [`BuddyAllocator::alloc`].
    ///
    /// **Monotone in `d`:** both passes look for a free block of order at
    /// least `d` (pass 2: at least `d + 1`), so a failure for `d` is a
    /// failure for every `d' ≥ d` — and, since a failure with no region
    /// means no free block of order `≥ d` exists at all, for every region
    /// too. It stays a failure until a [`BuddyAllocator::release`] or
    /// [`BuddyAllocator::condemn`]: an allocation only splits blocks, it
    /// never makes a larger free one (a pass-2 split that could serve a
    /// smaller request starts from a block of order `≤ d` and frees halves
    /// below it). Placement loops lean on this to stop asking once a
    /// dimension has failed.
    pub fn alloc_outside(&mut self, d: u32, region: Option<&Subcube>) -> Option<Subcube> {
        let Some(r) = region else {
            return self.alloc(d);
        };
        if d > self.dim {
            return None;
        }
        // Pass 1: a free block of sufficient order wholly disjoint from
        // the region. Smallest order first, lowest base first, exactly
        // like `alloc` but skipping blocks the region touches.
        for k in d..=self.dim {
            let hit = self.free[k as usize]
                .iter()
                .position(|&b| !blocks_overlap(b, k, r.base(), r.dim()));
            if let Some(pos) = hit {
                let base = self.free[k as usize].remove(pos);
                let mut kk = k;
                while kk > d {
                    kk -= 1;
                    Self::insert(&mut self.free[kk as usize], base | (1 << kk));
                }
                return Some(Subcube::aligned(base, d));
            }
        }
        // Pass 2: a free block strictly containing the region. Each
        // split isolates the region in one half; keep the other. After
        // the first split the kept half is region-free, so the rest is
        // an ordinary lowest-base carve.
        let start = (r.dim() + 1).max(d + 1);
        for k in start..=self.dim {
            let hit = self.free[k as usize]
                .iter()
                .position(|&b| block_contains(b, k, r.base(), r.dim()));
            if let Some(pos) = hit {
                let mut base = self.free[k as usize].remove(pos);
                let mut kk = k;
                while kk > d {
                    kk -= 1;
                    let high = base | (1 << kk);
                    if block_contains(base, kk, r.base(), r.dim()) {
                        // Region is in the low half: free it, keep high.
                        Self::insert(&mut self.free[kk as usize], base);
                        base = high;
                    } else {
                        Self::insert(&mut self.free[kk as usize], high);
                    }
                }
                return Some(Subcube::aligned(base, d));
            }
        }
        None
    }

    fn insert(list: &mut Vec<NodeId>, base: NodeId) {
        match list.binary_search(&base) {
            Ok(_) => panic!("block {base} double-freed"),
            Err(i) => list.insert(i, base),
        }
    }
}

/// Two aligned blocks overlap iff the smaller lies inside the larger.
fn blocks_overlap(b1: NodeId, d1: u32, b2: NodeId, d2: u32) -> bool {
    let d = d1.max(d2);
    (b1 >> d) == (b2 >> d)
}

/// Does the aligned `(outer, od)` block contain the `(inner, id)` block
/// (equality counts as containment)?
fn block_contains(outer: NodeId, od: u32, inner: NodeId, id: u32) -> bool {
    od >= id && (inner >> od) == (outer >> od)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_sim::Rng;

    #[test]
    fn splits_to_the_lowest_base_and_coalesces_back() {
        let mut a = BuddyAllocator::new(4);
        let s0 = a.alloc(2).unwrap();
        let s1 = a.alloc(2).unwrap();
        let s2 = a.alloc(3).unwrap();
        assert_eq!((s0.base(), s1.base(), s2.base()), (0, 4, 8));
        assert!(!a.can_alloc(3), "only 16 nodes; all allocated");
        a.release(&s0);
        a.release(&s2);
        a.release(&s1);
        assert!(a.is_idle(), "all frees must coalesce to one 4-block");
        assert_eq!(a.alloc(4).unwrap().base(), 0);
    }

    #[test]
    fn small_blocks_never_straddle_a_module() {
        let mut a = BuddyAllocator::new(6);
        for d in [0, 1, 2, 3, 0, 3, 2, 1, 3] {
            let s = a.alloc(d).unwrap();
            assert!(
                s.within_one_module(),
                "dim-{d} block at {} straddles a module",
                s.base()
            );
        }
    }

    /// Satellite: random alloc/free sequences never overlap, always
    /// coalesce back to one free n-cube, and are deterministic.
    #[test]
    fn random_alloc_free_is_safe_and_deterministic() {
        let run = |seed: u64| {
            let mut rng = Rng::new(seed);
            let mut a = BuddyAllocator::new(4);
            let mut live: Vec<Subcube> = Vec::new();
            let mut placements = Vec::new();
            for _ in 0..400 {
                if rng.bool() && !live.is_empty() {
                    let i = rng.range(0, live.len());
                    a.release(&live.swap_remove(i));
                } else if let Some(s) = a.alloc(rng.range(0, 4) as u32) {
                    for other in &live {
                        assert!(s.disjoint(other), "{s:?} overlaps {other:?}");
                    }
                    placements.push((s.base(), s.dim()));
                    live.push(s);
                }
            }
            for s in live.drain(..) {
                a.release(&s);
            }
            assert!(a.is_idle(), "full free must coalesce back to the n-cube");
            placements
        };
        for seed in 0..8 {
            assert_eq!(run(seed), run(seed), "same seed must replay identically");
        }
    }

    #[test]
    fn condemned_blocks_never_come_back() {
        let mut a = BuddyAllocator::new(2);
        let s = a.alloc(1).unwrap();
        let failed = s.base(); // one node of the pair died
        a.condemn(&s, &[failed]);
        assert_eq!(a.condemned_nodes(), 1, "only the failed node is retired");
        let t = a.alloc(1).unwrap();
        assert!(s.disjoint(&t), "a pair request must avoid the broken pair");
        a.release(&t);
        assert!(
            a.alloc(2).is_none(),
            "the full cube can never be whole again"
        );
        // The healthy buddy of the failed node is still individually
        // allocatable.
        let lone = a.alloc(0).unwrap();
        assert_eq!(lone.base(), failed ^ 1, "the survivor buddy comes back");
    }

    /// Satellite property test: for random failure sets, condemned count
    /// equals the number of failed nodes inside the block, every freed
    /// block is overlap-free with every other allocation, and the split
    /// is deterministic.
    #[test]
    fn condemn_retires_exactly_the_failed_nodes() {
        let run = |seed: u64| {
            let mut rng = Rng::new(seed);
            let mut a = BuddyAllocator::new(6);
            let sub = a.alloc(4).unwrap();
            let nfail = 1 + rng.range(0, 5);
            let mut failed: Vec<NodeId> = Vec::new();
            while failed.len() < nfail {
                let n = sub.base() + rng.range(0, 1 << 4) as NodeId;
                if !failed.contains(&n) {
                    failed.push(n);
                }
            }
            a.condemn(&sub, &failed);
            assert_eq!(
                a.condemned_nodes(),
                failed.len() as u32,
                "condemned count must equal failed nodes"
            );
            // Drain the allocator with single nodes: every survivor of the
            // condemned block (and the rest of the cube) comes back exactly
            // once, and no failed node is ever re-issued.
            let mut seen = Vec::new();
            while let Some(s) = a.alloc(0) {
                assert!(
                    !failed.contains(&s.base()),
                    "failed node {} re-issued",
                    s.base()
                );
                assert!(!seen.contains(&s.base()), "node {} issued twice", s.base());
                seen.push(s.base());
            }
            assert_eq!(seen.len() as u32, (1 << 6) - failed.len() as u32);
            seen
        };
        for seed in [7u64, 42, 1986, 0xD1CE] {
            assert_eq!(run(seed), run(seed), "same seed must replay identically");
        }
    }

    /// Satellite: open-churn property test. Millions of seeded
    /// alloc/free/condemn cycles — the kind of turnover an open arrival
    /// stream produces — holding the node-count invariant
    /// `free + live + condemned == 2^dim` at every step, never
    /// overlapping a live block, never leaking, and coalescing fully
    /// (no two free buddies coexist) once drained. Same seed, same run.
    #[test]
    fn open_churn_preserves_node_accounting() {
        const DIM: u32 = 8;
        const OPS: usize = 1_000_000;
        let run = |seed: u64| {
            let mut rng = Rng::new(seed);
            let mut a = BuddyAllocator::new(DIM);
            let mut live: Vec<Subcube> = Vec::new();
            let mut live_nodes = 0u32;
            let mut digest = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
            let fold = |x: u64, digest: &mut u64| {
                *digest = (*digest ^ x).wrapping_mul(0x1000_0000_01b3);
            };
            for step in 0..OPS {
                let roll = rng.below(100);
                if roll < 48 || live.is_empty() {
                    // Arrival: sizes skewed small, like a real mix.
                    let d = match rng.below(10) {
                        0..=4 => rng.below(2) as u32,
                        5..=7 => 2 + rng.below(2) as u32,
                        _ => 4 + rng.below(2) as u32,
                    };
                    if let Some(s) = a.alloc(d) {
                        fold(((s.base() as u64) << 8) | d as u64, &mut digest);
                        live_nodes += 1 << d;
                        live.push(s);
                    }
                } else if roll < 96 {
                    // Completion: free a random live block.
                    let i = rng.range(0, live.len());
                    let s = live.swap_remove(i);
                    live_nodes -= 1 << s.dim();
                    a.release(&s);
                } else {
                    // Fault: condemn one random node of a live block,
                    // capped so the machine keeps most of its capacity.
                    if a.condemned_nodes() < (1 << DIM) / 8 {
                        let i = rng.range(0, live.len());
                        let s = live.swap_remove(i);
                        let bad = s.base() + rng.below(1 << s.dim()) as NodeId;
                        live_nodes -= 1 << s.dim();
                        a.condemn(&s, &[bad]);
                        fold(0x8000_0000_0000_0000 | bad as u64, &mut digest);
                    }
                }
                assert_eq!(
                    a.free_nodes() + live_nodes + a.condemned_nodes(),
                    1 << DIM,
                    "node accounting broke at step {step}"
                );
            }
            // Occasionally verified in full: live blocks are disjoint.
            for (i, s) in live.iter().enumerate() {
                for t in &live[i + 1..] {
                    assert!(s.disjoint(t), "{s:?} overlaps {t:?}");
                }
            }
            // Drain and check full coalescing: no free block's buddy is
            // also free (they would have merged), and nothing leaked.
            for s in live.drain(..) {
                a.release(&s);
            }
            assert!(a.is_idle(), "drained allocator must account for all nodes");
            for (k, list) in a.free.iter().enumerate() {
                if (k as u32) < DIM {
                    for &b in list {
                        assert!(
                            list.binary_search(&(b ^ (1 << k))).is_err(),
                            "free buddies {b} / {} failed to coalesce",
                            b ^ (1 << k)
                        );
                    }
                }
            }
            fold(a.condemned_nodes() as u64, &mut digest);
            digest
        };
        for seed in [3u64, 0xFEED] {
            assert_eq!(run(seed), run(seed), "same seed must replay identically");
        }
    }

    /// The fact the placement loops' cut-off leans on: over seeded random
    /// allocator states (allocations, releases, condemned nodes) and random
    /// regions, a failed `alloc_outside(d, R)` fails for every wider
    /// request (a failure with no region, under every region too) and keeps
    /// failing after any further successful allocations, restricted or
    /// not.
    #[test]
    fn alloc_outside_failure_is_monotone_and_sticky() {
        const DIM: u32 = 5;
        let fails = |a: &BuddyAllocator, d: u32, r: Option<&Subcube>| {
            a.clone().alloc_outside(d, r).is_none()
        };
        let mut failures_seen = 0;
        for seed in 0..48u64 {
            let mut rng = Rng::new(0xb0dd_1e00 + seed);
            let mut a = BuddyAllocator::new(DIM);
            let mut live: Vec<Subcube> = Vec::new();
            for _ in 0..rng.range(4, 40) {
                match rng.below(8) {
                    0..=4 => live.extend(a.alloc(rng.below(4) as u32)),
                    5..=6 if !live.is_empty() => {
                        let s = live.swap_remove(rng.range(0, live.len()));
                        a.release(&s);
                    }
                    7 if !live.is_empty() => {
                        let s = live.swap_remove(rng.range(0, live.len()));
                        let bad = s.base() + rng.below(1 << s.dim()) as NodeId;
                        a.condemn(&s, &[bad]);
                    }
                    _ => {}
                }
            }
            for _ in 0..12 {
                let rd = rng.below(DIM as u64) as u32;
                let region = Subcube::aligned((rng.below(1 << (DIM - rd)) as NodeId) << rd, rd);
                for r in [None, Some(&region)] {
                    let Some(d) = (0..=DIM).find(|&d| fails(&a, d, r)) else {
                        continue;
                    };
                    failures_seen += 1;
                    for wider in d..=DIM + 1 {
                        assert!(fails(&a, wider, r), "seed {seed}: {d} fails, {wider} fits");
                        assert!(r.is_some() || fails(&a, wider, Some(&region)));
                    }
                    // Drain what still fits, narrower requests first and
                    // last: the failure must outlive every success.
                    let mut b = a.clone();
                    loop {
                        let pick = rng.below(d as u64 + 1) as u32;
                        let got = (pick..d).chain(0..pick).find_map(|n| {
                            b.alloc_outside(n, [None, r, Some(&region)][rng.range(0, 3)])
                        });
                        assert!(fails(&b, d, r), "seed {seed}: a split made room for {d}");
                        if got.is_none() {
                            break;
                        }
                    }
                }
            }
        }
        assert!(
            failures_seen > 500,
            "the states must actually refuse requests"
        );
    }

    #[test]
    fn best_reservation_prefers_the_emptiest_healthy_block() {
        let mut a = BuddyAllocator::new(4);
        // Fill the low half with pairs, leave the high half free-ish.
        let _s0 = a.alloc(1).unwrap(); // 0..2
        let _s1 = a.alloc(1).unwrap(); // 2..4
        let _s2 = a.alloc(2).unwrap(); // 4..8
                                       // High 3-block (8..16) is completely free: best for a 3-wide head.
        let r = a.best_reservation(3).unwrap();
        assert_eq!((r.base(), r.dim()), (8, 3));
        // Poison the high half: one condemned node disqualifies it.
        let wide = a.alloc(3).unwrap(); // 8..16
        a.condemn(&wide, &[9]);
        let r = a.best_reservation(3).unwrap();
        assert_eq!(r.base(), 0, "condemned block skipped; low half is next");
    }

    #[test]
    fn alloc_outside_carves_around_the_reserved_region() {
        let mut a = BuddyAllocator::new(4);
        let region = Subcube::aligned(0, 3); // reserve 0..8 for the head
                                             // Disjoint free block exists (8..16): ordinary lowest-base alloc
                                             // from outside the region.
        let s = a.alloc_outside(1, Some(&region)).unwrap();
        assert_eq!((s.base(), s.dim()), (8, 1));
        // Exhaust everything outside; requests must fail rather than
        // eat the reservation.
        let rest = a.alloc_outside(3, Some(&region));
        assert!(rest.is_none(), "8..16 has only 6 nodes left");
        let t = a.alloc_outside(2, Some(&region)).unwrap();
        assert_eq!(t.base(), 12);
        assert_eq!(a.alloc_outside(1, Some(&region)).unwrap().base(), 10);
        assert!(a.alloc_outside(0, Some(&region)).is_none());
        assert!(
            a.can_alloc(3),
            "the reserved 3-block itself is still free for the head"
        );
        // Without a region the reservation is fair game.
        assert_eq!(a.alloc_outside(3, None).unwrap().base(), 0);

        // Pass 2: only a containing block is free. On a fresh cube,
        // reserve the pair 0..2 and drain singles: every carve splits
        // around the pair, never handing out node 0 or 1.
        let mut b = BuddyAllocator::new(3);
        let narrow = Subcube::aligned(0, 1);
        let mut got = Vec::new();
        while let Some(s) = b.alloc_outside(0, Some(&narrow)) {
            got.push(s.base());
        }
        got.sort_unstable();
        assert_eq!(got, vec![2, 3, 4, 5, 6, 7]);
        assert!(b.can_alloc(1), "the reserved pair survives intact");
    }
}
