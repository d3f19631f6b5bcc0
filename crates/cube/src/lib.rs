//! # ts-cube — the binary n-cube interconnect
//!
//! The T Series connects its 2ⁿ nodes as a **binary n-cube** (§III): node
//! numbers differ from each neighbour's in exactly one bit, so the maximum
//! distance between any two processors is n = log₂ p hops — the paper's
//! "long-range communication costs grow only as O(log₂ n)".
//!
//! This crate is the pure combinatorics of that interconnect, with no
//! simulation dependencies:
//!
//! * [`Hypercube`] — neighbours, Hamming distance, **e-cube** (dimension
//!   ordered, deadlock-free) routing, binomial spanning trees for
//!   collectives, and subcube/module decomposition.
//! * [`gray`]/[`gray_inv`] — the reflected binary Gray code, the classical
//!   tool for embedding sequenced topologies into a cube.
//! * [`embed`] — the Figure 3 menagerie: rings, multi-dimensional meshes
//!   (up to dimension n), toroids, and the radix-2 **FFT butterfly**, each
//!   with a dilation check (every logical edge maps onto a physical cube
//!   edge).
//! * [`SublinkBudget`] — the paper's link arithmetic: 4 links × 4-way
//!   multiplexing = 16 sublinks per node; 2 reserved for system
//!   communication, 2 for mass storage / external I/O, 3 consumed inside
//!   the 8-node module — which is why a 14-cube is the architectural
//!   maximum and a 12-cube (4096 nodes) the largest practical machine.

#![deny(missing_docs)]

pub mod embed;

/// A node address in an n-cube: an integer in `0..2^n`.
pub type NodeId = u32;

/// The binary n-cube: topology queries over `2^dim` nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hypercube {
    dim: u32,
}

impl Hypercube {
    /// The largest configuration the T Series supports (§III: "There are
    /// enough links per node to permit a 14-cube to be constructed").
    pub const MAX_DIM: u32 = 14;

    /// Create an n-cube. Panics if `dim > 14` (the architecture's limit) —
    /// use a plain newtype if you need bigger abstract cubes.
    pub fn new(dim: u32) -> Hypercube {
        assert!(dim <= Self::MAX_DIM, "T Series cubes end at dimension 14");
        Hypercube { dim }
    }

    /// Cube dimension n.
    pub const fn dim(self) -> u32 {
        self.dim
    }

    /// Number of nodes, 2ⁿ.
    pub const fn nodes(self) -> u32 {
        1 << self.dim
    }

    /// Iterate all node ids.
    pub fn iter(self) -> impl Iterator<Item = NodeId> {
        0..self.nodes()
    }

    /// The neighbour across dimension `d`.
    pub fn neighbor(self, node: NodeId, d: u32) -> NodeId {
        debug_assert!(d < self.dim && node < self.nodes());
        node ^ (1 << d)
    }

    /// The dimension of the link joining neighbours `a` and `b`.
    pub fn link_dim(self, a: NodeId, b: NodeId) -> usize {
        debug_assert!(a < self.nodes() && b < self.nodes() && (a ^ b).is_power_of_two());
        (a ^ b).trailing_zeros() as usize
    }

    /// Hamming distance — the minimum hop count between two nodes.
    pub fn distance(self, a: NodeId, b: NodeId) -> u32 {
        (a ^ b).count_ones()
    }

    /// The network diameter, n.
    pub const fn diameter(self) -> u32 {
        self.dim
    }

    /// E-cube (dimension-ordered) route from `a` to `b`, inclusive of both
    /// endpoints. Correcting bits lowest-first is deadlock-free under
    /// wormhole or store-and-forward switching because the dimension
    /// sequence is strictly increasing along every path.
    pub fn route(self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let mut path = Vec::with_capacity(self.distance(a, b) as usize + 1);
        let mut cur = a;
        path.push(cur);
        let diff = a ^ b;
        for d in 0..self.dim {
            if diff & (1 << d) != 0 {
                cur ^= 1 << d;
                path.push(cur);
            }
        }
        debug_assert_eq!(cur, b);
        path
    }

    /// Binomial spanning tree rooted at `root`: returns `parent[node]`
    /// (with `parent[root] = root`). The tree edge for node v is across the
    /// *lowest* set bit of `v ^ root`, so a broadcast completes in n steps —
    /// the schedule every collective in `t-series-core` uses.
    pub fn binomial_parent(self, root: NodeId, node: NodeId) -> NodeId {
        if node == root {
            return root;
        }
        let diff = node ^ root;
        node ^ (1 << diff.trailing_zeros())
    }

    /// Children of `node` in the binomial tree rooted at `root`: the
    /// neighbours across each dimension *below* the lowest set bit of
    /// `node ^ root` (all dimensions for the root itself).
    pub fn binomial_children(self, root: NodeId, node: NodeId) -> Vec<NodeId> {
        let limit = if node == root {
            self.dim
        } else {
            (node ^ root).trailing_zeros()
        };
        (0..limit).map(|d| node ^ (1 << d)).collect()
    }

    /// Parent of `node` in tree `tree` (`0..n`) of the n **edge-disjoint
    /// spanning binomial trees** rooted at `root` (Johnsson & Ho, "Optimum
    /// broadcasting and personalized communication in hypercubes", 1989);
    /// `None` for the root. With `rel = node ^ root` and `e_t = 1 << tree`:
    ///
    /// * the root's one child is `e_t`, across dimension `tree`;
    /// * the half with bit `tree` set is the binomial tree of `e_t` in
    ///   dimension order `tree+1, …, tree−1`: a node's parent clears its
    ///   last set bit in that cyclic order;
    /// * every other node hears the tree across dimension `tree`, from its
    ///   neighbour in that half.
    ///
    /// Tree t reaches `rel` across t when bit t is clear, and otherwise
    /// across the set bit before t in cyclic order (t itself at `e_t`): a
    /// permutation of the n dimensions. So a node hears the n trees across n
    /// different dimensions and no directed link carries two of them. Each
    /// tree is n + 1 deep (1 on a 1-cube).
    pub fn esbt_parent(self, tree: u32, root: NodeId, node: NodeId) -> Option<NodeId> {
        debug_assert!(tree < self.dim && node < self.nodes() && root < self.nodes());
        let rel = node ^ root;
        let e_t = 1 << tree;
        if rel == 0 {
            return None;
        }
        if rel & e_t == 0 {
            return Some(node ^ e_t);
        }
        Some(match self.esbt_last(tree, rel) {
            Some(d) => node ^ (1 << d),
            None => root,
        })
    }

    /// Children of `node` in tree `tree` of the edge-disjoint spanning
    /// binomial trees rooted at `root` ([`Hypercube::esbt_parent`]): the
    /// biggest subtree first, the neighbour across dimension `tree` last.
    pub fn esbt_children(self, tree: u32, root: NodeId, node: NodeId) -> Vec<NodeId> {
        debug_assert!(tree < self.dim && node < self.nodes() && root < self.nodes());
        let rel = node ^ root;
        let e_t = 1 << tree;
        if rel == 0 {
            return vec![node ^ e_t];
        }
        if rel & e_t == 0 {
            return Vec::new();
        }
        // Dimension tree+1+k sits at position k of the cyclic order. The
        // binomial children set each position after the last one set (every
        // position, at e_t); every other node of the half also forwards
        // across dimension `tree`.
        let n = self.dim;
        let last = self.esbt_last(tree, rel);
        let first = last.map_or(0, |d| (d + n - tree - 1) % n + 1);
        let mut children: Vec<NodeId> = (first..n - 1)
            .map(|k| node ^ (1 << ((tree + 1 + k) % n)))
            .collect();
        if last.is_some() {
            children.push(node ^ e_t);
        }
        children
    }

    /// The last dimension other than `tree` set in `rel`, in the cyclic
    /// order `tree+1, …, tree−1`.
    fn esbt_last(self, tree: u32, rel: NodeId) -> Option<u32> {
        let n = self.dim;
        (1..n)
            .map(|k| (tree + n - k) % n)
            .find(|&d| rel & (1 << d) != 0)
    }

    /// The module a node belongs to: the T Series packages 8 nodes
    /// (a 3-subcube spanning the three lowest dimensions) per module (§III).
    pub fn module_of(self, node: NodeId) -> u32 {
        node >> 3
    }

    /// Number of 8-node modules (at least 1; sub-module cubes still occupy
    /// one physical module).
    pub fn modules(self) -> u32 {
        if self.dim <= 3 {
            1
        } else {
            1 << (self.dim - 3)
        }
    }

    /// Number of 16-node cabinets (two modules each, a "tesseract"; §III).
    pub fn cabinets(self) -> u32 {
        self.modules().div_ceil(2)
    }
}

/// A d-dimensional subcube of a larger n-cube: the set of nodes reachable
/// from `base` by flipping any subset of the `dims` address bits.
///
/// Disjoint subcubes are complete hypercubes in their own right, which is
/// what makes the machine *space-shareable* (§III: the n-cube is built from
/// 8-node modules that are themselves 3-subcubes): independent jobs can run
/// on disjoint subcubes with full isolation, because every edge of a
/// subcube is a physical cube edge and no route between two of its nodes
/// leaves it (e-cube routing only corrects bits the endpoints differ in).
///
/// The subcube relabels its nodes: **virtual** id `v ∈ 0..2^d` maps to the
/// physical id `base ^ spread(v)`, where bit `k` of `v` lands on physical
/// address bit `dims[k]`. Virtual dimension `k` is physical dimension
/// `dims[k]`. A program written against virtual ids and dimensions (every
/// collective and kernel in this workspace) therefore runs unmodified
/// inside any subcube.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Subcube {
    base: NodeId,
    dims: Vec<u32>,
}

impl Subcube {
    /// A subcube of `base` spanning the given address bits. `base` must
    /// have every spanned bit clear (the canonical corner), and `dims`
    /// must be strictly increasing.
    pub fn new(base: NodeId, dims: Vec<u32>) -> Subcube {
        assert!(
            dims.windows(2).all(|w| w[0] < w[1]),
            "dims must be strictly increasing"
        );
        for &d in &dims {
            assert!(
                base & (1 << d) == 0,
                "base must sit at the subcube's low corner"
            );
        }
        Subcube { base, dims }
    }

    /// The aligned d-subcube spanning dimensions `0..d` at `base` (the
    /// shape the buddy allocator hands out: `base` is a multiple of `2^d`).
    pub fn aligned(base: NodeId, d: u32) -> Subcube {
        assert_eq!(
            base % (1 << d),
            0,
            "aligned subcube base must be a multiple of 2^d"
        );
        Subcube::new(base, (0..d).collect())
    }

    /// The subcube's low corner (physical id of virtual node 0).
    pub fn base(&self) -> NodeId {
        self.base
    }

    /// The spanned physical dimensions, lowest first (virtual dimension
    /// `k` rides physical dimension `dims()[k]`).
    pub fn dims(&self) -> &[u32] {
        &self.dims
    }

    /// Subcube dimension d.
    pub fn dim(&self) -> u32 {
        self.dims.len() as u32
    }

    /// Number of nodes, 2^d.
    pub fn len(&self) -> u32 {
        1 << self.dim()
    }

    /// Always false: even a 0-subcube holds one node. Provided because
    /// [`Subcube::len`] exists.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The subcube as a standalone hypercube (for collectives and routing
    /// in virtual coordinates).
    pub fn cube(&self) -> Hypercube {
        Hypercube::new(self.dim())
    }

    /// Physical id of virtual node `v`: XOR the base with `v`'s bits
    /// spread onto the spanned dimensions.
    pub fn to_phys(&self, v: NodeId) -> NodeId {
        debug_assert!(v < self.len());
        let mut p = self.base;
        for (k, &d) in self.dims.iter().enumerate() {
            if v & (1 << k) != 0 {
                p ^= 1 << d;
            }
        }
        p
    }

    /// Virtual id of physical node `p`, or `None` if `p` is outside the
    /// subcube.
    pub fn to_virt(&self, p: NodeId) -> Option<NodeId> {
        let diff = p ^ self.base;
        let mut v = 0;
        let mut covered = 0;
        for (k, &d) in self.dims.iter().enumerate() {
            if diff & (1 << d) != 0 {
                v |= 1 << k;
            }
            covered |= 1 << d;
        }
        if diff & !covered != 0 {
            return None;
        }
        Some(v)
    }

    /// True if physical node `p` belongs to the subcube.
    pub fn contains(&self, p: NodeId) -> bool {
        self.to_virt(p).is_some()
    }

    /// Physical node ids in virtual order (index = virtual id).
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(|v| self.to_phys(v))
    }

    /// True if every node of the subcube lives in one 8-node module — the
    /// module-affinity property: an intramodule job keeps all its traffic
    /// on the short in-module wires. Aligned subcubes of dimension ≤ 3
    /// always satisfy this.
    pub fn within_one_module(&self) -> bool {
        let m = self.base >> 3;
        self.iter().all(|p| p >> 3 == m)
    }

    /// True if the two subcubes share no node: the bases must differ on
    /// some dimension spanned by neither (on spanned dimensions both sides
    /// can reach either value, so only unspanned bits separate them).
    pub fn disjoint(&self, other: &Subcube) -> bool {
        let mut covered = 0u32;
        for &d in self.dims.iter().chain(&other.dims) {
            covered |= 1 << d;
        }
        (self.base ^ other.base) & !covered != 0
    }
}

/// The reflected binary Gray code: consecutive integers map to words that
/// differ in exactly one bit.
#[inline]
pub const fn gray(i: u32) -> u32 {
    i ^ (i >> 1)
}

/// Inverse Gray code: `gray_inv(gray(i)) == i`.
#[inline]
pub const fn gray_inv(g: u32) -> u32 {
    let mut i = g;
    let mut shift = g;
    while shift != 0 {
        shift >>= 1;
        i ^= shift;
    }
    i
}

/// The paper's per-node sublink budget (§II *Communications*, §III).
///
/// Each node has 4 bidirectional serial links, each multiplexed 4 ways:
/// 16 sublinks. The standard allocation reserves 2 for the system thread,
/// 2 for mass storage / external I/O, and uses 3 inside the module's
/// 3-subcube, leaving the rest for the inter-module hypercube.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SublinkBudget {
    /// Sublinks reserved for system-board communication (paper: 2).
    pub system: u32,
    /// Sublinks reserved for mass storage and external I/O (paper: 2).
    pub io: u32,
}

impl Default for SublinkBudget {
    fn default() -> Self {
        SublinkBudget { system: 2, io: 2 }
    }
}

impl SublinkBudget {
    /// Physical links per node.
    pub const LINKS: u32 = 4;
    /// Multiplex factor per link.
    pub const SUBLINKS_PER_LINK: u32 = 4;
    /// Total sublinks per node: 16.
    pub const TOTAL: u32 = Self::LINKS * Self::SUBLINKS_PER_LINK;

    /// Sublinks left for hypercube edges (intra- plus inter-module).
    pub fn for_hypercube(self) -> u32 {
        Self::TOTAL - self.system - self.io
    }

    /// The largest cube dimension this allocation supports.
    ///
    /// With the paper's defaults: 16 − 2 − 2 = 12 → a 12-cube of 4096
    /// nodes. Without the I/O reservation: 16 − 2 = 14 → the architectural
    /// 14-cube maximum.
    pub fn max_dim(self) -> u32 {
        self.for_hypercube().min(Hypercube::MAX_DIM)
    }

    /// Validate a machine configuration against the budget.
    pub fn supports(self, dim: u32) -> bool {
        dim <= self.max_dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_sizes() {
        // N = 0 point, 1 line, 2 square, 3 cube, 4 tesseract.
        for (dim, nodes) in [(0u32, 1u32), (1, 2), (2, 4), (3, 8), (4, 16)] {
            assert_eq!(Hypercube::new(dim).nodes(), nodes);
        }
    }

    #[test]
    fn neighbors_differ_in_one_bit() {
        let c = Hypercube::new(4);
        for node in c.iter() {
            let ns: Vec<_> = (0..c.dim()).map(|d| c.neighbor(node, d)).collect();
            assert_eq!(ns.len(), 4);
            for n in ns {
                assert_eq!(c.distance(node, n), 1);
            }
        }
    }

    #[test]
    fn link_dim_inverts_neighbor() {
        let c = Hypercube::new(4);
        for node in c.iter() {
            for d in 0..c.dim() {
                assert_eq!(c.link_dim(node, c.neighbor(node, d)), d as usize);
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn link_dim_of_a_non_neighbour_pair_panics() {
        Hypercube::new(4).link_dim(0b0001, 0b0110);
    }

    #[test]
    fn route_is_shortest_and_dimension_ordered() {
        let c = Hypercube::new(5);
        let (a, b) = (0b10110, 0b01011);
        let path = c.route(a, b);
        assert_eq!(path.len() as u32, c.distance(a, b) + 1);
        assert_eq!(*path.first().unwrap(), a);
        assert_eq!(*path.last().unwrap(), b);
        let mut last_dim = None;
        for w in path.windows(2) {
            let d = (w[0] ^ w[1]).trailing_zeros();
            assert_eq!((w[0] ^ w[1]).count_ones(), 1);
            assert!(last_dim.is_none_or(|ld| d > ld), "dimension order violated");
            last_dim = Some(d);
        }
    }

    #[test]
    fn diameter_is_log2_p() {
        for dim in 0..=10 {
            let c = Hypercube::new(dim);
            let far = c.nodes() - 1; // all-ones is farthest from 0
            assert_eq!(c.distance(0, far), dim);
            assert_eq!(c.diameter(), dim);
        }
    }

    #[test]
    fn gray_code_adjacency() {
        for i in 0..(1u32 << 12) - 1 {
            let d = gray(i) ^ gray(i + 1);
            assert_eq!(d.count_ones(), 1, "gray({i})..gray({})", i + 1);
        }
    }

    #[test]
    fn gray_code_bijective_and_inverse() {
        let mut seen = vec![false; 1 << 12];
        for i in 0..1u32 << 12 {
            let g = gray(i);
            assert!(!seen[g as usize]);
            seen[g as usize] = true;
            assert_eq!(gray_inv(g), i);
        }
    }

    #[test]
    fn binomial_tree_spans_and_respects_edges() {
        let c = Hypercube::new(6);
        let root = 13;
        for node in c.iter() {
            let p = c.binomial_parent(root, node);
            if node == root {
                assert_eq!(p, root);
            } else {
                assert_eq!(c.distance(node, p), 1, "tree edge is a cube edge");
                // Walking parents must reach the root (no cycles).
                let mut cur = node;
                let mut hops = 0;
                while cur != root {
                    cur = c.binomial_parent(root, cur);
                    hops += 1;
                    assert!(hops <= 6);
                }
            }
        }
    }

    #[test]
    fn binomial_children_match_parents() {
        let c = Hypercube::new(5);
        for root in [0u32, 7, 31] {
            for node in c.iter() {
                for ch in c.binomial_children(root, node) {
                    assert_eq!(c.binomial_parent(root, ch), node);
                }
            }
        }
    }

    #[test]
    fn broadcast_depth_is_dim() {
        // Longest root-to-leaf path in the binomial tree = n.
        let c = Hypercube::new(7);
        let root = 0;
        let mut max_depth = 0;
        for node in c.iter() {
            let mut cur = node;
            let mut d = 0;
            while cur != root {
                cur = c.binomial_parent(root, cur);
                d += 1;
            }
            max_depth = max_depth.max(d);
        }
        assert_eq!(max_depth, 7);
    }

    #[test]
    fn edge_disjoint_trees_span_and_share_no_link() {
        // Every tree on cubes to dimension 7, at three roots: it spans the
        // cube n + 1 deep (1 on a 1-cube), its children match its parents,
        // and a node hears the n trees across n different dimensions, so
        // no directed link carries two trees.
        for dim in 1..=7u32 {
            let c = Hypercube::new(dim);
            let n = dim as usize;
            for root in [0, c.nodes() - 1, 0x5b % c.nodes()] {
                let mut heard = vec![false; c.nodes() as usize * n];
                for tree in 0..dim {
                    let (mut edges, mut depth) = (0, 0);
                    for node in c.iter() {
                        let children = c.esbt_children(tree, root, node);
                        edges += children.len();
                        for &child in &children {
                            assert_eq!(c.esbt_parent(tree, root, child), Some(node));
                        }
                        let Some(parent) = c.esbt_parent(tree, root, node) else {
                            assert_eq!(node, root);
                            continue;
                        };
                        assert_eq!(c.distance(node, parent), 1, "tree edges are cube edges");
                        let d = (node ^ parent).trailing_zeros() as usize;
                        let slot = &mut heard[node as usize * n + d];
                        assert!(
                            !*slot,
                            "dim {dim} root {root}: {node} hears two trees on {d}"
                        );
                        *slot = true;
                        let (mut cur, mut hops) = (node, 0);
                        while cur != root {
                            cur = c.esbt_parent(tree, root, cur).unwrap();
                            hops += 1;
                            assert!(hops <= dim + 1, "dim {dim} tree {tree}: too deep");
                        }
                        depth = depth.max(hops);
                    }
                    assert_eq!(edges, c.nodes() as usize - 1, "dim {dim} tree {tree}");
                    let want = if dim == 1 { 1 } else { dim + 1 };
                    assert_eq!(depth, want, "dim {dim} tree {tree}");
                }
            }
        }
    }

    #[test]
    fn modules_and_cabinets() {
        // §III: 8 nodes/module, 2 modules (16 nodes) per cabinet.
        let c = Hypercube::new(6); // 64 nodes
        assert_eq!(c.modules(), 8);
        assert_eq!(c.cabinets(), 4);
        assert_eq!(c.module_of(0), 0);
        assert_eq!(c.module_of(7), 0);
        assert_eq!(c.module_of(8), 1);
        // Intramodule edges span the three lowest dimensions only.
        for node in c.iter() {
            for d in 0..3 {
                assert_eq!(c.module_of(node), c.module_of(c.neighbor(node, d)));
            }
        }
        // The 12-cube: 4096 nodes, 512 modules, 256 cabinets (paper's max).
        let max = Hypercube::new(12);
        assert_eq!(max.nodes(), 4096);
        assert_eq!(max.modules(), 512);
        assert_eq!(max.cabinets(), 256);
    }

    #[test]
    fn sublink_budget_paper_numbers() {
        let b = SublinkBudget::default();
        assert_eq!(SublinkBudget::TOTAL, 16);
        assert_eq!(b.for_hypercube(), 12);
        assert_eq!(b.max_dim(), 12, "largest practical machine is a 12-cube");
        assert!(b.supports(12));
        assert!(!b.supports(13));
        // Without the I/O reservation the architecture tops out at 14.
        let no_io = SublinkBudget { system: 2, io: 0 };
        assert_eq!(no_io.max_dim(), 14);
    }

    #[test]
    #[should_panic(expected = "dimension 14")]
    fn fifteen_cube_rejected() {
        let _ = Hypercube::new(15);
    }

    #[test]
    fn subcube_relabeling_round_trips() {
        // A 2-subcube of a 4-cube on dimensions {1, 3} at base 0b0101.
        let s = Subcube::new(0b0101, vec![1, 3]);
        assert_eq!(s.dim(), 2);
        assert_eq!(s.len(), 4);
        let phys: Vec<NodeId> = s.iter().collect();
        assert_eq!(phys, vec![0b0101, 0b0111, 0b1101, 0b1111]);
        for v in 0..s.len() {
            assert_eq!(s.to_virt(s.to_phys(v)), Some(v));
        }
        assert_eq!(s.to_virt(0b0100), None, "outside the subcube");
        assert!(s.contains(0b1111));
        assert!(!s.contains(0));
    }

    #[test]
    fn subcube_edges_are_physical_cube_edges() {
        // Virtual neighbours across virtual dimension k are physical
        // neighbours across dims()[k]: one hop, never more.
        let c = Hypercube::new(5);
        let s = Subcube::new(0b00010, vec![0, 2, 4]);
        for v in 0..s.len() {
            for k in 0..s.dim() {
                let pv = s.to_phys(v);
                let pn = s.to_phys(v ^ (1 << k));
                assert_eq!(c.distance(pv, pn), 1);
                assert_eq!(pv ^ pn, 1 << s.dims()[k as usize]);
            }
        }
    }

    #[test]
    fn aligned_subcubes_of_dim_le_3_stay_in_one_module() {
        for d in 0..=3u32 {
            for base in (0..64).step_by(1 << d) {
                let s = Subcube::aligned(base, d);
                assert!(s.within_one_module(), "aligned {d}-subcube at {base}");
            }
        }
        // A 4-subcube necessarily spans two modules.
        assert!(!Subcube::aligned(0, 4).within_one_module());
    }

    #[test]
    fn disjoint_aligned_blocks_are_disjoint() {
        let a = Subcube::aligned(0, 2);
        let b = Subcube::aligned(4, 2);
        let c = Subcube::aligned(0, 3);
        assert!(a.disjoint(&b));
        assert!(b.disjoint(&a));
        assert!(!a.disjoint(&c), "the 3-subcube covers the 2-subcube");
        assert!(!a.disjoint(&a));
    }

    #[test]
    #[should_panic(expected = "low corner")]
    fn subcube_base_must_be_canonical() {
        let _ = Subcube::new(0b10, vec![1]);
    }
}
