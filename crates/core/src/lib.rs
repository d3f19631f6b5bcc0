//! # t-series-core — the whole machine
//!
//! Assembles nodes into the homogeneous system of §III:
//!
//! * [`Machine`] — 2ⁿ nodes wired as a binary n-cube. Dimension *d* of the
//!   cube rides physical link *d mod 4* on each node, so a large cube's
//!   dimensions genuinely share the four link engines the way the sublink
//!   multiplexing does in hardware.
//! * **Modules** — every 8 nodes (a 3-subcube) get a [`system::SystemBoard`]
//!   with a disk; boards chain into the **system ring**, independent of the
//!   hypercube network. Snapshots for checkpoint/restart flow over the
//!   system thread exactly as §III describes — which is why they take the
//!   same ~16 s no matter how big the machine is.
//! * [`collectives`] — broadcast / reduce / all-reduce / all-gather /
//!   barrier on binomial trees and dimension exchange: the communication
//!   library every kernel builds on.
//! * [`checkpoint`] — the two-version [`CheckpointStore`] every
//!   saved memory state lives in, and snapshot-interval policy: Young's
//!   approximation and a Monte-Carlo failure/replay simulation
//!   (experiment E8).
//! * [`baseline`] — the §I comparison points: a bus-based shared-memory
//!   machine model and interconnect cost counts (experiment E13).
//!
//! ```no_run
//! use t_series_core::{Machine, MachineCfg};
//!
//! let mut m = Machine::build(MachineCfg::cube(2));
//! let handles = m.launch(|ctx| async move { ctx.id() * 10 });
//! m.run();
//! assert_eq!(handles[3].try_take(), Some(30));
//! ```

#![deny(missing_docs)]

pub mod baseline;
pub mod checkpoint;
pub mod collectives;
pub mod fault;
pub mod model;
pub mod parallel;
pub mod report;
pub mod router;
pub mod supervisor;
pub mod system;

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

pub use ts_cube::Hypercube;
use ts_cube::{NodeId, Subcube, SublinkBudget};
use ts_link::{BoundaryOutbox, LinkChannel, LinkMeters, LinkParams, LinkStatus, Wire};
use ts_node::{Node, NodeCfg, NodeCtx, NodeMeters};
use ts_sim::{Dur, JoinHandle, MetricsRegistry, RunReport, Sim, SimHandle, Time};

use crate::checkpoint::{CheckpointStats, CheckpointStore, Payload, SnapshotMode};
use crate::system::{Disk, SystemBoard};

/// Peak floating-point rate of one node, MFLOPS (§II).
pub const NODE_PEAK_MFLOPS: f64 = 16.0;

/// Machine configuration.
#[derive(Clone, Copy, Debug)]
pub struct MachineCfg {
    /// Cube dimension (nodes = 2^dim).
    pub dim: u32,
    /// Per-node configuration.
    pub node: NodeCfg,
    /// Sublink allocation policy (validates the dimension).
    pub budget: SublinkBudget,
}

impl MachineCfg {
    /// A cube of `dim` dimensions with the paper's node configuration.
    pub fn cube(dim: u32) -> MachineCfg {
        MachineCfg {
            dim,
            node: NodeCfg::default(),
            budget: SublinkBudget::default(),
        }
    }

    /// A cube with **all** board-level sublinks ganged for cube dimensions:
    /// the paper's full-machine budget, reaching the 14-cube (16,384 nodes)
    /// by giving up the spare I/O sublinks that the default budget reserves.
    /// Uses small per-node memory so host RAM survives the node count.
    pub fn cube_max(dim: u32) -> MachineCfg {
        let mut cfg = MachineCfg::cube_small_mem(dim, 4);
        cfg.budget = SublinkBudget { system: 2, io: 0 };
        cfg
    }

    /// Same cube but with reduced per-node memory (large machines on small
    /// hosts). `rows` must be a multiple of 4.
    pub fn cube_small_mem(dim: u32, rows: usize) -> MachineCfg {
        let mut cfg = MachineCfg::cube(dim);
        cfg.node.mem = ts_mem::MemCfg::small(rows);
        cfg
    }

    /// Derived headline specifications (§III's scaling table).
    pub fn specs(&self) -> Specs {
        let cube = Hypercube::new(self.dim);
        let nodes = cube.nodes() as u64;
        Specs {
            dim: self.dim,
            nodes,
            modules: cube.modules() as u64,
            cabinets: cube.cabinets() as u64,
            peak_mflops: nodes as f64 * NODE_PEAK_MFLOPS,
            memory_bytes: nodes * self.node.mem.bytes() as u64,
            disks: cube.modules() as u64,
            // 8 nodes × 3 intramodule dimensions × 0.5 MB/s each way.
            intramodule_mb_per_s: 8.0 * 3.0 * LinkParams::default().effective_mb_per_s(),
            max_hops: self.dim,
        }
    }
}

/// Headline numbers for a configuration (experiment E7).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Specs {
    /// Cube dimension.
    pub dim: u32,
    /// Node count.
    pub nodes: u64,
    /// 8-node modules.
    pub modules: u64,
    /// 16-node cabinets.
    pub cabinets: u64,
    /// Aggregate peak MFLOPS.
    pub peak_mflops: f64,
    /// Total user memory.
    pub memory_bytes: u64,
    /// System disks (one per module).
    pub disks: u64,
    /// Local inter-node bandwidth within a module, MB/s (paper: "over 12").
    pub intramodule_mb_per_s: f64,
    /// Network diameter (max hops) — O(log₂ p).
    pub max_hops: u32,
}

/// Why a snapshot or restore (machine-wide or of one partition) failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// The [`CheckpointStore`] covers a different number of
    /// nodes than the machine (or partition) it was used with.
    BadImageCount {
        /// Nodes in the machine or partition.
        expected: usize,
        /// Nodes the store covers.
        got: usize,
    },
    /// A committed image's word count does not match its node's memory.
    BadImageGeometry {
        /// The mismatched node.
        node: NodeId,
        /// Words the node's memory holds.
        expected: usize,
        /// Words the image holds.
        got: usize,
    },
    /// The operation needs `node` alive, but its control processor is
    /// crashed (reboot first, then restore).
    NodeDown {
        /// The dead node.
        node: NodeId,
    },
    /// The simulated procedure deadlocked before completing (a system
    /// thread is down, or unrelated tasks wedged the simulation).
    Stalled {
        /// Which procedure stalled.
        op: &'static str,
    },
    /// Restore was requested from a [`CheckpointStore`] that
    /// has never committed a snapshot.
    NoCheckpoint,
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MachineError::BadImageCount { expected, got } => {
                write!(f, "expected {expected} snapshot images, got {got}")
            }
            MachineError::BadImageGeometry {
                node,
                expected,
                got,
            } => {
                write!(
                    f,
                    "image for n{node} has {got} words, memory holds {expected}"
                )
            }
            MachineError::NodeDown { node } => write!(f, "node n{node} is down"),
            MachineError::Stalled { op } => write!(f, "{op} deadlocked before completing"),
            MachineError::NoCheckpoint => {
                write!(f, "checkpoint store holds no committed version")
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// The hardware [`wire`] assembles for one node range: the whole machine,
/// or one shard's slice of it.
pub(crate) struct Wired {
    /// The range's nodes, in address order.
    pub(crate) nodes: Vec<Node>,
    /// The range's system boards, in module order.
    pub(crate) boards: Vec<SystemBoard>,
    /// Boundary sublinks by directed-edge id ([`edge_key`]); empty when the
    /// range is the whole cube.
    pub(crate) boundary: HashMap<u64, LinkChannel>,
    /// Where those sublinks post their cross-shard envelopes.
    pub(crate) outbox: BoundaryOutbox,
}

/// Stable directed-edge id of the cube edge `tx_node --dim-->`.
fn edge_key(tx_node: u32, dim: u32) -> u64 {
    ((tx_node as u64) << 6) | dim as u64
}

/// The meters of a cube sublink from `tx` to `rx`. The transmitting node
/// books message, byte and word counts at commit and the retransmit
/// accounting — corruption is injected at the sender's end and
/// retransmission is the sender's work; the receiving node books delivery
/// counts and message latency at delivery. A boundary half has one local node, which stands
/// on both sides: each half only ever books its own.
fn cube_meters(tx: &NodeMeters, rx: &NodeMeters) -> LinkMeters {
    LinkMeters {
        msgs_sent: tx.link_msgs_sent.clone(),
        bytes_sent: tx.link_bytes_sent.clone(),
        words_sent: tx.link_words_sent.clone(),
        retransmits: tx.link_retransmits.clone(),
        crc_errors: tx.link_crc_errors.clone(),
        escalations: tx.link_escalations.clone(),
        msgs_recv: rx.link_msgs_recv.clone(),
        bytes_recv: rx.link_bytes_recv.clone(),
        words_recv: rx.link_words_recv.clone(),
        latency_ns: Some(rx.link_latency_ns.clone()),
    }
}

/// Assemble the homogeneous unit of §III — nodes, cube edges, one system
/// board per 8-node module, the system ring — for the nodes `range` of
/// `cfg`'s cube. [`Machine::build`] passes the whole cube; the parallel
/// backend passes one shard's aligned block, and then a cube edge whose far
/// end lies outside the range becomes a pair of boundary half-links and the
/// ring stays open at the block's ends (ring traffic is unsupported across
/// shards).
///
/// Panics if the sublink budget cannot support `cfg.dim` (a 13-cube needs
/// the I/O sublinks the default allocation reserves — §III).
pub(crate) fn wire(
    cfg: &MachineCfg,
    h: &SimHandle,
    registry: &MetricsRegistry,
    range: Range<u32>,
) -> Wired {
    assert!(
        cfg.budget.supports(cfg.dim),
        "sublink budget supports at most a {}-cube",
        cfg.budget.max_dim()
    );
    let cube = Hypercube::new(cfg.dim);
    let whole = range == (0..cube.nodes());
    let li = |id: u32| (id - range.start) as usize;
    let nodes: Vec<Node> = range
        .clone()
        .map(|id| Node::with_registry(id, cfg.node, h.clone(), registry))
        .collect();

    // Four link engines per node, each direction its own FIFO server.
    let link = LinkParams::default();
    let engines = |name: &'static str| -> Vec<Vec<Wire>> {
        range
            .clone()
            .map(|_| (0..4).map(|_| Wire::new(name, link)).collect())
            .collect()
    };
    let wires_out = engines("link.out");
    let wires_in = engines("link.in");

    let outbox: BoundaryOutbox = Default::default();
    let mut boundary: HashMap<u64, LinkChannel> = HashMap::new();

    // Hypercube edges: dimension d rides physical link d mod 4.
    for d in 0..cfg.dim {
        let l = (d % 4) as usize;
        for a in range.clone() {
            let b = cube.neighbor(a, d);
            let ai = li(a);
            if range.contains(&b) {
                if a > b {
                    continue;
                }
                let bi = li(b);
                // Both directions of one physical edge share a health flag,
                // so a single LinkDown fault fails traffic both ways.
                let status = LinkStatus::new();
                let directed = |tx: usize, rx: usize| {
                    LinkChannel::metered(
                        wires_out[tx][l].clone(),
                        wires_in[rx][l].clone(),
                        status.clone(),
                        cube_meters(nodes[tx].meters(), nodes[rx].meters()),
                    )
                };
                let (ab, ba) = (directed(ai, bi), directed(bi, ai));
                nodes[ai].wire_dim(d as usize, ab.clone(), ba.clone());
                nodes[bi].wire_dim(d as usize, ba, ab);
            } else {
                // The far end lives on another shard: a boundary half on
                // each side stands in for the rendezvous pair.
                let peer = b / range.len() as u32;
                let meters = || cube_meters(nodes[ai].meters(), nodes[ai].meters());
                let out = LinkChannel::new_boundary_tx(
                    wires_out[ai][l].clone(),
                    edge_key(a, d),
                    peer,
                    outbox.clone(),
                    meters(),
                );
                let inp = LinkChannel::new_boundary_rx(
                    wires_in[ai][l].clone(),
                    edge_key(b, d),
                    peer,
                    outbox.clone(),
                    meters(),
                );
                boundary.insert(edge_key(a, d), out.clone());
                boundary.insert(edge_key(b, d), inp.clone());
                nodes[ai].wire_dim(d as usize, out, inp);
            }
        }
    }

    // System boards: one per 8-node module; the system thread uses the
    // nodes' link 3 and the board's own engine.
    let modules = range.start as usize / 8..(range.end as usize).div_ceil(8);
    let mut boards = Vec::with_capacity(modules.len());
    for m in modules {
        let board_out = Wire::new("board.out", link);
        let board_in = Wire::new("board.in", link);
        let mut to_node = Vec::new();
        let mut from_node = Vec::new();
        for id in (m * 8) as u32..((m + 1) * 8).min(range.end as usize) as u32 {
            let i = li(id);
            let down = LinkChannel::new_pair(board_out.clone(), wires_in[i][3].clone());
            let up = LinkChannel::metered(
                wires_out[i][3].clone(),
                board_in.clone(),
                down.status().clone(),
                LinkMeters::detached(),
            );
            nodes[i].wire_system(up.clone(), down.clone());
            to_node.push(down);
            from_node.push(up);
        }
        boards.push(SystemBoard::new(
            m as u32,
            h.clone(),
            to_node,
            from_node,
            board_out,
            board_in,
            Disk::new(system::DISK_RATE),
        ));
    }
    // Ring links between consecutive boards (independent of the cube); the
    // last board links back to the first only when the ring is whole.
    let n = boards.len();
    let ring_links = if whole && n > 1 {
        n
    } else {
        n.saturating_sub(1)
    };
    for m in 0..ring_links {
        let next = (m + 1) % n;
        let ch =
            LinkChannel::new_pair(boards[m].wire_out().clone(), boards[next].wire_in().clone());
        boards[m].set_ring_next(ch.clone());
        boards[next].set_ring_prev(ch);
    }

    Wired {
        nodes,
        boards,
        boundary,
        outbox,
    }
}

/// A complete, wired T Series machine plus its simulation.
pub struct Machine {
    /// The interconnect shape.
    pub cube: Hypercube,
    /// All nodes, indexed by hypercube address.
    pub nodes: Vec<Node>,
    /// One system board per module, in module order.
    pub boards: Vec<SystemBoard>,
    cfg: MachineCfg,
    sim: Sim,
    registry: MetricsRegistry,
}

impl Machine {
    /// Build and wire the machine.
    ///
    /// Panics if the sublink budget cannot support `cfg.dim` (a 13-cube
    /// needs the I/O sublinks the default allocation reserves — §III).
    pub fn build(cfg: MachineCfg) -> Machine {
        let sim = Sim::new();
        let registry = MetricsRegistry::new();
        let cube = Hypercube::new(cfg.dim);
        let Wired { nodes, boards, .. } = wire(&cfg, &sim.handle(), &registry, 0..cube.nodes());
        Machine {
            cube,
            nodes,
            boards,
            cfg,
            sim,
            registry,
        }
    }

    /// The configuration this machine was built from.
    pub fn cfg(&self) -> &MachineCfg {
        &self.cfg
    }

    /// Simulation handle (for host-side tasks).
    pub fn handle(&self) -> SimHandle {
        self.sim.handle()
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// A node's program context.
    pub fn ctx(&self, id: NodeId) -> NodeCtx {
        self.nodes[id as usize].ctx()
    }

    /// Launch one program per node (SPMD). Returns the join handles in
    /// node order; call [`Machine::run`] to execute.
    pub fn launch<F, Fut>(&mut self, mut program: F) -> Vec<JoinHandle<Fut::Output>>
    where
        F: FnMut(NodeCtx) -> Fut,
        Fut: std::future::Future + 'static,
        Fut::Output: 'static,
    {
        let mut handles = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let fut = program(node.ctx());
            handles.push(self.sim.spawn(fut));
        }
        handles
    }

    /// Launch a program on a single node. The future should capture that
    /// node's [`NodeCtx`] (obtained via [`Machine::ctx`]); the `id` names
    /// the intended node for readers and debug assertions.
    pub fn launch_on<Fut>(&mut self, id: NodeId, fut: Fut) -> JoinHandle<Fut::Output>
    where
        Fut: std::future::Future + 'static,
        Fut::Output: 'static,
    {
        debug_assert!((id as usize) < self.nodes.len(), "no node {id}");
        self.sim.spawn(fut)
    }

    /// Run the simulation to quiescence.
    pub fn run(&mut self) -> RunReport {
        self.sim.run()
    }

    /// Executor profile counters (polls, timer events, spawns, heap
    /// high-water mark) accumulated since the machine was built. The scale
    /// benchmarks divide `timer_events` by host wall-clock to get the
    /// simulator's events/sec throughput.
    pub fn profile(&self) -> ts_sim::ExecProfile {
        self.sim.profile()
    }

    // --- space sharing ------------------------------------------------------

    /// A node's program context relabeled into `sub`'s coordinates: the
    /// context reports virtual id `virt` and maps virtual dimension `k`
    /// onto physical dimension `sub.dims()[k]`, so kernels and
    /// collectives written for a dim-`sub.dim()` cube run unmodified
    /// inside the partition.
    pub fn subcube_ctx(&self, sub: &Subcube, virt: NodeId) -> NodeCtx {
        let phys = sub.to_phys(virt);
        let dims: Vec<usize> = sub.dims().iter().map(|&d| d as usize).collect();
        self.nodes[phys as usize].ctx().subcube_view(virt, dims)
    }

    /// Launch one program per node of the partition (SPMD over the
    /// subcube, in virtual node order). Counterpart of
    /// [`Machine::launch`] for space-shared operation.
    pub fn launch_subcube<F, Fut>(
        &mut self,
        sub: &Subcube,
        mut program: F,
    ) -> Vec<JoinHandle<Fut::Output>>
    where
        F: FnMut(NodeCtx) -> Fut,
        Fut: std::future::Future + 'static,
        Fut::Output: 'static,
    {
        let mut handles = Vec::with_capacity(sub.len() as usize);
        for virt in 0..sub.len() {
            let fut = program(self.subcube_ctx(sub, virt));
            handles.push(self.sim.spawn(fut));
        }
        handles
    }

    // --- fault injection ----------------------------------------------------

    /// The machine's fault-injection facade: link repair and probe, disk
    /// and ring faults. Node faults are [`fault::FaultEvent`]s.
    pub fn faults(&self) -> FaultInjector<'_> {
        FaultInjector { m: self }
    }

    /// Run at most `d` further virtual time. With nothing left to run the
    /// clock stops at the last event, short of `d`: a caller that slices
    /// time follows up with [`Machine::advance_to`].
    pub fn run_for(&mut self, d: Dur) -> RunReport {
        self.sim.run_for(d)
    }

    /// Move an idle clock forward to `at` without running anything (no-op
    /// if it is already there or past).
    pub fn advance_to(&mut self, at: Time) {
        self.sim.advance_to(at);
    }

    /// The machine-wide metrics registry — the one store every count lives
    /// in: each node's unit meters and cold counters under `node/{id}/...`,
    /// machine-level facts (checkpoints, supervisor accounting, disk and
    /// ring faults) under `machine/...`, plus whatever routers, collectives
    /// and schedulers register.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Achieved MFLOPS across the machine for the elapsed simulated time.
    pub fn achieved_mflops(&self) -> f64 {
        let flops = self.nodes.iter().map(|n| n.meters().vec_flops.get()).sum();
        ts_sim::mflops(flops, self.now().since(Time::ZERO))
    }

    /// Attach an execution tracer across the whole machine:
    ///
    /// * busy spans on every node's hardware units (`n<id>.cp`, `n<id>.vec`,
    ///   `n<id>.port`) and link engines (`n<id>.l<l>`);
    /// * flow arrows from sender to receiver link track for every message
    ///   delivered over a cube edge.
    ///
    /// Export with [`ts_sim::write_trace`] for ui.perfetto.dev.
    pub fn enable_tracing(&self) -> ts_sim::Tracer {
        let tracer = ts_sim::Tracer::new();
        for node in &self.nodes {
            node.attach_tracer(&tracer);
        }
        for a in self.cube.iter() {
            for d in 0..self.cfg.dim {
                let b = self.cube.neighbor(a, d);
                let l = (d % 4) as usize;
                if let Some(ch) = self.nodes[a as usize].out_channel(d as usize) {
                    ch.wire()
                        .resource()
                        .attach_tracer(tracer.clone(), format!("n{a}.l{l}"));
                    let from = tracer.track(&format!("n{a}.l{l}"));
                    let to = tracer.track(&format!("n{b}.l{l}"));
                    ch.enable_flow_trace(tracer.clone(), from, to);
                }
            }
        }
        tracer
    }

    /// A per-node utilization report for the elapsed run: vector-unit and
    /// control-processor busy fractions, flops, and link traffic. The kind
    /// of post-mortem the machine's system software would print.
    pub fn utilization_report(&self) -> String {
        self.report_data().render()
    }

    /// Capture everything [`Machine::utilization_report`] prints as plain
    /// `Send` data. The parallel backend captures one of these per shard and
    /// merges them in shard order; rendering the merged capture reproduces
    /// the sequential report byte for byte.
    pub fn report_data(&self) -> report::ReportData {
        report::ReportData::capture(self.now(), &self.registry, &self.nodes, &self.boards)
    }

    // --- checkpointing ------------------------------------------------------

    /// The nodes of module `m`, as indices into [`Machine::nodes`].
    fn module_nodes(&self, m: usize) -> Range<usize> {
        m * 8..((m + 1) * 8).min(self.nodes.len())
    }

    /// A partition's nodes in virtual order.
    fn subcube_nodes<'a>(&'a self, sub: &'a Subcube) -> impl Iterator<Item = &'a Node> + Clone {
        (0..sub.len()).map(move |v| &self.nodes[sub.to_phys(v) as usize])
    }

    /// Take a machine-wide snapshot into a two-version [`CheckpointStore`],
    /// as the simulated §III procedure:
    ///
    /// 1. **stream** — every node sends its payload (a full image, or the
    ///    dirty rows since the last commit for [`SnapshotMode::Delta`]) up
    ///    the system thread; the boards write each chunk to their disks as
    ///    it lands, into the store's *staging* version;
    /// 2. **commit** — [`system::ring_commit`] circulates prepare and
    ///    commit tokens around the system ring; only when both laps
    ///    complete does the staged version atomically become the committed
    ///    one.
    ///
    /// Any stall — a node crashing mid-stream, a faulted disk, a condemned
    /// ring link — aborts the snapshot: staging is discarded, the previous
    /// committed version is untouched, every row is re-marked dirty (the
    /// payloads that claimed them are lost), and the error is returned. An
    /// aborted machine has parked snapshot tasks and needs the same reboot
    /// a crash does before further use.
    ///
    /// A requested delta is promoted to full when the store has no
    /// committed base yet. A store that does not fit the machine, or a
    /// crashed node (a dead control processor cannot stream its memory), is
    /// refused up front with [`MachineError::BadImageCount`],
    /// [`MachineError::BadImageGeometry`] or [`MachineError::NodeDown`].
    pub fn checkpoint(
        &mut self,
        store: &mut CheckpointStore,
        mode: SnapshotMode,
    ) -> Result<CheckpointStats, MachineError> {
        validate(store, self.nodes.iter())?;
        let effective = store.effective_mode(mode);
        store.begin();
        let t0 = self.sim.now();
        let bytes_full: u64 = self
            .nodes
            .iter()
            .map(|n| streamed_bytes(n, SnapshotMode::Full))
            .sum();
        let mut bytes_streamed = 0u64;
        let mut dirty_rows = 0u64;
        let mut payload_handles = Vec::new();
        for (m, board) in self.boards.iter().enumerate() {
            let ids = self.module_nodes(m);
            let count = ids.len();
            for id in ids {
                let node = &self.nodes[id];
                let ctx = node.ctx();
                bytes_streamed += streamed_bytes(node, effective);
                let (mode_word, payload) = match capture(node, effective) {
                    Payload::Full(image) => (system::PAYLOAD_FULL, image),
                    Payload::Delta(delta) => {
                        dirty_rows += delta.row_count() as u64;
                        (system::PAYLOAD_DELTA, delta.encode())
                    }
                };
                self.sim.spawn(async move {
                    system::send_payload(&ctx, mode_word, &payload).await;
                });
            }
            let board = board.clone();
            payload_handles.push(
                self.sim
                    .spawn(async move { board.collect_payloads(count).await }),
            );
        }
        if !self.sim.run().quiescent {
            self.abort_checkpoint(store);
            return Err(MachineError::Stalled { op: "checkpoint" });
        }
        // Everything streamed: stage the payloads (the disks already hold
        // the bytes; staging is the controllers' bookkeeping).
        let mut node_idx = 0usize;
        for h in payload_handles {
            let payloads = h
                .try_take()
                .ok_or(MachineError::Stalled { op: "checkpoint" })?;
            for (mode_word, words) in payloads {
                let payload = if mode_word == system::PAYLOAD_FULL {
                    Payload::Full(words)
                } else {
                    let delta = ts_mem::RowDelta::decode(&words);
                    Payload::Delta(delta.expect("delta payload corrupted in flight"))
                };
                store
                    .stage(node_idx, payload)
                    .expect("delta staged without a committed base");
                node_idx += 1;
            }
        }
        // The atomic version flip: prepare + commit token laps on the ring.
        {
            let boards = self.boards.clone();
            let epoch = store.epoch() + 1;
            self.sim.spawn(async move {
                system::ring_commit(&boards, epoch).await;
            });
        }
        if !self.sim.run().quiescent {
            self.abort_checkpoint(store);
            return Err(MachineError::Stalled {
                op: "checkpoint commit",
            });
        }
        store
            .commit(effective, bytes_streamed, bytes_full)
            .expect("commit with a fully staged store");
        let met = self.registry.scope("machine/ckpt");
        match effective {
            SnapshotMode::Full => met.counter("full").inc(),
            SnapshotMode::Delta => met.counter("delta").inc(),
        }
        met.counter("bytes_streamed").add(bytes_streamed);
        met.counter("bytes_full_equiv").add(bytes_full);
        Ok(CheckpointStats {
            mode: effective,
            duration: self.sim.now().since(t0),
            bytes_streamed,
            bytes_full,
            dirty_rows,
        })
    }

    /// Discard a torn snapshot attempt. The dirty bits captured into the
    /// (now lost) payloads were already cleared, so every row is re-marked
    /// dirty: the next delta degenerates to a full image rather than
    /// silently missing the rows the aborted stream had claimed.
    fn abort_checkpoint(&self, store: &mut CheckpointStore) {
        store.abort();
        for n in &self.nodes {
            n.mem_mut().mark_all_dirty();
        }
        self.registry.counter("machine/ckpt/torn_aborts").inc();
    }

    /// Restore every node's memory from the store's committed version (the
    /// crash-recovery path: always a full-image stream down the system
    /// threads, disk read first). Each node's dirty bits are cleared as its
    /// image lands — memory now equals the committed checkpoint exactly.
    ///
    /// Refuses a store that does not fit or a crashed node (reboot first)
    /// like [`Machine::checkpoint`]; fails with
    /// [`MachineError::NoCheckpoint`] before the first commit and
    /// [`MachineError::Stalled`] on deadlock.
    pub fn restore_from(&mut self, store: &CheckpointStore) -> Result<Dur, MachineError> {
        validate(store, self.nodes.iter())?;
        if !store.has_committed() {
            return Err(MachineError::NoCheckpoint);
        }
        let t0 = self.sim.now();
        for (m, board) in self.boards.iter().enumerate() {
            let ids = self.module_nodes(m);
            let board = board.clone();
            let module_images = store.committed()[ids.clone()].to_vec();
            self.sim.spawn(async move {
                board.send_restore(module_images).await;
            });
            for id in ids {
                let ctx = self.nodes[id].ctx();
                let node = self.nodes[id].clone();
                self.sim.spawn(async move {
                    let image = system::recv_image(&ctx).await;
                    load_image(&node, &image);
                });
            }
        }
        if !self.sim.run().quiescent {
            return Err(MachineError::Stalled { op: "restore" });
        }
        Ok(self.sim.now().since(t0))
    }

    /// Host-side counterpart of [`Machine::checkpoint`] for one partition:
    /// capture `sub`'s node memories, in virtual node order, into a store
    /// sized `sub.len()` and commit at once — full images the first time,
    /// the rows dirtied since after that. Takes zero simulated time, so
    /// nothing can tear; callers that model the §III streaming cost (as
    /// `ts-sched` does for job checkpoints) charge it themselves, from the
    /// payload bytes this returns (stream headers not included). Refuses
    /// what [`Machine::checkpoint`] refuses.
    pub fn capture_subcube(
        &self,
        store: &mut CheckpointStore,
        sub: &Subcube,
    ) -> Result<u64, MachineError> {
        validate(store, self.subcube_nodes(sub))?;
        let mode = store.effective_mode(SnapshotMode::Delta);
        store.begin();
        let (mut bytes, mut bytes_full) = (0u64, 0u64);
        for (v, node) in self.subcube_nodes(sub).enumerate() {
            bytes += payload_bytes(node, mode);
            bytes_full += payload_bytes(node, SnapshotMode::Full);
            store
                .stage(v, capture(node, mode))
                .expect("delta staged without a committed base");
        }
        store
            .commit(mode, bytes, bytes_full)
            .expect("commit with a fully staged store");
        Ok(bytes)
    }

    /// Host-side counterpart of [`Machine::restore_from`] for one
    /// partition: load the store's committed images, in virtual node order,
    /// onto `sub` — which may be a *different* subcube of the same dim than
    /// the one they were captured on (the job-migration path). Zero
    /// simulated time; returns the image bytes loaded. Fails like
    /// [`Machine::restore_from`], minus the stall.
    pub fn load_subcube(
        &self,
        store: &CheckpointStore,
        sub: &Subcube,
    ) -> Result<u64, MachineError> {
        validate(store, self.subcube_nodes(sub))?;
        if !store.has_committed() {
            return Err(MachineError::NoCheckpoint);
        }
        let mut bytes = 0u64;
        for (node, image) in self.subcube_nodes(sub).zip(store.committed()) {
            load_image(node, image);
            bytes += image.len() as u64 * 4;
        }
        Ok(bytes)
    }

    /// A host-side upper estimate of how long [`Machine::checkpoint`] will
    /// run: the slowest module's payload bytes over the system-thread
    /// rate, plus commit slack, with 50 % headroom. The supervisor uses it
    /// to pre-schedule faults that land inside the snapshot window.
    pub fn checkpoint_eta(&self, store: &CheckpointStore, mode: SnapshotMode) -> Dur {
        let effective = store.effective_mode(mode);
        let module_bytes = |m| -> u64 {
            let ids = self.module_nodes(m);
            ids.map(|id| streamed_bytes(&self.nodes[id], effective))
                .sum()
        };
        let worst = (0..self.boards.len()).map(module_bytes).max().unwrap_or(0);
        let stream = worst as f64 / (LinkParams::default().effective_mb_per_s() * 1e6);
        let commit = 1e-3 * self.boards.len() as f64
            + system::COMMIT_RECORD_BYTES as f64 / system::DISK_RATE;
        Dur::from_secs_f64((stream + commit) * 1.5 + 1e-6)
    }
}

/// Bytes of `node`'s snapshot payload in `mode`: every word of memory, or
/// the [`ts_mem::RowDelta`] encoding of the rows dirty right now.
fn payload_bytes(node: &Node, mode: SnapshotMode) -> u64 {
    let mem = node.mem();
    match mode {
        SnapshotMode::Full => mem.cfg().bytes() as u64,
        SnapshotMode::Delta => {
            let rows = mem.dirty_row_count() as u64;
            (1 + rows + rows * ts_mem::ROW_WORDS as u64) * 4
        }
    }
}

/// Bytes the same payload puts on the node's system thread: the two-word
/// `[mode, len]` stream header rides along.
fn streamed_bytes(node: &Node, mode: SnapshotMode) -> u64 {
    payload_bytes(node, mode) + 8
}

/// Capture one node's snapshot payload. Dirty bits transfer to the payload
/// at capture time: a write landing while the payload is still in flight
/// dirties its row afresh and rides the *next* delta. (When a streamed
/// snapshot aborts, [`Machine::checkpoint`] re-marks the captured bits
/// wholesale.)
fn capture(node: &Node, mode: SnapshotMode) -> Payload {
    let mut mem = node.mem_mut();
    let payload = match mode {
        SnapshotMode::Full => Payload::Full(mem.snapshot()),
        SnapshotMode::Delta => Payload::Delta(mem.snapshot_delta()),
    };
    mem.clear_dirty();
    payload
}

/// Check that `store` fits `nodes` (the whole machine in address order, or
/// a partition in virtual order) before anything is captured from or loaded
/// onto them: one slot per node, every committed image the size of its
/// node's memory, and every node alive.
fn validate<'a>(
    store: &CheckpointStore,
    nodes: impl Iterator<Item = &'a Node> + Clone,
) -> Result<(), MachineError> {
    let (expected, got) = (nodes.clone().count(), store.nodes());
    if got != expected {
        return Err(MachineError::BadImageCount { expected, got });
    }
    for (v, node) in nodes.enumerate() {
        let expected = node.mem().cfg().words();
        match store.committed().get(v) {
            Some(image) if image.len() != expected => {
                return Err(MachineError::BadImageGeometry {
                    node: node.id,
                    expected,
                    got: image.len(),
                });
            }
            _ if node.is_crashed() => return Err(MachineError::NodeDown { node: node.id }),
            _ => {}
        }
    }
    Ok(())
}

/// Load one committed image into a node's memory. Scrub first: count the
/// words whose parity a fault desynced, so the recovery report can show
/// them. Afterwards memory equals the checkpoint, so no row is dirty.
fn load_image(node: &Node, image: &[u32]) {
    let mut mem = node.mem_mut();
    let latent = mem.scrub_all();
    mem.restore(image);
    mem.clear_dirty();
    drop(mem);
    if latent > 0 {
        node.meters().cold().fault_scrubbed_words.add(latent as u64);
    }
}

/// Fault-injection facade returned by [`Machine::faults`]: what breaks or
/// repairs hardware without being a node fault. A node fault is a
/// [`fault::FaultEvent`], injected with [`fault::FaultEvent::apply`] and
/// booked under the node's `fault/...`; here are its link repair and probe,
/// and the disk and ring faults (which belong to a module, not a node),
/// booked under `machine/fault/...`.
pub struct FaultInjector<'m> {
    m: &'m Machine,
}

impl FaultInjector<'_> {
    /// Repair the physical link carrying cube dimension `dim` at `node`
    /// (the inverse of [`fault::FaultEvent::LinkDown`]): both directions come
    /// back up.
    pub fn link_up(&self, node: NodeId, dim: u32) {
        let n = &self.m.nodes[node as usize];
        n.set_link_up(dim as usize);
        n.meters().cold().fault_link_repair.inc();
    }

    /// True while the physical link on `(node, dim)` is alive.
    pub fn is_link_up(&self, node: NodeId, dim: u32) -> bool {
        self.m.nodes[node as usize].link_up(dim as usize)
    }

    /// Fault `module`'s disk controller: transfers in flight (and any
    /// started later) hang, so a snapshot touching the module stalls and
    /// aborts. Heals with [`FaultInjector::disk_heal`] or a reboot.
    pub fn disk_fault(&self, module: usize) {
        self.m.boards[module].disk.fail();
        self.m.registry.counter("machine/fault/disk").inc();
    }

    /// Repair `module`'s disk controller.
    pub fn disk_heal(&self, module: usize) {
        self.m.boards[module].disk.heal();
        self.m.registry.counter("machine/fault/disk_repair").inc();
    }

    /// Flap `module`'s outbound system-ring link: down now, self-healing
    /// after `down_for`. Ring traffic (commit tokens, boot images) waits
    /// out the outage instead of failing. No-op on a ringless
    /// single-module machine.
    pub fn ring_flap(&self, module: usize, down_for: ts_sim::Dur) {
        let Some(status) = self.m.boards[module].ring_next_status() else {
            return;
        };
        status.set_down();
        let h = self.m.sim.handle();
        h.clone().spawn(async move {
            h.sleep(down_for).await;
            status.set_up();
        });
        self.m.registry.counter("machine/fault/ring_flap").inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultEvent;

    #[test]
    fn specs_match_paper_table() {
        // Module: 8 nodes, 128 MFLOPS, 8 MB, >12 MB/s intramodule.
        let module = MachineCfg::cube(3).specs();
        assert_eq!(module.nodes, 8);
        assert_eq!(module.peak_mflops, 128.0);
        assert_eq!(module.memory_bytes, 8 << 20);
        assert_eq!(module.modules, 1);
        assert!(module.intramodule_mb_per_s >= 12.0);
        // Cabinet: 16 nodes, two modules.
        let cab = MachineCfg::cube(4).specs();
        assert_eq!(cab.nodes, 16);
        assert_eq!(cab.modules, 2);
        assert_eq!(cab.cabinets, 1);
        // Four cabinets: 64 nodes, 1 GFLOPS, 64 MB, 8 disks.
        let gflops = MachineCfg::cube(6).specs();
        assert_eq!(gflops.nodes, 64);
        assert_eq!(gflops.peak_mflops, 1024.0);
        assert_eq!(gflops.memory_bytes, 64 << 20);
        assert_eq!(gflops.disks, 8);
        assert_eq!(gflops.cabinets, 4);
        // Maximum: 12-cube, 4096 nodes, >65 GFLOPS, 4 GB, 256 cabinets.
        let max = MachineCfg::cube(12).specs();
        assert_eq!(max.nodes, 4096);
        assert!(max.peak_mflops > 65_000.0);
        assert_eq!(max.memory_bytes, 4 << 30);
        assert_eq!(max.cabinets, 256);
        assert_eq!(max.max_hops, 12);
    }

    #[test]
    #[should_panic(expected = "sublink budget")]
    fn thirteen_cube_needs_io_sublinks() {
        let _ = Machine::build(MachineCfg::cube_small_mem(13, 4));
    }

    #[test]
    fn spmd_launch_runs_all_nodes() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        let handles = m.launch(|ctx| async move {
            ctx.cp_compute(100).await;
            ctx.id()
        });
        let r = m.run();
        assert!(r.quiescent);
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.try_take(), Some(i as u32));
        }
        assert_eq!(m.registry().sum_counters("cp/instrs"), 800);
    }

    #[test]
    fn neighbors_exchange_over_every_dimension() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(4, 8));
        let dim = 4;
        let handles = m.launch(move |ctx| async move {
            let mut sum = 0u64;
            for d in 0..dim {
                let me = ctx.id();
                let (send, recv) = (ctx.send_dim(d, vec![me]), ctx.recv_dim(d));
                let (_, got) = ts_node::occam::par2(ctx.handle(), send, recv).await;
                assert_eq!(got[0], me ^ (1 << d));
                sum += got[0] as u64;
            }
            sum
        });
        let r = m.run();
        assert!(r.quiescent, "exchange deadlocked");
        for (i, h) in handles.into_iter().enumerate() {
            let want: u64 = (0..4u32).map(|d| (i as u32 ^ (1 << d)) as u64).sum();
            assert_eq!(h.try_take(), Some(want));
        }
    }

    #[test]
    fn dimensions_share_physical_links() {
        // In a 5-cube, dimensions 0 and 4 ride the same physical link
        // (d mod 4): sending on both at once must serialize on the wire.
        let mut m = Machine::build(MachineCfg::cube_small_mem(5, 8));
        let ctx0 = m.ctx(0);
        m.launch_on(0, async move {
            let (a, b) = (
                ctx0.send_dim(0, vec![0; 256]),
                ctx0.send_dim(4, vec![0; 256]),
            );
            ts_node::occam::par2(ctx0.handle(), a, b).await;
        });
        let ctx1 = m.ctx(1);
        m.launch_on(1, async move {
            ctx1.recv_dim(0).await;
        });
        let ctx16 = m.ctx(16);
        m.launch_on(16, async move {
            ctx16.recv_dim(4).await;
        });
        assert!(m.run().quiescent);
        // Two 1 KB messages (2048 µs each on the wire) sharing node 0's
        // link-0 engine: total ≥ 2 × 2048 µs.
        assert!(m.now().as_us_f64() >= 4096.0, "{}", m.now());

        // Same transfers on different physical links run in parallel.
        let mut m2 = Machine::build(MachineCfg::cube_small_mem(5, 8));
        let ctx0 = m2.ctx(0);
        m2.launch_on(0, async move {
            let (a, b) = (
                ctx0.send_dim(0, vec![0; 256]),
                ctx0.send_dim(1, vec![0; 256]),
            );
            ts_node::occam::par2(ctx0.handle(), a, b).await;
        });
        let ctx1 = m2.ctx(1);
        m2.launch_on(1, async move {
            ctx1.recv_dim(0).await;
        });
        let ctx2 = m2.ctx(2);
        m2.launch_on(2, async move {
            ctx2.recv_dim(1).await;
        });
        assert!(m2.run().quiescent);
        assert!(m2.now().as_us_f64() < 4096.0);
        assert!(m2.now() < m.now());
    }

    #[test]
    fn registry_scopes_per_node_metrics() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        m.launch(|ctx| async move {
            ctx.cp_compute(100).await;
        });
        assert!(m.run().quiescent);
        assert_eq!(m.registry().get_counter("node/3/cp/instrs"), Some(100));
        assert_eq!(m.registry().sum_counters("cp/instrs"), 800);
    }

    #[test]
    fn faults_facade_breaks_and_repairs_links() {
        let m = Machine::build(MachineCfg::cube_small_mem(2, 8));
        let f = m.faults();
        assert!(f.is_link_up(0, 1));
        FaultEvent::LinkDown { node: 0, dim: 1 }.apply(&m);
        assert!(!f.is_link_up(0, 1), "link down at one end downs the edge");
        assert!(!f.is_link_up(2, 1), "the neighbour sees the failure too");
        f.link_up(0, 1);
        assert!(f.is_link_up(0, 1));
        assert!(f.is_link_up(2, 1));
        assert_eq!(m.registry().sum_counters("fault/link_down"), 1);
        assert_eq!(m.registry().sum_counters("fault/link_repair"), 1);
    }

    #[test]
    fn facade_injects_crashes_and_mem_flips_with_metrics() {
        let m = Machine::build(MachineCfg::cube_small_mem(2, 8));
        FaultEvent::LinkDown { node: 0, dim: 1 }.apply(&m);
        assert!(!m.faults().is_link_up(0, 1));
        FaultEvent::NodeCrash { node: 3 }.apply(&m);
        assert!(m.nodes[3].is_crashed());
        FaultEvent::MemFlip {
            node: 1,
            addr: 7,
            bit: 4,
        }
        .apply(&m);
        assert_eq!(m.registry().sum_counters("fault/link_down"), 1);
        assert_eq!(m.registry().sum_counters("fault/node_crash"), 1);
        assert_eq!(m.registry().sum_counters("fault/mem_flip"), 1);
    }

    #[test]
    fn checkpoint_and_restore_report_machine_errors() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        let all = Subcube::aligned(0, 3);
        let bad_count = Err(MachineError::BadImageCount {
            expected: 8,
            got: 3,
        });
        let mut small = CheckpointStore::new(3);
        assert_eq!(
            m.checkpoint(&mut small, SnapshotMode::Full).map(|_| ()),
            bad_count
        );
        assert_eq!(m.restore_from(&small).map(|_| ()), bad_count);
        assert_eq!(m.capture_subcube(&mut small, &all).map(|_| ()), bad_count);
        assert_eq!(m.load_subcube(&small, &all).map(|_| ()), bad_count);

        // A store committed with one short image.
        let mut store = CheckpointStore::new(8);
        m.checkpoint(&mut store, SnapshotMode::Full).unwrap();
        let mut bad = CheckpointStore::new(8);
        for (i, image) in store.committed().iter().enumerate() {
            let short = if i == 2 { 1 } else { 0 };
            let image = image[..image.len() - short].to_vec();
            bad.stage(i, Payload::Full(image)).unwrap();
        }
        bad.commit(SnapshotMode::Full, 0, 0).unwrap();
        for r in [
            m.checkpoint(&mut bad, SnapshotMode::Delta).map(|_| ()),
            m.restore_from(&bad).map(|_| ()),
            m.capture_subcube(&mut bad, &all).map(|_| ()),
            m.load_subcube(&bad, &all).map(|_| ()),
        ] {
            match r {
                Err(MachineError::BadImageGeometry { node: 2, .. }) => {}
                other => panic!("expected BadImageGeometry for node 2, got {other:?}"),
            }
        }

        FaultEvent::NodeCrash { node: 5 }.apply(&m);
        let down = Err(MachineError::NodeDown { node: 5 });
        assert_eq!(
            m.checkpoint(&mut store, SnapshotMode::Full).map(|_| ()),
            down
        );
        assert_eq!(m.restore_from(&store).map(|_| ()), down);
        assert_eq!(m.capture_subcube(&mut store, &all).map(|_| ()), down);
        assert_eq!(m.load_subcube(&store, &all).map(|_| ()), down);
        assert_eq!(store.epoch(), 1, "a refused capture commits nothing");
    }

    #[test]
    fn snapshot_roundtrip_restores_memory() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        for (i, node) in m.nodes.iter().enumerate() {
            node.mem_mut().write_word(10, 1000 + i as u32).unwrap();
        }
        let mut store = CheckpointStore::new(m.nodes.len());
        let snap = m.checkpoint(&mut store, SnapshotMode::Full).unwrap();
        assert_eq!(store.committed().len(), 8);
        assert!(snap.duration > Dur::ZERO);
        // Corrupt, then restore.
        for node in &m.nodes {
            node.mem_mut().write_word(10, 0).unwrap();
        }
        let restore_time = m.restore_from(&store).unwrap();
        assert!(restore_time > Dur::ZERO);
        for (i, node) in m.nodes.iter().enumerate() {
            assert_eq!(node.mem().read_word(10).unwrap(), 1000 + i as u32);
        }
    }

    #[test]
    fn snapshot_time_independent_of_machine_size() {
        // §III: "It takes about 15 seconds to take a snapshot, regardless
        // of configuration" — modules snapshot in parallel (system thread
        // -> board -> disk -> ring commit): flat within 10 % across dims
        // 3/4/5, and a one-row delta streams under a quarter of the full
        // image.
        let staged: Vec<f64> = [3u32, 4, 5]
            .iter()
            .map(|&dim| {
                let mut m = Machine::build(MachineCfg::cube_small_mem(dim, 8));
                let mut store = CheckpointStore::new(m.nodes.len());
                let full = m.checkpoint(&mut store, SnapshotMode::Full).unwrap();
                for node in &m.nodes {
                    node.mem_mut().write_word(0, 0xD17).unwrap();
                }
                let delta = m.checkpoint(&mut store, SnapshotMode::Delta).unwrap();
                assert!(
                    delta.bytes_streamed * 4 < full.bytes_streamed,
                    "dim {dim}: one-row delta {} B vs full {} B",
                    delta.bytes_streamed,
                    full.bytes_streamed
                );
                full.duration.as_secs_f64()
            })
            .collect();
        for w in staged.windows(2) {
            let ratio = w[1] / w[0];
            assert!(
                (0.9..=1.1).contains(&ratio),
                "staged checkpoint time must be flat across dims: {staged:?}"
            );
        }
    }

    /// Fill rows `0..rows` of every node with a seeded pattern.
    fn scribble(m: &Machine, rows: usize, seed: u32) {
        for node in &m.nodes {
            let mut mem = node.mem_mut();
            for w in 0..rows * ts_mem::ROW_WORDS {
                let v = (w as u32 ^ seed).wrapping_mul(0x9E37_79B9) ^ node.id;
                mem.write_word(w, v).unwrap();
            }
        }
    }

    #[test]
    fn streamed_and_host_side_checkpoints_agree() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        let all = Subcube::aligned(0, 3);
        scribble(&m, 8, 1986);
        let (mut a, mut b) = (CheckpointStore::new(8), CheckpointStore::new(8));
        m.checkpoint(&mut a, SnapshotMode::Full).unwrap();
        // The streamed capture took the dirty bits; hand them back so the
        // host-side capture sees the same memory in the same state.
        for node in &m.nodes {
            node.mem_mut().mark_all_dirty();
        }
        let image_bytes = m.capture_subcube(&mut b, &all).unwrap();
        assert_eq!(image_bytes, 8 * m.nodes[0].mem().cfg().bytes() as u64);
        assert_eq!(a.committed(), b.committed());
        assert_eq!((b.full_snapshots(), b.delta_snapshots()), (1, 0));

        // Dirty one row per node and take a delta both ways.
        let dirty_a_row = |m: &Machine| {
            for node in &m.nodes {
                let w = (node.id as usize % 8) * ts_mem::ROW_WORDS + 3;
                node.mem_mut().write_word(w, 0xD1_0000 | node.id).unwrap();
            }
        };
        dirty_a_row(&m);
        let streamed = m.checkpoint(&mut a, SnapshotMode::Delta).unwrap();
        dirty_a_row(&m);
        let delta_bytes = m.capture_subcube(&mut b, &all).unwrap();
        assert_eq!(a.committed(), b.committed());
        assert_eq!((a.delta_snapshots(), b.delta_snapshots()), (1, 1));
        // Same payloads; only the streamed path pays the two header words.
        assert_eq!(streamed.bytes_streamed, delta_bytes + 8 * 8);
        assert!(m.nodes.iter().all(|n| n.mem().dirty_row_count() == 0));

        // Load `b` onto a different aligned subcube of a bigger machine and
        // read the same words back in virtual order.
        let big = Machine::build(MachineCfg::cube_small_mem(4, 8));
        let elsewhere = Subcube::aligned(8, 3);
        let loaded = big.load_subcube(&b, &elsewhere).unwrap();
        assert_eq!(loaded, image_bytes);
        for v in 0..8 {
            let node = &big.nodes[elsewhere.to_phys(v) as usize];
            assert_eq!(node.mem().snapshot(), b.committed()[v as usize]);
            assert_eq!(
                node.mem().dirty_row_count(),
                0,
                "a load leaves no row dirty"
            );
        }
        assert_eq!(
            big.nodes[0].mem().snapshot(),
            vec![0; 8 * ts_mem::ROW_WORDS]
        );
    }

    #[test]
    fn loading_scrubs_latent_parity_faults_on_both_paths() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        let mut store = CheckpointStore::new(8);
        m.checkpoint(&mut store, SnapshotMode::Full).unwrap();
        FaultEvent::MemFlip {
            node: 2,
            addr: 40,
            bit: 3,
        }
        .apply(&m);
        m.restore_from(&store).unwrap();
        FaultEvent::MemFlip {
            node: 6,
            addr: 7,
            bit: 1,
        }
        .apply(&m);
        m.load_subcube(&store, &Subcube::aligned(0, 3)).unwrap();
        for id in [2, 6] {
            let path = format!("node/{id}/fault/scrubbed_words");
            assert_eq!(m.registry().get_counter(&path), Some(1), "{path}");
            assert_eq!(m.nodes[id].mem().parity_errors(), 0);
        }
        assert_eq!(m.registry().sum_counters("fault/scrubbed_words"), 2);
    }

    #[test]
    fn delta_checkpoint_streams_fewer_bytes_and_restores() {
        // Two modules, so the commit rides the real ring.
        let mut m = Machine::build(MachineCfg::cube_small_mem(4, 8));
        for (i, node) in m.nodes.iter().enumerate() {
            node.mem_mut().write_word(40, 0xAA00 + i as u32).unwrap();
        }
        let mut store = CheckpointStore::new(m.nodes.len());
        // A requested delta with no base is promoted to full.
        let base = m.checkpoint(&mut store, SnapshotMode::Delta).unwrap();
        assert_eq!(base.mode, SnapshotMode::Full);
        assert!(base.duration > Dur::ZERO);
        assert_eq!(store.epoch(), 1);
        // Dirty one row per node, then snapshot incrementally.
        for (i, node) in m.nodes.iter().enumerate() {
            node.mem_mut().write_word(80, 0xBB00 + i as u32).unwrap();
        }
        let delta = m.checkpoint(&mut store, SnapshotMode::Delta).unwrap();
        assert_eq!(delta.mode, SnapshotMode::Delta);
        assert_eq!(delta.dirty_rows, m.nodes.len() as u64);
        assert!(
            delta.bytes_streamed < base.bytes_streamed / 4,
            "delta {} B vs full {} B",
            delta.bytes_streamed,
            base.bytes_streamed
        );
        assert!(delta.duration < base.duration);
        // Scribble over memory, then recover from the committed version.
        for node in &m.nodes {
            node.mem_mut().write_word(40, 0).unwrap();
            node.mem_mut().write_word(80, 0).unwrap();
        }
        m.restore_from(&store).unwrap();
        for (i, node) in m.nodes.iter().enumerate() {
            assert_eq!(node.mem().read_word(40).unwrap(), 0xAA00 + i as u32);
            assert_eq!(node.mem().read_word(80).unwrap(), 0xBB00 + i as u32);
            assert_eq!(node.mem().dirty_row_count(), 0, "restore clears dirty");
        }
    }

    #[test]
    fn torn_checkpoint_never_restores_a_torn_image() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        for node in &m.nodes {
            node.mem_mut().write_word(10, 111).unwrap();
        }
        let mut store = CheckpointStore::new(m.nodes.len());
        m.checkpoint(&mut store, SnapshotMode::Full).unwrap();
        // New state that the next (doomed) snapshot will try to commit.
        for node in &m.nodes {
            node.mem_mut().write_word(10, 222).unwrap();
        }
        // Node 5 crashes 5 ms into the stream — long before its ~16 ms of
        // full image can have drained through the shared board engine.
        let node5 = m.nodes[5].clone();
        let h = m.handle();
        h.clone().spawn(async move {
            h.sleep(Dur::ms(5)).await;
            node5.crash();
        });
        let err = m.checkpoint(&mut store, SnapshotMode::Full).unwrap_err();
        assert_eq!(err, MachineError::Stalled { op: "checkpoint" });
        assert_eq!(store.epoch(), 1, "torn snapshot must not commit");
        assert_eq!(store.torn_aborts(), 1);
        // The machine reboots; the store (on disk) survives and restores
        // the *previous* committed version, never the torn one.
        let mut rebooted = Machine::build(MachineCfg::cube_small_mem(3, 8));
        rebooted.restore_from(&store).unwrap();
        for node in &rebooted.nodes {
            assert_eq!(node.mem().read_word(10).unwrap(), 111);
        }
    }

    #[test]
    fn disk_fault_aborts_and_the_store_survives_reboot() {
        let mut store = CheckpointStore::new(8);
        {
            let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
            for node in &m.nodes {
                node.mem_mut().write_word(7, 33).unwrap();
            }
            m.faults().disk_fault(0);
            let err = m.checkpoint(&mut store, SnapshotMode::Full).unwrap_err();
            assert_eq!(err, MachineError::Stalled { op: "checkpoint" });
            assert_eq!(store.torn_aborts(), 1);
            assert!(!store.has_committed());
            assert_eq!(m.registry().get_counter("machine/fault/disk"), Some(1));
            assert_eq!(
                m.restore_from(&store).unwrap_err(),
                MachineError::NoCheckpoint
            );
        }
        // Reboot replaces the controller; the same store commits cleanly.
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        for node in &m.nodes {
            node.mem_mut().write_word(7, 33).unwrap();
        }
        m.checkpoint(&mut store, SnapshotMode::Full).unwrap();
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.committed()[3][7], 33);
    }

    #[test]
    fn ring_flap_delays_but_does_not_tear_the_commit() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(4, 8));
        let mut store = CheckpointStore::new(m.nodes.len());
        m.faults().ring_flap(0, Dur::ms(50));
        m.checkpoint(&mut store, SnapshotMode::Full).unwrap();
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.torn_aborts(), 0);
        assert_eq!(m.registry().get_counter("machine/fault/ring_flap"), Some(1));
        let report = m.utilization_report();
        assert!(report.contains("checkpoint I/O"), "{report}");
    }
}
