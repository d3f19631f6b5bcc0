//! # ts-node — one T Series processor node
//!
//! Assembles the substrates into the machine of Figure 1: control
//! processor, dual-ported memory, vector arithmetic unit, and link
//! adapters, all sharing one simulated clock.
//!
//! ## Programming model
//!
//! Node programs are plain `async` Rust closures over a [`NodeCtx`] — the
//! simulator's stand-in for an Occam process. Every method that touches
//! hardware advances the node's virtual clock by the architected cost:
//!
//! * [`NodeCtx::vec`] — vector forms through the micro-sequencer; every
//!   form also splits into a synchronous *issue* returning its completion
//!   instant and one [`NodeCtx::wait`]. Between the two the unit runs
//!   concurrently with the control processor, which is how the paper
//!   overlaps gather with arithmetic, and a run of forms can be chained
//!   behind a single completion interrupt (see the model note on
//!   [`NodeCtx::issue_vec`]);
//! * [`NodeCtx::gather64`] / [`NodeCtx::scatter64`] — the control
//!   processor's element-at-a-time word-port loops (1.6 µs per 64-bit
//!   element);
//! * [`NodeCtx::row_move`] — physical row moves at 2560 MB/s (the paper's
//!   alternative to pointer chasing for pivoting and sorting);
//! * [`NodeCtx::send_dim`] / [`NodeCtx::recv_dim`] / [`NodeCtx::alt_dims`]
//!   — hypercube channels (sublinks wired by `t-series-core`), and
//!   [`NodeCtx::exchange`], the one send-while-receiving `PAR`;
//! * [`NodeCtx::cp_compute`] — scalar control work at 7.5 MIPS;
//! * [`NodeCtx::run_cp_program`] — execute real `ts-cp` machine code
//!   against this node's memory, with channel and vector instructions
//!   serviced by the simulated hardware.
//!
//! Hardware units are [`Resource`]s, so a program that issues a vector form
//! and then gathers concurrently pays `max` of the two times, while two
//! uses of the same unit serialize — contention is modeled, not assumed.
//!
//! [`occam`] provides `PAR`/`ALT` process combinators mirroring the
//! language the paper describes.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod occam;

use std::cell::{OnceCell, Ref, RefCell, RefMut};
use std::future::{poll_fn, Future};
use std::pin::pin;
use std::rc::Rc;
use std::task::Poll;

use ts_cp::{Cp, CpBus, CpError, CpEvent, StepOutcome};
use ts_fpu::pipeline::Precision;
use ts_fpu::soft::row;
use ts_fpu::Sf64;
use ts_link::{LinkChannel, LinkError};
use ts_mem::{
    MemCfg, MemError, NodeMemory, GATHER32_TIME, GATHER64_TIME, ROW_TIME, ROW_WORDS, WORD_TIME,
};
use ts_sim::{
    BusyTime, Counter, Dur, Histogram, MetricsRegistry, MetricsScope, Resource, SimHandle, Time,
};
use ts_vec::{VecForm, VecResult, VecTiming, VecUnit};

/// Average control-processor instruction time (7.5 MIPS).
pub const CP_INSTR_TIME: Dur = Dur::ps(133_333);

thread_local! {
    /// Free list for `Vec<Sf64>` message values (the unpacked side of the
    /// word-buffer pool in [`ts_sim::pool`]).
    static VALUES: ts_sim::pool::BufPool<Sf64> =
        const { ts_sim::pool::BufPool::new(ts_sim::pool::POOL_MAX) };
}

/// Take an empty value buffer with at least `cap` capacity from the pool.
pub fn take_values(cap: usize) -> Vec<Sf64> {
    VALUES.with(|p| p.take(cap))
}

/// Recycle a value buffer (e.g. one returned by [`NodeCtx::recv_f64s`])
/// once its contents are consumed. Collectives call this every exchange;
/// dropping the buffer instead is always safe, just slower.
pub fn recycle_values(v: Vec<Sf64>) {
    VALUES.with(|p| p.put(v));
}

/// Elementwise combining operators for [`NodeCtx::combine_values`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CombineOp {
    /// Elementwise sum.
    Add,
    /// Elementwise product.
    Mul,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

/// Static configuration of one node.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeCfg {
    /// Memory geometry (1 MB in the paper's machine).
    pub mem: MemCfg,
}

struct NodeState {
    mem: NodeMemory,
    vec_unit: VecUnit,
    /// `(out, in)` system-thread channels (to the module's system board).
    sys: Option<(LinkChannel, LinkChannel)>,
    /// Health flag, "up" while the node is alive. Set down by a fault plan
    /// (node crash); watchable, so daemons parked on the node's channels
    /// can be torn down. Every link of a crashed node is also marked down
    /// so partners fail fast.
    health: ts_link::LinkStatus,
}

/// Pre-registered hot-path metric handles for one node's units, living
/// under `node/{id}/...` in the machine's [`MetricsRegistry`].
///
/// Every handle is a shared cell registered once at node construction, so
/// the per-event cost on the hot path is a single store — no map lookup,
/// no string, no allocation (`crates/sim/tests/scale.rs` asserts the
/// zero-allocation half under a counting allocator).
pub struct NodeMeters {
    scope: MetricsScope,
    cold: OnceCell<ColdMeters>,
    /// Latency histograms of the collectives run on this node so far, by
    /// op name (see [`NodeMeters::collective_us`]).
    collective_us: RefCell<Vec<(&'static str, Histogram)>>,
    router_hops: OnceCell<Histogram>,
    /// Control-processor busy time (`node/{id}/cp/busy`).
    pub cp_busy: BusyTime,
    /// Control-processor instructions executed (`node/{id}/cp/instrs`).
    pub cp_instrs: Counter,
    /// Elements gathered by the CP word-port loop (`node/{id}/cp/gathered`).
    pub cp_gathered: Counter,
    /// Elements scattered by the CP word-port loop (`node/{id}/cp/scattered`).
    pub cp_scattered: Counter,
    /// Word-port time consumed by the CP (`node/{id}/port/cp`).
    pub port_cp: BusyTime,
    /// Vector-unit busy time (`node/{id}/vec/busy`).
    pub vec_busy: BusyTime,
    /// Floating-point operations retired (`node/{id}/vec/flops`).
    pub vec_flops: Counter,
    /// Histogram of vector-form lengths (`node/{id}/vec/len`).
    pub vec_len: Histogram,
    /// Memory rows moved through the row port (`node/{id}/mem/rows_moved`).
    pub rows_moved: Counter,
    /// Messages committed on outbound cube sublinks (`node/{id}/link/msgs_sent`).
    pub link_msgs_sent: Counter,
    /// Payload bytes of those messages (`node/{id}/link/bytes_sent`).
    pub link_bytes_sent: Counter,
    /// Messages delivered by inbound cube sublinks (`node/{id}/link/msgs_recv`).
    pub link_msgs_recv: Counter,
    /// Payload bytes of those messages (`node/{id}/link/bytes_recv`).
    pub link_bytes_recv: Counter,
    /// Payload words sent over cube links (`node/{id}/link/words_sent`).
    pub link_words_sent: Counter,
    /// Payload words received over cube links (`node/{id}/link/words_recv`).
    pub link_words_recv: Counter,
    /// End-to-end inbound message latency in ns (`node/{id}/link/latency_ns`).
    pub link_latency_ns: Histogram,
    /// Flits retransmitted by outbound go-back-N recovery
    /// (`node/{id}/link/retransmits`).
    pub link_retransmits: Counter,
    /// Flits whose CRC-16 failed on an outbound link (`node/{id}/link/crc_errors`).
    pub link_crc_errors: Counter,
    /// Retransmit budgets exhausted, escalating the link to a permanent
    /// down (`node/{id}/link/escalations`).
    pub link_escalations: Counter,
    /// Histogram of transient link-flap outage lengths in µs
    /// (`node/{id}/link/flap_us`).
    pub link_flap_us: Histogram,
}

impl NodeMeters {
    fn new(scope: MetricsScope) -> NodeMeters {
        NodeMeters {
            cp_busy: scope.busy_time("cp/busy"),
            cp_instrs: scope.counter("cp/instrs"),
            cp_gathered: scope.counter("cp/gathered"),
            cp_scattered: scope.counter("cp/scattered"),
            port_cp: scope.busy_time("port/cp"),
            vec_busy: scope.busy_time("vec/busy"),
            vec_flops: scope.counter("vec/flops"),
            vec_len: scope.histogram("vec/len"),
            rows_moved: scope.counter("mem/rows_moved"),
            link_msgs_sent: scope.counter("link/msgs_sent"),
            link_bytes_sent: scope.counter("link/bytes_sent"),
            link_msgs_recv: scope.counter("link/msgs_recv"),
            link_bytes_recv: scope.counter("link/bytes_recv"),
            link_words_sent: scope.counter("link/words_sent"),
            link_words_recv: scope.counter("link/words_recv"),
            link_latency_ns: scope.histogram("link/latency_ns"),
            link_retransmits: scope.counter("link/retransmits"),
            link_crc_errors: scope.counter("link/crc_errors"),
            link_escalations: scope.counter("link/escalations"),
            link_flap_us: scope.histogram("link/flap_us"),
            scope,
            cold: OnceCell::new(),
            collective_us: RefCell::new(Vec::new()),
            router_hops: OnceCell::new(),
        }
    }

    /// The node's `node/{id}` scope, for registering further unit metrics.
    pub fn scope(&self) -> &MetricsScope {
        &self.scope
    }

    /// Hop counts of the routed messages delivered to this node
    /// (`node/{id}/router/hops`). Registers the first time a router daemon
    /// asks for it — a machine that never routes registers nothing — and
    /// every later daemon of the node gets the same handle back without
    /// formatting a path or searching the registry.
    pub fn router_hops(&self) -> &Histogram {
        self.router_hops
            .get_or_init(|| self.scope.histogram("router/hops"))
    }

    /// The node's cold counters, for bumping one. They register under the
    /// node's scope the first time this is called, so a node nothing ever
    /// went wrong on never pays for them.
    pub fn cold(&self) -> &ColdMeters {
        self.cold.get_or_init(|| ColdMeters::new(&self.scope))
    }

    /// The node's latency histogram, in µs, for the collective `op`
    /// (`node/{id}/collective/{op}_us`). Like the cold counters it registers
    /// at the op's first use here; every later call finds the handle in a
    /// list with one entry per collective the node has run — no path is
    /// formatted, no registry map is searched.
    pub fn collective_us(&self, op: &'static str) -> Histogram {
        let mut known = self.collective_us.borrow_mut();
        if let Some((_, h)) = known.iter().find(|(name, _)| *name == op) {
            return h.clone();
        }
        let h = self.scope.histogram(&format!("collective/{op}_us"));
        known.push((op, h.clone()));
        h
    }

    /// The node's cold counters if any was ever bumped (readers use this so
    /// that looking does not register them).
    pub fn cold_booked(&self) -> Option<&ColdMeters> {
        self.cold.get()
    }
}

/// One node's cold-path counters: the faults injected on it and how its
/// router daemon and collectives coped. See [`NodeMeters::cold`].
pub struct ColdMeters {
    /// Links killed here (`node/{id}/fault/link_down`).
    pub fault_link_down: Counter,
    /// Links repaired here (`node/{id}/fault/link_repair`).
    pub fault_link_repair: Counter,
    /// Crashes of this node (`node/{id}/fault/node_crash`).
    pub fault_node_crash: Counter,
    /// Memory bit flips injected (`node/{id}/fault/mem_flip`).
    pub fault_mem_flip: Counter,
    /// Outbound wire corruptions queued (`node/{id}/fault/wire_corrupt`).
    pub fault_wire_corrupt: Counter,
    /// Outbound flit drops queued (`node/{id}/fault/flit_drop`).
    pub fault_flit_drop: Counter,
    /// Link flaps started here (`node/{id}/fault/link_flap`).
    pub fault_link_flap: Counter,
    /// Words whose parity a restore had to scrub
    /// (`node/{id}/fault/scrubbed_words`).
    pub fault_scrubbed_words: Counter,
    /// Hops the router took off the e-cube dimension
    /// (`node/{id}/router/reroutes`).
    pub router_reroutes: Counter,
    /// Hops retried because the link died mid-send
    /// (`node/{id}/router/retries`).
    pub router_retries: Counter,
    /// Frames the router gave up on (`node/{id}/router/dropped`).
    pub router_dropped: Counter,
    /// Collective attempts repeated after a deadline
    /// (`node/{id}/collective/retries`).
    pub collective_retries: Counter,
    /// Collectives that ran out of attempts
    /// (`node/{id}/collective/deadline_expired`).
    pub collective_deadline_expired: Counter,
}

impl ColdMeters {
    fn new(scope: &MetricsScope) -> ColdMeters {
        ColdMeters {
            fault_link_down: scope.counter("fault/link_down"),
            fault_link_repair: scope.counter("fault/link_repair"),
            fault_node_crash: scope.counter("fault/node_crash"),
            fault_mem_flip: scope.counter("fault/mem_flip"),
            fault_wire_corrupt: scope.counter("fault/wire_corrupt"),
            fault_flit_drop: scope.counter("fault/flit_drop"),
            fault_link_flap: scope.counter("fault/link_flap"),
            fault_scrubbed_words: scope.counter("fault/scrubbed_words"),
            router_reroutes: scope.counter("router/reroutes"),
            router_retries: scope.counter("router/retries"),
            router_dropped: scope.counter("router/dropped"),
            collective_retries: scope.counter("collective/retries"),
            collective_deadline_expired: scope.counter("collective/deadline_expired"),
        }
    }
}

/// One processor node: shared handle used by the machine builder.
///
/// Cloning a node is one refcount bump — everything mutable or heavy lives
/// behind a single shared allocation, which keeps `NodeCtx` clones on the
/// kernel hot path (Cannon shifts clone a context per step) nearly free.
#[derive(Clone)]
pub struct Node {
    /// Node id (hypercube address).
    pub id: u32,
    h: SimHandle,
    shared: Rc<NodeShared>,
}

/// The single shared allocation behind every clone of one [`Node`].
struct NodeShared {
    state: RefCell<NodeState>,
    /// `(out, in)` channels to each hypercube neighbour, indexed by
    /// dimension: inline, so a transfer reaches its sublink in one hop.
    dims: [OnceCell<(LinkChannel, LinkChannel)>; ts_cube::Hypercube::MAX_DIM as usize],
    /// The control processor (scalar side) as an exclusive resource.
    cp_res: Resource,
    /// The vector arithmetic unit as an exclusive resource.
    vec_res: Resource,
    /// The random-access memory port (CP + link DMA share it).
    port_res: Resource,
    meters: NodeMeters,
}

impl Node {
    /// Build a node with a private, standalone metrics registry. Channels
    /// are wired afterwards by the machine layer via [`Node::wire_dim`] /
    /// [`Node::wire_system`].
    pub fn new(id: u32, cfg: NodeCfg, h: SimHandle) -> Node {
        Node::with_registry(id, cfg, h, &MetricsRegistry::new())
    }

    /// Build a node whose unit meters register under `node/{id}/...` in a
    /// shared machine-wide registry.
    pub fn with_registry(id: u32, cfg: NodeCfg, h: SimHandle, registry: &MetricsRegistry) -> Node {
        let meters = NodeMeters::new(registry.scope(&format!("node/{id}")));
        Node {
            id,
            h,
            shared: Rc::new(NodeShared {
                state: RefCell::new(NodeState {
                    mem: NodeMemory::new(cfg.mem),
                    vec_unit: VecUnit::new(),
                    sys: None,
                    health: ts_link::LinkStatus::new(),
                }),
                dims: Default::default(),
                cp_res: Resource::new("cp"),
                vec_res: Resource::new("vec"),
                port_res: Resource::new("port"),
                meters,
            }),
        }
    }

    /// Attach the channel pair for hypercube dimension `dim` (the machine
    /// layer wires both endpoints).
    pub fn wire_dim(&self, dim: usize, out: LinkChannel, inp: LinkChannel) {
        let wired = self.shared.dims[dim].set((out, inp));
        assert!(
            wired.is_ok(),
            "node {}: dimension {dim} wired twice",
            self.id
        );
    }

    /// The `(out, in)` sublinks across `dim`, if wired.
    fn dim(&self, dim: usize) -> Option<&(LinkChannel, LinkChannel)> {
        self.shared.dims.get(dim)?.get()
    }

    /// Every wired `(out, in)` cube pair.
    fn wired_dims(&self) -> impl Iterator<Item = &(LinkChannel, LinkChannel)> {
        self.shared.dims.iter().filter_map(OnceCell::get)
    }

    /// Attach the system-board channel pair.
    pub fn wire_system(&self, out: LinkChannel, inp: LinkChannel) {
        self.shared.state.borrow_mut().sys = Some((out, inp));
    }

    /// Kill the physical link on dimension `dim`: both direction channels
    /// are marked down, so failable traffic on either end errors instead of
    /// hanging.
    pub fn set_link_down(&self, dim: usize) {
        if let Some((out, inp)) = self.dim(dim) {
            out.status().set_down();
            inp.status().set_down();
        }
    }

    /// Repair the physical link on dimension `dim`: both direction channels
    /// are marked up again (the inverse of [`Node::set_link_down`]).
    pub fn set_link_up(&self, dim: usize) {
        if let Some((out, inp)) = self.dim(dim) {
            out.status().set_up();
            inp.status().set_up();
        }
    }

    /// Queue a transient bit-flip on the next outbound message of `dim`:
    /// the flit addressed by `flit_bit` arrives with a flipped payload bit,
    /// fails its CRC, and is retransmitted by go-back-N recovery.
    pub fn queue_wire_corrupt(&self, dim: usize, flit_bit: u64) {
        if let Some((out, _)) = self.dim(dim) {
            out.inject_corrupt(flit_bit);
        }
    }

    /// Queue a transient flit loss on the next outbound message of `dim`:
    /// the receiver times out and the window is retransmitted.
    pub fn queue_flit_drop(&self, dim: usize) {
        if let Some((out, _)) = self.dim(dim) {
            out.inject_drop();
        }
    }

    /// Flap the physical link on `dim`: down now, back up after `down_for`
    /// of sim time (a repair task is spawned on the node's scheduler). The
    /// outage length is recorded in the `link/flap_us` histogram. A link
    /// already condemned by retransmit-budget escalation stays down.
    pub fn flap_link(&self, dim: usize, down_for: Dur) {
        self.set_link_down(dim);
        self.meters()
            .link_flap_us
            .observe(down_for.as_ps() / 1_000_000);
        let node = self.clone();
        let h = self.h.clone();
        self.h.spawn(async move {
            h.sleep(down_for).await;
            node.set_link_up(dim);
        });
    }

    /// True while the physical link on `dim` is alive (an unwired dimension
    /// counts as down).
    pub fn link_up(&self, dim: usize) -> bool {
        self.dim(dim)
            .is_some_and(|(out, inp)| out.is_up() && inp.is_up())
    }

    /// Crash the node: marks the control processor dead and downs every
    /// wired link (cube dimensions and the system thread) so partners fail
    /// fast instead of waiting on a rendezvous that will never come.
    pub fn crash(&self) {
        let st = self.shared.state.borrow();
        st.health.set_down();
        for (out, inp) in self.wired_dims().chain(&st.sys) {
            out.status().set_down();
            inp.status().set_down();
        }
    }

    /// True once the node has been crashed by a fault plan.
    pub fn is_crashed(&self) -> bool {
        !self.shared.state.borrow().health.is_up()
    }

    /// True when the node cannot be trusted with work: it has crashed, or
    /// its memory holds a latent parity error the next access would trip.
    pub fn is_unfit(&self) -> bool {
        self.is_crashed() || self.mem().parity_errors() > 0
    }

    /// The node's watchable health flag ("up" while alive). Daemons race
    /// their channel waits against this so a crash tears them down.
    pub fn health(&self) -> ts_link::LinkStatus {
        self.shared.state.borrow().health.clone()
    }

    /// The program-facing context.
    pub fn ctx(&self) -> NodeCtx {
        NodeCtx {
            node: self.clone(),
            view: None,
        }
    }

    /// This node's pre-registered unit meters.
    pub fn meters(&self) -> &NodeMeters {
        &self.shared.meters
    }

    /// The outgoing sublink for dimension `dim`, if wired (the machine's
    /// telemetry layer uses this to attach flow traces and latency
    /// histograms to each cube edge).
    pub fn out_channel(&self, dim: usize) -> Option<LinkChannel> {
        self.dim(dim).map(|(out, _)| out.clone())
    }

    /// Direct (zero-simulated-time) access to memory, for host-side setup
    /// and verification.
    pub fn mem(&self) -> Ref<'_, NodeMemory> {
        Ref::map(self.shared.state.borrow(), |s| &s.mem)
    }

    /// Mutable direct access (host-side setup only — charges no time).
    pub fn mem_mut(&self) -> RefMut<'_, NodeMemory> {
        RefMut::map(self.shared.state.borrow_mut(), |s| &mut s.mem)
    }

    /// Attach an execution tracer: the control processor, vector unit and
    /// word port record busy spans under `n<id>.cp` / `.vec` / `.port`.
    pub fn attach_tracer(&self, tracer: &ts_sim::Tracer) {
        let sh = &self.shared;
        for (res, unit) in [
            (&sh.cp_res, "cp"),
            (&sh.vec_res, "vec"),
            (&sh.port_res, "port"),
        ] {
            res.attach_tracer(tracer.clone(), format!("n{}.{unit}", self.id));
        }
    }
}

/// A subcube relabeling attached to a [`NodeCtx`]: the context reports a
/// **virtual** node id and maps virtual dimension `k` onto physical
/// dimension `dims[k]`. Programs written against virtual coordinates
/// (every collective and kernel in the workspace) run unmodified inside a
/// partition — the space-sharing scheduler's isolation mechanism.
struct SubcubeView {
    /// Virtual node id inside the partition.
    vid: u32,
    /// Physical dimension carrying each virtual dimension.
    dims: Vec<usize>,
}

/// The API node programs run against (an Occam process's view of the
/// hardware). Cheap to clone; all clones refer to the same node.
#[derive(Clone)]
pub struct NodeCtx {
    node: Node,
    /// Optional partition relabeling (see [`NodeCtx::subcube_view`]).
    view: Option<Rc<SubcubeView>>,
}

impl NodeCtx {
    /// Hypercube address of this node: the **virtual** id when the context
    /// is a subcube view, the physical id otherwise.
    pub fn id(&self) -> u32 {
        match &self.view {
            Some(v) => v.vid,
            None => self.node.id,
        }
    }

    /// A relabeled context for a node inside a partition: [`NodeCtx::id`]
    /// reports `vid` and every dimension-indexed operation (`send_dim`,
    /// `recv_dim`, `alt_dims`, `link_up`, ...) maps virtual dimension `k`
    /// onto physical dimension `dims[k]`. Collectives and kernels handed
    /// such a context run bit-identically to a dedicated machine of the
    /// partition's size, because virtual neighbours are physical
    /// neighbours and ids relabel consistently across the subcube.
    pub fn subcube_view(&self, vid: u32, dims: Vec<usize>) -> NodeCtx {
        assert!(
            vid < (1 << dims.len()),
            "virtual id out of range for the view"
        );
        NodeCtx {
            node: self.node.clone(),
            view: Some(Rc::new(SubcubeView { vid, dims })),
        }
    }

    /// Map a virtual dimension through the view (identity without one).
    fn map_dim(&self, dim: usize) -> usize {
        match &self.view {
            Some(v) => *v.dims.get(dim).unwrap_or_else(|| {
                panic!(
                    "node {}: virtual dimension {dim} outside the subcube view",
                    self.node.id
                )
            }),
            None => dim,
        }
    }

    /// Simulation handle (clock, sleeps, spawning).
    pub fn handle(&self) -> &SimHandle {
        &self.node.h
    }

    /// Current virtual time.
    pub fn now(&self) -> ts_sim::Time {
        self.node.h.now()
    }

    /// The node's pre-registered unit meters.
    pub fn meters(&self) -> &NodeMeters {
        &self.node.shared.meters
    }

    /// Zero-time memory access for setup/verification (host side).
    pub fn mem(&self) -> Ref<'_, NodeMemory> {
        self.node.mem()
    }

    /// Zero-time mutable memory access (host side).
    pub fn mem_mut(&self) -> RefMut<'_, NodeMemory> {
        self.node.mem_mut()
    }

    // --- control processor ------------------------------------------------

    /// Run `n` average control-processor instructions (7.5 MIPS).
    pub async fn cp_compute(&self, n: u64) {
        self.wait(self.issue_cp(n)).await;
    }

    /// [`NodeCtx::cp_compute`] without the sleep: books `n` instructions
    /// from `max(now, CP busy-until)` and returns their end. Issuing each
    /// form at the instant the CP reaches it ([`NodeCtx::issue_vec_at`])
    /// and waiting once on the later end is exact while no other process
    /// of the node uses either unit.
    #[must_use = "booked CP work completes only once its instant is waited for"]
    pub fn issue_cp(&self, n: u64) -> Time {
        let d = CP_INSTR_TIME * n;
        self.meters().cp_instrs.add(n);
        self.meters().cp_busy.add(d);
        self.node.shared.cp_res.reserve(self.now(), d).1
    }

    /// One timed word-port read by the control processor: 400 ns,
    /// arbitrated.
    pub async fn cp_read(&self, addr: usize) -> Result<u32, MemError> {
        let shared = &self.node.shared;
        shared.cp_res.use_for(&self.node.h, WORD_TIME).await;
        shared.port_res.reserve(self.now(), WORD_TIME);
        shared.meters.port_cp.add(WORD_TIME);
        shared.state.borrow().mem.read_word(addr)
    }

    /// Gather scattered 64-bit elements into a contiguous destination: the
    /// control processor's word-port loop, 1.6 µs per element (§II).
    /// `src` are word addresses of element low-words; `dst` is the first
    /// destination word address.
    pub async fn gather64(&self, src: &[usize], dst: usize) -> Result<(), MemError> {
        let pairs = src.iter().enumerate().map(|(i, &s)| (s, dst + 2 * i));
        let moved = &self.meters().cp_gathered;
        self.cp_copy(pairs, true, moved).await
    }

    /// Gather scattered 32-bit elements (one read + one write each:
    /// 0.8 µs per element, §II).
    pub async fn gather32(&self, src: &[usize], dst: usize) -> Result<(), MemError> {
        let pairs = src.iter().enumerate().map(|(i, &s)| (s, dst + i));
        let moved = &self.meters().cp_gathered;
        self.cp_copy(pairs, false, moved).await
    }

    /// Scatter contiguous 64-bit elements to scattered destinations
    /// (1.6 µs per element).
    pub async fn scatter64(&self, src: usize, dst: &[usize]) -> Result<(), MemError> {
        let pairs = dst.iter().enumerate().map(|(i, &t)| (src + 2 * i, t));
        let moved = &self.meters().cp_scattered;
        self.cp_copy(pairs, true, moved).await
    }

    /// The control processor's element-at-a-time copy loop behind every
    /// gather and scatter: one element per `(source, destination)` word
    /// address pair, 64-bit when `wide`, counted into `moved`.
    async fn cp_copy(
        &self,
        pairs: impl ExactSizeIterator<Item = (usize, usize)>,
        wide: bool,
        moved: &Counter,
    ) -> Result<(), MemError> {
        let n = pairs.len() as u64;
        let d = if wide { GATHER64_TIME } else { GATHER32_TIME } * n;
        // The CP and the word port are both occupied by the loop.
        self.node.shared.port_res.reserve(self.now(), d);
        moved.add(n);
        self.meters().cp_busy.add(d);
        self.meters().port_cp.add(d);
        {
            let mut st = self.node.shared.state.borrow_mut();
            for (s, t) in pairs {
                if wide {
                    let v = st.mem.read_u64(s)?;
                    st.mem.write_u64(t, v)?;
                } else {
                    let v = st.mem.read_word(s)?;
                    st.mem.write_word(t, v)?;
                }
            }
        }
        self.node.shared.cp_res.use_for(&self.node.h, d).await;
        Ok(())
    }

    /// Move `rows` whole rows from `src_row` to `dst_row` through the row
    /// port: physical data movement at 2560 MB/s (§II's pivoting/sorting
    /// argument). 800 ns per row (one read + one write).
    pub async fn row_move(
        &self,
        src_row: usize,
        dst_row: usize,
        rows: usize,
    ) -> Result<(), MemError> {
        let d = ROW_TIME * (2 * rows as u64);
        self.meters().rows_moved.add(rows as u64);
        {
            let mut st = self.node.shared.state.borrow_mut();
            let mut buf = [0u32; ROW_WORDS];
            for r in 0..rows {
                st.mem.read_row(src_row + r, &mut buf)?;
                st.mem.write_row(dst_row + r, &buf)?;
            }
        }
        self.node.shared.cp_res.use_for(&self.node.h, d).await;
        Ok(())
    }

    /// Swap two row ranges (read both, write both: 1.6 µs per row pair).
    pub async fn row_swap(&self, a_row: usize, b_row: usize, rows: usize) -> Result<(), MemError> {
        let d = ROW_TIME * (4 * rows as u64);
        self.meters().rows_moved.add(2 * rows as u64);
        {
            let mut st = self.node.shared.state.borrow_mut();
            let mut ba = [0u32; ROW_WORDS];
            let mut bb = [0u32; ROW_WORDS];
            for r in 0..rows {
                st.mem.read_row(a_row + r, &mut ba)?;
                st.mem.read_row(b_row + r, &mut bb)?;
                st.mem.write_row(a_row + r, &bb)?;
                st.mem.write_row(b_row + r, &ba)?;
            }
        }
        self.node.shared.cp_res.use_for(&self.node.h, d).await;
        Ok(())
    }

    // --- vector unit -------------------------------------------------------

    /// Execute a 64-bit vector form and wait for its completion interrupt.
    pub async fn vec(
        &self,
        form: VecForm,
        x_row: usize,
        y_row: usize,
        z_row: usize,
        n: usize,
    ) -> Result<VecResult, MemError> {
        self.complete(self.issue_vec(form, x_row, y_row, z_row, n))
            .await
    }

    /// Execute a 32-bit-mode vector form (256 elements per register row,
    /// 5-stage multiplier) and wait for completion.
    pub async fn vec32(
        &self,
        form: VecForm,
        x_row: usize,
        y_row: usize,
        z_row: usize,
        n: usize,
    ) -> Result<VecResult, MemError> {
        self.complete(self.issue_vec32(form, x_row, y_row, z_row, n))
            .await
    }

    /// Issue a 64-bit vector form without waiting: returns its result and
    /// the instant of its completion interrupt, to be handed to
    /// [`NodeCtx::wait`]. Until then the program may use the control
    /// processor ("The complete arithmetic unit operates in parallel with
    /// the node control processor").
    ///
    /// Model note — chains. Element values are computed (and visible in
    /// memory) at issue, the form's meters and trace span are booked at
    /// issue, and the unit is occupied from `max(now, busy-until)`: a form
    /// issued behind another queues behind it. So a *chain* — several
    /// issues back to back, then one `wait` on the last instant — ends on
    /// the same picosecond, with the same values, meters and spans, as
    /// awaiting each form in turn, **provided nothing else is issued to the
    /// vector unit in between** (another process of the node would then
    /// queue behind the whole chain instead of slipping in after the form
    /// in flight) and the program needs no other unit between two forms:
    /// a control-processor charge made between two awaited forms starts
    /// when the first completes, which a chain would start early. The chain
    /// costs the simulator one timer event instead of one per form. A
    /// program that reads an output region before waiting sees results
    /// early; well-formed programs wait first.
    pub fn issue_vec(
        &self,
        form: VecForm,
        x_row: usize,
        y_row: usize,
        z_row: usize,
        n: usize,
    ) -> Result<(VecResult, Time), MemError> {
        self.issue_vec_at(self.now(), form, x_row, y_row, z_row, n)
    }

    /// [`NodeCtx::issue_vec`] at instant `at` ≥ now: the form occupies the
    /// unit from `max(at, busy-until)`. For a form the control processor
    /// issues at the end of work it booked with [`NodeCtx::issue_cp`].
    pub fn issue_vec_at(
        &self,
        at: Time,
        form: VecForm,
        x_row: usize,
        y_row: usize,
        z_row: usize,
        n: usize,
    ) -> Result<(VecResult, Time), MemError> {
        self.issue_with(at, n, |u, mem| u.exec64(mem, form, x_row, y_row, z_row, n))
    }

    /// [`NodeCtx::issue_vec`] in 32-bit mode.
    pub fn issue_vec32(
        &self,
        form: VecForm,
        x_row: usize,
        y_row: usize,
        z_row: usize,
        n: usize,
    ) -> Result<(VecResult, Time), MemError> {
        self.issue_with(self.now(), n, |u, mem| {
            u.exec32(mem, form, x_row, y_row, z_row, n)
        })
    }

    /// Sleep to the completion interrupt of an issued form (or of the last
    /// form of a chain). Returns at once if the instant has passed.
    pub async fn wait(&self, done: Time) {
        self.node.h.sleep_until(done).await;
    }

    /// Wait out a row form that was just issued.
    async fn complete(
        &self,
        issued: Result<(VecResult, Time), MemError>,
    ) -> Result<VecResult, MemError> {
        let (r, done) = issued?;
        self.wait(done).await;
        Ok(r)
    }

    /// Narrow `n` 64-bit elements to 32-bit through the adder's conversion
    /// path (RNE + flush-to-zero).
    pub async fn vec_narrow(
        &self,
        x_row: usize,
        z_row: usize,
        n: usize,
    ) -> Result<VecResult, MemError> {
        self.complete(self.issue_with(self.now(), n, |u, mem| {
            u.convert64to32(mem, x_row, z_row, n)
        }))
        .await
    }

    /// Widen `n` 32-bit elements to 64-bit (exact).
    pub async fn vec_widen(
        &self,
        x_row: usize,
        z_row: usize,
        n: usize,
    ) -> Result<VecResult, MemError> {
        self.complete(self.issue_with(self.now(), n, |u, mem| {
            u.convert32to64(mem, x_row, z_row, n)
        }))
        .await
    }

    /// The one issue path of the vector unit: `op` runs a form of length
    /// `n` on the node's unit and memory (element values land at issue),
    /// then the form is booked and the unit occupied for its duration from
    /// `at` on. Returns the result and the completion interrupt's instant.
    fn issue_with(
        &self,
        at: Time,
        n: usize,
        op: impl FnOnce(&VecUnit, &mut NodeMemory) -> Result<VecResult, MemError>,
    ) -> Result<(VecResult, Time), MemError> {
        let r = {
            let mut st = self.node.shared.state.borrow_mut();
            let NodeState { mem, vec_unit, .. } = &mut *st;
            op(vec_unit, mem)?
        };
        Ok((r, self.occupy_vec(at, r.timing, n)))
    }

    /// Book a form of length `n` into the meters and occupy the vector unit
    /// for its duration from `at` on; returns the completion instant.
    fn occupy_vec(&self, at: Time, timing: VecTiming, n: usize) -> Time {
        debug_assert!(at >= self.now(), "a form issued in the past");
        let shared = &self.node.shared;
        shared.meters.vec_flops.add(timing.flops);
        shared.meters.vec_busy.add(timing.duration);
        shared.meters.vec_len.observe(n as u64);
        shared.vec_res.reserve(at, timing.duration).1
    }

    /// Occupy the unit for arithmetic done on message buffers. Payloads
    /// live in registers/DMA buffers rather than aligned rows, so the row
    /// model is not touched: the time is the unit's own [`VecUnit::timing`]
    /// of `form` over `n` 64-bit elements streaming cross-bank (II = 1).
    fn issue_form(&self, form: VecForm, n: usize) -> Time {
        let timing = VecUnit::timing(form, n, 1, Precision::Double);
        self.occupy_vec(self.now(), timing, n)
    }

    /// Issue `forms` back to back over `n` message-buffer elements: the
    /// arithmetic a program does on values it holds, each form priced by
    /// the unit's own [`VecUnit::timing`] (cross-bank, II = 1) and booking
    /// its own flops. Returns the last form's instant, for
    /// [`NodeCtx::wait`]; `n == 0` issues nothing and is complete now —
    /// earlier than the forms before it in a chain, which waits on the
    /// latest instant it was given.
    #[must_use = "an issued form completes only once its instant is waited for"]
    pub fn issue_forms(&self, forms: &[VecForm], n: usize) -> Time {
        let mut done = self.now();
        if n > 0 {
            for &form in forms {
                done = self.issue_form(form, n);
            }
        }
        done
    }

    /// Combine two value vectors elementwise through the vector unit,
    /// charged as an adder-path vector form. Used by the collectives.
    pub async fn combine_values(&self, op: CombineOp, acc: &mut [Sf64], other: &[Sf64]) {
        let done = self.issue_combine_values(op, acc, other);
        self.wait(done).await;
    }

    /// [`NodeCtx::combine_values`] without the wait (see
    /// [`NodeCtx::issue_vec`] for what a chain of issues means).
    #[must_use = "an issued form completes only once its instant is waited for"]
    pub fn issue_combine_values(&self, op: CombineOp, acc: &mut [Sf64], other: &[Sf64]) -> Time {
        assert_eq!(acc.len(), other.len(), "combine_values length mismatch");
        match op {
            CombineOp::Add => row::add(acc, other),
            CombineOp::Mul => row::mul(acc, other),
            CombineOp::Max | CombineOp::Min => {
                use std::cmp::Ordering::{Greater, Less};
                let replace_when = if op == CombineOp::Max { Less } else { Greater };
                for (a, &b) in acc.iter_mut().zip(other) {
                    if a.compare(b) == Some(replace_when) {
                        *a = b;
                    }
                }
            }
        }
        self.issue_form(VecForm::VAdd, acc.len())
    }

    /// SAXPY on message-buffer values: `y[i] += a·x[i]` through the chained
    /// multiplier→adder pipe (2 flops per element, II = 1). Returns the
    /// form's completion instant, for [`NodeCtx::wait`].
    #[must_use = "an issued form completes only once its instant is waited for"]
    pub fn issue_saxpy_values(&self, a: Sf64, x: &[Sf64], y: &mut [Sf64]) -> Time {
        assert_eq!(x.len(), y.len(), "saxpy_values length mismatch");
        row::saxpy(a, x, y);
        self.issue_form(VecForm::Saxpy(a), x.len())
    }

    /// Local GEMM on message-buffer values: `c += a·b` over the k-range
    /// `ks` on `n × n` row-major blocks, given `at` = Aᵀ, as the `n·|ks|`
    /// chained SAXPY forms `C[i,:] += A[i,k]·B[k,:]` issued back to back
    /// in `(i, k)` order — the same values, meters, spans and completion
    /// instant as that many calls of [`NodeCtx::issue_saxpy_values`], for
    /// one classification of the range's operands ([`row::gemm`]). Returns
    /// the last form's instant.
    #[must_use = "an issued form completes only once its instant is waited for"]
    pub fn issue_gemm_values(
        &self,
        n: usize,
        ks: std::ops::Range<usize>,
        at: &[Sf64],
        b: &[Sf64],
        c: &mut [Sf64],
    ) -> Time {
        let forms = n * ks.len();
        row::gemm(n, ks, at, b, c);
        let timing = VecUnit::timing(VecForm::Saxpy(Sf64::ZERO), n, 1, Precision::Double);
        let mut done = self.now();
        for _ in 0..forms {
            done = self.occupy_vec(self.now(), timing, n);
        }
        done
    }

    /// Dot product on message-buffer values (2 flops per element, plus the
    /// reduction's feedback drain), and the form's completion instant, for
    /// [`NodeCtx::wait`]. Seeded like [`VecForm::Dot`]: the first product
    /// starts the sum, and an empty product is `+0`.
    #[must_use = "an issued form completes only once its instant is waited for"]
    pub fn issue_dot_values(&self, x: &[Sf64], y: &[Sf64]) -> (Sf64, Time) {
        assert_eq!(x.len(), y.len(), "dot length mismatch");
        let dot = row::dot(None, x, y).unwrap_or(Sf64::ZERO);
        (dot, self.issue_form(VecForm::Dot, x.len()))
    }

    // --- links --------------------------------------------------------------

    /// The `(out, in)` sublink pair across (virtual) `dim`.
    fn dim_pair(&self, dim: usize) -> &(LinkChannel, LinkChannel) {
        let dim = self.map_dim(dim);
        self.node
            .dim(dim)
            .unwrap_or_else(|| panic!("node {}: dimension {dim} not wired", self.node.id))
    }

    /// The incoming sublink for dimension `dim` (router daemons `ALT` over
    /// these directly).
    pub fn in_channel(&self, dim: usize) -> LinkChannel {
        self.dim_pair(dim).1.clone()
    }

    /// Send words to the hypercube neighbour across `dim`.
    pub async fn send_dim(&self, dim: usize, words: Vec<u32>) {
        self.dim_pair(dim).0.send(&self.node.h, words).await;
    }

    /// Receive words from the neighbour across `dim`.
    pub async fn recv_dim(&self, dim: usize) -> Vec<u32> {
        self.dim_pair(dim).1.recv(&self.node.h).await
    }

    /// Failable [`NodeCtx::send_dim`]: returns [`LinkError::Down`] instead
    /// of hanging when the link across `dim` is (or goes) dead.
    pub async fn try_send_dim(&self, dim: usize, words: Vec<u32>) -> Result<(), LinkError> {
        self.dim_pair(dim).0.try_send(&self.node.h, words).await
    }

    /// True while the physical link across `dim` (a virtual dimension when
    /// this context is a subcube view) is alive.
    pub fn link_up(&self, dim: usize) -> bool {
        self.node.link_up(self.map_dim(dim))
    }

    /// The watchable status pair (out, in) of the link across `dim`, or
    /// `None` for an unwired dimension. Callers that test liveness on every
    /// hop (the router) cache these handles once and read two shared flags
    /// per decision instead of borrowing node state per dimension.
    pub fn link_statuses(&self, dim: usize) -> Option<(ts_link::LinkStatus, ts_link::LinkStatus)> {
        let pair = self.node.dim(self.map_dim(dim))?;
        Some((pair.0.status().clone(), pair.1.status().clone()))
    }

    /// True once this node has been crashed by a fault plan.
    pub fn is_crashed(&self) -> bool {
        self.node.is_crashed()
    }

    /// The node's watchable health flag ("up" while alive).
    pub fn health(&self) -> ts_link::LinkStatus {
        self.node.health()
    }

    /// `ALT` over several incoming dimensions: first sender wins.
    pub async fn alt_dims(&self, dims: &[usize]) -> (usize, Vec<u32>) {
        let chans: Vec<LinkChannel> = dims.iter().map(|&d| self.in_channel(d)).collect();
        let refs: Vec<&LinkChannel> = chans.iter().collect();
        let (idx, words) = ts_link::AltSet::new(&refs).recv(&self.node.h).await;
        (dims[idx], words)
    }

    /// Send a slice of 64-bit floats across `dim` (two words per element).
    ///
    /// The wire buffer comes from the word pool; the receiver's
    /// [`NodeCtx::recv_f64s`] returns it there once unpacked.
    pub async fn send_f64s(&self, dim: usize, vals: &[Sf64]) {
        self.send_dim(dim, pack_f64s(vals)).await;
    }

    /// Receive a slice of 64-bit floats from `dim`. The result buffer comes
    /// from the value pool — hand it back with [`recycle_values`] when done
    /// to keep the collective hot path allocation-free.
    pub async fn recv_f64s(&self, dim: usize) -> Vec<Sf64> {
        unpack_f64s(self.recv_dim(dim).await)
    }

    /// Send `words` across `out_dim` while receiving from `in_dim`, and
    /// return what arrived: an Occam `PAR` of the two transfers. The same
    /// dimension both ways swaps with the cube partner (sequential transfers
    /// would rendezvous-deadlock); two dimensions make a ring shift.
    ///
    /// The pair is joined in place, the send polled first on every wake —
    /// the polls and instants of [`occam::par2`] over the two transfers.
    /// It is not spelled as `par2`, which stores its two arguments twice in
    /// its future (once as arguments, once pinned): that spelling cost
    /// `collective_storm` 12 % more host time.
    pub async fn exchange(&self, out_dim: usize, words: Vec<u32>, in_dim: usize) -> Vec<u32> {
        let mut send = pin!(self.send_dim(out_dim, words));
        let mut recv = pin!(self.recv_dim(in_dim));
        let (mut sent, mut got) = (false, None);
        poll_fn(|cx| {
            sent = sent || send.as_mut().poll(cx).is_ready();
            if got.is_none() {
                if let Poll::Ready(words) = recv.as_mut().poll(cx) {
                    got = Some(words);
                }
            }
            match got.take_if(|_| sent) {
                Some(words) => Poll::Ready(words),
                None => Poll::Pending,
            }
        })
        .await
    }

    /// [`NodeCtx::exchange`] of 64-bit floats, packed and unpacked as by
    /// [`NodeCtx::send_f64s`] and [`NodeCtx::recv_f64s`].
    pub async fn exchange_f64s(&self, out_dim: usize, vals: &[Sf64], in_dim: usize) -> Vec<Sf64> {
        unpack_f64s(self.exchange(out_dim, pack_f64s(vals), in_dim).await)
    }

    /// The `(out, in)` system-thread sublinks to the module's board. Clone
    /// the end you need and let the borrow go before awaiting on it.
    fn sys_pair(&self) -> Ref<'_, (LinkChannel, LinkChannel)> {
        Ref::map(self.node.shared.state.borrow(), |st| {
            st.sys.as_ref().expect("system thread not wired")
        })
    }

    /// Send to the module's system board.
    pub async fn send_system(&self, words: Vec<u32>) {
        let out = self.sys_pair().0.clone();
        out.send(&self.node.h, words).await;
    }

    /// Failable [`NodeCtx::send_system`]: identical timing while healthy,
    /// but resolves to [`ts_link::LinkError::Down`] when the node crashes
    /// (which downs its system link) before or during the send — even
    /// while parked waiting for the board's rendezvous.
    pub async fn try_send_system(&self, words: Vec<u32>) -> Result<(), ts_link::LinkError> {
        let out = self.sys_pair().0.clone();
        out.try_send(&self.node.h, words).await
    }

    /// Receive from the module's system board.
    pub async fn recv_system(&self) -> Vec<u32> {
        let inp = self.sys_pair().1.clone();
        inp.recv(&self.node.h).await
    }

    // --- running real machine code ------------------------------------------

    /// Load `code` at byte address `base` and run the control processor
    /// until it halts, servicing channel and vector events against this
    /// node's hardware. Returns the processor state (cycles, stack).
    pub async fn run_cp_program(
        &self,
        code: &[u8],
        base: u32,
        wptr: u32,
    ) -> Result<Cp, CpRunError> {
        {
            let mut st = self.node.shared.state.borrow_mut();
            let mut bus = MemBus { mem: &mut st.mem };
            ts_cp::emu::load_code(&mut bus, base, code).map_err(CpRunError::Cp)?;
        }
        let mut cp = Cp::new(base, wptr);
        let mut charged = Dur::ZERO;
        loop {
            let outcome = {
                let mut st = self.node.shared.state.borrow_mut();
                let mut bus = MemBus { mem: &mut st.mem };
                cp.run(&mut bus, 10_000_000).map_err(CpRunError::Cp)?
            };
            // Charge the cycles executed since the last yield.
            let fresh = cp.elapsed() - charged;
            charged += fresh;
            self.meters().cp_busy.add(fresh);
            self.node.shared.cp_res.use_for(&self.node.h, fresh).await;
            match outcome {
                StepOutcome::Halted => return Ok(cp),
                StepOutcome::Yielded(ev) => self.service_event(ev).await?,
            }
        }
    }

    async fn service_event(&self, ev: CpEvent) -> Result<(), CpRunError> {
        match ev {
            CpEvent::Out { chan, ptr, words } => {
                let payload = {
                    let st = self.node.shared.state.borrow();
                    (0..words)
                        .map(|i| st.mem.read_word((ptr + i) as usize))
                        .collect::<Result<Vec<u32>, MemError>>()
                        .map_err(CpRunError::Mem)?
                };
                self.send_dim(chan as usize, payload).await;
            }
            CpEvent::In { chan, ptr, words } => {
                let got = self.recv_dim(chan as usize).await;
                let mut st = self.node.shared.state.borrow_mut();
                for (i, w) in got.into_iter().take(words as usize).enumerate() {
                    st.mem
                        .write_word(ptr as usize + i, w)
                        .map_err(CpRunError::Mem)?;
                }
            }
            CpEvent::VecIssue { descriptor, n } => {
                let d = descriptor as usize;
                let mut desc = [0u32; 4];
                {
                    let st = self.node.shared.state.borrow();
                    for (k, w) in desc.iter_mut().enumerate() {
                        *w = st.mem.read_word(d + k).map_err(CpRunError::Mem)?;
                    }
                }
                let form = match desc[0] {
                    0 => VecForm::VAdd,
                    1 => VecForm::VSub,
                    2 => VecForm::VMul,
                    3 => VecForm::Dot,
                    4 => VecForm::Sum,
                    code => return Err(CpRunError::Cp(CpError::IllegalOp { code })),
                };
                let [x, y, z] = [desc[1], desc[2], desc[3]].map(|w| w as usize);
                let r = self
                    .vec(form, x, y, z, n as usize)
                    .await
                    .map_err(CpRunError::Mem)?;
                // Scalar results land in the descriptor's 5th word slot.
                if let Some(s) = r.scalar {
                    let mut st = self.node.shared.state.borrow_mut();
                    st.mem.write_u64(d + 4, s).map_err(CpRunError::Mem)?;
                }
            }
        }
        Ok(())
    }
}

/// The wire form of `vals`, in a word-pool buffer — what
/// [`NodeCtx::send_f64s`] sends.
fn pack_f64s(vals: &[Sf64]) -> Vec<u32> {
    let mut words = ts_sim::pool::take_words(vals.len() * 2);
    pack_f64s_into(&mut words, vals);
    words
}

/// Append the wire form of `vals` (low word first) to `words`. A kernel
/// that relays a message unopened packs it once with this and reads it
/// once with [`f64s_of`].
pub fn pack_f64s_into(words: &mut Vec<u32>, vals: &[Sf64]) {
    words.extend(vals.iter().flat_map(|v| ts_mem::split(v.to_bits())));
}

/// The values a wire form carries, in order.
pub fn f64s_of(words: &[u32]) -> impl Iterator<Item = Sf64> + '_ {
    words
        .chunks_exact(2)
        .map(|c| Sf64::from_bits(ts_mem::join(c)))
}

/// The values `words` carry, in a value-pool buffer; `words` goes back to
/// its pool.
fn unpack_f64s(words: Vec<u32>) -> Vec<Sf64> {
    let mut vals = take_values(words.len() / 2);
    vals.extend(f64s_of(&words));
    ts_sim::pool::put_words(words);
    vals
}

/// Errors from running machine code on a node.
#[derive(Debug)]
pub enum CpRunError {
    /// Processor fault.
    Cp(CpError),
    /// Memory system fault during event service.
    Mem(MemError),
}

impl std::fmt::Display for CpRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpRunError::Cp(e) => write!(f, "control processor fault: {e}"),
            CpRunError::Mem(e) => write!(f, "memory fault: {e}"),
        }
    }
}

impl std::error::Error for CpRunError {}

/// Adapter: the node's dual-ported memory as the processor's bus.
struct MemBus<'a> {
    mem: &'a mut NodeMemory,
}

impl CpBus for MemBus<'_> {
    fn read(&mut self, word_addr: u32) -> Result<u32, CpError> {
        self.mem
            .read_word(word_addr as usize)
            .map_err(|_| CpError::Bus { addr: word_addr })
    }

    fn write(&mut self, word_addr: u32, value: u32) -> Result<(), CpError> {
        self.mem
            .write_word(word_addr as usize, value)
            .map_err(|_| CpError::Bus { addr: word_addr })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_link::{LinkParams, Wire};
    use ts_sim::Sim;

    fn wire_pair(a: &Node, b: &Node, dim: usize) {
        // Dimension d uses physical link d%4 on each node; here each test
        // edge just gets its own wires.
        let ab = LinkChannel::new(Wire::new("ab", LinkParams::default()));
        let ba = LinkChannel::new(Wire::new("ba", LinkParams::default()));
        a.wire_dim(dim, ab.clone(), ba.clone());
        b.wire_dim(dim, ba, ab);
    }

    fn two_nodes(sim: &Sim) -> (Node, Node) {
        let a = Node::new(0, NodeCfg::default(), sim.handle());
        let b = Node::new(1, NodeCfg::default(), sim.handle());
        wire_pair(&a, &b, 0);
        (a, b)
    }

    #[test]
    fn vector_op_advances_clock() {
        let mut sim = Sim::new();
        let node = Node::new(0, NodeCfg::default(), sim.handle());
        let ctx = node.ctx();
        {
            let mut mem = node.mem_mut();
            for i in 0..128 {
                mem.write_f64(2 * i, Sf64::from(i as f64)).unwrap();
                let b_base = 256 * ROW_WORDS;
                mem.write_f64(b_base + 2 * i, Sf64::from(1.0)).unwrap();
            }
        }
        let jh = sim.spawn(async move {
            let r = ctx.vec(VecForm::VAdd, 0, 256, 257, 128).await.unwrap();
            (r.timing.flops, ctx.now())
        });
        assert!(sim.run().quiescent);
        let (flops, t) = jh.try_take().unwrap();
        assert_eq!(flops, 128);
        assert!(t.as_ns() > 0);
        assert_eq!(node.mem().read_f64(257 * ROW_WORDS).unwrap().to_host(), 1.0);
        assert_eq!(node.meters().vec_flops.get(), 128);
    }

    #[test]
    fn gather_costs_1_6us_per_element() {
        let mut sim = Sim::new();
        let node = Node::new(0, NodeCfg::default(), sim.handle());
        let ctx = node.ctx();
        {
            let mut mem = node.mem_mut();
            for i in 0..64usize {
                mem.write_f64(1000 + 8 * i, Sf64::from(i as f64)).unwrap();
            }
        }
        let jh = sim.spawn(async move {
            let src: Vec<usize> = (0..64).map(|i| 1000 + 8 * i).collect();
            ctx.gather64(&src, 0).await.unwrap();
            ctx.now()
        });
        assert!(sim.run().quiescent);
        let t = jh.try_take().unwrap();
        assert_eq!(t.as_ns(), 64 * 1600);
        // Data actually moved.
        assert_eq!(node.mem().read_f64(2 * 63).unwrap().to_host(), 63.0);
    }

    #[test]
    fn vec_overlaps_gather_but_not_vec() {
        let mut sim = Sim::new();
        let node = Node::new(0, NodeCfg::default(), sim.handle());
        let ctx = node.ctx();
        let jh = sim.spawn(async move {
            // Issue a long vector op, then gather while it runs.
            let (r, done) = ctx
                .issue_vec(VecForm::Saxpy(Sf64::from(2.0)), 0, 256, 512, 1024)
                .unwrap();
            let src: Vec<usize> = (0..32).map(|i| 3000 + 4 * i).collect();
            ctx.gather64(&src, 2000).await.unwrap();
            let gather_done = ctx.now();
            ctx.wait(done).await;
            (gather_done, ctx.now(), r.timing.duration)
        });
        assert!(sim.run().quiescent);
        let (gather_done, vec_done, vec_dur) = jh.try_take().unwrap();
        // Gather (51.2 µs) finished before the 1024-element SAXPY (~130 µs):
        assert!(gather_done < vec_done);
        assert_eq!(vec_done.since(ts_sim::Time::ZERO), vec_dur);
        // Total < sum (overlap) but = vec duration (it dominates).
        assert!(vec_dur.as_ns() > 51_200);
    }

    #[test]
    fn two_vec_ops_serialize() {
        let mut sim = Sim::new();
        let node = Node::new(0, NodeCfg::default(), sim.handle());
        let ctx = node.ctx();
        let jh = sim.spawn(async move {
            let (ra, _) = ctx.issue_vec(VecForm::VAdd, 0, 256, 512, 128).unwrap();
            let (rb, done) = ctx.issue_vec(VecForm::VMul, 1, 257, 513, 128).unwrap();
            ctx.wait(done).await;
            (ra.timing.duration, rb.timing.duration, ctx.now())
        });
        assert!(sim.run().quiescent);
        let (da, db, end) = jh.try_take().unwrap();
        assert_eq!(end.since(ts_sim::Time::ZERO), da + db, "one vector unit");
    }

    #[test]
    fn message_buffer_arithmetic_costs_what_the_cross_bank_form_costs() {
        // combine/saxpy/dot on message buffers charge the unit's own timing
        // of the form they stand for: x in bank A (row 0), y in bank B (row
        // 256), so the row form streams at II = 1 like the buffers do.
        for n in [1usize, 8, 128, 300] {
            let mut sim = Sim::new();
            let ctx = Node::new(0, NodeCfg::default(), sim.handle()).ctx();
            let jh = sim.spawn(async move {
                let a = Sf64::from(2.0);
                let x = vec![Sf64::from(1.5); n];
                let mut y = vec![Sf64::from(0.5); n];
                let mut took = Vec::new();
                let mut lap = ctx.now();
                let mut mark = |ctx: &NodeCtx| {
                    took.push(ctx.now().since(lap));
                    lap = ctx.now();
                };
                ctx.combine_values(CombineOp::Add, &mut y, &x).await;
                mark(&ctx);
                ctx.vec(VecForm::VAdd, 0, 256, 300, n).await.unwrap();
                mark(&ctx);
                ctx.wait(ctx.issue_saxpy_values(a, &x, &mut y)).await;
                mark(&ctx);
                ctx.vec(VecForm::Saxpy(a), 0, 256, 300, n).await.unwrap();
                mark(&ctx);
                ctx.wait(ctx.issue_dot_values(&x, &y).1).await;
                mark(&ctx);
                ctx.vec(VecForm::Dot, 0, 256, 300, n).await.unwrap();
                mark(&ctx);
                took
            });
            assert!(sim.run().quiescent);
            let took = jh.try_take().unwrap();
            assert_eq!(took[0], took[1], "combine_values(Add) vs VAdd, n = {n}");
            assert_eq!(took[2], took[3], "issue_saxpy_values vs Saxpy, n = {n}");
            assert_eq!(took[4], took[5], "issue_dot_values vs Dot, n = {n}");
        }
    }

    /// Values no guard admits, or next to an edge one uses.
    const PLANTED: [u64; 12] = [
        0,
        1 << 63,               // −0
        1,                     // smallest subnormal
        0x000f_ffff_ffff_ffff, // largest subnormal
        0x0010_0000_0000_0000, // min-normal
        0x001f_ffff_ffff_ffff, // top of the bottom binade
        0x7ff0_0000_0000_0000, // +Inf
        0xfff0_0000_0000_0000, // −Inf
        0x7ff8_0000_0000_0000, // NaN
        0x2006_b7f3_c9e9_c616, // × the next: the host rounds up to
        0x1ff6_8960_fa2a_be6d, // min-normal, the datapath flushes
        0x200f_ffff_ffff_ffff, // one ulp under the GEMM band
    ];

    fn bits(v: &[Sf64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn value_forms_equal_the_element_path_and_the_memory_forms_row_for_row() {
        let mut sim = Sim::new();
        let ctx = Node::new(0, NodeCfg::default(), sim.handle()).ctx();
        let jh = sim.spawn(async move {
            let mut rng = ts_sim::Rng::new(0x7a1);
            let mut turn = 0;
            for len in 1..=128usize {
                let mut x: Vec<Sf64> = (0..len).map(|_| Sf64::from(rng.f64() - 0.5)).collect();
                let mut y: Vec<Sf64> = (0..len).map(|_| Sf64::from(rng.f64() + 0.5)).collect();
                let a = Sf64::from(rng.f64() * 4.0 - 2.0);
                for pos in 0..len {
                    let v = if (len + pos) % 2 == 1 { &mut x } else { &mut y };
                    let keep = std::mem::replace(&mut v[pos], Sf64::from_bits(PLANTED[turn % 12]));
                    turn += 1;
                    {
                        let mut mem = ctx.mem_mut();
                        for (j, (&xj, &yj)) in x.iter().zip(&y).enumerate() {
                            mem.write_f64(2 * j, xj).unwrap();
                            mem.write_f64(256 * ROW_WORDS + 2 * j, yj).unwrap();
                        }
                    }
                    let row_of = |ctx: &NodeCtx| {
                        let mem = ctx.mem();
                        (0..len)
                            .map(|j| mem.read_f64(300 * ROW_WORDS + 2 * j).unwrap().to_bits())
                            .collect::<Vec<_>>()
                    };
                    let each = |f: &dyn Fn(Sf64, Sf64) -> Sf64| -> Vec<u64> {
                        x.iter().zip(&y).map(|(&x, &y)| f(x, y).to_bits()).collect()
                    };
                    let what = format!("len {len}, pos {pos}");
                    for (op, form, f) in [
                        (
                            CombineOp::Add,
                            VecForm::VAdd,
                            &(|x, y| x + y) as &dyn Fn(_, _) -> _,
                        ),
                        (CombineOp::Mul, VecForm::VMul, &|x, y| x * y),
                    ] {
                        let mut acc = x.clone();
                        ctx.combine_values(op, &mut acc, &y).await;
                        ctx.vec(form, 0, 256, 300, len).await.unwrap();
                        assert_eq!(bits(&acc), each(f), "{op:?} {what}");
                        assert_eq!(row_of(&ctx), each(f), "{form:?} {what}");
                    }
                    let mut z = y.clone();
                    ctx.wait(ctx.issue_saxpy_values(a, &x, &mut z)).await;
                    ctx.vec(VecForm::Saxpy(a), 0, 256, 300, len).await.unwrap();
                    assert_eq!(bits(&z), each(&|x, y| a * x + y), "saxpy {what}");
                    assert_eq!(row_of(&ctx), each(&|x, y| a * x + y), "Saxpy {what}");
                    let want = x.iter().zip(&y).map(|(&x, &y)| x * y).reduce(|s, p| s + p);
                    let (dot, done) = ctx.issue_dot_values(&x, &y);
                    ctx.wait(done).await;
                    let form = ctx.vec(VecForm::Dot, 0, 256, 300, len).await.unwrap();
                    assert_eq!(Some(dot.to_bits()), want.map(Sf64::to_bits), "dot {what}");
                    assert_eq!(form.scalar, want.map(Sf64::to_bits), "Dot {what}");
                    let v = if (len + pos) % 2 == 1 { &mut x } else { &mut y };
                    v[pos] = keep;
                }
            }
        });
        sim.run();
        jh.try_take().expect("the oracle ran to the end");
    }

    #[test]
    fn issued_forms_take_their_own_timings_back_to_back() {
        // Each form is priced by `VecUnit::timing` over the n elements and
        // books its own flops; no elements issue nothing.
        let mut sim = Sim::new();
        let node = Node::new(0, NodeCfg::default(), sim.handle());
        let ctx = node.ctx();
        let forms = [VecForm::VAdd, VecForm::VSMul(Sf64::from(0.5)), VecForm::Dot];
        let jh = sim.spawn(async move {
            assert_eq!(ctx.issue_forms(&forms, 0), ctx.now(), "nothing issued");
            let done = ctx.issue_forms(&forms, 100);
            ctx.wait(done).await;
            done.since(Time::ZERO)
        });
        sim.run();
        let time = |f| VecUnit::timing(f, 100, 1, Precision::Double).duration;
        let want = forms.into_iter().map(time).sum::<Dur>();
        assert_eq!(jh.try_take().unwrap(), want);
        let m = node.meters();
        assert_eq!((m.vec_flops.get(), m.vec_len.total()), (400, 3));
    }

    #[test]
    fn dot_seeding_is_the_same_for_value_and_memory_forms() {
        // The first product seeds the sum: −1 · 0 = −0 stays −0, where
        // seeding with +0 would give +0 + −0 = +0.
        let mut sim = Sim::new();
        let ctx = Node::new(0, NodeCfg::default(), sim.handle()).ctx();
        let jh = sim.spawn(async move {
            let (x, y) = ([Sf64::from(-1.0)], [Sf64::from(0.0)]);
            ctx.mem_mut().write_f64(0, x[0]).unwrap();
            ctx.mem_mut().write_f64(256 * ROW_WORDS, y[0]).unwrap();
            let value = ctx.issue_dot_values(&x, &y).0.to_bits();
            let memory = ctx.vec(VecForm::Dot, 0, 256, 300, 1).await.unwrap();
            let empty = ctx.issue_dot_values(&[], &[]).0.to_bits();
            (value, memory.scalar, empty)
        });
        sim.run();
        let neg_zero = (-0.0f64).to_bits();
        assert_eq!(jh.try_take().unwrap(), (neg_zero, Some(neg_zero), 0));
    }

    #[test]
    fn gemm_block_form_equals_its_saxpys_in_values_meters_and_instants() {
        /// Run one node's GEMM of `c += a·b` (`a` holds Aᵀ), as block forms
        /// over k-ranges of `width` (in k-order) or, with no width, as `n²`
        /// SAXPY value forms; its C, completion instant and vector meters.
        fn run(
            n: usize,
            a: &[Sf64],
            b: &[Sf64],
            c: &[Sf64],
            width: Option<usize>,
        ) -> impl PartialEq + std::fmt::Debug {
            let mut sim = Sim::new();
            let node = Node::new(0, NodeCfg::default(), sim.handle());
            let ctx = node.ctx();
            let (a, b, mut c) = (a.to_vec(), b.to_vec(), c.to_vec());
            let jh = sim.spawn(async move {
                ctx.cp_compute(3).await; // start off the zero instant
                let done = if let Some(w) = width {
                    let mut done = ctx.now();
                    for k0 in (0..n).step_by(w) {
                        done = ctx.issue_gemm_values(n, k0..(k0 + w).min(n), &a, &b, &mut c);
                    }
                    done
                } else {
                    let mut done = ctx.now();
                    for i in 0..n {
                        for k in 0..n {
                            let row = &mut c[i * n..(i + 1) * n];
                            done =
                                ctx.issue_saxpy_values(a[k * n + i], &b[k * n..(k + 1) * n], row);
                        }
                    }
                    done
                };
                ctx.wait(done).await;
                (bits(&c), done, ctx.now())
            });
            sim.run();
            let m = node.meters();
            let meters = (m.vec_flops.get(), m.vec_busy.get(), m.vec_len.total());
            (jh.try_take().unwrap(), meters)
        }
        let mut rng = ts_sim::Rng::new(0x6e);
        for n in [1usize, 2, 5, 16, 17] {
            let mut m: [Vec<Sf64>; 3] = std::array::from_fn(|_| {
                (0..n * n)
                    .map(|_| Sf64::from(rng.f64() * 2.0 - 1.0))
                    .collect()
            });
            for w in [n, 2] {
                assert_eq!(
                    run(n, &m[0], &m[1], &m[2], Some(w)),
                    run(n, &m[0], &m[1], &m[2], None),
                    "n {n}, k-ranges of {w}"
                );
            }
            for (which, &p) in PLANTED.iter().enumerate() {
                let pos = rng.below((n * n) as u64) as usize;
                let keep = std::mem::replace(&mut m[which % 3][pos], Sf64::from_bits(p));
                let want = run(n, &m[0], &m[1], &m[2], None);
                for w in [n, 2] {
                    assert_eq!(
                        run(n, &m[0], &m[1], &m[2], Some(w)),
                        want,
                        "n {n}, k-ranges of {w}, {p:#x} planted in {} at {pos}",
                        ["A", "B", "C"][which % 3]
                    );
                }
                m[which % 3][pos] = keep;
            }
        }
    }

    #[test]
    fn messages_cross_between_nodes() {
        let mut sim = Sim::new();
        let (a, b) = two_nodes(&sim);
        let (ca, cb) = (a.ctx(), b.ctx());
        sim.spawn(async move {
            ca.send_f64s(0, &[Sf64::from(1.5), Sf64::from(-2.5)]).await;
        });
        let jh = sim.spawn(async move {
            let v = cb.recv_f64s(0).await;
            (v[0].to_host(), v[1].to_host(), cb.now())
        });
        assert!(sim.run().quiescent);
        let (x, y, t) = jh.try_take().unwrap();
        assert_eq!((x, y), (1.5, -2.5));
        // 16 bytes: 5 µs DMA + 32 µs wire.
        assert_eq!(t.as_ns(), 37_000);
    }

    #[test]
    fn alt_dims_selects_first_arrival() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let a = Node::new(0, NodeCfg::default(), sim.handle());
        let b = Node::new(1, NodeCfg::default(), sim.handle());
        let c = Node::new(2, NodeCfg::default(), sim.handle());
        wire_pair(&a, &b, 0);
        wire_pair(&a, &c, 1);
        let (ca, cb, cc) = (a.ctx(), b.ctx(), c.ctx());
        sim.spawn(async move {
            h.sleep(Dur::us(100)).await;
            cb.send_dim(0, vec![7]).await;
        });
        sim.spawn(async move {
            cc.send_dim(1, vec![9]).await; // arrives first
        });
        let jh = sim.spawn(async move {
            let (dim, words) = ca.alt_dims(&[0, 1]).await;
            let (dim2, words2) = ca.alt_dims(&[0, 1]).await;
            ((dim, words[0]), (dim2, words2[0]))
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some(((1, 9), (0, 7))));
    }

    #[test]
    fn row_move_timing() {
        let mut sim = Sim::new();
        let node = Node::new(0, NodeCfg::default(), sim.handle());
        let ctx = node.ctx();
        {
            let mut mem = node.mem_mut();
            mem.write_word(5 * ROW_WORDS + 3, 777).unwrap();
        }
        let jh = sim.spawn(async move {
            ctx.row_move(5, 700, 1).await.unwrap();
            let moved = ctx.now();
            // A swap reads both rows and writes both: 1.6 µs per row pair.
            ctx.row_swap(6, 700, 1).await.unwrap();
            (moved, ctx.now().since(moved))
        });
        assert!(sim.run().quiescent);
        let (moved, swap) = jh.try_take().unwrap();
        assert_eq!(moved.as_ns(), 800);
        assert_eq!(swap.as_ns(), 1600);
        assert_eq!(node.mem().read_word(6 * ROW_WORDS + 3).unwrap(), 777);
        assert_eq!(node.mem().read_word(700 * ROW_WORDS + 3).unwrap(), 0);
    }

    #[test]
    fn single_precision_mode_and_conversions() {
        let mut sim = Sim::new();
        let node = Node::new(0, NodeCfg::default(), sim.handle());
        let ctx = node.ctx();
        {
            let mut mem = node.mem_mut();
            for i in 0..64 {
                mem.write_f64(2 * i, Sf64::from(i as f64 + 0.5)).unwrap();
            }
        }
        let jh = sim.spawn(async move {
            let rows_a = ctx.mem().cfg().rows_a();
            // Narrow 64 doubles into bank B as floats.
            ctx.vec_narrow(0, rows_a, 64).await.unwrap();
            // 32-bit VAdd with itself: z32 = x32 + x32.
            let r = ctx
                .vec32(ts_vec::VecForm::VAdd, rows_a, rows_a, rows_a + 1, 64)
                .await
                .unwrap();
            // Widen back to bank A row 8.
            ctx.vec_widen(rows_a + 1, 8, 64).await.unwrap();
            r.timing.flops
        });
        assert!(sim.run().quiescent);
        assert_eq!(jh.try_take(), Some(64));
        // The widened result is 2*(i + 0.5) exactly (all representable).
        let mem = node.mem();
        for i in 0..64 {
            let got = mem
                .read_f64((8 + i / 128) * ROW_WORDS + 2 * i)
                .unwrap()
                .to_host();
            assert_eq!(got, 2.0 * (i as f64 + 0.5), "elem {i}");
        }
    }

    #[test]
    fn cp_program_with_channel_io() {
        // Node A runs machine code that sends 4 words from memory; node B
        // runs code that receives them.
        let mut sim = Sim::new();
        let (a, b) = two_nodes(&sim);
        for (i, w) in [11u32, 22, 33, 44].into_iter().enumerate() {
            a.mem_mut().write_word(512 + i, w).unwrap();
        }
        let send = ts_cp::assemble("ldc 0\nldc 512\nldc 4\nout\nhalt\n").unwrap();
        let recv = ts_cp::assemble("ldc 0\nldc 512\nldc 4\nin\nhalt\n").unwrap();
        let (ca, cb) = (a.ctx(), b.ctx());
        sim.spawn(async move {
            ca.run_cp_program(&send, 4096, 256).await.unwrap();
        });
        let jh = sim.spawn(async move {
            let cp = cb.run_cp_program(&recv, 4096, 256).await.unwrap();
            cp.instructions
        });
        assert!(sim.run().quiescent);
        assert!(jh.try_take().unwrap() >= 5);
        for (i, w) in [11u32, 22, 33, 44].into_iter().enumerate() {
            assert_eq!(b.mem().read_word(512 + i).unwrap(), w);
        }
        assert!(b.meters().cp_busy.get() > Dur::ZERO);
    }

    #[test]
    fn compiled_occ_runs_on_the_node() {
        let mut sim = Sim::new();
        let node = Node::new(0, NodeCfg::default(), sim.handle());
        let ctx = node.ctx();
        let jh = sim.spawn(async move {
            let prog =
                ts_cp::occ::compile("n := 6; f := 1; while n > 1 { f := f * n; n := n - 1; }")
                    .unwrap();
            let cp = ctx.run_cp_program(&prog.code, 8192, 256).await.unwrap();
            // A second, shorter program on the same node: its charge cursor
            // starts at zero again, so both are charged in full.
            let short = ts_cp::occ::compile("n := 2;").unwrap();
            let short = ctx.run_cp_program(&short.code, 8192, 256).await.unwrap();
            assert!(short.elapsed() < cp.elapsed());
            (
                cp.instructions,
                prog.vars["f"],
                cp.elapsed() + short.elapsed(),
            )
        });
        assert!(sim.run().quiescent);
        let (instrs, slot, elapsed) = jh.try_take().unwrap();
        assert!(instrs > 20);
        assert_eq!(node.mem().read_word(256 + slot).unwrap(), 720);
        assert_eq!(node.meters().cp_busy.get(), elapsed);
        assert_eq!(sim.now(), ts_sim::Time::ZERO + elapsed);
    }

    #[test]
    fn cp_program_issues_vector_form() {
        let mut sim = Sim::new();
        let node = Node::new(0, NodeCfg::default(), sim.handle());
        {
            let mut mem = node.mem_mut();
            // Descriptor at word 600: form=VAdd(0), x=0, y=256, z=257.
            mem.write_word(600, 0).unwrap();
            mem.write_word(601, 0).unwrap();
            mem.write_word(602, 256).unwrap();
            mem.write_word(603, 257).unwrap();
            for i in 0..4 {
                mem.write_f64(2 * i, Sf64::from(i as f64)).unwrap();
                mem.write_f64(256 * ROW_WORDS + 2 * i, Sf64::from(10.0))
                    .unwrap();
            }
        }
        let code = ts_cp::assemble("ldc 600\nldc 4\nvecop\nhalt\n").unwrap();
        let ctx = node.ctx();
        sim.spawn(async move {
            ctx.run_cp_program(&code, 4096, 300).await.unwrap();
        });
        assert!(sim.run().quiescent);
        assert_eq!(
            node.mem().read_f64(257 * ROW_WORDS + 4).unwrap().to_host(),
            12.0
        );
        assert_eq!(node.meters().vec_flops.get(), 4);
    }

    #[test]
    fn cp_program_rejects_an_unknown_vector_form() {
        let mut sim = Sim::new();
        let node = Node::new(0, NodeCfg::default(), sim.handle());
        // Descriptor at word 600 names form 9, which no form answers to.
        for (k, w) in [9, 0, 256, 257].into_iter().enumerate() {
            node.mem_mut().write_word(600 + k, w).unwrap();
        }
        let code = ts_cp::assemble("ldc 600\nldc 4\nvecop\nhalt\n").unwrap();
        let ctx = node.ctx();
        let jh = sim.spawn(async move { ctx.run_cp_program(&code, 4096, 300).await });
        assert!(sim.run().quiescent);
        assert!(matches!(
            jh.try_take(),
            Some(Err(CpRunError::Cp(CpError::IllegalOp { code: 9 })))
        ));
        assert_eq!(node.meters().vec_flops.get(), 0);
    }

    #[test]
    fn cp_program_at_a_misaligned_base_is_a_bus_error() {
        let mut sim = Sim::new();
        let ctx = Node::new(0, NodeCfg::default(), sim.handle()).ctx();
        let code = ts_cp::assemble("halt\n").unwrap();
        let jh = sim.spawn(async move { ctx.run_cp_program(&code, 2402, 256).await });
        assert!(sim.run().quiescent);
        assert!(matches!(
            jh.try_take(),
            Some(Err(CpRunError::Cp(CpError::Bus { addr: 2402 })))
        ));
    }
}
