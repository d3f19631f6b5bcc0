//! System boards, disks and the system ring (§III *System Description*).
//!
//! "Eight nodes are combined with disk storage and a system board to form a
//! module... The system boards are directly connected by communications
//! links to form a **system ring** that is independent of the binary n-cube
//! network. The primary function of the system disk is to record **memory
//! snapshots** which checkpoint computations for error recovery."
//!
//! The board is modeled as its own link engine (one wire per direction, the
//! same 0.5 MB/s serial hardware as a node link) plus a rate-served disk.
//! Because all eight nodes of a module funnel their images through the one
//! board engine, a full-memory snapshot costs 8 × 1 MB / 0.5 MB/s ≈ 16 s —
//! the paper's "about 15 seconds ... regardless of configuration" (modules
//! work in parallel, so the time does not grow with machine size).
//!
//! Snapshot payloads are mode-tagged ([`PAYLOAD_FULL`] images or
//! [`PAYLOAD_DELTA`] dirty-row encodings) and become durable only through
//! [`ring_commit`] — two token laps around the system ring that flip every
//! module's staged version to committed atomically. See
//! [`crate::checkpoint::CheckpointStore`] for the two-version store the
//! disks implement.

use std::cell::Cell;
use std::rc::Rc;

use ts_link::{LinkChannel, Wire};
use ts_node::{occam, NodeCtx};
use ts_sim::{Dur, Resource, SimHandle};

/// Words per system-thread message chunk (4 KB): amortizes the 5 µs DMA
/// startup to 0.06 % while keeping buffers modest.
pub const CHUNK_WORDS: usize = 1024;

/// Snapshot payload carries every word of memory (header mode word).
pub const PAYLOAD_FULL: u32 = 0;
/// Snapshot payload is a [`ts_mem::RowDelta`] wire encoding.
pub const PAYLOAD_DELTA: u32 = 1;
/// End-of-stream token closing a snapshot payload ("EOF" in ASCII): the
/// live-node proof the board demands after the last chunk.
pub const EOF_WORD: u32 = 0x0045_4F46;

/// Bytes of the on-disk commit record each board writes when the commit
/// token comes around (the version flip that makes a snapshot durable).
pub const COMMIT_RECORD_BYTES: usize = 64;

/// Write/read rate of a module's system disk, bytes/second (a 1 MB/s
/// Winchester-class drive). Checkpoint streaming is charged at this rate
/// by the boards and by the job scheduler's resume gates.
pub const DISK_RATE: f64 = 1.0e6;

/// A rate-served disk with FIFO queueing.
#[derive(Clone)]
pub struct Disk {
    res: Resource,
    bytes_per_sec: f64,
    failed: Rc<Cell<bool>>,
}

impl Disk {
    /// A disk writing/reading at `bytes_per_sec`.
    pub fn new(bytes_per_sec: f64) -> Disk {
        Disk {
            res: Resource::new("disk"),
            bytes_per_sec,
            failed: Rc::new(Cell::new(false)),
        }
    }

    /// Time to move `bytes` at the disk's rate.
    pub fn transfer_time(&self, bytes: usize) -> Dur {
        Dur::from_secs_f64(bytes as f64 / self.bytes_per_sec)
    }

    /// Write `bytes`, queueing FIFO behind earlier requests. A failed
    /// controller never completes the request — the snapshot stalls and
    /// the caller's quiescence check turns the hang into an abort.
    pub async fn write(&self, h: &SimHandle, bytes: usize) {
        if self.failed.get() {
            std::future::pending::<()>().await;
        }
        self.res.use_for(h, self.transfer_time(bytes)).await;
    }

    /// Read `bytes`.
    pub async fn read(&self, h: &SimHandle, bytes: usize) {
        if self.failed.get() {
            std::future::pending::<()>().await;
        }
        self.res.use_for(h, self.transfer_time(bytes)).await;
    }

    /// Fault the disk controller: subsequent transfers hang until
    /// [`Disk::heal`] (or a reboot rebuilds the module).
    pub fn fail(&self) {
        self.failed.set(true);
    }

    /// Repair a failed controller.
    pub fn heal(&self) {
        self.failed.set(false);
    }

    /// Total bytes-time the disk has served.
    pub fn busy_total(&self) -> Dur {
        self.res.busy_total()
    }
}

struct BoardState {
    to_node: Vec<LinkChannel>,
    from_node: Vec<LinkChannel>,
    ring_next: Option<LinkChannel>,
    ring_prev: Option<LinkChannel>,
}

/// The per-module system board: I/O, management, snapshot collection.
#[derive(Clone)]
pub struct SystemBoard {
    /// Module index.
    pub module: u32,
    h: SimHandle,
    state: Rc<std::cell::RefCell<BoardState>>,
    wire_out: Wire,
    wire_in: Wire,
    /// The module's snapshot/backup disk.
    pub disk: Disk,
    /// Words this board has pushed onto the system ring.
    ring_words: Rc<Cell<u64>>,
}

impl SystemBoard {
    /// Assemble a board (wired by the machine builder).
    pub fn new(
        module: u32,
        h: SimHandle,
        to_node: Vec<LinkChannel>,
        from_node: Vec<LinkChannel>,
        wire_out: Wire,
        wire_in: Wire,
        disk: Disk,
    ) -> SystemBoard {
        SystemBoard {
            module,
            h,
            state: Rc::new(std::cell::RefCell::new(BoardState {
                to_node,
                from_node,
                ring_next: None,
                ring_prev: None,
            })),
            wire_out,
            wire_in,
            disk,
            ring_words: Rc::new(Cell::new(0)),
        }
    }

    /// Bytes this board has pushed onto the system ring.
    pub fn ring_bytes(&self) -> u64 {
        self.ring_words.get() * 4
    }

    /// The board's outgoing link engine.
    pub fn wire_out(&self) -> &Wire {
        &self.wire_out
    }

    /// The board's incoming link engine.
    pub fn wire_in(&self) -> &Wire {
        &self.wire_in
    }

    /// Wire the ring link towards the next board.
    pub fn set_ring_next(&self, ch: LinkChannel) {
        self.state.borrow_mut().ring_next = Some(ch);
    }

    /// Wire the ring link from the previous board.
    pub fn set_ring_prev(&self, ch: LinkChannel) {
        self.state.borrow_mut().ring_prev = Some(ch);
    }

    /// Receive one node's snapshot payload over the system thread
    /// (chunked), writing each chunk to disk as it lands. Returns the
    /// payload mode word and the payload itself (a full image for
    /// [`PAYLOAD_FULL`], an encoded [`ts_mem::RowDelta`] for
    /// [`PAYLOAD_DELTA`]).
    async fn receive_payload(&self, node_slot: usize) -> (u32, Vec<u32>) {
        let ch = self.state.borrow().from_node[node_slot].clone();
        // Header: [mode, payload length in words].
        let header = ch.recv(&self.h).await;
        let (mode, total) = (header[0], header[1] as usize);
        let mut payload = Vec::with_capacity(total);
        while payload.len() < total {
            let chunk = ch.recv(&self.h).await;
            // Stream each chunk to disk as it lands: the disk (1 MB/s)
            // keeps pace with the 0.5 MB/s system thread, so the write is
            // hidden and the snapshot stays wire-limited (~16 s/module).
            self.disk.write(&self.h, chunk.len() * 4).await;
            payload.extend_from_slice(&chunk);
        }
        // End-of-stream token: only requested once every chunk's transfer
        // has completed, so its rendezvous commits at stream-end. A node
        // that died anywhere mid-stream cannot produce it, which is what
        // makes a crash tear the snapshot even when the payload itself
        // was small enough to be committed up front.
        let eof = ch.recv(&self.h).await;
        debug_assert_eq!(eof[0], EOF_WORD, "snapshot stream ended without EOF");
        (mode, payload)
    }

    /// Collect snapshot payloads from all `count` nodes of this module
    /// into the staging area. Nodes stream concurrently but share the
    /// board's one input engine.
    pub async fn collect_payloads(&self, count: usize) -> Vec<(u32, Vec<u32>)> {
        let procs = (0..count).map(|slot| {
            let board = self.clone();
            async move { board.receive_payload(slot).await }
        });
        occam::par_all(&self.h, procs.collect()).await
    }

    /// Stream restore images back down to the nodes (disk read first).
    /// Restores are always full images — the committed version on disk.
    pub async fn send_restore(&self, images: Vec<Vec<u32>>) {
        let procs = images.into_iter().enumerate().map(|(slot, image)| {
            let board = self.clone();
            async move {
                board.disk.read(&board.h, image.len() * 4).await;
                let ch = board.state.borrow().to_node[slot].clone();
                ch.send(&board.h, vec![PAYLOAD_FULL, image.len() as u32])
                    .await;
                for chunk in image.chunks(CHUNK_WORDS) {
                    ch.send(&board.h, chunk.to_vec()).await;
                }
            }
        });
        occam::par_all(&self.h, procs.collect()).await;
    }

    /// Forward `words` to the next board on the ring. A flapped ring link
    /// delays the send until it self-heals (the board retries on a fixed
    /// poll); a condemned link parks the send forever, turning the commit
    /// lap into a detectable stall.
    pub async fn ring_send(&self, words: Vec<u32>) {
        let ch = self
            .state
            .borrow()
            .ring_next
            .clone()
            .expect("ring not wired");
        while !ch.is_up() {
            if ch.status().is_condemned() {
                std::future::pending::<()>().await;
            }
            self.h.sleep(Dur::us(100)).await;
        }
        self.ring_words
            .set(self.ring_words.get() + words.len() as u64);
        ch.send(&self.h, words).await;
    }

    /// Status flag of the outbound ring link (for fault injection); `None`
    /// on a single-module machine with no ring.
    pub fn ring_next_status(&self) -> Option<ts_link::LinkStatus> {
        self.state
            .borrow()
            .ring_next
            .as_ref()
            .map(|ch| ch.status().clone())
    }

    /// Receive from the previous board on the ring.
    pub async fn ring_recv(&self) -> Vec<u32> {
        let ch = self
            .state
            .borrow()
            .ring_prev
            .clone()
            .expect("ring not wired");
        ch.recv(&self.h).await
    }
}

/// Node side of a snapshot: stream a payload up the system thread with a
/// `[mode, len]` header (`mode` is [`PAYLOAD_FULL`] or [`PAYLOAD_DELTA`]).
///
/// The stream is crash-aware: a node whose control processor dies
/// mid-snapshot stops feeding its DMA program, the board's receive parks,
/// and the whole snapshot goes non-quiescent — which the machine layer
/// turns into a torn-checkpoint abort.
pub async fn send_payload(ctx: &NodeCtx, mode: u32, payload: &[u32]) {
    // A crash downs the node's system link, failing the send even while
    // it is parked in the rendezvous — the sender then parks for good.
    if ctx
        .try_send_system(vec![mode, payload.len() as u32])
        .await
        .is_err()
    {
        std::future::pending::<()>().await;
    }
    for chunk in payload.chunks(CHUNK_WORDS) {
        if ctx.try_send_system(chunk.to_vec()).await.is_err() {
            std::future::pending::<()>().await;
        }
    }
    // End-of-stream token (see `SystemBoard::receive_payload`): the board
    // only takes it after the last chunk's transfer, so a crash at any
    // point of the stream fails this send and the snapshot goes
    // non-quiescent.
    if ctx.try_send_system(vec![EOF_WORD]).await.is_err() {
        std::future::pending::<()>().await;
    }
}

/// Node side of a restore: receive a full image from the system thread.
pub async fn recv_image(ctx: &NodeCtx) -> Vec<u32> {
    let header = ctx.recv_system().await;
    debug_assert_eq!(header[0], PAYLOAD_FULL, "restores stream full images");
    let total = header[1] as usize;
    let mut image = Vec::with_capacity(total);
    while image.len() < total {
        let chunk = ctx.recv_system().await;
        image.extend_from_slice(&chunk);
    }
    image
}

/// The machine-wide atomic commit of a snapshot (two token passes around
/// the system ring):
///
/// 1. **prepare** — board 0 circulates `[epoch, PREPARE]`; a completed lap
///    proves every module finished staging and every ring link is alive;
/// 2. **commit** — board 0 circulates `[epoch, COMMIT]`; each board writes
///    a [`COMMIT_RECORD_BYTES`] commit record to its disk as the token
///    passes, flipping its staged version to committed.
///
/// A single-module machine commits locally: just the commit record write.
/// If any board or ring link is dead the token never completes its lap,
/// the simulation goes non-quiescent, and the caller aborts the snapshot —
/// the previous committed version is untouched.
pub async fn ring_commit(boards: &[SystemBoard], epoch: u64) {
    const PREPARE: u32 = 0x5052_4550; // "PREP"
    const COMMIT: u32 = 0x434f_4d54; // "COMT"
    let m = boards.len();
    if m <= 1 {
        let b = &boards[0];
        b.disk.write(&b.h, COMMIT_RECORD_BYTES).await;
        return;
    }
    let procs = boards.iter().enumerate().map(|(i, board)| {
        let b = board.clone();
        async move {
            if i == 0 {
                b.ring_send(vec![epoch as u32, PREPARE]).await;
                b.ring_recv().await;
                b.ring_send(vec![epoch as u32, COMMIT]).await;
                b.ring_recv().await;
                b.disk.write(&b.h, COMMIT_RECORD_BYTES).await;
            } else {
                let prep = b.ring_recv().await;
                b.ring_send(prep).await;
                let commit = b.ring_recv().await;
                b.disk.write(&b.h, COMMIT_RECORD_BYTES).await;
                b.ring_send(commit).await;
            }
        }
    });
    occam::par_all(&boards[0].h, procs.collect()).await;
}

/// Result of one node's power-on self-test during [`boot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SelfTest {
    /// Node id.
    pub node: u32,
    /// Words of memory exercised.
    pub words_tested: usize,
    /// Did the pattern test pass?
    pub ok: bool,
    /// Control-processor instructions the test executed.
    pub cp_instructions: u64,
}

/// Simulated machine boot (§III's management functions):
///
/// 1. every node runs a **memory self-test** on its control processor —
///    real `ts-cp` machine code (a `memset` sweep then a checked read-back
///    loop) against the node's real memory, so a node with an injected
///    fault genuinely fails;
/// 2. the boot image is **distributed around the system ring** from board
///    0 (store-and-forward, as E14 measures);
/// 3. each node reports its self-test verdict up the system thread, and
///    the boards gather the reports.
///
/// Returns the per-node reports in node order. Call from the host, then
/// `machine.run()`.
pub fn boot(machine: &mut crate::Machine, image_words: usize) -> Vec<SelfTest> {
    let h = machine.handle();
    // Phase 1+3 per node: self-test, then report.
    let mut handles = Vec::new();
    for node in &machine.nodes {
        let ctx = node.ctx();
        // Test a 256-word region at word 1200; code lives at byte 2400
        // (word 600) and the workspace in on-chip RAM — all inside even the
        // smallest test geometry (8 rows = 2048 words).
        let words = 256
            .min(node.mem().cfg().words().saturating_sub(1456))
            .max(64);
        handles.push(h.spawn(async move {
            let set = ts_cp::programs::memset(1200, 0x5A5A, words as u32);
            let cp1 = ctx
                .run_cp_program(&ts_cp::assemble(&set).unwrap(), 2400, 256)
                .await;
            let sum = ts_cp::programs::sum_words(1200, words as u32);
            let cp2 = ctx
                .run_cp_program(&ts_cp::assemble(&sum).unwrap(), 2400, 256)
                .await;
            let (instr, ok) = match (cp1, cp2) {
                (Ok(a), Ok(b)) => {
                    let got = ctx.mem().read_word(256 + 3).unwrap_or(0);
                    let want = 0x5A5Au32.wrapping_mul(words as u32);
                    (a.instructions + b.instructions, got == want)
                }
                _ => (0, false),
            };
            let verdict = SelfTest {
                node: ctx.id(),
                words_tested: words,
                ok,
                cp_instructions: instr,
            };
            // Report up the system thread: [node, ok, words].
            ctx.send_system(vec![verdict.node, verdict.ok as u32, words as u32])
                .await;
            verdict
        }));
    }
    // Boards gather their nodes' reports.
    for (m, board) in machine.boards.iter().enumerate() {
        let board = board.clone();
        let count = machine.module_nodes(m).len();
        h.spawn(async move {
            let mut seen = 0;
            while seen < count {
                board.collect_report().await;
                seen += 1;
            }
        });
    }
    // Phase 2: the boot image circulates the ring.
    {
        let boards = machine.boards.clone();
        h.spawn(async move {
            ring_distribute(&boards, vec![0u32; image_words]).await;
        });
    }
    let report = machine.run();
    assert!(report.quiescent, "boot did not complete");
    let mut verdicts: Vec<SelfTest> = handles
        .into_iter()
        .map(|jh| jh.try_take().expect("self-test incomplete"))
        .collect();
    verdicts.sort_by_key(|v| v.node);
    verdicts
}

impl SystemBoard {
    /// Receive one short report message from any of this module's nodes.
    pub async fn collect_report(&self) -> Vec<u32> {
        // Reports are small; take them from the node channels via ALT.
        let chans: Vec<LinkChannel> = self.state.borrow().from_node.clone();
        let refs: Vec<&LinkChannel> = chans.iter().collect();
        let (_idx, words) = ts_link::AltSet::new(&refs).recv(&self.h).await;
        words
    }
}

/// Distribute `payload` from board 0 around the system ring, store-and-
/// forward (program loading, experiment E14). Returns per-board completion
/// order implicitly via the simulation clock; call from a host task.
pub async fn ring_distribute(boards: &[SystemBoard], payload: Vec<u32>) {
    let m = boards.len();
    if m <= 1 {
        return;
    }
    // Board 0 originates; each other board forwards until the last.
    let payload = Rc::new(payload);
    let procs = boards.iter().enumerate().map(|(i, board)| {
        let (b, p) = (board.clone(), payload.clone());
        let is_last = board.module as usize == m - 1;
        async move {
            if i == 0 {
                for chunk in p.chunks(CHUNK_WORDS) {
                    b.ring_send(chunk.to_vec()).await;
                }
                return;
            }
            let mut got = 0;
            while got < p.len() {
                let chunk = b.ring_recv().await;
                got += chunk.len();
                if !is_last {
                    b.ring_send(chunk).await;
                }
            }
        }
    });
    occam::par_all(&boards[0].h, procs.collect()).await;
}

#[cfg(test)]
mod tests {
    use crate::{Machine, MachineCfg};

    #[test]
    fn boot_self_tests_pass_on_a_healthy_machine() {
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 8));
        let verdicts = super::boot(&mut m, 1024);
        assert_eq!(verdicts.len(), 8);
        for v in &verdicts {
            assert!(v.ok, "node {} failed its self-test", v.node);
            assert!(v.cp_instructions > 0);
            assert!(v.words_tested > 0);
        }
        // Boot costs real time: ring + self-tests.
        assert!(m.now().as_secs_f64() > 0.0);

        // Both self-test programs are charged in full: a node's CP time is
        // what the two cost when each runs alone on a fresh node.
        let alone = |source: String| {
            let mut fresh = Machine::build(MachineCfg::cube_small_mem(0, 8));
            let ctx = fresh.ctx(0);
            fresh.launch_on(0, async move {
                let code = ts_cp::assemble(&source).unwrap();
                ctx.run_cp_program(&code, 2400, 256).await.unwrap();
            });
            assert!(fresh.run().quiescent);
            fresh.nodes[0].meters().cp_busy.get()
        };
        let words = verdicts[0].words_tested as u32;
        let both = alone(ts_cp::programs::memset(1200, 0x5A5A, words))
            + alone(ts_cp::programs::sum_words(1200, words));
        assert_eq!(m.nodes[0].meters().cp_busy.get(), both);
    }

    #[test]
    fn boot_reports_failures_from_unreachable_memory() {
        // A machine whose nodes cannot back the self-test region (memory
        // truncated below the test window): every node's verdict must come
        // back failed — the failure path flows through the CP bus error,
        // the report message, and the board collection.
        let mut m = Machine::build(MachineCfg::cube_small_mem(3, 4));
        let verdicts = super::boot(&mut m, 256);
        assert_eq!(verdicts.len(), 8);
        assert!(verdicts.iter().all(|v| !v.ok), "{verdicts:?}");
    }
}
