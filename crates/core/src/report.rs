//! Backend-independent utilization reporting.
//!
//! [`ReportData`] is a plain-data capture of everything
//! `Machine::utilization_report` prints: per-node rows, per-node histogram
//! snapshots, the machine-wide counters, and per-board disk/ring tallies.
//! One capture function reads them from `(now, registry, nodes, boards)`:
//! the sequential machine calls it once over everything, the parallel
//! backend once per shard (plain `Send` data, so it crosses the thread
//! boundary) and concatenates the partials in shard order. Both then render
//! through the same code path, so a parallel run's report is byte-identical
//! to the sequential run's — including the floating-point reductions, which
//! are re-run in node/board order rather than pre-merged per shard.
//!
//! The counters keep the flat `unit.metric` keys reports have always used;
//! `COUNTER_KEYS` is the one table that says where in the registry each
//! key's count lives.

use ts_node::{ColdMeters, Node, NodeMeters};
use ts_sim::{mflops, Counter, Dur, HistSnapshot, MetricsRegistry, Time};

use crate::system::SystemBoard;
use crate::NODE_PEAK_MFLOPS;

/// Where a report key's count lives.
#[derive(Clone, Copy)]
pub(crate) enum Source {
    /// Summed over the nodes: a meter every node pre-registers.
    Hot(fn(&NodeMeters) -> &Counter),
    /// Summed over the nodes that booked any: a cold counter, registered on
    /// a node's first fault or retry.
    Cold(fn(&ColdMeters) -> &Counter),
    /// One machine-level counter at exactly this registry path.
    Machine(&'static str),
}

impl Source {
    fn read(self, registry: &MetricsRegistry, nodes: &[Node]) -> u64 {
        let meters = nodes.iter().map(|n| n.meters());
        match self {
            Source::Hot(meter) => meters.map(|m| meter(m).get()).sum(),
            Source::Cold(meter) => meters
                .filter_map(|m| m.cold_booked())
                .map(|c| meter(c).get())
                .sum(),
            Source::Machine(path) => registry.get_counter(path).unwrap_or(0),
        }
    }
}

/// Every key of [`ReportData::counters`] and its source, sorted by key:
/// what [`ReportData::render`] prints plus what the benchmark's census
/// reads. [`ReportData::capture`] fills the counters in this order, so a
/// key absent here reads as zero everywhere. Each key is its registry path
/// with `/` for `.`, below `node/{id}/` or `machine/`.
#[rustfmt::skip]
pub(crate) const COUNTER_KEYS: &[(&str, Source)] = {
    use Source::{Cold, Hot, Machine};
    &[
        ("ckpt.bytes_full_equiv", Machine("machine/ckpt/bytes_full_equiv")),
        ("ckpt.bytes_streamed", Machine("machine/ckpt/bytes_streamed")),
        ("ckpt.delta", Machine("machine/ckpt/delta")),
        ("ckpt.full", Machine("machine/ckpt/full")),
        ("ckpt.torn_aborts", Machine("machine/ckpt/torn_aborts")),
        ("collective.deadline_expired", Cold(|c| &c.collective_deadline_expired)),
        ("collective.retries", Cold(|c| &c.collective_retries)),
        ("fault.flit_drop", Cold(|c| &c.fault_flit_drop)),
        ("fault.link_down", Cold(|c| &c.fault_link_down)),
        ("fault.link_flap", Cold(|c| &c.fault_link_flap)),
        ("fault.mem_flip", Cold(|c| &c.fault_mem_flip)),
        ("fault.node_crash", Cold(|c| &c.fault_node_crash)),
        ("fault.scrubbed_words", Cold(|c| &c.fault_scrubbed_words)),
        ("fault.wire_corrupt", Cold(|c| &c.fault_wire_corrupt)),
        ("link.crc_errors", Hot(|m| &m.link_crc_errors)),
        ("link.escalations", Hot(|m| &m.link_escalations)),
        ("link.retransmits", Hot(|m| &m.link_retransmits)),
        ("link.words_sent", Hot(|m| &m.link_words_sent)),
        ("mem.rows_moved", Hot(|m| &m.rows_moved)),
        ("router.dropped", Cold(|c| &c.router_dropped)),
        ("router.reroutes", Cold(|c| &c.router_reroutes)),
        ("router.retries", Cold(|c| &c.router_retries)),
        ("supervisor.reboots", Machine("machine/supervisor/reboots")),
        ("supervisor.snapshots", Machine("machine/supervisor/snapshots")),
    ]
};

/// One row of the per-node utilization table.
#[derive(Clone, Copy, Debug)]
pub struct NodeRow {
    /// Node id.
    pub id: u32,
    /// Vector-unit busy time, picoseconds.
    pub vec_busy_ps: u64,
    /// Control-processor busy time, picoseconds.
    pub cp_busy_ps: u64,
    /// Floating-point operations retired.
    pub vec_flops: u64,
    /// Link bytes sent (`link.bytes_sent`).
    pub sent_b: u64,
    /// Link bytes received (`link.bytes_recv`).
    pub recv_b: u64,
}

/// Everything the utilization report prints, as plain `Send` data.
#[derive(Clone, Debug, Default)]
pub struct ReportData {
    /// Final virtual time, picoseconds.
    pub now_ps: u64,
    /// Aggregate peak MFLOPS of the configuration.
    pub peak_mflops: f64,
    /// Per-node rows, in node order.
    pub rows: Vec<NodeRow>,
    /// Per-node vector-length histograms, in node order.
    pub vec_len: Vec<HistSnapshot>,
    /// Per-node link-latency histograms (ns), in node order.
    pub latency: Vec<HistSnapshot>,
    /// Per-node link-flap histograms (µs), in node order.
    pub flaps: Vec<HistSnapshot>,
    /// Machine-wide counters under their flat `unit.metric` keys, in key
    /// order (one entry per row of the key table, zero when never booked).
    pub counters: Vec<(&'static str, u64)>,
    /// Job time the supervisor spent on work later lost and replayed,
    /// picoseconds.
    pub rework_ps: u64,
    /// Per-board disk busy time, picoseconds, in board order.
    pub disk_busy_ps: Vec<u64>,
    /// Per-board ring bytes pushed, in board order.
    pub ring_bytes: Vec<u64>,
}

const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ReportData>();
};

impl ReportData {
    /// Capture the report of `nodes` and `boards` — a whole machine or one
    /// shard's slice of it — at `now`, reading counts from `registry`.
    pub(crate) fn capture(
        now: Time,
        registry: &MetricsRegistry,
        nodes: &[Node],
        boards: &[SystemBoard],
    ) -> ReportData {
        let n = nodes.len();
        let mut data = ReportData {
            now_ps: now.as_ps(),
            peak_mflops: n as f64 * NODE_PEAK_MFLOPS,
            rows: Vec::with_capacity(n),
            vec_len: Vec::with_capacity(n),
            latency: Vec::with_capacity(n),
            flaps: Vec::with_capacity(n),
            ..ReportData::default()
        };
        for node in nodes {
            let mt = node.meters();
            data.rows.push(NodeRow {
                id: node.id,
                vec_busy_ps: mt.vec_busy.get().as_ps(),
                cp_busy_ps: mt.cp_busy.get().as_ps(),
                vec_flops: mt.vec_flops.get(),
                sent_b: mt.link_bytes_sent.get(),
                recv_b: mt.link_bytes_recv.get(),
            });
            data.vec_len.push(mt.vec_len.snapshot());
            data.latency.push(mt.link_latency_ns.snapshot());
            data.flaps.push(mt.link_flap_us.snapshot());
        }
        data.counters = COUNTER_KEYS
            .iter()
            .map(|&(key, source)| (key, source.read(registry, nodes)))
            .collect();
        data.rework_ps = registry
            .get_busy("machine/supervisor/rework")
            .map_or(0, |d| d.as_ps());
        data.disk_busy_ps = boards.iter().map(|b| b.disk.busy_total().as_ps()).collect();
        data.ring_bytes = boards.iter().map(|b| b.ring_bytes()).collect();
        data
    }

    /// Concatenate shard partials (given in shard = ascending-node order)
    /// into one machine-wide capture. Node and board vectors concatenate;
    /// counters add key by key (every capture carries the same keys in the
    /// same order); the final time is the maximum.
    pub fn merge(parts: Vec<ReportData>) -> ReportData {
        let mut out = ReportData::default();
        for p in parts {
            out.now_ps = out.now_ps.max(p.now_ps);
            out.peak_mflops += p.peak_mflops;
            out.rows.extend(p.rows);
            out.vec_len.extend(p.vec_len);
            out.latency.extend(p.latency);
            out.flaps.extend(p.flaps);
            out.disk_busy_ps.extend(p.disk_busy_ps);
            out.ring_bytes.extend(p.ring_bytes);
            out.rework_ps += p.rework_ps;
            if out.counters.is_empty() {
                out.counters = p.counters;
            } else {
                for (mine, theirs) in out.counters.iter_mut().zip(p.counters) {
                    debug_assert_eq!(mine.0, theirs.0);
                    mine.1 += theirs.1;
                }
            }
        }
        out
    }

    /// The count booked under `key`, which must be a row of the key table
    /// (a capture that was never filled reads zero).
    fn get(&self, key: &str) -> u64 {
        debug_assert!(
            COUNTER_KEYS.binary_search_by_key(&key, |&(k, _)| k).is_ok(),
            "report key {key:?} is not in the key table"
        );
        self.counters
            .binary_search_by_key(&key, |&(k, _)| k)
            .map_or(0, |i| self.counters[i].1)
    }

    /// Achieved MFLOPS over the captured run.
    pub fn achieved_mflops(&self) -> f64 {
        let flops = self.rows.iter().map(|r| r.vec_flops).sum();
        mflops(flops, Dur::ps(self.now_ps))
    }

    /// Render the utilization report — the exact text
    /// `Machine::utilization_report` has always printed.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let total = Time(self.now_ps).as_secs_f64();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>8} {:>12} {:>12} {:>12}",
            "node", "vec%", "cp%", "flops", "sent B", "recv B"
        );
        for row in &self.rows {
            let vecb = Dur::ps(row.vec_busy_ps).as_secs_f64();
            let cpb = Dur::ps(row.cp_busy_ps).as_secs_f64();
            let pct = |b: f64| if total > 0.0 { b / total * 100.0 } else { 0.0 };
            let _ = writeln!(
                out,
                "{:>5} {:>7.1}% {:>7.1}% {:>12} {:>12} {:>12}",
                row.id,
                pct(vecb),
                pct(cpb),
                row.vec_flops,
                row.sent_b,
                row.recv_b,
            );
        }
        let _ = writeln!(
            out,
            "total: {:.3} ms simulated, {:.2} MFLOPS achieved of {:.0} peak",
            total * 1e3,
            self.achieved_mflops(),
            self.peak_mflops
        );
        // Histogram aggregation: merge the per-node distributions the hot
        // paths observed into machine-wide summaries.
        let vec_len = HistSnapshot::merge(&self.vec_len);
        if vec_len.total > 0 {
            let _ = writeln!(
                out,
                "vector ops: {} issued, mean length {:.0}, p99 length ≤ {}",
                vec_len.total,
                vec_len.mean,
                vec_len.quantile_bound(0.99),
            );
        }
        let lat = HistSnapshot::merge(&self.latency);
        if lat.total > 0 {
            let _ = writeln!(
                out,
                "link messages: {} delivered, mean latency {:.1} µs, p99 ≤ {:.1} µs",
                lat.total,
                lat.mean / 1e3,
                lat.quantile_bound(0.99) as f64 / 1e3,
            );
        }
        // Fault and recovery story, when there is one: faults injected,
        // how the fabric and collectives coped, and what the supervisor's
        // healing cost.
        let m = self;
        // Reliable-transport story: retransmissions absorbed below the
        // routing layer, and the flap outages that drove some of them.
        let retrans = m.get("link.retransmits");
        let crc = m.get("link.crc_errors");
        let escal = m.get("link.escalations");
        if retrans + crc + escal > 0 {
            let _ = writeln!(
                out,
                "transport: {retrans} flits retransmitted, {crc} CRC errors, \
                 {escal} links condemned",
            );
        }
        let flaps = HistSnapshot::merge(&self.flaps);
        if flaps.total > 0 {
            let _ = writeln!(
                out,
                "link flaps: {} outages, mean {:.0} µs, p99 ≤ {} µs",
                flaps.total,
                flaps.mean,
                flaps.quantile_bound(0.99),
            );
        }
        let faults = m.get("fault.link_down")
            + m.get("fault.node_crash")
            + m.get("fault.mem_flip")
            + m.get("fault.wire_corrupt")
            + m.get("fault.flit_drop")
            + m.get("fault.link_flap");
        let coped = m.get("router.reroutes")
            + m.get("router.retries")
            + m.get("router.dropped")
            + m.get("collective.retries")
            + m.get("collective.deadline_expired")
            + m.get("fault.scrubbed_words");
        let healed = m.get("supervisor.reboots") + m.get("supervisor.snapshots");
        if faults + coped + healed > 0 {
            let _ = writeln!(
                out,
                "faults: {} link down, {} node crash, {} mem flip; \
                 {} scrubbed words",
                m.get("fault.link_down"),
                m.get("fault.node_crash"),
                m.get("fault.mem_flip"),
                m.get("fault.scrubbed_words"),
            );
            let transient =
                m.get("fault.wire_corrupt") + m.get("fault.flit_drop") + m.get("fault.link_flap");
            if transient > 0 {
                let _ = writeln!(
                    out,
                    "transient faults: {} wire corrupt, {} flit drop, {} link flap",
                    m.get("fault.wire_corrupt"),
                    m.get("fault.flit_drop"),
                    m.get("fault.link_flap"),
                );
            }
            let _ = writeln!(
                out,
                "router: {} reroutes, {} retries, {} dropped; \
                 collectives: {} retries, {} deadline expiries",
                m.get("router.reroutes"),
                m.get("router.retries"),
                m.get("router.dropped"),
                m.get("collective.retries"),
                m.get("collective.deadline_expired"),
            );
            if healed > 0 {
                let _ = writeln!(
                    out,
                    "recovery: {} snapshots, {} reboots, {:.3} ms rework",
                    m.get("supervisor.snapshots"),
                    m.get("supervisor.reboots"),
                    Dur::ps(self.rework_ps).as_secs_f64() * 1e3,
                );
            }
        }
        // Checkpoint I/O: what the snapshot subsystem cost this run.
        let disk_busy: f64 = self
            .disk_busy_ps
            .iter()
            .map(|&ps| Dur::ps(ps).as_secs_f64())
            .sum();
        let ring_bytes: u64 = self.ring_bytes.iter().sum();
        let ckpt_full = m.get("ckpt.full");
        let ckpt_delta = m.get("ckpt.delta");
        let torn = m.get("ckpt.torn_aborts");
        if disk_busy > 0.0 || ckpt_full + ckpt_delta + torn > 0 {
            let streamed = m.get("ckpt.bytes_streamed");
            let full_equiv = m.get("ckpt.bytes_full_equiv");
            let delta_ratio = if full_equiv > 0 {
                streamed as f64 / full_equiv as f64 * 100.0
            } else {
                100.0
            };
            let _ = writeln!(
                out,
                "checkpoint I/O: {ckpt_full} full + {ckpt_delta} delta commits, \
                 {streamed} B streamed ({delta_ratio:.1}% of full), \
                 disk busy {:.3} ms, ring {ring_bytes} B, {torn} torn aborts",
                disk_busy * 1e3,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_table_is_sorted_and_covers_every_reader() {
        let keys: Vec<&str> = COUNTER_KEYS.iter().map(|&(k, _)| k).collect();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "COUNTER_KEYS must be sorted by key, without duplicates"
        );
        // What `benchmark/src/census.rs` reads by key.
        for key in [
            "collective.retries",
            "link.crc_errors",
            "link.escalations",
            "link.retransmits",
            "link.words_sent",
            "mem.rows_moved",
            "router.reroutes",
        ] {
            assert!(keys.contains(&key), "census key {key} left the table");
        }
        // What `render` reads: with every count non-zero each conditional
        // section prints, and `get` asserts its key is a table row.
        let data = ReportData {
            counters: keys.iter().map(|&k| (k, 1)).collect(),
            disk_busy_ps: vec![1],
            ..ReportData::default()
        };
        let text = data.render();
        for section in [
            "transport:",
            "faults:",
            "transient faults:",
            "router:",
            "recovery:",
            "checkpoint I/O:",
        ] {
            assert!(text.contains(section), "{section} missing from\n{text}");
        }
    }
}
