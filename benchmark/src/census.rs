//! Public counters of a finished run, sampled from outside.
//!
//! Everything here comes from `Machine::profile`, `Machine::report_data`,
//! `Machine::registry` or a `ParallelRun`: the benchmark never reaches
//! into a layer. A census can be summed over machine incarnations (the
//! recovery workload reboots) and turned into the per-layer metrics every
//! machine workload shares.

use fps_t_series::machine::parallel::ParallelRun;
use fps_t_series::machine::report::ReportData;
use fps_t_series::machine::Machine;

/// Simulated seconds one 32-bit word occupies a 0.5 MB/s wire.
const WIRE_S_PER_WORD: f64 = 8.0e-6;

/// Counters of one or more finished runs.
#[derive(Clone, Debug, Default)]
pub struct Census {
    /// Simulated picoseconds elapsed, summed over incarnations.
    pub sim_ps: u64,
    /// Node-picoseconds (nodes x elapsed), the base of the busy shares.
    pub node_ps: f64,
    /// Timer events fired.
    pub events: u64,
    /// Task polls serviced.
    pub polls: u64,
    /// High-water mark of the timer heap (max over incarnations; 0 for a
    /// sharded run, which does not report it).
    pub max_timers: u64,
    /// Floating-point operations retired.
    pub flops: u64,
    /// Vector-unit busy picoseconds, summed over nodes.
    pub vec_busy_ps: u64,
    /// Control-processor busy picoseconds, summed over nodes.
    pub cp_busy_ps: u64,
    /// Vector forms issued.
    pub vec_ops: u64,
    /// Vector elements streamed (sum of form lengths).
    pub vec_elems: f64,
    /// Link messages whose latency was booked.
    pub link_msgs: u64,
    /// Sum of booked link latencies, ns.
    pub link_latency_ns: f64,
    /// Routed messages delivered.
    pub router_msgs: u64,
    /// Sum of their hop counts.
    pub router_hops: f64,
    /// The merged flat counters (`vec.flops`, `link.words_sent`, ...).
    pub counters: Vec<(&'static str, u64)>,
}

impl Census {
    fn of_report(data: &ReportData, events: u64, polls: u64, max_timers: u64) -> Census {
        let mut c = Census {
            sim_ps: data.now_ps,
            node_ps: data.now_ps as f64 * data.rows.len() as f64,
            events,
            polls,
            max_timers,
            counters: data.counters.clone(),
            ..Census::default()
        };
        for r in &data.rows {
            c.flops += r.vec_flops;
            c.vec_busy_ps += r.vec_busy_ps;
            c.cp_busy_ps += r.cp_busy_ps;
        }
        for h in &data.vec_len {
            c.vec_ops += h.total;
            c.vec_elems += h.mean * h.total as f64;
        }
        for h in &data.latency {
            c.link_msgs += h.total;
            c.link_latency_ns += h.mean * h.total as f64;
        }
        c
    }

    /// Sample a sequential machine.
    pub fn of_machine(m: &Machine) -> Census {
        let p = m.profile();
        let mut c = Census::of_report(
            &m.report_data(),
            p.timer_events,
            p.polls,
            p.max_timers as u64,
        );
        // Router hop histograms live in the registry only.
        for node in &m.nodes {
            let h = node.meters().scope().histogram("router/hops");
            c.router_msgs += h.total();
            c.router_hops += h.mean() * h.total() as f64;
        }
        c
    }

    /// Sample a sharded run.
    pub fn of_parallel<R>(run: &ParallelRun<R>) -> Census {
        Census::of_report(&run.report, run.events, run.polls, 0)
    }

    /// Fold another incarnation in.
    pub fn add(&mut self, o: &Census) {
        self.sim_ps += o.sim_ps;
        self.node_ps += o.node_ps;
        self.events += o.events;
        self.polls += o.polls;
        self.max_timers = self.max_timers.max(o.max_timers);
        self.flops += o.flops;
        self.vec_busy_ps += o.vec_busy_ps;
        self.cp_busy_ps += o.cp_busy_ps;
        self.vec_ops += o.vec_ops;
        self.vec_elems += o.vec_elems;
        self.link_msgs += o.link_msgs;
        self.link_latency_ns += o.link_latency_ns;
        self.router_msgs += o.router_msgs;
        self.router_hops += o.router_hops;
        for &(k, v) in &o.counters {
            match self.counters.iter_mut().find(|(n, _)| *n == k) {
                Some((_, mine)) => *mine += v,
                None => self.counters.push((k, v)),
            }
        }
    }

    /// A flat counter by its legacy key (0 when never booked).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, v)| v)
    }

    /// Simulated milliseconds elapsed.
    pub fn sim_ms(&self) -> f64 {
        self.sim_ps as f64 / 1e9
    }

    /// The per-layer metrics every machine workload reports. `run_s` is the
    /// host time of the timed region and `allocs` the allocations counted
    /// in it (`None` on an untraced repetition).
    pub fn layer_metrics(&self, run_s: f64, allocs: Option<u64>) -> Vec<(&'static str, f64)> {
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let ev = self.events as f64;
        let vec_frac = per(self.vec_busy_ps as f64, self.node_ps);
        let cp_frac = per(self.cp_busy_ps as f64, self.node_ps);
        let words = self.counter("link.words_sent");
        let mut v = vec![
            ("sim.events", ev),
            ("sim.polls_per_event", per(self.polls as f64, ev)),
            ("sim.host_ns_per_event", per(run_s * 1e9, ev)),
            ("sim.max_timers", self.max_timers as f64),
            ("mem.rows_moved", self.counter("mem.rows_moved") as f64),
            ("vec.busy_frac", vec_frac),
            ("cp.busy_frac", cp_frac),
            ("node.blocked_frac", (1.0 - vec_frac - cp_frac).max(0.0)),
            ("vec.mean_len", per(self.vec_elems, self.vec_ops as f64)),
            (
                "link.wire_busy_frac",
                per(words as f64 * WIRE_S_PER_WORD * 1e12, self.node_ps),
            ),
            ("link.words_sent", words as f64),
            (
                "link.latency_ns_mean",
                per(self.link_latency_ns, self.link_msgs as f64),
            ),
            ("link.retransmits", self.counter("link.retransmits") as f64),
            ("link.crc_errors", self.counter("link.crc_errors") as f64),
            ("link.escalations", self.counter("link.escalations") as f64),
            (
                "core.router_hops_mean",
                per(self.router_hops, self.router_msgs as f64),
            ),
            (
                "core.router_reroutes",
                self.counter("router.reroutes") as f64,
            ),
            (
                "core.coll_retries",
                self.counter("collective.retries") as f64,
            ),
        ];
        if let Some(a) = allocs {
            v.push(("sim.allocs_per_event", per(a as f64, ev)));
        }
        v
    }
}
