//! A routed exchange through `core::router`, shared by the two workloads
//! that exercise it (and by the router's ladder rung): every node sends its
//! messages to seed-chosen destinations, every node counts what it must
//! receive, and the router is shut down once all of it has arrived.

use std::rc::Rc;

use fps_t_series::machine::router::Router;
use fps_t_series::machine::Machine;
use fps_t_series::sim::Rng;

use super::Checks;
use crate::stats::Fnv;

/// Who sends what to whom.
pub struct RoutedPlan {
    /// Per node, the destinations of its messages.
    dests: Vec<Vec<u32>>,
    /// Per node, the payload every one of its messages carries.
    payloads: Vec<Vec<u32>>,
    /// Per node, how many messages it must receive.
    inbound: Vec<usize>,
    /// Per node, the order-independent checksum of what it must receive.
    inboxes: Vec<u64>,
}

impl RoutedPlan {
    /// `per_node` messages of `words` payload words from every node, each to
    /// any other node.
    pub fn generate(rng: &mut Rng, nodes: u32, words: usize, per_node: usize) -> RoutedPlan {
        let n = nodes as u64;
        let dests: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                (0..per_node)
                    .map(|_| ((i + 1 + rng.below(n - 1)) % n) as u32)
                    .collect()
            })
            .collect();
        let payloads: Vec<Vec<u32>> = (0..n)
            .map(|_| (0..words).map(|_| rng.next_u32()).collect())
            .collect();
        let mut inbound = vec![0usize; nodes as usize];
        let mut inboxes = vec![0u64; nodes as usize];
        for (src, ds) in dests.iter().enumerate() {
            let digest = RoutedPlan::message_digest(src as u32, &payloads[src]);
            for &d in ds {
                inbound[d as usize] += 1;
                inboxes[d as usize] = inboxes[d as usize].wrapping_add(digest);
            }
        }
        RoutedPlan {
            dests,
            payloads,
            inbound,
            inboxes,
        }
    }

    fn message_digest(src: u32, words: &[u32]) -> u64 {
        let mut h = Fnv::default();
        h.u64(src as u64);
        words.iter().for_each(|&w| h.u64(w as u64));
        h.0
    }

    /// Order-independent checksum of what node `id` must receive.
    pub fn expected_inbox(&self, id: u32) -> u64 {
        self.inboxes[id as usize]
    }
}

/// Per node: whether its sends were accepted, and the checksum of its inbox.
pub type Inboxes = Vec<(bool, u64)>;

/// Start the router, run the exchange to quiescence, shut the router down.
/// `None` when the exchange never finished.
pub fn run(m: &mut Machine, plan: &Rc<RoutedPlan>) -> Option<Inboxes> {
    let router = Router::start(m);
    let nodes = m.cube.nodes();
    let mut workers = Vec::with_capacity(nodes as usize);
    for id in 0..nodes {
        let rx = router.handle(id);
        let tx = rx.clone();
        let p = plan.clone();
        let sender = m.handle().spawn(async move {
            let mut ok = true;
            for &dst in &p.dests[id as usize] {
                ok &= tx
                    .send_to(dst, p.payloads[id as usize].clone())
                    .await
                    .is_ok();
            }
            ok
        });
        let expect = plan.inbound[id as usize];
        let recvr = m.handle().spawn(async move {
            let mut sum = 0u64;
            for _ in 0..expect {
                let (src, words) = rx.recv().await;
                sum = sum.wrapping_add(RoutedPlan::message_digest(src, &words));
            }
            sum
        });
        workers.push((sender, recvr));
    }
    let closer = m.handle().spawn(async move {
        let mut inboxes = Vec::with_capacity(workers.len());
        for (s, r) in workers {
            inboxes.push((s.await, r.await));
        }
        router.shutdown().await;
        inboxes
    });
    let quiescent = m.run().quiescent;
    closer.try_take().filter(|_| quiescent)
}

/// One check per node: its sends were accepted and its inbox is what was
/// sent to it.
pub fn verify(plan: &RoutedPlan, inboxes: &Option<Inboxes>, checks: &mut Checks) {
    match inboxes {
        Some(inboxes) => {
            for (id, &(sent, got)) in inboxes.iter().enumerate() {
                checks.check(sent && got == plan.expected_inbox(id as u32), || {
                    format!("node {id}: routed inbox differs from what was sent to it")
                });
            }
        }
        None => checks.check_n(plan.dests.len() as u64, false, || {
            "routed exchange never finished".into()
        }),
    }
}
