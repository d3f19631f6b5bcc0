//! One direction of one physical link: the bandwidth server every sublink
//! multiplexed onto the link contends for.

use std::cell::Cell;
use std::rc::Rc;

use ts_sim::{Dur, ResourceCore, Time};

use crate::LinkParams;

/// One direction of one physical serial link: a FIFO bandwidth server with
/// utilization accounting. The four sublinks multiplexed onto the link all
/// reserve capacity here. A handle: every clone names the same engine.
#[derive(Clone)]
pub struct Wire(Rc<Engine>);

/// A link engine's state in one allocation: the FIFO server, the framing
/// and the byte tally a transfer books together.
struct Engine {
    resource: ResourceCore,
    params: LinkParams,
    /// Payload bytes carried.
    bytes: Cell<u64>,
}

impl Wire {
    /// Create an idle wire.
    pub fn new(name: &'static str, params: LinkParams) -> Wire {
        Wire(Rc::new(Engine {
            resource: ResourceCore::new(name),
            params,
            bytes: Cell::new(0),
        }))
    }

    /// Framing parameters.
    pub fn params(&self) -> LinkParams {
        self.0.params
    }

    /// Account a `bytes`-byte transfer (or retransmission) in the per-wire
    /// tally. Called by every reservation path, since each grants its slot
    /// on [`Wire::resource`] directly.
    pub(crate) fn book(&self, bytes: usize) {
        self.0.bytes.set(self.0.bytes.get() + bytes as u64);
    }

    /// Payload bytes this wire has carried.
    pub fn bytes_carried(&self) -> u64 {
        self.0.bytes.get()
    }

    /// Total time the wire has carried data.
    pub fn busy_total(&self) -> Dur {
        self.0.resource.busy_total()
    }

    /// The underlying FIFO server (for joint reservations).
    pub fn resource(&self) -> &ResourceCore {
        &self.0.resource
    }
}

/// Occupy both link engines of a sublink for a `bytes`-byte transfer
/// starting no earlier than `now`: the joint `(start, end)` slot begins
/// when both are free. A sublink whose two ends share one wire books it
/// once.
pub(crate) fn reserve_both(tx: &Wire, rx: &Wire, now: Time, bytes: usize) -> (Time, Time) {
    tx.book(bytes);
    if !Rc::ptr_eq(&tx.0, &rx.0) {
        rx.book(bytes);
    }
    let dur = rx.0.params.wire_time(bytes);
    ResourceCore::reserve_pair(&tx.0.resource, &rx.0.resource, now, dur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkChannel;
    use ts_sim::Sim;

    #[test]
    fn wire_tallies_bytes() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let wire = Wire::new("w", LinkParams::default());
        let ch = LinkChannel::new(wire.clone());
        let (tx, rx) = (ch.clone(), ch);
        let h2 = h.clone();
        sim.spawn(async move { tx.send(&h2, vec![0; 8]).await });
        sim.spawn(async move {
            rx.recv(&h).await;
        });
        assert!(sim.run().quiescent);
        assert_eq!(wire.bytes_carried(), 32);
    }
}
