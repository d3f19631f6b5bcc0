//! One direction of one physical link: the bandwidth server every sublink
//! multiplexed onto the link contends for.

use ts_sim::{Counter, Dur, Resource, Time};

use crate::LinkParams;

/// One direction of one physical serial link: a FIFO bandwidth server with
/// utilization accounting. The four sublinks multiplexed onto the link all
/// reserve capacity here.
#[derive(Clone)]
pub struct Wire {
    resource: Resource,
    params: LinkParams,
    /// Payload bytes carried, shared by every clone of this wire.
    bytes: Counter,
}

impl Wire {
    /// Create an idle wire.
    pub fn new(name: &'static str, params: LinkParams) -> Wire {
        Wire {
            resource: Resource::new(name),
            params,
            bytes: Counter::new(),
        }
    }

    /// Framing parameters.
    pub fn params(&self) -> LinkParams {
        self.params
    }

    /// Account a `bytes`-byte transfer (or retransmission) in the per-wire
    /// tally. Called by every reservation path, since each grants its slot
    /// on [`Wire::resource`] directly.
    pub(crate) fn book(&self, bytes: usize) {
        self.bytes.add(bytes as u64);
    }

    /// Payload bytes this wire has carried.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes.get()
    }

    /// Total time the wire has carried data.
    pub fn busy_total(&self) -> Dur {
        self.resource.busy_total()
    }

    /// The underlying FIFO server (for joint reservations).
    pub fn resource(&self) -> &Resource {
        &self.resource
    }
}

/// Occupy both link engines of a sublink for a `bytes`-byte transfer
/// starting no earlier than `now`: the joint `(start, end)` slot begins
/// when both are free. A sublink whose two ends share one wire books it
/// once.
pub(crate) fn reserve_both(tx: &Wire, rx: &Wire, now: Time, bytes: usize) -> (Time, Time) {
    tx.book(bytes);
    if !tx.resource.same_as(&rx.resource) {
        rx.book(bytes);
    }
    Resource::reserve_pair(&tx.resource, &rx.resource, now, rx.params.wire_time(bytes))
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
