//! One direction of one physical link: the bandwidth server every sublink
//! multiplexed onto the link contends for.

use std::rc::Rc;

use ts_sim::{Dur, ResourceCore, Time};

use crate::LinkParams;

/// One direction of one physical serial link: a FIFO bandwidth server with
/// utilization accounting. The four sublinks multiplexed onto the link all
/// reserve capacity here. A handle: every clone names the same engine.
#[derive(Clone)]
pub struct Wire(Rc<Engine>);

/// A link engine's state in one allocation: the FIFO server and the
/// framing that prices a transfer.
struct Engine {
    resource: ResourceCore,
    params: LinkParams,
}

impl Wire {
    /// Create an idle wire.
    pub fn new(name: &'static str, params: LinkParams) -> Wire {
        Wire(Rc::new(Engine {
            resource: ResourceCore::new(name),
            params,
        }))
    }

    /// Framing parameters.
    pub fn params(&self) -> LinkParams {
        self.0.params
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
    let dur = rx.0.params.wire_time(bytes);
    ResourceCore::reserve_pair(&tx.0.resource, &rx.0.resource, now, dur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinkChannel;
    use ts_sim::Sim;

    #[test]
    fn a_transfer_holds_the_wire_for_its_framed_bytes() {
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
        // 32 payload bytes at 2 µs each.
        assert_eq!(wire.busy_total(), Dur::us(64));
    }
}
