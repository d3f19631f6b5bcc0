//! FIFO-served exclusive resources.
//!
//! A [`Resource`] models a piece of hardware that serves one request at a
//! time — a physical serial link shared by four sublinks, a memory port, a
//! disk. Because the executor runs tasks in virtual-time order, reservation
//! requests arrive in nondecreasing time, so first-come-first-served is
//! implemented with nothing more than a `busy_until` watermark: no queue is
//! needed, and utilization accounting falls out for free.

use std::cell::RefCell;
use std::ops::Deref;
use std::rc::Rc;

use crate::executor::SimHandle;
use crate::time::{Dur, Time};

struct ResState {
    busy_until: Time,
    busy_total: Dur,
    uses: u64,
    tracer: Option<(crate::trace::Tracer, crate::trace::TrackId)>,
}

/// The state of one exclusive, FIFO-served resource with utilization
/// accounting, held by value by whatever owns it: [`Resource`] shares one
/// through an `Rc`, and a link engine keeps its own inline beside its
/// framing parameters, so a transfer books it without a further hop.
pub struct ResourceCore {
    state: RefCell<ResState>,
    name: &'static str,
}

/// An exclusive, FIFO-served resource: a [`ResourceCore`] shared by every
/// clone, whose methods it offers.
#[derive(Clone)]
pub struct Resource(Rc<ResourceCore>);

impl Resource {
    /// Create an idle resource. The name appears in utilization reports.
    pub fn new(name: &'static str) -> Resource {
        Resource(Rc::new(ResourceCore::new(name)))
    }
}

impl Deref for Resource {
    type Target = ResourceCore;

    fn deref(&self) -> &ResourceCore {
        &self.0
    }
}

impl ResourceCore {
    /// An idle resource. The name appears in utilization reports.
    pub const fn new(name: &'static str) -> ResourceCore {
        ResourceCore {
            state: RefCell::new(ResState {
                busy_until: Time::ZERO,
                busy_total: Dur::ZERO,
                uses: 0,
                tracer: None,
            }),
            name,
        }
    }

    /// Resource name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Reserve the resource for `dur`, starting no earlier than `now`.
    /// Returns `(start, end)` of the granted slot. The caller is responsible
    /// for sleeping until `end` (or use [`ResourceCore::use_for`]).
    pub fn reserve(&self, now: Time, dur: Dur) -> (Time, Time) {
        let start = self.busy_until().max(now);
        self.apply_grant(start, start + dur, dur);
        (start, start + dur)
    }

    /// Attach a tracer: every granted slot from now on is recorded as a
    /// span on `track`. The track name is interned once here, so the grant
    /// path records a fixed-size event with no per-span allocation.
    pub fn attach_tracer(&self, tracer: crate::trace::Tracer, track: impl Into<String>) {
        let id = tracer.track(&track.into());
        self.state.borrow_mut().tracer = Some((tracer, id));
    }

    /// Reserve and hold the resource for `dur`: suspends the caller until
    /// the granted slot ends. Returns `(start, end)`.
    pub async fn use_for(&self, h: &SimHandle, dur: Dur) -> (Time, Time) {
        let (start, end) = self.reserve(h.now(), dur);
        h.sleep_until(end).await;
        (start, end)
    }

    /// Instant at which the resource next becomes free.
    pub fn busy_until(&self) -> Time {
        self.state.borrow().busy_until
    }

    /// Total time the resource has been held.
    pub fn busy_total(&self) -> Dur {
        self.state.borrow().busy_total
    }

    /// Number of grants so far.
    pub fn uses(&self) -> u64 {
        self.state.borrow().uses
    }

    /// Fraction of `[0, now]` during which the resource was held.
    pub fn utilization(&self, now: Time) -> f64 {
        if now == Time::ZERO {
            0.0
        } else {
            self.busy_total().as_secs_f64() / now.as_secs_f64()
        }
    }

    /// Are these the same underlying resource?
    pub fn same_as(&self, other: &ResourceCore) -> bool {
        std::ptr::eq(self, other)
    }

    /// Book a grant onto this resource — the one booking behind
    /// [`ResourceCore::reserve`] and each side of
    /// [`ResourceCore::reserve_pair`]. The parallel backend also calls it
    /// when the two engines of a transfer live on different shards: each
    /// side computes the joint `(start, end)` from exchanged watermarks and
    /// applies its half locally.
    pub fn apply_grant(&self, start: Time, end: Time, dur: Dur) {
        let mut st = self.state.borrow_mut();
        debug_assert!(start >= st.busy_until, "grant overlaps an earlier slot");
        st.busy_until = end;
        st.busy_total += dur;
        st.uses += 1;
        if let Some((tracer, track)) = &st.tracer {
            tracer.record_span(*track, start, end);
        }
    }

    /// Reserve **two** resources for the same `dur` slot (e.g. the sending
    /// and receiving link engines of one transfer): the slot starts when
    /// both are free. If both name one resource it is reserved once.
    pub fn reserve_pair(a: &ResourceCore, b: &ResourceCore, now: Time, dur: Dur) -> (Time, Time) {
        if a.same_as(b) {
            return a.reserve(now, dur);
        }
        let start = now.max(a.busy_until()).max(b.busy_until());
        let end = start + dur;
        a.apply_grant(start, end, dur);
        b.apply_grant(start, end, dur);
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;

    #[test]
    fn serializes_overlapping_requests() {
        let mut sim = Sim::new();
        let res = Resource::new("link");
        let h = sim.handle();
        let mut handles = Vec::new();
        for _ in 0..3 {
            let res = res.clone();
            let h = h.clone();
            handles.push(sim.spawn(async move { res.use_for(&h, Dur::us(10)).await }));
        }
        assert!(sim.run().quiescent);
        let slots: Vec<_> = handles.into_iter().map(|j| j.try_take().unwrap()).collect();
        assert_eq!(slots[0], (Time::ZERO, Time::ZERO + Dur::us(10)));
        assert_eq!(slots[1].0, Time::ZERO + Dur::us(10));
        assert_eq!(slots[2].1, Time::ZERO + Dur::us(30));
        assert_eq!(sim.now(), Time::ZERO + Dur::us(30));
    }

    #[test]
    fn idle_gap_is_not_busy() {
        let mut sim = Sim::new();
        let res = Resource::new("disk");
        let h = sim.handle();
        let r2 = res.clone();
        sim.spawn(async move {
            r2.use_for(&h, Dur::us(2)).await;
            h.sleep(Dur::us(6)).await; // idle gap
            r2.use_for(&h, Dur::us(2)).await;
        });
        sim.run();
        assert_eq!(res.busy_total(), Dur::us(4));
        assert_eq!(res.uses(), 2);
        let u = res.utilization(sim.now());
        assert!((u - 0.4).abs() < 1e-12, "{u}");
    }

    #[test]
    fn reserve_without_holding() {
        let res = Resource::new("port");
        let t0 = Time::ZERO + Dur::ns(100);
        let (s1, e1) = res.reserve(t0, Dur::ns(50));
        assert_eq!((s1, e1), (t0, t0 + Dur::ns(50)));
        // Second request at the same instant queues behind the first.
        let (s2, _) = res.reserve(t0, Dur::ns(50));
        assert_eq!(s2, e1);
    }

    /// `apply_grant`'s overlap check is the one check behind `reserve`,
    /// `reserve_pair` and the parallel backend's split grants.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "grant overlaps an earlier slot")]
    fn a_grant_inside_an_earlier_slot_panics() {
        let res = Resource::new("port");
        let t0 = Time::ZERO + Dur::ns(100);
        let (_, end) = res.reserve(t0, Dur::ns(50));
        res.apply_grant(end - Dur::ns(1), end + Dur::ns(9), Dur::ns(10));
    }
}
