//! Failable state: the shared health flag of one physical link and the
//! error its failable operations resolve to.

use std::cell::RefCell;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Error returned by the failable sublink operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkError {
    /// The physical link (or its partner node) is down: the operation was
    /// refused or aborted without transferring any data.
    Down,
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Down => write!(f, "link down"),
        }
    }
}

impl std::error::Error for LinkError {}

struct StatusInner {
    up: bool,
    /// Set when the transport layer exhausted its retransmit budget: the
    /// hardware is declared broken and [`LinkStatus::set_up`] no longer
    /// revives it (a flap repair must not resurrect a condemned cable).
    condemned: bool,
    watchers: Vec<Waker>,
    /// Bumped each time `watchers` is drained, so a [`DownWatch`] can tell
    /// whether the waker it parked is still in the list.
    epoch: u64,
}

/// Shared health flag of one **physical link**. Both direction channels of a
/// node pair — and every clone of them — hold the same status, so a single
/// [`LinkStatus::set_down`] fails traffic in both directions at once.
#[derive(Clone)]
pub struct LinkStatus {
    inner: Rc<RefCell<StatusInner>>,
}

impl Default for LinkStatus {
    fn default() -> Self {
        Self::new()
    }
}

impl LinkStatus {
    /// A fresh, healthy link.
    pub fn new() -> LinkStatus {
        LinkStatus {
            inner: Rc::new(RefCell::new(StatusInner {
                up: true,
                condemned: false,
                watchers: Vec::new(),
                epoch: 0,
            })),
        }
    }

    /// True while the link is alive.
    pub fn is_up(&self) -> bool {
        self.inner.borrow().up
    }

    /// Mark the link dead, waking every operation parked on it so it can
    /// resolve to [`LinkError::Down`] instead of hanging forever.
    pub fn set_down(&self) {
        self.fail(false);
    }

    /// Restore the link (a repaired machine reuses its fabric). A no-op on
    /// a condemned link: hardware the transport layer gave up on stays
    /// down until the whole fabric is rebuilt.
    pub fn set_up(&self) {
        let mut st = self.inner.borrow_mut();
        if !st.condemned {
            st.up = true;
        }
    }

    /// Permanently fail the link: down now, and immune to
    /// [`LinkStatus::set_up`]. Used by the transport layer when a
    /// transfer exhausts its retransmit budget.
    pub fn condemn(&self) {
        self.fail(true);
    }

    /// Take the link down (for good when `condemn`) and wake its watchers
    /// once the borrow is released.
    fn fail(&self, condemn: bool) {
        let watchers = {
            let mut st = self.inner.borrow_mut();
            st.up = false;
            st.condemned |= condemn;
            st.epoch += 1;
            std::mem::take(&mut st.watchers)
        };
        for w in watchers {
            w.wake();
        }
    }

    /// True once the link has been condemned by budget exhaustion.
    pub fn is_condemned(&self) -> bool {
        self.inner.borrow().condemned
    }

    /// A future that resolves once the link goes down (immediately if it
    /// already is). Race it against a channel operation with
    /// [`ts_sim::select2`].
    pub fn watch_down(&self) -> DownWatch {
        DownWatch {
            status: self.clone(),
            parked: None,
        }
    }
}

/// Future returned by [`LinkStatus::watch_down`]. It may be polled again
/// after a race it lost (by `&mut`): a daemon keeps one watch for its
/// lifetime, and the watch parks one waker per outage, not one per poll.
pub struct DownWatch {
    status: LinkStatus,
    /// `(epoch, index)` of this watch's waker in the status's list.
    parked: Option<(u64, usize)>,
}

impl DownWatch {
    /// True while the watched link is alive.
    pub fn is_up(&self) -> bool {
        self.status.is_up()
    }
}

impl Future for DownWatch {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut st = this.status.inner.borrow_mut();
        if !st.up {
            return Poll::Ready(());
        }
        match this.parked {
            // The list is only appended to within an epoch, so the index
            // still names this watch's waker.
            Some((epoch, at)) if epoch == st.epoch => {
                if !st.watchers[at].will_wake(cx.waker()) {
                    st.watchers[at] = cx.waker().clone();
                }
            }
            _ => {
                this.parked = Some((st.epoch, st.watchers.len()));
                st.watchers.push(cx.waker().clone());
            }
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ts_sim::Sim;

    // --- flap ordering (the LinkFlap fault path) ---------------------------

    #[test]
    fn down_up_down_wakes_each_rounds_waiters_exactly_once() {
        let mut sim = Sim::new();
        let status = LinkStatus::new();
        let s1 = status.clone();
        let first = sim.spawn(async move {
            s1.watch_down().await;
            1u32
        });
        sim.run();
        assert_eq!(first.try_take(), None, "no fault yet: waiter parked");
        status.set_down();
        sim.run();
        assert_eq!(
            first.try_take(),
            Some(1),
            "first flap wakes the first waiter"
        );

        status.set_up();
        assert!(status.is_up());
        let s2 = status.clone();
        let second = sim.spawn(async move {
            s2.watch_down().await;
            2u32
        });
        sim.run();
        assert_eq!(second.try_take(), None, "healed link: new waiter parks");
        status.set_down();
        sim.run();
        assert_eq!(
            second.try_take(),
            Some(2),
            "second flap wakes only the new waiter"
        );
    }

    #[test]
    fn a_heal_racing_the_wake_reparks_the_watcher() {
        // down → up faster than the woken task can run: when it finally
        // polls, the link is healthy again, so it must re-park and resolve
        // only on the *next* down — not spuriously complete.
        let mut sim = Sim::new();
        let status = LinkStatus::new();
        let s = status.clone();
        let jh = sim.spawn(async move {
            s.watch_down().await;
        });
        sim.run(); // parked
        status.set_down();
        status.set_up(); // heals before the waker is polled
        sim.run();
        assert_eq!(jh.try_take(), None, "watcher re-parks on a healed link");
        status.set_down();
        sim.run();
        assert_eq!(jh.try_take(), Some(()), "the next real down resolves it");
    }
}
