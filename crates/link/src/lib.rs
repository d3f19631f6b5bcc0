//! # ts-link — the node's serial communication links
//!
//! §II *Communications*: each control processor drives **four serial,
//! bidirectional links**. Every 8-bit byte travels with two synchronization
//! bits and one stop bit and is answered by a two-bit acknowledge, giving a
//! maximum unidirectional bandwidth of **over 0.5 MB/s per link** and over
//! 4 MB/s for the four links together. Links transfer by **DMA with about
//! 5 µs of startup**, and each link is **multiplexed four ways** into
//! sublinks (16 per node) that divide the available bandwidth in software.
//!
//! The model works at the level the paper specifies:
//!
//! * [`LinkParams`] — line rate and framing. The default calibration is a
//!   10 Mbit/s line with 11 frame bits + 2 ack bits + 7 bit-times of
//!   ack turnaround per byte = 20 bit-times = **2.0 µs/byte**, which makes
//!   the effective rate exactly the paper's 0.5 MB/s and a 64-bit word cost
//!   exactly the 16 µs used in the paper's 1 : 13 : 130 balance ratio.
//! * [`Wire`] — one direction of one physical link: a FIFO bandwidth
//!   server. All sublinks multiplexed onto the link contend here, which is
//!   how "these sublinks divide the available bandwidth" emerges.
//! * [`LinkChannel`] — one sublink: a CSP rendezvous (the Occam channel the
//!   hardware implements) whose transfer occupies the wire for the framed
//!   duration and charges the DMA startup.
//!
//! Payloads are `Vec<u32>` memory words — the unit the DMA engine moves
//! through the word port on each side.
//!
//! One module per seam, every public item re-exported here:
//!
//! * `params` — [`LinkParams`]: line rate and framing arithmetic.
//! * `frame` — [`crc16`] and [`Flit`]: what a message looks like on the wire.
//! * `wire` — [`Wire`] and the joint two-engine reservation.
//! * `status` — [`LinkStatus`], [`LinkError`]: the failable state of a
//!   physical link.
//! * `transport` — transient impairments and go-back-N recovery, up to
//!   [`RETRANSMIT_BUDGET`] rounds before the link is condemned.
//! * `channel` — [`LinkChannel`]: `send`/`recv` and the failable `try_send`,
//!   and the [`LinkMeters`] a sublink is built with.
//! * `boundary` — [`BoundaryEnvelope`]: a sublink cut by a shard boundary
//!   (parallel backend), replayed as three plain-data legs.
//! * `alt` — [`AltSet`]: Occam `ALT` over sublinks.

#![deny(missing_docs)]

mod alt;
mod boundary;
mod channel;
mod frame;
mod params;
mod status;
mod transport;
mod wire;

pub use alt::AltSet;
pub use boundary::{BoundaryEnvelope, BoundaryLeg, BoundaryOutbox};
pub use channel::{LinkChannel, LinkMeters};
pub use frame::{crc16, Flit};
pub use params::LinkParams;
pub use status::{DownWatch, LinkError, LinkStatus};
pub use transport::RETRANSMIT_BUDGET;
pub use wire::Wire;
