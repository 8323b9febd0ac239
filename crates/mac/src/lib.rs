//! # nplus-mac
//!
//! MAC substrate for the `nplus` workspace — the reproduction of *"Random
//! Access Heterogeneous MIMO Networks"* (SIGCOMM 2011).
//!
//! n+ deliberately reuses 802.11's medium-access machinery (§3.1) and
//! changes only what it senses (projected signals) and what headers carry
//! (bitrate + alignment space). This crate provides that shared machinery,
//! protocol-agnostically:
//!
//! * [`timing`] — SIFS/DIFS/slot intervals on the medium's sample clock;
//! * [`backoff`] — DCF contention windows, countdown, and slot-accurate
//!   contention resolution;
//! * [`frames`] — the light-weight handshake headers (§3.5): data header
//!   as RTS, ACK header as CTS with bitrate + alignment space;
//! * [`fragment`] — fragmentation/aggregation so joiners end exactly with
//!   the first contention winner;
//! * [`retransmit`] — unacked-packet bookkeeping (§4).
//!
//! The n+ node state machine itself, and the 802.11n / beamforming
//! baselines, live in the `nplus` core crate which composes this substrate
//! with the precoder and the medium.

#![forbid(unsafe_code)]

pub mod backoff;
pub mod fragment;
pub mod frames;
pub mod retransmit;
pub mod timing;

pub use backoff::{resolve_contention_in, Backoff, ContentionOutcome};
pub use fragment::{pack_for_budget, Mpdu, QueuedPacket, Reassembler, MPDU_OVERHEAD_BYTES};
pub use frames::{AckHeader, Addr, DataHeader, FrameError, ReceiverEntry};
pub use retransmit::RetransmitQueue;
pub use timing::SampleTiming;
