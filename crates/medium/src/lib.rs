//! # nplus-medium
//!
//! Sample-level wireless medium simulator for the `nplus` workspace — the
//! reproduction of *"Random Access Heterogeneous MIMO Networks"*
//! (SIGCOMM 2011).
//!
//! The paper's prototype runs on USRP2 software radios; this crate is the
//! substitute for the radios and the air: nodes attach with antenna counts
//! and oscillator offsets, pairwise MIMO channels are installed (always
//! reciprocal), transmissions are scheduled at absolute sample times, and
//! any node can capture what its antennas observe — the superposition of
//! all concurrent transmissions convolved through their channels, rotated
//! by CFO, plus calibrated receiver noise.
//!
//! Everything is deterministic under a seed, so every figure the bench
//! harness regenerates is reproducible.

#![forbid(unsafe_code)]

pub mod chancache;
pub mod medium;
pub mod node;
pub mod topology;

pub use chancache::ChannelCache;
pub use medium::{Medium, Transmission};
pub use node::{NodeId, NodeInfo};
pub use topology::{build_environment_topology, Topology};
