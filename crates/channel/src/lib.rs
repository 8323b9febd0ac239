//! # nplus-channel
//!
//! Wireless channel substrate for the `nplus` workspace — the reproduction
//! of *"Random Access Heterogeneous MIMO Networks"* (SIGCOMM 2011).
//!
//! The paper evaluates on a USRP2 testbed (Fig. 10) with LOS and NLOS
//! links; this crate simulates that physical layer-below-the-PHY:
//!
//! * [`placement`] — the floor-plan geometry and random node placement
//!   methodology of the paper's experiments;
//! * [`environment`] — the closed set of propagation worlds, each an
//!   [`Environment`] value: the paper's indoor testbed as the pinned
//!   default plus outdoor, rich-scatter, degraded-hardware and
//!   multi-cell city environments, resolvable by name;
//! * [`pathloss`] — log-distance large-scale loss calibrated to the
//!   paper's 5–35 dB link-SNR operating range;
//! * [`fading`] — Rayleigh/Rician tapped-delay-line multipath, consistent
//!   between the time domain (medium) and frequency domain (precoder);
//! * [`mimo`] — per-link MIMO channels with exact electromagnetic
//!   reciprocity;
//! * [`freq_table`] — precomputed per-subcarrier frequency responses
//!   (bitwise-identical to on-the-fly evaluation, computed once);
//! * [`impairments`] — the hardware error model (estimation noise,
//!   calibration residual, transmit EVM) that bounds nulling/alignment
//!   depth to the paper's measured 25–27 dB;
//! * [`cfo`] — carrier-frequency-offset application, estimation, and the
//!   pre-compensation joiners perform;
//! * [`noise`] — calibrated complex AWGN.

#![forbid(unsafe_code)]

pub mod cfo;
pub mod environment;
pub mod fading;
pub mod freq_table;
pub mod impairments;
pub mod mimo;
pub mod noise;
pub mod pathloss;
pub mod placement;

pub use cfo::apply_cfo;
pub use environment::{
    environment_from_name, Environment, EnvironmentError, Map, OscillatorDraw,
    BUILTIN_ENVIRONMENT_NAMES, SIGCOMM11_INDOOR,
};
pub use fading::{DelayProfile, FadingChannel};
pub use freq_table::FreqResponseTable;
pub use impairments::HardwareProfile;
pub use mimo::MimoLink;
pub use noise::{add_noise, noise_sample, snr_db};
pub use pathloss::{LinkBudget, PathLossModel};
pub use placement::{Location, Point, Testbed};
