//! # nplus-phy
//!
//! OFDM physical layer substrate for the `nplus` workspace — the
//! reproduction of *"Random Access Heterogeneous MIMO Networks"*
//! (SIGCOMM 2011).
//!
//! The paper's prototype (§5) builds on the GNURadio OFDM code base with
//! 802.11 modulations (BPSK, 4/16/64-QAM) and coding rates on a 10 MHz
//! USRP2 channel. This crate reimplements that PHY from scratch:
//!
//! * [`fft`] — radix-2 (I)FFT and the normalized cross-correlation kernel
//!   used by preamble-based carrier sense;
//! * `scrambler`, [`convolutional`], [`puncture`], `interleaver` — the
//!   802.11 coding chain (K=7 (133,171) code, Viterbi decoding, rates
//!   1/2, 2/3, 3/4);
//! * [`modulation`] — Gray-coded BPSK/QPSK/16-QAM/64-QAM;
//! * [`preamble`], [`chanest`] — short/long training fields, staggered
//!   MIMO sounding and per-subcarrier channel estimation;
//! * [`ofdm`] — symbol assembly and the end-to-end single-stream chain;
//! * [`esnr`] — the effective-SNR metric (Halperin et al.) and the
//!   bitrate selection table of §3.4;
//! * [`params`], [`rates`] — OFDM geometry and the 8-rate 802.11 menu.

#![forbid(unsafe_code)]

mod bits;
pub mod chanest;
pub mod convolutional;
pub mod esnr;
pub mod fft;
mod interleaver;
pub mod modulation;
pub mod ofdm;
pub mod params;
pub mod preamble;
#[cfg(test)]
mod proptests;
pub mod puncture;
pub mod rates;
mod scrambler;

pub use chanest::{estimate_from_ltf, estimate_mimo_from_preamble, ChannelEstimate};
pub use esnr::{effective_snr, effective_snr_db, select_rate, RATE_ESNR_THRESHOLDS_DB};
pub use modulation::Modulation;
pub use params::{MacTiming, OfdmConfig};
pub use puncture::CodeRate;
pub use rates::{Mcs, RateIndex, BASE_RATE, RATE_TABLE};
