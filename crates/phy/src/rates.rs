//! The bitrate menu: modulation × code rate combinations.
//!
//! Mirrors the 802.11a/g OFDM rate set. On the paper's 10 MHz USRP2
//! channel every rate is exactly half its 20 MHz value (the symbol clock
//! halves), so "18 Mb/s" in the paper's overhead math corresponds to the
//! 36 Mb/s geometry.

use crate::modulation::Modulation;
use crate::params::{OfdmConfig, NUM_DATA_SUBCARRIERS};
use crate::puncture::CodeRate;

/// One entry of the bitrate menu.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mcs {
    /// Constellation used on every data subcarrier.
    pub modulation: Modulation,
    /// Convolutional code rate.
    pub code_rate: CodeRate,
}

impl Mcs {
    /// Coded bits per OFDM symbol (`N_CBPS`).
    pub(crate) fn coded_bits_per_symbol(&self) -> usize {
        NUM_DATA_SUBCARRIERS * self.modulation.bits_per_symbol()
    }

    /// Information (data) bits per OFDM symbol (`N_DBPS`).
    pub fn data_bits_per_symbol(&self) -> usize {
        self.coded_bits_per_symbol() * self.code_rate.num() / self.code_rate.den()
    }

    /// Bitrate in bits/second for the given OFDM configuration.
    pub(crate) fn bitrate_bps(&self, cfg: &OfdmConfig) -> f64 {
        self.data_bits_per_symbol() as f64 / cfg.symbol_duration()
    }

    /// Bitrate in Mb/s for the given OFDM configuration.
    pub fn bitrate_mbps(&self, cfg: &OfdmConfig) -> f64 {
        self.bitrate_bps(cfg) / 1e6
    }
}

impl std::fmt::Display for Mcs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} r{}", self.modulation, self.code_rate)
    }
}

/// The eight-rate 802.11a/g menu, ordered from most to least robust.
pub const RATE_TABLE: [Mcs; 8] = [
    Mcs {
        modulation: Modulation::Bpsk,
        code_rate: CodeRate::R12,
    },
    Mcs {
        modulation: Modulation::Bpsk,
        code_rate: CodeRate::R34,
    },
    Mcs {
        modulation: Modulation::Qpsk,
        code_rate: CodeRate::R12,
    },
    Mcs {
        modulation: Modulation::Qpsk,
        code_rate: CodeRate::R34,
    },
    Mcs {
        modulation: Modulation::Qam16,
        code_rate: CodeRate::R12,
    },
    Mcs {
        modulation: Modulation::Qam16,
        code_rate: CodeRate::R34,
    },
    Mcs {
        modulation: Modulation::Qam64,
        code_rate: CodeRate::R23,
    },
    Mcs {
        modulation: Modulation::Qam64,
        code_rate: CodeRate::R34,
    },
];

/// Index into [`RATE_TABLE`] (0 = most robust, 7 = fastest).
pub type RateIndex = usize;

/// The most robust rate, used for headers and handshake frames so that any
/// contender can decode them.
pub const BASE_RATE: Mcs = RATE_TABLE[0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_table_is_monotonic() {
        let cfg = OfdmConfig::usrp2();
        let mut last = 0.0;
        for mcs in RATE_TABLE {
            let r = mcs.bitrate_mbps(&cfg);
            assert!(r > last, "{mcs}: {r} not faster than {last}");
            last = r;
        }
    }

    /// The standard 802.11 20 MHz profile.
    const WIFI20: OfdmConfig = OfdmConfig {
        bandwidth_hz: 20e6,
        ..OfdmConfig::usrp2()
    };

    #[test]
    fn rates_match_80211a_at_20mhz() {
        // At 20 MHz with 4 µs symbols the menu is the canonical
        // 6/9/12/18/24/36/48/54 Mb/s.
        let cfg = WIFI20;
        let expect = [6.0, 9.0, 12.0, 18.0, 24.0, 36.0, 48.0, 54.0];
        for (mcs, e) in RATE_TABLE.iter().zip(expect) {
            assert!(
                (mcs.bitrate_mbps(&cfg) - e).abs() < 1e-9,
                "{mcs}: got {} expected {e}",
                mcs.bitrate_mbps(&cfg)
            );
        }
    }

    #[test]
    fn rates_halve_at_10mhz() {
        let c20 = WIFI20;
        let c10 = OfdmConfig::usrp2();
        for mcs in RATE_TABLE {
            assert!((mcs.bitrate_mbps(&c10) * 2.0 - mcs.bitrate_mbps(&c20)).abs() < 1e-9);
        }
    }

    #[test]
    fn data_bits_per_symbol_known_values() {
        assert_eq!(RATE_TABLE[0].data_bits_per_symbol(), 24); // BPSK 1/2
        assert_eq!(RATE_TABLE[4].data_bits_per_symbol(), 96); // 16QAM 1/2
        assert_eq!(RATE_TABLE[7].data_bits_per_symbol(), 216); // 64QAM 3/4
    }

    #[test]
    fn coded_bits_are_multiple_of_16() {
        // Interleaver precondition.
        for mcs in RATE_TABLE {
            assert_eq!(mcs.coded_bits_per_symbol() % 16, 0);
        }
    }
}
