//! MAC timing in sample units.
//!
//! The medium simulator runs a sample clock at the channel bandwidth, so
//! all MAC intervals (SIFS, DIFS, slots) are converted from microseconds
//! to sample counts once, here.

use nplus_phy::params::{MacTiming, OfdmConfig};

/// MAC timing converted to the medium's sample clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleTiming {
    /// Short inter-frame space, samples.
    pub sifs: u64,
    /// DCF inter-frame space, samples.
    pub difs: u64,
    /// Backoff slot, samples.
    pub slot: u64,
    /// Minimum contention window, slots.
    pub cw_min: u32,
    /// Maximum contention window, slots.
    pub cw_max: u32,
    /// Samples per OFDM symbol (with CP).
    pub symbol: u64,
}

impl SampleTiming {
    /// Converts 802.11 microsecond timing to samples at the PHY bandwidth.
    ///
    /// DIFS is derived from the already-rounded SIFS and slot so the
    /// 802.11 identity `DIFS = SIFS + 2·slot` holds *in sample units* at
    /// every bandwidth. Rounding the microsecond total independently
    /// could break it by a sample wherever the fractional parts interact
    /// (e.g. 2.5 MHz: SIFS → 40, slot → 22.5 → 23, but 34 µs → 85 ≠ 86),
    /// and the MAC accounting assumes the identity when it charges DIFS
    /// against slot-quantized backoff.
    pub(crate) fn from_phy(mac: &MacTiming, cfg: &OfdmConfig) -> Self {
        let to_samples = |us: f64| (us * 1e-6 * cfg.bandwidth_hz).round() as u64;
        let sifs = to_samples(mac.sifs_us);
        let slot = to_samples(mac.slot_us);
        SampleTiming {
            sifs,
            difs: sifs + 2 * slot,
            slot,
            cw_min: mac.cw_min,
            cw_max: mac.cw_max,
            symbol: cfg.symbol_len() as u64,
        }
    }

    /// The paper's profile: 802.11a timing on the 10 MHz USRP2 channel.
    pub fn usrp2() -> Self {
        Self::from_phy(&MacTiming::dot11a(), &OfdmConfig::usrp2())
    }

    /// Duration of `n` OFDM symbols, in samples.
    pub fn symbols(&self, n: usize) -> u64 {
        self.symbol * n as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usrp2_sample_counts() {
        let t = SampleTiming::usrp2();
        // 16 µs at 10 MHz = 160 samples; slot 9 µs = 90; DIFS 34 µs = 340.
        assert_eq!(t.sifs, 160);
        assert_eq!(t.slot, 90);
        assert_eq!(t.difs, 340);
        assert_eq!(t.symbol, 80);
    }

    #[test]
    fn wifi20_sample_counts() {
        let t = SampleTiming::from_phy(
            &MacTiming::dot11a(),
            &OfdmConfig {
                bandwidth_hz: 20e6,
                ..OfdmConfig::usrp2()
            },
        );
        assert_eq!(t.sifs, 320);
        assert_eq!(t.slot, 180);
    }

    #[test]
    fn symbols_helper() {
        let t = SampleTiming::usrp2();
        assert_eq!(t.symbols(0), 0);
        assert_eq!(t.symbols(10), 800);
    }

    /// Regression: independent rounding broke `difs == sifs + 2*slot`
    /// in sample units at bandwidths where the fractional sample counts
    /// interact. 2.5 MHz is the concrete witness: SIFS 16 µs → 40
    /// samples, slot 9 µs → 22.5 → 23, so DIFS must be 86 — but
    /// rounding 34 µs directly gave 85.
    #[test]
    fn difs_identity_at_fractional_bandwidth() {
        let cfg = OfdmConfig {
            bandwidth_hz: 2.5e6,
            ..OfdmConfig::usrp2()
        };
        let t = SampleTiming::from_phy(&MacTiming::dot11a(), &cfg);
        assert_eq!(t.sifs, 40);
        assert_eq!(t.slot, 23);
        assert_eq!(t.difs, 86, "DIFS must equal SIFS + 2*slot in samples");
        assert_eq!(t.difs, t.sifs + 2 * t.slot);
    }

    proptest::proptest! {
        /// The 802.11 inter-frame-space identity holds in sample units
        /// at any bandwidth, not just the USRP2/20 MHz profiles.
        #[test]
        fn difs_is_sifs_plus_two_slots_at_any_bandwidth(bw_khz in 500u32..100_000) {
            let cfg = OfdmConfig {
                bandwidth_hz: bw_khz as f64 * 1e3,
                ..OfdmConfig::usrp2()
            };
            let t = SampleTiming::from_phy(&MacTiming::dot11a(), &cfg);
            proptest::prop_assert_eq!(t.difs, t.sifs + 2 * t.slot);
            // And the sample counts stay faithful to the microseconds.
            let expected_sifs = (16.0e-6 * cfg.bandwidth_hz).round() as u64;
            proptest::prop_assert_eq!(t.sifs, expected_sifs);
        }
    }
}
