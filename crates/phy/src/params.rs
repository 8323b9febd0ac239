//! OFDM and timing parameters.
//!
//! The paper's prototype runs an 802.11-style OFDM PHY on USRP2 radios over
//! a **10 MHz** channel (§5). The constants here default to that profile but
//! are parameterized so the benches can also model a standard 20 MHz
//! 802.11 channel (the paper notes 20 MHz would only change the
//! alignment-space compressibility, §3.5).

/// Number of OFDM subcarriers (FFT size), as in 802.11a/g/n 20 MHz.
pub(crate) const NUM_SUBCARRIERS: usize = 64;

/// Number of data subcarriers per OFDM symbol.
pub(crate) const NUM_DATA_SUBCARRIERS: usize = 48;

/// Number of pilot subcarriers per OFDM symbol.
pub(crate) const NUM_PILOTS: usize = 4;

/// Cyclic-prefix length in samples for the standard profile.
///
/// §4 of the paper notes that n+ scales both the CP and the FFT size by the
/// same factor to give joiners timing leeway; [`OfdmConfig::scaled`]
/// implements that.
pub(crate) const CP_LEN: usize = 16;

/// Indices (in natural FFT order 0..64) of the data subcarriers.
///
/// Matches the 802.11a mapping: subcarriers ±1..±26 are used, of which
/// ±7 and ±21 carry pilots, and 0 (DC) plus ±27..±31 are null.
pub fn data_subcarrier_indices() -> Vec<usize> {
    let mut idx = Vec::with_capacity(NUM_DATA_SUBCARRIERS);
    // Positive frequencies 1..=26, skipping pilots 7 and 21.
    for k in 1..=26usize {
        if k != 7 && k != 21 {
            idx.push(k);
        }
    }
    // Negative frequencies -26..=-1 map to 38..=63, pilots at -21 (43) and -7 (57).
    for k in 38..=63usize {
        if k != 43 && k != 57 {
            idx.push(k);
        }
    }
    idx
}

/// Indices of the pilot subcarriers (±7, ±21 in natural FFT order).
pub fn pilot_subcarrier_indices() -> [usize; NUM_PILOTS] {
    [7, 21, 43, 57]
}

/// Indices of all occupied subcarriers (data + pilots), the set over which
/// channels are estimated and nulling/alignment is performed.
pub fn occupied_subcarrier_indices() -> Vec<usize> {
    let mut idx = data_subcarrier_indices().to_vec();
    idx.extend_from_slice(&pilot_subcarrier_indices());
    idx.sort_unstable();
    idx
}

/// Static OFDM configuration shared by transmitter and receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfdmConfig {
    /// FFT size (number of subcarriers).
    pub fft_len: usize,
    /// Cyclic-prefix length in samples.
    pub cp_len: usize,
    /// Channel bandwidth in Hz (also the complex sample rate).
    pub bandwidth_hz: f64,
}

impl OfdmConfig {
    /// The paper's USRP2 profile: 64 subcarriers over 10 MHz.
    pub const fn usrp2() -> Self {
        OfdmConfig {
            fft_len: NUM_SUBCARRIERS,
            cp_len: CP_LEN,
            bandwidth_hz: 10e6,
        }
    }

    /// Scales the FFT size and cyclic prefix by the same integer factor
    /// (§4 "Time Synchronization"): a longer CP gives joining transmitters
    /// more slack to align symbol boundaries, at constant relative
    /// overhead.
    pub fn scaled(&self, factor: usize) -> Self {
        assert!(factor >= 1, "scale factor must be >= 1");
        OfdmConfig {
            fft_len: self.fft_len * factor,
            cp_len: self.cp_len * factor,
            bandwidth_hz: self.bandwidth_hz,
        }
    }

    /// Samples per OFDM symbol including the cyclic prefix.
    #[inline]
    pub fn symbol_len(&self) -> usize {
        self.fft_len + self.cp_len
    }

    /// Duration of one OFDM symbol in seconds.
    #[inline]
    pub(crate) fn symbol_duration(&self) -> f64 {
        self.symbol_len() as f64 / self.bandwidth_hz
    }
}

impl Default for OfdmConfig {
    fn default() -> Self {
        Self::usrp2()
    }
}

/// 802.11 MAC timing constants, expressed in microseconds.
///
/// These are the OFDM-PHY (802.11a) values; the MAC crate converts them to
/// sample counts through the PHY bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacTiming {
    /// Short inter-frame space (µs).
    pub sifs_us: f64,
    /// Slot time (µs).
    pub slot_us: f64,
    /// Minimum contention window (slots).
    pub cw_min: u32,
    /// Maximum contention window (slots).
    pub cw_max: u32,
}

impl MacTiming {
    /// 802.11a OFDM timing: SIFS 16 µs, slot 9 µs, CW 15..1023.
    pub const fn dot11a() -> Self {
        MacTiming {
            sifs_us: 16.0,
            slot_us: 9.0,
            cw_min: 15,
            cw_max: 1023,
        }
    }
}

impl Default for MacTiming {
    fn default() -> Self {
        Self::dot11a()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subcarrier_counts() {
        assert_eq!(data_subcarrier_indices().len(), NUM_DATA_SUBCARRIERS);
        assert_eq!(occupied_subcarrier_indices().len(), 52);
    }

    #[test]
    fn data_and_pilots_disjoint() {
        let data = data_subcarrier_indices();
        for p in pilot_subcarrier_indices() {
            assert!(!data.contains(&p), "pilot {p} collides with data");
        }
    }

    #[test]
    fn dc_and_guards_unused() {
        let occ = occupied_subcarrier_indices();
        assert!(!occ.contains(&0), "DC must be null");
        for k in 27..=37 {
            assert!(!occ.contains(&k), "guard band {k} must be null");
        }
    }

    #[test]
    fn usrp2_symbol_timing() {
        let cfg = OfdmConfig::usrp2();
        assert_eq!(cfg.symbol_len(), 80);
        // 80 samples at 10 MHz = 8 µs per symbol (double 802.11a's 4 µs).
        assert!((cfg.symbol_duration() - 8e-6).abs() < 1e-12);
    }

    #[test]
    fn scaled_preserves_overhead() {
        let cfg = OfdmConfig::usrp2();
        let big = cfg.scaled(2);
        assert_eq!(big.fft_len, 128);
        assert_eq!(big.cp_len, 32);
        let overhead = |c: &OfdmConfig| c.cp_len as f64 / c.symbol_len() as f64;
        assert!((overhead(&big) - overhead(&cfg)).abs() < 1e-12);
    }

    #[test]
    fn difs_value() {
        // DIFS = SIFS + 2 × slot = 34 µs in 802.11a.
        let t = MacTiming::dot11a();
        assert!((t.sifs_us + 2.0 * t.slot_us - 34.0).abs() < 1e-12);
    }
}
