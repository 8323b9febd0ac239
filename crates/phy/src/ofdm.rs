//! OFDM symbol assembly and the full single-stream transmit/receive chain.
//!
//! Transmit chain (per spatial stream, matching the §5 prototype):
//!
//! ```text
//! bytes → bits → scramble → convolutional encode → puncture
//!       → interleave (per symbol) → constellation map
//!       → subcarrier placement (+ pilots) → IFFT → cyclic prefix
//! ```
//!
//! The receive chain inverts each stage, with per-subcarrier equalization
//! (the MIMO zero-forcing projection lives in the `nplus` core crate; this
//! module handles the scalar post-projection stream).

use crate::bits::{bits_to_bytes, bytes_to_bits};
use crate::convolutional::{coded_len, encode as conv_encode, viterbi_decode};
use crate::fft::{fft, ifft};
use crate::interleaver::Interleaver;
use crate::modulation::{demodulate, modulate};
use crate::params::{data_subcarrier_indices, pilot_subcarrier_indices, OfdmConfig};
use crate::puncture::{depuncture, puncture, punctured_len};
use crate::rates::Mcs;
use crate::scrambler::Scrambler;
use nplus_linalg::{c64, Complex64};

/// The pilot polarity sequence (127-long, from the all-ones scrambler).
fn pilot_polarity() -> Vec<f64> {
    let mut s = Scrambler::new(0x7F);
    let mut zeros = vec![0u8; 127];
    s.apply_in_place(&mut zeros);
    zeros
        .iter()
        .map(|&b| if b == 0 { 1.0 } else { -1.0 })
        .collect()
}

/// Base pilot values on the four pilot subcarriers (±7: +1, ±21: +1/−1
/// per 802.11a Table 17-)
const PILOT_BASE: [f64; 4] = [1.0, 1.0, 1.0, -1.0];

/// Assembles one OFDM symbol from 48 data-subcarrier constellation points.
///
/// `symbol_index` selects the pilot polarity. Returns `fft_len + cp_len`
/// time-domain samples.
// nplus:allow(VIS001): a stage of the sample-level join chain that tests/end_to_end.rs drives; the planned phy_check bin (ROADMAP.md) will call it
pub fn assemble_symbol(
    data: &[Complex64],
    symbol_index: usize,
    cfg: &OfdmConfig,
) -> Vec<Complex64> {
    let data_idx = data_subcarrier_indices();
    assert_eq!(
        data.len(),
        data_idx.len(),
        "assemble_symbol: need 48 points"
    );
    let mut freq = vec![Complex64::ZERO; cfg.fft_len];
    for (&bin, &sym) in data_idx.iter().zip(data) {
        freq[bin] = sym;
    }
    let polarity = pilot_polarity();
    let p = polarity[symbol_index % polarity.len()];
    for (&bin, &base) in pilot_subcarrier_indices().iter().zip(&PILOT_BASE) {
        freq[bin] = c64(base * p, 0.0);
    }
    let mut time = ifft(&freq);
    // Scale so average transmit power over occupied subcarriers is one.
    let occupied = (data_idx.len() + 4) as f64;
    let k = (cfg.fft_len as f64 / occupied).sqrt() * (cfg.fft_len as f64).sqrt();
    for z in time.iter_mut() {
        *z = z.scale(k);
    }
    let mut out = Vec::with_capacity(cfg.symbol_len());
    out.extend_from_slice(&time[cfg.fft_len - cfg.cp_len..]);
    out.extend_from_slice(&time);
    out
}

/// Assembles one OFDM symbol with per-antenna pilot gains.
///
/// Multi-antenna transmitters that precode their data must precode their
/// pilots the same way, or the pilots would violate the nulls the data
/// maintains. `pilot_gain` scales all four pilots of this antenna's
/// symbol (typically the precoding vector's component for this antenna at
/// the pilot subcarriers).
pub fn assemble_symbol_with_pilot_gain(
    data: &[Complex64],
    symbol_index: usize,
    pilot_gain: Complex64,
    cfg: &OfdmConfig,
) -> Vec<Complex64> {
    let data_idx = data_subcarrier_indices();
    assert_eq!(
        data.len(),
        data_idx.len(),
        "assemble_symbol: need 48 points"
    );
    let mut freq = vec![Complex64::ZERO; cfg.fft_len];
    for (&bin, &sym) in data_idx.iter().zip(data) {
        freq[bin] = sym;
    }
    let polarity = pilot_polarity();
    let p = polarity[symbol_index % polarity.len()];
    for (&bin, &base) in pilot_subcarrier_indices().iter().zip(&PILOT_BASE) {
        freq[bin] = pilot_gain.scale(base * p);
    }
    let mut time = ifft(&freq);
    let occupied = (data_idx.len() + 4) as f64;
    let k = (cfg.fft_len as f64 / occupied).sqrt() * (cfg.fft_len as f64).sqrt();
    for z in time.iter_mut() {
        *z = z.scale(k);
    }
    let mut out = Vec::with_capacity(cfg.symbol_len());
    out.extend_from_slice(&time[cfg.fft_len - cfg.cp_len..]);
    out.extend_from_slice(&time);
    out
}

/// Recovered frequency-domain content of one OFDM symbol.
#[derive(Debug, Clone)]
// nplus:allow(VIS001): the return type of the public `disassemble_symbol`
pub struct SymbolObservation {
    /// Raw FFT output per subcarrier (natural order), before equalization.
    pub freq: Vec<Complex64>,
}

impl SymbolObservation {
    /// Pilot observations in transmit order.
    pub(crate) fn pilots(&self) -> [Complex64; 4] {
        let idx = pilot_subcarrier_indices();
        [
            self.freq[idx[0]],
            self.freq[idx[1]],
            self.freq[idx[2]],
            self.freq[idx[3]],
        ]
    }
}

/// Disassembles one OFDM symbol: strips the CP and FFTs. The inverse of
/// [`assemble_symbol`] up to channel effects.
// nplus:allow(VIS001): a stage of the sample-level join chain that tests/end_to_end.rs drives; the planned phy_check bin (ROADMAP.md) will call it
pub fn disassemble_symbol(samples: &[Complex64], cfg: &OfdmConfig) -> SymbolObservation {
    assert_eq!(samples.len(), cfg.symbol_len(), "disassemble: wrong length");
    let body = &samples[cfg.cp_len..];
    let mut freq = fft(body);
    let occupied = (data_subcarrier_indices().len() + 4) as f64;
    let k = 1.0 / ((cfg.fft_len as f64 / occupied).sqrt() * (cfg.fft_len as f64).sqrt());
    for z in freq.iter_mut() {
        *z = z.scale(k);
    }
    SymbolObservation { freq }
}

/// Corrects the common phase error of one symbol using its pilots and
/// equalizes the data subcarriers against the per-subcarrier channel
/// `chan` (natural FFT order, as estimated from the LTF).
pub(crate) fn equalize_symbol(
    obs: &SymbolObservation,
    chan: &[Complex64],
    symbol_index: usize,
) -> Vec<Complex64> {
    let polarity = pilot_polarity();
    let p = polarity[symbol_index % polarity.len()];
    // Estimate residual common phase from pilots.
    let mut acc = Complex64::ZERO;
    for ((&bin, &base), &obs_p) in pilot_subcarrier_indices()
        .iter()
        .zip(&PILOT_BASE)
        .zip(&obs.pilots())
    {
        let expect = chan[bin].scale(base * p);
        if expect.abs() > 1e-12 {
            acc += obs_p * expect.conj();
        }
    }
    let cpe = if acc.abs() > 1e-12 {
        acc.scale(1.0 / acc.abs())
    } else {
        Complex64::ONE
    };
    data_subcarrier_indices()
        .iter()
        .map(|&bin| {
            let h = chan[bin] * cpe;
            if h.abs() > 1e-12 {
                obs.freq[bin] / h
            } else {
                Complex64::ZERO
            }
        })
        .collect()
}

/// Encodes a byte payload into a sequence of constellation points, one
/// entry of 48 points per OFDM symbol (the "bits on subcarriers" part of
/// the TX chain, before IFFT).
pub(crate) fn encode_payload_to_carriers(payload: &[u8], mcs: Mcs) -> Vec<Vec<Complex64>> {
    let mut bits = bytes_to_bits(payload);
    Scrambler::default_seed().apply_in_place(&mut bits);
    let coded = conv_encode(&bits);
    let mut on_air = puncture(&coded, mcs.code_rate);
    // Pad the on-air stream to a whole number of OFDM symbols.
    let n_cbps = mcs.coded_bits_per_symbol();
    let rem = on_air.len() % n_cbps;
    if rem != 0 {
        on_air.resize(on_air.len() + (n_cbps - rem), 0);
    }
    let il = Interleaver::new(n_cbps, mcs.modulation.bits_per_symbol());
    on_air
        .chunks(n_cbps)
        .map(|chunk| modulate(&il.interleave(chunk), mcs.modulation))
        .collect()
}

/// Inverse of [`encode_payload_to_carriers`]: demaps equalized data
/// carriers back to the byte payload. `payload_len` is the expected byte
/// count (known from the header).
pub(crate) fn decode_carriers_to_payload(
    carriers: &[Vec<Complex64>],
    mcs: Mcs,
    payload_len: usize,
) -> Vec<u8> {
    let n_cbps = mcs.coded_bits_per_symbol();
    let il = Interleaver::new(n_cbps, mcs.modulation.bits_per_symbol());
    let mut on_air = Vec::with_capacity(carriers.len() * n_cbps);
    for sym in carriers {
        on_air.extend(il.deinterleave(&demodulate(sym, mcs.modulation)));
    }
    let n_info = payload_len * 8;
    let n_coded = coded_len(n_info);
    let n_punctured = punctured_len(n_coded, mcs.code_rate);
    assert!(
        on_air.len() >= n_punctured,
        "not enough symbols: have {} on-air bits, need {n_punctured}",
        on_air.len()
    );
    on_air.truncate(n_punctured);
    let restored = depuncture(&on_air, mcs.code_rate, n_coded);
    let mut bits = viterbi_decode(&restored);
    bits.truncate(n_info);
    Scrambler::default_seed().apply_in_place(&mut bits);
    bits_to_bytes(&bits)
}

/// Full single-antenna transmit chain: payload bytes to time-domain
/// samples (without preamble; see [`crate::preamble`]).
// nplus:allow(VIS001): the transmit half of the sample-level PHY chain that tests/phy_chain.rs drives; the planned phy_check bin (ROADMAP.md) will call it
pub fn transmit_payload(payload: &[u8], mcs: Mcs, cfg: &OfdmConfig) -> Vec<Complex64> {
    let carriers = encode_payload_to_carriers(payload, mcs);
    let mut out = Vec::with_capacity(carriers.len() * cfg.symbol_len());
    for (i, sym) in carriers.iter().enumerate() {
        out.extend(assemble_symbol(sym, i, cfg));
    }
    out
}

/// Full single-antenna receive chain: time-domain samples (aligned to the
/// first data symbol) back to payload bytes, equalizing with the given
/// per-subcarrier channel estimate.
// nplus:allow(VIS001): the receive half of the sample-level PHY chain that tests/phy_chain.rs drives; the planned phy_check bin (ROADMAP.md) will call it
pub fn receive_payload(
    samples: &[Complex64],
    chan: &[Complex64],
    mcs: Mcs,
    payload_len: usize,
    cfg: &OfdmConfig,
) -> Vec<u8> {
    let n_symbols = samples.len() / cfg.symbol_len();
    let mut carriers = Vec::with_capacity(n_symbols);
    for i in 0..n_symbols {
        let sym = &samples[i * cfg.symbol_len()..(i + 1) * cfg.symbol_len()];
        let obs = disassemble_symbol(sym, cfg);
        carriers.push(equalize_symbol(&obs, chan, i));
    }
    decode_carriers_to_payload(&carriers, mcs, payload_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::RATE_TABLE;

    /// Number of OFDM symbols a payload of `n_bytes` occupies at the given
    /// MCS, including the convolutional tail.
    fn symbols_for_payload(n_bytes: usize, mcs: Mcs) -> usize {
        let n_coded = coded_len(n_bytes * 8);
        let n_air = punctured_len(n_coded, mcs.code_rate);
        n_air.div_ceil(mcs.coded_bits_per_symbol())
    }

    fn flat_channel(cfg: &OfdmConfig) -> Vec<Complex64> {
        vec![Complex64::ONE; cfg.fft_len]
    }

    fn pseudo_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut s = seed.max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s & 0xFF) as u8
            })
            .collect()
    }

    #[test]
    fn symbol_round_trip_ideal_channel() {
        let cfg = OfdmConfig::usrp2();
        let mcs = RATE_TABLE[2]; // QPSK 1/2
        let bits: Vec<u8> = (0..96).map(|i| (i % 2) as u8).collect();
        let data = modulate(&bits[..96], mcs.modulation);
        let t = assemble_symbol(&data, 0, &cfg);
        assert_eq!(t.len(), cfg.symbol_len());
        let obs = disassemble_symbol(&t, &cfg);
        let eq = equalize_symbol(&obs, &flat_channel(&cfg), 0);
        for (a, b) in data.iter().zip(&eq) {
            assert!(a.approx_eq(*b, 1e-9), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn payload_round_trip_every_rate() {
        let cfg = OfdmConfig::usrp2();
        let payload = pseudo_bytes(100, 77);
        for mcs in RATE_TABLE {
            let samples = transmit_payload(&payload, mcs, &cfg);
            assert_eq!(
                samples.len(),
                symbols_for_payload(payload.len(), mcs) * cfg.symbol_len()
            );
            let rx = receive_payload(&samples, &flat_channel(&cfg), mcs, payload.len(), &cfg);
            assert_eq!(rx, payload, "round trip failed at {mcs}");
        }
    }

    #[test]
    fn payload_round_trip_with_channel() {
        // A frequency-selective but known channel must equalize out.
        let cfg = OfdmConfig::usrp2();
        let payload = pseudo_bytes(64, 5);
        let mcs = RATE_TABLE[4]; // 16QAM 1/2
        let chan: Vec<Complex64> = (0..cfg.fft_len)
            .map(|k| Complex64::from_polar(0.5 + 0.1 * (k % 7) as f64, 0.13 * k as f64))
            .collect();
        let clean = transmit_payload(&payload, mcs, &cfg);
        // Apply the channel per subcarrier: easiest done symbol by symbol
        // in the frequency domain.
        let mut rx_samples = Vec::with_capacity(clean.len());
        for i in 0..clean.len() / cfg.symbol_len() {
            let sym = &clean[i * cfg.symbol_len()..(i + 1) * cfg.symbol_len()];
            let mut freq = fft(&sym[cfg.cp_len..]);
            for (k, z) in freq.iter_mut().enumerate() {
                *z *= chan[k];
            }
            let time = ifft(&freq);
            rx_samples.extend_from_slice(&time[cfg.fft_len - cfg.cp_len..]);
            rx_samples.extend_from_slice(&time);
        }
        let rx = receive_payload(&rx_samples, &chan, mcs, payload.len(), &cfg);
        assert_eq!(rx, payload);
    }

    #[test]
    fn cpe_correction_fixes_common_phase() {
        let cfg = OfdmConfig::usrp2();
        let payload = pseudo_bytes(48, 9);
        let mcs = RATE_TABLE[2];
        let clean = transmit_payload(&payload, mcs, &cfg);
        // Rotate everything by a common phase (residual CFO effect).
        let rotated: Vec<Complex64> = clean.iter().map(|z| *z * Complex64::cis(0.4)).collect();
        let rx = receive_payload(&rotated, &flat_channel(&cfg), mcs, payload.len(), &cfg);
        assert_eq!(rx, payload, "pilot CPE correction failed");
    }

    #[test]
    fn symbol_power_is_normalized() {
        let cfg = OfdmConfig::usrp2();
        let bits: Vec<u8> = (0..96).map(|i| ((i * 5) % 3 == 0) as u8).collect();
        let data = modulate(&bits, crate::modulation::Modulation::Qpsk);
        let t = assemble_symbol(&data, 0, &cfg);
        let p: f64 = t.iter().map(|z| z.norm_sqr()).sum::<f64>() / t.len() as f64;
        // Average transmit power should be near 1 (within the CP repeat
        // and constellation variance).
        assert!(p > 0.5 && p < 2.0, "symbol power {p}");
    }

    #[test]
    fn empty_payload() {
        let cfg = OfdmConfig::usrp2();
        let mcs = RATE_TABLE[0];
        let samples = transmit_payload(&[], mcs, &cfg);
        // Tail bits alone still occupy one symbol.
        assert_eq!(samples.len(), cfg.symbol_len());
        let rx = receive_payload(&samples, &flat_channel(&cfg), mcs, 0, &cfg);
        assert!(rx.is_empty());
    }

    #[test]
    fn pilot_polarity_has_period_127() {
        let p = pilot_polarity();
        assert_eq!(p.len(), 127);
        assert!(p.iter().all(|&v| v == 1.0 || v == -1.0));
    }
}
