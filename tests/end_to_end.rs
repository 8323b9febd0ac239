//! End-to-end integration: the full sample-level path through all crates.
//!
//! These tests run the scenario of the paper's Fig. 2 on the simulated
//! medium with the real OFDM chain: preambles on the air, channel
//! estimation at receivers, precoding from reciprocity-derived knowledge,
//! concurrent transmission, and Viterbi-decoded payloads.

use nplus::precoder::{compute_precoders, OwnReceiver, ProtectedReceiver};
use nplus_linalg::{CMatrix, CVector, Complex64, Subspace};
use nplus_medium::medium::Transmission;
use nplus_phy::chanest::estimate_mimo_from_preamble;
use nplus_phy::fft::fft;
use nplus_phy::modulation::{demodulate, modulate, Modulation};
use nplus_phy::ofdm::{assemble_symbol, disassemble_symbol};
use nplus_phy::params::{data_subcarrier_indices, occupied_subcarrier_indices, OfdmConfig};
use nplus_phy::preamble::{mimo_preamble, preamble_len};
use nplus_testkit::fixtures::random_bits;
use nplus_testkit::fixtures::two_pair_medium;

/// rx estimates tx's per-antenna channels from an on-air MIMO preamble.
#[test]
fn over_the_air_channel_estimation_matches_truth() {
    let cfg = OfdmConfig::usrp2();
    let pair = two_pair_medium(1);
    let (mut medium, tx2, rx2) = (pair.medium, pair.tx2, pair.rx2);
    medium.set_noise_power(0.0); // isolate estimation from noise
    let streams = mimo_preamble(&cfg, 2);
    let plen = preamble_len(&cfg, 2);
    medium.transmit(Transmission {
        from: tx2,
        start: 0,
        streams,
        cfo_precompensation_hz: 0.0,
    });
    let capture = medium.capture(rx2, 0, plen);
    let truth = medium.link(tx2, rx2).unwrap();
    for rx_ant in 0..2 {
        let ests = estimate_mimo_from_preamble(&capture[rx_ant], 2, &cfg);
        for (tx_ant, est) in ests.iter().enumerate() {
            for &k in &occupied_subcarrier_indices() {
                let h_true = truth.channel_matrix(k, cfg.fft_len).get(rx_ant, tx_ant);
                // Multipath spreads the preamble slightly across symbol
                // boundaries; the estimate is very close but not exact.
                nplus_testkit::assert_c64_close!(
                    est.h[k],
                    h_true,
                    0.35 + 0.05 * h_true.abs(),
                    "rx{rx_ant} tx{tx_ant} bin {k}"
                );
            }
        }
    }
}

/// The full Fig. 2 join at sample level: tx2 nulls at rx1 while rx1
/// decodes tx1's QPSK symbols through the whole OFDM chain.
#[test]
fn fig2_concurrent_transmission_sample_level() {
    let cfg = OfdmConfig::usrp2();
    let pair = two_pair_medium(5);
    let [tx1, rx1, tx2, rx2] = pair.nodes();
    let mut medium = pair.medium;
    medium.set_noise_power(1.0);
    let mut rng = nplus_testkit::rng(77);

    // tx1's transmission: OFDM QPSK symbols.
    let n_symbols = 20usize;
    let bits1 = random_bits(96 * n_symbols, &mut rng);
    let mut tx1_wave = Vec::new();
    let mut tx1_carriers = Vec::new();
    for s in 0..n_symbols {
        let syms = modulate(&bits1[96 * s..96 * (s + 1)], Modulation::Qpsk);
        tx1_wave.extend(assemble_symbol(&syms, s, &cfg));
        tx1_carriers.push(syms);
    }
    medium.transmit(Transmission {
        from: tx1,
        start: 0,
        streams: vec![tx1_wave],
        cfo_precompensation_hz: 0.0,
    });

    // tx2 precodes a concurrent stream using the true reverse channel
    // (reciprocity; hardware error exercised elsewhere).
    let h_to_rx1 = medium.link(tx2, rx1).unwrap().channel_matrices(cfg.fft_len);
    let h_to_rx2 = medium.link(tx2, rx2).unwrap().channel_matrices(cfg.fft_len);
    let bits2 = random_bits(96 * n_symbols, &mut rng);
    // Per-subcarrier precoding vectors.
    let mut precoders: Vec<Option<CVector>> = vec![None; cfg.fft_len];
    for &k in &occupied_subcarrier_indices() {
        let p = compute_precoders(
            2,
            &[ProtectedReceiver::nulling(h_to_rx1[k].clone())],
            &[OwnReceiver {
                channel: h_to_rx2[k].clone(),
                n_streams: 1,
                unwanted: Subspace::zero(2),
            }],
        )
        .unwrap();
        precoders[k] = Some(p.vectors[0].clone());
    }
    // Build tx2's two antenna streams: per subcarrier, symbol × v.
    let mut ant_streams = vec![Vec::new(), Vec::new()];
    for s in 0..n_symbols {
        let syms = modulate(&bits2[96 * s..96 * (s + 1)], Modulation::Qpsk);
        for ant in 0..2 {
            // Scale each data subcarrier by the precoder component.
            let scaled: Vec<Complex64> = data_subcarrier_indices()
                .iter()
                .zip(&syms)
                .map(|(&bin, &sym)| sym * precoders[bin].as_ref().unwrap()[ant])
                .collect();
            ant_streams[ant].extend(assemble_symbol(&scaled, s, &cfg));
        }
    }
    medium.transmit(Transmission {
        from: tx2,
        start: 0,
        streams: ant_streams,
        cfo_precompensation_hz: 0.0,
    });

    // rx1 decodes tx1 as if alone: equalize with tx1's channel.
    let h11 = medium.link(tx1, rx1).unwrap().channel_matrices(cfg.fft_len);
    let capture = medium.capture(rx1, 0, n_symbols * cfg.symbol_len());
    let mut rx1_bits = Vec::with_capacity(96 * n_symbols);
    for s in 0..n_symbols {
        let obs = disassemble_symbol(
            &capture[0][s * cfg.symbol_len()..(s + 1) * cfg.symbol_len()],
            &cfg,
        );
        let eq: Vec<Complex64> = data_subcarrier_indices()
            .iter()
            .map(|&bin| {
                let h = h11[bin].get(0, 0);
                obs.freq[bin] / h
            })
            .collect();
        rx1_bits.extend(demodulate(&eq, Modulation::Qpsk));
    }
    nplus_testkit::assert_ber_below!(
        &rx1_bits,
        &bits1,
        0.01,
        "at rx1 — tx2's nulling failed to protect the ongoing reception"
    );

    // And rx2 decodes tx2's stream by zero-forcing tx1's direction away.
    let h12 = medium.link(tx1, rx2).unwrap().channel_matrices(cfg.fft_len);
    let h22 = medium.link(tx2, rx2).unwrap().channel_matrices(cfg.fft_len);
    let capture2 = medium.capture(rx2, 0, n_symbols * cfg.symbol_len());
    let mut rx2_bits = vec![0u8; 96 * n_symbols];
    for s in 0..n_symbols {
        let obs: Vec<_> = (0..2)
            .map(|ant| {
                disassemble_symbol(
                    &capture2[ant][s * cfg.symbol_len()..(s + 1) * cfg.symbol_len()],
                    &cfg,
                )
            })
            .collect();
        for (di, &bin) in data_subcarrier_indices().iter().enumerate() {
            let y = CVector::from_vec(vec![obs[0].freq[bin], obs[1].freq[bin]]);
            // Effective channels: tx1's direction and tx2's precoded one.
            let h_int = h12[bin].col(0);
            let h_want = h22[bin].mul_vec(precoders[bin].as_ref().unwrap());
            let a = CMatrix::from_cols(&[h_want, h_int]);
            let w = nplus_linalg::pinv(&a).unwrap();
            let decoded = w.mul_vec(&y)[0];
            rx2_bits[96 * s + 2 * di..96 * s + 2 * di + 2]
                .copy_from_slice(&demodulate(&[decoded], Modulation::Qpsk));
        }
    }
    nplus_testkit::assert_ber_below!(
        &rx2_bits,
        &bits2,
        0.02,
        "at rx2 — concurrent stream not decodable"
    );
}

/// FFT-domain sanity: what the medium delivers per subcarrier equals the
/// link's channel matrix applied to the transmitted frequency symbol.
#[test]
fn medium_is_consistent_across_domains() {
    let cfg = OfdmConfig::usrp2();
    let pair = two_pair_medium(3);
    let (mut medium, tx1, rx1) = (pair.medium, pair.tx1, pair.rx1);
    medium.set_noise_power(0.0);
    let mut rng = nplus_testkit::rng(4);
    let bits = random_bits(96, &mut rng);
    let syms = modulate(&bits, Modulation::Qpsk);
    let wave = assemble_symbol(&syms, 0, &cfg);
    medium.transmit(Transmission {
        from: tx1,
        start: 0,
        streams: vec![wave.clone()],
        cfo_precompensation_hz: 0.0,
    });
    let capture = medium.capture(rx1, 0, cfg.symbol_len());
    let h = medium.link(tx1, rx1).unwrap().channel_matrices(cfg.fft_len);
    // Compare the FFT of the received body against H·X per subcarrier.
    let rx_freq = fft(&capture[0][cfg.cp_len..]);
    let tx_freq = fft(&wave[cfg.cp_len..]);
    for &k in &occupied_subcarrier_indices() {
        let expect = tx_freq[k] * h[k].get(0, 0);
        nplus_testkit::assert_c64_close!(
            rx_freq[k],
            expect,
            1e-6 * (1.0 + expect.abs()),
            "bin {k}"
        );
    }
}
