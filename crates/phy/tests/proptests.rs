//! Property-based tests for the PHY's public transforms and its
//! end-to-end payload chain. The crate-private stages keep theirs in
//! `src/proptests.rs`.

use nplus_linalg::{c64, Complex64};
use nplus_phy::fft::{fft, ifft};
use nplus_phy::ofdm::{receive_payload, transmit_payload};
use nplus_phy::params::OfdmConfig;
use nplus_phy::rates::RATE_TABLE;
use proptest::prelude::*;

fn byte_vec(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FFT/IFFT round-trip and Parseval hold for random signals.
    #[test]
    fn fft_round_trip(res in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 64)) {
        let x: Vec<Complex64> = res.into_iter().map(|(r, i)| c64(r, i)).collect();
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&y) {
            prop_assert!(a.approx_eq(*b, 1e-9));
        }
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ef: f64 = fft(&x).iter().map(|z| z.norm_sqr()).sum::<f64>() / 64.0;
        prop_assert!((ex - ef).abs() < 1e-7 * (1.0 + ex));
    }

    /// The full TX → RX payload chain round-trips on an ideal channel for
    /// any payload and rate.
    #[test]
    fn payload_chain_round_trip(payload in byte_vec(120), rate_idx in 0usize..8) {
        let cfg = OfdmConfig::usrp2();
        let mcs = RATE_TABLE[rate_idx];
        let flat = vec![Complex64::ONE; cfg.fft_len];
        let wave = transmit_payload(&payload, mcs, &cfg);
        let rx = receive_payload(&wave, &flat, mcs, payload.len(), &cfg);
        prop_assert_eq!(rx, payload);
    }
}
