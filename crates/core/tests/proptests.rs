//! Property-based tests for the n+ core: precoder invariants, handshake
//! codec round-trips, and carrier-sense projection identities over random
//! channels.

use nplus::carrier_sense::MultiDimCarrierSense;
use nplus::handshake::{decode_alignment_space, encode_alignment_space, max_space_error};
use nplus::link::{zf_sinr, SubcarrierObservation};
use nplus::power_control::join_power_decision;
use nplus::precoder::{compute_precoders, residual_interference, OwnReceiver, ProtectedReceiver};
use nplus_linalg::{rank, CMatrix, CVector, Complex64, Subspace};
use nplus_phy::params::OfdmConfig;
use nplus_testkit::strategies::{complex, complex_matrix as matrix, complex_vector as vector};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With exact channel knowledge, the precoder's nulls are numerically
    /// perfect at every protected receiver, and the own receiver still
    /// gets signal — for any generic channel draw (the Fig. 2 join).
    #[test]
    fn precoder_nulls_are_exact(h1 in matrix(1, 2), h2 in matrix(2, 2)) {
        prop_assume!(rank(&h1, Some(1e-6)) == 1);
        prop_assume!(rank(&h2, Some(1e-6)) == 2);
        let p = compute_precoders(
            2,
            &[ProtectedReceiver::nulling(h1.clone())],
            &[OwnReceiver { channel: h2.clone(), n_streams: 1, unwanted: Subspace::zero(2) }],
        ).unwrap();
        let leak = residual_interference(&h1, &Subspace::zero(1), &p.vectors[0]);
        prop_assert!(leak < 1e-16, "leak {leak}");
        prop_assert!(h2.mul_vec(&p.vectors[0]).norm_sqr() > 1e-8);
    }

    /// Alignment constraint satisfied exactly: the arriving signal lies
    /// inside the advertised unwanted space (the Fig. 3 join).
    #[test]
    fn precoder_alignment_is_exact(
        h1 in matrix(1, 3),
        h2 in matrix(2, 3),
        h3 in matrix(3, 3),
        dir in vector(2),
    ) {
        prop_assume!(dir.norm() > 0.2);
        prop_assume!(rank(&h2, Some(1e-6)) == 2);
        prop_assume!(rank(&h3, Some(1e-6)) == 3);
        let u = Subspace::span(2, &[dir]);
        prop_assume!(u.dim() == 1);
        let p = compute_precoders(
            3,
            &[
                ProtectedReceiver::nulling(h1.clone()),
                ProtectedReceiver::aligning(h2.clone(), u.clone()),
            ],
            &[OwnReceiver { channel: h3, n_streams: 1, unwanted: Subspace::zero(3) }],
        ).unwrap();
        let v = &p.vectors[0];
        prop_assert!(h1.mul_vec(v).norm_sqr() < 1e-16);
        let arriving = h2.mul_vec(v);
        prop_assert!(u.contains(&arriving, 1e-7), "arrival escaped the unwanted space");
    }

    /// Total transmit power across the precoded streams is always 1.
    #[test]
    fn precoder_power_budget(h in matrix(3, 3), n_streams in 1usize..4) {
        prop_assume!(rank(&h, Some(1e-6)) == 3);
        let p = compute_precoders(
            3,
            &[],
            &[OwnReceiver { channel: h, n_streams, unwanted: Subspace::zero(3) }],
        ).unwrap();
        let total: f64 = p.vectors.iter().map(|v| v.norm_sqr()).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total power {total}");
    }

    /// Handshake codec round-trips arbitrary 2-antenna 1-dim spaces with
    /// bounded subspace error, whatever their smoothness.
    #[test]
    fn handshake_codec_bounded_error(dirs in proptest::collection::vec(vector(2), 1..52)) {
        let spaces: Vec<Subspace> = dirs
            .iter()
            .filter(|d| d.norm() > 0.15)
            .map(|d| Subspace::span(2, std::slice::from_ref(d)))
            .collect();
        prop_assume!(!spaces.is_empty());
        prop_assume!(spaces.iter().all(|s| s.dim() == 1));
        let blob = encode_alignment_space(&spaces);
        let decoded = decode_alignment_space(&blob).unwrap();
        prop_assert_eq!(decoded.len(), spaces.len());
        let err = max_space_error(&spaces, &decoded);
        prop_assert!(err < 0.05, "subspace error {err}");
    }

    /// Decoding never panics on arbitrary bytes (it may reject them).
    #[test]
    fn handshake_decoder_total(blob in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_alignment_space(&blob);
    }

    /// ZF SINRs are non-negative and adding residual interference never
    /// increases any stream's SINR.
    #[test]
    fn zf_sinr_monotone_in_residuals(
        w in vector(3),
        known in vector(3),
        resid in vector(3),
    ) {
        prop_assume!(w.norm() > 0.2);
        let clean = SubcarrierObservation {
            wanted: vec![w.clone()],
            known_interference: if known.norm() > 0.2 { vec![known] } else { vec![] },
            residual_interference: vec![],
            noise_power: 1.0,
        };
        let dirty = SubcarrierObservation {
            residual_interference: vec![resid],
            ..clean.clone()
        };
        let s_clean = zf_sinr(&clean)[0];
        let s_dirty = zf_sinr(&dirty)[0];
        prop_assert!(s_clean >= 0.0 && s_dirty >= 0.0);
        prop_assert!(s_dirty <= s_clean + 1e-12);
    }

    /// The join-power rule always leaves post-cancellation residuals at or
    /// below the noise floor.
    #[test]
    fn power_control_invariant(h in matrix(2, 3), l_db in 15.0f64..35.0) {
        let pre = nplus::power_control::expected_interference_power(&h);
        let d = join_power_decision(&[&h], l_db);
        // Post-cancellation residual: scaled power, suppressed by `L`.
        let resid = pre * d.amplitude().powi(2) * 10f64.powf(-l_db / 10.0);
        prop_assert!(resid <= 1.0 + 1e-9, "residual {resid}");
        prop_assert!(d.amplitude() > 0.0 && d.amplitude() <= 1.0);
    }

    /// Carrier-sense projection annihilates any signal arriving along the
    /// ongoing transmission's channel and never increases power.
    #[test]
    fn projection_annihilates_and_contracts(
        h in proptest::collection::vec(complex(), 3),
        symbols in proptest::collection::vec(complex(), 64),
    ) {
        let hv = CVector::from_vec(h.clone());
        prop_assume!(hv.norm() > 0.2);
        let cfg = OfdmConfig::usrp2();
        let hm: Vec<CMatrix> = (0..cfg.fft_len)
            .map(|_| CMatrix::from_cols(std::slice::from_ref(&hv)))
            .collect();
        let sensor = MultiDimCarrierSense::from_ongoing(3, cfg, &[hm]);
        // Signal along h at every antenna.
        let capture: Vec<Vec<Complex64>> = h
            .iter()
            .map(|&hi| symbols.iter().map(|&s| s * hi).collect())
            .collect();
        let raw = MultiDimCarrierSense::raw_power(&capture);
        let projected = sensor.sense_power(&capture);
        prop_assert!(projected <= raw + 1e-9);
        prop_assert!(projected < 1e-12 * raw.max(1e-12), "signal not annihilated: {projected} of {raw}");
    }
}
