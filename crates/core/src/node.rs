//! Distributed join orchestration: the n+ node-side procedure.
//!
//! Everything a joining transmitter does between "the medium is occupied"
//! and "I am transmitting concurrently", using only information it can
//! obtain over the air (paper §2–§4):
//!
//! 1. capture the handshake preambles of prior contention winners and
//!    **estimate the reverse channels** from their LTFs;
//! 2. apply **reciprocity** to obtain the forward channels to the
//!    protected receivers (subject to the hardware calibration residual);
//! 3. run **join power control** against the threshold `L`;
//! 4. compute per-subcarrier **pre-coding vectors** (nulling/alignment);
//! 5. **pre-compensate CFO** against the first winner and emit per-antenna
//!    OFDM sample streams ready for the medium.
//!
//! The protocol simulators in [`crate::sim`] shortcut steps 1–2 with the
//! hardware error model applied directly to the true channels (the two are
//! statistically equivalent and the sim must be fast); this module is the
//! faithful sample-level path, used by the examples and integration tests.

use crate::power_control::{join_power_decision, JoinPowerDecision};
use crate::precoder::{
    compute_precoders, OwnReceiver, PrecoderError, Precoding, ProtectedReceiver,
};
use nplus_channel::impairments::HardwareProfile;
use nplus_linalg::{CMatrix, CVector, Complex64, Subspace};
use nplus_phy::chanest::estimate_mimo_from_preamble;
use nplus_phy::modulation::{modulate, Modulation};
use nplus_phy::ofdm::assemble_symbol_with_pilot_gain;
use nplus_phy::params::{data_subcarrier_indices, occupied_subcarrier_indices, OfdmConfig};
use rand::rngs::StdRng;

/// The channels a joiner has learned to one protected receiver, per
/// occupied subcarrier, in the *forward* direction (joiner → receiver).
#[derive(Debug, Clone)]
// nplus:allow(VIS001): the return type of the public `learn_forward_channel`
pub struct LearnedReceiver {
    /// Forward channel belief per occupied subcarrier (`N × M`).
    pub channels: Vec<CMatrix>,
    /// The receiver's advertised unwanted space per occupied subcarrier
    /// (decoded from its light-weight CTS). Zero-dim = nulling target.
    pub unwanted: Vec<Subspace>,
}

/// Estimates the reverse channel (receiver → joiner) from a captured
/// preamble and converts it into a forward belief via reciprocity.
///
/// `capture` holds the joiner's per-antenna samples aligned to the start
/// of the receiver's `n_rx_antennas`-antenna preamble (the receiver sent
/// it as part of its own past handshake). The hardware profile adds the
/// calibration residual that real Tx/Rx chain asymmetry leaves.
// nplus:allow(VIS001): learns the joiner's channels in the sample-level join chain that node.rs's tests drive; the planned phy_check bin (ROADMAP.md) will call it
pub fn learn_forward_channel(
    capture: &[Vec<Complex64>],
    n_rx_antennas: usize,
    cfg: &OfdmConfig,
    hardware: &HardwareProfile,
    rng: &mut StdRng,
) -> Vec<CMatrix> {
    let m = capture.len(); // joiner antennas
                           // Reverse channel per joiner antenna: estimates[ant][rx_ant].h[k].
    let estimates: Vec<Vec<nplus_phy::ChannelEstimate>> = capture
        .iter()
        .map(|stream| estimate_mimo_from_preamble(stream, n_rx_antennas, cfg))
        .collect();
    occupied_subcarrier_indices()
        .iter()
        .map(|&k| {
            // Reverse H_rev is m × n_rx (joiner receives); forward is its
            // transpose by electromagnetic reciprocity.
            let mut fwd = CMatrix::zeros(n_rx_antennas, m);
            for (ant, per_rx) in estimates.iter().enumerate() {
                for (rx_ant, est) in per_rx.iter().enumerate() {
                    fwd.set(rx_ant, ant, est.h[k]);
                }
            }
            hardware.apply_calibration_error(&fwd, rng)
        })
        .collect()
}

/// The complete join decision for one prospective joiner.
#[derive(Debug)]
// nplus:allow(VIS001): the return type of the public `plan_join`
pub struct JoinPlan {
    /// Per-stream, per-occupied-subcarrier pre-coding vectors (already
    /// scaled by the power-control amplitude).
    pub precoders: Vec<Vec<CVector>>,
    /// The power decision that was applied.
    pub power: JoinPowerDecision,
}

/// Errors a joiner can hit.
#[derive(Debug)]
// nplus:allow(VIS001): the error type of the public `plan_join`
pub enum JoinError {
    /// The precoder could not satisfy the constraints on some subcarrier.
    Precoder(PrecoderError),
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::Precoder(e) => write!(f, "join failed: {e}"),
        }
    }
}

impl std::error::Error for JoinError {}

/// Computes a join plan: power control plus per-subcarrier precoding
/// against the learned protected receivers, delivering `n_streams` to a
/// receiver with learned forward channels `own`.
// nplus:allow(VIS001): plans the precoders in the sample-level join chain that node.rs's tests drive; the planned phy_check bin (ROADMAP.md) will call it
pub fn plan_join(
    m_antennas: usize,
    protected: &[LearnedReceiver],
    own: &LearnedReceiver,
    n_streams: usize,
    l_db: f64,
) -> Result<JoinPlan, JoinError> {
    let n_sc = occupied_subcarrier_indices().len();
    // Power control on the median subcarrier (channel magnitudes vary
    // slowly; the paper's rule uses the estimated aggregate power).
    let mid = n_sc / 2;
    let mats: Vec<&CMatrix> = protected.iter().map(|p| &p.channels[mid]).collect();
    let power = if mats.is_empty() {
        JoinPowerDecision::FullPower
    } else {
        join_power_decision(&mats, l_db)
    };
    let amp = power.amplitude();

    let mut precoders: Vec<Vec<CVector>> = vec![Vec::with_capacity(n_sc); n_streams];
    for k in 0..n_sc {
        let prot: Vec<ProtectedReceiver> = protected
            .iter()
            .map(|p| ProtectedReceiver {
                channel: p.channels[k].clone(),
                unwanted: p.unwanted[k].clone(),
            })
            .collect();
        let own_rx = OwnReceiver {
            channel: own.channels[k].clone(),
            n_streams,
            unwanted: own.unwanted[k].clone(),
        };
        let p: Precoding =
            compute_precoders(m_antennas, &prot, &[own_rx]).map_err(JoinError::Precoder)?;
        for (s, v) in p.vectors.into_iter().enumerate() {
            precoders[s].push(v.scale_re(amp));
        }
    }
    Ok(JoinPlan { precoders, power })
}

/// Renders one spatial stream of QPSK-modulated bits into per-antenna
/// OFDM sample streams using the plan's per-subcarrier pre-coding
/// vectors. Returns `m_antennas` equal-length streams.
///
/// (The full coding chain lives in `nplus-phy::ofdm`; this helper maps
/// raw constellation bits so tests can measure exact BER.)
// nplus:allow(VIS001): renders the precoded streams of the sample-level join chain that node.rs's tests drive; the planned phy_check bin (ROADMAP.md) will call it
pub fn render_precoded_stream(
    bits: &[u8],
    plan_stream: &[CVector],
    m_antennas: usize,
    cfg: &OfdmConfig,
) -> Vec<Vec<Complex64>> {
    let data_idx = data_subcarrier_indices();
    let occ = occupied_subcarrier_indices();
    // Map occupied-subcarrier index -> position in `occ` for plan lookup.
    let occ_pos: std::collections::HashMap<usize, usize> =
        occ.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let bps = 2; // QPSK
    let per_symbol = data_idx.len() * bps;
    assert!(
        bits.len().is_multiple_of(per_symbol),
        "bits must fill whole OFDM symbols"
    );
    let n_symbols = bits.len() / per_symbol;
    // Pilots must be precoded like the data (they share the null
    // constraints): use the precoding component at the first pilot
    // subcarrier for this antenna.
    let pilot_bin = nplus_phy::params::pilot_subcarrier_indices()[0];
    let mut streams = vec![Vec::with_capacity(n_symbols * cfg.symbol_len()); m_antennas];
    for s in 0..n_symbols {
        let syms = modulate(
            &bits[s * per_symbol..(s + 1) * per_symbol],
            Modulation::Qpsk,
        );
        for (ant, stream) in streams.iter_mut().enumerate() {
            let scaled: Vec<Complex64> = data_idx
                .iter()
                .zip(&syms)
                .map(|(&bin, &sym)| sym * plan_stream[occ_pos[&bin]][ant])
                .collect();
            let pilot_gain = plan_stream[occ_pos[&pilot_bin]][ant];
            stream.extend(assemble_symbol_with_pilot_gain(&scaled, s, pilot_gain, cfg));
        }
    }
    streams
}

#[cfg(test)]
mod tests {
    use super::*;
    use nplus_channel::fading::DelayProfile;
    use nplus_channel::mimo::MimoLink;
    use nplus_medium::medium::{Medium, Transmission};
    use nplus_phy::preamble::{mimo_preamble, preamble_len};
    use nplus_testkit::fixtures::IDEAL_HARDWARE;
    use rand::SeedableRng;

    /// Builds a medium where rx1 (1 ant) has sent its preamble, and tx2
    /// (2 ant) captures it to learn the forward channel by reciprocity.
    #[test]
    fn learned_channel_matches_truth_reciprocally() {
        let cfg = OfdmConfig::usrp2();
        let mut medium = Medium::new(cfg.bandwidth_hz, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let rx1 = medium.add_node(1, 0.0);
        let tx2 = medium.add_node(2, 0.0);
        medium.set_link(
            rx1,
            tx2,
            MimoLink::sample(1, 2, 15.0, &DelayProfile::los(), &mut rng),
        );
        medium.set_noise_power(0.0);
        // rx1 sends its (single-antenna) preamble (as its earlier CTS did).
        medium.transmit(Transmission {
            from: rx1,
            start: 0,
            streams: mimo_preamble(&cfg, 1),
            cfo_precompensation_hz: 0.0,
        });
        let plen = preamble_len(&cfg, 1);
        let capture = medium.capture(tx2, 0, plen);
        let mut rng2 = StdRng::seed_from_u64(1);
        let learned = learn_forward_channel(&capture, 1, &cfg, &IDEAL_HARDWARE, &mut rng2);
        // Compare against the true forward channel tx2 -> rx1 (the
        // reciprocal of what was estimated).
        let truth = medium.link(tx2, rx1).unwrap();
        for (i, &k) in occupied_subcarrier_indices().iter().enumerate() {
            let h_true = truth.channel_matrix(k, cfg.fft_len);
            assert!(
                learned[i].approx_eq(&h_true, 0.25),
                "bin {k}: {:?} vs {:?}",
                learned[i],
                h_true
            );
        }
    }

    /// A join planned purely from over-the-air estimates achieves a deep
    /// null at the protected receiver.
    #[test]
    fn over_the_air_join_nulls_deeply() {
        let cfg = OfdmConfig::usrp2();
        let mut medium = Medium::new(cfg.bandwidth_hz, 21);
        let mut rng = StdRng::seed_from_u64(3);
        let rx1 = medium.add_node(1, 0.0);
        let tx2 = medium.add_node(2, 0.0);
        let rx2 = medium.add_node(2, 0.0);
        medium.set_link(
            rx1,
            tx2,
            MimoLink::sample(1, 2, 12.0, &DelayProfile::los(), &mut rng),
        );
        medium.set_link(
            tx2,
            rx2,
            MimoLink::sample(2, 2, 18.0, &DelayProfile::los(), &mut rng),
        );
        // rx1's preamble on the air; tx2 listens (noise on).
        medium.set_noise_power(0.01); // strong preamble SNR regime
        medium.transmit(Transmission {
            from: rx1,
            start: 0,
            streams: mimo_preamble(&cfg, 1),
            cfo_precompensation_hz: 0.0,
        });
        let plen = preamble_len(&cfg, 1);
        let capture = medium.capture(tx2, 0, plen);
        let mut hw_rng = StdRng::seed_from_u64(2);
        let protected = LearnedReceiver {
            channels: learn_forward_channel(
                &capture,
                1,
                &cfg,
                &HardwareProfile::default(),
                &mut hw_rng,
            ),
            unwanted: vec![Subspace::zero(1); occupied_subcarrier_indices().len()],
        };
        // Own receiver: use the (reciprocal) truth for simplicity.
        let own_truth = medium.link(tx2, rx2).unwrap();
        let own = LearnedReceiver {
            channels: occupied_subcarrier_indices()
                .iter()
                .map(|&k| own_truth.channel_matrix(k, cfg.fft_len))
                .collect(),
            unwanted: vec![Subspace::zero(2); occupied_subcarrier_indices().len()],
        };
        let plan = plan_join(2, &[protected], &own, 1, 27.0).expect("join must be possible");

        // Evaluate the achieved nulling depth against the TRUE channel.
        let truth = medium.link(tx2, rx1).unwrap();
        let mut worst_db = f64::NEG_INFINITY;
        for (i, &k) in occupied_subcarrier_indices().iter().enumerate() {
            let h = truth.channel_matrix(k, cfg.fft_len);
            let resid = h.mul_vec(&plan.precoders[0][i]).norm_sqr();
            let pre = h.frobenius_norm().powi(2) / 2.0;
            worst_db = worst_db.max(10.0 * (resid / pre).log10());
        }
        assert!(
            worst_db < -15.0,
            "over-the-air nulling depth only {worst_db:.1} dB"
        );
    }

    /// The rendered precoded stream respects the per-antenna layout and
    /// total sample count.
    #[test]
    fn render_shapes() {
        let cfg = OfdmConfig::usrp2();
        let n_sc = occupied_subcarrier_indices().len();
        let plan_stream: Vec<CVector> = (0..n_sc)
            .map(|_| {
                CVector::from_vec(vec![
                    nplus_linalg::c64(0.6, 0.0),
                    nplus_linalg::c64(0.8, 0.0),
                ])
            })
            .collect();
        let bits = vec![1u8; 96 * 3]; // 3 QPSK OFDM symbols
        let streams = render_precoded_stream(&bits, &plan_stream, 2, &cfg);
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].len(), 3 * cfg.symbol_len());
        assert_eq!(streams[1].len(), 3 * cfg.symbol_len());
        // Antenna 1 carries 0.8/0.6 times antenna 0's amplitude.
        let p0: f64 = streams[0].iter().map(|z| z.norm_sqr()).sum();
        let p1: f64 = streams[1].iter().map(|z| z.norm_sqr()).sum();
        assert!(((p1 / p0) - (0.8f64 / 0.6).powi(2)).abs() < 1e-9);
    }

    /// Power control inside plan_join throttles a too-strong joiner.
    #[test]
    fn plan_join_applies_power_control() {
        let n_sc = occupied_subcarrier_indices().len();
        // Protected channel at ~40 dB: must trigger reduction at L=27.
        let strong = CMatrix::from_vec(
            1,
            2,
            vec![nplus_linalg::c64(70.0, 0.0), nplus_linalg::c64(0.0, 70.0)],
        );
        let own_h = CMatrix::from_vec(
            2,
            2,
            vec![
                nplus_linalg::c64(3.0, 0.0),
                nplus_linalg::c64(0.0, 1.0),
                nplus_linalg::c64(1.0, -1.0),
                nplus_linalg::c64(2.0, 0.5),
            ],
        );
        let protected = LearnedReceiver {
            channels: vec![strong; n_sc],
            unwanted: vec![Subspace::zero(1); n_sc],
        };
        let own = LearnedReceiver {
            channels: vec![own_h; n_sc],
            unwanted: vec![Subspace::zero(2); n_sc],
        };
        let plan = plan_join(2, &[protected], &own, 1, 27.0).unwrap();
        match plan.power {
            JoinPowerDecision::Reduced { amplitude_factor } => {
                assert!(amplitude_factor < 1.0);
                // Precoders carry the reduced amplitude.
                let norm: f64 = plan.precoders[0][0].norm();
                assert!((norm - amplitude_factor).abs() < 1e-9);
            }
            other => panic!("expected power reduction, got {other:?}"),
        }
    }
}
