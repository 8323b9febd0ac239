//! Join power control (paper §4, "Imperfections in Nulling and
//! Alignment").
//!
//! Practical nulling/alignment reduces interference by a finite depth
//! `L` dB (measured 25–27 dB on the paper's hardware). A joiner therefore
//! only helps the network if its *pre-cancellation* interference power at
//! every protected receiver is at most `L` dB above the noise floor —
//! then the residual after cancellation lands below the noise and is
//! harmless. n+ enforces this by:
//!
//! 1. estimating the interference power its signal would have at each
//!    protected receiver (it knows the channels via reciprocity);
//! 2. if any exceeds `L`, scaling its transmit power down so the worst
//!    one equals `L` — it contends (and transmits) at that lower power.

use nplus_linalg::CMatrix;

/// The protocol's cancellation-depth parameter, dB — re-exported from
/// the environment layer, which owns the single definition shared with
/// [`Environment::join_power_l_db`](nplus_channel::environment::Environment::join_power_l_db).
pub use nplus_channel::environment::DEFAULT_L_DB;

/// Interference power (linear, relative to noise) that a unit-total-power
/// transmission from an `M`-antenna transmitter would create at a
/// receiver with believed channel `h` (`N × M`), before any precoding:
/// the average over transmit directions, `‖H‖_F² / M`.
// nplus:allow(VIS001): the golden tests/kernel_regression.rs pins its output
pub fn expected_interference_power(h: &CMatrix) -> f64 {
    let m = h.cols().max(1);
    h.frobenius_norm().powi(2) / m as f64
}

/// Decision for a prospective joiner facing one protected receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
// nplus:allow(VIS001): the type of the public field `JoinPlan::power`
pub enum JoinPowerDecision {
    /// Full power is fine: pre-cancellation interference is already below
    /// `L` dB over noise.
    FullPower,
    /// Join at reduced power: multiply the transmit amplitude by this
    /// factor (< 1) so the worst protected receiver sees exactly `L` dB.
    Reduced {
        /// Amplitude scaling factor in (0, 1).
        amplitude_factor: f64,
    },
}

impl JoinPowerDecision {
    /// The amplitude multiplier to apply (1.0 for full power).
    pub(crate) fn amplitude(&self) -> f64 {
        match self {
            JoinPowerDecision::FullPower => 1.0,
            JoinPowerDecision::Reduced { amplitude_factor } => *amplitude_factor,
        }
    }
}

/// Evaluates the join-power rule against every protected receiver.
///
/// `believed_channels` are the joiner's beliefs about its channels to the
/// protected receivers (noise-normalized units: `|h|² = SNR`);
/// `l_db` is the cancellation depth.
pub(crate) fn join_power_decision(believed_channels: &[&CMatrix], l_db: f64) -> JoinPowerDecision {
    let worst = believed_channels
        .iter()
        .map(|h| expected_interference_power(h))
        .fold(0.0f64, f64::max);
    join_power_decision_from_worst(worst, l_db)
}

/// The §4 rule applied to an already-reduced worst-case interference
/// power. Callers that fold `worst` incrementally (the engine's pooled
/// join planner, which never materializes a channel list) share the exact
/// threshold/scaling arithmetic of [`join_power_decision`] through this.
pub(crate) fn join_power_decision_from_worst(worst: f64, l_db: f64) -> JoinPowerDecision {
    let l_lin = 10f64.powf(l_db / 10.0);
    if worst <= l_lin {
        JoinPowerDecision::FullPower
    } else {
        JoinPowerDecision::Reduced {
            amplitude_factor: (l_lin / worst).sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nplus_linalg::c64;
    use nplus_testkit::strategies::complex_matrix;

    fn channel_with_power(snr_db: f64, n: usize, m: usize) -> CMatrix {
        // Uniform-magnitude entries with total expected interference =
        // requested SNR.
        let per_entry = (10f64.powf(snr_db / 10.0) * m as f64 / (n * m) as f64).sqrt();
        CMatrix::from_vec(n, m, vec![c64(per_entry, 0.0); n * m])
    }

    #[test]
    fn weak_interferer_keeps_full_power() {
        let h = channel_with_power(15.0, 1, 2); // 15 dB < 27 dB
        let d = join_power_decision(&[&h], DEFAULT_L_DB);
        assert_eq!(d, JoinPowerDecision::FullPower);
        assert_eq!(d.amplitude(), 1.0);
    }

    #[test]
    fn strong_interferer_reduces_power() {
        let h = channel_with_power(35.0, 2, 3); // 35 dB > 27 dB
        let d = join_power_decision(&[&h], DEFAULT_L_DB);
        match d {
            JoinPowerDecision::Reduced { amplitude_factor } => {
                // Power reduction of 8 dB → amplitude factor 10^(-8/20).
                let expect = 10f64.powf(-8.0 / 20.0);
                assert!(
                    (amplitude_factor - expect).abs() < 1e-9,
                    "factor {amplitude_factor} vs {expect}"
                );
            }
            other => panic!("expected reduction, got {other:?}"),
        }
    }

    #[test]
    fn worst_receiver_governs() {
        let weak = channel_with_power(10.0, 1, 2);
        let strong = channel_with_power(40.0, 1, 2);
        let d = join_power_decision(&[&weak, &strong], DEFAULT_L_DB);
        // 40 dB - 27 dB = 13 dB reduction.
        assert!((20.0 * d.amplitude().log10() + 13.0).abs() < 1e-9);
    }

    #[test]
    fn residual_lands_at_or_below_noise() {
        for snr_db in [10.0, 20.0, 27.0, 30.0, 45.0] {
            let h = channel_with_power(snr_db, 1, 1);
            let pre = expected_interference_power(&h);
            let d = join_power_decision(&[&h], DEFAULT_L_DB);
            // Post-cancellation residual: scaled power, suppressed by `L`.
            let resid = pre * d.amplitude().powi(2) * 10f64.powf(-DEFAULT_L_DB / 10.0);
            assert!(
                resid <= 1.0 + 1e-9,
                "residual {resid} above noise at {snr_db} dB"
            );
        }
    }

    #[test]
    fn expected_power_accounts_for_antennas() {
        // 2x2 all-ones channel: ‖H‖² = 4, per-stream power 1/2 → 2.
        let h = CMatrix::from_vec(2, 2, vec![c64(1.0, 0.0); 4]);
        assert!((expected_interference_power(&h) - 2.0).abs() < 1e-12);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// The join-power rule always leaves post-cancellation residuals at or
        /// below the noise floor.
        #[test]
        fn power_control_invariant(h in complex_matrix(2, 3), l_db in 15.0f64..35.0) {
            let pre = expected_interference_power(&h);
            let d = join_power_decision(&[&h], l_db);
            // Post-cancellation residual: scaled power, suppressed by `L`.
            let resid = pre * d.amplitude().powi(2) * 10f64.powf(-l_db / 10.0);
            proptest::prop_assert!(resid <= 1.0 + 1e-9, "residual {resid}");
            proptest::prop_assert!(d.amplitude() > 0.0 && d.amplitude() <= 1.0);
        }
    }
}
