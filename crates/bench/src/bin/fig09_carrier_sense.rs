//! Fig. 9 — Performance of Carrier Sense in the Presence of Ongoing
//! Transmissions.
//!
//! Panel (a): the power profile a 3-antenna sensing node (tx3) observes
//! without and with projection, when a weak tx2 starts while a strong tx1
//! occupies the medium. The paper reports a 0.4 dB raw jump versus an
//! 8.5 dB jump after projection for its illustrative run.
//!
//! Panel (b): CDFs of the normalized preamble cross-correlation, without
//! and with projection, with tx2 silent versus transmitting at low SNR
//! (< 3 dB). The paper reports ~18% of "transmitting" correlations are
//! indistinguishable from "silent" without projection, and full
//! distinguishability with it.
//!
//! Run with: `cargo run --release --bin fig09_carrier_sense`

use nplus::carrier_sense::MultiDimCarrierSense;
use nplus_bench::support::print_cdf;
use nplus_channel::fading::DelayProfile;
use nplus_channel::mimo::MimoLink;
use nplus_linalg::{c64, CMatrix, Complex64};
use nplus_medium::medium::{Medium, Transmission};
use nplus_medium::NodeId;
use nplus_phy::params::OfdmConfig;
use nplus_phy::preamble::stf_time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fig. 6/9: a strong single-antenna tx1 occupying the medium, a weak
/// 2-antenna tx2 that may join, and a 3-antenna tx3 sensing through a
/// projection orthogonal to tx1's signal.
struct SensingTrio {
    /// The sample-level medium holding all three transmitters.
    medium: Medium,
    /// tx3's carrier-sense front end, pre-loaded with tx1's direction.
    sensor: MultiDimCarrierSense,
    /// Three-antenna node doing the sensing.
    tx3: NodeId,
}

/// Sample at which [`sensing_trio`]'s joiner starts transmitting.
const JOINER_START: u64 = 3000;

/// A complex white waveform of the given length and per-sample power.
fn random_waveform(len: usize, power: f64, rng: &mut StdRng) -> Vec<Complex64> {
    // Entries uniform in the unit square have E|z|^2 = 1/6; rescale to
    // the requested power.
    let scale = (6.0 * power).sqrt();
    (0..len)
        .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5).scale(scale))
        .collect()
}

/// Builds one sensing experiment: tx1 transmits a 6000-sample white
/// waveform from t=0; if `tx2_transmits`, tx2 sends an STF followed by
/// payload from [`JOINER_START`]. The sensor projects tx1's true
/// channel away (estimation accuracy is tested elsewhere).
fn sensing_trio(seed: u64, tx1_amp: f64, tx2_amp: f64, tx2_transmits: bool) -> SensingTrio {
    let cfg = OfdmConfig::usrp2();
    let mut medium = Medium::new(cfg.bandwidth_hz, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    let tx1 = medium.add_node(1, 0.0);
    let tx2 = medium.add_node(2, 0.0);
    let tx3 = medium.add_node(3, 0.0);
    medium.set_link(
        tx1,
        tx3,
        MimoLink::sample(1, 3, tx1_amp, &DelayProfile::los(), &mut rng),
    );
    medium.set_link(
        tx2,
        tx3,
        MimoLink::sample(2, 3, tx2_amp, &DelayProfile::nlos(), &mut rng),
    );

    // tx1: continuous random payload (per-sample power 2.0) from t=0.
    let wave = random_waveform(6000, 2.0, &mut rng);
    medium.transmit(Transmission {
        from: tx1,
        start: 0,
        streams: vec![wave],
        cfo_precompensation_hz: 0.0,
    });

    if tx2_transmits {
        let stf = stf_time(&cfg);
        let mut streams = vec![stf.clone(), vec![Complex64::ZERO; stf.len()]];
        // Fill after the preamble with payload on both antennas.
        for s in streams.iter_mut() {
            s.extend(random_waveform(2000, 1.0, &mut rng));
        }
        medium.transmit(Transmission {
            from: tx2,
            start: JOINER_START,
            streams,
            cfo_precompensation_hz: 0.0,
        });
    }

    let h: Vec<CMatrix> = medium.link(tx1, tx3).unwrap().channel_matrices(cfg.fft_len);
    let sensor = MultiDimCarrierSense::from_ongoing(3, cfg, &[h]);
    SensingTrio {
        medium,
        sensor,
        tx3,
    }
}

fn main() {
    let cfg = OfdmConfig::usrp2();
    println!("== Fig. 9(a): sensing power, without and with projection ==");
    println!(
        "tx1 strong (~21 dB at tx3), tx2 weak (~8 dB at tx3); tx2 starts at sample {JOINER_START}\n"
    );

    let SensingTrio {
        medium,
        sensor,
        tx3,
    } = sensing_trio(42, 12.0, 2.5, true);
    println!(
        "{:>10} {:>14} {:>14}",
        "window", "raw power", "projected power"
    );
    for (label, start) in [("before", 1024u64), ("after", 3400u64)] {
        let cap = medium.capture(tx3, start, 512);
        println!(
            "{label:>10} {:>14.2} {:>14.2}",
            MultiDimCarrierSense::raw_power(&cap),
            sensor.sense_power(&cap)
        );
    }
    let raw_jump = {
        let b = MultiDimCarrierSense::raw_power(&medium.capture(tx3, 1024, 512));
        let a = MultiDimCarrierSense::raw_power(&medium.capture(tx3, 3400, 512));
        10.0 * (a / b).log10()
    };
    let proj_jump = {
        let b = sensor.sense_power(&medium.capture(tx3, 1024, 512));
        let a = sensor.sense_power(&medium.capture(tx3, 3400, 512));
        10.0 * (a / b).log10()
    };
    println!("\npower jump when tx2 starts: raw {raw_jump:.1} dB   projected {proj_jump:.1} dB");
    println!("(paper's illustrative run: 0.4 dB raw vs 8.5 dB projected)\n");

    // Panel (b): correlation CDFs at low SNR.
    println!("== Fig. 9(b): preamble cross-correlation CDFs (tx2 SNR < 3 dB) ==");
    let stf = stf_time(&cfg);
    // 802.11 cross-correlates all ten short symbols of the STF.
    let template = &stf[..160];
    let trials = 200;
    let mut raw_silent = Vec::with_capacity(trials);
    let mut raw_tx = Vec::with_capacity(trials);
    let mut proj_silent = Vec::with_capacity(trials);
    let mut proj_tx = Vec::with_capacity(trials);
    let mut rng = StdRng::seed_from_u64(9);
    for t in 0..trials as u64 {
        // tx2 amplitude: SNR uniform in [0, 3] dB.
        let snr_db = rng.gen::<f64>() * 3.0;
        let amp2 = 10f64.powf(snr_db / 20.0);
        let with_tx2 = sensing_trio(1000 + t, 8.0, amp2, true);
        let silent = sensing_trio(1000 + t, 8.0, amp2, false);
        // Window covering tx2's (potential) STF.
        let cap_tx = with_tx2.medium.capture(tx3, JOINER_START, 320);
        let cap_si = silent.medium.capture(tx3, JOINER_START, 320);
        raw_tx.push(MultiDimCarrierSense::detect_preamble_raw(&cap_tx, template));
        raw_silent.push(MultiDimCarrierSense::detect_preamble_raw(&cap_si, template));
        proj_tx.push(with_tx2.sensor.detect_preamble(&cap_tx, template));
        proj_silent.push(silent.sensor.detect_preamble(&cap_si, template));
    }

    print_cdf("raw correlation, tx2 silent", &mut raw_silent.clone());
    print_cdf("raw correlation, tx2 transmitting", &mut raw_tx.clone());
    print_cdf(
        "projected correlation, tx2 silent",
        &mut proj_silent.clone(),
    );
    print_cdf(
        "projected correlation, tx2 transmitting",
        &mut proj_tx.clone(),
    );

    // Distinguishability: fraction of "transmitting" samples below the
    // 95th percentile of the matching "silent" distribution.
    let p95 = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v[(0.95 * (v.len() - 1) as f64) as usize]
    };
    let raw_thresh = p95(&mut raw_silent);
    let proj_thresh = p95(&mut proj_silent);
    let raw_missed =
        raw_tx.iter().filter(|&&c| c < raw_thresh).count() as f64 / raw_tx.len() as f64;
    let proj_missed =
        proj_tx.iter().filter(|&&c| c < proj_thresh).count() as f64 / proj_tx.len() as f64;
    println!("\n== distinguishability ==");
    println!(
        "non-distinguishable without projection: {:.0}%   (paper: ~18%)",
        100.0 * raw_missed
    );
    println!(
        "non-distinguishable with projection:    {:.0}%   (paper: ~0%)",
        100.0 * proj_missed
    );
}
