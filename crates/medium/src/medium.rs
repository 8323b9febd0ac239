//! The wireless medium: superposition of transmissions through MIMO
//! channels, observed with receiver noise.
//!
//! This is the simulated replacement for the paper's USRP2 radios and the
//! air between them. Design goals, in order: **physical consistency**
//! (time-domain convolution through the same taps the precoder sees in the
//! frequency domain), **determinism** (seeded noise, reproducible
//! captures), and **clarity** (an event-free sample-clock model — callers
//! schedule transmissions at absolute sample times and capture windows
//! wherever they like).
//!
//! Units: the sample clock runs at the channel bandwidth; signal
//! amplitudes are noise-normalized (receiver AWGN has unit power, so
//! `|h|² = SNR`).

use crate::node::{NodeId, NodeInfo};
use nplus_channel::cfo::apply_cfo;
use nplus_channel::mimo::MimoLink;
use nplus_channel::noise::noise_sample;
use nplus_linalg::Complex64;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// A transmission scheduled on the medium.
#[derive(Debug, Clone)]
pub struct Transmission {
    /// Transmitting node.
    pub from: NodeId,
    /// Absolute start sample.
    pub start: u64,
    /// One stream per transmit antenna (equal lengths).
    pub streams: Vec<Vec<Complex64>>,
    /// CFO pre-compensation the transmitter applies, in Hz (0 for the
    /// first contention winner; joiners set this to their estimated offset
    /// to the first winner, §4).
    pub cfo_precompensation_hz: f64,
}

impl Transmission {
    /// Length of the transmission in samples.
    pub(crate) fn len(&self) -> usize {
        self.streams.first().map_or(0, |s| s.len())
    }

    /// True when the transmission carries no samples.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The simulated wireless medium.
#[derive(Debug)]
pub struct Medium {
    nodes: Vec<NodeInfo>,
    /// Directed links keyed by (from, to). The reverse direction is
    /// always present and electromagnetically reciprocal.
    links: HashMap<(NodeId, NodeId), MimoLink>,
    transmissions: Vec<Transmission>,
    sample_rate_hz: f64,
    noise_power: f64,
    seed: u64,
}

impl Medium {
    /// Creates an empty medium with the given sample rate and noise seed.
    /// Receiver noise power is 1 (noise-normalized units).
    pub fn new(sample_rate_hz: f64, seed: u64) -> Self {
        Medium {
            nodes: Vec::new(),
            links: HashMap::new(),
            transmissions: Vec::new(),
            sample_rate_hz,
            noise_power: 1.0,
            seed,
        }
    }

    /// Overrides the receiver noise power (default 1.0). Setting 0
    /// disables noise — useful for isolating precoding residuals.
    // nplus:allow(VIS001): sets the SNR of the sample-level reference chain that tests/end_to_end.rs drives; the planned phy_check bin (ROADMAP.md) will call it
    pub fn set_noise_power(&mut self, power: f64) {
        self.noise_power = power;
    }

    /// Attaches a node with `n_antennas` antennas and an oscillator
    /// offset (Hz relative to nominal).
    pub fn add_node(&mut self, n_antennas: usize, oscillator_offset_hz: f64) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeInfo {
            id,
            n_antennas,
            oscillator_offset_hz,
        });
        id
    }

    /// Node metadata.
    pub fn node(&self, id: NodeId) -> &NodeInfo {
        &self.nodes[id.0]
    }

    /// Installs the channel between two nodes. The reverse direction is
    /// derived by reciprocity ([`MimoLink::reverse`]), so both directions
    /// stay consistent — the property n+'s distributed channel estimation
    /// relies on.
    pub fn set_link(&mut self, from: NodeId, to: NodeId, link: MimoLink) {
        assert_ne!(from, to, "no self-links");
        assert_eq!(
            link.n_tx(),
            self.node(from).n_antennas,
            "link tx antennas != node antennas"
        );
        assert_eq!(
            link.n_rx(),
            self.node(to).n_antennas,
            "link rx antennas != node antennas"
        );
        self.links.insert((to, from), link.reverse());
        self.links.insert((from, to), link);
    }

    /// The directed link between two nodes, if installed.
    pub fn link(&self, from: NodeId, to: NodeId) -> Option<&MimoLink> {
        self.links.get(&(from, to))
    }

    /// Iterates every installed directed link as `((from, to), link)`,
    /// in ascending `(from, to)` order. Sparse worlds install only the
    /// pairs above their power floor, so this is how consumers (the
    /// channel cache) visit the real link set without an all-pairs
    /// scan. The sort costs `O(E log E)` once per call — `links()` is a
    /// build-time walk, never on the per-sample capture path, which
    /// keeps the map itself a `HashMap` for its O(1) hot-path lookups.
    pub(crate) fn links(&self) -> impl Iterator<Item = ((NodeId, NodeId), &MimoLink)> {
        // nplus:allow(DET003): order is erased by the sort below.
        let mut entries: Vec<_> = self.links.iter().map(|(&k, v)| (k, v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries.into_iter()
    }

    /// Number of installed directed links (both directions counted).
    #[cfg(test)]
    pub(crate) fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Schedules a transmission. Streams must be one per antenna.
    pub fn transmit(&mut self, tx: Transmission) {
        assert_eq!(
            tx.streams.len(),
            self.node(tx.from).n_antennas,
            "transmit: stream count != antennas"
        );
        let len = tx.len();
        assert!(
            tx.streams.iter().all(|s| s.len() == len),
            "transmit: ragged stream lengths"
        );
        self.transmissions.push(tx);
    }

    /// Renders what node `at` observes over the window
    /// `[start, start + len)`: the superposition of every scheduled
    /// transmission (except the node's own — radios are half-duplex)
    /// propagated through its link, CFO-rotated by the oscillator
    /// difference, plus receiver AWGN.
    ///
    /// Returns one stream per receive antenna. Noise is deterministic in
    /// `(seed, at, start, len)` so experiments are reproducible.
    pub fn capture(&self, at: NodeId, start: u64, len: usize) -> Vec<Vec<Complex64>> {
        let rx_info = self.node(at);
        let mut out = vec![vec![Complex64::ZERO; len]; rx_info.n_antennas];

        for tx in &self.transmissions {
            if tx.from == at || tx.is_empty() {
                continue;
            }
            let Some(link) = self.links.get(&(tx.from, at)) else {
                continue; // out of range / not modeled
            };
            // Render the transmission through the channel once, then slice
            // the overlap. (Transmissions are short in these experiments;
            // if they grow, per-window convolution would be the upgrade.)
            let mut streams = tx.streams.clone();
            // Apply the effective CFO of this tx→rx pair: transmitter
            // oscillator minus its pre-compensation, relative to the
            // receiver's oscillator.
            let delta = self.node(tx.from).oscillator_offset_hz
                - tx.cfo_precompensation_hz
                - rx_info.oscillator_offset_hz;
            if delta != 0.0 {
                for s in streams.iter_mut() {
                    apply_cfo(s, delta, self.sample_rate_hz, tx.start);
                }
            }
            let rendered = link.apply(&streams);
            let tx_start = tx.start;
            let tx_end = tx_start + rendered[0].len() as u64;
            let w_start = start.max(tx_start);
            let w_end = (start + len as u64).min(tx_end);
            if w_start >= w_end {
                continue;
            }
            for ant in 0..rx_info.n_antennas {
                for t in w_start..w_end {
                    out[ant][(t - start) as usize] += rendered[ant][(t - tx_start) as usize];
                }
            }
        }

        // Deterministic receiver noise.
        if self.noise_power > 0.0 {
            let mut rng = self.capture_rng(at, start, len);
            for stream in out.iter_mut() {
                for z in stream.iter_mut() {
                    *z += noise_sample(self.noise_power, &mut rng);
                }
            }
        }
        out
    }

    fn capture_rng(&self, at: NodeId, start: u64, len: usize) -> StdRng {
        // Mix the capture coordinates into a per-capture seed.
        let mut h = self.seed;
        for v in [at.0 as u64 + 1, start ^ 0x9E37_79B9_7F4A_7C15, len as u64] {
            h ^= v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = h.rotate_left(31).wrapping_mul(0x94D0_49BB_1331_11EB);
        }
        StdRng::seed_from_u64(h)
    }
}

// Sweep workers hold media inside per-thread topologies; the type must
// stay `Send + Sync` (deterministic noise comes from per-capture seeding,
// not shared RNG state).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Medium>();
    assert_send_sync::<Transmission>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use nplus_channel::fading::DelayProfile;
    use nplus_linalg::c64;

    /// A single-tap (frequency-flat) 1×1 link and its complex gain.
    fn flat_link(amp: f64, seed: u64) -> (MimoLink, Complex64) {
        let one_tap = DelayProfile {
            n_taps: 1,
            decay_db_per_tap: 0.0,
            rician_k: 0.0,
        };
        let link = MimoLink::sample(1, 1, amp, &one_tap, &mut StdRng::seed_from_u64(seed));
        let gain = link.channel_matrix(0, 64).get(0, 0);
        (link, gain)
    }

    fn two_node_medium(amp: f64) -> (Medium, NodeId, NodeId, Complex64) {
        let mut m = Medium::new(10e6, 42);
        let a = m.add_node(1, 0.0);
        let b = m.add_node(1, 0.0);
        let (link, gain) = flat_link(amp, 1);
        m.set_link(a, b, link);
        (m, a, b, gain)
    }

    #[test]
    fn silent_medium_is_noise_only() {
        let (mut m, _, b, _) = two_node_medium(1.0);
        m.set_noise_power(1.0);
        let cap = m.capture(b, 0, 4000);
        let p = cap[0].iter().map(|z| z.norm_sqr()).sum::<f64>() / 4000.0;
        assert!((p - 1.0).abs() < 0.1, "noise power {p}");
    }

    #[test]
    fn transmission_arrives_scaled() {
        let (mut m, a, b, gain) = two_node_medium(3.0);
        m.set_noise_power(0.0);
        m.transmit(Transmission {
            from: a,
            start: 100,
            streams: vec![vec![c64(1.0, 0.0); 50]],
            cfo_precompensation_hz: 0.0,
        });
        let cap = m.capture(b, 100, 50);
        for z in &cap[0] {
            assert!(z.approx_eq(gain, 1e-12));
        }
        // Before and after the transmission: silence.
        let before = m.capture(b, 0, 100);
        assert!(before[0].iter().all(|z| z.abs() < 1e-12));
        let after = m.capture(b, 151, 50);
        assert!(after[0].iter().all(|z| z.abs() < 1e-12));
    }

    #[test]
    fn transmissions_superimpose() {
        let mut m = Medium::new(10e6, 1);
        let a = m.add_node(1, 0.0);
        let b = m.add_node(1, 0.0);
        let c = m.add_node(1, 0.0);
        let (ac, g1) = flat_link(1.0, 1);
        let (bc, g2) = flat_link(2.0, 2);
        m.set_link(a, c, ac);
        m.set_link(b, c, bc);
        m.set_noise_power(0.0);
        m.transmit(Transmission {
            from: a,
            start: 0,
            streams: vec![vec![c64(1.0, 0.0); 10]],
            cfo_precompensation_hz: 0.0,
        });
        m.transmit(Transmission {
            from: b,
            start: 5,
            streams: vec![vec![c64(0.0, 1.0); 10]],
            cfo_precompensation_hz: 0.0,
        });
        let cap = m.capture(c, 0, 15);
        let (x1, x2) = (g1, g2 * c64(0.0, 1.0));
        for t in 0..5 {
            assert!(cap[0][t].approx_eq(x1, 1e-12));
        }
        for t in 5..10 {
            assert!(cap[0][t].approx_eq(x1 + x2, 1e-12));
        }
        for t in 10..15 {
            assert!(cap[0][t].approx_eq(x2, 1e-12));
        }
    }

    #[test]
    fn half_duplex_own_transmission_invisible() {
        let (mut m, a, _, _) = two_node_medium(1.0);
        m.set_noise_power(0.0);
        m.transmit(Transmission {
            from: a,
            start: 0,
            streams: vec![vec![c64(1.0, 0.0); 10]],
            cfo_precompensation_hz: 0.0,
        });
        let cap = m.capture(a, 0, 10);
        assert!(cap[0].iter().all(|z| z.abs() < 1e-12));
    }

    #[test]
    fn captures_are_deterministic() {
        let (m, _, b, _) = two_node_medium(1.0);
        let c1 = m.capture(b, 0, 64);
        let c2 = m.capture(b, 0, 64);
        for (x, y) in c1[0].iter().zip(&c2[0]) {
            assert!(x.approx_eq(*y, 0.0));
        }
        // Different windows get different noise.
        let c3 = m.capture(b, 64, 64);
        let same = c1[0]
            .iter()
            .zip(&c3[0])
            .all(|(x, y)| x.approx_eq(*y, 1e-12));
        assert!(!same);
    }

    #[test]
    fn reciprocity_of_installed_links() {
        let mut m = Medium::new(10e6, 7);
        let a = m.add_node(2, 0.0);
        let b = m.add_node(3, 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        let link = MimoLink::sample(2, 3, 1.0, &DelayProfile::nlos(), &mut rng);
        m.set_link(a, b, link);
        let fwd = m.link(a, b).unwrap();
        let rev = m.link(b, a).unwrap();
        for k in [0usize, 13, 50] {
            let h = fwd.channel_matrix(k, 64);
            let hr = rev.channel_matrix(k, 64);
            assert!(hr.approx_eq(&h.hermitian().conj(), 1e-12));
        }
    }

    #[test]
    fn cfo_between_nodes_rotates_signal() {
        let mut m = Medium::new(10e6, 3);
        let a = m.add_node(1, 2_000.0); // +2 kHz oscillator
        let b = m.add_node(1, -1_000.0); // -1 kHz oscillator
        let (link, gain) = flat_link(1.0, 3);
        m.set_link(a, b, link.clone());
        m.set_noise_power(0.0);
        m.transmit(Transmission {
            from: a,
            start: 0,
            streams: vec![vec![c64(1.0, 0.0); 1000]],
            cfo_precompensation_hz: 0.0,
        });
        let cap = m.capture(b, 0, 1000);
        // Effective offset = 3 kHz: phase advances 2π·3e3/10e6 per sample.
        let expected_step = 2.0 * std::f64::consts::PI * 3000.0 / 10e6;
        let measured = (cap[0][500] * cap[0][499].conj()).arg();
        assert!(
            (measured - expected_step).abs() < 1e-9,
            "phase step {measured} vs {expected_step}"
        );
        // Pre-compensation cancels it.
        let mut m2 = Medium::new(10e6, 3);
        let a2 = m2.add_node(1, 2_000.0);
        let b2 = m2.add_node(1, -1_000.0);
        m2.set_link(a2, b2, link);
        m2.set_noise_power(0.0);
        m2.transmit(Transmission {
            from: a2,
            start: 0,
            streams: vec![vec![c64(1.0, 0.0); 100]],
            cfo_precompensation_hz: 3_000.0,
        });
        let cap2 = m2.capture(b2, 0, 100);
        for z in &cap2[0] {
            assert!(z.approx_eq(gain, 1e-9));
        }
    }

    #[test]
    fn overlap_oracle() {
        let (mut m, a, b, _) = two_node_medium(1.0);
        m.set_noise_power(0.0);
        m.transmit(Transmission {
            from: a,
            start: 100,
            streams: vec![vec![c64(1.0, 0.0); 50]],
            cfo_precompensation_hz: 0.0,
        });
        let hears = |m: &Medium, start: u64, len: usize| {
            m.capture(b, start, len)[0].iter().any(|z| z.abs() > 1e-12)
        };
        assert!(hears(&m, 120, 10));
        assert!(hears(&m, 90, 20));
        assert!(!hears(&m, 0, 100));
        assert!(!hears(&m, 150, 10));
    }

    #[test]
    #[should_panic(expected = "stream count")]
    fn wrong_stream_count_rejected() {
        let (mut m, a, _, _) = two_node_medium(1.0);
        m.transmit(Transmission {
            from: a,
            start: 0,
            streams: vec![vec![]; 2],
            cfo_precompensation_hz: 0.0,
        });
    }
}
