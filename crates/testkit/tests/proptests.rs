//! Property tests owned by the testkit itself: they exercise the shared
//! strategies against the core invariants every suite leans on —
//! precoder nulling depth, deterministic handshake encoding, and the
//! channel-cache layer matching direct evaluation bit for bit.

use nplus::handshake::encode_alignment_space;
use nplus::precoder::{compute_precoders, residual_interference, OwnReceiver, ProtectedReceiver};
use nplus_channel::environment::SIGCOMM11_INDOOR;
use nplus_channel::fading::DelayProfile;
use nplus_channel::freq_table::FreqResponseTable;
use nplus_channel::mimo::MimoLink;
use nplus_linalg::{rank, CMatrix, CMatrixRef, Subspace};
use nplus_medium::chancache::ChannelCache;
use nplus_medium::topology::build_environment_topology;
use nplus_phy::params::occupied_subcarrier_indices;
use nplus_testkit::strategies::{complex_matrix, complex_vector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The top-left `rows × cols` block of `a`.
fn top_left(a: &CMatrix, rows: usize, cols: usize) -> CMatrix {
    CMatrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|k| a.get(k / cols, k % cols))
            .collect(),
    )
}

/// `cached` equals `direct` bit for bit: same shape, and every entry's
/// real and imaginary parts have the same `to_bits`.
fn same_bits(cached: CMatrixRef<'_>, direct: &CMatrix) -> bool {
    cached.shape() == direct.shape()
        && (0..direct.rows()).all(|i| {
            (0..direct.cols()).all(|j| {
                let (c, d) = (cached.get(i, j), direct.get(i, j));
                c.re.to_bits() == d.re.to_bits() && c.im.to_bits() == d.im.to_bits()
            })
        })
}

const NULL_TOL: f64 = 1e-16;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every joiner antenna count m ≥ 2, nulling at a single-antenna
    /// receiver leaves residual interference below tolerance while the
    /// joiner's own receiver keeps a usable signal.
    #[test]
    fn nulling_residual_below_tolerance(
        m in 2usize..5,
        seed_protected in complex_matrix(1, 4),
        seed_own in complex_matrix(4, 4),
    ) {
        let h_protected = top_left(&seed_protected, 1, m);
        let h_own = top_left(&seed_own, m, m);
        prop_assume!(rank(&h_protected, Some(1e-6)) == 1);
        prop_assume!(rank(&h_own, Some(1e-6)) == m);
        let p = compute_precoders(
            m,
            &[ProtectedReceiver::nulling(h_protected.clone())],
            &[OwnReceiver { channel: h_own.clone(), n_streams: 1, unwanted: Subspace::zero(m) }],
        ).unwrap();
        let leak = residual_interference(&h_protected, &Subspace::zero(1), &p.vectors[0]);
        prop_assert!(leak < NULL_TOL, "leak {leak} at m={m}");
        prop_assert!(h_own.mul_vec(&p.vectors[0]).norm_sqr() > 1e-8);
    }

    /// Nulling at a protected receiver never costs the precoder its unit
    /// power budget: the streams still sum to power 1.
    #[test]
    fn nulling_respects_power_budget(
        h1 in complex_matrix(1, 3),
        h_own in complex_matrix(3, 3),
        n_streams in 1usize..3,
    ) {
        prop_assume!(rank(&h1, Some(1e-6)) == 1);
        prop_assume!(rank(&h_own, Some(1e-6)) == 3);
        let p = compute_precoders(
            3,
            &[ProtectedReceiver::nulling(h1)],
            &[OwnReceiver { channel: h_own, n_streams, unwanted: Subspace::zero(3) }],
        ).unwrap();
        let total: f64 = p.vectors.iter().map(|v| v.norm_sqr()).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "total power {total}");
    }

    /// Encoding is deterministic: the same spaces produce the same blob,
    /// so a retransmitted handshake is bit-identical.
    #[test]
    fn handshake_encoding_deterministic(
        dirs in proptest::collection::vec(complex_vector(2), 1..20),
    ) {
        let spaces: Vec<Subspace> = dirs
            .iter()
            .filter(|d| d.norm() > 0.15)
            .map(|d| Subspace::span(2, std::slice::from_ref(d)))
            .collect();
        prop_assume!(!spaces.is_empty());
        prop_assert_eq!(encode_alignment_space(&spaces), encode_alignment_space(&spaces));
    }

    /// `FreqResponseTable` matches direct `channel_matrix` evaluation bit
    /// for bit on random links of every antenna shape and delay profile.
    #[test]
    fn freq_table_matches_direct_evaluation(
        seed in 0u64..1_000_000,
        n_tx in 1usize..5,
        n_rx in 1usize..5,
        nlos in any::<bool>(),
        amp in 0.1f64..40.0,
    ) {
        let profile = if nlos { DelayProfile::nlos() } else { DelayProfile::los() };
        let mut rng = StdRng::seed_from_u64(seed);
        let link = MimoLink::sample(n_tx, n_rx, amp, &profile, &mut rng);
        let bins = occupied_subcarrier_indices();
        let table = FreqResponseTable::new(&link, &bins, 64);
        for (pos, &k) in bins.iter().enumerate() {
            let direct = link.channel_matrix(k, 64);
            prop_assert!(
                same_bits(table.matrix(pos), &direct),
                "bin {} mismatch", k
            );
        }
    }

    /// `ChannelCache` serves the same matrices, bit for bit, as walking
    /// the topology's links directly, for every directed pair and
    /// occupied subcarrier.
    #[test]
    fn channel_cache_matches_topology_links(seed in 0u64..100_000) {
        let antennas = vec![1, 2, 3];
        let tb = SIGCOMM11_INDOOR.testbed(antennas.len()).expect("fits the paper map");
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = build_environment_topology(&SIGCOMM11_INDOOR, &tb, &antennas, 10e6, seed, &mut rng)
            .expect("fits the paper map");
        let bins = occupied_subcarrier_indices();
        let cache = ChannelCache::build(&topo, &bins, 64);
        for from in 0..antennas.len() {
            for to in 0..antennas.len() {
                if from == to { continue; }
                let link = topo.medium.link(topo.nodes[from], topo.nodes[to]).unwrap();
                for (pos, &k) in bins.iter().enumerate() {
                    let cached = cache.matrix(from, to, pos);
                    prop_assert!(cached.is_some(), "dense link {}->{} missing from cache", from, to);
                    prop_assert!(
                        same_bits(cached.unwrap(), &link.channel_matrix(k, 64)),
                        "link {}->{} bin {}", from, to, k
                    );
                }
            }
        }
    }
}
