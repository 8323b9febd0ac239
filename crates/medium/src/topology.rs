//! Topology builder: wires a [`Medium`] from a propagation
//! environment.
//!
//! Given node antenna counts and a random placement draw, installs every
//! pairwise link with large-scale gain from the environment's path-loss
//! law and small-scale fading matched to the link's LOS/NLOS class — the
//! full "random assignment of nodes to locations in Fig. 10" methodology
//! the paper's experiments repeat per run. [`build_environment_topology`]
//! is the one entry point; the paper's world is
//! [`SIGCOMM11_INDOOR`](nplus_channel::environment::SIGCOMM11_INDOOR).

use crate::medium::Medium;
use crate::node::NodeId;
use nplus_channel::environment::{Environment, EnvironmentError};
use nplus_channel::mimo::MimoLink;
use nplus_channel::placement::{Location, Point, SpatialGrid, Testbed};
use rand::RngCore;

/// A built topology: the medium plus the placement that produced it.
#[derive(Debug)]
pub struct Topology {
    /// The wired medium.
    pub medium: Medium,
    /// Node ids in the same order as the antenna counts: `nodes[i] ==
    /// NodeId(i)`, so a node's position is its id (the channel cache
    /// indexes by it).
    pub nodes: Vec<NodeId>,
    /// The drawn locations per node.
    pub placements: Vec<Location>,
}

/// Draws a placement on `testbed` and wires links from the
/// environment's parameters: placement assignment
/// ([`Map::assign_placements`](nplus_channel::environment::Map::assign_placements),
/// the paper's shuffle outside the city), one oscillator draw per node,
/// then one loss draw (plus one fading draw for every materialized link)
/// per pair `(i, j)`, `i < j` ascending — a fixed consumption order, so
/// topologies are a pure function of `(environment, testbed, antennas,
/// seed, rng state)`.
///
/// Link storage is **sparse**: when the environment sets
/// [`link_floor_dbm`](Environment::link_floor_dbm), candidate pairs come
/// from a [`SpatialGrid`] at
/// [`max_link_range`](Environment::max_link_range) (all pairs when
/// `None`), each candidate gets its loss draw in the same ascending
/// order the dense loop uses, and only links whose received power
/// (`budget.tx_power_dbm` minus the loss) clears the floor get a fading
/// draw and a slot in the medium. With no floor the dense all-pairs
/// loop runs — bit-for-bit the pre-sparse wiring — and a floor set
/// below every link budget (with no range cutoff) reproduces it exactly
/// too, since the candidate set and draw order coincide.
///
/// `testbed` is passed explicitly (rather than taken from
/// [`Environment::testbed`]) so callers can override the map; resolve
/// it via the environment when no override is wanted. `sample_rate_hz`
/// sets the medium clock (10 MHz for the paper's profile); `seed` makes
/// the medium's noise draw reproducible.
///
/// # Errors
/// [`EnvironmentError::TooManyNodes`] when `testbed` has fewer
/// locations than `antennas.len()` (nothing is drawn from `rng` in
/// that case).
pub fn build_environment_topology(
    env: &Environment,
    testbed: &Testbed,
    antennas: &[usize],
    sample_rate_hz: f64,
    seed: u64,
    rng: &mut dyn RngCore,
) -> Result<Topology, EnvironmentError> {
    let n = antennas.len();
    let placements = env.map.assign_placements(testbed, n, rng)?;
    let mut medium = Medium::new(sample_rate_hz, seed);
    let nodes: Vec<NodeId> = antennas
        .iter()
        .map(|&ants| {
            let offset = env.oscillator.sample(rng);
            medium.add_node(ants, offset)
        })
        .collect();

    let wire = |i: usize, j: usize, medium: &mut Medium, rng: &mut dyn RngCore| {
        let d = placements[i].pos.distance(&placements[j].pos);
        let nlos = env
            .map
            .link_is_nlos(testbed, &placements[i], &placements[j]);
        let loss = env.path_loss.sample_loss_db(d, nlos, &mut &mut *rng);
        if let Some(floor) = env.link_floor_dbm {
            if env.budget.tx_power_dbm - loss < floor {
                return; // below the floor: no fading draw, no link
            }
        }
        let amp = env.budget.amplitude_scale(loss);
        let profile = if nlos { &env.nlos } else { &env.los };
        let link = MimoLink::sample(antennas[i], antennas[j], amp, profile, &mut &mut *rng);
        medium.set_link(nodes[i], nodes[j], link);
    };

    match env.link_floor_dbm.and(env.max_link_range) {
        Some(range) => {
            // Sparse construction: a grid index answers "who is within
            // range of i", ascending — same draw order as the dense
            // loop restricted to the candidate set.
            let points: Vec<Point> = placements.iter().map(|l| l.pos).collect();
            let grid = SpatialGrid::build(&points, range);
            for i in 0..n {
                for j in grid.neighbors_above(i, range) {
                    wire(i, j, &mut medium, rng);
                }
            }
        }
        None => {
            // Dense candidate set (also the floor-only sparse case).
            for i in 0..n {
                for j in (i + 1)..n {
                    wire(i, j, &mut medium, rng);
                }
            }
        }
    }

    Ok(Topology {
        medium,
        nodes,
        placements,
    })
}

// The parallel sweep engine builds and consumes topologies on scoped
// worker threads; keep the type thread-safe by construction (no interior
// mutability, no shared handles).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Topology>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use nplus_channel::environment::{environment_from_name, SIGCOMM11_INDOOR};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world(name: &str) -> &'static Environment {
        environment_from_name(name).expect("built-in world")
    }

    /// `antennas` placed in the paper's world on its 20-location map.
    fn indoor(antennas: &[usize], seed: u64) -> Topology {
        let tb = SIGCOMM11_INDOOR
            .testbed(antennas.len())
            .expect("fits the paper map");
        let mut rng = StdRng::seed_from_u64(seed);
        build_environment_topology(&SIGCOMM11_INDOOR, &tb, antennas, 10e6, seed, &mut rng)
            .expect("fits the paper map")
    }

    #[test]
    fn builds_fully_connected_topology() {
        let topo = indoor(&[1, 2, 3, 1], 5);
        assert_eq!(topo.nodes.len(), 4);
        assert_eq!(topo.placements.len(), 4);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert!(
                        topo.medium.link(topo.nodes[i], topo.nodes[j]).is_some(),
                        "missing link {i}->{j}"
                    );
                }
            }
        }
    }

    #[test]
    fn antenna_counts_respected() {
        let antennas = [1, 2, 3];
        let topo = indoor(&antennas, 9);
        for (i, &ants) in antennas.iter().enumerate() {
            assert_eq!(topo.medium.node(topo.nodes[i]).n_antennas, ants);
        }
        let l = topo.medium.link(topo.nodes[0], topo.nodes[2]).unwrap();
        assert_eq!(l.n_tx(), 1);
        assert_eq!(l.n_rx(), 3);
    }

    #[test]
    fn different_seeds_different_topologies() {
        let t1 = indoor(&[1, 1], 1);
        let t2 = indoor(&[1, 1], 2);
        let h1 = t1
            .medium
            .link(t1.nodes[0], t1.nodes[1])
            .unwrap()
            .channel_matrix(5, 64);
        let h2 = t2
            .medium
            .link(t2.nodes[0], t2.nodes[1])
            .unwrap()
            .channel_matrix(5, 64);
        assert!(!h1.approx_eq(&h2, 1e-9));
    }

    /// Distinct environments on the same seed draw distinct worlds.
    #[test]
    fn environments_change_the_world() {
        let antennas = vec![1, 2];
        let build = |env: &Environment| {
            let tb = env.testbed(antennas.len()).unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            build_environment_topology(env, &tb, &antennas, 10e6, 3, &mut rng).unwrap()
        };
        let indoor = build(&SIGCOMM11_INDOOR);
        let outdoor = build(world("outdoor"));
        let scatter = build(world("rich_scatter"));
        let h = |t: &Topology| {
            t.medium
                .link(t.nodes[0], t.nodes[1])
                .unwrap()
                .channel_matrix(5, 64)
        };
        assert!(!h(&indoor).approx_eq(&h(&outdoor), 1e-9));
        assert!(!h(&indoor).approx_eq(&h(&scatter), 1e-9));
        // Rich scatter's built links carry more delay taps than the
        // indoor world's — the deeper delay spread survives all the way
        // into the wired medium, not just the profile constant.
        let built_taps = |t: &Topology| {
            t.medium
                .link(t.nodes[0], t.nodes[1])
                .unwrap()
                .pair(0, 0)
                .taps
                .len()
        };
        assert!(
            built_taps(&scatter) > built_taps(&indoor),
            "rich scatter drew {} taps, indoor {}",
            built_taps(&scatter),
            built_taps(&indoor)
        );
    }

    /// An oversized scenario is an error, not a panic, and consumes no
    /// RNG.
    #[test]
    fn oversize_scenario_is_a_clean_error() {
        let antennas = vec![1; 41];
        let tb = SIGCOMM11_INDOOR.testbed(40).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let err = build_environment_topology(&SIGCOMM11_INDOOR, &tb, &antennas, 10e6, 0, &mut rng)
            .unwrap_err();
        assert_eq!(
            err,
            EnvironmentError::TooManyNodes {
                requested: 41,
                capacity: 40
            }
        );
        // The RNG was untouched: the next draw equals a fresh stream's.
        use rand::Rng;
        assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(0).gen::<u64>());
    }

    #[test]
    fn link_snrs_in_operating_range() {
        // Mean per-antenna SNR (|amplitude|² × unit fading energy) should
        // mostly fall in the paper's experimental range.
        let mut in_range = 0;
        let mut total = 0;
        for seed in 0..20u64 {
            let topo = indoor(&[1; 6], seed);
            for i in 0..6 {
                for j in (i + 1)..6 {
                    let amp = topo
                        .medium
                        .link(topo.nodes[i], topo.nodes[j])
                        .unwrap()
                        .amplitude();
                    let snr_db = 20.0 * amp.log10();
                    total += 1;
                    if (0.0..50.0).contains(&snr_db) {
                        in_range += 1;
                    }
                }
            }
        }
        assert!(
            in_range as f64 / total as f64 > 0.85,
            "only {in_range}/{total} links in range"
        );
    }

    /// The indoor world with a received-power floor bolted on — the
    /// test double for the sparse≡dense identity contract.
    fn floored_indoor(floor_dbm: f64) -> Environment {
        Environment {
            name: "floored_indoor",
            link_floor_dbm: Some(floor_dbm),
            ..SIGCOMM11_INDOOR
        }
    }

    /// With the floor set below every conceivable link budget (and no
    /// range cutoff), the sparse path visits the same candidates in the
    /// same order and draws identically — topologies are bit-for-bit
    /// the dense world's.
    #[test]
    fn floor_below_every_budget_is_dense_bitwise() {
        let antennas = vec![1, 2, 3, 2, 1, 2];
        let tb = SIGCOMM11_INDOOR.testbed(antennas.len()).unwrap();
        let sparse_env = floored_indoor(-1e9);
        for seed in 0..8u64 {
            let mut ra = StdRng::seed_from_u64(seed);
            let mut rb = StdRng::seed_from_u64(seed);
            let dense =
                build_environment_topology(&SIGCOMM11_INDOOR, &tb, &antennas, 10e6, seed, &mut ra)
                    .unwrap();
            let sparse =
                build_environment_topology(&sparse_env, &tb, &antennas, 10e6, seed, &mut rb)
                    .unwrap();
            for i in 0..antennas.len() {
                assert_eq!(
                    dense.placements[i].pos.x.to_bits(),
                    sparse.placements[i].pos.x.to_bits()
                );
                for j in 0..antennas.len() {
                    if i == j {
                        continue;
                    }
                    let hd = dense
                        .medium
                        .link(dense.nodes[i], dense.nodes[j])
                        .unwrap()
                        .channel_matrix(11, 64);
                    let hs = sparse
                        .medium
                        .link(sparse.nodes[i], sparse.nodes[j])
                        .unwrap()
                        .channel_matrix(11, 64);
                    assert!(hd.approx_eq(&hs, 0.0), "seed {seed} link {i}->{j}");
                }
            }
            // Both paths consumed the RNG identically.
            use rand::Rng;
            assert_eq!(ra.gen::<u64>(), rb.gen::<u64>());
        }
    }

    /// A high floor prunes links — and every skipped link costs exactly
    /// one loss draw (no fading), keeping the stream deterministic.
    #[test]
    fn floor_prunes_far_links_but_keeps_near_ones() {
        let antennas = vec![1; 12];
        let tb = SIGCOMM11_INDOOR.testbed(antennas.len()).unwrap();
        // 12 dBm tx - ~55 dB near-field loss keeps only short links.
        let env = floored_indoor(-68.0);
        let mut rng = StdRng::seed_from_u64(2);
        let topo = build_environment_topology(&env, &tb, &antennas, 10e6, 2, &mut rng).unwrap();
        let n_links = count_links(&topo);
        assert!(n_links < 12 * 11 / 2, "floor pruned nothing: {n_links}");
        // Determinism: same seed, same sparse world.
        let mut rng2 = StdRng::seed_from_u64(2);
        let topo2 = build_environment_topology(&env, &tb, &antennas, 10e6, 2, &mut rng2).unwrap();
        assert_eq!(n_links, count_links(&topo2));
    }

    /// The multi-cell city world builds a genuinely sparse medium: every
    /// station keeps its own AP, almost nobody keeps a link across town.
    #[test]
    fn multi_cell_topology_is_sparse_with_cells_intact() {
        let n = 64; // 8 cells of 1 AP + 7 stations
        let antennas: Vec<usize> = (0..n).map(|i| if i % 8 == 0 { 4 } else { 1 }).collect();
        let tb = world("multi_cell").testbed(n).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let topo =
            build_environment_topology(world("multi_cell"), &tb, &antennas, 10e6, 7, &mut rng)
                .unwrap();
        let n_links = count_links(&topo);
        assert!(
            n_links < n * (n - 1) / 4,
            "city world is not sparse: {n_links} of {} pairs",
            n * (n - 1) / 2
        );
        // Almost every station hears its own AP (a rare deep-shadowed
        // station is honestly disconnected — the engine skips it).
        let mut heard = 0;
        let mut stations = 0;
        for cell in 0..n / 8 {
            let ap = topo.nodes[cell * 8];
            for j in 1..8 {
                stations += 1;
                if topo.medium.link(topo.nodes[cell * 8 + j], ap).is_some() {
                    heard += 1;
                }
            }
        }
        assert!(
            heard * 10 >= stations * 9,
            "only {heard}/{stations} stations hear their AP"
        );
        // And some cross-cell interference survives the floor.
        let mut cross = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if i / 8 != j / 8 && topo.medium.link(topo.nodes[i], topo.nodes[j]).is_some() {
                    cross += 1;
                }
            }
        }
        assert!(cross > 0, "no cross-cell links at all");
    }

    fn count_links(topo: &Topology) -> usize {
        let n = topo.nodes.len();
        let mut count = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if topo.medium.link(topo.nodes[i], topo.nodes[j]).is_some() {
                    count += 1;
                }
            }
        }
        count
    }

    /// The new environments keep link SNRs in an operable band too.
    #[test]
    fn new_environment_snrs_in_operating_range() {
        for env in [world("outdoor"), world("rich_scatter")] {
            let antennas = vec![1; 8];
            let tb = env.testbed(8).unwrap();
            let mut in_range = 0;
            let mut total = 0;
            for seed in 0..10u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let topo =
                    build_environment_topology(env, &tb, &antennas, 10e6, seed, &mut rng).unwrap();
                for i in 0..8 {
                    for j in (i + 1)..8 {
                        let amp = topo
                            .medium
                            .link(topo.nodes[i], topo.nodes[j])
                            .unwrap()
                            .amplitude();
                        let snr_db = 20.0 * amp.log10();
                        total += 1;
                        if (0.0..50.0).contains(&snr_db) {
                            in_range += 1;
                        }
                    }
                }
            }
            assert!(
                in_range as f64 / total as f64 > 0.8,
                "{}: only {in_range}/{total} links in range",
                env.name
            );
        }
    }
}
