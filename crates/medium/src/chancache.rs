//! Per-topology cache of pure channel frequency responses.
//!
//! A [`ChannelCache`] holds one [`FreqResponseTable`] per **installed**
//! directed node pair of a built [`Topology`], keyed by the node's
//! *position* in the topology's node list (the same index the protocol
//! simulator's scenarios use). Storage is sparse — a map over the
//! medium's real link set — so city-scale worlds that materialize only
//! links above their power floor pay for the links they have, not the
//! `n²` table a dense `Vec` would allocate. Only the **pure true
//! channels** are cached — they are deterministic functions of the
//! drawn taps — while believed channels (hardware error) keep drawing
//! from the caller's RNG on every lookup, so seeded simulations stay
//! bit-for-bit identical with and without the cache.
//!
//! A build walks the medium's links once, evaluates the DFT twiddles
//! once ([`Twiddles`], sized to the longest FIR in the topology), and
//! every link reads the prefix it needs. Each table keeps all its bins
//! in one split-storage buffer, so a link costs three allocations: the
//! table's real and imaginary halves and its [`Arc`]. Lookups borrow a
//! bin's matrix from that buffer as a [`CMatrixRef`].
//!
//! Tables are copy-on-write. A [`Clone`] of the cache copies the key
//! list and the map of [`Arc`] pointers and shares every table buffer;
//! [`ChannelCache::set_table`] swaps in a fresh table for its link
//! without touching the one other clones still share — so a mobility
//! run's working copy costs one pointer per link plus the links it
//! rescales.
//!
//! Lookups are fallible by design: [`ChannelCache::matrix`] returns
//! `None` for an absent link instead of panicking, and the engine
//! treats that as "below the floor" (nothing sensed, nothing
//! delivered).

use crate::topology::Topology;
use nplus_channel::freq_table::{FreqResponseTable, Twiddles};
use nplus_linalg::CMatrixRef;
use std::collections::HashMap;
use std::sync::Arc;

/// Cached per-subcarrier channel matrices for every installed directed
/// link of a topology. Cloning shares the tables (see the module docs).
#[derive(Debug, Clone)]
pub struct ChannelCache {
    /// One table per installed directed link, keyed by `(from, to)`
    /// node positions. Absent key = link below the environment's floor
    /// (or the diagonal). Shared between clones; never written through.
    tables: HashMap<(usize, usize), Arc<FreqResponseTable>>,
    /// The table keys in ascending order — [`ChannelCache::links`]
    /// iterates this, never the map, so link walks are deterministic
    /// while lookups stay O(1) on the hash map.
    keys: Vec<(usize, usize)>,
}

impl ChannelCache {
    /// Evaluates every installed directed link of `topo` on the given
    /// FFT `bins` of an `n_fft` grid (one pass over each link's taps,
    /// against one twiddle table shared by all links). Visits the
    /// medium's sparse link set directly — cost scales with links
    /// installed, not nodes squared.
    pub fn build(topo: &Topology, bins: &[usize], n_fft: usize) -> Self {
        let index: HashMap<_, _> = topo
            .nodes
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        // One walk of the medium's sorted link list serves both the
        // twiddle size and the tables.
        let links: Vec<_> = topo.medium.links().collect();
        let n_taps = links
            .iter()
            .map(|(_, link)| link.max_taps())
            .max()
            .unwrap_or(1);
        let twiddles = Twiddles::new(bins, n_fft, n_taps);
        let mut tables = HashMap::with_capacity(links.len());
        let mut keys = Vec::with_capacity(links.len());
        for &((from, to), link) in &links {
            let (Some(&fi), Some(&ti)) = (index.get(&from), index.get(&to)) else {
                continue; // link between nodes outside this topology's list
            };
            let table = FreqResponseTable::with_twiddles(link, &twiddles);
            tables.insert((fi, ti), Arc::new(table));
            keys.push((fi, ti));
        }
        // The medium iterates in NodeId order; positions may permute
        // that, so sort once here (O(E log E) at build, free afterward).
        keys.sort_unstable();
        ChannelCache { tables, keys }
    }

    /// The cached table of the directed link `from → to` (node positions
    /// in the topology's node list), if that link is modeled.
    pub fn table(&self, from: usize, to: usize) -> Option<&FreqResponseTable> {
        self.tables.get(&(from, to)).map(|t| &**t)
    }

    /// The cached channel matrix of link `from → to` at bin position
    /// `pos` (index into the `bins` slice the cache was built with),
    /// borrowed from the link's table.
    ///
    /// `None` when the link is not modeled — in sparse worlds that
    /// means "below the environment's power floor", and consumers skip
    /// the link instead of panicking.
    pub fn matrix(&self, from: usize, to: usize, pos: usize) -> Option<CMatrixRef<'_>> {
        self.table(from, to).map(|t| t.matrix(pos))
    }

    /// Number of cached directed links (both directions counted) — the
    /// sparsity observable city-scale tests assert on.
    pub fn n_links(&self) -> usize {
        self.tables.len()
    }

    /// Iterates the cached directed link keys `(from, to)` in ascending
    /// order. Mobility uses this to find the links incident to a moved
    /// node without scanning `n²` pairs; the sorted key list makes the
    /// walk deterministic regardless of hash-map layout.
    pub fn links(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.keys.iter().copied()
    }

    /// Replaces (or installs) the table of the directed link
    /// `from → to`. Mobility rescales moved links through this; a
    /// genuinely new key binary-search-inserts into the sorted key
    /// list, so [`ChannelCache::links`] order survives installs. The
    /// new table goes in behind a fresh [`Arc`]: clones that shared the
    /// old one keep it unchanged.
    pub fn set_table(&mut self, from: usize, to: usize, table: FreqResponseTable) {
        if self.tables.insert((from, to), Arc::new(table)).is_none() {
            let at = self.keys.partition_point(|&k| k < (from, to));
            self.keys.insert(at, (from, to));
        }
    }
}

// One channel cache is read by every protocol run of a sweep job; the
// parallel engine requires it to be shareable across scoped threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ChannelCache>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::build_environment_topology;
    use nplus_channel::environment::{environment_from_name, Environment, SIGCOMM11_INDOOR};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn multi_cell() -> &'static Environment {
        environment_from_name("multi_cell").expect("built-in world")
    }

    fn built() -> Topology {
        let tb = SIGCOMM11_INDOOR.testbed(3).expect("fits the paper map");
        let mut rng = StdRng::seed_from_u64(5);
        build_environment_topology(&SIGCOMM11_INDOOR, &tb, &[1, 2, 3], 10e6, 5, &mut rng)
            .expect("fits the paper map")
    }

    /// Every cached matrix equals the medium's direct evaluation bit
    /// for bit, and the cache holds a link exactly when the medium does.
    fn assert_cache_matches_medium(topo: &Topology, cache: &ChannelCache, bins: &[usize]) {
        let n = topo.nodes.len();
        for from in 0..n {
            for to in 0..n {
                let link = if from == to {
                    None
                } else {
                    topo.medium.link(topo.nodes[from], topo.nodes[to])
                };
                assert_eq!(
                    cache.table(from, to).is_some(),
                    link.is_some(),
                    "link {from}->{to}: cache and medium disagree on presence"
                );
                for (pos, &k) in bins.iter().enumerate() {
                    let cached = cache.matrix(from, to, pos);
                    assert_eq!(
                        cached.is_some(),
                        link.is_some(),
                        "link {from}->{to} bin {k}"
                    );
                    let (Some(cached), Some(link)) = (cached, link) else {
                        continue;
                    };
                    let direct = link.channel_matrix(k, 64);
                    assert_eq!(cached.shape(), (direct.rows(), direct.cols()));
                    for i in 0..direct.rows() {
                        for j in 0..direct.cols() {
                            let (c, d) = (cached.get(i, j), direct.get(i, j));
                            assert!(
                                c.re.to_bits() == d.re.to_bits()
                                    && c.im.to_bits() == d.im.to_bits(),
                                "link {from}->{to} bin {k} entry ({i},{j}): {c:?} vs {d:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matches_direct_channel_matrix() {
        let topo = built();
        let bins: Vec<usize> = (1..60).step_by(7).collect();
        let cache = ChannelCache::build(&topo, &bins, 64);
        assert_cache_matches_medium(&topo, &cache, &bins);
        // Dense world: all n(n-1) directed links cached.
        assert_eq!(cache.n_links(), 6);

        // Sparse world: the floored multi-cell city caches exactly the
        // installed links, each bit for bit.
        let n = 32;
        let antennas: Vec<usize> = (0..n).map(|i| if i % 8 == 0 { 2 } else { 1 }).collect();
        let tb = multi_cell().testbed(n).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let topo =
            build_environment_topology(multi_cell(), &tb, &antennas, 10e6, 3, &mut rng).unwrap();
        let cache = ChannelCache::build(&topo, &bins, 64);
        assert!(
            cache.n_links() < n * (n - 1),
            "city world unexpectedly dense"
        );
        assert_cache_matches_medium(&topo, &cache, &bins);
    }

    #[test]
    fn table_shapes_follow_antenna_counts() {
        let topo = built();
        let bins = vec![0usize, 10];
        let cache = ChannelCache::build(&topo, &bins, 64);
        assert_eq!(cache.table(0, 2).unwrap().n_bins(), 2);
        // 1-antenna node 0 transmitting to 3-antenna node 2: 3×1.
        assert_eq!(cache.matrix(0, 2, 0).unwrap().shape(), (3, 1));
        assert_eq!(cache.matrix(2, 0, 0).unwrap().shape(), (1, 3));
    }

    /// `links()` iterates in ascending key order, and installing a new
    /// table through `set_table` keeps that order — the walk mobility
    /// does every epoch is deterministic by construction (DET003).
    #[test]
    fn link_keys_iterate_sorted_and_survive_installs() {
        let topo = built();
        let bins = vec![0usize, 10];
        let mut cache = ChannelCache::build(&topo, &bins, 64);
        let keys: Vec<_> = cache.links().collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "build must leave keys sorted");
        assert_eq!(keys.len(), 6);
        // Replacing an existing table must not duplicate its key;
        // installing a brand-new one must land in sorted position.
        let table = cache.table(0, 1).unwrap().clone();
        cache.set_table(2, 1, table.clone());
        assert_eq!(cache.links().count(), 6);
        cache.set_table(0, 0, table);
        let keys: Vec<_> = cache.links().collect();
        assert_eq!(keys.first(), Some(&(0, 0)));
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "set_table must keep keys sorted");
    }

    /// Copy-on-write: a clone shares every table, and `set_table` on
    /// the clone replaces only that link's pointer — the original keeps
    /// its table bit for bit, and every other link stays shared.
    #[test]
    fn set_table_on_a_clone_never_reaches_the_original() {
        let topo = built();
        let bins: Vec<usize> = (1..60).step_by(7).collect();
        let original = ChannelCache::build(&topo, &bins, 64);
        let mut clone = original.clone();
        for key in original.links() {
            assert!(Arc::ptr_eq(&original.tables[&key], &clone.tables[&key]));
        }
        let before = original.table(0, 1).unwrap().clone();
        clone.set_table(0, 1, before.scaled(0.25));
        assert!(!Arc::ptr_eq(
            &original.tables[&(0, 1)],
            &clone.tables[&(0, 1)]
        ));
        for key in original.links().filter(|&k| k != (0, 1)) {
            assert!(
                Arc::ptr_eq(&original.tables[&key], &clone.tables[&key]),
                "link {key:?} no longer shared"
            );
        }
        // The original still equals direct evaluation bit for bit.
        assert_cache_matches_medium(&topo, &original, &bins);
        assert_ne!(
            clone.matrix(0, 1, 0).unwrap().get(0, 0),
            original.matrix(0, 1, 0).unwrap().get(0, 0)
        );
    }

    /// In a floored world the cache stores only what the medium
    /// installed, and absent links answer `None` instead of panicking.
    #[test]
    fn sparse_world_caches_only_installed_links() {
        let n = 32; // 4 multi-cell cells
        let antennas: Vec<usize> = (0..n).map(|i| if i % 8 == 0 { 2 } else { 1 }).collect();
        let tb = multi_cell().testbed(n).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let topo =
            build_environment_topology(multi_cell(), &tb, &antennas, 10e6, 3, &mut rng).unwrap();
        let cache = ChannelCache::build(&topo, &[0, 7, 21], 64);
        assert_eq!(cache.n_links(), topo.medium.n_links());
        assert!(
            cache.n_links() < n * (n - 1) / 2,
            "cache not sparse: {} links",
            cache.n_links()
        );
        // A pair across the map is below the floor almost surely; find
        // one absent link and check the typed miss.
        let mut saw_miss = false;
        for i in 0..n {
            for j in 0..n {
                if i != j && cache.table(i, j).is_none() {
                    assert!(cache.matrix(i, j, 0).is_none());
                    saw_miss = true;
                }
            }
        }
        assert!(saw_miss, "city world unexpectedly dense");
    }
}
