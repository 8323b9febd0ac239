//! Per-topology cache of pure channel frequency responses.
//!
//! A [`ChannelCache`] holds one [`FreqResponseTable`] per **installed**
//! directed node pair of a built [`Topology`], indexed by the node's
//! *position* in the topology's node list (the same index the protocol
//! simulator's scenarios use, equal to its node id). Storage is sparse
//! — an adjacency list over the medium's real link set — so city-scale
//! worlds that materialize only links above their power floor pay for
//! the links they have, not the `n²` table a dense `Vec` would
//! allocate. Only the **pure true channels** are cached — they are
//! deterministic functions of the drawn taps — while believed channels
//! (hardware error) keep drawing from the caller's RNG on every lookup,
//! so seeded simulations stay bit-for-bit identical with and without
//! the cache.
//!
//! A build walks the medium's links in ascending `(from, to)` order,
//! which is the adjacency list's own order: each sender's links fill
//! one slice, receivers ascending, and a lookup binary-searches the
//! sender's slice. The DFT twiddles are evaluated once ([`Twiddles`],
//! sized to the longest FIR in the topology), and every link reads the
//! prefix it needs. Each table keeps all its bins in one split-storage
//! buffer, so a link costs three allocations: the table's real and
//! imaginary halves and its [`Arc`]. Lookups borrow a bin's matrix from
//! that buffer as a [`CMatrixRef`].
//!
//! Tables are copy-on-write. A [`Clone`] of the cache copies the
//! adjacency and the [`Arc`] pointers and shares every table buffer;
//! [`ChannelCache::set_table`] swaps in a fresh table for an installed
//! link (it never installs one) without touching the table other clones
//! still share — so a mobility run's working copy costs an index and a
//! pointer per link plus the links it rescales.
//!
//! Lookups are fallible by design: [`ChannelCache::matrix`] returns
//! `None` for an absent link instead of panicking, and the engine
//! treats that as "below the floor" (nothing sensed, nothing
//! delivered).

use crate::topology::Topology;
use nplus_channel::freq_table::{FreqResponseTable, Twiddles};
use nplus_linalg::CMatrixRef;
use std::sync::Arc;

/// Cached per-subcarrier channel matrices for every installed directed
/// link of a topology. Cloning shares the tables (see the module docs).
#[derive(Debug, Clone)]
pub struct ChannelCache {
    /// Sender `i`'s links occupy `first[i]..first[i + 1]` of `to` and
    /// `tables` (one offset per node, plus the end).
    first: Vec<usize>,
    /// Each link's receiver position, ascending within its sender's
    /// slice. A pair absent here is below the environment's floor (or
    /// the diagonal).
    to: Vec<usize>,
    /// Each link's table, at its receiver's index in `to`. Shared
    /// between clones; never written through.
    tables: Vec<Arc<FreqResponseTable>>,
}

impl ChannelCache {
    /// Evaluates every installed directed link of `topo` on the given
    /// FFT `bins` of an `n_fft` grid (one pass over each link's taps,
    /// against one twiddle table shared by all links). Visits the
    /// medium's sparse link set directly — cost scales with links
    /// installed, not nodes squared.
    pub fn build(topo: &Topology, bins: &[usize], n_fft: usize) -> Self {
        let links = || topo.medium.links();
        let n_taps = links().map(|(_, link)| link.max_taps()).max().unwrap_or(1);
        let twiddles = Twiddles::new(bins, n_fft, n_taps);
        let mut first = Vec::with_capacity(topo.nodes.len() + 1);
        let mut to = Vec::with_capacity(links().len());
        let mut tables = Vec::with_capacity(links().len());
        for ((from, rx), link) in links() {
            // Senders up to `from` start here; those skipped have no links.
            first.resize(from.0 + 1, to.len());
            to.push(rx.0);
            tables.push(Arc::new(FreqResponseTable::with_twiddles(link, &twiddles)));
        }
        first.resize(topo.nodes.len() + 1, to.len());
        ChannelCache { first, to, tables }
    }

    /// The index of the directed link `from → to` in `to` and `tables`.
    fn slot(&self, from: usize, to: usize) -> Option<usize> {
        let at = self.neighbors(from).binary_search(&to).ok()?;
        Some(self.first[from] + at)
    }

    /// The receivers of `from`'s installed links, ascending (empty for
    /// a node outside the topology). Links are reciprocal, so these are
    /// also the senders of the links into `from`.
    pub fn neighbors(&self, from: usize) -> &[usize] {
        match self.first.get(from..) {
            Some(&[lo, hi, ..]) => &self.to[lo..hi],
            _ => &[],
        }
    }

    /// The cached table of the directed link `from → to` (node positions
    /// in the topology's node list), if that link is modeled.
    pub fn table(&self, from: usize, to: usize) -> Option<&FreqResponseTable> {
        self.slot(from, to).map(|k| &*self.tables[k])
    }

    /// The cached channel matrix of link `from → to` at bin position
    /// `pos` (index into the `bins` slice the cache was built with),
    /// borrowed from the link's table.
    ///
    /// `None` when the link is not modeled — in sparse worlds that
    /// means "below the environment's power floor", and consumers treat
    /// it as *nothing arrives* (no interference contribution, no
    /// nulling constraint, no flow service) instead of panicking.
    pub fn matrix(&self, from: usize, to: usize, pos: usize) -> Option<CMatrixRef<'_>> {
        self.table(from, to).map(|t| t.matrix(pos))
    }

    /// Number of cached directed links (both directions counted) — the
    /// sparsity observable city-scale tests assert on.
    pub fn n_links(&self) -> usize {
        self.tables.len()
    }

    /// Iterates the cached directed links `(from, to)` in ascending
    /// order.
    pub fn links(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.first.len().saturating_sub(1))
            .flat_map(move |from| self.neighbors(from).iter().map(move |&to| (from, to)))
    }

    /// Replaces the table of the installed directed link `from → to`;
    /// an absent link stays absent. Mobility rescales moved links
    /// through this. The new table goes in behind a fresh [`Arc`]:
    /// clones that shared the old one keep it unchanged.
    pub fn set_table(&mut self, from: usize, to: usize, table: FreqResponseTable) {
        if let Some(k) = self.slot(from, to) {
            self.tables[k] = Arc::new(table);
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
    use nplus_channel::environment::{environment_from_name, SIGCOMM11_INDOOR};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Nodes in [`city`]: four multi-cell cells, one 2-antenna AP each.
    const CITY_N: usize = 32;

    /// The sparse multi-cell city of [`CITY_N`] nodes (seed 3).
    fn city() -> Topology {
        let world = environment_from_name("multi_cell").expect("built-in world");
        let antennas: Vec<usize> = (0..CITY_N)
            .map(|i| if i % 8 == 0 { 2 } else { 1 })
            .collect();
        let tb = world.testbed(CITY_N).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        build_environment_topology(world, &tb, &antennas, 10e6, 3, &mut rng).unwrap()
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
        let (n, topo) = (CITY_N, city());
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

    /// `links()` ascends; `set_table` replaces an installed link and
    /// never installs an absent one; and in a sparse city the adjacency
    /// lists exactly the present links, reciprocally — the incident
    /// walk mobility does every epoch relies on both.
    #[test]
    fn adjacency_ascends_is_reciprocal_and_never_grows() {
        let topo = built();
        let bins = vec![0usize, 10];
        let mut cache = ChannelCache::build(&topo, &bins, 64);
        let keys: Vec<_> = cache.links().collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        assert_eq!(keys.len(), 6);
        let scaled = cache.table(0, 1).unwrap().scaled(0.25);
        cache.set_table(2, 1, scaled.clone());
        assert_eq!(
            cache.matrix(2, 1, 0).unwrap().get(0, 0),
            scaled.matrix(0).get(0, 0)
        );
        cache.set_table(0, 0, scaled);
        assert!(cache.table(0, 0).is_none());
        assert_eq!(cache.links().collect::<Vec<_>>(), keys);

        let (n, topo) = (CITY_N, city());
        let cache = ChannelCache::build(&topo, &bins, 64);
        for i in 0..n {
            let present: Vec<usize> = (0..n).filter(|&j| cache.table(i, j).is_some()).collect();
            assert_eq!(cache.neighbors(i), present, "node {i}");
            for &j in cache.neighbors(i) {
                assert!(cache.neighbors(j).contains(&i), "{i}->{j} has no reverse");
            }
        }
        assert!(cache.neighbors(n).is_empty());
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
        let shared = |clone: &ChannelCache, f, t| {
            let k = original.slot(f, t).unwrap();
            Arc::ptr_eq(&original.tables[k], &clone.tables[k])
        };
        assert!(original.links().all(|(f, t)| shared(&clone, f, t)));
        let before = original.table(0, 1).unwrap().clone();
        clone.set_table(0, 1, before.scaled(0.25));
        assert!(!shared(&clone, 0, 1));
        for (f, t) in original.links().filter(|&k| k != (0, 1)) {
            assert!(shared(&clone, f, t), "link {f}->{t} no longer shared");
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
        let (n, topo) = (CITY_N, city());
        let cache = ChannelCache::build(&topo, &[0, 7, 21], 64);
        assert_eq!(cache.n_links(), topo.medium.links().len());
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
