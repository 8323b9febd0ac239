//! The content-addressed result cache.
//!
//! Keys are [`CanonicalSpec::key`](nplus::sim::CanonicalSpec::key)
//! values: 128-bit hashes of the canonical spec encoding. The cache may
//! return a stored result for any request with the same key because the
//! sweep engine is a pure function of the canonical fields — results
//! are bit-for-bit identical across thread counts and repeat runs (the
//! determinism suites in `nplus` prove this), so "same key" means "same
//! answer", forever.
//!
//! The lock covers only map access, never compute: a sweep can take
//! seconds, and holding a mutex across it would serialize the whole
//! server. The cost is that two clients racing the same cold key may
//! both compute it; both results are bit-identical, and the first
//! insert wins.

use nplus::sim::SweepStats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Shared map from canonical key to computed statistics, with hit/miss
/// counters. Cheap to clone behind an `Arc`; all methods take `&self`.
#[derive(Default)]
pub struct ResultCache {
    entries: Mutex<HashMap<u128, Arc<Vec<SweepStats>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entries map, recovering from a poisoned lock instead of
    /// panicking (SRV002): the map is only ever mutated by a single
    /// `insert`/`or_insert_with`, which cannot leave it in a torn
    /// state, so the data behind a poisoned mutex is still valid —
    /// a worker that panicked mid-request must not take the whole
    /// serving surface down with it.
    fn entries(&self) -> MutexGuard<'_, HashMap<u128, Arc<Vec<SweepStats>>>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`; on a miss runs `compute` (outside the lock) and
    /// stores the result. Returns the served statistics and whether
    /// they came from the cache.
    ///
    /// # Errors
    /// `compute`'s error, verbatim; failed computations are never
    /// cached, so a transient failure does not poison the key.
    pub fn get_or_compute<E>(
        &self,
        key: u128,
        compute: impl FnOnce() -> Result<Vec<SweepStats>, E>,
    ) -> Result<(Arc<Vec<SweepStats>>, bool), E> {
        if let Some(found) = self.entries().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(found), true));
        }
        let computed = Arc::new(compute()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries();
        // First insert wins: a racing computation of the same key
        // produced bit-identical results, keep whichever landed.
        let stored = entries.entry(key).or_insert_with(|| Arc::clone(&computed));
        Ok((Arc::clone(stored), false))
    }

    /// Number of cached keys.
    pub(crate) fn len(&self) -> usize {
        self.entries().len()
    }

    /// The cached canonical keys in ascending order — the `stats`
    /// command reports these, and sorting makes the response
    /// byte-identical regardless of insertion order or hash layout.
    pub(crate) fn sorted_keys(&self) -> Vec<u128> {
        let mut keys: Vec<u128> = self.entries().keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Requests served from the cache so far.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that had to compute (successfully) so far.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(label: &str, value: f64) -> Vec<SweepStats> {
        vec![SweepStats {
            policy: label.to_string(),
            n_runs: 1,
            mean_total_mbps: value,
            ci95_total_mbps: 0.0,
            mean_per_flow_mbps: vec![value],
            mean_dof: 1.0,
            mean_fairness: 1.0,
        }]
    }

    #[test]
    fn second_lookup_hits_without_recompute() {
        let cache = ResultCache::new();
        let mut computes = 0;
        let (first, hit) = cache
            .get_or_compute::<()>(7, || {
                computes += 1;
                Ok(stats("a", 1.5))
            })
            .unwrap();
        assert!(!hit);
        let (second, hit) = cache
            .get_or_compute::<()>(7, || {
                computes += 1;
                Ok(stats("a", 999.0))
            })
            .unwrap();
        assert!(hit);
        assert_eq!(computes, 1, "cache hit must not recompute");
        assert!(Arc::ptr_eq(&first, &second), "hit returns the stored value");
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        // A different key computes independently.
        let (other, hit) = cache
            .get_or_compute::<()>(8, || Ok(stats("b", 2.0)))
            .unwrap();
        assert!(!hit);
        assert_eq!(other[0].policy, "b");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn failed_computations_do_not_poison_the_key() {
        let cache = ResultCache::new();
        let err = cache.get_or_compute(1, || Err("boom")).unwrap_err();
        assert_eq!(err, "boom");
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.misses(), 0);
        // The key still computes fine afterwards.
        let (_, hit) = cache
            .get_or_compute::<&str>(1, || Ok(stats("a", 1.0)))
            .unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_cold_hits_converge_to_one_entry() {
        let cache = Arc::new(ResultCache::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    let (served, _) = cache
                        .get_or_compute::<()>(42, || Ok(stats("x", 3.25)))
                        .unwrap();
                    assert_eq!(served[0].mean_total_mbps, 3.25);
                });
            }
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits() + cache.misses(), 8);
    }
}
