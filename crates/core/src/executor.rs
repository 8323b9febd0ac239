//! Deterministic scoped-thread job executor for Monte-Carlo batches.
//!
//! The sweep layer runs many independent, seed-indexed jobs (one drawn
//! topology + simulation batch per seed). This module executes such a
//! job list on a fixed number of worker threads while keeping the
//! *results* — and therefore every downstream aggregate — bit-for-bit
//! identical to a serial run:
//!
//! * **Work distribution is dynamic, result order is not.** Workers claim
//!   job indices one at a time from a shared atomic cursor (fast workers
//!   take more jobs; no static striping that a slow seed could skew),
//!   but every result is tagged with its job index and the final vector
//!   is reassembled in index order.
//! * **No cross-job state.** The job closure receives only its index;
//!   anything seeded must be derived from that index (or the data it
//!   looks up), never from execution order, thread identity or time.
//! * **No dependencies, no unsafe.** Built on [`std::thread::scope`]
//!   plus an [`AtomicUsize`] cursor; worker results travel back through
//!   the scoped join handles, so no locks are held while jobs run.
//!
//! Determinism contract: for a pure `job` function, the returned vector
//! is identical for every `threads` value (including 1). The sweep
//! proptests assert this end-to-end through `SweepSpec::threads`.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a caller-supplied thread count: `0` means "use the machine's
/// available parallelism", anything else is taken literally.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Runs `n_jobs` independent jobs on up to `threads` scoped workers and
/// returns their results in job-index order.
///
/// `threads == 0` resolves to the available parallelism; `threads == 1`
/// (or a single job) runs inline on the caller's thread with no worker
/// spawns at all. Workers claim one job at a time from an atomic cursor
/// — the right granularity for coarse jobs like whole-topology
/// simulations.
///
/// Panics in a job are propagated to the caller after the scope joins.
pub fn run_indexed<T, F>(n_jobs: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = resolve_threads(threads).min(n_jobs);
    if threads <= 1 {
        return (0..n_jobs).map(job).collect();
    }

    let cursor = AtomicUsize::new(0);
    let cursor = &cursor;
    let job = &job;
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let mut out: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n_jobs {
                            break;
                        }
                        out.push((i, job(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(results) => results,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });

    // Reassemble in job-index order — the whole point of the tagging.
    tagged.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(tagged.len(), n_jobs, "executor lost or duplicated jobs");
    tagged.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_index_order() {
        for threads in [1usize, 2, 3, 8] {
            let out = run_indexed(37, threads, |i| i * i);
            assert_eq!(
                out,
                (0..37).map(|i| i * i).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn claiming_runs_every_job_exactly_once() {
        for threads in [1usize, 2, 4, 8] {
            let calls: Vec<AtomicUsize> = (0..23).map(|_| AtomicUsize::new(0)).collect();
            let out = run_indexed(23, threads, |i| {
                calls[i].fetch_add(1, Ordering::Relaxed);
                i
            });
            assert_eq!(out, (0..23).collect::<Vec<_>>(), "{threads} threads");
            for (i, c) in calls.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "job {i}, {threads} threads");
            }
        }
    }

    #[test]
    fn zero_jobs_and_more_threads_than_jobs() {
        let empty: Vec<usize> = run_indexed(0, 4, |i| i);
        assert!(empty.is_empty());
        let out = run_indexed(2, 16, |i| i + 100);
        assert_eq!(out, vec![100, 101]);
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        let out = run_indexed(9, 0, |i| i);
        assert_eq!(out, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial_for_derived_rngs() {
        // The sweep pattern in miniature: each job seeds its own RNG from
        // its index; results must not depend on the thread count.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let job = |i: usize| {
            let mut rng = StdRng::seed_from_u64(i as u64 ^ 0x5EED_CAFE);
            (0..50).map(|_| rng.gen::<f64>()).sum::<f64>()
        };
        let serial = run_indexed(16, 1, job);
        for threads in [2usize, 4, 7] {
            assert_eq!(serial, run_indexed(16, threads, job), "{threads} threads");
        }
    }
}
