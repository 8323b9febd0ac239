//! Offline replay: recordings back through `GoodputAccumulator`.
//!
//! The observer contract already proves a `RunResult` is exactly
//! reconstructible from the event stream; replay is that proof applied
//! to *decoded* streams. [`replay_run`] folds one recording's round
//! frames through the same accumulator the live engine uses — same
//! operations, same order, on bitwise-identical inputs — so the result
//! is bit-for-bit the live run's. [`replay_sweep`] reassembles a full
//! (policy × seed) grid of recordings into seed-ordered results and
//! hands them to `nplus::aggregate_results`, reproducing the live
//! `SweepStats` without a single simulated round.

use crate::recording::Recording;
use nplus::{
    aggregate_results, GoodputAccumulator, RoundObserver, RoundRecord, RunIdentity, RunMeta,
    RunResult, SeedResults, SweepStats,
};
use std::fmt;

/// Reproduces the recorded run's [`RunResult`] from its round frames
/// alone — bit-for-bit the live result, by the observer contract.
// nplus:allow(VIS001): the recording goldens tests/golden.rs and tests/roundtrip.rs replay single runs through it
pub fn replay_run(rec: &Recording) -> RunResult {
    let mut acc = GoodputAccumulator::new();
    let meta = RunMeta {
        policy: &rec.header.policy,
        n_flows: rec.header.n_flows,
        rounds: rec.header.rounds,
        bandwidth_hz: rec.header.bandwidth_hz,
        identity: Some(RunIdentity {
            seed: rec.header.seed,
            environment: rec.header.environment.clone(),
            canonical_key: rec.header.canonical_key,
        }),
    };
    acc.on_run_start(&meta);
    for ev in rec.round_events() {
        acc.on_round_end(&RoundRecord {
            round: ev.round,
            body_symbols: ev.body_symbols,
            duration_samples: ev.duration_samples,
            flow_bits: &ev.flow_bits,
            streams: &ev.streams,
        });
    }
    acc.finish()
}

/// A sweep reassembled from recordings: the shared identity fields and
/// the aggregated per-policy statistics.
#[derive(Debug, Clone)]
// nplus:allow(VIS001): the return type of the public `replay_sweep`
pub struct ReplayedSweep {
    /// The scenario spec label every recording agreed on.
    pub scenario: String,
    /// The environment registry name.
    pub environment: String,
    /// The traffic model's spec string.
    pub traffic: String,
    /// The mobility model's spec string.
    pub mobility: String,
    /// The policy names, in sweep policy order.
    pub policies: Vec<String>,
    /// Seeds the sweep covered, in seed-index order.
    pub seeds: Vec<u64>,
    /// Rounds per run.
    pub rounds: usize,
    /// Aggregated statistics, bit-for-bit those of the live sweep.
    pub stats: Vec<SweepStats>,
}

/// Why a set of recordings does not assemble into one sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
// nplus:allow(VIS001): the error type of the public `replay_sweep`
pub enum ReplayError {
    /// No recordings were given.
    Empty,
    /// Two recordings disagree on a sweep-level header field.
    Inconsistent {
        /// The disagreeing header field.
        field: &'static str,
        /// The first recording's value.
        first: String,
        /// The offending recording's value.
        other: String,
    },
    /// A recording's grid position exceeds its declared dimensions.
    IndexOutOfRange {
        /// `"seed_index"` or `"policy_index"`.
        what: &'static str,
        /// The out-of-range index.
        index: usize,
        /// The declared dimension.
        limit: usize,
    },
    /// Two recordings claim the same (policy, seed) cell.
    Duplicate {
        /// The cell's policy index.
        policy_index: usize,
        /// The cell's seed index.
        seed_index: usize,
    },
    /// A (policy, seed) cell has no recording.
    Missing {
        /// The cell's policy index.
        policy_index: usize,
        /// The cell's seed index.
        seed_index: usize,
    },
    /// The declared (policy × seed) grid size disagrees with the
    /// number of recordings given — checked before anything is
    /// allocated, so a corrupt header cannot request an absurd grid.
    GridSize {
        /// Policies the headers declare.
        n_policies: usize,
        /// Seeds the headers declare.
        n_seeds: usize,
        /// Recordings actually given.
        recordings: usize,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Empty => write!(f, "no recordings to replay"),
            ReplayError::Inconsistent {
                field,
                first,
                other,
            } => write!(f, "recordings disagree on {field}: {first:?} vs {other:?}"),
            ReplayError::IndexOutOfRange { what, index, limit } => {
                write!(f, "{what} {index} out of range (sweep declares {limit})")
            }
            ReplayError::Duplicate {
                policy_index,
                seed_index,
            } => write!(
                f,
                "two recordings for policy {policy_index}, seed index {seed_index}"
            ),
            ReplayError::Missing {
                policy_index,
                seed_index,
            } => write!(
                f,
                "no recording for policy {policy_index}, seed index {seed_index}"
            ),
            ReplayError::GridSize {
                n_policies,
                n_seeds,
                recordings,
            } => write!(
                f,
                "sweep declares a {n_policies} x {n_seeds} grid but {recordings} \
                 recordings were given"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Reassembles one sweep from its per-(policy, seed) recordings and
/// aggregates statistics **bit-for-bit identical** to the live
/// `SweepSpec::try_run` output: runs are replayed with [`replay_run`],
/// ordered seed-major / policy-within-seed by their recorded grid
/// positions, and folded through the same `aggregate_results` the live
/// path uses. Input order does not matter.
///
/// # Errors
/// [`ReplayError`] when the recordings are not exactly one complete,
/// mutually consistent (policy × seed) grid.
pub fn replay_sweep(recordings: &[Recording]) -> Result<ReplayedSweep, ReplayError> {
    let Some(first) = recordings.first() else {
        return Err(ReplayError::Empty);
    };
    let fh = &first.header;
    let n_policies = fh.n_policies;
    let n_seeds = fh.n_seeds;
    if n_policies.checked_mul(n_seeds) != Some(recordings.len()) {
        return Err(ReplayError::GridSize {
            n_policies,
            n_seeds,
            recordings: recordings.len(),
        });
    }

    let mut policy_names: Vec<Option<String>> = vec![None; n_policies];
    let mut seeds: Vec<Option<u64>> = vec![None; n_seeds];
    let mut grid: Vec<Option<RunResult>> = vec![None; n_policies * n_seeds];

    for rec in recordings {
        let h = &rec.header;
        check("scenario", &fh.scenario, &h.scenario)?;
        check("environment", &fh.environment, &h.environment)?;
        check("traffic", &fh.traffic, &h.traffic)?;
        check("mobility", &fh.mobility, &h.mobility)?;
        check_num("n_seeds", fh.n_seeds as u64, h.n_seeds as u64)?;
        check_num("n_policies", fh.n_policies as u64, h.n_policies as u64)?;
        check_num("rounds", fh.rounds as u64, h.rounds as u64)?;
        check_num("n_flows", fh.n_flows as u64, h.n_flows as u64)?;
        check_num(
            "bandwidth_hz",
            fh.bandwidth_hz.to_bits(),
            h.bandwidth_hz.to_bits(),
        )?;
        if h.policy_index >= n_policies {
            return Err(ReplayError::IndexOutOfRange {
                what: "policy_index",
                index: h.policy_index,
                limit: n_policies,
            });
        }
        if h.seed_index >= n_seeds {
            return Err(ReplayError::IndexOutOfRange {
                what: "seed_index",
                index: h.seed_index,
                limit: n_seeds,
            });
        }
        match &policy_names[h.policy_index] {
            None => policy_names[h.policy_index] = Some(h.policy.clone()),
            Some(name) if *name != h.policy => {
                return Err(ReplayError::Inconsistent {
                    field: "policy name",
                    first: name.clone(),
                    other: h.policy.clone(),
                })
            }
            Some(_) => {}
        }
        match seeds[h.seed_index] {
            None => seeds[h.seed_index] = Some(h.seed),
            Some(seed) if seed != h.seed => {
                return Err(ReplayError::Inconsistent {
                    field: "seed",
                    first: seed.to_string(),
                    other: h.seed.to_string(),
                })
            }
            Some(_) => {}
        }
        let cell = &mut grid[h.seed_index * n_policies + h.policy_index];
        if cell.is_some() {
            return Err(ReplayError::Duplicate {
                policy_index: h.policy_index,
                seed_index: h.seed_index,
            });
        }
        *cell = Some(replay_run(rec));
    }

    let mut results: Vec<SeedResults> = Vec::with_capacity(n_seeds);
    for seed_index in 0..n_seeds {
        let mut per_policy = Vec::with_capacity(n_policies);
        for policy_index in 0..n_policies {
            match grid[seed_index * n_policies + policy_index].take() {
                Some(r) => per_policy.push(r),
                None => {
                    return Err(ReplayError::Missing {
                        policy_index,
                        seed_index,
                    })
                }
            }
        }
        let Some(seed) = seeds[seed_index] else {
            // Unreachable: a filled row implies a recorded seed; typed
            // anyway to keep the crate panic-free.
            return Err(ReplayError::Missing {
                policy_index: 0,
                seed_index,
            });
        };
        results.push(SeedResults { seed, per_policy });
    }
    let names: Vec<String> = policy_names
        .into_iter()
        .enumerate()
        .map(|(policy_index, name)| {
            name.ok_or(ReplayError::Missing {
                policy_index,
                seed_index: 0,
            })
        })
        .collect::<Result<_, _>>()?;
    let stats = aggregate_results(fh.n_flows, &names, &results);
    Ok(ReplayedSweep {
        scenario: fh.scenario.clone(),
        environment: fh.environment.clone(),
        traffic: fh.traffic.clone(),
        mobility: fh.mobility.clone(),
        policies: names,
        seeds: seeds.into_iter().flatten().collect(),
        rounds: fh.rounds,
        stats,
    })
}

fn check(field: &'static str, first: &str, other: &str) -> Result<(), ReplayError> {
    if first == other {
        Ok(())
    } else {
        Err(ReplayError::Inconsistent {
            field,
            first: first.to_string(),
            other: other.to_string(),
        })
    }
}

fn check_num<T: PartialEq + fmt::Display>(
    field: &'static str,
    first: T,
    other: T,
) -> Result<(), ReplayError> {
    if first == other {
        Ok(())
    } else {
        Err(ReplayError::Inconsistent {
            field,
            first: first.to_string(),
            other: other.to_string(),
        })
    }
}
