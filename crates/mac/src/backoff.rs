//! DCF contention resolution.
//!
//! n+ reuses 802.11's contention machinery unchanged (§3.1): nodes draw a
//! uniform backoff from the contention window, count down idle slots, and
//! transmit when they reach zero; the first to reach zero wins and ties
//! collide. The simulation resolves a round analytically, without
//! stepping idle slots (the engine grows the window itself). The same
//! machinery runs for the *secondary* contentions for unused degrees of
//! freedom — the only difference is the carrier-sense input (projected
//! instead of raw), which lives in the core crate.

use rand::Rng;

/// Outcome of one slotted contention round. A collision reports only the
/// slot — callers that need the colliding set scan the `draws` buffer
/// they passed to [`resolve_contention_in`] for entries equal to `slots`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentionOutcome {
    /// Exactly one contender reached zero first; it wins the medium.
    Winner {
        /// Index (into the contenders slice) of the winner.
        index: usize,
        /// Number of idle slots that elapsed before the win.
        slots: u32,
    },
    /// Two or more contenders reached zero in the same slot (the slot is
    /// the minimum draw; colliders are the `draws` entries equal to it).
    Collision {
        /// Slot at which they collided.
        slots: u32,
    },
    /// No contenders.
    Idle,
}

/// Resolves one contention round among freshly drawn counters: every
/// contender draws uniform `0..=cw` (one draw per contender, in slice
/// order, written into the reusable `draws` buffer) and the minimum
/// wins; ties collide.
///
/// This is the slot-accurate equivalent of counting every contender's
/// backoff down in lockstep, without simulating every idle slot.
pub fn resolve_contention_in<R: Rng>(
    cws: &[u32],
    rng: &mut R,
    draws: &mut Vec<u32>,
) -> ContentionOutcome {
    if cws.is_empty() {
        return ContentionOutcome::Idle;
    }
    draws.clear();
    draws.extend(cws.iter().map(|&cw| rng.gen_range(0..=cw)));
    let min = *draws.iter().min().unwrap();
    let mut winner = None;
    let mut ties = 0usize;
    for (i, &d) in draws.iter().enumerate() {
        if d == min {
            ties += 1;
            if ties == 1 {
                winner = Some(i);
            }
        }
    }
    if ties == 1 {
        ContentionOutcome::Winner {
            index: winner.unwrap(),
            slots: min,
        }
    } else {
        ContentionOutcome::Collision { slots: min }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn contention_fairness() {
        // Over many rounds, three identical contenders win roughly
        // equally often.
        let mut rng = StdRng::seed_from_u64(4);
        let mut draws = Vec::new();
        let mut wins = [0usize; 3];
        let mut rounds = 0;
        while rounds < 30_000 {
            match resolve_contention_in(&[15, 15, 15], &mut rng, &mut draws) {
                ContentionOutcome::Winner { index, .. } => {
                    wins[index] += 1;
                    rounds += 1;
                }
                ContentionOutcome::Collision { .. } => {
                    rounds += 1;
                }
                ContentionOutcome::Idle => unreachable!(),
            }
        }
        let total: usize = wins.iter().sum();
        for w in wins {
            let share = w as f64 / total as f64;
            assert!(
                (share - 1.0 / 3.0).abs() < 0.02,
                "share {share} deviates from 1/3"
            );
        }
    }

    #[test]
    fn collision_probability_sane() {
        // With CW=15 and 3 nodes, collisions should happen but be the
        // minority outcome.
        let mut rng = StdRng::seed_from_u64(5);
        let mut draws = Vec::new();
        let n = 20_000;
        let collisions = (0..n)
            .filter(|_| {
                matches!(
                    resolve_contention_in(&[15, 15, 15], &mut rng, &mut draws),
                    ContentionOutcome::Collision { .. }
                )
            })
            .count();
        let rate = collisions as f64 / n as f64;
        assert!(rate > 0.05 && rate < 0.35, "collision rate {rate}");
    }

    #[test]
    fn idle_with_no_contenders() {
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(
            resolve_contention_in(&[], &mut rng, &mut Vec::new()),
            ContentionOutcome::Idle
        );
    }

    #[test]
    fn single_contender_always_wins() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut draws = Vec::new();
        for _ in 0..100 {
            match resolve_contention_in(&[15], &mut rng, &mut draws) {
                ContentionOutcome::Winner { index: 0, .. } => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }
}
