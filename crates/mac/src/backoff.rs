//! DCF random backoff and contention resolution.
//!
//! n+ reuses 802.11's contention machinery unchanged (§3.1): nodes draw a
//! uniform backoff from the contention window, count down idle slots, and
//! transmit when they reach zero; collisions double the window. The same
//! machinery runs for the *secondary* contentions for unused degrees of
//! freedom — the only difference is the carrier-sense input (projected
//! instead of raw), which lives in the core crate.

use rand::Rng;

/// Per-node backoff state.
#[derive(Debug, Clone)]
pub struct Backoff {
    cw_min: u32,
    cw_max: u32,
    cw: u32,
    counter: u32,
}

impl Backoff {
    /// Creates backoff state with the given window bounds and draws an
    /// initial counter.
    pub fn new<R: Rng>(cw_min: u32, cw_max: u32, rng: &mut R) -> Self {
        assert!(cw_min >= 1 && cw_max >= cw_min);
        let mut b = Backoff {
            cw_min,
            cw_max,
            cw: cw_min,
            counter: 0,
        };
        b.counter = b.draw(rng);
        b
    }

    fn draw<R: Rng>(&self, rng: &mut R) -> u32 {
        rng.gen_range(0..=self.cw)
    }

    /// Current countdown value (slots of idle medium remaining).
    pub fn counter(&self) -> u32 {
        self.counter
    }

    /// Current contention window.
    pub fn cw(&self) -> u32 {
        self.cw
    }

    /// One idle slot elapsed: decrement. Returns `true` when the counter
    /// hit zero, i.e. the node transmits in this slot.
    pub fn tick(&mut self) -> bool {
        if self.counter == 0 {
            return true;
        }
        self.counter -= 1;
        self.counter == 0
    }

    /// Successful transmission: reset the window and redraw.
    pub fn on_success<R: Rng>(&mut self, rng: &mut R) {
        self.cw = self.cw_min;
        self.counter = self.draw(rng);
    }

    /// Collision or loss: double the window (bounded) and redraw.
    pub fn on_collision<R: Rng>(&mut self, rng: &mut R) {
        self.cw = (self.cw * 2 + 1).min(self.cw_max);
        self.counter = self.draw(rng);
    }
}

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
/// This is the slot-accurate equivalent of running [`Backoff::tick`] in
/// lockstep, without simulating every idle slot.
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
    fn counter_counts_down_to_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = Backoff::new(15, 1023, &mut rng);
        let initial = b.counter();
        let mut ticks = 0;
        while !b.tick() {
            ticks += 1;
            assert!(ticks < 2000, "runaway countdown");
        }
        assert!(ticks <= initial.max(1));
        assert_eq!(b.counter(), 0);
        // Further ticks keep reporting "transmit".
        assert!(b.tick());
    }

    #[test]
    fn collision_doubles_window_bounded() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut b = Backoff::new(15, 63, &mut rng);
        assert_eq!(b.cw(), 15);
        b.on_collision(&mut rng);
        assert_eq!(b.cw(), 31);
        b.on_collision(&mut rng);
        assert_eq!(b.cw(), 63);
        b.on_collision(&mut rng);
        assert_eq!(b.cw(), 63, "window must cap at cw_max");
        b.on_success(&mut rng);
        assert_eq!(b.cw(), 15);
    }

    #[test]
    fn draws_stay_in_window() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let b = Backoff::new(15, 1023, &mut rng);
            assert!(b.counter() <= 15);
        }
    }

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
