//! Order statistics and the compare-mode verdict rule.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method) exactly, so the spreads this crate prints
//! are the spreads a script computes from the same values.

/// Median, quartiles and sample count of one measured row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle value (mean of the two middle values for even counts).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let sorted = sorted(samples);
        let median = median_sorted(&sorted)?;
        let (q1, q3) = quartiles_sorted(&sorted)?;
        Some(Summary {
            median,
            q1,
            q3,
            n: sorted.len(),
        })
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_sorted(s: &[f64]) -> Option<f64> {
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The median of `samples`; `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    median_sorted(&sorted(samples))
}

/// First and third quartiles by Python's exclusive method: for `n`
/// sorted values, quartile `i` sits at position `i·(n+1)/4` (1-based),
/// clamped to `1..=n-1` and linearly interpolated. A single value is
/// its own quartiles.
fn quartiles_sorted(s: &[f64]) -> Option<(f64, f64)> {
    let ld = s.len();
    match ld {
        0 => None,
        1 => Some((s[0], s[0])),
        _ => {
            let m = ld + 1;
            let at = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            Some((at(1), at(3)))
        }
    }
}

/// A nearest-rank percentile and whether it is resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at nearest rank `ceil(p/100 · n)`.
    pub value: f64,
    /// Samples strictly beyond that rank.
    pub beyond: usize,
}

impl Percentile {
    /// At least ten samples lie beyond the percentile — the condition
    /// under which it is reported as measured rather than estimated.
    pub fn resolved(&self) -> bool {
        self.beyond >= 10
    }
}

/// The `p`-th percentile (0 < p ≤ 100) by nearest rank; `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(Percentile {
        value: s[rank - 1],
        beyond: n - rank,
    })
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughputs).
    Higher,
}

impl Better {
    /// Parses `"lower"` / `"higher"`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// Whether `change` reads strictly better than `parent`.
    fn wins(self, change: f64, parent: f64) -> bool {
        match self {
            Better::Lower => change < parent,
            Better::Higher => change > parent,
        }
    }
}

/// The outcome of comparing one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least 9/10 of the pairs and the medians differ
    /// by more than the parent's interquartile range.
    Improved,
    /// The change's median is worse than the parent's by more than the
    /// bound (or, for unbounded rows, the parent wins at least 9/10 of
    /// the pairs by more than its interquartile range).
    Worse,
    /// Neither, and the parent's spread is within the bound.
    Unchanged,
    /// Neither, but the parent's own spread is wider than the bound, so
    /// "unchanged" cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// What [`compare`] found for one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// The parent's runs.
    pub parent: Summary,
    /// The change's runs.
    pub change: Summary,
    /// Share of pairs the change won (ties count for neither side).
    pub win_share: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares the runs of a parent and a change of one metric.
///
/// Runs are paired in order (`parent[i]` with `change[i]`, up to the
/// shorter list). The rule: *improved* needs the change to win at least
/// nine tenths of all pairs **and** the medians to differ, in the
/// better direction, by more than the parent's interquartile range.
/// With a `bound` (a share of the parent's median), *worse* means the
/// change's median is worse by more than the bound, and a parent spread
/// wider than the bound makes the remaining cases *unresolved* unless
/// every change run beats every parent run. Without a bound (per-layer
/// rows), *worse* mirrors *improved*.
pub fn compare(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: Option<f64>,
) -> Option<Comparison> {
    let ps = Summary::of(parent)?;
    let cs = Summary::of(change)?;
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs)
        .filter(|&i| better.wins(change[i], parent[i]))
        .count();
    let losses = (0..pairs)
        .filter(|&i| better.wins(parent[i], change[i]))
        .count();
    let win_share = wins as f64 / pairs.max(1) as f64;
    let loss_share = losses as f64 / pairs.max(1) as f64;
    let iqr = ps.q3 - ps.q1;
    let gap = cs.median - ps.median;
    let gap_better = match better {
        Better::Lower => -gap,
        Better::Higher => gap,
    };
    let verdict = if pairs > 0 && win_share >= 0.9 && gap_better > iqr {
        Verdict::Improved
    } else {
        match bound {
            Some(b) => {
                let all_better = change
                    .iter()
                    .all(|&c| parent.iter().all(|&p| better.wins(c, p)));
                if -gap_better > b * ps.median.abs() {
                    Verdict::Worse
                } else if ps.rel_iqr() > b && !all_better {
                    Verdict::Unresolved
                } else {
                    Verdict::Unchanged
                }
            }
            None => {
                if pairs > 0 && loss_share >= 0.9 && -gap_better > iqr {
                    Verdict::Worse
                } else {
                    Verdict::Unchanged
                }
            }
        }
    };
    Some(Comparison {
        parent: ps,
        change: cs,
        win_share,
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    /// Reference values from Python 3: `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let quartiles = |v: &[f64]| Summary::of(v).map(|s| (s.q1, s.q3));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some((1.25, 3.75)));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        assert_eq!(quartiles(&[2.0, 8.0]), Some((0.5, 9.5)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
        let s = Summary::of(&ten).unwrap();
        assert_eq!((s.median, s.n), (5.5, 10));
        assert!((s.rel_iqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_counts_samples_beyond_its_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&hundred, 90.0).unwrap();
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.beyond, 10);
        assert!(p90.resolved());
        let p50 = percentile(&hundred[..19], 50.0).unwrap();
        assert_eq!((p50.value, p50.beyond), (10.0, 9));
        assert!(!p50.resolved(), "19 samples leave only 9 beyond the median");
        let p50 = percentile(&hundred[..20], 50.0).unwrap();
        assert!(p50.resolved());
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[4.0], 99.0).unwrap().value, 4.0);
    }

    #[test]
    fn verdict_requires_nine_tenths_wins_and_a_gap_beyond_the_iqr() {
        let parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0];
        // Identical runs: unchanged, nobody wins.
        let same = compare(&parent, &parent, Better::Lower, Some(0.1)).unwrap();
        assert_eq!(same.verdict, Verdict::Unchanged);
        assert_eq!(same.win_share, 0.0);
        // Every run 10% faster: improved.
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.9).collect();
        let c = compare(&parent, &faster, Better::Lower, Some(0.1)).unwrap();
        assert_eq!(c.verdict, Verdict::Improved);
        assert_eq!(c.win_share, 1.0);
        // Wins every pair, but by less than the parent's IQR: unchanged.
        let barely: Vec<f64> = parent.iter().map(|v| v - 0.01).collect();
        let c = compare(&parent, &barely, Better::Lower, Some(0.1)).unwrap();
        assert_eq!(c.verdict, Verdict::Unchanged);
        // 20% slower beats a 10% bound: worse.
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        let c = compare(&parent, &slower, Better::Lower, Some(0.1)).unwrap();
        assert_eq!(c.verdict, Verdict::Worse);
        // Higher-is-better flips the direction.
        let c = compare(&parent, &slower, Better::Higher, Some(0.1)).unwrap();
        assert_eq!(c.verdict, Verdict::Improved);
    }

    #[test]
    fn a_parent_spread_wider_than_the_bound_is_unresolved() {
        let parent = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        let change = [10.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3];
        let c = compare(&parent, &change, Better::Lower, Some(0.1)).unwrap();
        assert_eq!(c.verdict, Verdict::Unresolved);
        // Unbounded (per-layer) rows have no "unresolved".
        let c = compare(&parent, &change, Better::Lower, None).unwrap();
        assert_eq!(c.verdict, Verdict::Unchanged);
        // Unless every change run beats every parent run.
        let all_better: Vec<f64> = parent.iter().map(|_| 4.0).collect();
        let c = compare(&parent, &all_better, Better::Lower, Some(0.1)).unwrap();
        assert_eq!(c.verdict, Verdict::Improved);
    }
}
