//! Run, CDF and percentile helpers shared by the figure binaries.

use nplus::observer::NullObserver;
use nplus::sim::{RunResult, SweepSpec};

/// Every seed's per-policy run results, in seed and policy order;
/// panics on a spec the sweep refuses.
pub fn seed_runs(spec: &SweepSpec) -> Vec<Vec<RunResult>> {
    let runs = spec
        .try_run_observed(|_, _| NullObserver)
        .unwrap_or_else(|e| panic!("{e}"));
    runs.into_iter().map(|(seed, _)| seed.per_policy).collect()
}

/// Empirical CDF points (value at each of the given percentiles).
/// Empty input yields no points.
pub(crate) fn percentiles(samples: &mut [f64], points: &[f64]) -> Vec<(f64, f64)> {
    if samples.is_empty() {
        return Vec::new();
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    points
        .iter()
        .map(|&p| {
            let idx = ((p * (samples.len() - 1) as f64).round() as usize).min(samples.len() - 1);
            (p, samples[idx])
        })
        .collect()
}

/// Prints one CDF as "p value" rows under a header.
pub fn print_cdf(label: &str, samples: &mut [f64]) {
    // nplus:allow(HYG003): stdout IS the product — the figure binaries' shared report printer.
    println!("\n# CDF: {label}  (n={})", samples.len());
    // nplus:allow(HYG003): figure-binary report printer (see above).
    println!("{:>6} {:>12}", "p", "value");
    for (p, v) in percentiles(samples, &[0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95]) {
        // nplus:allow(HYG003): figure-binary report printer (see above).
        println!("{p:>6.2} {v:>12.3}");
    }
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}
