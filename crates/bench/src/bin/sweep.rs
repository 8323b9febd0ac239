//! Batch Monte-Carlo sweeps over canonical or generated scenarios.
//!
//! Runs `nplus::sim::SweepSpec` — one freshly drawn topology per seed,
//! one shared channel-cached engine per topology, seeds executed
//! as independent jobs on a scoped-thread pool — and prints mean ±95%
//! CI total goodput per policy, plus per-flow means and mean Jain
//! fairness. Results are bit-for-bit identical for every `--threads`
//! value (including 1); CI diffs the two to prove it.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin sweep -- [scenario] [n_seeds] [rounds] \
//!     [--threads N] [--policies a,b,..] [--env name] \
//!     [--mobility spec] [--sinr-grid grid] [--json [path]] [--record dir]
//!
//! where `scenario` is one of:
//!   three_pairs          the Fig. 3 scenario (default)
//!   ap_downlink          the Fig. 4 scenario
//!   pairs:<n>            n generated tx→rx pairs, random 1–4 antennas
//!   multi_ap:<a>x<c>     a generated cells of one AP + c clients
//!   hidden:<n>           n generated transmitters sharing one receiver
//!   asym:<n>             n generated maximally antenna-asymmetric pairs
//!   dense:<n>            n-node generated mesh (even, ≤32; extended map)
//!   random:<seed>        a random family draw from the generator
//!   city:<n>             n-node procedural city (multiple of 8; needs
//!                        `--env multi_cell` beyond 40 nodes)
//!   load:<model>/<spec>  any form above under a traffic model
//!                        (saturated | poisson:<mean> | bursty:<on>x<off>)
//!
//! Flags (positionals must precede flags):
//!   --threads N          worker threads (default 0 = all cores; 1 = serial)
//!   --policies a,b,..    comma-separated policy names (default
//!                        dot11n,beamforming,nplus; also oracle,
//!                        greedy_join; each at most once)
//!   --env name           propagation environment (default sigcomm11 —
//!                        the paper's indoor world; the other built-in
//!                        worlds are outdoor, rich_scatter,
//!                        degraded_hardware and multi_cell)
//!   --mobility spec      node mobility (default static; also
//!                        waypoint:<step_m>x<epoch_rounds>)
//!   --sinr-grid grid     SINR evaluation grid (default full — every
//!                        occupied subcarrier; also decimated:<k> —
//!                        every k-th, interpolated in between)
//!   --json [path]        machine-readable stats to `path` (default stdout)
//!   --record dir         write one event recording per (policy, seed)
//!                        into `dir` as `<policy>-s<seed>.rec`; stats are
//!                        aggregated from the same runs, bit-identical to
//!                        an unrecorded sweep at any `--threads` value
//! ```
//!
//! Generated scenarios are seeded (generator seed 42 unless `random:`
//! gives one), so every invocation is reproducible. The operands fill a
//! `SweepRequest` and go through the same resolver and validator as a
//! `sweep-server` request: a bad `--env`/`--policies`/`--mobility`/
//! `--sinr-grid` value, a malformed scenario, a scenario too large for
//! the chosen environment's maps, zero placements, zero rounds or a
//! repeated policy report one `error:` line (the server's error text)
//! and exit 2.

use nplus::prelude::*;
use nplus::sim::CanonicalSpec;
use nplus_codec::export::sweep_report_json;
use nplus_codec::{RecordingContext, RecordingObserver};
use nplus_server::SweepRequest;

/// Reports an invalid operand the way every operator error is reported:
/// one line on stderr, exit 2 — never a panic backtrace.
fn spec_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Runs the sweep with a [`RecordingObserver`] per (policy, seed) on
/// the spec's own executor loop, so the stats are bit-identical to an
/// unrecorded sweep at any thread count. Recordings are encoded to
/// memory inside the jobs and written in deterministic (seed-major,
/// policy-within-seed) order afterwards.
fn run_recorded(
    spec: &SweepSpec,
    canon: &CanonicalSpec,
    scenario: &str,
    dir: &str,
) -> Result<Vec<SweepStats>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let names = &canon.policies;
    let runs = spec
        .try_run_observed(|seed_index, policy_index| {
            RecordingObserver::new(
                Vec::new(),
                RecordingContext {
                    scenario: scenario.to_string(),
                    traffic: canon.traffic.spec_string(),
                    mobility: canon.mobility.spec_string(),
                    seed_index,
                    n_seeds: canon.seeds.len(),
                    policy_index,
                    n_policies: names.len(),
                },
            )
        })
        .map_err(|e| e.to_string())?;
    let mut results = Vec::with_capacity(runs.len());
    for (seed_results, recorders) in runs {
        let seed = seed_results.seed;
        for (name, rec) in names.iter().zip(recorders) {
            let bytes = rec
                .finish()
                .map_err(|e| format!("encoding {name}-s{seed}: {e}"))?;
            let path = format!("{dir}/{name}-s{seed}.rec");
            std::fs::write(&path, bytes).map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        results.push(seed_results);
    }
    Ok(aggregate_results(canon.flows.len(), names, &results))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();

    // Operands fill the request a `sweep-server` client would send. An
    // empty policy list is the library default (the paper's
    // dot11n/beamforming/nplus trio); only `--policies` overrides it.
    let mut request = SweepRequest {
        scenario: "three_pairs".to_string(),
        environment: "sigcomm11".to_string(),
        policies: Vec::new(),
        seeds: (0..20).collect(),
        rounds: 25,
        traffic: None,
        mobility: None,
        sinr_grid: None,
        threads: 0,
    };
    let mut positional: Vec<&str> = Vec::new();
    let mut json_to: Option<Option<String>> = None;
    let mut record_to: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                i += 1;
                request.threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| spec_error("--threads needs a number"));
            }
            "--policies" => {
                i += 1;
                let list = args
                    .get(i)
                    .unwrap_or_else(|| spec_error("--policies needs a,b,.."));
                request.policies = list.split(',').map(str::to_string).collect();
            }
            "--env" => {
                i += 1;
                request.environment = args
                    .get(i)
                    .unwrap_or_else(|| spec_error("--env needs a name"))
                    .clone();
            }
            "--mobility" => {
                i += 1;
                let s = args
                    .get(i)
                    .unwrap_or_else(|| spec_error("--mobility needs a spec"));
                request.mobility = Some(s.parse().unwrap_or_else(|e: String| spec_error(&e)));
            }
            "--sinr-grid" => {
                i += 1;
                let s = args
                    .get(i)
                    .unwrap_or_else(|| spec_error("--sinr-grid needs full or decimated:<k>"));
                request.sinr_grid = Some(s.parse().unwrap_or_else(|e: String| spec_error(&e)));
            }
            "--record" => {
                i += 1;
                record_to = Some(
                    args.get(i)
                        .unwrap_or_else(|| spec_error("--record needs a directory"))
                        .clone(),
                );
            }
            "--json" => {
                // Optional path operand: the next arg, unless it is
                // another flag (or there is none) — then JSON goes to
                // stdout. Positionals must precede flags, so nothing
                // else can follow `--json`.
                if args.get(i + 1).is_some_and(|s| !s.starts_with('-')) {
                    i += 1;
                    json_to = Some(Some(args[i].clone()));
                } else {
                    json_to = Some(None);
                }
            }
            other => positional.push(other),
        }
        i += 1;
    }
    if let Some(spec) = positional.first() {
        request.scenario = spec.to_string();
    }
    if let Some(s) = positional.get(1) {
        let n: u64 = s
            .parse()
            .unwrap_or_else(|_| spec_error(&format!("n_seeds needs a number, got {s:?}")));
        request.seeds = (0..n).collect();
    }
    if let Some(s) = positional.get(2) {
        request.rounds = s
            .parse()
            .unwrap_or_else(|_| spec_error(&format!("rounds needs a number, got {s:?}")));
    }
    let sweep_spec = request.to_spec().unwrap_or_else(|e| spec_error(&e));
    let canon = sweep_spec
        .canonical()
        .unwrap_or_else(|e| spec_error(&e.to_string()));
    let (spec, env_name) = (&request.scenario, &request.environment);
    let threads = request.resolved_threads();
    let (n_seeds, rounds) = (canon.seeds.len(), canon.rounds);

    eprintln!(
        "== sweep: {spec} in {env_name} ({} nodes, {} flows), {n_seeds} placements x {rounds} rounds, {} ==",
        canon.antennas.len(),
        canon.flows.len(),
        if threads == 1 {
            "serial".to_string()
        } else {
            format!("{threads} threads (0 = all cores)")
        }
    );
    eprintln!("antennas: {:?}", canon.antennas);

    let stats = match &record_to {
        Some(dir) => {
            let stats =
                run_recorded(&sweep_spec, &canon, spec, dir).unwrap_or_else(|e| spec_error(&e));
            eprintln!("recordings in {dir}/");
            stats
        }
        None => sweep_spec
            .try_run()
            .unwrap_or_else(|e| spec_error(&e.to_string())),
    };

    if let Some(path) = &json_to {
        let json = sweep_report_json(
            spec,
            env_name,
            &canon.traffic.spec_string(),
            &canon.mobility.spec_string(),
            n_seeds as u64,
            rounds,
            &stats,
        );
        match path {
            Some(p) => {
                if let Err(e) = std::fs::write(p, &json) {
                    eprintln!("error: cannot write {p}: {e}");
                    std::process::exit(1);
                }
                eprintln!("wrote {p}");
            }
            None => print!("{json}"),
        }
        return;
    }

    println!(
        "\n{:>12} {:>10} {:>8} {:>9} {:>9} {:>9}",
        "policy", "total Mb/s", "±95% CI", "mean DoF", "fairness", "runs"
    );
    for s in &stats {
        println!(
            "{:>12} {:>10.2} {:>8.2} {:>9.2} {:>9.2} {:>9}",
            s.policy, s.mean_total_mbps, s.ci95_total_mbps, s.mean_dof, s.mean_fairness, s.n_runs
        );
    }

    println!("\nper-flow means [Mb/s]:");
    for s in &stats {
        let flows: Vec<String> = s
            .mean_per_flow_mbps
            .iter()
            .map(|v| format!("{v:.2}"))
            .collect();
        println!("{:>12}: {}", s.policy, flows.join("  "));
    }
}
