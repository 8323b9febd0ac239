//! The three workloads, each in an untraced form (end-to-end metrics)
//! and a traced form (per-layer metrics).
//!
//! * `paper_sweep` — `SweepSpec::try_run` of the Fig. 3 pairs in the
//!   paper's indoor world, all five registry policies, serial.
//! * `city_world` — `SweepSpec::try_run` of a 1024-node city under
//!   Poisson load with waypoint mobility, 802.11n and n+, serial.
//! * `serve_mix` — a fresh in-process sweep server driven closed-loop
//!   with a seeded mix of cold and warm requests.

use crate::digest::stats_digest;
use crate::layers::{build_worlds, secs, Job, WorldBuild};
use crate::ops::{kernel_rows, serving_rows};
use crate::report::Report;
use crate::serve::{self, check_mix, drive, mix_cycle, ColdGauge, Step, SLOTS};
use crate::spec::SpecText;
use crate::traced::engine_and_codec;
use nplus::{SweepStats, BUILTIN_POLICY_NAMES};
use nplus_server::protocol::stats_to_json;
use std::time::{Duration, Instant};

/// How many input variants each sweep workload has; the workload seed
/// picks one (`seed % VARIANTS`), and each variant's output is pinned.
pub const VARIANTS: u64 = 8;

/// Topology seeds of one `paper_sweep`.
const PAPER_SEEDS: u64 = 20;

/// `stats_digest` of every `paper_sweep` variant (see `perfbench pin`).
const PAPER_DIGESTS: [u64; VARIANTS as usize] = [
    0x2c049e6032d49be8,
    0x8f9f85ea30ed6f99,
    0xbe79bd641b2286ce,
    0xee085b0b2c877223,
    0xc39073a208e4e7ac,
    0x551f28b939cf0512,
    0x6f7a6e8468d649fb,
    0x8b21d15f601a8d07,
];

/// `stats_digest` of every `city_world` variant (see `perfbench pin`).
const CITY_DIGESTS: [u64; VARIANTS as usize] = [
    0x29183e11e1b2e79b,
    0x27671f3ec4d68886,
    0xc2d1d206af2b6103,
    0x0e9efa115c710c04,
    0x8e099d2a407ac25c,
    0x1444ac0e94e62fdc,
    0x31b8ce14acea45c6,
    0x0a9955d86db4bd6f,
];

/// World builds per run — at least `SETUP_MIN_REPS`, more until
/// `SETUP_MIN_S` has passed; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_S: f64 = 0.5;
const SETUP_MAX_REPS: usize = 100;
/// Pause between set-up builds sampled during the `serve_mix` window.
const SETUP_PAUSE: Duration = Duration::from_millis(400);

/// The `paper_sweep` spec of variant `seed % VARIANTS`: the same 20
/// topologies every time, in an order rotated by the variant — equal
/// work, distinct inputs, distinct pinned output bits.
pub fn paper_text(seed: u64) -> SpecText {
    let v = (seed % VARIANTS) as usize;
    let mut seeds: Vec<u64> = (0..PAPER_SEEDS).collect();
    seeds.rotate_left(v);
    SpecText {
        scenario: "three_pairs".to_string(),
        environment: "sigcomm11".to_string(),
        policies: BUILTIN_POLICY_NAMES.iter().map(|p| p.to_string()).collect(),
        seeds,
        rounds: 40,
        mobility: None,
        sinr_grid: None,
    }
}

/// The `city_world` spec of variant `seed % VARIANTS`: one 1024-node
/// city topology (seed = variant), 16 rounds.
pub fn city_text(seed: u64) -> SpecText {
    SpecText {
        scenario: "load:poisson:1.5/city:1024".to_string(),
        environment: "multi_cell".to_string(),
        policies: vec!["dot11n".to_string(), "nplus".to_string()],
        seeds: vec![seed % VARIANTS],
        rounds: 16,
        mobility: Some("waypoint:2x4".to_string()),
        sinr_grid: None,
    }
}

/// Which sweep workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    /// `paper_sweep`.
    Paper,
    /// `city_world`.
    City,
}

impl SweepKind {
    fn text(self, seed: u64) -> SpecText {
        match self {
            SweepKind::Paper => paper_text(seed),
            SweepKind::City => city_text(seed),
        }
    }

    fn pinned(self, seed: u64) -> u64 {
        let v = (seed % VARIANTS) as usize;
        match self {
            SweepKind::Paper => PAPER_DIGESTS[v],
            SweepKind::City => CITY_DIGESTS[v],
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Builds the worlds at least `SETUP_MIN_REPS` times and for at least
/// `SETUP_MIN_S` — the samples of the traced run's set-up rows.
fn setup_builds(texts: &[SpecText]) -> Result<Vec<WorldBuild>, String> {
    let started = Instant::now();
    let mut builds = Vec::new();
    while builds.len() < SETUP_MIN_REPS
        || (builds.len() < SETUP_MAX_REPS && secs(started) < SETUP_MIN_S)
    {
        builds.push(build_worlds(texts)?);
    }
    Ok(builds)
}

/// Reports `setup_s`: the median wall time of the world builds sampled
/// through the run (topped up to `SETUP_MIN_REPS`). Spreading the builds
/// over the whole window, rather than timing them in one burst, lets
/// them see the same machine the other metrics see.
fn report_setup(texts: &[SpecText], mut walls: Vec<f64>, r: &mut Report) -> Result<(), String> {
    while walls.len() < SETUP_MIN_REPS {
        walls.push(build_worlds(texts)?.wall_s);
    }
    r.median("setup_s", &walls, "s");
    Ok(())
}

/// The set-up layer rows from repeated world builds.
fn setup_rows(builds: &[WorldBuild], r: &mut Report) {
    let topo: Vec<f64> = builds
        .iter()
        .flat_map(|b| b.topology_ms.iter().copied())
        .collect();
    let cache: Vec<f64> = builds
        .iter()
        .flat_map(|b| b.cache_ms.iter().copied())
        .collect();
    r.median("medium.topology_ms", &topo, "ms");
    r.median("channel.cache_build_ms", &cache, "ms");
    if let Some(b) = builds.first() {
        r.value("medium.links_wired", b.links as f64, "count");
        r.value(
            "channel.cache_mb",
            b.cache_bytes as f64 / (1024.0 * 1024.0),
            "MB",
        );
    }
}

fn report_rss(r: &mut Report) {
    match peak_rss_mb() {
        Some(mb) => r.value("peak_rss_mb", mb, "MB"),
        None => r.check(false, || {
            "cannot read VmHWM from /proc/self/status".to_string()
        }),
    }
}

/// Reports the latency metrics of a list of request latencies (ms).
fn latency_rows(warm_ms: &[f64], cold_ms: &[f64], r: &mut Report) {
    r.percentile("warm_p50_ms", warm_ms, 50.0, "ms");
    r.percentile("warm_p90_ms", warm_ms, 90.0, "ms");
    r.percentile("cold_p50_ms", cold_ms, 50.0, "ms");
}

/// Untraced `paper_sweep` / `city_world`: `SweepSpec::try_run` repeated
/// for `seconds`, each call timed and its statistics checked against
/// the pinned digest after the timer stops.
///
/// A *request* here is one `try_run` call. Sweeps have no result cache,
/// so every call computes from scratch and the warm and cold latency
/// rows summarize the same call times.
pub fn sweep_untraced(
    kind: SweepKind,
    seed: u64,
    seconds: f64,
    r: &mut Report,
) -> Result<(), String> {
    let text = kind.text(seed);
    let spec = text.builder_spec()?;
    let pinned = kind.pinned(seed);
    let texts = std::slice::from_ref(&text);
    let check = |r: &mut Report, stats: &[SweepStats]| {
        let got = stats_digest(stats);
        r.check(got == pinned, || {
            format!("sweep digest {got:#018x} differs from the pinned {pinned:#018x}")
        });
    };
    // One untimed call lets lazy set-up and caches settle.
    check(r, &spec.try_run().map_err(|e| e.to_string())?);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut sweep_s, mut setup_s) = (Vec::new(), Vec::new());
    while Instant::now() < deadline {
        setup_s.push(build_worlds(texts)?.wall_s);
        let t = Instant::now();
        let stats = spec.try_run().map_err(|e| e.to_string())?;
        sweep_s.push(secs(t));
        check(r, &stats);
    }
    let per_sweep = |k: f64| -> Vec<f64> { sweep_s.iter().map(|s| k / s).collect() };
    r.median("sweep_s", &sweep_s, "s");
    r.median("requests_per_s", &per_sweep(1.0), "1/s");
    r.median(
        "rounds_per_s",
        &per_sweep(text.policy_rounds() as f64),
        "rounds/s",
    );
    let sweep_ms: Vec<f64> = sweep_s.iter().map(|s| s * 1e3).collect();
    latency_rows(&sweep_ms, &sweep_ms, r);
    report_setup(texts, setup_s, r)?;
    report_rss(r);
    Ok(())
}

/// Serves `text` once cold and `WARM` times warm on a fresh server,
/// then pings; reports the server rows. `stats_json` is what the cold
/// response must carry; `inmem_us` is the in-memory request cycle.
fn server_probe(
    text: SpecText,
    stats_json: &str,
    inmem_us: f64,
    r: &mut Report,
) -> Result<(), String> {
    const WARM: usize = 12;
    const PINGS: usize = 12;
    let server = serve::start().map_err(|e| format!("bind: {e}"))?;
    let schedule =
        std::iter::once(Step::Cold(text)).chain(std::iter::repeat_n(Step::Warm(0), WARM));
    let conn = drive(&server.addr, schedule, None, PINGS, &ColdGauge::default());
    let stopped = server.stop();
    r.check(stopped, || {
        "the probe server did not shut down cleanly".to_string()
    });
    let c = check_mix(std::slice::from_ref(&conn), r);
    r.check(
        c.served.first().map(|(_, body)| body.as_str()) == Some(stats_json),
        || "the served statistics differ from the in-process sweep".to_string(),
    );
    server_rows(&c, &conn.ping_s, inmem_us, r);
    Ok(())
}

fn server_rows(c: &serve::Checked, ping_s: &[f64], inmem_us: f64, r: &mut Report) {
    r.value(
        "server.cache.hit_ratio",
        c.hits as f64 / c.ok.max(1) as f64,
        "ratio",
    );
    r.median("server.compute_ms", &c.compute_ms, "ms");
    let ping_ms: Vec<f64> = ping_s.iter().map(|s| s * 1e3).collect();
    r.median("server.client.ping_ms", &ping_ms, "ms");
    let wait_ms: Vec<f64> = c.warm_ms.iter().map(|w| w - inmem_us / 1e3).collect();
    r.median("server.client.wait_ms", &wait_ms, "ms");
}

/// Traced `paper_sweep` / `city_world`: set-up, engine, sweep, codec,
/// kernel and serving rows, and a server probe of the same spec.
pub fn sweep_traced(
    kind: SweepKind,
    seed: u64,
    seconds: f64,
    r: &mut Report,
) -> Result<(), String> {
    let text = kind.text(seed);
    let pinned = kind.pinned(seed);
    setup_rows(&setup_builds(std::slice::from_ref(&text))?, r);
    let jobs: Vec<Job> = vec![(text.builder_spec()?, text.clone())];
    let stats = engine_and_codec(&jobs, seconds * 0.6, r)?;
    let stats = stats.into_iter().next().unwrap_or_default();
    let got = stats_digest(&stats);
    r.check(got == pinned, || {
        format!("traced sweep digest {got:#018x} differs from the pinned {pinned:#018x}")
    });
    kernel_rows(seed, r);
    let inmem_us = serving_rows(&text.request_json(), &stats, r);
    server_probe(
        text,
        &stats_to_json(&stats).to_string_compact(),
        inmem_us,
        r,
    )
}

/// Connections of the mix: one per core, at most two.
fn mix_connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Untraced `serve_mix`: the seeded mix for `seconds`, every response
/// checked against the cache contract and every cold response against
/// the same spec built and run in-process.
pub fn serve_untraced(seed: u64, seconds: f64, r: &mut Report) -> Result<(), String> {
    let texts = mix_cycle(seed);
    let n_conns = mix_connections();
    // The main thread samples the set-up builds through the window, so
    // they see the machine the mix sees. The two cores share one set of
    // caches, so a build that overlaps a cold compute runs slow at
    // random: only builds with no cold request in flight count.
    let gauge = ColdGauge::default();
    let mut setup_s = Vec::new();
    let mix = std::thread::scope(|scope| {
        let mix = scope.spawn(|| serve::run_mix(seed, n_conns, seconds, 0, &gauge));
        while !mix.is_finished() {
            let Some(quiet) = gauge.quiet() else {
                std::thread::sleep(Duration::from_millis(2));
                continue;
            };
            let wall_s = build_worlds(&texts)?.wall_s;
            if gauge.quiet() == Some(quiet) {
                setup_s.push(wall_s);
            }
            std::thread::sleep(SETUP_PAUSE);
        }
        mix.join()
            .map_err(|_| "the mix thread panicked".to_string())
    })?;
    let (conns, wall, stopped) = mix.map_err(|e| format!("bind: {e}"))?;
    r.check(stopped, || {
        "the server did not shut down cleanly".to_string()
    });
    let c = check_mix(&conns, r);
    for (i, (text, body)) in c.served.iter().enumerate() {
        let stats = text.builder_spec()?.try_run().map_err(|e| e.to_string())?;
        r.check(stats_to_json(&stats).to_string_compact() == *body, || {
            format!(
                "cold response {i} ({}) differs from the in-process sweep",
                text.scenario
            )
        });
    }
    latency_rows(&c.warm_ms, &c.cold_ms, r);
    r.median("sweep_s", &c.all_s, "s");
    r.value("requests_per_s", c.ok as f64 / wall.max(1e-9), "1/s");
    r.value("rounds_per_s", c.rounds as f64 / wall.max(1e-9), "rounds/s");
    report_setup(&texts, setup_s, r)?;
    report_rss(r);
    println!(
        "serve_mix: {} connections, {} requests ({} cold, {} warm, cold share {:.3}) in {:.2} s",
        n_conns,
        c.ok,
        c.cold_ms.len(),
        c.warm_ms.len(),
        c.cold_ms.len() as f64 / c.ok.max(1) as f64,
        wall
    );
    Ok(())
}

/// Traced `serve_mix`: the mix with pings on its connections (server
/// rows), then the first cycle's worth of its cold specs in-process
/// through the traced layers.
pub fn serve_traced(seed: u64, seconds: f64, r: &mut Report) -> Result<(), String> {
    const PINGS: usize = 20;
    setup_rows(&setup_builds(&mix_cycle(seed))?, r);
    let gauge = ColdGauge::default();
    let (conns, _, stopped) = serve::run_mix(seed, mix_connections(), seconds * 0.4, PINGS, &gauge)
        .map_err(|e| format!("bind: {e}"))?;
    r.check(stopped, || {
        "the server did not shut down cleanly".to_string()
    });
    let c = check_mix(&conns, r);
    let served = &c.served[..c.served.len().min(SLOTS)];
    let jobs: Vec<Job> = served
        .iter()
        .map(|(text, _)| Ok((text.builder_spec()?, text.clone())))
        .collect::<Result<_, String>>()?;
    let stats = engine_and_codec(&jobs, seconds * 0.4, r)?;
    for (i, ((text, body), s)) in served.iter().zip(&stats).enumerate() {
        r.check(stats_to_json(s).to_string_compact() == *body, || {
            format!(
                "cold response {i} ({}) differs from the traced in-process sweep",
                text.scenario
            )
        });
    }
    kernel_rows(seed, r);
    let inmem_us = match (served.first(), stats.first()) {
        (Some((text, _)), Some(s)) => serving_rows(&text.request_json(), s, r),
        _ => {
            r.check(false, || "the mix served no cold request".to_string());
            0.0
        }
    };
    let ping_s: Vec<f64> = conns
        .iter()
        .flat_map(|c| c.ping_s.iter().copied())
        .collect();
    server_rows(&c, &ping_s, inmem_us, r);
    Ok(())
}
