//! The served path: an in-process `SweepServer` on `127.0.0.1:0`,
//! driven closed-loop through the repository's unmodified
//! `nplus_server::client`, with the `sweep-load` cache contract checked
//! on every response.

use crate::layers::secs;
use crate::report::Report;
use crate::spec::SpecText;
use nplus_server::client;
use nplus_server::json::Json;
use nplus_server::SweepServer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A sweep request the mix sends, with what its responses must carry.
#[derive(Debug, Clone)]
pub struct PoolSpec {
    /// The sweep.
    pub text: SpecText,
    /// Its request frame text.
    pub request: String,
    /// The canonical key the server must answer with, taken from the
    /// `SweepSpec` builder rather than from the server's request path.
    pub key_hex: String,
}

impl PoolSpec {
    /// The request for `text` and the key the builder gives it.
    ///
    /// # Errors
    /// A spec the builder rejects or cannot canonicalize.
    pub fn new(text: SpecText) -> Result<PoolSpec, String> {
        let canon = text
            .builder_spec()?
            .canonical()
            .map_err(|e| e.to_string())?;
        Ok(PoolSpec {
            request: text.request_json(),
            key_hex: canon.key_hex(),
            text,
        })
    }
}

/// Scenario families of the mix: every testkit form, small enough that
/// a cold request computes in tens of milliseconds.
const FAMILIES: [(&str, &str); 10] = [
    ("three_pairs", "sigcomm11"),
    ("ap_downlink", "sigcomm11"),
    ("pairs:3", "sigcomm11"),
    ("multi_ap:2x2", "sigcomm11"),
    ("hidden:3", "sigcomm11"),
    ("asym:2", "sigcomm11"),
    ("dense:8", "sigcomm11"),
    ("random:7", "sigcomm11"),
    ("city:16", "multi_cell"),
    ("pairs:2", "rich_scatter"),
];

/// Policy sets the mix cycles through (all include 802.11n and n+).
const POLICY_SETS: [&[&str]; 3] = [
    &["dot11n", "nplus"],
    &["dot11n", "beamforming", "nplus"],
    &["dot11n", "nplus", "greedy_join"],
];

/// Slots of one cycle of a connection's cold stream.
pub const SLOTS: usize = 24;

/// Topology seeds per spec.
const SEEDS_PER_SPEC: usize = 3;

/// Share of a connection's requests that ask for a new (cold) spec.
const COLD_SHARE: f64 = 0.2;

/// The `k`-th cold spec of connection `conn` of `n_conns`. Slot
/// `k % SLOTS` fixes the family, policy set and round count, so every
/// seed, connection and cycle asks for the same kinds and sizes of work.
/// The topology seeds count up per connection from an offset the
/// workload seed picks, in steps of `n_conns` from `conn`, so no two
/// specs of a run share a key, on one connection or across them. The
/// last slot of a cycle is a `decimated:4` twin of the cycle's first.
pub fn mix_text(seed: u64, conn: usize, n_conns: usize, k: usize) -> SpecText {
    let slot = k % SLOTS;
    if slot == SLOTS - 1 {
        return SpecText {
            sinr_grid: Some("decimated:4".to_string()),
            ..mix_text(seed, conn, n_conns, k + 1 - SLOTS)
        };
    }
    let (family, environment) = FAMILIES[slot % FAMILIES.len()];
    let base = (seed % 1_000_000) * 1_000_000;
    SpecText {
        scenario: family.to_string(),
        environment: environment.to_string(),
        policies: POLICY_SETS[slot % POLICY_SETS.len()]
            .iter()
            .map(|p| p.to_string())
            .collect(),
        seeds: (0..SEEDS_PER_SPEC)
            .map(|j| base + ((k * SEEDS_PER_SPEC + j) * n_conns + conn) as u64)
            .collect(),
        rounds: 12,
        mobility: None,
        sinr_grid: None,
    }
}

/// One cycle of connection 0's stream: the worlds `setup_s` builds.
pub fn mix_cycle(seed: u64) -> Vec<SpecText> {
    (0..SLOTS).map(|k| mix_text(seed, 0, 1, k)).collect()
}

/// A server running on a background thread.
pub struct Running {
    /// `host:port` it listens on.
    pub addr: String,
    handle: JoinHandle<io::Result<()>>,
}

/// Binds a fresh server on an OS-chosen loopback port and serves it on
/// a background thread.
///
/// # Errors
/// The bind error.
pub fn start() -> io::Result<Running> {
    let server = SweepServer::bind("127.0.0.1:0")?;
    let addr = server.local_addr()?.to_string();
    let handle = std::thread::spawn(move || server.serve());
    Ok(Running { addr, handle })
}

impl Running {
    /// Sends `shutdown` and waits for the serve loop to return.
    pub fn stop(self) -> bool {
        let acked = client::request_once(&self.addr, "{\"cmd\":\"shutdown\"}").is_ok();
        acked && matches!(self.handle.join(), Ok(Ok(())))
    }
}

/// The next request of a connection.
#[derive(Debug, Clone)]
pub enum Step {
    /// A spec the connection has not sent yet: must miss the cache.
    Cold(SpecText),
    /// A repeat of the connection's `i`-th cold spec: must hit.
    Warm(usize),
}

/// One request of the mix as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index of the spec in the connection's `specs`.
    pub spec: usize,
    /// Whether this was the spec's first (cold) request.
    pub cold: bool,
    /// Round trip, seconds.
    pub rtt_s: f64,
    /// The response, or the I/O error that replaced it.
    pub response: Result<Json, String>,
}

/// What one connection did.
#[derive(Debug, Default)]
pub struct ConnResult {
    /// The specs it sent cold, in send order.
    pub specs: Vec<PoolSpec>,
    /// Every sweep request, in send order.
    pub samples: Vec<Sample>,
    /// Ping round trips after the sweeps, seconds.
    pub ping_s: Vec<f64>,
    /// When the last sweep response arrived.
    pub done: Option<Instant>,
    /// What stopped the connection early, if anything did.
    pub error: Option<String>,
}

/// The seeded closed-loop schedule of one mix connection: a fresh cold
/// spec first, then each request is a new cold spec with probability
/// `COLD_SHARE` and otherwise a warm repeat of a spec this connection
/// already sent — about four warm per cold for the whole window.
pub struct Schedule {
    rng: StdRng,
    seed: u64,
    conn: usize,
    n_conns: usize,
    colds: usize,
}

impl Schedule {
    /// The schedule of connection `conn` of `n_conns`.
    pub fn new(seed: u64, conn: usize, n_conns: usize) -> Schedule {
        Schedule {
            rng: StdRng::seed_from_u64(seed ^ (0xC0_11 * (conn as u64 + 1))),
            seed,
            conn,
            n_conns,
            colds: 0,
        }
    }
}

impl Iterator for Schedule {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        if self.colds == 0 || self.rng.gen_bool(COLD_SHARE) {
            let text = mix_text(self.seed, self.conn, self.n_conns, self.colds);
            self.colds += 1;
            return Some(Step::Cold(text));
        }
        Some(Step::Warm(self.rng.gen_range(0..self.colds)))
    }
}

/// Cold requests in flight, and cold requests started, over the
/// connections that share it.
#[derive(Debug, Default)]
pub struct ColdGauge {
    in_flight: AtomicUsize,
    started: AtomicUsize,
}

impl ColdGauge {
    /// `None` while a cold request is in flight; otherwise a token that
    /// stays the same until the next cold request starts.
    pub fn quiet(&self) -> Option<usize> {
        let started = self.started.load(Ordering::SeqCst);
        (self.in_flight.load(Ordering::SeqCst) == 0).then_some(started)
    }
}

/// Drives one connection: sends `schedule` until it ends or `deadline`
/// passes (the request in flight completes), then `pings` pings. Cold
/// requests are counted on `gauge`.
pub fn drive(
    addr: &str,
    schedule: impl Iterator<Item = Step>,
    deadline: Option<Instant>,
    pings: usize,
    gauge: &ColdGauge,
) -> ConnResult {
    let mut out = ConnResult::default();
    let mut stream = match client::connect_retry(addr, Duration::from_secs(5)) {
        Ok(s) => s,
        Err(e) => {
            out.error = Some(format!("connect: {e}"));
            return out;
        }
    };
    for step in schedule {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let (spec, cold) = match step {
            Step::Cold(text) => match PoolSpec::new(text) {
                Ok(p) => {
                    out.specs.push(p);
                    (out.specs.len() - 1, true)
                }
                Err(e) => {
                    out.error = Some(format!("spec {}: {e}", out.specs.len()));
                    return out;
                }
            },
            Step::Warm(i) => (i, false),
        };
        if cold {
            gauge.in_flight.fetch_add(1, Ordering::SeqCst);
            gauge.started.fetch_add(1, Ordering::SeqCst);
        }
        let t = Instant::now();
        let response =
            client::roundtrip(&mut stream, &out.specs[spec].request).map_err(|e| e.to_string());
        let rtt_s = secs(t);
        if cold {
            gauge.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        let broken = response.is_err();
        out.samples.push(Sample {
            spec,
            cold,
            rtt_s,
            response,
        });
        if broken {
            return out;
        }
    }
    out.done = Some(Instant::now());
    for _ in 0..pings {
        let t = Instant::now();
        match client::roundtrip(&mut stream, "{\"cmd\":\"ping\"}") {
            Ok(j) if j.get("pong").and_then(Json::as_bool) == Some(true) => {
                out.ping_s.push(secs(t))
            }
            _ => break,
        }
    }
    out
}

/// The mix's outcome, checked.
#[derive(Debug, Default)]
pub struct Checked {
    /// Warm (cache-hit) round trips, ms.
    pub warm_ms: Vec<f64>,
    /// Cold (computed) round trips, ms.
    pub cold_ms: Vec<f64>,
    /// Every round trip, seconds.
    pub all_s: Vec<f64>,
    /// `elapsed_ms` the server reported on cold responses.
    pub compute_ms: Vec<f64>,
    /// Policy-rounds the ok responses delivered.
    pub rounds: usize,
    /// Ok responses.
    pub ok: usize,
    /// Ok responses served from the cache.
    pub hits: usize,
    /// Every spec served cold, with the compact `stats` JSON of its cold
    /// response, by connection and then in send order.
    pub served: Vec<(SpecText, String)>,
}

/// Enforces the cache contract on every response: status `ok`, the
/// spec's canonical key, a miss on the spec's first request and a hit
/// with byte-identical statistics on every repeat.
pub fn check_mix(conns: &[ConnResult], r: &mut Report) -> Checked {
    let mut c = Checked::default();
    for conn in conns {
        if let Some(e) = &conn.error {
            r.check(false, || e.clone());
        }
        let mut bodies: Vec<Option<String>> = vec![None; conn.specs.len()];
        for s in &conn.samples {
            let spec = &conn.specs[s.spec];
            let resp = match &s.response {
                Ok(j) => j,
                Err(e) => {
                    r.check(false, || format!("request for spec {}: {e}", s.spec));
                    continue;
                }
            };
            let status = resp.get("status").and_then(Json::as_str);
            let key = resp.get("key").and_then(Json::as_str);
            let hit = resp.get("cache_hit").and_then(Json::as_bool);
            let stats = resp.get("stats").map(Json::to_string_compact);
            let ok = status == Some("ok") && key == Some(spec.key_hex.as_str());
            let contract = hit == Some(!s.cold)
                && match (s.cold, stats) {
                    (true, Some(body)) => {
                        bodies[s.spec] = Some(body);
                        true
                    }
                    (false, Some(body)) => bodies[s.spec].as_ref() == Some(&body),
                    _ => false,
                };
            r.check(ok && contract, || {
                format!(
                    "spec {} ({}) {}: status {status:?}, cache_hit {hit:?}, key {key:?}",
                    s.spec,
                    spec.text.scenario,
                    if s.cold { "cold" } else { "warm" }
                )
            });
            if !(ok && contract) {
                continue;
            }
            c.ok += 1;
            c.rounds += spec.text.policy_rounds();
            c.all_s.push(s.rtt_s);
            if s.cold {
                c.cold_ms.push(s.rtt_s * 1e3);
                if let Some(ms) = resp.get("elapsed_ms").and_then(Json::as_f64) {
                    c.compute_ms.push(ms);
                }
            } else {
                c.hits += 1;
                c.warm_ms.push(s.rtt_s * 1e3);
            }
        }
        c.served.extend(
            conn.specs
                .iter()
                .zip(bodies)
                .filter_map(|(p, body)| Some((p.text.clone(), body?))),
        );
    }
    c
}

/// Runs the mix on a fresh server over `n_conns` connections for
/// `seconds`, then `pings` pings per connection, counting cold requests
/// on `gauge`. Returns the per-connection results, the wall seconds of
/// the sweep traffic, and whether the server shut down cleanly.
///
/// # Errors
/// The server could not bind.
pub fn run_mix(
    seed: u64,
    n_conns: usize,
    seconds: f64,
    pings: usize,
    gauge: &ColdGauge,
) -> io::Result<(Vec<ConnResult>, f64, bool)> {
    let server = start()?;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let conns: Vec<ConnResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_conns)
            .map(|c| {
                let schedule = Schedule::new(seed, c, n_conns);
                let addr = server.addr.as_str();
                scope.spawn(move || drive(addr, schedule, Some(deadline), pings, gauge))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ConnResult {
                    error: Some("connection thread panicked".to_string()),
                    ..ConnResult::default()
                })
            })
            .collect()
    });
    let wall = conns
        .iter()
        .filter_map(|c| c.done)
        .max()
        .map_or(0.0, |done| (done - started).as_secs_f64());
    Ok((conns, wall, server.stop()))
}
