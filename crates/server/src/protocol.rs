//! The sweep-server wire protocol: length-prefixed JSON frames and the
//! request/response vocabulary.
//!
//! ## Framing
//!
//! Each message is one JSON document, UTF-8, prefixed by its byte
//! length as a big-endian `u32`. Frames above `MAX_FRAME` are
//! rejected before allocation, so a hostile length prefix cannot OOM
//! the server. A clean EOF *between* frames is a normal connection
//! close ([`read_frame`] returns `Ok(None)`); EOF *inside* a frame is
//! an error.
//!
//! ## Requests
//!
//! Every request is an object with a `"cmd"` member:
//!
//! ```json
//! {"cmd": "sweep", "scenario": "pairs:4", "environment": "sigcomm11",
//!  "policies": ["dot11n", "nplus"], "seeds": [0, 1, 2], "rounds": 5,
//!  "threads": 0}
//! {"cmd": "ping"}
//! {"cmd": "stats"}
//! {"cmd": "shutdown"}
//! ```
//!
//! For `"sweep"`, `scenario` (the scenario grammar — see
//! [`parse_spec`], including `city:<n>` and the `load:<model>/`
//! traffic prefix) and `rounds` are
//! required; `environment` defaults to `"sigcomm11"`, `policies` to
//! the default comparison trio, `threads` to `0` (all cores — an
//! execution detail, never part of the cache key), and the seed list
//! may be given as `"seeds": [..]` or `"seed_count": n` (meaning seeds
//! `0..n`, with `n` at most `MAX_FRAME / 2`), defaulting to
//! `seed_count = 20`. Optional `"traffic"` (`"saturated"`,
//! `"poisson:<mean>"`, `"bursty:<on>x<off>"`) and `"mobility"`
//! (`"static"`, `"waypoint:<step>x<epoch>"`) members set
//! the traffic and mobility models, and an optional `"sinr_grid"`
//! (`"full"`, `"decimated:<k>"`) member selects the SINR evaluation
//! tier — all three are canonical cache-key fields, so a decimated run
//! is never served from a full-grid cache entry. Giving both a `load:`
//! scenario prefix and a `"traffic"` member is an error.
//!
//! ## Responses
//!
//! ```json
//! {"status": "ok", "key": "<32 hex>", "cache_hit": false,
//!  "elapsed_ms": 12, "stats": [{"policy": "dot11n", ...}, ...]}
//! {"status": "error", "error": "one-line description"}
//! ```
//!
//! Statistics floats that are undefined (`NaN`/`Inf` — e.g. mean
//! fairness when no run had defined fairness) serialize as `null`,
//! never as an invalid JSON token.

use crate::json::{self, Json};
use nplus::policy::BUILTIN_POLICY_NAMES;
use nplus::scenario::parse_spec;
use nplus::sim::{CanonicalSpec, MobilityModel, SinrGrid, SweepSpec, SweepStats, TrafficModel};
use nplus_channel::environment::environment_from_name;
/// The statistics serializer, shared with the sweep report; re-exported
/// here so response consumers keep one import path.
pub use nplus_codec::export::stats_to_json;
use std::io::{self, Read, Write};

/// Largest frame either side accepts (1 MiB) — far above any real
/// request or response, far below anything that could hurt.
pub(crate) const MAX_FRAME: usize = 1 << 20;

/// Reads one length-prefixed frame. `Ok(None)` on clean EOF before any
/// prefix byte; an error on EOF mid-frame or an oversized prefix.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    match r.read(&mut prefix)? {
        0 => return Ok(None),
        mut n => {
            while n < 4 {
                let got = r.read(&mut prefix[n..])?;
                if got == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "EOF inside frame length prefix",
                    ));
                }
                n += got;
            }
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Writes one length-prefixed frame.
///
/// # Errors
/// `InvalidData` for payloads above `MAX_FRAME`; otherwise I/O errors.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME}-byte limit",
                payload.len()
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// [`write_frame`] for a JSON value.
pub(crate) fn write_json_frame(w: &mut impl Write, value: &Json) -> io::Result<()> {
    write_frame(w, value.to_string_compact().as_bytes())
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or serve from cache) a sweep.
    Sweep(SweepRequest),
    /// Report cache/serving counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Stop accepting connections and exit the serve loop.
    Shutdown,
}

/// The body of a `"sweep"` request, field defaults already applied.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Scenario spec in the [`parse_spec`] grammar (`"pairs:4"`, …).
    pub scenario: String,
    /// Registry name of the propagation environment.
    pub environment: String,
    /// Registry names of the policies; empty = the default trio.
    pub policies: Vec<String>,
    /// Seed list, in job order.
    pub seeds: Vec<u64>,
    /// Rounds per run.
    pub rounds: usize,
    /// Traffic model from the `"traffic"` member; `None` = saturated
    /// (unless the scenario spec carries a `load:` prefix).
    pub traffic: Option<TrafficModel>,
    /// Mobility model from the `"mobility"` member; `None` = static.
    pub mobility: Option<MobilityModel>,
    /// SINR evaluation tier from the `"sinr_grid"` member; `None` =
    /// the exact full grid.
    pub sinr_grid: Option<SinrGrid>,
    /// Worker threads (`0` = all cores). Execution detail only: not
    /// part of the canonical key, does not change results. The resolver
    /// caps it at the machine's cores.
    pub threads: usize,
}

impl SweepRequest {
    /// The one resolver from a textual sweep to a runnable [`SweepSpec`]
    /// — shared by the server and the `sweep` CLI: looks up the
    /// environment (whose capacity sizes `random:`/`city:` draws),
    /// parses the scenario grammar, resolves the policies by name, and
    /// caps the worker count at the machine's cores.
    /// Structural checks (empty seeds, zero rounds, invalid models) are
    /// the spec's own validator's, run by [`SweepSpec::canonical`] and
    /// every run entry point.
    ///
    /// # Errors
    /// A one-line message for every part the resolver rejects: unknown
    /// environment, unparseable scenario spec, a traffic model given
    /// both as a `load:` prefix and as a member, unknown policy.
    pub fn to_spec(&self) -> Result<SweepSpec, String> {
        let env = environment_from_name(&self.environment)
            .ok_or_else(|| format!("unknown environment {:?}", self.environment))?;
        let parsed = parse_spec(&self.scenario, env.capacity())?;
        if parsed.traffic.is_some() && self.traffic.is_some() {
            return Err(
                "give the traffic model in the load: scenario prefix or the \"traffic\" \
                 member, not both"
                    .to_string(),
            );
        }
        let mut spec = SweepSpec::new(parsed.scenario)
            .environment(*env)
            .rounds(self.rounds)
            .traffic(parsed.traffic.or(self.traffic).unwrap_or_default())
            .mobility(self.mobility.unwrap_or_default())
            .sinr_grid(self.sinr_grid.unwrap_or_default())
            .seeds(self.seeds.iter().copied())
            .threads(self.resolved_threads());
        for name in &self.policies {
            spec = spec.policy_named(name).map_err(|unknown| {
                format!("unknown policy {unknown:?} (try {BUILTIN_POLICY_NAMES:?})")
            })?;
        }
        Ok(spec)
    }

    /// The worker count [`to_spec`](SweepRequest::to_spec) gives the
    /// spec: `threads` capped at the machine's cores (`0`, all cores,
    /// stays `0`).
    pub fn resolved_threads(&self) -> usize {
        clamp_threads(
            self.threads,
            std::thread::available_parallelism().map_or(1, usize::from),
        )
    }

    /// The request's content-addressable [`CanonicalSpec`]:
    /// [`to_spec`](SweepRequest::to_spec), then
    /// [`SweepSpec::canonical`].
    ///
    /// # Errors
    /// As [`to_spec`](SweepRequest::to_spec), plus the spec validator's
    /// `invalid spec: …` messages (empty seed list, zero rounds).
    pub fn to_canonical(&self) -> Result<CanonicalSpec, String> {
        self.to_spec()?.canonical().map_err(|e| e.to_string())
    }
}

/// A requested worker count capped at `cores`, so a peer cannot make
/// one request start more OS threads than the machine has cores. `0`
/// (all cores) stays `0`. Results do not depend on the thread count, so
/// the cap changes no output.
fn clamp_threads(requested: usize, cores: usize) -> usize {
    requested.min(cores)
}

/// Parses one request frame.
///
/// # Errors
/// A one-line message naming the first malformed part — invalid UTF-8,
/// invalid JSON, a missing/mistyped member, an unknown command.
pub fn parse_request(payload: &[u8]) -> Result<Request, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "request is not UTF-8".to_string())?;
    let doc = json::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let cmd = doc
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| "request needs a string \"cmd\" member".to_string())?;
    match cmd {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "sweep" => parse_sweep(&doc).map(Request::Sweep),
        other => Err(format!(
            "unknown cmd {other:?} (try \"sweep\", \"stats\", \"ping\", \"shutdown\")"
        )),
    }
}

fn parse_sweep(doc: &Json) -> Result<SweepRequest, String> {
    let scenario = doc
        .get("scenario")
        .and_then(Json::as_str)
        .ok_or_else(|| "sweep needs a string \"scenario\" member".to_string())?
        .to_string();
    let rounds = doc
        .get("rounds")
        .ok_or_else(|| "sweep needs a \"rounds\" member".to_string())?
        .as_usize()
        .ok_or_else(|| "\"rounds\" must be a non-negative integer".to_string())?;
    let environment = match doc.get("environment") {
        None => "sigcomm11".to_string(),
        Some(v) => v
            .as_str()
            .ok_or_else(|| "\"environment\" must be a string".to_string())?
            .to_string(),
    };
    let policies = match doc.get("policies") {
        None => Vec::new(),
        Some(v) => v
            .as_array()
            .ok_or_else(|| "\"policies\" must be an array of strings".to_string())?
            .iter()
            .map(|p| {
                p.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "\"policies\" must be an array of strings".to_string())
            })
            .collect::<Result<_, _>>()?,
    };
    let seeds = match (doc.get("seeds"), doc.get("seed_count")) {
        (Some(_), Some(_)) => {
            return Err("give \"seeds\" or \"seed_count\", not both".to_string());
        }
        (Some(v), None) => v
            .as_array()
            .ok_or_else(|| "\"seeds\" must be an array of integers".to_string())?
            .iter()
            .map(|s| {
                s.as_u64().ok_or_else(|| {
                    "\"seeds\" must be an array of non-negative integers".to_string()
                })
            })
            .collect::<Result<_, _>>()?,
        (None, Some(v)) => {
            let n = v
                .as_u64()
                .ok_or_else(|| "\"seed_count\" must be a non-negative integer".to_string())?;
            // No frame can list more `"seeds"` entries than this (each
            // takes at least a digit and a comma), so both spellings
            // reach the same seed sets.
            if n > (MAX_FRAME / 2) as u64 {
                return Err(format!(
                    "\"seed_count\" {n} exceeds the limit of {}",
                    MAX_FRAME / 2
                ));
            }
            (0..n).collect()
        }
        (None, None) => (0..20).collect(),
    };
    let traffic = match doc.get("traffic") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| "\"traffic\" must be a string".to_string())?
                .parse::<TrafficModel>()?,
        ),
    };
    let mobility = match doc.get("mobility") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| "\"mobility\" must be a string".to_string())?
                .parse::<MobilityModel>()?,
        ),
    };
    let sinr_grid = match doc.get("sinr_grid") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| "\"sinr_grid\" must be a string".to_string())?
                .parse::<SinrGrid>()?,
        ),
    };
    let threads = match doc.get("threads") {
        None => 0,
        Some(v) => v
            .as_usize()
            .ok_or_else(|| "\"threads\" must be a non-negative integer".to_string())?,
    };
    Ok(SweepRequest {
        scenario,
        environment,
        policies,
        seeds,
        rounds,
        traffic,
        mobility,
        sinr_grid,
        threads,
    })
}

/// The success response to a sweep request.
pub fn sweep_response(
    key_hex: &str,
    cache_hit: bool,
    elapsed_ms: u64,
    stats: &[SweepStats],
) -> Json {
    Json::Obj(vec![
        ("status".to_string(), Json::Str("ok".to_string())),
        ("key".to_string(), Json::Str(key_hex.to_string())),
        ("cache_hit".to_string(), Json::Bool(cache_hit)),
        ("elapsed_ms".to_string(), Json::Int(elapsed_ms as i64)),
        ("stats".to_string(), stats_to_json(stats)),
    ])
}

/// The error response: one line, no panics behind it.
pub(crate) fn error_response(message: &str) -> Json {
    Json::Obj(vec![
        ("status".to_string(), Json::Str("error".to_string())),
        ("error".to_string(), Json::Str(message.to_string())),
    ])
}

/// The `"ping"` response.
pub(crate) fn pong_response() -> Json {
    Json::Obj(vec![
        ("status".to_string(), Json::Str("ok".to_string())),
        ("pong".to_string(), Json::Bool(true)),
    ])
}

/// How many cached keys a `"stats"` response lists. At ~35 bytes a key
/// this keeps the reply far below [`MAX_FRAME`] however large the cache
/// grows; `entries` still carries the total.
const STATS_MAX_KEYS: usize = 1024;

/// The `"stats"` (serving counters) response. `keys` must be sorted
/// ascending; only the 1024 smallest are listed, so the reply always
/// fits a frame.
pub(crate) fn counters_response(entries: usize, hits: u64, misses: u64, keys: &[u128]) -> Json {
    Json::Obj(vec![
        ("status".to_string(), Json::Str("ok".to_string())),
        ("entries".to_string(), Json::Int(entries as i64)),
        ("hits".to_string(), Json::Int(hits as i64)),
        ("misses".to_string(), Json::Int(misses as i64)),
        // Cached canonical keys, pre-sorted by the cache: the whole
        // response is byte-identical for a given cache state, however
        // the entries were inserted.
        (
            "keys".to_string(),
            Json::Arr(
                keys.iter()
                    .take(STATS_MAX_KEYS)
                    .map(|k| Json::Str(format!("{k:032x}")))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"cmd\":\"ping\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some(&b"{\"cmd\":\"ping\"}"[..])
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None); // clean EOF

        // A hostile length prefix errors before allocating.
        let mut huge = io::Cursor::new(u32::MAX.to_be_bytes().to_vec());
        assert!(read_frame(&mut huge).is_err());
        // EOF mid-frame is an error, not a silent truncation.
        let mut cut = io::Cursor::new(vec![0, 0, 0, 9, b'x']);
        assert!(read_frame(&mut cut).is_err());
        let mut cut_prefix = io::Cursor::new(vec![0, 0]);
        assert!(read_frame(&mut cut_prefix).is_err());
        // Oversized outgoing payloads are refused too.
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &vec![0u8; MAX_FRAME + 1]).is_err());
    }

    #[test]
    fn requests_parse_with_documented_defaults() {
        assert_eq!(parse_request(b"{\"cmd\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            parse_request(b"{\"cmd\":\"stats\"}").unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(b"{\"cmd\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
        let full = parse_request(
            br#"{"cmd":"sweep","scenario":"pairs:2","environment":"outdoor",
                "policies":["nplus"],"seeds":[3,1],"rounds":4,"threads":2}"#,
        )
        .unwrap();
        assert_eq!(
            full,
            Request::Sweep(SweepRequest {
                scenario: "pairs:2".to_string(),
                environment: "outdoor".to_string(),
                policies: vec!["nplus".to_string()],
                seeds: vec![3, 1],
                rounds: 4,
                traffic: None,
                mobility: None,
                sinr_grid: None,
                threads: 2,
            })
        );
        let minimal =
            parse_request(br#"{"cmd":"sweep","scenario":"three_pairs","rounds":3}"#).unwrap();
        match minimal {
            Request::Sweep(r) => {
                assert_eq!(r.environment, "sigcomm11");
                assert!(r.policies.is_empty());
                assert_eq!(r.seeds, (0..20).collect::<Vec<u64>>());
                assert_eq!(r.traffic, None);
                assert_eq!(r.mobility, None);
                assert_eq!(r.sinr_grid, None);
                assert_eq!(r.threads, 0);
            }
            other => panic!("{other:?}"),
        }
        let modeled = parse_request(
            br#"{"cmd":"sweep","scenario":"city:16","environment":"multi_cell","rounds":3,
                "traffic":"poisson:0.5","mobility":"waypoint:2x4","sinr_grid":"decimated:4"}"#,
        )
        .unwrap();
        match modeled {
            Request::Sweep(r) => {
                assert_eq!(r.sinr_grid, Some(SinrGrid::Decimated(4)));
                assert_eq!(
                    r.traffic,
                    Some(TrafficModel::Poisson {
                        mean_per_round: 0.5
                    })
                );
                assert_eq!(
                    r.mobility,
                    Some(MobilityModel::Waypoint {
                        step_m: 2.0,
                        epoch_rounds: 4
                    })
                );
            }
            other => panic!("{other:?}"),
        }
        let counted =
            parse_request(br#"{"cmd":"sweep","scenario":"three_pairs","rounds":3,"seed_count":5}"#)
                .unwrap();
        match counted {
            Request::Sweep(r) => assert_eq!(r.seeds, vec![0, 1, 2, 3, 4]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_one_line_errors() {
        let over_seed_cap = format!(
            "{{\"cmd\":\"sweep\",\"scenario\":\"pairs:2\",\"rounds\":2,\"seed_count\":{}}}",
            MAX_FRAME / 2 + 1
        );
        for bad in [
            &b"not json"[..],
            b"[]",
            b"{}",
            b"{\"cmd\":7}",
            b"{\"cmd\":\"warp\"}",
            b"{\"cmd\":\"sweep\"}",
            b"{\"cmd\":\"sweep\",\"scenario\":\"three_pairs\"}",
            b"{\"cmd\":\"sweep\",\"scenario\":7,\"rounds\":3}",
            b"{\"cmd\":\"sweep\",\"scenario\":\"three_pairs\",\"rounds\":-1}",
            b"{\"cmd\":\"sweep\",\"scenario\":\"three_pairs\",\"rounds\":3,\"seeds\":[1.5]}",
            b"{\"cmd\":\"sweep\",\"scenario\":\"three_pairs\",\"rounds\":3,\"seeds\":[1],\"seed_count\":2}",
            b"{\"cmd\":\"sweep\",\"scenario\":\"pairs:2\",\"rounds\":2,\"seed_count\":4611686018427387904}",
            over_seed_cap.as_bytes(),
            b"{\"cmd\":\"sweep\",\"scenario\":\"three_pairs\",\"rounds\":3,\"policies\":[7]}",
            b"{\"cmd\":\"sweep\",\"scenario\":\"three_pairs\",\"rounds\":3,\"threads\":\"many\"}",
            b"{\"cmd\":\"sweep\",\"scenario\":\"three_pairs\",\"rounds\":3,\"traffic\":7}",
            b"{\"cmd\":\"sweep\",\"scenario\":\"three_pairs\",\"rounds\":3,\"traffic\":\"cbr:4\"}",
            b"{\"cmd\":\"sweep\",\"scenario\":\"three_pairs\",\"rounds\":3,\"mobility\":\"brownian\"}",
            b"{\"cmd\":\"sweep\",\"scenario\":\"three_pairs\",\"rounds\":3,\"sinr_grid\":7}",
            b"{\"cmd\":\"sweep\",\"scenario\":\"three_pairs\",\"rounds\":3,\"sinr_grid\":\"decimated:1\"}",
            b"\xff\xfe",
        ] {
            let err = parse_request(bad).unwrap_err();
            assert!(!err.is_empty() && !err.contains('\n'), "{bad:?}: {err:?}");
        }
    }

    /// A peer's thread request is capped at the cores (checked on the
    /// pure cap: nothing here starts a thread); `0` keeps meaning all
    /// cores, and smaller requests pass through.
    #[test]
    fn thread_requests_are_capped_at_the_cores() {
        assert_eq!(clamp_threads(100_000, 4), 4);
        assert_eq!(clamp_threads(usize::MAX, 2), 2);
        assert_eq!(clamp_threads(0, 4), 0);
        assert_eq!(clamp_threads(3, 4), 3);
        assert_eq!(clamp_threads(1, 1), 1);
    }

    #[test]
    fn sweep_requests_resolve_to_canonical_specs() {
        let req = SweepRequest {
            scenario: "pairs:2".to_string(),
            environment: "sigcomm11".to_string(),
            policies: vec![],
            seeds: vec![0, 1],
            rounds: 3,
            traffic: None,
            mobility: None,
            sinr_grid: None,
            threads: 4,
        };
        // `req` with one edit applied.
        let with = |edit: &dyn Fn(&mut SweepRequest)| {
            let mut r = req.clone();
            edit(&mut r);
            r
        };
        let key = |edit: &dyn Fn(&mut SweepRequest)| with(edit).to_canonical().unwrap().key();
        let err = |edit: &dyn Fn(&mut SweepRequest)| with(edit).to_canonical().unwrap_err();
        let canon = req.to_canonical().unwrap();
        assert_eq!(canon.environment, "sigcomm11");
        assert_eq!(canon.policies, ["dot11n", "beamforming", "nplus"]);
        assert_eq!(canon.rounds, 3);
        // Threads never enter the canonical form.
        assert_eq!(key(&|r| r.threads = 1), canon.key());
        // Traffic and mobility ARE canonical: they move the key, and
        // the load: scenario prefix is the same key as the member form.
        let poisson = TrafficModel::Poisson {
            mean_per_round: 0.5,
        };
        let member_key = key(&|r| r.traffic = Some(poisson));
        assert_ne!(member_key, canon.key());
        assert_eq!(
            key(&|r| r.scenario = "load:poisson:0.5/pairs:2".to_string()),
            member_key
        );
        let waypoint = MobilityModel::Waypoint {
            step_m: 2.0,
            epoch_rounds: 4,
        };
        assert_ne!(key(&|r| r.mobility = Some(waypoint)), canon.key());
        // The SINR grid tier is canonical too: a decimated request must
        // never alias the full-grid cache entry, and k is part of it.
        let dec_key = key(&|r| r.sinr_grid = Some(SinrGrid::Decimated(4)));
        assert_ne!(dec_key, canon.key());
        assert_ne!(
            key(&|r| r.sinr_grid = Some(SinrGrid::Decimated(8))),
            dec_key
        );
        // Every malformed part maps to its one-line wire error, verbatim
        // — including both traffic spellings at once, which is ambiguous.
        assert_eq!(
            err(&|r| {
                r.scenario = "load:saturated/pairs:2".to_string();
                r.traffic = Some(poisson);
            }),
            "give the traffic model in the load: scenario prefix or the \"traffic\" member, \
             not both"
        );
        assert_eq!(
            err(&|r| r.environment = "vacuum".to_string()),
            "unknown environment \"vacuum\""
        );
        assert_eq!(
            err(&|r| r.scenario = "pairs:999".to_string()),
            "pairs:<n> needs 1..=8"
        );
        assert_eq!(
            err(&|r| r.policies = vec!["aloha".to_string()]),
            "unknown policy \"aloha\" (try [\"dot11n\", \"beamforming\", \"nplus\", \
             \"greedy_join\", \"oracle\"])"
        );
        assert_eq!(err(&|r| r.seeds.clear()), "invalid spec: empty seed list");
        assert_eq!(err(&|r| r.rounds = 0), "invalid spec: zero rounds");
        assert_eq!(
            err(&|r| r.policies = vec!["nplus".to_string(), "nplus".to_string()]),
            "invalid spec: duplicate policy \"nplus\""
        );
    }

    /// Equal canonical keys mean bitwise-equal statistics, however the
    /// sweep was spelled: through the resolver or the builder, in any
    /// builder-call order, at 1 or 2 threads, with no policies or the
    /// default trio named, with the `load:` prefix or the `"traffic"`
    /// member — for the defaults and with every keyed model set.
    /// (`{:?}` prints every float round-trip exactly, so equal text is
    /// equal bits.)
    #[test]
    fn equal_keys_run_to_bitwise_equal_stats() {
        use nplus::sim::Scenario;
        let poisson = TrafficModel::Poisson {
            mean_per_round: 0.5,
        };
        let waypoint = MobilityModel::Waypoint {
            step_m: 2.0,
            epoch_rounds: 2,
        };
        let trio = ["dot11n", "beamforming", "nplus"];
        let plain = SweepRequest {
            scenario: "three_pairs".to_string(),
            environment: "sigcomm11".to_string(),
            policies: vec![],
            seeds: vec![2, 0],
            rounds: 4,
            traffic: None,
            mobility: None,
            sinr_grid: None,
            threads: 1,
        };
        let modeled = SweepRequest {
            environment: "rich_scatter".to_string(),
            traffic: Some(poisson),
            mobility: Some(waypoint),
            sinr_grid: Some(SinrGrid::Decimated(4)),
            ..plain.clone()
        };
        let mut builder = SweepSpec::new(Scenario::three_pairs()).threads(2);
        for name in trio {
            builder = builder.policy_named(name).unwrap();
        }
        let groups = [
            [
                plain.to_spec().unwrap(),
                SweepRequest {
                    policies: trio.map(str::to_string).to_vec(),
                    threads: 2,
                    ..plain.clone()
                }
                .to_spec()
                .unwrap(),
                SweepSpec::new(Scenario::three_pairs())
                    .rounds(4)
                    .seeds([2, 0]),
            ],
            [
                modeled.to_spec().unwrap(),
                SweepRequest {
                    scenario: "load:poisson:0.5/three_pairs".to_string(),
                    traffic: None,
                    threads: 2,
                    ..modeled.clone()
                }
                .to_spec()
                .unwrap(),
                builder
                    .sinr_grid(SinrGrid::Decimated(4))
                    .mobility(waypoint)
                    .seeds([2, 0])
                    .traffic(poisson)
                    .rounds(4)
                    .environment_named("rich_scatter")
                    .unwrap(),
            ],
        ];
        for (g, specs) in groups.iter().enumerate() {
            let key = specs[0].canonical().unwrap().key();
            let stats = format!("{:?}", specs[0].try_run().unwrap());
            for (i, spec) in specs.iter().enumerate() {
                assert_eq!(spec.canonical().unwrap().key(), key, "group {g} spec {i}");
                assert_eq!(
                    format!("{:?}", spec.try_run().unwrap()),
                    stats,
                    "group {g} spec {i}"
                );
            }
        }
    }

    #[test]
    fn stats_response_fits_a_frame_on_a_large_cache() {
        let keys: Vec<u128> = (0..40_000u128).map(|k| k << 64 | k).collect();
        let text = counters_response(keys.len(), 7, 40_000, &keys).to_string_compact();
        assert!(text.len() <= MAX_FRAME, "{} bytes", text.len());
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("entries").and_then(Json::as_u64), Some(40_000));
        let listed = doc.get("keys").and_then(Json::as_array).unwrap();
        assert_eq!(listed.len(), STATS_MAX_KEYS);
        assert_eq!(listed[0].as_str(), Some("00000000000000000000000000000000"));
    }

    #[test]
    fn undefined_stats_serialize_as_null() {
        let stats = vec![SweepStats {
            policy: "nplus".to_string(),
            n_runs: 2,
            mean_total_mbps: 0.0,
            ci95_total_mbps: 0.0,
            mean_per_flow_mbps: vec![0.0, f64::NAN],
            mean_dof: f64::INFINITY,
            mean_fairness: f64::NAN,
        }];
        let text = stats_to_json(&stats).to_string_compact();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        assert!(text.contains("\"mean_fairness\":null"), "{text}");
        assert!(text.contains("\"mean_dof\":null"), "{text}");
        assert!(text.contains("[0,null]"), "{text}");
        // The whole response document stays parseable JSON.
        let resp = sweep_response("00ff", false, 12, &stats).to_string_compact();
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(doc.get("cache_hit").and_then(Json::as_bool), Some(false));
        assert_eq!(
            doc.get("stats")
                .and_then(Json::as_array)
                .and_then(|a| a[0].get("mean_fairness"))
                .cloned(),
            Some(Json::Null)
        );
    }
}
