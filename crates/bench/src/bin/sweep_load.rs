//! `sweep-load` — load generator and correctness checker for the
//! `sweep-server`.
//!
//! Cycles a configurable number of requests over a small mix of
//! distinct sweep specs (different scenario families, environments,
//! policy sets and seed lists), all against one running server, and
//! verifies the service contract on every response:
//!
//! * every request answers `"status": "ok"` — no errors, no panics;
//! * the **first** request for each distinct spec is a cache miss;
//! * every **repeat** of a spec reports `"cache_hit": true` and carries
//!   statistics **byte-identical** to the first response's.
//!
//! Any violation prints one line and exits 1 — this is the binary CI
//! drives against a background server. On success it prints one summary
//! line (requests, distinct specs, cache hits, hit rate, req/s) and
//! exits 0; a bad command line exits 2.
//!
//! ```text
//! sweep-load [--addr HOST:PORT] [--requests N] [--shutdown]
//! ```
//!
//! `--requests` defaults to 15 (3 passes over the 5-spec mix);
//! `--shutdown` sends `{"cmd":"shutdown"}` at the end so a CI step can
//! tear the background server down deterministically.

use nplus_server::client;
use nplus_server::json::Json;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: sweep-load [--addr HOST:PORT] [--requests N] [--shutdown]";

/// The request mix: small, fast specs spanning scenario families,
/// environments, policy sets, seed-list spellings and the sparse
/// multi-cell world with a non-default traffic model.
const SPEC_MIX: [&str; 5] = [
    r#"{"cmd":"sweep","scenario":"pairs:2","rounds":3,"seeds":[0,1],"policies":["dot11n","nplus"],"threads":1}"#,
    r#"{"cmd":"sweep","scenario":"three_pairs","rounds":2,"seeds":[0],"policies":["nplus"],"environment":"outdoor"}"#,
    r#"{"cmd":"sweep","scenario":"hidden:3","rounds":2,"seed_count":2,"policies":["dot11n"]}"#,
    r#"{"cmd":"sweep","scenario":"asym:2","rounds":2,"seeds":[5],"policies":["beamforming"],"environment":"rich_scatter"}"#,
    r#"{"cmd":"sweep","scenario":"load:poisson:0.5/city:16","rounds":2,"seeds":[0],"policies":["nplus"],"environment":"multi_cell"}"#,
];

fn fail(msg: &str) -> ExitCode {
    eprintln!("sweep-load: {msg}");
    ExitCode::FAILURE
}

fn arg_error(msg: &str) -> ExitCode {
    eprintln!("sweep-load: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:4011".to_string();
    let mut requests: usize = 15;
    let mut shutdown = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = a,
                None => return arg_error("--addr needs a HOST:PORT value"),
            },
            "--requests" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => requests = n,
                None => return arg_error("--requests needs a number"),
            },
            "--shutdown" => shutdown = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return arg_error(&format!("unknown argument {other:?}")),
        }
    }
    if requests == 0 {
        return arg_error("--requests must be at least 1");
    }

    let mut stream = match client::connect_retry(&addr, Duration::from_secs(10)) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot connect to {addr}: {e}")),
    };
    println!(
        "sweep-load: {requests} requests over {} distinct specs against {addr}",
        SPEC_MIX.len()
    );

    // First response per spec index: (key, serialized stats).
    let mut first_seen: Vec<Option<(String, String)>> = vec![None; SPEC_MIX.len()];
    let mut cache_hits: u64 = 0;
    let started = Instant::now();
    for i in 0..requests {
        let which = i % SPEC_MIX.len();
        let resp = match client::roundtrip(&mut stream, SPEC_MIX[which]) {
            Ok(r) => r,
            Err(e) => return fail(&format!("request {i} failed: {e}")),
        };
        if resp.get("status").and_then(Json::as_str) != Some("ok") {
            return fail(&format!(
                "request {i} (spec {which}) was rejected: {}",
                resp.to_string_compact()
            ));
        }
        let Some(hit) = resp.get("cache_hit").and_then(Json::as_bool) else {
            return fail(&format!("request {i} response carries no cache_hit marker"));
        };
        let Some(key) = resp.get("key").and_then(Json::as_str) else {
            return fail(&format!("request {i} response carries no key"));
        };
        let Some(stats) = resp.get("stats") else {
            return fail(&format!("request {i} response carries no stats"));
        };
        let stats_text = stats.to_string_compact();
        match &first_seen[which] {
            None => {
                if hit {
                    return fail(&format!(
                        "request {i}: first sight of spec {which} reported cache_hit=true"
                    ));
                }
                first_seen[which] = Some((key.to_string(), stats_text));
            }
            Some((first_key, first_stats)) => {
                if !hit {
                    return fail(&format!(
                        "request {i}: repeat of spec {which} was not served from cache"
                    ));
                }
                if key != first_key {
                    return fail(&format!(
                        "request {i}: repeat of spec {which} changed key {first_key} -> {key}"
                    ));
                }
                if &stats_text != first_stats {
                    return fail(&format!(
                        "request {i}: cached stats for spec {which} are not bit-identical"
                    ));
                }
                cache_hits += 1;
            }
        }
    }
    let seconds = started.elapsed().as_secs_f64();
    let distinct = first_seen.iter().filter(|s| s.is_some()).count();
    let hit_rate = cache_hits as f64 / requests as f64;
    let rps = requests as f64 / seconds.max(1e-9);
    println!(
        "sweep-load: {requests} requests in {seconds:.3} s ({rps:.1} req/s), \
         {cache_hits} cache hits ({:.0}%), {distinct} distinct specs, all repeats bit-identical",
        hit_rate * 100.0
    );

    if shutdown {
        if let Err(e) = client::roundtrip(&mut stream, r#"{"cmd":"shutdown"}"#) {
            return fail(&format!("shutdown request failed: {e}"));
        }
        println!("sweep-load: server shutdown requested");
    }

    ExitCode::SUCCESS
}
