//! # nplus-server — sweep-as-a-service
//!
//! A long-running sweep server over the `nplus` Monte-Carlo engine:
//! clients submit serialized sweep requests (scenario spec, environment
//! and policy names, seeds, rounds), the server queues them onto the
//! deterministic parallel executor and returns aggregated
//! [`SweepStats`](nplus::sim::SweepStats) as JSON.
//!
//! The load-bearing feature is the **content-addressed result cache**:
//! every request is resolved once into a
//! [`SweepSpec`](nplus::sim::SweepSpec) by
//! [`SweepRequest::to_spec`] — the one resolver from text to a spec,
//! which the `sweep` CLI shares — and keyed by the 128-bit hash of that
//! spec's [`CanonicalSpec`](nplus::sim::CanonicalSpec); a miss runs the
//! same resolved spec. Because the sweep engine is a
//! pure function of those fields — bit-for-bit identical across thread
//! counts and repeat runs — a repeated request is served from the cache
//! instantly, marked `"cache_hit": true`, and is bit-identical to the
//! cold computation.
//!
//! The wire format is deliberately dependency-free: u32 big-endian
//! length-prefixed JSON frames over TCP ([`protocol`]), parsed and
//! written by the workspace's own dependency-free JSON module
//! ([`json`], re-exported from `nplus-codec`, which the recording
//! exporter shares).
//! Every malformed request — unframeable bytes, invalid JSON, names the
//! registries reject, structurally invalid scenarios — maps to a typed
//! error response; no client input reaches a panic.
//!
//! ## Quick start
//!
//! ```bash
//! cargo run --release -p nplus-server --bin sweep-server -- --addr 127.0.0.1:4011
//! # then, from another shell:
//! cargo run --release -p nplus-bench --bin sweep-load -- --addr 127.0.0.1:4011
//! ```
//!
//! In-process use (what the integration tests do):
//!
//! ```
//! use nplus_server::{client, SweepServer};
//!
//! let server = SweepServer::bind("127.0.0.1:0").unwrap();
//! let addr = server.local_addr().unwrap().to_string();
//! let handle = std::thread::spawn(move || server.serve().unwrap());
//! let resp = client::request_once(
//!     &addr,
//!     r#"{"cmd":"sweep","scenario":"pairs:2","rounds":2,"seeds":[0],"policies":["nplus"]}"#,
//! )
//! .unwrap();
//! assert_eq!(resp.get("status").and_then(|s| s.as_str()), Some("ok"));
//! client::request_once(&addr, r#"{"cmd":"shutdown"}"#).unwrap();
//! handle.join().unwrap();
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use nplus_codec::json;

pub use cache::ResultCache;
pub use json::{json_f64, Json};
pub use protocol::{Request, SweepRequest, MAX_FRAME};
pub use server::SweepServer;
