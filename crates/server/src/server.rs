//! The serve loop: TCP accept, thread-per-connection request handling,
//! graceful shutdown.
//!
//! Every connection speaks the framed protocol of
//! [`protocol`](crate::protocol); a connection may pipeline any number
//! of requests. All error paths — malformed frames, malformed JSON,
//! specs the registries reject — produce an error *response* (or, for
//! unframeable garbage, a dropped connection); none of them panic the
//! server. As a last line of defense each request handler runs under
//! `catch_unwind`, so even a bug that does panic takes down one request,
//! not the process — the panic message still reaches stderr, where CI
//! greps for it.

use crate::cache::ResultCache;
use crate::protocol::{
    counters_response, error_response, parse_request, pong_response, read_frame, sweep_response,
    write_json_frame, Request, SweepRequest,
};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A bound sweep server: call [`serve`](SweepServer::serve) to run the
/// accept loop until a `shutdown` request arrives.
pub struct SweepServer {
    listener: TcpListener,
    cache: Arc<ResultCache>,
    stop: Arc<AtomicBool>,
}

impl SweepServer {
    /// Binds to `addr` (e.g. `"127.0.0.1:4011"`, or port `0` to let the
    /// OS pick — read it back with [`local_addr`](SweepServer::local_addr)).
    ///
    /// # Errors
    /// The bind error, verbatim.
    pub fn bind(addr: &str) -> io::Result<Self> {
        Ok(SweepServer {
            listener: TcpListener::bind(addr)?,
            cache: Arc::new(ResultCache::new()),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    /// The socket error, verbatim.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop: one handler thread per connection, shared
    /// result cache, until some connection sends `{"cmd":"shutdown"}`.
    ///
    /// # Errors
    /// Only fatal listener errors; per-connection I/O problems are
    /// contained to their connection.
    pub fn serve(&self) -> io::Result<()> {
        let addr = self.local_addr()?;
        for conn in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("sweep-server: accept failed: {e}");
                    continue;
                }
            };
            let cache = Arc::clone(&self.cache);
            let stop = Arc::clone(&self.stop);
            std::thread::spawn(move || {
                if let Err(e) = handle_connection(stream, &cache, &stop, addr) {
                    // Client went away mid-exchange: normal churn,
                    // worth a log line, never worth the process.
                    eprintln!("sweep-server: connection ended: {e}");
                }
            });
        }
        Ok(())
    }
}

fn handle_connection(
    mut stream: TcpStream,
    cache: &ResultCache,
    stop: &Arc<AtomicBool>,
    server_addr: std::net::SocketAddr,
) -> io::Result<()> {
    while let Some(payload) = read_frame(&mut stream)? {
        let response = match parse_request(&payload) {
            Err(msg) => error_response(&msg),
            Ok(Request::Ping) => pong_response(),
            Ok(Request::Stats) => counters_response(
                cache.len(),
                cache.hits(),
                cache.misses(),
                &cache.sorted_keys(),
            ),
            Ok(Request::Shutdown) => {
                stop.store(true, Ordering::SeqCst);
                write_json_frame(&mut stream, &pong_response())?;
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(server_addr);
                return Ok(());
            }
            Ok(Request::Sweep(req)) => {
                match catch_unwind(AssertUnwindSafe(|| serve_sweep(&req, cache))) {
                    Ok(resp) => resp,
                    Err(_) => error_response("internal error while serving the sweep"),
                }
            }
        };
        write_json_frame(&mut stream, &response)?;
    }
    Ok(())
}

/// Resolves, caches and serves one sweep request. Every malformed part
/// becomes an error response; the compute path is the same
/// deterministic executor the CLI uses, so cached and cold responses
/// are bit-identical.
fn serve_sweep(req: &SweepRequest, cache: &ResultCache) -> crate::json::Json {
    let canon = match req.to_canonical() {
        Ok(c) => c,
        Err(msg) => return error_response(&msg),
    };
    // nplus:allow(DET001): elapsed_ms is honest serving latency — it never feeds the result.
    let started = Instant::now();
    let served = cache.get_or_compute(canon.key(), || {
        canon
            .to_spec(req.threads)
            .and_then(|spec| spec.try_run())
            .map_err(|e| e.to_string())
    });
    match served {
        Ok((stats, cache_hit)) => sweep_response(
            &canon.key_hex(),
            cache_hit,
            started.elapsed().as_millis() as u64,
            &stats,
        ),
        Err(msg) => error_response(&msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::json::Json;

    fn start_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let server = SweepServer::bind("127.0.0.1:0").expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || server.serve().expect("serve"));
        (addr, handle)
    }

    #[test]
    fn ping_stats_and_shutdown_roundtrip() {
        let (addr, handle) = start_server();
        let pong = client::request_once(&addr.to_string(), "{\"cmd\":\"ping\"}").unwrap();
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
        let stats = client::request_once(&addr.to_string(), "{\"cmd\":\"stats\"}").unwrap();
        assert_eq!(stats.get("entries").and_then(Json::as_u64), Some(0));
        client::request_once(&addr.to_string(), "{\"cmd\":\"shutdown\"}").unwrap();
        handle.join().expect("serve loop exits cleanly");
    }

    #[test]
    fn malformed_requests_get_error_responses_not_panics() {
        let (addr, handle) = start_server();
        for bad in [
            "{\"cmd\":\"warp\"}",
            "{\"cmd\":\"sweep\",\"scenario\":\"warehouse\",\"rounds\":2,\"seeds\":[0]}",
            "{\"cmd\":\"sweep\",\"scenario\":\"pairs:2\",\"rounds\":2,\"seeds\":[0],\"environment\":\"vacuum\"}",
            "{\"cmd\":\"sweep\",\"scenario\":\"pairs:2\",\"rounds\":2,\"seeds\":[0],\"policies\":[\"aloha\"]}",
            "{\"cmd\":\"sweep\",\"scenario\":\"pairs:2\",\"rounds\":0,\"seeds\":[0]}",
            "{\"cmd\":\"sweep\",\"scenario\":\"pairs:2\",\"rounds\":2,\"seeds\":[]}",
            "this is not json",
        ] {
            let resp = client::request_once(&addr.to_string(), bad).unwrap();
            assert_eq!(
                resp.get("status").and_then(Json::as_str),
                Some("error"),
                "{bad}"
            );
            let msg = resp.get("error").and_then(Json::as_str).unwrap();
            assert!(!msg.is_empty(), "{bad}");
        }
        // The server is still healthy after all of that.
        let pong = client::request_once(&addr.to_string(), "{\"cmd\":\"ping\"}").unwrap();
        assert_eq!(pong.get("status").and_then(Json::as_str), Some("ok"));
        client::request_once(&addr.to_string(), "{\"cmd\":\"shutdown\"}").unwrap();
        handle.join().unwrap();
    }
}
