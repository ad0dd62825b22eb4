//! A tiny blocking HTTP server: serves a caller-maintained JSON status
//! document at `/status` and the metrics registry's Prometheus
//! exposition at `/metrics`, plus any routes a registered
//! [`handler`](StatusShared::set_handler) claims (the sweep service's
//! job API). Dependency-free (std `TcpListener`), one accept thread,
//! `Connection: close` per request — enough for a human with `curl`, a
//! scraper, or a sweep submitter, while staying trivially auditable.
//!
//! Hostile-input posture: the read loop is bounded three ways — header
//! bytes (8 KiB → 431), declared body bytes (1 MiB → 413), and wall
//! clock (a slowloris trickling bytes gets at most
//! [`CONN_DEADLINE`] before a 408-and-close) — and a handler that
//! panics is caught and answered with a 500, never killing the accept
//! thread. Binding to port 0 picks an ephemeral port, reported by
//! [`StatusServer::local_addr`].

use crate::metrics::MetricsRegistry;
use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum header-section bytes accepted before answering 431.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Maximum request-body bytes accepted before answering 413.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Wall-clock budget for reading one request; a client that has not
/// delivered a complete request by then gets a 408 and the socket is
/// closed. This is the slowloris bound: one connection can occupy the
/// (single-threaded) server for at most this long.
pub const CONN_DEADLINE: Duration = Duration::from_secs(5);

/// Concurrent connection threads before new connections are served
/// inline on the acceptor (backpressure against connection floods).
const MAX_CONN_THREADS: usize = 32;

/// A parsed request handed to the registered [`Handler`].
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Uppercase method token as sent (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Path with any `?query` stripped.
    pub path: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// A response a [`Handler`] (or the built-in router) produces.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    pub code: u16,
    pub content_type: &'static str,
    pub body: String,
    /// Extra headers, e.g. `("Retry-After", "2")` on a 429.
    pub headers: Vec<(&'static str, String)>,
}

impl HttpResponse {
    pub fn json(code: u16, body: impl Into<String>) -> Self {
        HttpResponse {
            code,
            content_type: "application/json; charset=utf-8",
            body: body.into(),
            headers: Vec::new(),
        }
    }

    pub fn text(code: u16, body: impl Into<String>) -> Self {
        HttpResponse {
            code,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            headers: Vec::new(),
        }
    }

    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }
}

/// Canonical reason phrases for the codes this server emits.
fn reason(code: u16) -> &'static str {
    match code {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// A route handler: returns `Some(response)` to claim the request,
/// `None` to fall through to the built-in `/status`-`/metrics` routes.
pub type Handler = dyn Fn(&HttpRequest) -> Option<HttpResponse> + Send + Sync;

/// State shared between the producer (e.g. the sweep service) and the
/// server thread.
pub struct StatusShared {
    status_json: Mutex<String>,
    metrics: Arc<MetricsRegistry>,
    handler: Mutex<Option<Arc<Handler>>>,
}

impl std::fmt::Debug for StatusShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatusShared")
            .field("metrics", &self.metrics)
            .finish_non_exhaustive()
    }
}

impl StatusShared {
    pub fn new(metrics: Arc<MetricsRegistry>) -> Arc<Self> {
        Arc::new(StatusShared {
            status_json: Mutex::new("{}".to_string()),
            metrics,
            handler: Mutex::new(None),
        })
    }

    /// Install (or, with `None`, remove) the route handler consulted
    /// before the built-in routes. The sweep service registers its job
    /// API here; clearing it at shutdown also breaks the
    /// `StatusShared → handler → service → StatusShared` reference
    /// cycle so everything drops.
    pub fn set_handler(&self, h: Option<Arc<Handler>>) {
        let mut g = self.handler.lock().unwrap_or_else(|p| p.into_inner());
        *g = h;
    }

    fn handler(&self) -> Option<Arc<Handler>> {
        self.handler
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Replace the document served at `/status`.
    ///
    /// A thread that panicked mid-update (e.g. a crashing sweep slot)
    /// poisons the mutex; the status surface is diagnostic read-only
    /// state, so both accessors recover the guard — serving the
    /// last-known document — and log a `warn` instead of propagating the
    /// panic into the producer or the server thread.
    pub fn set_status_json(&self, s: String) {
        let mut g = self.status_json.lock().unwrap_or_else(|poisoned| {
            warn_poisoned("set_status_json");
            poisoned.into_inner()
        });
        *g = s;
    }

    pub fn status_json(&self) -> String {
        self.status_json
            .lock()
            .unwrap_or_else(|poisoned| {
                warn_poisoned("status_json");
                poisoned.into_inner()
            })
            .clone()
    }

    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Poison the status mutex the only way a mutex gets poisoned: by
    /// panicking while holding the guard. Production code never holds
    /// the guard across fallible work, so the recovery paths can only be
    /// exercised by a deliberately crashing thread.
    #[cfg(test)]
    fn poison_for_test(self: &Arc<Self>) {
        let me = Arc::clone(self);
        let res = std::thread::Builder::new()
            .name("poisoner".to_string())
            .spawn(move || {
                let _guard = me.status_json.lock().unwrap();
                panic!("deliberate poison");
            })
            .unwrap()
            .join();
        assert!(res.is_err(), "poisoner thread must panic");
    }
}

/// A poisoned status mutex means some slot panicked while holding it;
/// the document itself (a whole `String` swap) is never torn, so keep
/// serving and leave a trail in the event log.
fn warn_poisoned(site: &str) {
    crate::event::emit(
        crate::Level::Warn,
        "telemetry::status",
        "status mutex poisoned by a panicked producer; serving last-known document",
        &[("site", site.into())],
    );
}

/// Handle to a running server; stops (thread joined) on drop.
#[derive(Debug)]
pub struct StatusServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl StatusServer {
    /// Bind `addr` (e.g. `127.0.0.1:7878`, port 0 for ephemeral) and
    /// serve `shared` until dropped.
    pub fn start(addr: &str, shared: Arc<StatusShared>) -> std::io::Result<StatusServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("microbank-status".to_string())
            .spawn(move || {
                // Each connection gets its own short-lived thread so a
                // stalled peer can only hold its own slot (reaped by
                // CONN_DEADLINE), never the acceptor. The slot count
                // bounds what a connection flood can pin; at the cap the
                // flood is served inline, which is backpressure, not a
                // hang: inline connections still answer-or-close within
                // the deadline.
                let slots = Arc::new(AtomicUsize::new(0));
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        if slots.load(Ordering::Acquire) < MAX_CONN_THREADS {
                            slots.fetch_add(1, Ordering::AcqRel);
                            let shared = Arc::clone(&shared);
                            let slots2 = Arc::clone(&slots);
                            let spawned = std::thread::Builder::new()
                                .name("microbank-status-conn".to_string())
                                .spawn(move || {
                                    let _ = handle_conn(stream, &shared);
                                    slots2.fetch_sub(1, Ordering::AcqRel);
                                });
                            if spawned.is_err() {
                                // The closure (and the stream with it) was
                                // dropped without running; free its slot.
                                slots.fetch_sub(1, Ordering::AcqRel);
                            }
                        } else {
                            let _ = handle_conn(stream, &shared);
                        }
                    }
                }
            })?;
        Ok(StatusServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection. When the
        // listener was bound to a wildcard address, `self.addr` is
        // `0.0.0.0:<port>` (or `[::]:<port>`) — not connectable on every
        // platform — so dial the matching loopback with the bound port.
        let ip = match self.addr.ip() {
            ip if ip.is_unspecified() && ip.is_ipv4() => IpAddr::V4(Ipv4Addr::LOCALHOST),
            ip if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
            ip => ip,
        };
        let wake = SocketAddr::new(ip, self.addr.port());
        let _ = TcpStream::connect_timeout(&wake, Duration::from_millis(500));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Read one request within the caps and deadline. `Ok(Err(resp))` is a
/// protocol-level rejection to send; `Err(_)` means the peer vanished
/// (nothing useful to send).
fn read_request(stream: &mut TcpStream) -> std::io::Result<Result<HttpRequest, HttpResponse>> {
    let deadline = Instant::now() + CONN_DEADLINE;
    // Short per-read timeout so the deadline is checked between reads
    // even against a peer that sends nothing at all.
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;

    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // Phase 1: accumulate until end-of-headers.
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Ok(Err(HttpResponse::text(431, "header section too large\n")));
        }
        if Instant::now() >= deadline {
            return Ok(Err(HttpResponse::text(
                408,
                "request not received in time\n",
            )));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(std::io::Error::other("peer closed before headers")),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Per-read timeout: loop back to the deadline check.
            }
            Err(e) => return Err(e),
        }
    };

    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = head.lines();
    let mut parts = lines.next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("");
    if method.is_empty() || target.is_empty() {
        return Ok(Err(HttpResponse::text(400, "malformed request line\n")));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    // Content-Length is the only body framing we speak (no chunked).
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                match value.trim().parse::<usize>() {
                    Ok(n) => content_length = n,
                    Err(_) => {
                        return Ok(Err(HttpResponse::text(400, "bad Content-Length\n")));
                    }
                }
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Ok(Err(HttpResponse::text(413, "request body too large\n")));
    }

    // Phase 2: drain the declared body (part may already be buffered).
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        if Instant::now() >= deadline {
            return Ok(Err(HttpResponse::text(
                408,
                "request body not received in time\n",
            )));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(std::io::Error::other("peer closed mid-body")),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(e),
        }
    }
    body.truncate(content_length);
    Ok(Ok(HttpRequest { method, path, body }))
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn handle_conn(mut stream: TcpStream, shared: &StatusShared) -> std::io::Result<()> {
    let request = match read_request(&mut stream)? {
        Ok(req) => req,
        Err(resp) => return write_response(&mut stream, &resp),
    };

    // Registered handler first: it may claim any method/path. A panic in
    // the handler must not take down the accept thread — answer 500 and
    // keep serving (the panic itself is already reported by the hook).
    if let Some(handler) = shared.handler() {
        let claimed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(&request)))
            .unwrap_or_else(|_| Some(HttpResponse::text(500, "handler panicked\n")));
        if let Some(resp) = claimed {
            return write_response(&mut stream, &resp);
        }
    }

    let resp = if request.method != "GET" {
        HttpResponse::text(405, "method not supported on this path\n")
    } else {
        match request.path.as_str() {
            "/status" => HttpResponse::json(200, shared.status_json()),
            "/metrics" => HttpResponse {
                code: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                body: shared.metrics().render_prometheus(),
                headers: Vec::new(),
            },
            "/" => HttpResponse::text(
                200,
                "microbank status server\nendpoints: /status /metrics\n",
            ),
            _ => HttpResponse::text(404, "not found; try /status or /metrics\n"),
        }
    };
    write_response(&mut stream, &resp)
}

fn write_response(stream: &mut TcpStream, resp: &HttpResponse) -> std::io::Result<()> {
    let mut extra = String::new();
    for (name, value) in &resp.headers {
        extra.push_str(name);
        extra.push_str(": ");
        extra.push_str(value);
        extra.push_str("\r\n");
    }
    let response = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n\
         Content-Length: {}\r\n{extra}Connection: close\r\n\r\n{}",
        resp.code,
        reason(resp.code),
        resp.content_type,
        resp.body.len(),
        resp.body
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Minimal blocking HTTP GET against a status server; returns the body.
/// Test/CLI helper — not a general HTTP client.
pub fn http_get(addr: &SocketAddr, path: &str) -> std::io::Result<String> {
    let (code, body) = http_request(addr, "GET", path, b"")?;
    if code != 200 {
        return Err(std::io::Error::other(format!("HTTP error: {code}")));
    }
    Ok(body)
}

/// Minimal blocking HTTP request with a body; returns `(status, body)`.
/// Test/CLI helper for exercising the job API — not a general client.
pub fn http_request(
    addr: &SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status_line = response.lines().next().unwrap_or("");
    let code = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| std::io::Error::other(format!("malformed status line: {status_line}")))?;
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => Ok((code, body.to_string())),
        None => Err(std::io::Error::other("malformed HTTP response")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::metrics::validate_exposition;

    #[test]
    fn serves_status_and_metrics_then_stops() {
        let metrics = Arc::new(MetricsRegistry::new());
        metrics.counter_add("smoke_total", &[], 2);
        let shared = StatusShared::new(Arc::clone(&metrics));
        shared.set_status_json("{\"state\":\"running\"}".to_string());
        let server = StatusServer::start("127.0.0.1:0", Arc::clone(&shared)).unwrap();
        let addr = server.local_addr();

        let status = http_get(&addr, "/status").unwrap();
        assert_eq!(
            parse(&status).unwrap().get("state").unwrap().as_str(),
            Some("running")
        );

        // The producer can update between requests.
        shared.set_status_json("{\"state\":\"done\"}".to_string());
        let status = http_get(&addr, "/status").unwrap();
        assert!(status.contains("done"));

        let metrics_text = http_get(&addr, "/metrics").unwrap();
        assert!(metrics_text.contains("smoke_total 2"));
        validate_exposition(&metrics_text).unwrap();

        assert!(http_get(&addr, "/nope").is_err());
        let index = http_get(&addr, "/").unwrap();
        assert!(index.contains("/metrics"));

        drop(server);
        // After drop the port no longer accepts (may take a moment for
        // the OS to tear down; connection may succeed but read fails, so
        // just assert the request no longer round-trips).
        assert!(http_get(&addr, "/status").is_err());
    }

    /// A producer thread that panics while updating poisons the status
    /// mutex. The surface is diagnostic-only, so both accessors must
    /// recover: `/status` keeps serving the last-known document instead
    /// of killing the server thread, and later updates still land.
    #[test]
    fn poisoned_status_mutex_serves_last_known_document() {
        let metrics = Arc::new(MetricsRegistry::new());
        let shared = StatusShared::new(Arc::clone(&metrics));
        shared.set_status_json("{\"state\":\"running\"}".to_string());
        shared.poison_for_test();

        // Reader recovers and sees the pre-poison document.
        assert_eq!(shared.status_json(), "{\"state\":\"running\"}");

        // The server thread survives requests against the poisoned lock.
        let server = StatusServer::start("127.0.0.1:0", Arc::clone(&shared)).unwrap();
        let addr = server.local_addr();
        let status = http_get(&addr, "/status").unwrap();
        assert!(status.contains("running"), "lost document: {status}");

        // Writer recovers too: updates keep flowing after the poison.
        shared.set_status_json("{\"state\":\"done\"}".to_string());
        let status = http_get(&addr, "/status").unwrap();
        assert!(status.contains("done"), "post-poison update lost: {status}");
    }
}
