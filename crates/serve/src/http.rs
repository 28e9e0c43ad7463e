//! A hand-rolled HTTP/1.1 server on `std::net` — this image has no
//! crates.io, so the daemon speaks the protocol itself.
//!
//! Deliberately minimal: one request per connection (`Connection:
//! close`), bounded header and body sizes, percent-decoded query
//! strings, and nothing the daemon does not need. The accept loop hands
//! each connection to a short-lived thread — bounded by a concurrent-
//! handler cap ([`serve_with`]): past the cap a connection is answered
//! `503 Service Unavailable` with a `Retry-After` header instead of
//! spawning an unbounded pile of threads. A [`ServerHandle`] unblocks
//! the loop for a clean in-process shutdown (the production story for
//! an unclean one is the store's crash-safe resume, not this handle).
//!
//! The `http.conn.stall` `dg-fault` site stalls a handler before it
//! reads the request — how the chaos suite holds a slot open to drive
//! the cap deterministically.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest accepted request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted request body.
const MAX_BODY: usize = 4 * 1024 * 1024;
/// Per-connection socket timeout: a stalled client cannot pin its
/// handler thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Default concurrent-handler cap for [`serve`]; see [`serve_with`].
const DEFAULT_MAX_INFLIGHT: usize = 256;
/// `Retry-After` seconds suggested when the server sheds load.
const RETRY_AFTER_SECS: u32 = 1;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method token (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path, query string stripped (`/sweep/42/cell`).
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header of the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first query parameter of the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One HTTP response: status, content type, body, and an optional
/// `Retry-After` hint for load-shedding statuses.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body bytes.
    pub body: Vec<u8>,
    /// Seconds for a `Retry-After` header, when backpressure applies.
    pub retry_after: Option<u32>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            retry_after: None,
        }
    }

    /// A CSV response.
    pub fn csv(body: impl Into<Vec<u8>>) -> Self {
        Response {
            status: 200,
            content_type: "text/csv",
            body: body.into(),
            retry_after: None,
        }
    }

    /// A plain-text response with an explicit content type (the
    /// Prometheus exposition needs `text/plain; version=0.0.4`).
    pub fn text(content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status: 200,
            content_type,
            body: body.into(),
            retry_after: None,
        }
    }

    /// A JSON error envelope `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = String::from("{\"error\": ");
        push_json_string(&mut body, message);
        body.push_str("}\n");
        Response::json(status, body)
    }

    /// A `503 Service Unavailable` error envelope carrying a
    /// `Retry-After` header — the backpressure answer for a saturated
    /// accept loop or a full sweep queue.
    pub fn unavailable(message: &str) -> Self {
        let mut r = Response::error(503, message);
        r.retry_after = Some(RETRY_AFTER_SECS);
        r
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }

    fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        write!(
            stream,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )?;
        if let Some(secs) = self.retry_after {
            write!(stream, "Retry-After: {secs}\r\n")?;
        }
        stream.write_all(b"\r\n")?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Appends a JSON string literal (escaped) to `out`.
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Decodes `%XX` escapes and `+`-as-space in a query component.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                // An escape only when two ASCII hex digits follow
                // (`%+1` is not one: no sign is a hex digit).
                let hex = |k: usize| bytes.get(k).and_then(|&b| char::from(b).to_digit(16));
                match (hex(i + 1), hex(i + 2)) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parses one request from a connection, or answers early with an error
/// response (`Err` carries what to send back).
fn read_request(stream: &mut BufReader<TcpStream>) -> Result<Request, Response> {
    // Head: everything up to the blank line, bounded.
    let mut head = Vec::new();
    loop {
        let mut line = Vec::new();
        stream
            .read_until(b'\n', &mut line)
            .map_err(|_| Response::error(400, "read failed"))?;
        if line.is_empty() {
            return Err(Response::error(400, "connection closed mid-request"));
        }
        head.extend_from_slice(&line);
        if head.len() > MAX_HEAD {
            return Err(Response::error(431, "request head too large"));
        }
        if line == b"\r\n" || line == b"\n" {
            break;
        }
        if head.len() == line.len() {
            continue; // request line just read; keep going for headers
        }
    }
    let head = String::from_utf8_lossy(&head).into_owned();
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = (
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
        parts.next().unwrap_or_default(),
    );
    if method.is_empty() || target.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(Response::error(400, "malformed request line"));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(Response::error(400, "malformed header"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>())
        .transpose()
        .map_err(|_| Response::error(400, "bad content-length"))?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(Response::error(413, "request body too large"));
    }
    let mut body = vec![0u8; content_length];
    stream
        .read_exact(&mut body)
        .map_err(|_| Response::error(400, "truncated body"))?;
    Ok(Request {
        method: method.to_string(),
        path: percent_decode(path),
        query,
        headers,
        body,
    })
}

/// A running server: bound address plus the shutdown handle.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it. In-flight connection handlers
    /// finish on their own threads.
    pub fn shutdown(mut self) {
        self.stop_accept_loop();
    }

    fn stop_accept_loop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_accept_loop();
        }
    }
}

/// Binds `addr` and serves `handler` on a background accept loop, one
/// short-lived thread per connection, with the default concurrent-
/// handler cap. See [`serve_with`].
pub fn serve<H>(addr: impl ToSocketAddrs, handler: H) -> std::io::Result<ServerHandle>
where
    H: Fn(&Request) -> Response + Send + Sync + 'static,
{
    serve_with(addr, handler, DEFAULT_MAX_INFLIGHT)
}

/// Decrements the inflight count when dropped — by
/// [`handle_connection`] once the response is written, or by a panic
/// unwinding through the handler.
struct InflightPermit(Arc<AtomicUsize>);

impl Drop for InflightPermit {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Binds `addr` and serves `handler` with at most `max_inflight`
/// concurrently running connection handlers.
///
/// Past the cap the connection is still answered — a shedding thread
/// reads the request off the socket (so the client never sees a reset
/// mid-write) and replies [`Response::unavailable`]: `503` with
/// `Retry-After`, counted as `dg_http_rejected_total`. Shedding threads
/// do not hold permits; only real handlers do, so the cap bounds work,
/// not refusals.
pub fn serve_with<H>(
    addr: impl ToSocketAddrs,
    handler: H,
    max_inflight: usize,
) -> std::io::Result<ServerHandle>
where
    H: Fn(&Request) -> Response + Send + Sync + 'static,
{
    assert!(max_inflight > 0, "max_inflight must be at least 1");
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let loop_stop = Arc::clone(&stop);
    let handler = Arc::new(handler);
    let inflight = Arc::new(AtomicUsize::new(0));
    let accept_thread = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if loop_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(conn) = conn else { continue };
            // Claim a permit optimistically; back out and shed if that
            // overshot the cap.
            if inflight.fetch_add(1, Ordering::SeqCst) >= max_inflight {
                inflight.fetch_sub(1, Ordering::SeqCst);
                dg_obs::Registry::global()
                    .counter("dg_http_rejected_total")
                    .inc();
                std::thread::spawn(move || shed_connection(conn));
                continue;
            }
            let permit = InflightPermit(Arc::clone(&inflight));
            let handler = Arc::clone(&handler);
            std::thread::spawn(move || handle_connection(conn, &*handler, permit));
        }
    });
    Ok(ServerHandle {
        addr,
        stop,
        accept_thread: Some(accept_thread),
    })
}

/// Answers a connection the cap refused: drain the request, say 503.
fn shed_connection(conn: TcpStream) {
    let _ = conn.set_read_timeout(Some(IO_TIMEOUT));
    let _ = conn.set_write_timeout(Some(IO_TIMEOUT));
    let mut reader = BufReader::new(conn);
    let _ = read_request(&mut reader);
    let mut conn = reader.into_inner();
    let _ = Response::unavailable("server saturated; retry shortly").write_to(&mut conn);
}

/// Serves one connection under `permit`, which is released once the
/// response is written and before the socket closes: a client that
/// reads to EOF and reconnects at once must find the slot free. A
/// panicking handler releases it by unwinding.
fn handle_connection<H>(conn: TcpStream, handler: &H, permit: InflightPermit)
where
    H: Fn(&Request) -> Response,
{
    // Chaos hook: hold this handler (and its inflight permit) open so
    // the suite can saturate the cap with a deterministic number of
    // connections instead of a timing race.
    if dg_fault::should_fail("http.conn.stall") {
        std::thread::sleep(Duration::from_millis(300));
    }
    let _ = conn.set_read_timeout(Some(IO_TIMEOUT));
    let _ = conn.set_write_timeout(Some(IO_TIMEOUT));
    let mut reader = BufReader::new(conn);
    let response = match read_request(&mut reader) {
        Ok(request) => handler(&request),
        Err(early) => early,
    };
    let mut conn = reader.into_inner();
    let _ = response.write_to(&mut conn);
    drop(permit);
    drop(conn);
}

/// A one-shot HTTP/1.1 client request over a fresh connection — the
/// counterpart the integration tests and examples drive the daemon
/// with (and a reference for what the server expects on the wire).
///
/// Returns `(status, body)`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<(u16, Vec<u8>)> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(IO_TIMEOUT))?;
    conn.set_write_timeout(Some(IO_TIMEOUT))?;
    write!(
        conn,
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    conn.write_all(body)?;
    conn.flush()?;
    let mut raw = Vec::new();
    conn.take((MAX_BODY + MAX_HEAD) as u64)
        .read_to_end(&mut raw)?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header end"))?;
    let head = String::from_utf8_lossy(&raw[..head_end]);
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status"))?;
    Ok((status, raw[head_end + 4..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_and_routes_a_request() {
        let handle = serve("127.0.0.1:0", |req: &Request| {
            assert_eq!(req.method, "GET");
            assert_eq!(req.path, "/echo path");
            assert_eq!(req.query_param("a"), Some("1.5"));
            assert_eq!(req.query_param("b"), Some("x y"));
            assert_eq!(req.header("x-test"), Some("yes"));
            Response::json(200, "{\"ok\": true}")
        })
        .unwrap();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        write!(
            conn,
            "GET /echo%20path?a=1.5&b=x+y HTTP/1.1\r\nHost: t\r\nX-Test: yes\r\n\r\n"
        )
        .unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        assert!(out.ends_with("{\"ok\": true}"), "{out}");
        handle.shutdown();
    }

    #[test]
    fn posts_carry_bodies_and_client_helper_agrees() {
        let handle = serve("127.0.0.1:0", |req: &Request| {
            assert_eq!(req.method, "POST");
            Response::json(202, req.body.clone())
        })
        .unwrap();
        let (status, body) = request(handle.addr(), "POST", "/sweep", b"{\"x\": 1}").unwrap();
        assert_eq!(status, 202);
        assert_eq!(body, b"{\"x\": 1}");
        handle.shutdown();
    }

    #[test]
    fn malformed_requests_get_400_not_a_hang() {
        let handle = serve("127.0.0.1:0", |_: &Request| Response::json(200, "ok")).unwrap();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        write!(conn, "NOT-HTTP\r\n\r\n").unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        handle.shutdown();
    }

    #[test]
    fn saturated_server_sheds_with_503_and_retry_after() {
        // Cap of 1: a handler parked on a channel holds the only slot,
        // so the second connection must be shed, not queued.
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = std::sync::Mutex::new(release_rx);
        let handle = serve_with(
            "127.0.0.1:0",
            move |_: &Request| {
                started_tx.send(()).unwrap();
                let _ = release_rx.lock().unwrap().recv();
                Response::json(200, "done")
            },
            1,
        )
        .unwrap();

        let mut slow = TcpStream::connect(handle.addr()).unwrap();
        write!(slow, "GET /a HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        started_rx.recv().unwrap(); // slot is now held

        let mut shed = TcpStream::connect(handle.addr()).unwrap();
        write!(shed, "GET /b HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut out = String::new();
        shed.read_to_string(&mut out).unwrap();
        assert!(
            out.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{out}"
        );
        assert!(out.contains("\r\nRetry-After: 1\r\n"), "{out}");

        release_tx.send(()).unwrap();
        let mut out = String::new();
        slow.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");

        // Slot freed: a fresh request is served normally again (the
        // dropped sender makes its recv return immediately).
        drop(release_tx);
        let (status, body) = request(handle.addr(), "GET", "/c", b"").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"done");
        handle.shutdown();
    }

    #[test]
    fn percent_decoding_is_lenient() {
        assert_eq!(percent_decode("a%2Fb+c"), "a/b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%+1"), "% 1");
        assert_eq!(percent_decode("%+f"), "% f");
    }
}
