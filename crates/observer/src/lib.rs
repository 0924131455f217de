//! Live campaign observability endpoint: scrape a running RESCUE-rs
//! process over HTTP.
//!
//! This crate is the exposition half of the ROADMAP's
//! campaign-as-a-service item, landed as pure observability: a
//! dependency-free HTTP/1.1 listener on [`std::net::TcpListener`]
//! (keeping the hermetic no-external-deps build) that any campaign
//! process can opt into. Three endpoints:
//!
//! * `GET /metrics` — the `rescue-telemetry` metrics registry in the
//!   Prometheus text exposition format
//!   ([`rescue_telemetry::expo`]): counters, gauges and histograms
//!   with cumulative buckets and bucket-resolved p50/p99 quantiles.
//! * `GET /status` — the fleet status registry
//!   ([`rescue_campaign::fleet`]) as JSON: per-campaign units
//!   total/cached/executed/waited, rates, ETA, campaign content hash,
//!   the current flow stage, and live `FsStore` claims with owner pid,
//!   liveness and age.
//! * `GET /healthz` — `ok` (liveness probe).
//!
//! A request head (request line plus headers) may take 8 KiB and must
//! arrive within one 5 s deadline. A longer head gets `431`, a request
//! line that is not `METHOD PATH HTTP/x` gets `400`, any method but
//! `GET` gets `405`, and a head that is cut off by the deadline gets no
//! reply.
//!
//! # Opt-in
//!
//! Nothing listens unless asked. [`serve_from_env`] reads
//! `RESCUE_OBSERVE` (e.g. `RESCUE_OBSERVE=127.0.0.1:9090`) and starts
//! an [`Observer`] when set; processes that never set it pay nothing.
//! [`Observer::bind`] does the same explicitly, binding port 0 for an
//! OS-assigned port when the address ends in `:0`.
//!
//! The listener runs on one background thread and serves requests
//! serially — scrape traffic, not an application server. Rendering a
//! scrape body touches only registry snapshots and the fleet registry
//! lock, never a campaign's hot path.
//!
//! ```
//! let observer = rescue_observer::Observer::bind("127.0.0.1:0").unwrap();
//! let body = rescue_observer::http_get(observer.addr(), "/healthz").unwrap();
//! assert_eq!(body, "ok");
//! observer.shutdown();
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Environment variable naming the listen address (`host:port`).
pub const OBSERVE_ENV: &str = "RESCUE_OBSERVE";

/// Socket timeout: a stalled scraper must not wedge the serve loop. The
/// whole request head shares one such deadline, and so does each write.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Most bytes a request head (request line plus headers) may take; a
/// longer one gets `431` and the connection closes.
const MAX_HEAD: u64 = 8 * 1024;

/// A running observability endpoint: background listener thread plus
/// shutdown switch.
#[derive(Debug)]
pub struct Observer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Observer {
    /// Binds `addr` (e.g. `"127.0.0.1:9090"`, or port `0` for an
    /// OS-assigned one) and starts serving on a background thread.
    ///
    /// # Errors
    ///
    /// Returns the bind error (address in use, permission, bad
    /// address).
    pub fn bind(addr: &str) -> std::io::Result<Observer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_worker = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("rescue-observer".to_string())
            .spawn(move || serve_loop(listener, &stop_worker))
            .expect("spawn observer thread");
        Ok(Observer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound listen address (with the OS-assigned port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener and joins its thread. Idempotent; also runs
    /// on drop.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Relaxed);
        // Poke the blocking accept() so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for Observer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Starts an [`Observer`] when `RESCUE_OBSERVE` names a listen address;
/// returns `None` (and does nothing) when it is unset or empty. A set
/// address that fails to bind prints one warning to stderr rather than
/// killing the campaign — observability must never take down the run
/// it observes.
pub fn serve_from_env() -> Option<Observer> {
    let addr = std::env::var(OBSERVE_ENV).ok()?;
    if addr.is_empty() {
        return None;
    }
    match Observer::bind(&addr) {
        Ok(observer) => Some(observer),
        Err(e) => {
            eprintln!("rescue-observer: cannot bind {OBSERVE_ENV}={addr}: {e}");
            None
        }
    }
}

/// Accept loop: serve connections serially until the stop flag flips.
fn serve_loop(listener: TcpListener, stop: &AtomicBool) {
    for conn in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Reads time out against the head's deadline in `read_head`.
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        let _ = handle(stream);
    }
}

/// Routes one request path to `(status line, content type, body)`.
fn respond(path: &str) -> (&'static str, &'static str, String) {
    match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            rescue_telemetry::metrics::snapshot().to_prometheus(),
        ),
        "/status" => (
            "200 OK",
            "application/json",
            rescue_campaign::fleet::status_json(),
        ),
        "/healthz" | "/" => ("200 OK", "text/plain; charset=utf-8", "ok".to_string()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    }
}

/// Reads the request head from `stream`: bytes up to and including the
/// first blank line, or up to the end of input when the client closes
/// first. `None` when the head runs past [`MAX_HEAD`] bytes. All reads
/// share one `deadline`, so a client that trickles bytes cannot hold
/// the serial serve loop past it.
fn read_head(stream: &TcpStream, deadline: Instant) -> std::io::Result<Option<Vec<u8>>> {
    let mut limited = stream.take(MAX_HEAD);
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        stream.set_read_timeout(Some(left))?;
        let n = limited.read(&mut buf)?;
        if n == 0 {
            return Ok((limited.limit() > 0).then_some(head));
        }
        // A blank line may straddle two reads: rescan two old bytes.
        let from = head.len().saturating_sub(2);
        head.extend_from_slice(&buf[..n]);
        if let Some(end) = blank_line_end(&head, from) {
            head.truncate(end);
            return Ok(Some(head));
        }
    }
}

/// The offset just past the first blank line that starts in
/// `bytes[from..]` after a line break (`\n\n` or `\n\r\n`).
fn blank_line_end(bytes: &[u8], from: usize) -> Option<usize> {
    (from..bytes.len()).find_map(|i| {
        [&b"\n\n"[..], b"\n\r\n"]
            .into_iter()
            .find(|t| bytes[i..].starts_with(t))
            .map(|t| i + t.len())
    })
}

/// Status line, content type and body for a request head.
fn reply(head: Option<&[u8]>) -> (&'static str, &'static str, String) {
    const TEXT: &str = "text/plain; charset=utf-8";
    let Some(head) = head else {
        return (
            "431 Request Header Fields Too Large",
            TEXT,
            "request head too large\n".to_string(),
        );
    };
    let line = head.split(|&b| b == b'\n').next().unwrap_or_default();
    let parts: Option<Vec<&str>> = std::str::from_utf8(line)
        .ok()
        .map(|l| l.split_whitespace().collect());
    match parts.as_deref() {
        Some(["GET", path, version]) if version.starts_with("HTTP/") => respond(path),
        Some([_, _, version]) if version.starts_with("HTTP/") => (
            "405 Method Not Allowed",
            TEXT,
            "method not allowed\n".to_string(),
        ),
        _ => ("400 Bad Request", TEXT, "bad request\n".to_string()),
    }
}

/// Serves one HTTP/1.1 request on `stream` and closes the connection.
fn handle(mut stream: TcpStream) -> std::io::Result<()> {
    let head = read_head(&stream, Instant::now() + IO_TIMEOUT)?;
    let (status, content_type, body) = reply(head.as_deref());
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Minimal HTTP GET over a std [`TcpStream`]: sends the request, strips
/// the response headers, returns the body. The scrape probe CI's
/// E19 gate (and the tests below) use against a live [`Observer`] —
/// no HTTP client dependency needed.
///
/// # Errors
///
/// Returns connect/read errors, and `InvalidData` when the response is
/// not a 200.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: rescue\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "no header/body split")
    })?;
    let status_line = head.lines().next().unwrap_or("");
    if !status_line.contains(" 200 ") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{path}: {status_line}"),
        ));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rescue_telemetry::expo::validate_exposition;
    use rescue_telemetry::{metrics, TelemetryConfig};

    #[test]
    fn endpoints_serve_metrics_status_and_health() {
        let _serial = rescue_telemetry::exclusive();
        TelemetryConfig::on().install();
        metrics::counter("observer.test_hits").add(3);
        metrics::gauge("observer.test_level").set(-2);
        metrics::histogram("observer.test_lat", &metrics::pow2_bounds(8)).record(5);
        TelemetryConfig::off().install();
        let fleet = rescue_campaign::fleet::register("observer.test", "beef", 4, None);
        fleet.add_cached(1);

        let observer = Observer::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = observer.addr();

        assert_eq!(http_get(addr, "/healthz").unwrap(), "ok");

        let metrics_body = http_get(addr, "/metrics").unwrap();
        assert!(metrics_body.contains("rescue_observer_test_hits_total 3"));
        assert!(metrics_body.contains("rescue_observer_test_level -2"));
        assert!(metrics_body.contains("rescue_observer_test_lat_bucket"));
        validate_exposition(&metrics_body).expect("scrape body parses");

        let status_body = http_get(addr, "/status").unwrap();
        assert!(status_body.contains("\"name\":\"observer.test\""));
        assert!(status_body.contains("\"campaign\":\"beef\""));
        assert!(status_body.contains("\"units_cached\":1"));

        assert!(http_get(addr, "/nope").is_err(), "404 on unknown path");
        observer.shutdown();
    }

    #[test]
    fn shutdown_stops_the_listener() {
        let observer = Observer::bind("127.0.0.1:0").unwrap();
        let addr = observer.addr();
        assert_eq!(http_get(addr, "/healthz").unwrap(), "ok");
        observer.shutdown();
        // The port stops answering (connect may still succeed briefly on
        // some hosts; a full request must fail).
        assert!(http_get(addr, "/healthz").is_err());
    }

    /// A client that trickles its head one byte at a time never waits
    /// out a per-read timeout, but the head's one deadline still ends it.
    #[test]
    fn a_trickled_head_stops_at_its_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for _ in 0..40 {
                if stream.write_all(b"G").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let (server, _) = listener.accept().unwrap();
        let t0 = Instant::now();
        assert!(read_head(&server, t0 + Duration::from_millis(300)).is_err());
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        drop(server);
        client.join().unwrap();
    }

    #[test]
    fn serve_from_env_requires_the_variable() {
        // Only asserts the unset path: mutating the environment would
        // race sibling tests.
        if std::env::var(OBSERVE_ENV).is_err() {
            assert!(serve_from_env().is_none());
        }
    }
}
