//! One backend shard as seen by the gateway: a small pool of persistent
//! NDJSON connections, the `hello` handshake that verifies the peer is a
//! `hetsched-serve` daemon, gateway-side inflight accounting, and health
//! state with timed re-probing.

use std::io::{self, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use hetsched_serve::transport::LineReader;

use crate::metrics::ShardSnapshot;

/// Per-read timeout while waiting for a reply; bounds how stale the
/// deadline check can get, not the total wait.
const READ_SLICE: Duration = Duration::from_millis(200);

/// A backend shard: address, pooled connections, inflight budget state,
/// and health.
pub struct Backend {
    addr: String,
    connect_timeout: Duration,
    pool: Mutex<Vec<Conn>>,
    inflight: AtomicUsize,
    forwarded: AtomicU64,
    errors: AtomicU64,
    healthy: AtomicBool,
    last_failure: Mutex<Option<Instant>>,
}

/// RAII guard for one reserved inflight slot on a backend.
pub struct InflightGuard<'a> {
    backend: &'a Backend,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.backend.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Backend {
    /// A backend for `addr`, starting healthy with an empty pool;
    /// connections are opened (and handshaken) lazily on first use.
    pub fn new(addr: impl Into<String>, connect_timeout: Duration) -> Backend {
        Backend {
            addr: addr.into(),
            connect_timeout,
            pool: Mutex::new(Vec::new()),
            inflight: AtomicUsize::new(0),
            forwarded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            healthy: AtomicBool::new(true),
            last_failure: Mutex::new(None),
        }
    }

    /// Shard address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether this backend may be attempted: healthy, or unhealthy but
    /// due for a re-probe (`retry_after` has elapsed since the last
    /// failure). A probe that succeeds flips the backend healthy again.
    pub fn available(&self, retry_after: Duration) -> bool {
        if self.healthy.load(Ordering::Relaxed) {
            return true;
        }
        match *self.last_failure.lock() {
            Some(at) => at.elapsed() >= retry_after,
            None => true,
        }
    }

    /// Reserve one inflight slot if the budget allows, else `None`. The
    /// slot is released when the guard drops.
    pub fn try_reserve(&self, budget: usize) -> Option<InflightGuard<'_>> {
        let mut current = self.inflight.load(Ordering::Relaxed);
        loop {
            if current >= budget {
                return None;
            }
            match self.inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(InflightGuard { backend: self }),
                Err(now) => current = now,
            }
        }
    }

    /// Send one request line and wait for the reply line, using a pooled
    /// connection (opening and handshaking a fresh one if the pool is
    /// empty). On success the connection returns to the pool and the
    /// backend is marked healthy. On failure the connection is dropped;
    /// a non-timeout failure also marks the backend down. A timeout
    /// (`ErrorKind::TimedOut`) does *not* mark the backend down — the
    /// shard is presumed alive but slow, and its computation may still
    /// finish and populate its caches.
    pub fn round_trip(&self, line: &str, deadline_at: Instant) -> io::Result<String> {
        let pooled = self.pool.lock().pop();
        let mut conn = match pooled {
            Some(c) => c,
            None => match self.fresh_conn() {
                Ok(c) => c,
                Err(e) => {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    self.mark_down();
                    return Err(e);
                }
            },
        };
        match conn.round_trip(line, deadline_at) {
            Ok(reply) => {
                self.forwarded.fetch_add(1, Ordering::Relaxed);
                self.mark_up();
                self.pool.lock().push(conn);
                Ok(reply)
            }
            Err(e) => {
                // Drop the connection either way: after a timeout its
                // reply is still owed and would corrupt the next round
                // trip's framing.
                self.errors.fetch_add(1, Ordering::Relaxed);
                if e.kind() != ErrorKind::TimedOut {
                    self.mark_down();
                }
                Err(e)
            }
        }
    }

    /// Open a connection and run the `hello` handshake.
    fn fresh_conn(&self) -> io::Result<Conn> {
        let mut conn = Conn::connect(&self.addr, self.connect_timeout)?;
        conn.handshake(self.connect_timeout)?;
        Ok(conn)
    }

    fn mark_down(&self) {
        self.healthy.store(false, Ordering::Relaxed);
        *self.last_failure.lock() = Some(Instant::now());
        // Sibling pooled connections are likely broken too.
        self.pool.lock().clear();
    }

    fn mark_up(&self) {
        self.healthy.store(true, Ordering::Relaxed);
    }

    /// Point-in-time snapshot for stats/metrics.
    pub fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            addr: self.addr.clone(),
            up: self.healthy.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed) as u64,
            forwarded: self.forwarded.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// One persistent NDJSON connection to a shard. Keeps its own line
/// reader so bytes over-read past a reply line are never lost between
/// round trips.
struct Conn {
    stream: TcpStream,
    /// Uncapped: a large `schedule_many` reply is legitimate, and the
    /// deadline already bounds the read.
    reader: LineReader,
}

impl Conn {
    fn connect(addr: &str, timeout: Duration) -> io::Result<Conn> {
        let sock_addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(ErrorKind::InvalidInput, format!("bad addr {addr}")))?;
        let stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            reader: LineReader::new(usize::MAX),
        })
    }

    /// The shard handshake: send `{"op":"hello"}` and require an `ok`
    /// reply whose `hello.service` is `"hetsched-serve"`. Catches a
    /// misconfigured backend (wrong port, wrong protocol) before any
    /// request is routed to it.
    fn handshake(&mut self, timeout: Duration) -> io::Result<()> {
        let reply = self.round_trip(r#"{"op":"hello"}"#, Instant::now() + timeout)?;
        let v: serde_json::Value = serde_json::from_str(&reply).map_err(|e| {
            io::Error::new(ErrorKind::InvalidData, format!("handshake not JSON: {e}"))
        })?;
        let service = v["hello"]["service"].as_str().unwrap_or("");
        if v["status"].as_str() != Some("ok") || service != "hetsched-serve" {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("peer is not a hetsched-serve shard: {reply}"),
            ));
        }
        Ok(())
    }

    /// Write `line` and read exactly one reply line, or fail with
    /// `ErrorKind::TimedOut` once `deadline_at` passes.
    fn round_trip(&mut self, line: &str, deadline_at: Instant) -> io::Result<String> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        loop {
            let remaining = deadline_at.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(io::Error::new(
                    ErrorKind::TimedOut,
                    "deadline passed waiting for shard reply",
                ));
            }
            self.stream
                .set_read_timeout(Some(remaining.min(READ_SLICE)))?;
            match self.reader.read_line(&mut self.stream) {
                Ok(Some((reply, _))) => {
                    return Ok(String::from_utf8_lossy(reply).trim().to_string())
                }
                Ok(None) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn inflight_budget_reserve_and_release() {
        let b = Backend::new("127.0.0.1:1", Duration::from_millis(100));
        let g1 = b.try_reserve(2).expect("slot 1");
        let _g2 = b.try_reserve(2).expect("slot 2");
        assert!(b.try_reserve(2).is_none(), "budget of 2 exhausted");
        drop(g1);
        assert!(b.try_reserve(2).is_some(), "released slot is reusable");
    }

    #[test]
    fn connect_failure_marks_backend_down_then_probes() {
        // Nothing listens on this port (bound but not accepting would be
        // flaky; an unroutable connect fails fast on loopback).
        let b = Backend::new("127.0.0.1:1", Duration::from_millis(100));
        assert!(b.available(Duration::from_millis(50)));
        let err = b
            .round_trip(
                r#"{"op":"stats"}"#,
                Instant::now() + Duration::from_millis(200),
            )
            .unwrap_err();
        assert_ne!(err.kind(), ErrorKind::TimedOut);
        assert!(!b.snapshot().up);
        assert_eq!(b.snapshot().errors, 1);
        // Down backends are skipped until the retry window elapses.
        assert!(!b.available(Duration::from_secs(60)));
        std::thread::sleep(Duration::from_millis(60));
        assert!(b.available(Duration::from_millis(50)), "probe is due");
    }

    #[test]
    fn handshake_rejects_non_shard_peer() {
        // A fake peer that answers the hello with garbage.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 256];
            let _ = s.read(&mut buf);
            s.write_all(b"{\"status\":\"ok\"}\n").unwrap();
        });
        let b = Backend::new(addr.to_string(), Duration::from_millis(500));
        let err = b
            .round_trip(
                r#"{"op":"stats"}"#,
                Instant::now() + Duration::from_millis(500),
            )
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        assert!(!b.snapshot().up);
        fake.join().unwrap();
    }
}
