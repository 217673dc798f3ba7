//! Transport layer: NDJSON line framing, the TCP accept loop, and the
//! stdin runner.
//!
//! One TCP server serves both tiers: [`TcpServer`] is generic over a
//! [`LineHandler`], implemented by [`Service`] (a shard) and by the
//! gateway's router. The listener runs non-blocking and polls the
//! shutdown flag between accepts; each connection gets its own thread
//! with a short read timeout so it also notices shutdown promptly. A
//! `shutdown` request from any client therefore winds the whole server
//! down: accept loop exits, connection threads answer their buffered
//! lines and join, and the handler drains.
//!
//! Every NDJSON read loop — server connections here, the gateway's shard
//! connections — frames lines with one [`LineReader`].

use std::io::{self, BufRead, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::ServiceMetrics;
use crate::protocol::Response;
use crate::service::{ServeConfig, Service};

/// How often the accept loop polls the shutdown flag while idle.
const POLL_INTERVAL: Duration = Duration::from_millis(20);
/// Read timeout on connection sockets; bounds shutdown latency per
/// connection.
const READ_TIMEOUT: Duration = Duration::from_millis(200);
/// Bytes asked for per read.
const CHUNK: usize = 16 * 1024;
/// Longest request line (newline excluded) a client connection may send.
/// A connection that goes over it gets one `error` line and is closed.
const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;
/// Live connections a server keeps, counted after reaping finished ones.
/// A connection past the cap gets one `busy` line and is closed.
const MAX_CONNECTIONS: usize = 256;

/// NDJSON framing over any [`Read`]: buffers bytes, hands out complete
/// lines, and keeps over-read bytes for the next line.
///
/// Linear in the bytes read: each read searches only the bytes it
/// brought for the newline, and a partial line moves to the front of the
/// buffer at most once.
#[derive(Debug)]
pub struct LineReader {
    buf: Vec<u8>,
    /// Start of the first line not yet handed out.
    start: usize,
    /// `buf[start..scanned]` holds no newline.
    scanned: usize,
    /// Longest line accepted, newline excluded.
    limit: usize,
    /// When the latest read returned: the arrival of every line it
    /// completed.
    arrival: Instant,
}

impl LineReader {
    /// A reader that refuses lines longer than `limit` bytes.
    pub fn new(limit: usize) -> LineReader {
        LineReader {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            limit,
            arrival: Instant::now(),
        }
    }

    /// The next line (without its `\n`) and the instant of the read that
    /// completed it. A line already buffered comes back without reading;
    /// otherwise this reads `r` once, up to 16 KiB.
    ///
    /// `Ok(None)` means that read completed no line yet: call again.
    ///
    /// # Errors
    /// `UnexpectedEof` once the peer has closed, `InvalidData` once the
    /// current line is longer than the limit, and whatever the read
    /// itself fails with — a socket read timeout shows as `WouldBlock`
    /// or `TimedOut`, and the reader keeps its state for the next call.
    pub fn read_line(&mut self, r: &mut impl Read) -> io::Result<Option<(&[u8], Instant)>> {
        if let Some(line) = self.scan()? {
            return Ok(Some((&self.buf[line], self.arrival)));
        }
        self.fill(r)?;
        Ok(self.scan()?.map(|line| (&self.buf[line], self.arrival)))
    }

    /// The next line already buffered, as [`LineReader::read_line`]
    /// returns it, without reading.
    ///
    /// # Errors
    /// `InvalidData` if the buffered line is longer than the limit.
    fn buffered_line(&mut self) -> io::Result<Option<(&[u8], Instant)>> {
        Ok(self.scan()?.map(|line| (&self.buf[line], self.arrival)))
    }

    /// Search the bytes not searched before for the next newline.
    fn scan(&mut self) -> io::Result<Option<Range<usize>>> {
        let found = self.buf[self.scanned..].iter().position(|&b| b == b'\n');
        let end = found.map_or(self.buf.len(), |i| self.scanned + i);
        if end - self.start > self.limit {
            return Err(io::Error::new(
                ErrorKind::InvalidData,
                format!("request line over {} bytes", self.limit),
            ));
        }
        if found.is_none() {
            self.scanned = end;
            return Ok(None);
        }
        let line = self.start..end;
        self.start = end + 1;
        self.scanned = self.start;
        Ok(Some(line))
    }

    /// One read into the buffer, after moving the partial line (if any)
    /// to its front.
    fn fill(&mut self, r: &mut impl Read) -> io::Result<()> {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        let len = self.buf.len();
        self.buf.resize(len + CHUNK, 0);
        let read = r.read(&mut self.buf[len..]);
        self.buf.truncate(len + read.as_ref().map_or(0, |&n| n));
        match read {
            Ok(0) => Err(io::Error::new(
                ErrorKind::UnexpectedEof,
                "peer closed the connection",
            )),
            Ok(_) => {
                self.arrival = Instant::now();
                Ok(())
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// A connection the server accepted but did not serve to the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LostConnection {
    /// Its thread panicked; the reaper joined it.
    Panicked,
    /// Closed at accept: over the connection cap (256), or its thread failed
    /// to spawn.
    Refused,
}

/// What [`TcpServer`] needs from the thing that answers request lines.
pub trait LineHandler: Send + Sync + 'static {
    /// Append the reply to one trimmed, non-empty request line (no
    /// trailing newline) to `out`. `arrival` is the instant the read
    /// that completed the line returned; deadlines count from it.
    fn answer_line(&self, line: &str, arrival: Instant, out: &mut Vec<u8>);

    /// Whether graceful shutdown has begun.
    fn is_shutting_down(&self) -> bool;

    /// Called once the server has stopped serving connections.
    fn drain(&self) {}

    /// Count a connection the server lost.
    fn count_lost(&self, lost: LostConnection);
}

impl LineHandler for Service {
    fn answer_line(&self, line: &str, arrival: Instant, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.handle_line_bytes_at(line, arrival));
    }

    fn is_shutting_down(&self) -> bool {
        Service::is_shutting_down(self)
    }

    fn drain(&self) {
        self.shutdown();
    }

    fn count_lost(&self, lost: LostConnection) {
        let m = self.metrics();
        ServiceMetrics::bump(match lost {
            LostConnection::Panicked => &m.connection_panics,
            LostConnection::Refused => &m.connections_refused,
        });
    }
}

/// A TCP server bound to an address, ready to [`run`](TcpServer::run).
pub struct TcpServer<H: LineHandler = Service> {
    listener: TcpListener,
    handler: Arc<H>,
}

impl TcpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// the worker pool.
    pub fn bind(addr: &str, config: ServeConfig) -> io::Result<TcpServer> {
        TcpServer::with_handler(addr, Service::start(config))
    }

    /// Shared handle to the underlying service (stats, programmatic
    /// shutdown).
    pub fn service(&self) -> Arc<Service> {
        self.handler()
    }
}

impl<H: LineHandler> TcpServer<H> {
    /// Bind `addr` and answer its connections' lines with `handler`.
    pub fn with_handler(addr: &str, handler: H) -> io::Result<TcpServer<H>> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpServer {
            listener,
            handler: Arc::new(handler),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Shared handle to the line handler.
    pub fn handler(&self) -> Arc<H> {
        self.handler.clone()
    }

    /// Accept and serve connections until the handler reports shutdown,
    /// then join every connection thread and drain the handler before
    /// returning.
    pub fn run(self) -> io::Result<()> {
        let handler = &*self.handler;
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        while !handler.is_shutting_down() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    reap(&mut connections, handler, false);
                    if connections.len() >= MAX_CONNECTIONS {
                        refuse(stream);
                        handler.count_lost(LostConnection::Refused);
                        continue;
                    }
                    let shared = self.handler.clone();
                    // A failed spawn drops the closure, and the stream
                    // with it: that one connection closes.
                    match std::thread::Builder::new()
                        .name("hetsched-conn".to_string())
                        .spawn(move || serve_connection(stream, &*shared))
                    {
                        Ok(thread) => connections.push(thread),
                        Err(_) => handler.count_lost(LostConnection::Refused),
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    handler.drain();
                    return Err(e);
                }
            }
        }
        reap(&mut connections, handler, true);
        handler.drain();
        Ok(())
    }
}

/// Answer a connection over [`MAX_CONNECTIONS`] with one `busy` line.
/// The socket is fresh, so the short write cannot block.
fn refuse(mut stream: TcpStream) {
    let mut out = Response::Busy {
        message: format!("connection limit of {MAX_CONNECTIONS} reached; retry later"),
    }
    .to_line()
    .into_bytes();
    let _ = write_line(&mut stream, &mut out);
}

/// Join the finished connection threads — every one if `all` — and keep
/// the rest, counting panics. A bare `retain(|h| !h.is_finished())` would
/// drop finished handles without joining them, silently discarding any
/// panic they died with.
fn reap(connections: &mut Vec<JoinHandle<()>>, handler: &impl LineHandler, all: bool) {
    for thread in std::mem::take(connections) {
        if !(all || thread.is_finished()) {
            connections.push(thread);
        } else if thread.join().is_err() {
            handler.count_lost(LostConnection::Panicked);
        }
    }
}

/// Serve one TCP connection: answer each complete line in order, leave
/// when the peer hangs up or the handler shuts down.
///
/// Once shutdown begins the connection answers the lines it has already
/// buffered and leaves — drain-then-exit applies to connections too.
/// One reusable buffer assembles `reply + '\n'` for a single `write_all`.
fn serve_connection(stream: TcpStream, handler: &impl LineHandler) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    let mut reader = LineReader::new(MAX_LINE_BYTES);
    let mut out: Vec<u8> = Vec::new();
    loop {
        let shutting = handler.is_shutting_down();
        let next = if shutting {
            reader.buffered_line()
        } else {
            reader.read_line(&mut stream)
        };
        out.clear();
        let last = match next {
            Ok(Some((line, arrival))) => {
                let line = String::from_utf8_lossy(line);
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                handler.answer_line(line, arrival, &mut out);
                false
            }
            Ok(None) if shutting => return,
            Ok(None) => continue,
            // Read timeout: loop around to re-check the shutdown flag.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            // Over the line cap: the rest of the stream cannot be framed.
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                let reply = Response::error(format!("bad request: {e}")).to_line();
                out.extend_from_slice(reply.as_bytes());
                true
            }
            Err(_) => return, // peer closed, or a broken socket
        };
        if write_line(&mut stream, &mut out).is_err() || last {
            return;
        }
    }
}

/// Append `'\n'` to the assembled reply and write it in one call (one
/// packet under `TCP_NODELAY`).
fn write_line(w: &mut impl Write, out: &mut Vec<u8>) -> io::Result<()> {
    out.push(b'\n');
    w.write_all(out)?;
    w.flush()
}

/// Serve NDJSON requests from `input` to `output` until EOF or a
/// `shutdown` request, then drain the worker pool. This is the stdin mode
/// of the daemon (`hetsched serve --stdin`), also handy for tests.
pub fn serve_lines(
    service: &Service,
    input: impl BufRead,
    mut output: impl Write,
) -> io::Result<()> {
    let mut out: Vec<u8> = Vec::new();
    for line in input.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.clear();
        service.answer_line(line, Instant::now(), &mut out);
        write_line(&mut output, &mut out)?;
        if service.is_shutting_down() {
            break;
        }
    }
    service.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Cursor};

    fn small_request(weight: f64, options: &str) -> String {
        format!(
            "{{\"op\":\"schedule\",\"dag\":{{\"tasks\":[{{\"weight\":{weight}}},{{\"weight\":2.0}}],\
             \"edges\":[{{\"src\":0,\"dst\":1,\"data\":1.5}}]}},\
             \"system\":{{\"processors\":{{\"kind\":\"homogeneous\",\"count\":2}},\
             \"network\":{{\"topology\":\"fully_connected\",\"bandwidth\":1.0}}}},\
             \"algorithm\":\"HEFT\",\"options\":{options}}}"
        )
    }

    fn test_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 8,
            instance_cache_capacity: 8,
            default_deadline_ms: 10_000,
        }
    }

    #[test]
    fn reaper_joins_finished_threads_and_counts_panics() {
        // Quiet the default panic hook for the deliberately-panicking
        // thread, then restore it.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let panicker = std::thread::spawn(|| panic!("connection thread died"));
        let clean = std::thread::spawn(|| {});
        while !panicker.is_finished() || !clean.is_finished() {
            std::thread::sleep(Duration::from_millis(2));
        }
        std::panic::set_hook(hook);

        let service = Service::start(test_config());
        let metrics = service.metrics();
        let mut connections = vec![panicker, clean];
        reap(&mut connections, &service, false);
        assert!(connections.is_empty(), "finished handles must be joined");
        assert_eq!(ServiceMetrics::read(&metrics.connection_panics), 1);

        // A still-running thread is left alone by the reaper and joined by
        // the final drain.
        let (tx, rx) = crossbeam::channel::bounded::<()>(1);
        let mut connections = vec![std::thread::spawn(move || {
            let _ = rx.recv();
        })];
        reap(&mut connections, &service, false);
        assert_eq!(connections.len(), 1, "live handle must be kept");
        tx.send(()).unwrap();
        reap(&mut connections, &service, true);
        assert_eq!(ServiceMetrics::read(&metrics.connection_panics), 1);
        service.shutdown();
    }

    #[test]
    fn stdin_mode_round_trips_and_stops_on_shutdown() {
        let service = Service::start(test_config());
        let input = format!(
            "{}\n\n{}\n{{\"op\":\"stats\"}}\n{{\"op\":\"shutdown\"}}\nignored after shutdown\n",
            small_request(1.0, "{}"),
            small_request(1.0, "{}"),
        );
        let mut out = Vec::new();
        serve_lines(&service, Cursor::new(input), &mut out).unwrap();
        let lines: Vec<String> = out.lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines.len(), 4, "lines: {lines:#?}");
        let first: serde_json::Value = serde_json::from_str(&lines[0]).unwrap();
        assert_eq!(first["status"].as_str(), Some("ok"));
        assert_eq!(first["schedule"]["cached"].as_bool(), Some(false));
        let second: serde_json::Value = serde_json::from_str(&lines[1]).unwrap();
        assert_eq!(second["schedule"]["cached"].as_bool(), Some(true));
        let stats: serde_json::Value = serde_json::from_str(&lines[2]).unwrap();
        assert_eq!(stats["stats"]["cache_hits"].as_u64(), Some(1));
        let bye: serde_json::Value = serde_json::from_str(&lines[3]).unwrap();
        assert_eq!(bye["status"].as_str(), Some("shutting_down"));
        assert!(service.is_shutting_down());
    }

    #[test]
    fn tcp_round_trip_and_client_initiated_shutdown() {
        let server = TcpServer::bind("127.0.0.1:0", test_config()).unwrap();
        let addr = server.local_addr().unwrap();
        let daemon = std::thread::spawn(move || server.run());

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut stream = stream;

        let mut send = |line: &str, reader: &mut BufReader<TcpStream>| -> serde_json::Value {
            stream.write_all(line.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            serde_json::from_str(reply.trim()).unwrap()
        };

        let v = send(&small_request(3.0, "{\"simulate\":true}"), &mut reader);
        assert_eq!(v["status"].as_str(), Some("ok"), "got {v:?}");
        assert_eq!(
            v["schedule"]["sim"]["matches_prediction"].as_bool(),
            Some(true)
        );
        let v = send(&small_request(3.0, "{\"simulate\":true}"), &mut reader);
        assert_eq!(v["schedule"]["cached"].as_bool(), Some(true));
        let v = send(r#"{"op":"stats"}"#, &mut reader);
        assert_eq!(v["stats"]["requests"].as_u64(), Some(2));
        let v = send(r#"{"op":"shutdown"}"#, &mut reader);
        assert_eq!(v["status"].as_str(), Some("shutting_down"));

        daemon.join().unwrap().unwrap();
    }

    #[test]
    fn tcp_survives_malformed_lines_and_peer_disconnect() {
        let server = TcpServer::bind("127.0.0.1:0", test_config()).unwrap();
        let addr = server.local_addr().unwrap();
        let service = server.service();
        let daemon = std::thread::spawn(move || server.run());

        {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            stream.write_all(b"garbage that is not json\n").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            let v: serde_json::Value = serde_json::from_str(reply.trim()).unwrap();
            assert_eq!(v["status"].as_str(), Some("error"));
            // Drop mid-session: the daemon must shrug it off.
        }

        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        stream
            .write_all(format!("{}\n", small_request(4.0, "{}")).as_bytes())
            .unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let v: serde_json::Value = serde_json::from_str(reply.trim()).unwrap();
        assert_eq!(v["status"].as_str(), Some("ok"), "got {v:?}");

        service.begin_shutdown();
        daemon.join().unwrap().unwrap();
    }

    /// A `Read` that hands out `data` in pieces of at most `step` bytes
    /// and records when each read returned.
    struct Pieces {
        data: Vec<u8>,
        step: usize,
        reads: Vec<Instant>,
    }

    impl Read for Pieces {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data.drain(..n);
            self.reads.push(Instant::now());
            Ok(n)
        }
    }

    /// Framed lines with their arrivals, and the instants of the reads.
    type Framed = (Vec<(String, Instant)>, Vec<Instant>);

    /// Every line a reader capped at `limit` yields from `data` fed
    /// `step` bytes per read, until EOF, with its arrival; and the reads.
    fn frame(data: &[u8], step: usize, limit: usize) -> io::Result<Framed> {
        let mut src = Pieces {
            data: data.to_vec(),
            step,
            reads: Vec::new(),
        };
        let mut reader = LineReader::new(limit);
        let mut lines = Vec::new();
        loop {
            match reader.read_line(&mut src) {
                Ok(Some((line, at))) => {
                    lines.push((String::from_utf8_lossy(line).into_owned(), at))
                }
                Ok(None) => {}
                Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok((lines, src.reads)),
                Err(e) => return Err(e),
            }
        }
    }

    #[test]
    fn line_reader_frames_lines_split_at_every_byte_boundary() {
        let input = b"{\"op\":\"hello\"}\n\n   \n\t \nsecond line\nlast\n";
        let expected = [
            "{\"op\":\"hello\"}",
            "",
            "   ",
            "\t ",
            "second line",
            "last",
        ];
        for step in 1..=input.len() {
            let (lines, reads) = frame(input, step, MAX_LINE_BYTES).unwrap();
            let texts: Vec<&str> = lines.iter().map(|(l, _)| l.as_str()).collect();
            assert_eq!(texts, expected, "step {step}");
            // Each line is stamped with the read that returned its
            // newline: no earlier, and before the next read.
            let mut end = 0;
            for (line, at) in &lines {
                end += line.len() + 1;
                let read = end.div_ceil(step) - 1;
                assert!(*at >= reads[read], "step {step}: `{line}` stamped early");
                if let Some(next) = reads.get(read + 1) {
                    assert!(at <= next, "step {step}: `{line}` stamped late");
                }
            }
        }
        // Several lines from one read: one read, then EOF; one arrival.
        let (lines, reads) = frame(input, CHUNK, MAX_LINE_BYTES).unwrap();
        assert_eq!((lines.len(), reads.len()), (expected.len(), 2));
        assert!(lines.iter().all(|(_, at)| *at == lines[0].1));
    }

    #[test]
    fn line_reader_caps_line_length() {
        let limit = 40;
        let at_cap = "x".repeat(limit);
        let over = "y".repeat(limit + 1);
        for step in [1, 7, CHUNK] {
            // Exactly at the cap is a line, and the next line is framed.
            let (lines, _) = frame(format!("{at_cap}\nok\n").as_bytes(), step, limit).unwrap();
            assert_eq!(lines.len(), 2, "step {step}");
            assert_eq!(lines[0].0, at_cap);
            // A partial line at the cap waits for its newline.
            let (lines, _) = frame(at_cap.as_bytes(), step, limit).unwrap();
            assert!(lines.is_empty(), "step {step}");
            // One byte over is refused, with or without its newline.
            for input in [format!("ok\n{over}\n"), format!("ok\n{over}")] {
                let err = frame(input.as_bytes(), step, limit).unwrap_err();
                assert_eq!(err.kind(), ErrorKind::InvalidData, "step {step}");
            }
        }
    }

    /// The next reply line on `reader`, parsed.
    fn reply(reader: &mut impl BufRead) -> serde_json::Value {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        serde_json::from_str(line.trim()).unwrap_or_else(|e| panic!("`{line}`: {e}"))
    }

    #[test]
    fn tcp_bounds_line_length_and_connection_count() {
        let server = TcpServer::bind("127.0.0.1:0", test_config()).unwrap();
        let addr = server.local_addr().unwrap();
        let service = server.service();
        let daemon = std::thread::spawn(move || server.run());
        let connect = || {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream
        };

        // A line over the cap: one `error` line, then EOF.
        let mut stream = connect();
        stream.write_all(&vec![b' '; MAX_LINE_BYTES + 1]).unwrap();
        let mut reader = BufReader::new(stream);
        assert_eq!(reply(&mut reader)["status"].as_str(), Some("error"));
        assert_eq!(reader.read_line(&mut String::new()).unwrap(), 0, "then EOF");

        // One connection over the cap: one `busy` line, then EOF.
        let mut open: Vec<TcpStream> = (0..MAX_CONNECTIONS).map(|_| connect()).collect();
        let mut reader = BufReader::new(connect());
        assert_eq!(reply(&mut reader)["status"].as_str(), Some("busy"));
        assert_eq!(reader.read_line(&mut String::new()).unwrap(), 0, "then EOF");
        assert_eq!(
            ServiceMetrics::read(&service.metrics().connections_refused),
            1
        );

        // The connections under the cap are still served.
        for i in [0, MAX_CONNECTIONS - 1] {
            let stream = &mut open[i];
            let line = format!("{}\n", small_request(5.0, "{}"));
            stream.write_all(line.as_bytes()).unwrap();
            let v = reply(&mut BufReader::new(&*stream));
            assert_eq!(v["status"].as_str(), Some("ok"), "{v:?}");
        }

        service.begin_shutdown();
        daemon.join().unwrap().unwrap();
    }
}
