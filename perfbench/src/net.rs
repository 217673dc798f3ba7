//! The daemon as a child process, and line-oriented TCP clients for it.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use hetsched_serve::StatsBody;
use serde_json::Value;

/// Longest wait for one reply before the run is declared hung.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One client connection speaking NDJSON. Replies are read into a
/// persistent buffer that is scanned for `\n` only past what was already
/// scanned, so large replies cost one pass.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    scanned: usize,
    timeout: Option<Duration>,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            scanned: 0,
            timeout: None,
        })
    }

    /// Send one request line; `line` ends in `\n`.
    pub fn send(&mut self, line: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(line)
            .map_err(|e| format!("send: {e}"))
    }

    /// The next reply line (without its `\n`), waiting until `until`;
    /// `None` when `until` passes first.
    pub fn recv_by(&mut self, until: Instant) -> Result<Option<Vec<u8>>, String> {
        loop {
            if let Some(pos) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + pos;
                let line = self.buf[..end].to_vec();
                self.buf.drain(..=end);
                self.scanned = 0;
                return Ok(Some(line));
            }
            self.scanned = self.buf.len();
            let now = Instant::now();
            if until <= now {
                return Ok(None);
            }
            self.set_timeout((until - now).max(Duration::from_micros(50)))?;
            let old = self.buf.len();
            self.buf.resize(old + (1 << 16), 0);
            let read = self.stream.read(&mut self.buf[old..]);
            match read {
                Ok(0) => {
                    self.buf.truncate(old);
                    return Err("connection closed by the daemon".to_string());
                }
                Ok(k) => self.buf.truncate(old + k),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    self.buf.truncate(old)
                }
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    /// The next reply line, failing after [`REPLY_TIMEOUT`].
    pub fn recv(&mut self) -> Result<Vec<u8>, String> {
        self.recv_by(Instant::now() + REPLY_TIMEOUT)?
            .ok_or_else(|| format!("no reply within {REPLY_TIMEOUT:?}"))
    }

    /// One closed-loop round trip.
    pub fn call(&mut self, line: &[u8]) -> Result<Vec<u8>, String> {
        self.send(line)?;
        self.recv()
    }

    fn set_timeout(&mut self, t: Duration) -> Result<(), String> {
        // Round to 50 µs so a steady loop does not pay a syscall per read.
        let t = Duration::from_micros(t.as_micros().div_ceil(50) as u64 * 50);
        if self.timeout != Some(t) {
            self.stream
                .set_read_timeout(Some(t))
                .map_err(|e| format!("set_read_timeout: {e}"))?;
            self.timeout = Some(t);
        }
        Ok(())
    }
}

/// How the daemon answered one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    UnknownParent,
    Shed,
    Busy,
    Timeout,
    Error,
    Protocol,
}

impl Status {
    pub fn of(reply: &[u8]) -> Status {
        let tail = match reply.strip_prefix(b"{\"status\":\"") {
            Some(t) => t,
            None => return Status::Protocol,
        };
        if tail.starts_with(b"ok\"") {
            Status::Ok
        } else if tail.starts_with(b"error\",\"message\":\"unknown_parent") {
            Status::UnknownParent
        } else if tail.starts_with(b"shed\"") {
            Status::Shed
        } else if tail.starts_with(b"busy\"") {
            Status::Busy
        } else if tail.starts_with(b"timeout\"") {
            Status::Timeout
        } else if tail.starts_with(b"error\"") {
            Status::Error
        } else {
            Status::Protocol
        }
    }
}

/// `hetsched-cli serve` (or `serve --shards N`) as a child process with
/// default settings, on a kernel-chosen loopback port.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// Client-facing address: the daemon itself, or the gateway.
    pub addr: String,
    /// Shard addresses behind the gateway, in routing order (empty for a
    /// single daemon).
    pub shards: Vec<String>,
    stopped: bool,
}

impl Daemon {
    pub fn spawn(cli: &Path, shards: usize) -> Result<Daemon, String> {
        let mut cmd = Command::new(cli);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]);
        if shards > 0 {
            cmd.args(["--shards", &shards.to_string()]);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", cli.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut d = Daemon {
            child,
            stdout,
            addr: String::new(),
            shards: Vec::new(),
            stopped: false,
        };
        loop {
            let mut line = String::new();
            let k = d
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading daemon stdout: {e}"))?;
            if k == 0 {
                return Err("daemon exited before listening".to_string());
            }
            let line = line.trim();
            if let Some(a) = line.strip_prefix("listening on ") {
                d.addr = a.to_string();
                return Ok(d);
            }
            if let Some((_, a)) = line
                .strip_prefix("shard ")
                .and_then(|r| r.split_once(" on "))
            {
                d.shards.push(a.to_string());
            }
        }
    }

    /// Connect and exchange `hello`.
    pub fn hello(&self) -> Result<Conn, String> {
        let mut conn = Conn::connect(&self.addr)?;
        let reply = conn.call(b"{\"op\":\"hello\"}\n")?;
        if Status::of(&reply) != Status::Ok {
            return Err(format!(
                "hello answered {}",
                String::from_utf8_lossy(&reply)
            ));
        }
        Ok(conn)
    }

    /// Peak resident set of the serving process (`VmHWM`), MB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    pub fn stats(&self) -> Result<Stats, String> {
        let reply = Conn::connect(&self.addr)?.call(b"{\"op\":\"stats\"}\n")?;
        let v: Value = serde_json::from_str(&String::from_utf8_lossy(&reply))
            .map_err(|e| format!("stats reply: {e}"))?;
        let body = |v: &Value| {
            serde_json::from_value::<StatsBody>(v.clone()).map_err(|e| format!("stats body: {e}"))
        };
        if self.shards.is_empty() {
            Ok(Stats {
                shards: vec![body(&v["stats"])?],
                gateway: None,
            })
        } else {
            let shards = v["shards"]
                .as_array()
                .ok_or("gateway stats without shards")?
                .iter()
                .map(body)
                .collect::<Result<_, _>>()?;
            Ok(Stats {
                shards,
                gateway: Some(v["gateway"].clone()),
            })
        }
    }

    /// Graceful shutdown: ask, then wait for the process to exit.
    pub fn stop(mut self) -> Result<(), String> {
        self.stopped = true;
        let asked = Conn::connect(&self.addr).and_then(|mut c| c.call(b"{\"op\":\"shutdown\"}\n"));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = Vec::new();
                    let _ = self.stdout.read_to_end(&mut rest);
                    asked?;
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("daemon exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("daemon did not exit after shutdown".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The counters of every serving shard, plus the gateway's when there is
/// one.
pub struct Stats {
    pub shards: Vec<StatsBody>,
    pub gateway: Option<Value>,
}

impl Stats {
    /// Sum of a shard counter over every shard.
    pub fn sum(&self, f: impl Fn(&StatsBody) -> u64) -> u64 {
        self.shards.iter().map(f).sum()
    }

    /// Largest value of a shard quantile over every shard.
    pub fn worst(&self, f: impl Fn(&StatsBody) -> f64) -> f64 {
        self.shards.iter().map(f).fold(0.0, f64::max)
    }

    /// A gateway counter (0 without a gateway).
    pub fn gw(&self, key: &str) -> u64 {
        self.gateway
            .as_ref()
            .and_then(|g| g[key].as_u64())
            .unwrap_or(0)
    }
}
