//! `hetsched-gateway` — a scale-out front door for the resident
//! scheduling daemon.
//!
//! One gateway process fronts N `hetsched-serve` shard processes and
//! speaks the same NDJSON protocol to clients, adding three things the
//! shards cannot provide on their own:
//!
//! - **Fingerprint routing.** Every `schedule`/`portfolio` request is
//!   routed to the shard chosen by the (DAG, system) content fingerprint,
//!   so repeat traffic for one problem always lands where that problem's
//!   `ProblemInstance` cache and reply memo already live. A down shard is
//!   failed over to the next healthy one (affinity degrades, correctness
//!   does not).
//! - **Single-flight dedup.** Identical requests that arrive while a
//!   matching one is already in flight do not reach a shard at all: they
//!   wait for the leader's reply and receive it byte-for-byte.
//! - **Admission control.** Beyond the shards' own `busy` backpressure,
//!   the gateway enforces a per-shard inflight budget and propagates
//!   per-request deadlines — a request whose deadline has already passed
//!   is shed before it can occupy a shard slot. Shed requests get a
//!   distinct `shed` status, never an unbounded queue.
//!
//! The gateway has no transport of its own: [`GatewayServer`] is
//! `hetsched-serve`'s thread-per-connection [`TcpServer`] answering lines
//! with a [`Router`], so both tiers share one connection loop, one line
//! reader, the request-line cap and the connection cap.
//!
//! | module         | contents |
//! |----------------|----------|
//! | [`backend`]    | shard connection pool, `hello` handshake, health state |
//! | [`singleflight`] | in-flight request coalescing table |
//! | [`router`]     | parse → fingerprint → admit → forward → reply |
//! | [`metrics`]    | gateway counters, latency histogram, Prometheus text |
//! | [`shards`]     | in-process shard set (for `serve --shards N` and tests) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod metrics;
pub mod router;
pub mod shards;
pub mod singleflight;

use std::io;
use std::sync::Arc;

use hetsched_serve::TcpServer;

pub use router::Router;
pub use shards::LocalShards;

/// The gateway's TCP server: serve's [`TcpServer`] over a [`Router`].
pub struct GatewayServer(TcpServer<Router>);

impl GatewayServer {
    /// Bind `addr` and construct the router for `config.backends`. Shard
    /// connections are opened lazily, so the shards may come up after the
    /// gateway.
    pub fn bind(addr: &str, config: GatewayConfig) -> io::Result<GatewayServer> {
        TcpServer::with_handler(addr, Router::new(config)?).map(GatewayServer)
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.0.local_addr()
    }

    /// Shared handle to the routing core (metrics, programmatic
    /// shutdown).
    pub fn router(&self) -> Arc<Router> {
        self.0.handler()
    }

    /// Serve until a `shutdown` request arrives (or
    /// [`Router::begin_shutdown`] is called), then answer every buffered
    /// line and join every connection before returning.
    pub fn run(self) -> io::Result<()> {
        self.0.run()
    }
}

/// Gateway configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Backend shard addresses (`host:port`), in shard-index order. The
    /// content-fingerprint routing is `fingerprint % backends.len()`, so
    /// the order must be identical across gateway restarts for affinity
    /// to persist.
    pub backends: Vec<String>,
    /// Maximum requests in flight per shard; the budget admission bound.
    /// A request whose home shard is at its budget is shed, not queued.
    pub inflight_per_shard: usize,
    /// Deadline applied when a request carries no `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Timeout for connecting to (and handshaking with) a shard.
    pub connect_timeout_ms: u64,
    /// Forward a client `shutdown` to every shard, so one request winds
    /// the whole deployment down. Disable when shards are shared.
    pub propagate_shutdown: bool,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            backends: Vec::new(),
            inflight_per_shard: 16,
            default_deadline_ms: 30_000,
            connect_timeout_ms: 1_000,
            propagate_shutdown: true,
        }
    }
}
