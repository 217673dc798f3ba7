//! Gateway counters and Prometheus rendering.
//!
//! Same conventions as the shard-side [`hetsched_serve::metrics`]: relaxed
//! atomics for monotone counts, the shared log₂ latency histogram for
//! end-to-end request latency, and text-exposition rendering with a
//! `hetsched_gateway_` prefix so a scrape of gateway + shards never
//! collides.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::Serialize;

use hetsched_serve::metrics::{
    escape_label, render_histogram, LatencyHistogram, OpOutcomes, StatusLatency,
};

/// All gateway counters.
#[derive(Debug, Default)]
pub struct GatewayMetrics {
    /// Schedule/portfolio requests received (sheds included).
    pub requests: AtomicU64,
    /// Requests forwarded to a shard and answered by it.
    pub forwarded: AtomicU64,
    /// Requests answered with another request's in-flight reply
    /// (single-flight followers).
    pub dedup_hits: AtomicU64,
    /// Requests refused by admission control (`shed` responses).
    pub sheds: AtomicU64,
    /// Requests answered `timeout` by the gateway (shard did not reply
    /// within the propagated deadline).
    pub timeouts: AtomicU64,
    /// Requests served by a non-home shard after a failover.
    pub reroutes: AtomicU64,
    /// Shard I/O failures (connect refused, handshake mismatch, broken
    /// connection); each triggers failover or a structured error.
    pub shard_errors: AtomicU64,
    /// Error responses originated by the gateway (malformed requests,
    /// invalid problems, no healthy shard).
    pub errors: AtomicU64,
    /// Requests answered from the gateway's raw-byte hot-line cache —
    /// no parse, no shard round trip.
    pub wire_hits: AtomicU64,
    /// Requests the wire scanner digested but whose reply was not (yet)
    /// cached; routed normally.
    pub wire_misses: AtomicU64,
    /// Requests the wire scanner declined (control ops, traced requests,
    /// non-compact or escaped JSON) or that arrived during shutdown or
    /// past their deadline; routed normally without a digest.
    pub wire_fallbacks: AtomicU64,
    /// End-to-end latency of routed requests, split by outcome
    /// (`status` label in the exposition).
    pub latency: StatusLatency,
    /// Per-op request outcomes (`hetsched_gateway_op_outcomes_total`).
    pub op_outcomes: OpOutcomes,
    /// Remaining deadline slack when a request that carried an explicit
    /// deadline was answered `ok`.
    pub deadline_slack: LatencyHistogram,
    /// Client connection threads that exited by panicking.
    pub connection_panics: AtomicU64,
    /// Client connections closed at accept (connection cap or failed
    /// thread spawn).
    pub connections_refused: AtomicU64,
}

/// Point-in-time view of one backend shard, for `stats` and `metrics`.
#[derive(Debug, Clone, Serialize)]
pub struct ShardSnapshot {
    /// Shard address.
    pub addr: String,
    /// Whether the shard is currently considered healthy.
    pub up: bool,
    /// Requests currently in flight on this shard (gateway-side view).
    pub inflight: u64,
    /// Requests this shard has answered.
    pub forwarded: u64,
    /// I/O failures attributed to this shard.
    pub errors: u64,
}

/// Relaxed increment helper.
pub fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Relaxed read helper.
pub fn read(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

impl GatewayMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Render every gateway metric family in the Prometheus text
    /// exposition format, including per-shard labeled series from the
    /// supplied snapshots.
    pub fn render_prometheus(&self, shards: &[ShardSnapshot]) -> String {
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter(
            "hetsched_gateway_requests_total",
            "Schedule/portfolio requests received by the gateway.",
            read(&self.requests),
        );
        counter(
            "hetsched_gateway_forwarded_total",
            "Requests forwarded to a shard and answered by it.",
            read(&self.forwarded),
        );
        counter(
            "hetsched_gateway_dedup_hits_total",
            "Requests coalesced onto an identical in-flight request.",
            read(&self.dedup_hits),
        );
        counter(
            "hetsched_gateway_sheds_total",
            "Requests refused by admission control.",
            read(&self.sheds),
        );
        counter(
            "hetsched_gateway_timeouts_total",
            "Requests that exceeded their deadline at the gateway.",
            read(&self.timeouts),
        );
        counter(
            "hetsched_gateway_reroutes_total",
            "Requests served by a non-home shard after failover.",
            read(&self.reroutes),
        );
        counter(
            "hetsched_gateway_shard_errors_total",
            "Shard I/O failures observed by the gateway.",
            read(&self.shard_errors),
        );
        counter(
            "hetsched_gateway_errors_total",
            "Error responses originated by the gateway.",
            read(&self.errors),
        );
        counter(
            "hetsched_gateway_wire_hits_total",
            "Requests answered from the raw-byte hot-line cache.",
            read(&self.wire_hits),
        );
        counter(
            "hetsched_gateway_wire_misses_total",
            "Wire-scanned requests whose reply was not cached.",
            read(&self.wire_misses),
        );
        counter(
            "hetsched_gateway_wire_fallbacks_total",
            "Requests the wire scanner declined; routed via full parse.",
            read(&self.wire_fallbacks),
        );
        counter(
            "hetsched_gateway_connection_panics_total",
            "Client connection threads that exited by panicking.",
            read(&self.connection_panics),
        );
        counter(
            "hetsched_gateway_connections_refused_total",
            "Client connections closed at accept (connection cap or failed thread spawn).",
            read(&self.connections_refused),
        );

        let _ = writeln!(
            out,
            "# HELP hetsched_gateway_shards Configured backend shards."
        );
        let _ = writeln!(out, "# TYPE hetsched_gateway_shards gauge");
        let _ = writeln!(out, "hetsched_gateway_shards {}", shards.len());
        let mut per_shard =
            |name: &str, help: &str, kind: &str, value: &dyn Fn(&ShardSnapshot) -> u64| {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} {kind}");
                for s in shards {
                    let _ = writeln!(
                        out,
                        "{name}{{shard=\"{}\"}} {}",
                        escape_label(&s.addr),
                        value(s)
                    );
                }
            };
        per_shard(
            "hetsched_gateway_shard_up",
            "Whether the shard is currently considered healthy.",
            "gauge",
            &|s| s.up as u64,
        );
        per_shard(
            "hetsched_gateway_shard_inflight",
            "Requests currently in flight on the shard.",
            "gauge",
            &|s| s.inflight,
        );
        per_shard(
            "hetsched_gateway_shard_forwarded_total",
            "Requests the shard has answered.",
            "counter",
            &|s| s.forwarded,
        );
        per_shard(
            "hetsched_gateway_shard_errors_total",
            "I/O failures attributed to the shard.",
            "counter",
            &|s| s.errors,
        );

        self.latency.render(
            &mut out,
            "hetsched_gateway_latency_seconds",
            "End-to-end latency of routed requests, by outcome status.",
        );
        self.op_outcomes.render(
            &mut out,
            "hetsched_gateway_op_outcomes_total",
            "Routed request outcomes by op and status.",
        );
        render_histogram(
            &mut out,
            "hetsched_gateway_deadline_slack_seconds",
            "Remaining deadline slack of ok replies that carried an explicit deadline.",
            "",
            &self.deadline_slack,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsched_serve::metrics::RequestStatus;
    use std::time::Duration;

    #[test]
    fn prometheus_rendering_contains_gateway_families() {
        let m = GatewayMetrics::new();
        bump(&m.requests);
        bump(&m.requests);
        bump(&m.dedup_hits);
        bump(&m.sheds);
        m.latency
            .record(RequestStatus::Success, Duration::from_micros(300));
        m.latency
            .record(RequestStatus::Shed, Duration::from_micros(40));
        m.op_outcomes.bump("schedule", RequestStatus::Success);
        m.op_outcomes.bump("patch", RequestStatus::Shed);
        m.deadline_slack.record(Duration::from_millis(12));
        bump(&m.wire_hits);
        bump(&m.wire_misses);
        bump(&m.wire_misses);
        bump(&m.wire_fallbacks);
        let shards = vec![
            ShardSnapshot {
                addr: "127.0.0.1:7001".to_string(),
                up: true,
                inflight: 2,
                forwarded: 5,
                errors: 0,
            },
            ShardSnapshot {
                addr: "127.0.0.1:7002".to_string(),
                up: false,
                inflight: 0,
                forwarded: 1,
                errors: 3,
            },
        ];
        let text = m.render_prometheus(&shards);
        for family in [
            "hetsched_gateway_requests_total 2",
            "hetsched_gateway_dedup_hits_total 1",
            "hetsched_gateway_sheds_total 1",
            "hetsched_gateway_wire_hits_total 1",
            "hetsched_gateway_wire_misses_total 2",
            "hetsched_gateway_wire_fallbacks_total 1",
            "hetsched_gateway_shards 2",
            "hetsched_gateway_shard_up{shard=\"127.0.0.1:7001\"} 1",
            "hetsched_gateway_shard_up{shard=\"127.0.0.1:7002\"} 0",
            "hetsched_gateway_shard_inflight{shard=\"127.0.0.1:7001\"} 2",
            "hetsched_gateway_shard_errors_total{shard=\"127.0.0.1:7002\"} 3",
            "# TYPE hetsched_gateway_latency_seconds histogram",
            "hetsched_gateway_latency_seconds_count{status=\"success\"} 1",
            "hetsched_gateway_latency_seconds_count{status=\"shed\"} 1",
            "hetsched_gateway_latency_seconds_count{status=\"timeout\"} 0",
            "hetsched_gateway_op_outcomes_total{op=\"schedule\",status=\"success\"} 1",
            "hetsched_gateway_op_outcomes_total{op=\"patch\",status=\"shed\"} 1",
            "hetsched_gateway_op_outcomes_total{op=\"portfolio\",status=\"error\"} 0",
            "hetsched_gateway_deadline_slack_seconds_count 1",
        ] {
            assert!(text.contains(family), "missing `{family}` in:\n{text}");
        }
        for line in text.lines() {
            assert!(!line.is_empty());
        }
    }
}
