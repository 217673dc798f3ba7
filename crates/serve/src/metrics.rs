//! Service metrics: lock-free counters, streaming latency histograms
//! (global and per-algorithm), and a Prometheus text-exposition renderer.
//!
//! Counters are relaxed atomics — they are monotone event counts with no
//! cross-counter invariants, so relaxed ordering is sufficient and a
//! `stats`/`metrics` read never blocks a request. Latencies go into a
//! fixed log₂-bucketed histogram (bucket upper bounds at successive
//! powers of two microseconds, *inclusive*, matching Prometheus `le`
//! semantics), from which quantiles are answered by bucket walk with
//! log-linear interpolation; recording is O(1), wait-free, and
//! allocation-free.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

const BUCKETS: usize = 64;

/// Streaming log-scale latency histogram over microseconds.
///
/// Bucket `i` counts samples in `(2^(i-1), 2^i]` µs (bucket 0: `[0, 1]`).
/// The *inclusive upper* boundary is deliberate: a sample landing exactly
/// on a power of two belongs to the bucket whose upper bound it equals,
/// exactly like a Prometheus `le="2^i"` bucket. (The previous
/// boundary-exclusive scheme pushed such samples one bucket up, and the
/// then-used geometric-midpoint quantile reported ≈ 1.41× the true value
/// for boundary-heavy workloads — above the true maximum.)
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index of a microsecond value: the bit length of `us - 1`,
    /// i.e. the smallest `i` with `us <= 2^i`.
    fn bucket_of(us: u64) -> usize {
        (u64::BITS - us.saturating_sub(1).leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i`, microseconds.
    fn bucket_upper_us(i: usize) -> u64 {
        1u64 << i.min(63)
    }

    /// Record one latency sample.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[Self::bucket_of(us).min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples, microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Cumulative bucket snapshot: `(inclusive upper bound in µs,
    /// cumulative count)` for every bucket up to the highest non-empty one
    /// (empty histogram → empty vec). This is exactly the series a
    /// Prometheus `_bucket{le="..."}` family exposes (minus `+Inf`).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            out.push((Self::bucket_upper_us(i), cum));
        }
        while matches!(out.last(), Some(&(_, c)) if out.len() > 1 && c == out[out.len() - 2].1) {
            out.pop();
        }
        if matches!(out.as_slice(), [(_, 0)]) {
            out.clear();
        }
        out
    }

    /// Quantile estimate in microseconds (`q ∈ [0, 1]`); returns 0 with no
    /// samples. The bucket holding the quantile rank is found by walk;
    /// within the bucket the estimate interpolates log-linearly between
    /// the bucket's bounds (linearly for bucket 0), so it never exceeds
    /// the bucket's inclusive upper bound — a spike of samples exactly on
    /// a power-of-two boundary yields an estimate `<=` that boundary,
    /// with equality when the rank falls on the last sample of the bucket.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let in_bucket = b.load(Ordering::Relaxed);
            if in_bucket > 0 && seen + in_bucket >= rank {
                let frac = (rank - seen) as f64 / in_bucket as f64;
                let hi = Self::bucket_upper_us(i) as f64;
                if i == 0 {
                    return frac * hi;
                }
                let lo = Self::bucket_upper_us(i - 1) as f64;
                return lo * (hi / lo).powf(frac);
            }
            seen += in_bucket;
        }
        // Unreachable with consistent counters; fall back to the max bound.
        Self::bucket_upper_us(BUCKETS - 1) as f64
    }

    /// Mean latency in microseconds (0 with no samples).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us() as f64 / n as f64
        }
    }
}

/// Request outcome classes used as the `status` label on latency
/// histograms and per-op outcome counters. `Success` covers `ok`
/// replies; `Shed` covers busy/shed rejections; `Timeout` covers
/// deadline expiries; `Error` covers everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStatus {
    /// The request got an `ok` reply.
    Success,
    /// The request was turned away by admission control (`busy`/`shed`).
    Shed,
    /// The request's deadline passed before the reply was ready.
    Timeout,
    /// The request failed (bad input, panic, internal error).
    Error,
}

impl RequestStatus {
    /// Every status, in render order.
    pub const ALL: [RequestStatus; 4] = [
        RequestStatus::Success,
        RequestStatus::Shed,
        RequestStatus::Timeout,
        RequestStatus::Error,
    ];

    /// The `status` label value.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestStatus::Success => "success",
            RequestStatus::Shed => "shed",
            RequestStatus::Timeout => "timeout",
            RequestStatus::Error => "error",
        }
    }

    fn index(self) -> usize {
        match self {
            RequestStatus::Success => 0,
            RequestStatus::Shed => 1,
            RequestStatus::Timeout => 2,
            RequestStatus::Error => 3,
        }
    }
}

/// One latency histogram per request outcome, rendered as a single
/// Prometheus family with a `status` label. Every status series is
/// rendered even when empty so scrapers (and CI greps) see a
/// deterministic set of series.
#[derive(Debug, Default)]
pub struct StatusLatency {
    by_status: [LatencyHistogram; 4],
}

impl StatusLatency {
    /// Fresh, empty histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample against an outcome.
    pub fn record(&self, status: RequestStatus, latency: Duration) {
        self.by_status[status.index()].record(latency);
    }

    /// The histogram for one outcome.
    pub fn get(&self, status: RequestStatus) -> &LatencyHistogram {
        &self.by_status[status.index()]
    }

    /// The success histogram (the series stats quantiles come from).
    pub fn success(&self) -> &LatencyHistogram {
        self.get(RequestStatus::Success)
    }

    /// Samples recorded across all outcomes.
    pub fn total_count(&self) -> u64 {
        self.by_status.iter().map(|h| h.count()).sum()
    }

    /// Render the whole family: HELP + TYPE, then one labeled series
    /// set per status.
    pub fn render(&self, out: &mut String, name: &str, help: &str) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        for status in RequestStatus::ALL {
            render_histogram_series(
                out,
                name,
                &format!("status=\"{}\"", escape_label(status.as_str())),
                self.get(status),
            );
        }
    }
}

/// Operations distinguished by the per-op outcome counters.
pub const OUTCOME_OPS: [&str; 3] = ["schedule", "patch", "portfolio"];

/// Fixed matrix of `(op, status)` outcome counters rendered as
/// `{prefix}_op_outcomes_total{op="...",status="..."}`. Every cell is
/// always rendered so the exposition is deterministic.
#[derive(Debug, Default)]
pub struct OpOutcomes {
    cells: [[AtomicU64; 4]; 3],
}

impl OpOutcomes {
    fn op_index(op: &str) -> usize {
        OUTCOME_OPS.iter().position(|o| *o == op).unwrap_or(0)
    }

    /// Count one request outcome for an op (`schedule`/`patch`/
    /// `portfolio`; unknown ops count against `schedule`).
    pub fn bump(&self, op: &str, status: RequestStatus) {
        self.cells[Self::op_index(op)][status.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Read one cell.
    pub fn get(&self, op: &str, status: RequestStatus) -> u64 {
        self.cells[Self::op_index(op)][status.index()].load(Ordering::Relaxed)
    }

    /// Render the counter family under `name`.
    pub fn render(&self, out: &mut String, name: &str, help: &str) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        for (oi, op) in OUTCOME_OPS.iter().enumerate() {
            for status in RequestStatus::ALL {
                let v = self.cells[oi][status.index()].load(Ordering::Relaxed);
                let _ = writeln!(
                    out,
                    "{name}{{op=\"{}\",status=\"{}\"}} {v}",
                    escape_label(op),
                    escape_label(status.as_str()),
                );
            }
        }
    }
}

/// All service counters.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Schedule requests accepted for processing (hits + queued).
    pub requests: AtomicU64,
    /// Requests answered from the memoization cache.
    pub cache_hits: AtomicU64,
    /// Fresh schedules computed to completion.
    pub computed: AtomicU64,
    /// Error responses (bad input, unknown algorithm, worker panics).
    pub errors: AtomicU64,
    /// Worker panics caught (also counted in `errors`).
    pub panics: AtomicU64,
    /// Deadline expiries.
    pub timeouts: AtomicU64,
    /// Queue-full rejections.
    pub busy_rejections: AtomicU64,
    /// Connection threads that exited by panicking (joined by the
    /// transport's reaper).
    pub connection_panics: AtomicU64,
    /// Connections closed at accept: over the transport's connection cap,
    /// or their thread failed to spawn.
    pub connections_refused: AtomicU64,
    /// Requests that reused a cached shared `ProblemInstance`.
    pub instance_cache_hits: AtomicU64,
    /// Requests that had to build a fresh `ProblemInstance`.
    pub instance_cache_misses: AtomicU64,
    /// `patch` requests accepted (parent found, deltas applied).
    pub patches: AtomicU64,
    /// Requests answered from the wire-level reply cache without parsing
    /// (a subset of `cache_hits`).
    pub wire_hits: AtomicU64,
    /// Scanned requests whose digest was not in the wire cache.
    pub wire_misses: AtomicU64,
    /// Requests the wire scanner refused (whitespace, escapes, traced,
    /// control ops) — the ordinary slow path.
    pub wire_fallbacks: AtomicU64,
    /// Schedules produced by incremental repair rather than from-scratch
    /// computation (a subset of `computed`).
    pub repairs: AtomicU64,
    /// End-to-end latency of finished requests, split by outcome
    /// (`status` label in the exposition).
    pub latency: StatusLatency,
    /// Per-op request outcomes (`hetsched_op_outcomes_total`).
    pub op_outcomes: OpOutcomes,
    /// Remaining deadline slack at completion for requests that carried
    /// a deadline and succeeded.
    pub deadline_slack: LatencyHistogram,
    /// Time jobs spent waiting in the bounded queue before a worker
    /// picked them up (computed jobs only — memo hits never queue).
    pub queue_wait: LatencyHistogram,
    /// Time workers spent inside the scheduling engine per computed job.
    pub compute: LatencyHistogram,
    /// Per-algorithm end-to-end latency (keyed by registry name). Kept in
    /// `Arc`s so recording takes the map lock only for the lookup.
    per_algorithm: Mutex<BTreeMap<String, Arc<LatencyHistogram>>>,
}

/// Point-in-time gauge values owned by the service rather than the
/// counters, passed into [`ServiceMetrics::render_prometheus`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GaugeSnapshot {
    /// Jobs currently waiting in the bounded queue.
    pub queue_depth: u64,
    /// Entries currently in the memoization cache.
    pub cache_entries: u64,
    /// Entries currently in the problem-instance cache.
    pub instance_cache_entries: u64,
    /// Worker threads.
    pub workers: u64,
    /// Bounded queue capacity.
    pub queue_capacity: u64,
}

impl ServiceMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Relaxed increment helper.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Relaxed read helper.
    pub fn read(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Record a completed request's latency against its algorithm (the
    /// global histogram is recorded separately by the request path).
    pub fn record_algorithm(&self, algorithm: &str, latency: Duration) {
        let hist = {
            let mut map = self.per_algorithm.lock();
            map.entry(algorithm.to_string())
                .or_insert_with(|| Arc::new(LatencyHistogram::new()))
                .clone()
        };
        hist.record(latency);
    }

    /// Snapshot of the per-algorithm histograms, sorted by name.
    pub fn algorithm_histograms(&self) -> Vec<(String, Arc<LatencyHistogram>)> {
        self.per_algorithm
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Render every metric family in the Prometheus text exposition
    /// format (version 0.0.4): monotone counters with a `_total` suffix,
    /// the service gauges from `g`, and the request-latency histograms
    /// (global, plus one labeled series set per algorithm) in seconds.
    pub fn render_prometheus(&self, g: &GaugeSnapshot) -> String {
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        let requests = Self::read(&self.requests);
        let hits = Self::read(&self.cache_hits);
        counter(
            "hetsched_requests_total",
            "Schedule requests accepted for processing.",
            requests,
        );
        counter(
            "hetsched_cache_hits_total",
            "Requests answered from the memoization cache.",
            hits,
        );
        counter(
            "hetsched_cache_misses_total",
            "Accepted requests that missed the memoization cache.",
            requests.saturating_sub(hits),
        );
        counter(
            "hetsched_computed_total",
            "Fresh schedules computed to completion.",
            Self::read(&self.computed),
        );
        counter(
            "hetsched_errors_total",
            "Error responses (bad input, unknown algorithm, panics).",
            Self::read(&self.errors),
        );
        counter(
            "hetsched_panics_total",
            "Worker panics caught (also counted in errors).",
            Self::read(&self.panics),
        );
        counter(
            "hetsched_timeouts_total",
            "Requests that exceeded their deadline.",
            Self::read(&self.timeouts),
        );
        counter(
            "hetsched_busy_rejections_total",
            "Requests rejected because the bounded queue was full.",
            Self::read(&self.busy_rejections),
        );
        counter(
            "hetsched_connection_panics_total",
            "Connection threads that exited by panicking.",
            Self::read(&self.connection_panics),
        );
        counter(
            "hetsched_connections_refused_total",
            "Connections closed at accept (connection cap or failed thread spawn).",
            Self::read(&self.connections_refused),
        );
        counter(
            "hetsched_instance_cache_hits_total",
            "Requests that reused a cached shared problem instance.",
            Self::read(&self.instance_cache_hits),
        );
        counter(
            "hetsched_instance_cache_misses_total",
            "Requests that built a fresh problem instance.",
            Self::read(&self.instance_cache_misses),
        );
        counter(
            "hetsched_patches_total",
            "Patch requests accepted (parent found, deltas applied).",
            Self::read(&self.patches),
        );
        counter(
            "hetsched_repairs_total",
            "Schedules produced by incremental repair (subset of computed).",
            Self::read(&self.repairs),
        );
        counter(
            "hetsched_wire_hits_total",
            "Requests answered from the wire-level reply cache without parsing.",
            Self::read(&self.wire_hits),
        );
        counter(
            "hetsched_wire_misses_total",
            "Scanned requests whose digest missed the wire cache.",
            Self::read(&self.wire_misses),
        );
        counter(
            "hetsched_wire_fallbacks_total",
            "Requests the wire scanner refused (full-parse path).",
            Self::read(&self.wire_fallbacks),
        );

        let mut gauge = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        gauge(
            "hetsched_queue_depth",
            "Jobs currently waiting in the bounded request queue.",
            g.queue_depth,
        );
        gauge(
            "hetsched_queue_capacity",
            "Bounded request queue capacity.",
            g.queue_capacity,
        );
        gauge(
            "hetsched_cache_entries",
            "Entries currently in the memoization cache.",
            g.cache_entries,
        );
        gauge(
            "hetsched_instance_cache_entries",
            "Entries currently in the problem-instance cache.",
            g.instance_cache_entries,
        );
        gauge("hetsched_workers", "Worker threads.", g.workers);

        self.latency.render(
            &mut out,
            "hetsched_request_latency_seconds",
            "End-to-end latency of finished requests, by outcome status.",
        );
        self.op_outcomes.render(
            &mut out,
            "hetsched_op_outcomes_total",
            "Request outcomes per operation and status.",
        );
        render_histogram(
            &mut out,
            "hetsched_deadline_slack_seconds",
            "Deadline slack remaining when a deadlined request succeeded.",
            "",
            &self.deadline_slack,
        );
        render_histogram(
            &mut out,
            "hetsched_queue_wait_seconds",
            "Queue wait before a worker picked up a computed job.",
            "",
            &self.queue_wait,
        );
        render_histogram(
            &mut out,
            "hetsched_compute_seconds",
            "Engine compute time per computed job.",
            "",
            &self.compute,
        );
        let per_alg = self.algorithm_histograms();
        if !per_alg.is_empty() {
            let name = "hetsched_algorithm_latency_seconds";
            let _ = writeln!(
                out,
                "# HELP {name} End-to-end latency of completed schedule requests, per algorithm."
            );
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (alg, hist) in &per_alg {
                render_histogram_series(
                    &mut out,
                    name,
                    &format!("algorithm=\"{}\"", escape_label(alg)),
                    hist,
                );
            }
        }
        out
    }
}

/// Escape a Prometheus label value (backslash, quote, newline).
pub fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Write one full histogram family (HELP + TYPE + series).
pub fn render_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    labels: &str,
    hist: &LatencyHistogram,
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    render_histogram_series(out, name, labels, hist);
}

/// Write the `_bucket`/`_sum`/`_count` series of one histogram, with
/// `le` bounds converted from microseconds to seconds.
pub fn render_histogram_series(
    out: &mut String,
    name: &str,
    labels: &str,
    hist: &LatencyHistogram,
) {
    let sep = if labels.is_empty() { "" } else { "," };
    let count = hist.count();
    for (le_us, cum) in hist.cumulative_buckets() {
        let le = le_us as f64 / 1e6;
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cum}");
    }
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {count}");
    let sum = hist.sum_us() as f64 / 1e6;
    if labels.is_empty() {
        let _ = writeln!(out, "{name}_sum {sum}");
        let _ = writeln!(out, "{name}_count {count}");
    } else {
        let _ = writeln!(out, "{name}_sum{{{labels}}} {sum}");
        let _ = writeln!(out, "{name}_count{{{labels}}} {count}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_upper_inclusive() {
        // bucket 0 is [0, 1]; bucket i is (2^(i-1), 2^i]
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 0);
        assert_eq!(LatencyHistogram::bucket_of(2), 1);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 2);
        assert_eq!(LatencyHistogram::bucket_of(5), 3);
        // the boundary cases that used to misclassify: exact powers of two
        // belong to the bucket whose inclusive upper bound they equal
        for i in 1..=62usize {
            let v = 1u64 << i;
            assert_eq!(LatencyHistogram::bucket_of(v), i, "2^{i}");
            assert_eq!(LatencyHistogram::bucket_of(v + 1), i + 1, "2^{i}+1");
        }
        assert_eq!(LatencyHistogram::bucket_of(1024), 10);
    }

    #[test]
    fn boundary_spike_quantiles_never_exceed_true_value() {
        // Every sample exactly 1024µs: the old scheme put them in
        // [1024, 2048) and reported sqrt(1024·2048) ≈ 1448 — above the
        // true maximum. Now every quantile is ≤ 1024 and p100 is exact.
        let h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(Duration::from_micros(1024));
        }
        for q in [0.5, 0.9, 0.99] {
            let est = h.quantile_us(q);
            assert!(est <= 1024.0 + 1e-9, "q={q} est={est}");
            assert!(est > 512.0, "q={q} est={est}");
        }
        assert!((h.quantile_us(1.0) - 1024.0).abs() < 1e-9);
        assert!((h.mean_us() - 1024.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_interpolates_within_bucket() {
        let h = LatencyHistogram::new();
        // 100 samples at 100µs → bucket (64, 128]
        for _ in 0..100 {
            h.record(Duration::from_micros(100));
        }
        let p50 = h.quantile_us(0.5);
        let p100 = h.quantile_us(1.0);
        assert!(p50 > 64.0 && p50 < 128.0, "p50 {p50}");
        assert!((p100 - 128.0).abs() < 1e-9, "p100 {p100}");
        // log-linear: p50 at frac 0.5 is the geometric midpoint 64·√2
        assert!((p50 - 64.0 * 2f64.sqrt()).abs() < 1e-9, "p50 {p50}");
    }

    #[test]
    fn quantiles_track_mass() {
        let h = LatencyHistogram::new();
        // 90 fast samples (~100us), 10 slow (~100ms).
        for _ in 0..90 {
            h.record(Duration::from_micros(100));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(100));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_us(0.50);
        let p99 = h.quantile_us(0.99);
        // p50 falls in the 100us bucket (64, 128], p99 in the 100ms bucket.
        assert!((64.0..=128.0).contains(&p50), "p50 {p50}");
        assert!(p99 > 64_000.0, "p99 {p99}");
        assert!(p50 < p99);
        let mean = h.mean_us();
        assert!((mean - (90.0 * 100.0 + 10.0 * 100_000.0) / 100.0).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_us(0.5), 0.0);
        assert_eq!(h.mean_us(), 0.0);
        assert!(h.cumulative_buckets().is_empty());
    }

    #[test]
    fn cumulative_buckets_match_prometheus_semantics() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_micros(1)); // bucket 0, le=1
        h.record(Duration::from_micros(2)); // bucket 1, le=2
        h.record(Duration::from_micros(100)); // bucket 7, le=128
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.len(), 8, "{buckets:?}");
        assert_eq!(buckets[0], (1, 1));
        assert_eq!(buckets[1], (2, 2));
        assert_eq!(buckets[6], (64, 2));
        assert_eq!(buckets[7], (128, 3));
        // cumulative counts are monotone
        for w in buckets.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn concurrent_recording() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        let mut joins = Vec::new();
        for t in 0..4 {
            let h = h.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    h.record(Duration::from_micros(t * 50 + i % 7));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
    }

    #[test]
    fn prometheus_rendering_contains_required_families() {
        let m = ServiceMetrics::new();
        ServiceMetrics::bump(&m.requests);
        ServiceMetrics::bump(&m.requests);
        ServiceMetrics::bump(&m.cache_hits);
        ServiceMetrics::bump(&m.instance_cache_misses);
        ServiceMetrics::bump(&m.wire_hits);
        ServiceMetrics::bump(&m.wire_misses);
        ServiceMetrics::bump(&m.wire_fallbacks);
        m.latency
            .record(RequestStatus::Success, Duration::from_micros(100));
        m.latency
            .record(RequestStatus::Shed, Duration::from_micros(5));
        m.op_outcomes.bump("schedule", RequestStatus::Success);
        m.op_outcomes.bump("patch", RequestStatus::Timeout);
        m.queue_wait.record(Duration::from_micros(10));
        m.compute.record(Duration::from_micros(90));
        m.deadline_slack.record(Duration::from_millis(40));
        m.record_algorithm("HEFT", Duration::from_micros(100));
        m.record_algorithm("ILS-D", Duration::from_millis(2));
        let text = m.render_prometheus(&GaugeSnapshot {
            queue_depth: 1,
            cache_entries: 3,
            instance_cache_entries: 2,
            workers: 4,
            queue_capacity: 64,
        });
        for family in [
            "hetsched_requests_total 2",
            "hetsched_cache_hits_total 1",
            "hetsched_cache_misses_total 1",
            "hetsched_queue_depth 1",
            "hetsched_cache_entries 3",
            "hetsched_instance_cache_hits_total 0",
            "hetsched_instance_cache_misses_total 1",
            "hetsched_instance_cache_entries 2",
            "hetsched_workers 4",
            "hetsched_wire_hits_total 1",
            "hetsched_wire_misses_total 1",
            "hetsched_wire_fallbacks_total 1",
            "# TYPE hetsched_request_latency_seconds histogram",
            "hetsched_request_latency_seconds_bucket{status=\"success\",le=\"+Inf\"} 1",
            "hetsched_request_latency_seconds_count{status=\"success\"} 1",
            "hetsched_request_latency_seconds_count{status=\"shed\"} 1",
            "hetsched_request_latency_seconds_count{status=\"timeout\"} 0",
            "hetsched_request_latency_seconds_count{status=\"error\"} 0",
            "# TYPE hetsched_op_outcomes_total counter",
            "hetsched_op_outcomes_total{op=\"schedule\",status=\"success\"} 1",
            "hetsched_op_outcomes_total{op=\"patch\",status=\"timeout\"} 1",
            "hetsched_op_outcomes_total{op=\"portfolio\",status=\"error\"} 0",
            "# TYPE hetsched_deadline_slack_seconds histogram",
            "# TYPE hetsched_queue_wait_seconds histogram",
            "hetsched_queue_wait_seconds_count 1",
            "# TYPE hetsched_compute_seconds histogram",
            "hetsched_compute_seconds_count 1",
            "# TYPE hetsched_algorithm_latency_seconds histogram",
            "hetsched_algorithm_latency_seconds_bucket{algorithm=\"HEFT\",le=\"+Inf\"} 1",
            "hetsched_algorithm_latency_seconds_count{algorithm=\"ILS-D\"} 1",
        ] {
            assert!(text.contains(family), "missing `{family}` in:\n{text}");
        }
        // every HELP has a TYPE and no line is empty mid-document
        for line in text.lines() {
            assert!(!line.is_empty());
        }
        // a histogram le bound is rendered in seconds
        assert!(
            text.contains("le=\"0.000128\""),
            "128µs bound in seconds:\n{text}"
        );
    }

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
