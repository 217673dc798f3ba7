//! Routing layer: request validation, memoization, deadlines, and
//! admission to the bounded worker queue.
//!
//! Every scheduling op takes one pipeline; the ops differ only in how they
//! validate and in how their answers combine.
//!
//! 1. **Plan.** The submitting thread (a TCP connection thread or the
//!    stdin loop) validates the request in the op's own order and turns it
//!    into **members** — a shared `ProblemInstance` from the instance
//!    cache, an algorithm and, for a repairable `patch`, a repair context
//!    — plus one **reducer**: `Single` (`schedule`, `patch`), `Ordered`
//!    (`schedule_many`) or `MinByMakespan` (`portfolio`). Control ops and
//!    validation errors are answered here.
//! 2. **Submit.** Each member's memo key is computed once. A repeat of an
//!    earlier member answers from it, a memo hit answers at once, and the
//!    rest go onto a bounded crossbeam channel: a `Single` request on a
//!    full queue answers `busy` right away, a fan-out blocks until its
//!    deadline while the workers drain its burst.
//! 3. **Compute.** A worker (`crate::worker`) runs the scheduler inside
//!    `catch_unwind`: a panicking algorithm yields `error` for its request
//!    and the daemon keeps serving.
//! 4. **Await.** The submitting thread waits for every member under one
//!    deadline and answers `timeout` if it passes; the workers still finish
//!    and populate the cache, so an identical retry can hit.
//! 5. **Reduce.** The reducer turns the answers into the reply body — the
//!    schedule, the batch in request order, or the portfolio table and its
//!    winner — and names the `timeout` message and `timing.cache` label.
//!
//! Shutdown is drain-then-exit: [`Service::shutdown`] closes the queue,
//! lets workers finish every queued job (replies included), then joins
//! them.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;

use hetsched_core::{algorithms, repairable, Delta, ProblemInstance, Scheduler};
use hetsched_dag::io::DagSpec;
use hetsched_dag::{Dag, Fingerprint};
use hetsched_platform::{System, SystemSpec};

use crate::cache::LruCache;
use crate::journal::Journal;
use crate::metrics::{GaugeSnapshot, RequestStatus, ServiceMetrics};
use crate::protocol::{
    bad_parent_message, parse_parent, HelloBody, JournalBody, PortfolioBody, PortfolioEntryBody,
    Request, RequestOptions, Response, ScheduleBody, ScheduleManyBody, ServeTiming, SpanRecord,
    StatsBody, TimingBody,
};
use crate::wire::{self, WireScan};
use crate::worker::{worker_loop, Job, JobCtx, RepairCtx};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads computing schedules.
    pub workers: usize,
    /// Bounded queue capacity; a full queue answers `busy`.
    pub queue_capacity: usize,
    /// Memoization cache capacity (entries).
    pub cache_capacity: usize,
    /// Problem-instance cache capacity (entries). Instances are keyed by
    /// the (DAG, system) content fingerprint only, so requests differing
    /// in algorithm or options share one instance — and its memoized rank
    /// vectors.
    pub instance_cache_capacity: usize,
    /// Deadline applied when a request carries no `deadline_ms`.
    pub default_deadline_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(2);
        ServeConfig {
            workers,
            queue_capacity: 64,
            cache_capacity: 256,
            instance_cache_capacity: 64,
            default_deadline_ms: 30_000,
        }
    }
}

/// One reply-memo entry: the computed body plus its reply line,
/// serialized **once** — lazily, on the first memo hit, so a one-shot
/// compute pays nothing for a repeat that never comes. Every later hit
/// clones the `Arc` and re-serializes nothing; the wire-level cache
/// shares the same bytes.
pub(crate) struct MemoEntry {
    /// The body as computed (`cached: false`); memo hits clone it and
    /// flip the flag when a typed response is needed (tracing, batch
    /// composition).
    pub(crate) body: ScheduleBody,
    /// `Response::schedule` of the body with `cached: true`, serialized —
    /// exactly the line a slow-path memo hit would produce. Empty until
    /// the first hit materializes it.
    pub(crate) line: OnceLock<Arc<[u8]>>,
}

/// One wire-cache entry: preserialized reply bytes valid only while the
/// epoch they were stored under is still current (see
/// [`Shared::note_eviction`]).
pub(crate) struct WireEntry {
    bytes: Arc<[u8]>,
    epoch: u64,
}

/// State shared between the routing layer and the worker pool.
pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    pub(crate) metrics: ServiceMetrics,
    pub(crate) cache: Mutex<LruCache<MemoEntry>>,
    pub(crate) instances: Mutex<LruCache<Arc<ProblemInstance<'static>>>>,
    /// Wire digest → preserialized reply bytes: the raw-byte hot-line
    /// cache consulted before any parsing. Write-through from the reply
    /// memo (only memo-hit-shaped replies are stored) and invalidated
    /// wholesale by epoch whenever either underlying cache evicts.
    pub(crate) wire: Mutex<LruCache<WireEntry>>,
    /// Invalidation epoch of the wire cache. Bumped on every memo-cache
    /// *or* instance-cache eviction: a memo eviction can flip a repeat
    /// from `cached: true` to a fresh compute, and an instance eviction
    /// can flip a `patch` from answered to `unknown_parent` — either way
    /// the preserialized bytes may no longer match the slow path, so all
    /// of them are retired at once. Evictions are rare at steady state
    /// (the working set fits or the memo is thrashing anyway), so the
    /// blunt epoch beats per-digest dependency tracking.
    pub(crate) wire_epoch: AtomicU64,
    pub(crate) shutting: AtomicBool,
    /// Bounded span journal for traced requests, drained by the
    /// `journal` op. Untraced requests never touch it.
    pub(crate) journal: Journal,
}

impl Shared {
    /// Register an eviction reported by [`LruCache::insert`] on the memo
    /// or instance cache: bump the wire epoch, invalidating every
    /// wire-cache entry stored under earlier epochs.
    pub(crate) fn note_eviction(&self, evicted: Option<u64>) {
        if evicted.is_some() {
            self.wire_epoch.fetch_add(1, Ordering::Release);
        }
    }
}

/// The resident scheduling service. Cheap to share behind an `Arc`; every
/// public method takes `&self`.
pub struct Service {
    shared: Arc<Shared>,
    tx: Mutex<Option<Sender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Content fingerprint of a scheduling request: DAG structure and weights,
/// full system (ETC + network), algorithm name, and the options that
/// influence the response body (see [`RequestOptions::fold_fingerprint`]
/// for which ones do).
pub fn request_fingerprint(
    dag: &Dag,
    sys: &System,
    algorithm: &str,
    options: &RequestOptions,
) -> u64 {
    let mut fp = Fingerprint::new();
    dag.fold_fingerprint(&mut fp);
    sys.fold_fingerprint(&mut fp);
    fp.tag("algorithm");
    fp.push_str(algorithm);
    options.fold_fingerprint(&mut fp);
    fp.finish()
}

impl Service {
    /// Start the worker pool and return the ready service.
    ///
    /// # Panics
    /// Panics if `workers` or `queue_capacity` or `cache_capacity` is zero.
    pub fn start(config: ServeConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        let (tx, rx) = channel::bounded::<Job>(config.queue_capacity);
        let shared = Arc::new(Shared {
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            instances: Mutex::new(LruCache::new(config.instance_cache_capacity)),
            wire: Mutex::new(LruCache::new(config.cache_capacity)),
            wire_epoch: AtomicU64::new(0),
            metrics: ServiceMetrics::new(),
            shutting: AtomicBool::new(false),
            journal: Journal::default(),
            config,
        });
        let workers = (0..shared.config.workers)
            .map(|i| {
                let rx = rx.clone();
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("hetsched-worker-{i}"))
                    .spawn(move || worker_loop(rx, shared))
                    .expect("spawning worker thread")
            })
            .collect();
        Service {
            shared,
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(workers),
        }
    }

    /// Service metrics (live counters).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.shared.metrics
    }

    /// Whether graceful shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting.load(Ordering::SeqCst)
    }

    /// Request graceful shutdown without blocking: new `schedule` requests
    /// are refused, in-flight ones keep running until [`Service::shutdown`]
    /// drains them.
    pub fn begin_shutdown(&self) {
        self.shared.shutting.store(true, Ordering::SeqCst);
    }

    /// Drain and stop: close the queue, let workers answer every queued
    /// job, join them. Idempotent; safe to call from any thread.
    pub fn shutdown(&self) {
        self.begin_shutdown();
        drop(self.tx.lock().take());
        let workers = std::mem::take(&mut *self.workers.lock());
        for w in workers {
            let _ = w.join();
        }
    }

    /// Handle one NDJSON request line, returning the response (never
    /// panics, never blocks past the request deadline).
    pub fn handle_line(&self, line: &str) -> Response {
        self.answer(line, Instant::now(), false).resp
    }

    /// Handle one NDJSON request line entirely in bytes: the transport's
    /// hot path. Repeat lines are answered from the wire cache without
    /// any JSON parsing, instance construction, or serialization — one
    /// digest probe returns the `Arc` of the exact bytes the full pipeline
    /// would have produced. Everything else takes the pipeline,
    /// preserialized where the memo allows, serialized on the spot
    /// otherwise, and a stable reply is written through to the wire cache.
    pub fn handle_line_bytes(&self, line: &str) -> Arc<[u8]> {
        self.handle_line_bytes_at(line, Instant::now())
    }

    /// [`Service::handle_line_bytes`] for a line that arrived at
    /// `arrival`: the request's deadline counts from there.
    pub(crate) fn handle_line_bytes_at(&self, line: &str, arrival: Instant) -> Arc<[u8]> {
        let store = match self.wire_lookup(line, arrival) {
            Ok(hit) => return hit,
            Err(store) => store,
        };
        let bytes = self.answer(line, arrival, true).into_bytes();
        if let Some((digest, epoch)) = store {
            self.wire_store(digest, epoch, &bytes);
        }
        bytes
    }

    /// Probe the wire cache. `Err` carries what a miss needs to write its
    /// reply through: the digest and the epoch captured *before* the
    /// pipeline runs (an eviction landing meanwhile makes the entry stale,
    /// never served) — or `None` if the scanner refused the line or
    /// shutdown has begun, when the pipeline refuses what a hit would
    /// answer.
    fn wire_lookup(&self, line: &str, arrival: Instant) -> Result<Arc<[u8]>, Option<(u64, u64)>> {
        let m = &self.shared.metrics;
        let scan = match wire::scan(line.as_bytes()) {
            Some(scan) if !self.is_shutting_down() => scan,
            _ => {
                ServiceMetrics::bump(&m.wire_fallbacks);
                return Err(None);
            }
        };
        let epoch = self.shared.wire_epoch.load(Ordering::Acquire);
        let hit = self
            .shared
            .wire
            .lock()
            .get(scan.digest)
            .filter(|e| e.epoch == epoch)
            .map(|e| e.bytes.clone());
        match hit {
            Some(bytes) => {
                self.record_wire_hit(&scan, arrival);
                Ok(bytes)
            }
            None => {
                ServiceMetrics::bump(&m.wire_misses);
                Err(Some((scan.digest, epoch)))
            }
        }
    }

    /// Write a reply through to the wire cache under the digest and epoch
    /// [`Service::wire_lookup`] captured, if the reply is stable.
    fn wire_store(&self, digest: u64, epoch: u64, bytes: &Arc<[u8]>) {
        if wire::reply_stable(bytes) {
            let entry = WireEntry {
                bytes: bytes.clone(),
                epoch,
            };
            self.shared.wire.lock().insert(digest, entry);
        }
    }

    /// Account one wire-cache hit: it is a request, a cache hit, and a
    /// success, with deadline slack measured from the scanner's raw
    /// capture. The per-algorithm histogram is deliberately skipped —
    /// knowing the algorithm would require the parse the fast path
    /// exists to avoid.
    fn record_wire_hit(&self, scan: &WireScan, arrival: Instant) {
        let m = &self.shared.metrics;
        ServiceMetrics::bump(&m.requests);
        ServiceMetrics::bump(&m.cache_hits);
        ServiceMetrics::bump(&m.wire_hits);
        let op = scan.op.as_str();
        self.record_outcome(op, scan.deadline_ms, arrival, RequestStatus::Success);
    }

    /// Parse one line and answer it: control ops and validation errors
    /// straight from [`Service::plan`], scheduling work through
    /// [`Service::run`]. Every scheduling op's outcome is recorded for
    /// SLO accounting.
    fn answer(&self, line: &str, arrival: Instant, want_bytes: bool) -> Reply {
        let req = match Request::parse(line) {
            Ok(req) => req,
            Err(e) => return Reply::typed(self.reject(format!("bad request: {e}"))),
        };
        let meta = LineMeta {
            arrival,
            parse_us: arrival.elapsed().as_micros() as u64,
        };
        let (op, deadline_ms) = (req.op_name(), req.options().map(|o| o.deadline_ms));
        let reply = match self.plan(req) {
            Ok(plan) => self.run(plan, meta, want_bytes),
            Err(resp) => Reply::typed(resp),
        };
        if let (Some(deadline_ms), Some(status)) = (deadline_ms, reply.status()) {
            self.record_outcome(op, deadline_ms, arrival, status);
        }
        reply
    }

    /// Validate a request and lay out its work, keeping each op's own
    /// validation order. `Err` is an immediate answer: a control op's
    /// reply, a refusal during shutdown, or a validation error.
    #[allow(clippy::result_large_err)] // the Err is the wire `Response`; see `protocol::Response`
    fn plan(&self, req: Request) -> Result<Plan, Response> {
        let (members, reduce, options) = match req {
            Request::Hello => return Err(Response::hello(self.hello_body())),
            Request::Stats => return Err(Response::stats(self.stats_body())),
            Request::Metrics => return Err(Response::metrics(self.metrics_text())),
            Request::Journal => {
                return Err(Response::journal(JournalBody {
                    source: "shard".to_string(),
                    spans: self.shared.journal.drain(),
                }))
            }
            Request::Shutdown => {
                self.begin_shutdown();
                return Err(Response::ShuttingDown);
            }
            _ if self.is_shutting_down() => return Err(Response::ShuttingDown),
            Request::Schedule {
                dag,
                system,
                algorithm,
                options,
            } => {
                let (key, dag, sys) = self.build_problem(dag, system)?;
                let alg = self.scheduler(&algorithm)?;
                let inst = self.instance_for(key, dag, sys);
                (
                    vec![Member::new(inst, algorithm, alg)],
                    Reduce::Single,
                    options,
                )
            }
            Request::Patch {
                parent,
                algorithm,
                deltas,
                options,
            } => {
                let member = self.patch_member(&parent, algorithm, &deltas, &options)?;
                (vec![member], Reduce::Single, options)
            }
            Request::Portfolio {
                dag,
                system,
                algorithms: names,
                options,
            } => {
                let names = if names.is_empty() {
                    algorithms::known_names()
                        .iter()
                        .map(|s| s.to_string())
                        .collect()
                } else {
                    names
                };
                let algs = names
                    .iter()
                    .map(|name| self.scheduler(name))
                    .collect::<Result<Vec<_>, _>>()?;
                let (key, dag, sys) = self.build_problem(dag, system)?;
                let inst = self.instance_for(key, dag, sys);
                let members = names
                    .into_iter()
                    .zip(algs)
                    .map(|(algorithm, alg)| Member::new(inst.clone(), algorithm, alg))
                    .collect();
                (members, Reduce::MinByMakespan, options)
            }
            Request::ScheduleMany {
                instances,
                algorithm,
                options,
            } => {
                if instances.is_empty() {
                    return Err(self.reject("schedule_many requires at least one instance"));
                }
                let alg = self.scheduler(&algorithm)?;
                // Repeats of one problem share its instance and consult
                // the instance cache once.
                let mut seen: Vec<(u64, Arc<ProblemInstance<'static>>)> = Vec::new();
                let mut members = Vec::with_capacity(instances.len());
                for spec in instances {
                    let (key, dag, sys) = self.build_problem(spec.dag, spec.system)?;
                    let inst = match seen.iter().find(|(k, _)| *k == key) {
                        Some((_, inst)) => inst.clone(),
                        None => {
                            let inst = self.instance_for(key, dag, sys);
                            seen.push((key, inst.clone()));
                            inst
                        }
                    };
                    members.push(Member::new(inst, algorithm.clone(), alg.clone()));
                }
                (members, Reduce::Ordered, options)
            }
        };
        Ok(Plan {
            members,
            reduce,
            options,
        })
    }

    /// The one member of a `patch`: resolve `parent` through the instance
    /// cache, apply the deltas, and register the patched problem under
    /// its own content fingerprint so later patches can chain off it,
    /// exactly as a full request for the patched problem would have. The
    /// reply is what a `schedule` request for the patched problem would
    /// answer. For the EFT family the member carries a [`RepairCtx`], so
    /// the worker replays the parent's unaffected placements instead of
    /// recomputing them — bit-identical either way (the core repair
    /// contract).
    #[allow(clippy::result_large_err)] // the Err is the wire `Response`; see `protocol::Response`
    fn patch_member(
        &self,
        parent: &str,
        algorithm: String,
        deltas: &[Delta],
        options: &RequestOptions,
    ) -> Result<Member, Response> {
        let parent_key =
            parse_parent(parent).ok_or_else(|| self.reject(bad_parent_message(parent)))?;
        let Some(parent_inst) = self.shared.instances.lock().get(parent_key).cloned() else {
            return Err(self.reject(format!(
                "unknown_parent: no cached problem with fingerprint {parent} (never seen or \
                 evicted); re-send the full problem as a `schedule` request to re-seed the cache"
            )));
        };
        let alg = self.scheduler(&algorithm)?;
        let patched = parent_inst
            .apply_deltas(deltas)
            .map_err(|e| self.reject(format!("invalid delta: {e}")))?;
        let (inst, dirty) = (Arc::new(patched.instance.into_owned()), patched.dirty);
        ServiceMetrics::bump(&self.shared.metrics.patches);
        let evicted = self
            .shared
            .instances
            .lock()
            .insert(inst.fingerprint(), inst.clone());
        self.shared.note_eviction(evicted);

        // Repair wants the parent's schedule under the same algorithm and
        // options; when it is no longer memoized (or the algorithm is not
        // repair-capable) the worker simply computes from scratch. Traced
        // requests also compute fresh: a replayed prefix would truncate
        // the decision log the client asked for.
        let repair = repairable(&algorithm)
            .filter(|_| !options.trace)
            .and_then(|scheduler| {
                let parent_fp =
                    request_fingerprint(parent_inst.dag(), parent_inst.sys(), &algorithm, options);
                let parent_sched = self
                    .shared
                    .cache
                    .lock()
                    .get(parent_fp)
                    .map(|e| e.body.schedule.clone())?;
                Some(RepairCtx {
                    scheduler,
                    dirty,
                    parent_inst: parent_inst.clone(),
                    parent_sched,
                })
            });
        let mut member = Member::new(inst, algorithm, alg);
        member.repair = repair;
        Ok(member)
    }

    /// Run a plan: look each member up in the memo or submit it, await
    /// every member under one deadline, and hand the answers to the
    /// reducer.
    fn run(&self, plan: Plan, meta: LineMeta, want_bytes: bool) -> Reply {
        let Plan {
            members,
            reduce,
            options,
        } = plan;
        let m = &self.shared.metrics;
        let deadline = Duration::from_millis(
            options
                .deadline_ms
                .unwrap_or(self.shared.config.default_deadline_ms),
        );
        let single = reduce == Reduce::Single;
        // Admission follows from the reducer: a single request answers
        // `busy` at once when the queue is full, while a fan-out — whose
        // burst may legitimately exceed the queue capacity — blocks until
        // its deadline as the workers drain the queue.
        let block_until = (!single).then(|| meta.arrival + deadline);
        // Only an untraced single reply can be a memo line as is.
        let want_line = want_bytes && single && options.trace_ctx.is_none();
        let fail = |resp| Reply::typed(self.finalize_timing(resp, &options, meta, label("none")));

        let mut keys: Vec<u64> = Vec::with_capacity(members.len());
        let mut names: Vec<String> = Vec::with_capacity(members.len());
        let mut states = Vec::with_capacity(members.len());
        for member in members {
            let (inst, algorithm) = (&member.inst, &member.algorithm);
            let key = request_fingerprint(inst.dag(), inst.sys(), algorithm, &options);
            names.push(algorithm.clone());
            let state = match keys.iter().position(|&k| k == key) {
                Some(first) => State::Repeat(first),
                None => {
                    // Worker-side spans are recorded for single requests;
                    // a fan-out's trace is its root span.
                    let ctx = JobCtx::for_options(&options, meta.arrival).filter(|_| single);
                    match self.memo_or_submit(member, key, &options, ctx, block_until, want_line) {
                        Ok(state) => state,
                        Err(resp) => return fail(resp),
                    }
                }
            };
            keys.push(key);
            states.push(state);
        }

        // What a single member's traced reply reports: the worker's serve
        // timing when it computed, the memo's disposition otherwise.
        let mut serve = label("memo");
        let mut line = None;
        let mut bodies: Vec<ScheduleBody> = Vec::with_capacity(states.len());
        for (i, state) in states.into_iter().enumerate() {
            let body = match state {
                State::Repeat(first) => ScheduleBody {
                    cached: true,
                    ..bodies[first].clone()
                },
                State::Memo { body, line: memo } => {
                    line = memo;
                    *body
                }
                State::Pending(rx) => {
                    let remaining = deadline.saturating_sub(meta.arrival.elapsed());
                    match await_reply(&rx, remaining) {
                        Ok(Response::Ok {
                            schedule: Some(body),
                            timing,
                            ..
                        }) => {
                            if let Some(t) = timing.and_then(|t| t.serve) {
                                serve = t;
                            }
                            body
                        }
                        Ok(other) => return fail(other),
                        Err(channel::RecvTimeoutError::Timeout) => {
                            ServiceMetrics::bump(&m.timeouts);
                            return fail(reduce.timeout(deadline, i, &names[i]));
                        }
                        Err(channel::RecvTimeoutError::Disconnected) => {
                            // Workers always reply, even on panic; reaching
                            // this means the pool is gone mid-request
                            // (shutdown race).
                            ServiceMetrics::bump(&m.errors);
                            return fail(Response::error("worker pool shut down before replying"));
                        }
                    }
                }
            };
            bodies.push(body);
        }
        // A portfolio spans several algorithms, so it feeds no
        // per-algorithm histogram.
        if reduce != Reduce::MinByMakespan {
            m.record_algorithm(&names[0], meta.arrival.elapsed());
        }
        let (resp, cache) = reduce.reply(bodies);
        let serve = cache.map_or(serve, label);
        Reply {
            resp: self.finalize_timing(resp, &options, meta, serve),
            line,
        }
    }

    /// Record the end-of-request SLO accounting in one place: the
    /// status-labeled latency histogram, the per-op outcome counter, and —
    /// for deadlined requests that made it — the remaining deadline slack.
    fn record_outcome(
        &self,
        op: &str,
        deadline_ms: Option<u64>,
        started: Instant,
        status: RequestStatus,
    ) {
        let m = &self.shared.metrics;
        let elapsed = started.elapsed();
        m.latency.record(status, elapsed);
        m.op_outcomes.bump(op, status);
        if status == RequestStatus::Success {
            if let Some(d) = deadline_ms {
                m.deadline_slack
                    .record(Duration::from_millis(d).saturating_sub(elapsed));
            }
        }
    }

    /// Finish a traced request at this tier: push the root `request` (and
    /// `parse`) spans to the journal and attach the reply's `timing`
    /// block, completing `serve` — the worker's partial timing for a
    /// computed single request, else just the reducer's cache label.
    /// Untraced requests pass through untouched.
    fn finalize_timing(
        &self,
        resp: Response,
        options: &RequestOptions,
        meta: LineMeta,
        mut serve: ServeTiming,
    ) -> Response {
        let Some(ctx) = options.trace_ctx.as_ref() else {
            return resp;
        };
        serve.total_us = (meta.arrival.elapsed().as_micros() as u64).max(1);
        serve.parse_us = meta.parse_us;
        let span = |name: &str, dur_us, detail: &str| SpanRecord {
            trace_id: ctx.trace_id.clone(),
            name: name.to_string(),
            start_us: 0,
            dur_us,
            detail: detail.to_string(),
        };
        self.shared.journal.extend([
            span("parse", serve.parse_us, ""),
            span("request", serve.total_us, &serve.cache),
        ]);
        resp.with_timing(TimingBody {
            trace_id: ctx.trace_id.clone(),
            hops: ctx.hops.clone(),
            serve: Some(serve),
            gateway: None,
        })
    }

    /// Identification payload for the `hello` handshake.
    pub fn hello_body(&self) -> HelloBody {
        HelloBody {
            service: "hetsched-serve".to_string(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            workers: self.shared.config.workers,
            queue_capacity: self.shared.config.queue_capacity,
        }
    }

    /// Current counters as a stats payload.
    pub fn stats_body(&self) -> StatsBody {
        let m = &self.shared.metrics;
        StatsBody {
            requests: ServiceMetrics::read(&m.requests),
            cache_hits: ServiceMetrics::read(&m.cache_hits),
            computed: ServiceMetrics::read(&m.computed),
            errors: ServiceMetrics::read(&m.errors),
            panics: ServiceMetrics::read(&m.panics),
            timeouts: ServiceMetrics::read(&m.timeouts),
            busy_rejections: ServiceMetrics::read(&m.busy_rejections),
            connection_panics: ServiceMetrics::read(&m.connection_panics),
            cache_entries: self.shared.cache.lock().len(),
            instance_cache_hits: ServiceMetrics::read(&m.instance_cache_hits),
            instance_cache_misses: ServiceMetrics::read(&m.instance_cache_misses),
            instance_cache_entries: self.shared.instances.lock().len(),
            patches: ServiceMetrics::read(&m.patches),
            repairs: ServiceMetrics::read(&m.repairs),
            wire_hits: ServiceMetrics::read(&m.wire_hits),
            wire_misses: ServiceMetrics::read(&m.wire_misses),
            wire_fallbacks: ServiceMetrics::read(&m.wire_fallbacks),
            workers: self.shared.config.workers,
            queue_capacity: self.shared.config.queue_capacity,
            latency_samples: m.latency.success().count(),
            latency_p50_us: m.latency.success().quantile_us(0.50),
            latency_p99_us: m.latency.success().quantile_us(0.99),
            qwait_p50_us: m.queue_wait.quantile_us(0.50),
            qwait_p99_us: m.queue_wait.quantile_us(0.99),
            compute_p50_us: m.compute.quantile_us(0.50),
            compute_p99_us: m.compute.quantile_us(0.99),
        }
    }

    /// All metric families in Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        let queue_depth = self
            .tx
            .lock()
            .as_ref()
            .map(|tx| tx.len() as u64)
            .unwrap_or(0);
        let gauges = GaugeSnapshot {
            queue_depth,
            cache_entries: self.shared.cache.lock().len() as u64,
            instance_cache_entries: self.shared.instances.lock().len() as u64,
            workers: self.shared.config.workers as u64,
            queue_capacity: self.shared.config.queue_capacity as u64,
        };
        self.shared.metrics.render_prometheus(&gauges)
    }

    /// Count a validation failure and build its `error` reply.
    fn reject(&self, message: impl Into<String>) -> Response {
        ServiceMetrics::bump(&self.shared.metrics.errors);
        Response::error(message)
    }

    /// Build the `Dag` and `System` from their wire specs, reporting
    /// protocol errors uniformly, and key them for the instance cache.
    #[allow(clippy::result_large_err)] // the Err is the wire `Response`; see `protocol::Response`
    fn build_problem(
        &self,
        dag: DagSpec,
        system: SystemSpec,
    ) -> Result<(u64, Dag, System), Response> {
        let dag = dag
            .build()
            .map_err(|e| self.reject(format!("invalid dag: {e}")))?;
        let sys = system
            .build(&dag)
            .map_err(|e| self.reject(format!("invalid system: {e}")))?;
        let key = ProblemInstance::content_fingerprint(&dag, &sys);
        Ok((key, dag, sys))
    }

    /// The registered scheduler called `name`.
    #[allow(clippy::result_large_err)] // the Err is the wire `Response`; see `protocol::Response`
    fn scheduler(&self, name: &str) -> Result<Arc<dyn Scheduler + Send + Sync>, Response> {
        algorithms::by_name(name).map(Arc::from).ok_or_else(|| {
            self.reject(format!(
                "unknown algorithm `{name}` (known: {})",
                algorithms::known_names().join(", ")
            ))
        })
    }

    /// Fetch the shared [`ProblemInstance`] for `(dag, sys)` — content key
    /// `key` — from the instance cache, building and inserting it on a
    /// miss. The key is the (DAG, system) content fingerprint alone —
    /// algorithm and options are deliberately excluded, so a portfolio's
    /// members and repeat requests with different algorithms all share
    /// one instance and its memoized rank vectors.
    fn instance_for(&self, key: u64, dag: Dag, sys: System) -> Arc<ProblemInstance<'static>> {
        let m = &self.shared.metrics;
        if let Some(inst) = self.shared.instances.lock().get(key) {
            ServiceMetrics::bump(&m.instance_cache_hits);
            return inst.clone();
        }
        // Build outside the lock: construction clones nothing (it takes
        // the arenas by value) but hashing large DAGs under the lock would
        // stall concurrent lookups.
        let inst = Arc::new(ProblemInstance::new(dag, sys));
        ServiceMetrics::bump(&m.instance_cache_misses);
        let evicted = self.shared.instances.lock().insert(key, inst.clone());
        self.shared.note_eviction(evicted);
        inst
    }

    /// Enqueue one scheduling job. With `block_until: None` a full queue
    /// answers `busy` immediately. With a deadline, the send blocks until
    /// a slot frees or the deadline passes — for a fan-out, whose members
    /// arrive as one burst that may legitimately exceed the queue
    /// capacity; the workers drain the queue while the submitter waits.
    #[allow(clippy::result_large_err)] // the Err is the wire `Response`; see `protocol::Response`
    fn enqueue(&self, job: Job, block_until: Option<Instant>) -> Result<(), Response> {
        let guard = self.tx.lock();
        let Some(tx) = guard.as_ref() else {
            return Err(Response::ShuttingDown);
        };
        // `Err(true)`: the queue stayed full; `Err(false)`: the pool is gone.
        let sent = match block_until {
            None => tx.try_send(job).map_err(|e| e.is_full()),
            Some(at) => tx
                .send_timeout(job, at.saturating_duration_since(Instant::now()))
                .map_err(|e| matches!(e, channel::SendTimeoutError::Timeout(_))),
        };
        match sent {
            Ok(()) => Ok(()),
            Err(false) => Err(Response::ShuttingDown),
            Err(true) => {
                ServiceMetrics::bump(&self.shared.metrics.busy_rejections);
                let pending = self.shared.config.queue_capacity;
                let message = format!("request queue full ({pending} pending)");
                Err(Response::Busy { message })
            }
        }
    }

    /// Answer one member from the reply memo, or enqueue it and hand back
    /// the reply channel to wait on. `want_line` asks a memo hit for its
    /// preserialized line alongside the body; only an untraced single
    /// request on the bytes path sets it, so every other caller skips the
    /// serialization.
    #[allow(clippy::result_large_err)] // the Err is the wire `Response`; see `protocol::Response`
    fn memo_or_submit(
        &self,
        member: Member,
        key: u64,
        options: &RequestOptions,
        ctx: Option<JobCtx>,
        block_until: Option<Instant>,
        want_line: bool,
    ) -> Result<State, Response> {
        let m = &self.shared.metrics;
        ServiceMetrics::bump(&m.requests);
        if let Some(hit) = self.shared.cache.lock().get(key) {
            let mut body = hit.body.clone();
            body.cached = true;
            // The first bytes-path hit serializes the memo line (under
            // the cache lock — once per entry, and contenders would
            // otherwise each serialize it themselves); every later hit
            // clones the Arc.
            let line = want_line.then(|| {
                hit.line
                    .get_or_init(|| {
                        let mut memo = hit.body.clone();
                        memo.cached = true;
                        Arc::from(Response::schedule(memo).to_line().into_bytes())
                    })
                    .clone()
            });
            ServiceMetrics::bump(&m.cache_hits);
            return Ok(State::Memo {
                body: Box::new(body),
                line,
            });
        }
        let (reply_tx, reply_rx) = channel::bounded::<Response>(1);
        self.enqueue(
            Job {
                inst: member.inst,
                algorithm: member.algorithm,
                alg: member.alg,
                options: options.clone(),
                fingerprint: key,
                repair: member.repair,
                enqueued: Instant::now(),
                ctx,
                reply: reply_tx,
            },
            block_until,
        )?;
        Ok(State::Pending(reply_rx))
    }
}

/// Per-line request metadata stamped at the entry point: when the line
/// arrived and how long it took to parse.
#[derive(Clone, Copy)]
struct LineMeta {
    arrival: Instant,
    parse_us: u64,
}

/// A validated scheduling request: the members to compute and how their
/// answers combine into one reply.
struct Plan {
    members: Vec<Member>,
    reduce: Reduce,
    options: RequestOptions,
}

/// One unit of scheduling work: a shared problem instance, the algorithm
/// to run on it, and — for a `patch` whose parent schedule is memoized
/// under a repair-capable algorithm — the context to repair instead of
/// recomputing.
struct Member {
    inst: Arc<ProblemInstance<'static>>,
    algorithm: String,
    alg: Arc<dyn Scheduler + Send + Sync>,
    repair: Option<RepairCtx>,
}

impl Member {
    fn new(
        inst: Arc<ProblemInstance<'static>>,
        algorithm: String,
        alg: Arc<dyn Scheduler + Send + Sync>,
    ) -> Member {
        let repair = None;
        Member {
            inst,
            algorithm,
            alg,
            repair,
        }
    }
}

/// How a plan's answers combine into one reply.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Reduce {
    /// `schedule` and `patch`: the one member's answer is the reply.
    Single,
    /// `schedule_many`: every answer, in request order.
    Ordered,
    /// `portfolio`: the per-member makespan table plus the winner — the
    /// minimum makespan under total order, ties to the earliest member.
    MinByMakespan,
}

impl Reduce {
    /// The `timeout` reply when member `i`, running `algorithm`, misses
    /// the deadline.
    fn timeout(self, deadline: Duration, i: usize, algorithm: &str) -> Response {
        let ms = deadline.as_millis();
        let message = match self {
            Reduce::Single => format!(
                "deadline of {ms} ms exceeded; the schedule keeps computing and will be cached"
            ),
            Reduce::Ordered => format!(
                "deadline of {ms} ms exceeded waiting for batch entry {i}; members keep computing and will be cached"
            ),
            Reduce::MinByMakespan => format!(
                "deadline of {ms} ms exceeded waiting for `{algorithm}`; members keep computing and will be cached"
            ),
        };
        Response::Timeout { message }
    }

    /// Combine the answer bodies — one per member, in member order —
    /// into the reply, plus the `timing.cache` label of a traced reply:
    /// `None` for a single request, whose reply reports its member's own
    /// disposition.
    fn reply(self, mut bodies: Vec<ScheduleBody>) -> (Response, Option<&'static str>) {
        match self {
            Reduce::Single => (Response::schedule(bodies.swap_remove(0)), None),
            Reduce::Ordered => {
                let cached = bodies.iter().filter(|b| b.cached).count();
                let computed = bodies.len() - cached;
                let body = ScheduleManyBody {
                    entries: bodies,
                    cached,
                    computed,
                };
                (Response::many(body), Some("many"))
            }
            Reduce::MinByMakespan => {
                // `min_by` keeps the first of equal minima: ties go to the
                // earliest member.
                let best = (0..bodies.len())
                    .min_by(|&a, &b| bodies[a].makespan.total_cmp(&bodies[b].makespan))
                    .expect("at least one member");
                let entries = bodies
                    .iter()
                    .map(|b| PortfolioEntryBody {
                        algorithm: b.algorithm.clone(),
                        makespan: b.makespan,
                        cached: b.cached,
                    })
                    .collect();
                let schedule = bodies.swap_remove(best);
                let body = PortfolioBody {
                    entries,
                    best,
                    schedule,
                };
                (Response::portfolio(body), Some("portfolio"))
            }
        }
    }
}

/// A member after the memo lookup.
enum State {
    /// Answered from the reply memo: the body plus — only when the caller
    /// asked for it — the preserialized memo line.
    Memo {
        /// Boxed so the in-flight variant stays small.
        body: Box<ScheduleBody>,
        line: Option<Arc<[u8]>>,
    },
    /// In flight on the worker pool.
    Pending(Receiver<Response>),
    /// A repeat of an earlier member of the same request, answered from
    /// that member.
    Repeat(usize),
}

/// Serve timing that carries nothing but a cache disposition.
fn label(cache: &str) -> ServeTiming {
    ServeTiming {
        cache: cache.to_string(),
        ..ServeTiming::default()
    }
}

/// One finished request: the typed response, plus — for an untraced
/// single memo hit on the bytes path — the memo's preserialized line,
/// which is exactly `resp` serialized.
struct Reply {
    resp: Response,
    line: Option<Arc<[u8]>>,
}

impl Reply {
    fn typed(resp: Response) -> Reply {
        Reply { resp, line: None }
    }

    /// The outcome class for SLO accounting; `None` for responses that
    /// are not accounted (`shutting_down`).
    fn status(&self) -> Option<RequestStatus> {
        match &self.resp {
            Response::Ok { .. } => Some(RequestStatus::Success),
            Response::Busy { .. } | Response::Shed { .. } => Some(RequestStatus::Shed),
            Response::Timeout { .. } => Some(RequestStatus::Timeout),
            Response::Error { .. } => Some(RequestStatus::Error),
            Response::ShuttingDown => None,
        }
    }

    /// The reply as wire bytes (no trailing newline): the memo line when
    /// there is one, else `resp` serialized on the spot.
    fn into_bytes(self) -> Arc<[u8]> {
        self.line
            .unwrap_or_else(|| Arc::from(self.resp.to_line().into_bytes()))
    }
}

/// Wait for the worker's reply until `remaining` elapses, then make one
/// last non-blocking check before giving up: a reply that slipped into the
/// channel between the timeout firing and this thread reporting it means
/// the schedule *was* computed inside the client's window, and answering
/// `timeout` would discard a finished result for no reason.
fn await_reply(
    reply_rx: &Receiver<Response>,
    remaining: Duration,
) -> Result<Response, channel::RecvTimeoutError> {
    match reply_rx.recv_timeout(remaining) {
        Err(channel::RecvTimeoutError::Timeout) => match reply_rx.try_recv() {
            Ok(resp) => Ok(resp),
            Err(channel::TryRecvError::Empty) => Err(channel::RecvTimeoutError::Timeout),
            Err(channel::TryRecvError::Disconnected) => {
                Err(channel::RecvTimeoutError::Disconnected)
            }
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_request(n_tasks: usize, algorithm: &str, options: &str) -> String {
        let tasks: Vec<String> = (0..n_tasks)
            .map(|i| format!("{{\"weight\":{}}}", i + 1))
            .collect();
        let edges: Vec<String> = (1..n_tasks)
            .map(|i| format!("{{\"src\":0,\"dst\":{i},\"data\":2.0}}"))
            .collect();
        format!(
            "{{\"op\":\"schedule\",\"dag\":{{\"tasks\":[{}],\"edges\":[{}]}},\
             \"system\":{{\"processors\":{{\"kind\":\"homogeneous\",\"count\":3}},\
             \"network\":{{\"topology\":\"fully_connected\",\"bandwidth\":1.0}}}},\
             \"algorithm\":\"{algorithm}\",\"options\":{options}}}",
            tasks.join(","),
            edges.join(","),
        )
    }

    fn test_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 4,
            cache_capacity: 8,
            instance_cache_capacity: 4,
            default_deadline_ms: 10_000,
        }
    }

    #[test]
    fn schedule_roundtrip_and_cache_hit() {
        let svc = Service::start(test_config());
        let line = small_request(5, "HEFT", "{\"simulate\":true}");

        let first = svc.handle_line(&line);
        let Response::Ok {
            schedule: Some(body),
            ..
        } = &first
        else {
            panic!("unexpected response: {first:?}");
        };
        assert!(!body.cached);
        assert!(body.makespan > 0.0);
        assert!(body.slr >= 1.0 - 1e-9);
        let sim = body.sim.as_ref().expect("simulate requested");
        assert!(sim.matches_prediction, "zero-noise replay must agree");

        let second = svc.handle_line(&line);
        let Response::Ok {
            schedule: Some(body2),
            ..
        } = &second
        else {
            panic!("unexpected response: {second:?}");
        };
        assert!(body2.cached);
        assert_eq!(body2.makespan, body.makespan);
        assert_eq!(body2.fingerprint, body.fingerprint);

        let stats = svc.stats_body();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.computed, 1);
        assert_eq!(stats.cache_entries, 1);
        assert_eq!(stats.latency_samples, 2);
        svc.shutdown();
    }

    #[test]
    fn different_algorithm_misses_cache_but_shares_instance() {
        let svc = Service::start(test_config());
        svc.handle_line(&small_request(5, "HEFT", "{}"));
        svc.handle_line(&small_request(5, "CPOP", "{}"));
        let stats = svc.stats_body();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.computed, 2);
        assert_eq!(stats.cache_entries, 2);
        // The reply memo missed, but the second request reused the first
        // request's ProblemInstance: same (dag, system) content key.
        assert_eq!(stats.instance_cache_misses, 1);
        assert_eq!(stats.instance_cache_hits, 1);
        assert_eq!(stats.instance_cache_entries, 1);
        svc.shutdown();
    }

    fn portfolio_request(n_tasks: usize, algorithms: &[&str], options: &str) -> String {
        let tasks: Vec<String> = (0..n_tasks)
            .map(|i| format!("{{\"weight\":{}}}", i + 1))
            .collect();
        let edges: Vec<String> = (1..n_tasks)
            .map(|i| format!("{{\"src\":0,\"dst\":{i},\"data\":2.0}}"))
            .collect();
        let algs: Vec<String> = algorithms.iter().map(|a| format!("\"{a}\"")).collect();
        format!(
            "{{\"op\":\"portfolio\",\"dag\":{{\"tasks\":[{}],\"edges\":[{}]}},\
             \"system\":{{\"processors\":{{\"kind\":\"homogeneous\",\"count\":3}},\
             \"network\":{{\"topology\":\"fully_connected\",\"bandwidth\":1.0}}}},\
             \"algorithms\":[{}],\"options\":{options}}}",
            tasks.join(","),
            edges.join(","),
            algs.join(","),
        )
    }

    #[test]
    fn portfolio_returns_per_member_table_and_minimum() {
        let svc = Service::start(test_config());
        let algs = ["HEFT", "CPOP", "PETS", "ILS-H"];
        let resp = svc.handle_line(&portfolio_request(6, &algs, "{}"));
        let Response::Ok {
            portfolio: Some(body),
            ..
        } = &resp
        else {
            panic!("unexpected response: {resp:?}");
        };
        assert_eq!(body.entries.len(), algs.len());
        // entries come back in request order and the winner is the min
        let mut min = f64::INFINITY;
        for (entry, name) in body.entries.iter().zip(&algs) {
            assert_eq!(&entry.algorithm, name);
            min = min.min(entry.makespan);
        }
        assert_eq!(body.entries[body.best].makespan, min);
        assert_eq!(body.schedule.makespan, min);
        assert_eq!(body.schedule.algorithm, body.entries[body.best].algorithm);
        // one instance, built once, shared by all members
        let stats = svc.stats_body();
        assert_eq!(stats.instance_cache_misses, 1);
        assert_eq!(stats.computed, algs.len() as u64);

        // Portfolio members memoize individually: a follow-up single
        // request for any member is a pure cache hit.
        let follow = svc.handle_line(&small_request(6, "CPOP", "{}"));
        let Response::Ok {
            schedule: Some(follow),
            ..
        } = &follow
        else {
            panic!("follow-up: {follow:?}");
        };
        assert!(follow.cached);
        svc.shutdown();
    }

    #[test]
    fn portfolio_answers_a_repeated_member_from_its_first_occurrence() {
        let svc = Service::start(test_config());
        let resp = svc.handle_line(&portfolio_request(6, &["HEFT", "CPOP", "HEFT"], "{}"));
        let Response::Ok {
            portfolio: Some(body),
            ..
        } = &resp
        else {
            panic!("unexpected response: {resp:?}");
        };
        let cached: Vec<bool> = body.entries.iter().map(|e| e.cached).collect();
        assert_eq!(cached, [false, false, true]);
        assert_eq!(body.entries[2].makespan, body.entries[0].makespan);
        // The repeat was never submitted: two members, two computations.
        let stats = svc.stats_body();
        assert_eq!((stats.requests, stats.computed), (2, 2));
        svc.shutdown();
    }

    #[test]
    fn portfolio_rejects_unknown_member() {
        let svc = Service::start(test_config());
        let resp = svc.handle_line(&portfolio_request(4, &["HEFT", "NO-SUCH"], "{}"));
        let Response::Error { message } = &resp else {
            panic!("expected error, got {resp:?}");
        };
        assert!(message.contains("NO-SUCH"), "message: {message}");
        svc.shutdown();
    }

    #[test]
    fn empty_portfolio_runs_every_registered_algorithm() {
        let svc = Service::start(test_config());
        let resp = svc.handle_line(&portfolio_request(4, &[], "{}"));
        let Response::Ok {
            portfolio: Some(body),
            ..
        } = &resp
        else {
            panic!("unexpected response: {resp:?}");
        };
        assert_eq!(
            body.entries.len(),
            hetsched_core::algorithms::known_names().len()
        );
        svc.shutdown();
    }

    /// A `schedule_many` line whose instances are star DAGs of the given
    /// sizes (distinct sizes → distinct fingerprints; repeated sizes →
    /// within-batch duplicates).
    fn many_request(sizes: &[usize], algorithm: &str, options: &str) -> String {
        let instances: Vec<String> = sizes
            .iter()
            .map(|&n| {
                let tasks: Vec<String> = (0..n)
                    .map(|i| format!("{{\"weight\":{}}}", i + 1))
                    .collect();
                let edges: Vec<String> = (1..n)
                    .map(|i| format!("{{\"src\":0,\"dst\":{i},\"data\":2.0}}"))
                    .collect();
                format!(
                    "{{\"dag\":{{\"tasks\":[{}],\"edges\":[{}]}},\
                     \"system\":{{\"processors\":{{\"kind\":\"homogeneous\",\"count\":3}},\
                     \"network\":{{\"topology\":\"fully_connected\",\"bandwidth\":1.0}}}}}}",
                    tasks.join(","),
                    edges.join(","),
                )
            })
            .collect();
        format!(
            "{{\"op\":\"schedule_many\",\"instances\":[{}],\
             \"algorithm\":\"{algorithm}\",\"options\":{options}}}",
            instances.join(","),
        )
    }

    #[test]
    fn schedule_many_answers_in_request_order_and_matches_singles() {
        let svc = Service::start(test_config());
        let sizes = [4usize, 6, 5];
        // standalone answers first, so the batch below is all memo hits —
        // and must still come back in *request* order, not cache order
        let singles: Vec<f64> = sizes
            .iter()
            .map(|&n| {
                let resp = svc.handle_line(&small_request(n, "HEFT", "{}"));
                schedule_body(&resp).makespan
            })
            .collect();
        let resp = svc.handle_line(&many_request(&sizes, "HEFT", "{}"));
        let Response::Ok {
            many: Some(body), ..
        } = &resp
        else {
            panic!("unexpected response: {resp:?}");
        };
        assert_eq!(body.entries.len(), sizes.len());
        assert_eq!(body.cached, sizes.len());
        assert_eq!(body.computed, 0);
        for (entry, &makespan) in body.entries.iter().zip(&singles) {
            assert!(entry.cached);
            assert_eq!(entry.makespan, makespan);
        }
        svc.shutdown();
    }

    #[test]
    fn schedule_many_computes_fresh_and_seeds_the_memo() {
        let svc = Service::start(test_config());
        let resp = svc.handle_line(&many_request(&[4, 6], "HEFT", "{}"));
        let Response::Ok {
            many: Some(body), ..
        } = &resp
        else {
            panic!("unexpected response: {resp:?}");
        };
        assert_eq!((body.cached, body.computed), (0, 2));
        assert!(body.entries.iter().all(|e| !e.cached));
        // a later standalone request for a batch member is a memo hit
        let single = svc.handle_line(&small_request(6, "HEFT", "{}"));
        let sb = schedule_body(&single);
        assert!(sb.cached);
        assert_eq!(sb.makespan, body.entries[1].makespan);
        svc.shutdown();
    }

    #[test]
    fn schedule_many_dedups_repeats_within_the_batch() {
        let svc = Service::start(test_config());
        let resp = svc.handle_line(&many_request(&[5, 5, 7], "HEFT", "{}"));
        let Response::Ok {
            many: Some(body), ..
        } = &resp
        else {
            panic!("unexpected response: {resp:?}");
        };
        assert_eq!(body.entries.len(), 3);
        // the repeat is answered single-flight from the first occurrence
        assert_eq!((body.cached, body.computed), (1, 2));
        assert!(!body.entries[0].cached);
        assert!(body.entries[1].cached);
        assert_eq!(body.entries[1].makespan, body.entries[0].makespan);
        assert_eq!(body.entries[1].fingerprint, body.entries[0].fingerprint);
        // only two jobs were actually computed
        assert_eq!(svc.stats_body().computed, 2);
        svc.shutdown();
    }

    #[test]
    fn schedule_many_rejects_empty_batch_and_unknown_algorithm() {
        let svc = Service::start(test_config());
        let unknown_alg = many_request(&[4], "NO-SUCH-ALG", "{}");
        for line in [
            "{\"op\":\"schedule_many\",\"instances\":[],\"algorithm\":\"HEFT\"}",
            unknown_alg.as_str(),
        ] {
            let resp = svc.handle_line(line);
            assert!(
                matches!(resp, Response::Error { .. }),
                "line {line} gave {resp:?}"
            );
        }
        svc.shutdown();
    }

    #[test]
    fn bad_inputs_are_errors_not_panics() {
        let svc = Service::start(test_config());
        for line in [
            "not json at all",
            r#"{"op":"schedule","dag":{"tasks":[]},"system":{"processors":{"kind":"homogeneous","count":1},"network":{"topology":"fully_connected","bandwidth":1.0}},"algorithm":"HEFT"}"#,
            &small_request(3, "NO-SUCH-ALG", "{}"),
        ] {
            let resp = svc.handle_line(line);
            assert!(
                matches!(resp, Response::Error { .. }),
                "line {line} gave {resp:?}"
            );
        }
        assert_eq!(svc.stats_body().errors, 3);
        svc.shutdown();
    }

    fn patch_request(parent: &str, algorithm: &str, deltas: &str, options: &str) -> String {
        format!(
            "{{\"op\":\"patch\",\"parent\":\"{parent}\",\"algorithm\":\"{algorithm}\",\
             \"deltas\":{deltas},\"options\":{options}}}"
        )
    }

    fn schedule_body(resp: &Response) -> &ScheduleBody {
        let Response::Ok {
            schedule: Some(body),
            ..
        } = resp
        else {
            panic!("expected a schedule response, got {resp:?}");
        };
        body
    }

    #[test]
    fn patch_repairs_and_aliases_the_equivalent_fresh_request() {
        let svc = Service::start(test_config());
        let parent_body = {
            let resp = svc.handle_line(&small_request(5, "HEFT", "{}"));
            schedule_body(&resp).clone()
        };
        assert_eq!(parent_body.problem.len(), 16, "problem key is 16 hex");

        // An edge-data delta: only edge (0, 4) grows, so it has an exact
        // full-request equivalent (a `task_weight` delta would not — the
        // homogeneous system spec derives ETC from weights, while the
        // delta deliberately leaves the ETC alone).
        let deltas = r#"[{"kind":"edge_data","src":0,"dst":4,"data":7.5}]"#;
        let resp = svc.handle_line(&patch_request(&parent_body.problem, "HEFT", deltas, "{}"));
        let body = schedule_body(&resp).clone();
        assert!(!body.cached, "a patch is never the parent's reply");
        assert_ne!(body.problem, parent_body.problem);
        assert_ne!(body.fingerprint, parent_body.fingerprint);
        let repair = body
            .repair
            .as_ref()
            .expect("HEFT patch takes the repair path");
        assert!(!repair.fresh);
        assert_eq!(repair.replayed + repair.rescheduled, 5);

        // The equivalent full request on a *fresh* service computes from
        // scratch; the repaired schedule must match it bit for bit.
        let full = "{\"op\":\"schedule\",\"dag\":{\"tasks\":[{\"weight\":1},{\"weight\":2},\
             {\"weight\":3},{\"weight\":4},{\"weight\":5}],\"edges\":[\
             {\"src\":0,\"dst\":1,\"data\":2.0},{\"src\":0,\"dst\":2,\"data\":2.0},\
             {\"src\":0,\"dst\":3,\"data\":2.0},{\"src\":0,\"dst\":4,\"data\":7.5}]},\
             \"system\":{\"processors\":{\"kind\":\"homogeneous\",\"count\":3},\
             \"network\":{\"topology\":\"fully_connected\",\"bandwidth\":1.0}},\
             \"algorithm\":\"HEFT\",\"options\":{}}";
        let other = Service::start(test_config());
        let fresh = schedule_body(&other.handle_line(full)).clone();
        assert_eq!(fresh.fingerprint, body.fingerprint, "same request key");
        assert_eq!(fresh.problem, body.problem, "same problem key");
        assert_eq!(
            serde_json::to_string(&fresh.schedule).unwrap(),
            serde_json::to_string(&body.schedule).unwrap(),
            "repair must be bit-identical to from-scratch"
        );
        other.shutdown();

        // And on the original service the patch reply memoized under the
        // patched problem's request key, so the full request aliases it.
        let aliased = schedule_body(&svc.handle_line(full)).clone();
        assert!(aliased.cached);
        assert_eq!(aliased.fingerprint, body.fingerprint);

        let stats = svc.stats_body();
        assert_eq!(stats.patches, 1);
        assert_eq!(stats.repairs, 1);
        svc.shutdown();
    }

    #[test]
    fn patch_never_coalesces_with_its_parent_and_chains() {
        let svc = Service::start(test_config());
        let parent = {
            let resp = svc.handle_line(&small_request(4, "HEFT", "{}"));
            schedule_body(&resp).clone()
        };
        // An ETC delta slows task 1 on proc 0: a genuinely different
        // problem whose reply must be computed, not pulled from the
        // parent's memo slot.
        let deltas = r#"[{"kind":"etc_entry","task":1,"proc":0,"time":50.0}]"#;
        let resp = svc.handle_line(&patch_request(&parent.problem, "HEFT", deltas, "{}"));
        let child = schedule_body(&resp).clone();
        assert!(!child.cached);
        assert_ne!(child.problem, parent.problem);
        assert_ne!(child.fingerprint, parent.fingerprint);

        // The patched problem registered under its own key: chain off it.
        let deltas2 = r#"[{"kind":"edge_data","src":0,"dst":2,"data":7.5}]"#;
        let resp = svc.handle_line(&patch_request(&child.problem, "HEFT", deltas2, "{}"));
        let grand = schedule_body(&resp).clone();
        assert_ne!(grand.problem, child.problem);
        assert_eq!(svc.stats_body().patches, 2);

        // Re-sending the same patch line hits the reply memo.
        let resp = svc.handle_line(&patch_request(&parent.problem, "HEFT", deltas, "{}"));
        assert!(schedule_body(&resp).cached);
        svc.shutdown();
    }

    #[test]
    fn patch_without_a_memoized_parent_schedule_still_answers() {
        // The instance cache knows the parent but the reply memo does not
        // (different algorithm): no repair context, plain computation.
        let svc = Service::start(test_config());
        let parent = {
            let resp = svc.handle_line(&small_request(4, "CPOP", "{}"));
            schedule_body(&resp).clone()
        };
        let deltas = r#"[{"kind":"etc_entry","task":2,"proc":1,"time":30.0}]"#;
        // HEFT is repair-capable, but no HEFT parent schedule is cached.
        let resp = svc.handle_line(&patch_request(&parent.problem, "HEFT", deltas, "{}"));
        let body = schedule_body(&resp).clone();
        assert!(body.repair.is_none(), "no parent schedule, no repair");
        // CPOP is not repair-capable: patch works, computing from scratch.
        let resp = svc.handle_line(&patch_request(&parent.problem, "CPOP", deltas, "{}"));
        assert!(schedule_body(&resp).repair.is_none());
        assert_eq!(svc.stats_body().repairs, 0);
        svc.shutdown();
    }

    #[test]
    fn patch_unknown_parent_is_an_error_and_daemon_survives() {
        let svc = Service::start(test_config());
        for parent in ["0123456789abcdef", "not-hex", "abc"] {
            let resp = svc.handle_line(&patch_request(
                parent,
                "HEFT",
                r#"[{"kind":"task_weight","task":0,"weight":2.0}]"#,
                "{}",
            ));
            let Response::Error { message } = &resp else {
                panic!("expected error for parent `{parent}`, got {resp:?}");
            };
            assert!(
                message.starts_with("unknown_parent"),
                "parent `{parent}`: {message}"
            );
        }
        // Invalid deltas against a known parent are errors too.
        let parent = {
            let resp = svc.handle_line(&small_request(3, "HEFT", "{}"));
            schedule_body(&resp).clone()
        };
        let resp = svc.handle_line(&patch_request(
            &parent.problem,
            "HEFT",
            r#"[{"kind":"task_weight","task":99,"weight":2.0}]"#,
            "{}",
        ));
        let Response::Error { message } = &resp else {
            panic!("expected error, got {resp:?}");
        };
        assert!(message.starts_with("invalid delta"), "{message}");
        // The daemon keeps serving.
        let ok = svc.handle_line(&small_request(3, "HEFT", "{}"));
        assert!(schedule_body(&ok).cached);
        svc.shutdown();
    }

    #[test]
    fn evicted_parent_is_unknown() {
        // instance_cache_capacity is 4: five distinct problems evict the
        // first, after which a patch naming it must answer unknown_parent.
        let svc = Service::start(test_config());
        let parent = {
            let resp = svc.handle_line(&small_request(3, "HEFT", "{}"));
            schedule_body(&resp).clone()
        };
        for n in 4..8 {
            svc.handle_line(&small_request(n, "HEFT", "{}"));
        }
        let resp = svc.handle_line(&patch_request(
            &parent.problem,
            "HEFT",
            r#"[{"kind":"task_weight","task":0,"weight":2.0}]"#,
            "{}",
        ));
        let Response::Error { message } = &resp else {
            panic!("expected error, got {resp:?}");
        };
        assert!(message.starts_with("unknown_parent"), "{message}");
        svc.shutdown();
    }

    #[test]
    fn worker_panic_is_isolated() {
        let svc = Service::start(test_config());
        let resp = svc.handle_line(&small_request(4, "HEFT", "{\"debug_panic\":true}"));
        let Response::Error { message } = &resp else {
            panic!("expected error, got {resp:?}");
        };
        assert!(message.contains("panicked"), "message: {message}");
        // The daemon survives and still schedules.
        let ok = svc.handle_line(&small_request(4, "HEFT", "{}"));
        assert!(matches!(ok, Response::Ok { .. }), "got {ok:?}");
        let stats = svc.stats_body();
        assert_eq!(stats.panics, 1);
        svc.shutdown();
    }

    #[test]
    fn await_reply_claims_queued_reply_even_after_deadline() {
        // A reply already sitting in the channel at the deadline is a
        // computed result, not a timeout — even with zero time remaining.
        let (tx, rx) = channel::bounded::<Response>(1);
        tx.send(Response::ShuttingDown).unwrap();
        let got = await_reply(&rx, Duration::ZERO);
        assert!(matches!(got, Ok(Response::ShuttingDown)), "got {got:?}");

        // Same zero-deadline call with an empty channel is a real timeout.
        let got = await_reply(&rx, Duration::ZERO);
        assert_eq!(got.unwrap_err(), channel::RecvTimeoutError::Timeout);

        // Dropped worker side surfaces as Disconnected, not Timeout.
        drop(tx);
        let got = await_reply(&rx, Duration::ZERO);
        assert_eq!(got.unwrap_err(), channel::RecvTimeoutError::Disconnected);
    }

    #[test]
    fn deadline_timeout_leaves_daemon_alive_and_caches() {
        let svc = Service::start(test_config());
        let slow = small_request(4, "HEFT", "{\"debug_sleep_ms\":300,\"deadline_ms\":25}");
        let resp = svc.handle_line(&slow);
        assert!(matches!(resp, Response::Timeout { .. }), "got {resp:?}");
        assert_eq!(svc.stats_body().timeouts, 1);

        // The worker finishes in the background and caches the result; an
        // identical retry is a cache hit (options are part of the key, so
        // retry with identical options).
        std::thread::sleep(Duration::from_millis(500));
        let retry = svc.handle_line(&slow);
        let Response::Ok {
            schedule: Some(body),
            ..
        } = &retry
        else {
            panic!("retry got {retry:?}");
        };
        assert!(body.cached);
        svc.shutdown();
    }

    #[test]
    fn full_queue_answers_busy() {
        let svc = Service::start(ServeConfig {
            workers: 1,
            queue_capacity: 1,
            cache_capacity: 8,
            instance_cache_capacity: 4,
            default_deadline_ms: 10_000,
        });
        // Occupy the single worker, then fill the one-slot queue, with
        // sleeping jobs submitted from background threads (each submitter
        // blocks on its reply, so they must be separate threads). The
        // submissions are staggered so the first is reliably dequeued by
        // the worker before the second enqueues. Distinct dag sizes keep
        // them from hitting the cache.
        let svc = std::sync::Arc::new(svc);
        let mut submitters = Vec::new();
        for n in [5usize, 6] {
            let svc = svc.clone();
            let line = small_request(n, "HEFT", "{\"debug_sleep_ms\":600}");
            submitters.push(std::thread::spawn(move || svc.handle_line(&line)));
            std::thread::sleep(Duration::from_millis(150));
        }
        let resp = svc.handle_line(&small_request(7, "HEFT", "{}"));
        assert!(matches!(resp, Response::Busy { .. }), "got {resp:?}");
        assert_eq!(svc.stats_body().busy_rejections, 1);
        for s in submitters {
            let r = s.join().unwrap();
            assert!(matches!(r, Response::Ok { .. }), "submitter got {r:?}");
        }
        svc.shutdown();
    }

    #[test]
    fn shutdown_drains_in_flight_work() {
        let svc = std::sync::Arc::new(Service::start(test_config()));
        let line = small_request(5, "HEFT", "{\"debug_sleep_ms\":200}");
        let bg = {
            let svc = svc.clone();
            let line = line.clone();
            std::thread::spawn(move || svc.handle_line(&line))
        };
        std::thread::sleep(Duration::from_millis(50));
        // Shutdown must wait for the in-flight job and deliver its reply.
        svc.shutdown();
        let resp = bg.join().unwrap();
        assert!(matches!(resp, Response::Ok { .. }), "got {resp:?}");
        // New requests after shutdown are refused.
        let refused = svc.handle_line(&line);
        assert!(matches!(refused, Response::ShuttingDown), "got {refused:?}");
    }

    #[test]
    fn metrics_op_renders_prometheus_text() {
        let svc = Service::start(test_config());
        svc.handle_line(&small_request(5, "HEFT", "{}"));
        svc.handle_line(&small_request(5, "HEFT", "{}")); // cache hit
        let resp = svc.handle_line(r#"{"op":"metrics"}"#);
        let Response::Ok {
            metrics: Some(text),
            ..
        } = &resp
        else {
            panic!("expected metrics payload, got {resp:?}");
        };
        for family in [
            "hetsched_requests_total 2",
            "hetsched_cache_hits_total 1",
            "hetsched_cache_misses_total 1",
            "hetsched_computed_total 1",
            "hetsched_queue_depth 0",
            "hetsched_queue_capacity 4",
            "hetsched_cache_entries 1",
            "hetsched_workers 2",
            "# TYPE hetsched_request_latency_seconds histogram",
            "hetsched_algorithm_latency_seconds_count{algorithm=\"HEFT\"} 2",
        ] {
            assert!(text.contains(family), "missing `{family}` in:\n{text}");
        }
        svc.shutdown();
    }

    #[test]
    fn traced_request_attaches_trace_and_matches_untraced_schedule() {
        let svc = Service::start(test_config());
        let plain = svc.handle_line(&small_request(6, "HEFT", "{}"));
        let traced = svc.handle_line(&small_request(6, "HEFT", "{\"trace\":true}"));
        let Response::Ok {
            schedule: Some(plain),
            ..
        } = &plain
        else {
            panic!("plain: {plain:?}");
        };
        let Response::Ok {
            schedule: Some(traced),
            ..
        } = &traced
        else {
            panic!("traced: {traced:?}");
        };
        assert!(plain.trace.is_none());
        let trace = traced.trace.as_ref().expect("trace requested");
        // Tracing must not perturb the schedule.
        assert_eq!(traced.makespan, plain.makespan);
        assert_eq!(
            serde_json::to_string(&traced.schedule).unwrap(),
            serde_json::to_string(&plain.schedule).unwrap()
        );
        // One placement event per task, and the engine was exercised.
        let placements = trace.events.iter().filter(|e| e.is_placement()).count();
        assert_eq!(placements, 6);
        assert!(trace.counters.eft_best_queries >= 6);
        assert!(!trace.phases.is_empty());
        // Traced and untraced requests memoize separately; a traced retry
        // hits the cache and still carries the stored trace.
        let retry = svc.handle_line(&small_request(6, "HEFT", "{\"trace\":true}"));
        let Response::Ok {
            schedule: Some(retry),
            ..
        } = &retry
        else {
            panic!("retry: {retry:?}");
        };
        assert!(retry.cached);
        assert!(retry.trace.is_some());
        assert_eq!(svc.stats_body().cache_hits, 1);
        svc.shutdown();
    }

    #[test]
    fn traced_request_journals_spans_and_shares_the_untraced_memo_entry() {
        let svc = Service::start(test_config());
        let traced = svc.handle_line(&small_request(
            5,
            "HEFT",
            r#"{"trace_ctx":{"trace_id":"00aa00aa00aa00aa"}}"#,
        ));
        let Response::Ok {
            schedule: Some(body),
            timing: Some(timing),
            ..
        } = &traced
        else {
            panic!("traced: {traced:?}");
        };
        assert!(!body.cached);
        assert!(body.trace.is_none(), "trace_ctx is not the decision log");
        assert_eq!(timing.trace_id, "00aa00aa00aa00aa");
        let serve = timing.serve.as_ref().expect("serve timing");
        assert_eq!(serve.cache, "computed");
        assert!(serve.compute_us >= 1);
        assert!(
            serve.total_us >= serve.queue_us + serve.compute_us,
            "total {} < queue {} + compute {}",
            serve.total_us,
            serve.queue_us,
            serve.compute_us
        );

        // The trace context is not part of the memo key: the identical
        // untraced request is a pure cache hit, byte-identical, no timing.
        let plain = svc.handle_line(&small_request(5, "HEFT", "{}"));
        let Response::Ok {
            schedule: Some(pb),
            timing: plain_timing,
            ..
        } = &plain
        else {
            panic!("plain: {plain:?}");
        };
        assert!(plain_timing.is_none());
        assert!(pb.cached, "trace_ctx must not split the memo key");
        assert_eq!(
            serde_json::to_string(&pb.schedule).unwrap(),
            serde_json::to_string(&body.schedule).unwrap()
        );

        // A traced retry answers from the memo and says so.
        let retry = svc.handle_line(&small_request(
            5,
            "HEFT",
            r#"{"trace_ctx":{"trace_id":"00bb00bb00bb00bb"}}"#,
        ));
        let Response::Ok {
            timing: Some(retry_timing),
            ..
        } = &retry
        else {
            panic!("retry: {retry:?}");
        };
        assert_eq!(retry_timing.serve.as_ref().unwrap().cache, "memo");

        // The journal drained the spans of both traced requests; spans of
        // one request nest inside its root `request` span.
        let resp = svc.handle_line(r#"{"op":"journal"}"#);
        let Response::Ok {
            journal: Some(journal),
            ..
        } = &resp
        else {
            panic!("journal: {resp:?}");
        };
        assert_eq!(journal.source, "shard");
        let of_first: Vec<_> = journal
            .spans
            .iter()
            .filter(|s| s.trace_id == "00aa00aa00aa00aa")
            .collect();
        let names: Vec<&str> = of_first.iter().map(|s| s.name.as_str()).collect();
        for expect in ["request", "queue", "compute"] {
            assert!(names.contains(&expect), "missing {expect} in {names:?}");
        }
        assert!(
            names.iter().any(|n| n.starts_with("engine:")),
            "engine phases in {names:?}"
        );
        let root = of_first.iter().find(|s| s.name == "request").unwrap();
        for s in &of_first {
            assert!(
                s.start_us + s.dur_us <= root.start_us + root.dur_us + 1,
                "span {} [{}, +{}] escapes root [{}, +{}]",
                s.name,
                s.start_us,
                s.dur_us,
                root.start_us,
                root.dur_us
            );
        }
        // The memo-hit retry journaled a root span too, but no compute.
        let of_retry: Vec<&str> = journal
            .spans
            .iter()
            .filter(|s| s.trace_id == "00bb00bb00bb00bb")
            .map(|s| s.name.as_str())
            .collect();
        assert!(of_retry.contains(&"request"));
        assert!(!of_retry.contains(&"compute"));

        // Draining again yields nothing; untraced requests journal nothing.
        svc.handle_line(&small_request(4, "CPOP", "{}"));
        let resp = svc.handle_line(r#"{"op":"journal"}"#);
        let Response::Ok {
            journal: Some(journal),
            ..
        } = &resp
        else {
            panic!("journal: {resp:?}");
        };
        assert!(journal.spans.is_empty(), "{:?}", journal.spans);
        svc.shutdown();
    }

    #[test]
    fn outcome_accounting_labels_statuses() {
        use crate::metrics::RequestStatus;
        let svc = Service::start(test_config());
        svc.handle_line(&small_request(5, "HEFT", "{\"deadline_ms\":5000}"));
        svc.handle_line(&small_request(5, "NO-SUCH", "{}"));
        let slow = small_request(6, "HEFT", "{\"debug_sleep_ms\":300,\"deadline_ms\":25}");
        let resp = svc.handle_line(&slow);
        assert!(matches!(resp, Response::Timeout { .. }), "got {resp:?}");
        let m = svc.metrics();
        assert_eq!(m.latency.get(RequestStatus::Success).count(), 1);
        assert_eq!(m.latency.get(RequestStatus::Error).count(), 1);
        assert_eq!(m.latency.get(RequestStatus::Timeout).count(), 1);
        assert_eq!(m.op_outcomes.get("schedule", RequestStatus::Success), 1);
        assert_eq!(m.op_outcomes.get("schedule", RequestStatus::Timeout), 1);
        // The deadlined success recorded its remaining slack.
        assert_eq!(m.deadline_slack.count(), 1);
        // Queue-wait/compute histograms see every computed job.
        assert!(m.queue_wait.count() >= 1);
        assert!(m.compute.count() >= 1);
        let stats = svc.stats_body();
        assert!(stats.compute_p99_us > 0.0);
        svc.shutdown();
    }

    #[test]
    fn jobs_option_is_byte_identical_to_direct_library_call() {
        // A request carrying `jobs > 1` must produce exactly the schedule
        // the library computes directly — parallel search is bit-identical
        // — and must share the memo entry with a jobs-less request, since
        // `jobs` is excluded from the fingerprint.
        let svc = Service::start(test_config());
        let resp = svc.handle_line(&small_request(8, "DUP-HEFT", "{\"jobs\":2}"));
        let Response::Ok {
            schedule: Some(body),
            ..
        } = &resp
        else {
            panic!("unexpected response: {resp:?}");
        };
        assert!(!body.cached);

        // Rebuild the same problem through the same wire specs the service
        // used, then call the library directly.
        let dag = hetsched_dag::builder::dag_from_edges(
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            &(1..8u32).map(|i| (0, i, 2.0)).collect::<Vec<_>>(),
        )
        .unwrap();
        let sys = SystemSpec {
            processors: hetsched_platform::spec::ProcessorsSpec::Homogeneous { count: 3 },
            network: hetsched_platform::spec::NetworkSpec {
                topology: "fully_connected".to_string(),
                startup: 0.0,
                bandwidth: 1.0,
                rows: None,
                cols: None,
            },
        }
        .build(&dag)
        .unwrap();
        let direct = algorithms::by_name("DUP-HEFT")
            .expect("registered algorithm")
            .schedule(&dag, &sys);
        assert_eq!(
            serde_json::to_string(&body.schedule).unwrap(),
            serde_json::to_string(&direct).unwrap(),
            "serve with jobs=2 must be byte-identical to the direct call"
        );

        // Identical request without `jobs` is a pure cache hit: the option
        // is not part of the fingerprint.
        let retry = svc.handle_line(&small_request(8, "DUP-HEFT", "{}"));
        let Response::Ok {
            schedule: Some(retry),
            ..
        } = &retry
        else {
            panic!("retry: {retry:?}");
        };
        assert!(retry.cached);
        assert_eq!(retry.fingerprint, body.fingerprint);
        svc.shutdown();
    }

    #[test]
    fn request_fingerprint_is_pinned() {
        // The reply's `fingerprint` field is client-visible: clients and
        // the gateway correlate replies by it across daemon restarts and
        // releases. This value must never change by accident.
        let line = small_request(
            4,
            "HEFT",
            r#"{"simulate":true,"debug_sleep_ms":7,"trace":true,"deadline_ms":9,"jobs":2}"#,
        );
        let Ok(Request::Schedule {
            dag,
            system,
            algorithm,
            options,
        }) = Request::parse(&line)
        else {
            panic!("fixture must parse as a schedule request");
        };
        let dag = dag.build().unwrap();
        let sys = system.build(&dag).unwrap();
        assert_eq!(
            format!(
                "{:016x}",
                request_fingerprint(&dag, &sys, &algorithm, &options)
            ),
            "44e28c2b21b3f478"
        );
    }

    #[test]
    fn hello_identifies_the_service() {
        let svc = Service::start(test_config());
        let resp = svc.handle_line(r#"{"op":"hello"}"#);
        let Response::Ok { hello: Some(h), .. } = resp else {
            panic!("expected hello payload");
        };
        assert_eq!(h.service, "hetsched-serve");
        assert_eq!(h.workers, 2);
        assert_eq!(h.queue_capacity, 4);
        assert!(!h.version.is_empty());
        svc.shutdown();
    }

    #[test]
    fn stats_and_shutdown_ops() {
        let svc = Service::start(test_config());
        let resp = svc.handle_line(r#"{"op":"stats"}"#);
        let Response::Ok { stats: Some(s), .. } = resp else {
            panic!("expected stats payload");
        };
        assert_eq!(s.requests, 0);
        assert_eq!(s.workers, 2);
        let resp = svc.handle_line(r#"{"op":"shutdown"}"#);
        assert!(matches!(resp, Response::ShuttingDown));
        assert!(svc.is_shutting_down());
        svc.shutdown();
    }
}
