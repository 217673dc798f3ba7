//! The traced pass: calls into each layer's public functions, timed as
//! spans from this file. Nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use hetsched_core::{
    algorithms, par, repairable, validate, CostAggregation, ProblemInstance, RepairStats, Schedule,
};
use hetsched_gateway::{GatewayConfig, Router};
use hetsched_metrics::{slr, speedup};
use hetsched_serve::protocol::{RepairBody, ScheduleManyBody};
use hetsched_serve::{request_fingerprint, wire, Request, RequestOptions, Response, ScheduleBody};

use crate::gen::build_problem;
use crate::net::{Conn, Daemon, Stats, Status};
use crate::report::{mean, ms, quantile, ratio, Outcome, Rec};
use crate::trace::Tracer;

/// Every per-layer metric, in print order, with its unit. A workload
/// reports 0 for a layer its requests never reach.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_share", "ratio"),
    ("serve.transport.overhead_us", "us"),
    ("serve.transport.hello_rtt_us", "us"),
    ("serve.wire.scan_us", "us"),
    ("serve.wire.hit_ratio", "ratio"),
    ("serve.protocol.parse_us", "us"),
    ("serve.protocol.serialize_us", "us"),
    ("serve.protocol.request_kb", "KB"),
    ("serve.protocol.reply_kb", "KB"),
    ("spec.build_us", "us"),
    ("dag.fingerprint_us", "us"),
    ("serve.cache.memo_hit_ratio", "ratio"),
    ("serve.cache.instance_hit_ratio", "ratio"),
    ("serve.worker.qwait_p99_us", "us"),
    ("serve.worker.compute_p50_us", "us"),
    ("serve.worker.compute_p99_us", "us"),
    ("core.rank_us", "us"),
    ("core.schedule_us.HEFT", "us"),
    ("core.schedule_us.ILS-H", "us"),
    ("core.schedule_us.ILS-D", "us"),
    ("core.schedule_us.CPOP", "us"),
    ("core.schedule_us.PEFT", "us"),
    ("core.schedule_us.HOFT", "us"),
    ("core.schedule_us.DUP-HEFT", "us"),
    ("core.validate_us", "us"),
    ("core.par.jobs_ratio.ILS-D", "ratio"),
    ("core.par.jobs_ratio.DUP-HEFT", "ratio"),
    ("core.delta.apply_us", "us"),
    ("core.repair.repair_us", "us"),
    ("core.repair.fresh_us", "us"),
    ("core.repair.replayed_share", "ratio"),
    ("serve.repair_share", "ratio"),
    ("gateway.hop_us", "us"),
    ("gateway.router.handle_us", "us"),
    ("gateway.wire.hit_ratio", "ratio"),
    ("gateway.dedup_ratio", "ratio"),
    ("gateway.unknown_parent_share", "ratio"),
    ("gateway.sheds", "count"),
    ("gateway.reroutes", "count"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.unaccounted_share", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
];

/// Per-layer values a workload fills in; [`Layers::emit`] prints every
/// name of [`PER_LAYER`], 0 where a layer was not on the path.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn emit(&self, out: &mut Outcome) {
        for &(name, unit) in PER_LAYER {
            out.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }

    /// Mean self times of the library-call spans in `t`.
    pub fn add_spans(&mut self, t: &Tracer) {
        for (metric, span) in [
            ("serve.wire.scan_us", "serve.wire.scan"),
            ("serve.protocol.parse_us", "serve.protocol.parse"),
            ("serve.protocol.serialize_us", "serve.protocol.serialize"),
            ("spec.build_us", "spec.build"),
            ("dag.fingerprint_us", "dag.fingerprint"),
            ("core.rank_us", "core.rank"),
            ("core.validate_us", "core.validate"),
            ("core.delta.apply_us", "core.delta.apply"),
            ("core.repair.repair_us", "core.repair.repair"),
            ("core.repair.fresh_us", "core.repair.fresh"),
        ] {
            self.set(metric, t.mean_us(span));
        }
        for (metric, alg) in [
            ("core.schedule_us.HEFT", "HEFT"),
            ("core.schedule_us.ILS-H", "ILS-H"),
            ("core.schedule_us.ILS-D", "ILS-D"),
            ("core.schedule_us.CPOP", "CPOP"),
            ("core.schedule_us.PEFT", "PEFT"),
            ("core.schedule_us.HOFT", "HOFT"),
            ("core.schedule_us.DUP-HEFT", "DUP-HEFT"),
        ] {
            self.set(metric, t.mean_us(&format!("core.schedule.{alg}")));
        }
        for (metric, alg) in [
            ("core.par.jobs_ratio.ILS-D", "ILS-D"),
            ("core.par.jobs_ratio.DUP-HEFT", "DUP-HEFT"),
        ] {
            let sum = |name: String| -> f64 { t.by_name(&name).iter().map(|&(_, v)| v).sum() };
            self.set(
                metric,
                ratio(
                    sum(format!("core.par.default.{alg}")),
                    sum(format!("core.par.jobs1.{alg}")),
                ),
            );
        }
    }

    /// Counters and quantiles the `stats` op already exposes, as deltas
    /// over the measured windows.
    pub fn add_stats(&mut self, before: &Stats, after: &Stats) {
        let d = |f: fn(&hetsched_serve::StatsBody) -> u64| (after.sum(f) - before.sum(f)) as f64;
        let hits = d(|s| s.wire_hits);
        self.set(
            "serve.wire.hit_ratio",
            ratio(hits, hits + d(|s| s.wire_misses) + d(|s| s.wire_fallbacks)),
        );
        self.set(
            "serve.cache.memo_hit_ratio",
            ratio(d(|s| s.cache_hits), d(|s| s.requests)),
        );
        let ihits = d(|s| s.instance_cache_hits);
        self.set(
            "serve.cache.instance_hit_ratio",
            ratio(ihits, ihits + d(|s| s.instance_cache_misses)),
        );
        self.set("serve.worker.qwait_p99_us", after.worst(|s| s.qwait_p99_us));
        self.set(
            "serve.worker.compute_p50_us",
            after.worst(|s| s.compute_p50_us),
        );
        self.set(
            "serve.worker.compute_p99_us",
            after.worst(|s| s.compute_p99_us),
        );
        self.set(
            "serve.repair_share",
            ratio(d(|s| s.repairs), d(|s| s.patches)),
        );
        if after.gateway.is_some() {
            let g = |k: &str| (after.gw(k) - before.gw(k)) as f64;
            let gh = g("wire_hits");
            self.set(
                "gateway.wire.hit_ratio",
                ratio(gh, gh + g("wire_misses") + g("wire_fallbacks")),
            );
            self.set("gateway.dedup_ratio", ratio(g("dedup_hits"), g("requests")));
            self.set("gateway.sheds", g("sheds"));
            self.set("gateway.reroutes", g("reroutes"));
        }
    }

    /// Mean request and reply line sizes, KB (1024 bytes) with the `\n`,
    /// from (request line, reply length without `\n`) pairs.
    pub fn sizes(&mut self, lines: impl Iterator<Item = (usize, usize)>) {
        let (req, rep): (Vec<f64>, Vec<f64>) = lines
            .map(|(q, r)| (q as f64 / 1024.0, (r + 1) as f64 / 1024.0))
            .unzip();
        self.set("serve.protocol.request_kb", mean(&req));
        self.set("serve.protocol.reply_kb", mean(&rep));
    }

    /// The common end of a traced pass: layer means from the spans,
    /// `stats` deltas, the closure against `rtt_span` round trips, the
    /// tracing overhead (`ok` p50 of the traced window over the untraced
    /// one's), the span file, and every per-layer metric into `out`.
    #[allow(clippy::too_many_arguments)] // one call per workload
    pub fn finish(
        mut self,
        out: &mut Outcome,
        t: &Tracer,
        (before, after): (&Stats, &Stats),
        rtt_span: &str,
        (traced, plain): (&[Rec], &[Rec]),
        path: &Path,
    ) -> Result<(), String> {
        self.add_spans(t);
        self.add_stats(before, after);
        self.closure(t, rtt_span);
        let p50 = |rs: &[Rec]| {
            let ok = rs.iter().filter(|r| r.status == Status::Ok);
            quantile(&ok.map(|r| ms(r.latency())).collect::<Vec<_>>(), 0.5)
        };
        self.set(
            "bench.trace_overhead_share",
            ratio(p50(traced), p50(plain)) - 1.0,
        );
        t.write(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        out.notes
            .push(format!("spans written to {}", path.display()));
        self.emit(out);
        Ok(())
    }

    /// Transport overhead and closure from paired spans: for each request
    /// with client round trips (`rtt_span`) and in-process
    /// `serve.handle_line_bytes` calls (medians when repeated), overhead =
    /// round trip − in-process handling, and the unaccounted share is what
    /// neither the overhead nor the library-call spans on the request's
    /// path (children of `inproc.request`) explain.
    pub fn closure(&mut self, t: &Tracer, rtt_span: &str) {
        let own = t.self_us();
        let mut rtt: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        let mut handle: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        let mut layers: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, &v) in t.spans.iter().zip(&own) {
            if s.name == rtt_span {
                rtt.entry(s.req).or_default().push(v);
            } else if s.name == "serve.handle_line_bytes" {
                handle.entry(s.req).or_default().push(v);
            } else if let Some(p) = s.parent {
                if t.spans[p].name == "inproc.request" {
                    *layers.entry(s.req).or_default() += v;
                }
            }
        }
        let (mut sum_rtt, mut sum_handle, mut sum_layers, mut over) = (0.0, 0.0, 0.0, Vec::new());
        for (req, r) in &rtt {
            let Some(h) = handle.get(req) else { continue };
            let (r, h) = (quantile(r, 0.5), quantile(h, 0.5));
            sum_rtt += r;
            sum_handle += h;
            sum_layers += layers.get(req).copied().unwrap_or(0.0);
            over.push(r - h);
        }
        self.set("serve.transport.overhead_us", mean(&over));
        self.set(
            "bench.unaccounted_share",
            ratio(sum_handle - sum_layers, sum_rtt),
        );
    }
}

/// A request line as text, without its `\n`.
pub fn line_text(line: &[u8]) -> Result<&str, String> {
    std::str::from_utf8(line)
        .map(str::trim_end)
        .map_err(|e| format!("request line: {e}"))
}

/// The schedule body the daemon computes for `sched` on a miss.
pub fn body_for(
    inst: &ProblemInstance,
    algorithm: &str,
    options: &RequestOptions,
    sched: Schedule,
    repair: Option<RepairStats>,
) -> ScheduleBody {
    let (dag, sys) = (inst.dag(), inst.sys());
    let makespan = sched.makespan();
    ScheduleBody {
        algorithm: algorithm.to_string(),
        makespan,
        slr: slr(dag, sys, makespan),
        speedup: speedup(dag, sys, makespan),
        fingerprint: format!("{:016x}", request_fingerprint(dag, sys, algorithm, options)),
        problem: format!("{:016x}", inst.fingerprint()),
        cached: false,
        schedule: sched,
        sim: None,
        trace: None,
        repair: repair.map(|r| RepairBody {
            replayed: r.replayed,
            rescheduled: r.rescheduled,
            fresh: r.fresh,
        }),
    }
}

/// Time each layer a `schedule` or `schedule_many` line passes through
/// on a cache miss, as children of the span `parent`: scan, parse, spec
/// build, fingerprints, rank, the scheduler (rank memo warm), validate
/// and reply serialization. For ILS-D and DUP-HEFT the scheduler also runs
/// at the default `jobs` and under `with_jobs(1)` on fresh instances
/// (root spans, outside the request's path).
pub fn schedule_layers(t: &mut Tracer, req: u64, parent: usize, line: &[u8]) -> Result<(), String> {
    let line = line_text(line)?;
    let p = Some(parent);
    t.time("serve.wire.scan", req, p, || wire::scan(line.as_bytes()));
    let parsed = t
        .time("serve.protocol.parse", req, p, || Request::parse(line))
        .map_err(|e| format!("parse: {e}"))?;
    let (members, algorithm, options, many) = match parsed {
        Request::Schedule {
            dag,
            system,
            algorithm,
            options,
        } => (vec![(dag, system)], algorithm, options, false),
        Request::ScheduleMany {
            instances,
            algorithm,
            options,
        } => (
            instances.into_iter().map(|i| (i.dag, i.system)).collect(),
            algorithm,
            options,
            true,
        ),
        other => return Err(format!("not a schedule line: {other:?}")),
    };
    let alg = algorithms::by_name(&algorithm).ok_or("unknown algorithm")?;
    let mut bodies = Vec::with_capacity(members.len());
    for (dag, system) in &members {
        let (d, s) = t.time("spec.build", req, p, || build_problem(dag, system))?;
        t.time("dag.fingerprint", req, p, || {
            (
                ProblemInstance::content_fingerprint(&d, &s),
                request_fingerprint(&d, &s, &algorithm, &options),
            )
        });
        if matches!(algorithm.as_str(), "ILS-D" | "DUP-HEFT") {
            for (name, jobs) in [("default", None), ("jobs1", Some(1))] {
                let inst = ProblemInstance::new(d.clone(), s.clone());
                inst.upward_rank(CostAggregation::Mean);
                t.time(
                    format!("core.par.{name}.{algorithm}"),
                    req,
                    None,
                    || match jobs {
                        Some(j) => par::with_jobs(j, || alg.schedule_instance(&inst)),
                        None => alg.schedule_instance(&inst),
                    },
                );
            }
        }
        let inst = ProblemInstance::new(d, s);
        t.time("core.rank", req, p, || {
            inst.upward_rank(CostAggregation::Mean)
        });
        let sched = t.time(format!("core.schedule.{algorithm}"), req, p, || {
            alg.schedule_instance(&inst)
        });
        t.time("core.validate", req, p, || {
            validate(inst.dag(), inst.sys(), &sched)
        })
        .map_err(|e| format!("library schedule invalid: {e:?}"))?;
        bodies.push(body_for(&inst, &algorithm, &options, sched, None));
    }
    let resp = if many {
        Response::many(ScheduleManyBody {
            computed: bodies.len(),
            cached: 0,
            entries: bodies,
        })
    } else {
        Response::schedule(bodies.pop().expect("one member"))
    };
    t.time("serve.protocol.serialize", req, p, || resp.to_line());
    Ok(())
}

/// Time each layer a `patch` line passes through (scan, parse, delta
/// apply, fingerprints, rank, repair, validate, serialize) as children of
/// `parent`, plus a fresh from-scratch run of the patched problem as a
/// root span. Returns the patched problem, its schedule and the repair
/// accounting; fails unless repair == fresh bit for bit.
pub fn patch_layers(
    t: &mut Tracer,
    req: u64,
    parent: usize,
    line: &[u8],
    head: &ProblemInstance<'static>,
    head_sched: &Schedule,
) -> Result<(ProblemInstance<'static>, Schedule, RepairStats), String> {
    let line = line_text(line)?;
    let p = Some(parent);
    t.time("serve.wire.scan", req, p, || wire::scan(line.as_bytes()));
    let parsed = t
        .time("serve.protocol.parse", req, p, || Request::parse(line))
        .map_err(|e| format!("parse: {e}"))?;
    let Request::Patch {
        algorithm,
        deltas,
        options,
        ..
    } = parsed
    else {
        return Err("not a patch line".to_string());
    };
    let (inst, dirty) = t
        .time("core.delta.apply", req, p, || {
            head.apply_deltas(&deltas)
                .map(|d| (d.instance.into_owned(), d.dirty))
        })
        .map_err(|e| format!("apply_deltas: {e:?}"))?;
    t.time("dag.fingerprint", req, p, || {
        (
            inst.fingerprint(),
            request_fingerprint(head.dag(), head.sys(), &algorithm, &options),
            request_fingerprint(inst.dag(), inst.sys(), &algorithm, &options),
        )
    });
    t.time("core.rank", req, p, || {
        inst.upward_rank(CostAggregation::Mean)
    });
    let repairer = repairable(&algorithm).ok_or("algorithm is not repairable")?;
    let (sched, stats) = t.time("core.repair.repair", req, p, || {
        repairer.repair(&inst, &dirty, head, head_sched)
    });
    t.time("core.validate", req, p, || {
        validate(inst.dag(), inst.sys(), &sched)
    })
    .map_err(|e| format!("repaired schedule invalid: {e:?}"))?;
    let resp = Response::schedule(body_for(
        &inst,
        &algorithm,
        &options,
        sched.clone(),
        Some(stats),
    ));
    t.time("serve.protocol.serialize", req, p, || resp.to_line());
    let fresh_inst = ProblemInstance::new(inst.dag().clone(), inst.sys().clone());
    let alg = algorithms::by_name(&algorithm).ok_or("unknown algorithm")?;
    let fresh = t.time("core.repair.fresh", req, None, || {
        alg.schedule_instance(&fresh_inst)
    });
    if fresh.makespan().to_bits() != sched.makespan().to_bits() {
        return Err(format!(
            "repair makespan {} != fresh {}",
            sched.makespan(),
            fresh.makespan()
        ));
    }
    Ok((inst, sched, stats))
}

/// Median round trip of `hello` on a warm connection, µs.
pub fn hello_rtt_us(addr: &str, reps: usize) -> Result<f64, String> {
    let mut conn = crate::net::Conn::connect(addr)?;
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps + 10 {
        let t0 = Instant::now();
        conn.call(b"{\"op\":\"hello\"}\n")?;
        v.push(crate::report::us(t0.elapsed()));
    }
    Ok(crate::report::quantile(&v[10..], 0.5))
}

/// Steady-state round trips of sampled lines, each given as (span key,
/// line, home shard): via the gateway (`client.rtt.gateway`), direct to the
/// shard the gateway routes the line to (`client.rtt.direct`), and as an
/// in-process `Router::handle_line` against the live shards
/// (`gateway.router.handle`). Each line runs twice to warm the caches,
/// then three timed repeats. Sets `gateway.hop_us` (gateway − direct, of
/// per-line medians) and `gateway.router.handle_us`.
pub fn hops(
    l: &mut Layers,
    t: &mut Tracer,
    daemon: &Daemon,
    gw: &mut Conn,
    lines: &[(u64, &[u8], usize)],
) -> Result<(), String> {
    let mut direct: Vec<Conn> = daemon
        .shards
        .iter()
        .map(|a| Conn::connect(a))
        .collect::<Result<_, _>>()?;
    let router = Router::new(GatewayConfig {
        backends: daemon.shards.clone(),
        ..Default::default()
    })
    .map_err(|e| format!("router: {e}"))?;
    let short = |b: &[u8]| String::from_utf8_lossy(&b[..b.len().min(200)]).into_owned();
    for &(key, line, home) in lines {
        let text = line_text(line)?;
        for rep in 0..5 {
            for (name, conn) in [
                ("client.rtt.gateway", &mut *gw),
                ("client.rtt.direct", &mut direct[home]),
            ] {
                let sent = Instant::now();
                let reply = conn.call(line)?;
                if rep >= 2 {
                    t.record(name, key, None, sent, Instant::now());
                }
                if Status::of(&reply) != Status::Ok {
                    return Err(format!("{name}: {}", short(&reply)));
                }
            }
            let sent = Instant::now();
            let reply = router.handle_line(text, sent);
            if rep >= 2 {
                t.record("gateway.router.handle", key, None, sent, Instant::now());
            }
            if Status::of(reply.as_bytes()) != Status::Ok {
                return Err(format!("in-process router: {}", short(reply.as_bytes())));
            }
        }
    }
    let per_line = |name: &str| -> Vec<f64> {
        let mut by: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for (req, v) in t.by_name(name) {
            by.entry(req).or_default().push(v);
        }
        lines
            .iter()
            .filter_map(|(k, _, _)| by.get(k).map(|v| quantile(v, 0.5)))
            .collect()
    };
    let (via, direct) = (
        per_line("client.rtt.gateway"),
        per_line("client.rtt.direct"),
    );
    let hop: Vec<f64> = via.iter().zip(&direct).map(|(g, d)| g - d).collect();
    l.set("gateway.hop_us", mean(&hop));
    l.set(
        "gateway.router.handle_us",
        mean(&per_line("gateway.router.handle")),
    );
    Ok(())
}
