//! `hot`: open loop, Poisson arrivals at a fixed offered rate over two
//! connections, through `serve --shards 2`. Most replies come from the
//! wire caches, the memo or single-flight, so the front door, router,
//! admission, backend hop, queue and cache policy set the latency.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use hetsched_core::{algorithms, validate, ProblemInstance};
use hetsched_serve::{Request, ScheduleBody, ServeConfig, Service};
use serde_json::Value;

use crate::gen::{build_problem, hot_inputs, HotInputs, HotReq, Prob, HOT_SET};
use crate::layers::{hello_rtt_us, hops, line_text, schedule_layers, Layers};
use crate::net::{Conn, Stats, Status, REPLY_TIMEOUT};
use crate::report::{
    field_f64, mean, ms, quantile, ratio, window_metrics, Outcome, Rec, StealSampler,
};
use crate::trace::Tracer;
use crate::{secs, setup, Args};

/// Offered rate, req/s. See `perfbench/README.md` for why it sits below
/// 60% of the 2-connection closed-loop capacity.
pub const RATE: f64 = 100.0;
/// Attempts answered `ok` within this limit (from the due time) meet the
/// `hot` SLO.
const SLO: Duration = Duration::from_millis(10);
const CONNS: usize = 2;
/// Set-ups per untraced run (each warms the whole working set).
const SETUP_REPS: usize = 3;
/// Working-set ranks warmed a second time during set-up, so their replies
/// reach the wire caches' fixed point before the window.
const WARM_TWICE: usize = 256;
/// Warm-up requests in flight per connection (the gateway buffers up to
/// 32 lines per connection before it sheds).
const WARM_PIPELINE: usize = 8;
/// Distinct working-set lines used for the per-layer hop measurements,
/// and traced-window requests replayed through the library layers.
const HOP_SAMPLE: usize = 64;
const LAYER_SAMPLE: usize = 200;

pub fn run(a: &Args) -> Result<Outcome, String> {
    let inputs = hot_inputs(a.seed, RATE, a.seconds);
    let reps = if a.trace { 1 } else { SETUP_REPS };
    let (daemon, mut conns, refs, setup_s) = setup(a, 2, CONNS, reps, |cs| warm(&inputs, cs))?;
    let mut out = Outcome::default();
    let before = daemon.stats()?;
    let all: Vec<(usize, &HotReq)> = inputs.reqs.iter().enumerate().collect();
    if !a.trace {
        let steal = StealSampler::start(Instant::now(), secs(a.seconds));
        let (recs, late, start) = open_loop(&mut conns, &all, None)?;
        let steal = steal.finish();
        let rss = daemon.rss_peak_mb()?;
        let after = daemon.stats()?;
        drop(conns);
        daemon.stop()?;
        self_check(&mut out, &inputs, &before, &after);
        let slr = verify(&mut out, &inputs, &refs, &recs);
        let ok = recs.iter().filter(|r| r.status == Status::Ok).count();
        out.attempted = recs.len() as u64;
        out.failed = (recs.len() - ok) as u64;
        out.notes.push(format!(
            "{} requests offered at {RATE} req/s; generator lateness p99 {:.3} ms",
            recs.len(),
            quantile(&late, 0.99)
        ));
        out.metric("setup_s", setup_s, "s");
        let span = (secs(a.seconds), secs(a.seconds));
        window_metrics(&mut out, &recs, SLO, start, span, &steal);
        out.metric("slr_mean", slr, "ratio");
        out.metric("rss_peak_mb", rss, "MB");
        return Ok(out);
    }

    // Traced pass: traced window over the first half of the schedule,
    // untraced over the second.
    let cut = all.partition_point(|(_, r)| r.due.as_secs_f64() < a.seconds / 2.0);
    let mut t = Tracer::new(Instant::now());
    let (traced, late1, _) = open_loop(&mut conns, &all[..cut], Some(&mut t))?;
    let (plain, late2, _) = open_loop(&mut conns, &all[cut..], None)?;
    let after = daemon.stats()?;
    let mut l = Layers::default();
    l.set(
        "serve.transport.hello_rtt_us",
        hello_rtt_us(&daemon.shards[0], 200)?,
    );
    let sample: Vec<u32> = {
        let mut seen = Vec::new();
        for (_, r) in &all[..cut] {
            if let [Prob::Ws(k)] = r.members[..] {
                if !seen.contains(&k) && seen.len() < HOP_SAMPLE {
                    seen.push(k);
                }
            }
        }
        seen
    };
    let mut lines = Vec::with_capacity(sample.len());
    for &k in &sample {
        let line = &inputs.ws[k as usize];
        let Ok(Request::Schedule { dag, system, .. }) = Request::parse(line_text(line)?) else {
            return Err("working-set line does not parse".to_string());
        };
        let (d, s) = build_problem(&dag, &system)?;
        // The gateway's routing rule: content fingerprint % shards.
        let home = ProblemInstance::content_fingerprint(&d, &s) % daemon.shards.len() as u64;
        lines.push((k as u64, &line[..], home as usize));
    }
    hops(&mut l, &mut t, &daemon, &mut conns[0], &lines)?;
    drop(conns);
    daemon.stop()?;

    let n_traced = traced.len();
    let recs: Vec<Rec> = traced.into_iter().chain(plain).collect();
    self_check(&mut out, &inputs, &before, &after);
    verify(&mut out, &inputs, &refs, &recs);
    // In-process: a service warmed like the shards answers each sampled
    // line from its wire cache, the path those lines take at steady state.
    let svc = Service::start(ServeConfig::default());
    let order: Vec<usize> = (0..HOT_SET).rev().chain((0..WARM_TWICE).rev()).collect();
    for k in order {
        svc.handle_line_bytes(line_text(&inputs.ws[k])?);
    }
    for &k in &sample {
        let line = line_text(&inputs.ws[k as usize])?;
        for rep in 0..5 {
            if rep < 2 {
                svc.handle_line_bytes(line);
            } else {
                t.time("serve.handle_line_bytes", k as u64, None, || {
                    svc.handle_line_bytes(line)
                });
            }
        }
        let root = t.begin("inproc.request", k as u64, None);
        t.time("serve.wire.scan", k as u64, Some(root), || {
            hetsched_serve::wire::scan(line.as_bytes())
        });
        t.end(root);
    }
    svc.shutdown();
    // The library layers each request would pass through on a miss.
    for (id, r) in all[..n_traced.min(LAYER_SAMPLE)].iter() {
        let root = t.begin("inproc.miss", *id as u64, None);
        schedule_layers(&mut t, *id as u64, root, &r.line)?;
        t.end(root);
    }

    let failed = recs.iter().filter(|r| r.status != Status::Ok).count();
    out.attempted = recs.len() as u64;
    out.failed = failed as u64;
    l.set("failed_share", ratio(failed as f64, recs.len() as f64));
    l.set(
        "bench.gen_late_p99_ms",
        quantile(&late1.into_iter().chain(late2).collect::<Vec<_>>(), 0.99),
    );
    l.sizes(
        recs.iter()
            .map(|r| (inputs.reqs[r.id].line.len(), r.reply_len)),
    );
    let (traced, plain) = recs.split_at(n_traced);
    l.finish(
        &mut out,
        &t,
        (&before, &after),
        "client.rtt.direct",
        (traced, plain),
        &a.span_file(),
    )?;
    Ok(out)
}

/// Warm the working set: every problem once in reverse popularity order
/// (so the most popular end up most recent in the shards' LRU memos), then
/// the top ranks again so their replies enter the wire caches, pipelined
/// on every connection. Returns each problem's first reply.
fn warm(inputs: &HotInputs, conns: &mut [Conn]) -> Result<Vec<Vec<u8>>, String> {
    let order: Vec<usize> = (0..HOT_SET).rev().chain((0..WARM_TWICE).rev()).collect();
    let per_conn = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let order = &order;
                s.spawn(move || -> Result<Vec<(usize, Vec<u8>)>, String> {
                    let mine: Vec<(usize, usize)> = order
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % CONNS == c)
                        .map(|(i, &k)| (i, k))
                        .collect();
                    let mut got = Vec::new();
                    let mut sent = 0;
                    for &(i, k) in &mine {
                        while sent < mine.len() && sent < got.len() + WARM_PIPELINE {
                            conn.send(&inputs.ws[mine[sent].1])?;
                            sent += 1;
                        }
                        let reply = conn.recv()?;
                        if Status::of(&reply) != Status::Ok {
                            return Err(format!(
                                "warm-up reply: {}",
                                String::from_utf8_lossy(&reply)
                            ));
                        }
                        got.push((if i < HOT_SET { k } else { usize::MAX }, reply));
                    }
                    got.retain(|(k, _)| *k != usize::MAX);
                    Ok(got)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up thread"))
            .collect::<Vec<_>>()
    });
    let mut refs = vec![Vec::new(); HOT_SET];
    for got in per_conn {
        for (k, reply) in got? {
            refs[k] = reply;
        }
    }
    Ok(refs)
}

/// Run the arrival schedule `reqs`: request `i` goes out on connection
/// `i % CONNS` at its due time, whatever the replies are doing; replies
/// arrive in order per connection. Latency is timed from the due time.
/// Returns the records, each send's lateness (ms), and the instant the
/// first request was due.
fn open_loop(
    conns: &mut [Conn],
    reqs: &[(usize, &HotReq)],
    t: Option<&mut Tracer>,
) -> Result<(Vec<Rec>, Vec<f64>, Instant), String> {
    let start = Instant::now() + Duration::from_millis(5);
    let offset = reqs.first().map_or(Duration::ZERO, |(_, r)| r.due);
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mine: Vec<(usize, &HotReq)> = reqs
                    .iter()
                    .filter(|(id, _)| id % CONNS == c)
                    .copied()
                    .collect();
                s.spawn(move || drive(conn, &mine, start, offset))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let (mut recs, mut late) = (Vec::new(), Vec::new());
    for r in results {
        let (rs, l) = r?;
        recs.extend(rs);
        late.extend(l);
    }
    recs.sort_by_key(|r| r.id);
    if let Some(t) = t {
        for r in &recs {
            t.record("client.rtt", r.id as u64, None, r.sent, r.done);
        }
    }
    Ok((recs, late, start))
}

fn drive(
    conn: &mut Conn,
    mine: &[(usize, &HotReq)],
    start: Instant,
    offset: Duration,
) -> Result<(Vec<Rec>, Vec<f64>), String> {
    let due = |i: usize| start + (mine[i].1.due - offset);
    let mut inflight: VecDeque<(usize, Instant, Instant)> = VecDeque::new();
    let (mut recs, mut late) = (
        Vec::with_capacity(mine.len()),
        Vec::with_capacity(mine.len()),
    );
    let mut next = 0;
    let mut progress = Instant::now();
    while next < mine.len() || !inflight.is_empty() {
        let now = Instant::now();
        while next < mine.len() && due(next) <= now {
            conn.send(&mine[next].1.line)?;
            let sent = Instant::now();
            late.push(ms(sent - due(next)));
            inflight.push_back((mine[next].0, due(next), sent));
            next += 1;
        }
        let until = if next < mine.len() {
            due(next)
        } else {
            now + Duration::from_millis(100)
        };
        if inflight.is_empty() {
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
            continue;
        }
        match conn.recv_by(until)? {
            Some(reply) => {
                let (id, t0, sent) = inflight.pop_front().expect("a request is in flight");
                recs.push(Rec {
                    id,
                    t0,
                    sent,
                    done: Instant::now(),
                    status: Status::of(&reply),
                    reply_len: reply.len(),
                    reply,
                    digest: 0,
                });
                progress = Instant::now();
            }
            None if progress.elapsed() > REPLY_TIMEOUT => {
                return Err(format!("no reply within {REPLY_TIMEOUT:?}"))
            }
            None => {}
        }
    }
    Ok((recs, late))
}

/// The share of batch and single members answered without computing must
/// lie between the share of members naming the 32 most popular problems
/// (always resident in a 256-entry LRU at this mix) and the share naming
/// any working-set problem (fresh problems always compute).
fn self_check(out: &mut Outcome, inputs: &HotInputs, before: &Stats, after: &Stats) {
    let members: Vec<Prob> = inputs
        .reqs
        .iter()
        .flat_map(|r| r.members.iter().copied())
        .collect();
    let n = members.len() as f64;
    let ws = members.iter().filter(|p| matches!(p, Prob::Ws(_))).count() as f64;
    let top = members
        .iter()
        .filter(|p| matches!(p, Prob::Ws(k) if *k < 32))
        .count() as f64;
    let computed = (after.sum(|s| s.computed) - before.sum(|s| s.computed)) as f64;
    let hit = 1.0 - computed / n;
    out.notes.push(format!(
        "hit share {hit:.3} (model range {:.3}..{:.3}); gateway wire hits {}, dedup {}",
        top / n,
        ws / n,
        after.gw("wire_hits") - before.gw("wire_hits"),
        after.gw("dedup_hits") - before.gw("dedup_hits"),
    ));
    out.check(hit >= top / n && hit <= ws / n, || {
        format!("hot hit share {hit:.3} outside its model range")
    });
}

/// Every reply for a problem must be byte-identical to that problem's
/// first reply (up to the `cached` flag a repeat flips), and every
/// problem's first reply must match the library. Returns the mean SLR
/// over distinct problems: the working set's first replies and the fresh
/// single requests (a per-reply mean would be dominated by the few most
/// popular problems of the seed).
fn verify(out: &mut Outcome, inputs: &HotInputs, refs: &[Vec<u8>], recs: &[Rec]) -> f64 {
    let mut problems = Vec::new();
    let norm =
        |b: &[u8]| String::from_utf8_lossy(b).replacen("\"cached\":false", "\"cached\":true", 1);
    let canon = |v: &Value| {
        let mut v = v.clone();
        v["cached"] = Value::Bool(true);
        serde_json::to_string(&v).expect("value serializes")
    };
    // First replies of the working set: from the warm-up, checked against
    // the library.
    let mut ws_canon = Vec::with_capacity(HOT_SET);
    let mut slrs = Vec::new();
    for (k, reply) in refs.iter().enumerate() {
        match library_check(&inputs.ws[k], 0, reply) {
            Ok(v) => {
                slrs.extend(v["slr"].as_f64());
                ws_canon.push(canon(&v));
            }
            Err(e) => {
                problems.push(format!("working-set problem {k}: {e}"));
                ws_canon.push(String::new());
            }
        }
    }
    for r in recs.iter().filter(|r| r.status == Status::Ok) {
        let req = &inputs.reqs[r.id];
        if !req.batch {
            match req.members[0] {
                Prob::Ws(k) => {
                    if norm(&r.reply) != norm(&refs[k as usize]) {
                        problems.push(format!(
                            "request {}: reply differs from problem {k}'s first",
                            r.id
                        ));
                    }
                }
                Prob::Fresh(_) => {
                    if let Err(e) = library_check(&req.line, 0, &r.reply) {
                        problems.push(format!("request {}: {e}", r.id));
                    }
                    slrs.extend(field_f64(&r.reply, "\"slr\":"));
                }
            }
            continue;
        }
        let v: Value = match serde_json::from_str(&String::from_utf8_lossy(&r.reply)) {
            Ok(v) => v,
            Err(e) => {
                problems.push(format!("request {}: batch reply: {e}", r.id));
                continue;
            }
        };
        let entries = v["many"]["entries"].as_array().cloned().unwrap_or_default();
        if entries.len() != req.members.len() {
            problems.push(format!(
                "request {}: {} entries for {} members",
                r.id,
                entries.len(),
                req.members.len()
            ));
            continue;
        }
        for (i, (p, e)) in req.members.iter().zip(&entries).enumerate() {
            let bad = match p {
                Prob::Ws(k) => (canon(e) != ws_canon[*k as usize])
                    .then(|| format!("entry {i} differs from problem {k}'s first reply")),
                Prob::Fresh(_) => library_entry_check(&req.line, i, e).err(),
            };
            if let Some(b) = bad {
                problems.push(format!("request {}: {b}", r.id));
            }
        }
    }
    out.notes.push(format!(
        "verified {} ok replies; {} working-set first replies checked against the library",
        recs.iter().filter(|r| r.status == Status::Ok).count(),
        refs.len()
    ));
    out.problems.extend(problems);
    mean(&slrs)
}

/// Check one single-schedule reply against the library; returns its
/// schedule body as a JSON value.
fn library_check(line: &[u8], member: usize, reply: &[u8]) -> Result<Value, String> {
    let v: Value =
        serde_json::from_str(&String::from_utf8_lossy(reply)).map_err(|e| format!("reply: {e}"))?;
    library_entry_check(line, member, &v["schedule"])?;
    Ok(v["schedule"].clone())
}

/// Check member `member` of a `schedule` or `schedule_many` line against
/// one schedule body: HEFT on the same problem gives the same makespan
/// bits, and the body's schedule validates.
fn library_entry_check(line: &[u8], member: usize, body: &Value) -> Result<(), String> {
    let (dag, system) = match Request::parse(line_text(line)?) {
        Ok(Request::Schedule { dag, system, .. }) => (dag, system),
        Ok(Request::ScheduleMany { mut instances, .. }) if member < instances.len() => {
            let i = instances.swap_remove(member);
            (i.dag, i.system)
        }
        _ => return Err("request line does not parse".to_string()),
    };
    let (d, s) = build_problem(&dag, &system)?;
    let inst = ProblemInstance::new(d, s);
    let want = algorithms::by_name("HEFT")
        .expect("HEFT is registered")
        .schedule_instance(&inst);
    let body: ScheduleBody =
        serde_json::from_value(body.clone()).map_err(|e| format!("body: {e}"))?;
    if body.makespan.to_bits() != want.makespan().to_bits() {
        return Err(format!(
            "makespan {} != library {}",
            body.makespan,
            want.makespan()
        ));
    }
    validate(inst.dag(), inst.sys(), &body.schedule).map_err(|e| format!("invalid schedule: {e:?}"))
}
