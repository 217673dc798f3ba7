//! `cold`: closed loop, one connection, straight to one `hetsched-cli
//! serve`. Every request is a problem the daemon has never seen, so every
//! cache misses and each layer does its full work on large lines.

use std::time::{Duration, Instant};

use hetsched_core::{algorithms, par, validate, ProblemInstance};
use hetsched_serve::{Request, Response, ServeConfig, Service};

use crate::gen::{build_problem, cold_pool};
use crate::layers::{body_for, hello_rtt_us, line_text, schedule_layers, Layers};
use crate::net::{Conn, Stats, Status};
use crate::report::{digest, mean, ratio, window_metrics, Outcome, Rec, StealSampler};
use crate::trace::Tracer;
use crate::{secs, setup, Args};

/// Pool size per second of window: above the ≈ 110–130 req/s this
/// workload runs at on a 2-core host, and small enough that the pool
/// (≈ 87 KB a line) stays a few hundred MB. A faster program that drains
/// the pool ends its window at the drain instant: the time metrics pool
/// only the slices that end before it.
const POOL_PER_SECOND: f64 = 150.0;
/// Requests answered within this limit meet the `cold` SLO.
const SLO: Duration = Duration::from_millis(25);
/// `slr_mean` covers the first requests of the stream only (two full
/// strata of 80), so it does not depend on how many a window completes.
const SLR_PREFIX: usize = 160;
/// Set-ups per untraced run (each is a spawn and a `hello`).
const SETUP_REPS: usize = 5;
/// Requests of the traced window replayed through the in-process layers.
const LAYER_SAMPLE: usize = 80;

pub fn run(a: &Args) -> Result<Outcome, String> {
    let pool = cold_pool(a.seed, (a.seconds * POOL_PER_SECOND).ceil() as usize);
    let reps = if a.trace { 1 } else { SETUP_REPS };
    let (daemon, mut conns, (), setup_s) = setup(a, 0, 1, reps, |_| Ok(()))?;
    let conn = &mut conns[0];
    let mut out = Outcome::default();
    let before = daemon.stats()?;
    if !a.trace {
        let steal = StealSampler::start(Instant::now(), secs(a.seconds));
        let (recs, start, measured) = closed_loop(conn, &pool, 0, secs(a.seconds), None)?;
        let steal = steal.finish();
        let rss = daemon.rss_peak_mb()?;
        let after = daemon.stats()?;
        drop(conns);
        daemon.stop()?;
        self_check(&mut out, &before, &after, recs.len());
        let slr = verify(&mut out, &pool, &recs);
        let ok = recs.iter().filter(|r| r.status == Status::Ok).count();
        out.attempted = recs.len() as u64;
        out.failed = (recs.len() - ok) as u64;
        out.metric("setup_s", setup_s, "s");
        let span = (secs(a.seconds), measured);
        window_metrics(&mut out, &recs, SLO, start, span, &steal);
        out.metric("slr_mean", slr, "ratio");
        out.metric("rss_peak_mb", rss, "MB");
        return Ok(out);
    }

    // Traced pass: a traced window first (its requests are the layer
    // sample), then an untraced one for the overhead comparison.
    let mut t = Tracer::new(Instant::now());
    let half = secs(a.seconds / 2.0);
    let (traced, ..) = closed_loop(conn, &pool, 0, half, Some(&mut t))?;
    let (plain, ..) = closed_loop(conn, &pool, traced.len(), half, None)?;
    let after = daemon.stats()?;
    let mut l = Layers::default();
    l.set(
        "serve.transport.hello_rtt_us",
        hello_rtt_us(&daemon.addr, 200)?,
    );
    drop(conns);
    daemon.stop()?;

    let n_traced = traced.len();
    let recs: Vec<Rec> = traced.into_iter().chain(plain).collect();
    self_check(&mut out, &before, &after, recs.len());
    verify(&mut out, &pool, &recs);
    let svc = Service::start(ServeConfig::default());
    for r in recs[..n_traced]
        .iter()
        .filter(|r| r.status == Status::Ok)
        .take(LAYER_SAMPLE)
    {
        let line = &pool[r.id];
        let text = line_text(line)?;
        let req = r.id as u64;
        let reply = t.time("serve.handle_line_bytes", req, None, || {
            svc.handle_line_bytes(text)
        });
        out.check(Status::of(&reply) == Status::Ok, || {
            format!("in-process reply to request {} is not ok", r.id)
        });
        let root = t.begin("inproc.request", req, None);
        schedule_layers(&mut t, req, root, line)?;
        t.end(root);
    }
    svc.shutdown();

    let failed = recs.iter().filter(|r| r.status != Status::Ok).count();
    out.attempted = recs.len() as u64;
    out.failed = failed as u64;
    l.set("failed_share", ratio(failed as f64, recs.len() as f64));
    l.sizes(recs.iter().map(|r| (pool[r.id].len(), r.reply_len)));
    let (traced, plain) = recs.split_at(n_traced);
    l.finish(
        &mut out,
        &t,
        (&before, &after),
        "client.rtt",
        (traced, plain),
        &a.span_file(),
    )?;
    Ok(out)
}

/// Send pool lines from `from` in order, one at a time, until `window`
/// ends or the pool is drained. With a tracer, each round trip is a
/// `client.rtt` span. Returns the records, when the window started and
/// how much of it was driven: all of it, or up to the drain instant.
fn closed_loop(
    conn: &mut Conn,
    pool: &[Vec<u8>],
    from: usize,
    window: Duration,
    mut t: Option<&mut Tracer>,
) -> Result<(Vec<Rec>, Instant, Duration), String> {
    let start = Instant::now();
    let mut recs = Vec::new();
    for (id, item) in pool.iter().enumerate().skip(from) {
        if start.elapsed() >= window {
            break;
        }
        let sent = Instant::now();
        let reply = conn.call(item)?;
        let done = Instant::now();
        if let Some(t) = t.as_deref_mut() {
            t.record("client.rtt", id as u64, None, sent, done);
        }
        // Keep a hash, not the bytes: a window's replies would take
        // hundreds of MB.
        recs.push(Rec {
            id,
            t0: sent,
            sent,
            done,
            status: Status::of(&reply),
            reply: Vec::new(),
            reply_len: reply.len(),
            digest: digest(&reply),
        });
    }
    let measured = match recs.last() {
        Some(last) if from + recs.len() == pool.len() => last.done - start,
        _ => window,
    };
    Ok((recs, start, measured.min(window)))
}

/// `cold` must miss everywhere: no wire, memo or instance-cache hits, and
/// every request computed.
fn self_check(out: &mut Outcome, before: &Stats, after: &Stats, sent: usize) {
    let d = |f: fn(&hetsched_serve::StatsBody) -> u64| after.sum(f) - before.sum(f);
    let (req, comp) = (d(|s| s.requests), d(|s| s.computed));
    let hits = (
        d(|s| s.wire_hits),
        d(|s| s.cache_hits),
        d(|s| s.instance_cache_hits),
    );
    out.notes.push(format!(
        "stats: requests {req}, computed {comp}, wire/memo/instance hits {hits:?}"
    ));
    out.check(hits == (0, 0, 0), || {
        format!("cold saw cache hits {hits:?}")
    });
    out.check(req == sent as u64 && comp == req, || {
        format!("cold sent {sent} requests but the daemon counted {req} and computed {comp}")
    });
}

/// Check every `ok` reply: it must be byte-identical to the reply the
/// library gives for the same problem — `by_name(alg).schedule_instance`
/// (same makespan bits, same schedule, which passes `validate`) serialized
/// as the daemon does. Returns the mean SLR of the first [`SLR_PREFIX`]
/// requests' replies.
fn verify(out: &mut Outcome, pool: &[Vec<u8>], recs: &[Rec]) -> f64 {
    let check = |r: &Rec| -> Result<f64, String> {
        let Ok(Request::Schedule {
            dag,
            system,
            algorithm,
            options,
        }) = Request::parse(line_text(&pool[r.id])?)
        else {
            return Err("request line does not parse".to_string());
        };
        let (d, s) = build_problem(&dag, &system)?;
        let inst = ProblemInstance::new(d, s);
        let alg = algorithms::by_name(&algorithm).ok_or("unknown algorithm")?;
        let sched = par::with_jobs(1, || alg.schedule_instance(&inst));
        validate(inst.dag(), inst.sys(), &sched)
            .map_err(|e| format!("{algorithm}: library schedule invalid: {e:?}"))?;
        let body = body_for(&inst, &algorithm, &options, sched, None);
        let (slr, makespan) = (body.slr, body.makespan);
        let want = Response::schedule(body).to_line();
        if want.len() != r.reply_len || digest(want.as_bytes()) != r.digest {
            return Err(format!(
                "{algorithm}: reply differs from the library's (makespan {makespan})"
            ));
        }
        Ok(slr)
    };
    let ok: Vec<&Rec> = recs.iter().filter(|r| r.status == Status::Ok).collect();
    let results: Vec<Result<f64, String>> = std::thread::scope(|s| {
        let (lo, hi) = ok.split_at(ok.len() / 2);
        let h = s.spawn(|| hi.iter().map(|r| check(r)).collect::<Vec<_>>());
        let mut v: Vec<_> = lo.iter().map(|r| check(r)).collect();
        v.extend(h.join().expect("verifier thread"));
        v
    });
    let mut slrs = Vec::new();
    for (r, res) in ok.iter().zip(results) {
        match res {
            Ok(slr) if r.id < SLR_PREFIX => slrs.push(slr),
            Ok(_) => {}
            Err(e) => out.problems.push(format!("request {}: {e}", r.id)),
        }
    }
    out.notes.push(format!(
        "verified {} ok replies against the library",
        ok.len()
    ));
    mean(&slrs)
}
