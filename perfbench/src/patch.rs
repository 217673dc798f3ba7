//! `patch`: closed loop, two connections, through `serve --shards 2`.
//! Each timed request is a `patch` of 1–3 field-level deltas against its
//! chain's head, the `problem` of the previous reply: tiny requests,
//! large replies, and a new instance and memo entry per request.

use std::time::{Duration, Instant};

use hetsched_core::{algorithms, ProblemInstance, Schedule};
use hetsched_serve::{Request, ServeConfig, Service};

use crate::gen::{build_problem, patch_chains, schedule_line, spec_of, Chain, PATCH_CHAINS};
use crate::layers::{hello_rtt_us, hops, line_text, patch_layers, Layers};
use crate::net::{Conn, Stats, Status};
use crate::report::{
    field_f64, field_str, mean, ratio, window_metrics, Outcome, Rec, StealSampler,
};
use crate::trace::Tracer;
use crate::{secs, setup, Args};

const CONNS: usize = 2;
/// Set-ups per untraced run (each schedules the 8 parents).
const SETUP_REPS: usize = 5;
/// Steps generated per chain and second of window: several times what a
/// chain completes on a 2-core host. A chain that runs out stops early.
const STEPS_PER_SECOND: f64 = 60.0;
/// Patch requests answered `ok` within this limit meet the `patch` SLO;
/// `unknown_parent` answers never do.
const SLO: Duration = Duration::from_millis(40);
/// `slr_mean` covers the first steps of every chain only.
const SLR_STEPS: usize = 8;
/// Steps of every chain replayed through the in-process layers.
const LAYER_STEPS: usize = 6;
/// Reply bytes kept per step: the scalar fields precede the schedule.
const REPLY_PREFIX: usize = 512;

/// Where one chain stands on the client.
struct ChainState<'a> {
    chain: &'a Chain,
    /// Fingerprint of the head: the `problem` of the last ok reply.
    head_fp: String,
    /// The head as a problem, materialized lazily (only a re-seed needs
    /// it): `head` plus the deltas of `pending` steps.
    head: ProblemInstance<'static>,
    pending: Vec<usize>,
    next: usize,
}

impl ChainState<'_> {
    /// The head as a full `schedule` line, to re-seed the daemon.
    fn head_line(&mut self) -> Result<Vec<u8>, String> {
        for k in std::mem::take(&mut self.pending) {
            let next = self
                .head
                .apply_deltas(&self.chain.steps[k].deltas)
                .map_err(|e| format!("client-side apply: {e:?}"))?
                .instance
                .into_owned();
            self.head = next;
        }
        let fp = format!("{:016x}", self.head.fingerprint());
        if fp != self.head_fp {
            return Err(format!("client head {fp} != daemon head {}", self.head_fp));
        }
        let (dag, sys) = spec_of(&self.head);
        Ok(schedule_line(dag, sys, self.chain.alg))
    }
}

/// One patch step as the client saw it: one `patch` request, or — when
/// the first met `unknown_parent` and the head was re-seeded — two. Each
/// request is its own record, timed from its own send; `rec` is the last,
/// and its reply (cut to the scalar prefix) decides the step.
struct StepRec {
    chain: usize,
    step: usize,
    rec: Rec,
    /// Every patch request of the step, last one included (replies not
    /// kept).
    tries: Vec<Rec>,
    line_len: usize,
}

impl StepRec {
    fn unknown(&self) -> usize {
        self.tries
            .iter()
            .filter(|r| r.status == Status::UnknownParent)
            .count()
    }
}

fn base_instance(chain: &Chain) -> Result<ProblemInstance<'static>, String> {
    let Ok(Request::Schedule { dag, system, .. }) = Request::parse(line_text(&chain.parent_line)?)
    else {
        return Err("parent line does not parse".to_string());
    };
    let (d, s) = build_problem(&dag, &system)?;
    Ok(ProblemInstance::new(d, s))
}

pub fn run(a: &Args) -> Result<Outcome, String> {
    let steps = (a.seconds * STEPS_PER_SECOND).ceil() as usize;
    let chains = patch_chains(a.seed, steps);
    let reps = if a.trace { 1 } else { SETUP_REPS };
    let (daemon, mut conns, parents, setup_s) =
        setup(a, 2, CONNS, reps, |cs| seed_parents(&chains, cs))?;
    let mut states = chains
        .iter()
        .zip(&parents)
        .map(|(chain, reply)| {
            Ok(ChainState {
                chain,
                head_fp: field_str(reply, "\"problem\":\"")
                    .ok_or("parent reply has no problem")?
                    .to_string(),
                head: base_instance(chain)?,
                pending: Vec::new(),
                next: 0,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut out = Outcome::default();
    let before = daemon.stats()?;
    if !a.trace {
        let steal = StealSampler::start(Instant::now(), secs(a.seconds));
        let (recs, start, measured) = window(&mut conns, &mut states, secs(a.seconds), None)?;
        let steal = steal.finish();
        let rss = daemon.rss_peak_mb()?;
        let after = daemon.stats()?;
        drop(conns);
        daemon.stop()?;
        self_check(&mut out, &recs, &before, &after);
        let slr = verify(&mut out, &chains, &parents, &recs);
        let tries: Vec<Rec> = recs.iter().flat_map(|s| s.tries.iter().cloned()).collect();
        out.attempted = recs.len() as u64;
        out.failed = recs.iter().filter(|s| s.rec.status != Status::Ok).count() as u64;
        out.metric("setup_s", setup_s, "s");
        let span = (secs(a.seconds), measured);
        window_metrics(&mut out, &tries, SLO, start, span, &steal);
        out.metric("slr_mean", slr, "ratio");
        out.metric("rss_peak_mb", rss, "MB");
        return Ok(out);
    }

    // Traced pass: traced window first (its first steps per chain are the
    // layer sample), then an untraced one.
    let mut t = Tracer::new(Instant::now());
    let half = secs(a.seconds / 2.0);
    let (traced, ..) = window(&mut conns, &mut states, half, Some(&mut t))?;
    let (plain, ..) = window(&mut conns, &mut states, half, None)?;
    let after = daemon.stats()?;
    let mut l = Layers::default();
    l.set(
        "serve.transport.hello_rtt_us",
        hello_rtt_us(&daemon.shards[0], 200)?,
    );
    let n_traced = traced.len();
    let recs: Vec<StepRec> = traced.into_iter().chain(plain).collect();
    // Each chain's last ok patch line, named with the parent it was sent
    // with; the gateway routed it to `parent % shards`, where the parent
    // lives.
    let mut last_ok = Vec::new();
    for c in 0..PATCH_CHAINS {
        let mut ok = recs
            .iter()
            .filter(|s| s.chain == c && s.rec.status == Status::Ok);
        let Some(last) = ok.next_back() else { continue };
        let parent = ok.next_back().map_or(&parents[c], |p| &p.rec.reply);
        let parent = field_str(parent, "\"problem\":\"").ok_or("reply has no problem")?;
        let home = u64::from_str_radix(parent, 16).map_err(|e| e.to_string())?
            % daemon.shards.len() as u64;
        last_ok.push((
            c as u64,
            chains[c].steps[last.step].line(parent),
            home as usize,
        ));
    }
    let lines: Vec<(u64, &[u8], usize)> = last_ok
        .iter()
        .map(|(k, line, home)| (*k, &line[..], *home))
        .collect();
    hops(&mut l, &mut t, &daemon, &mut conns[0], &lines)?;
    drop(conns);
    daemon.stop()?;

    self_check(&mut out, &recs, &before, &after);
    verify(&mut out, &chains, &parents, &recs);
    let (mut replayed, mut rescheduled) = (0usize, 0usize);
    let svc = Service::start(ServeConfig::default());
    for (c, chain) in chains.iter().enumerate() {
        svc.handle_line_bytes(line_text(&chain.parent_line)?);
        let mut head = base_instance(chain)?;
        let alg = algorithms::by_name(chain.alg).ok_or("unknown algorithm")?;
        let mut sched: Schedule = alg.schedule_instance(&head);
        let done = recs[..n_traced]
            .iter()
            .filter(|s| s.chain == c && s.rec.status == Status::Ok)
            .take(LAYER_STEPS);
        for s in done {
            let req = step_id(c, s.step);
            let line = chain.steps[s.step].line(&format!("{:016x}", head.fingerprint()));
            let text = line_text(&line)?;
            let reply = t.time("serve.handle_line_bytes", req, None, || {
                svc.handle_line_bytes(text)
            });
            out.check(Status::of(&reply) == Status::Ok, || {
                format!("in-process reply to chain {c} step {} is not ok", s.step)
            });
            let root = t.begin("inproc.request", req, None);
            let (next, next_sched, stats) = patch_layers(&mut t, req, root, &line, &head, &sched)?;
            t.end(root);
            replayed += stats.replayed;
            rescheduled += stats.rescheduled;
            head = next;
            sched = next_sched;
        }
    }
    svc.shutdown();

    let tries: Vec<&Rec> = recs.iter().flat_map(|s| &s.tries).collect();
    let unknown = recs.iter().map(StepRec::unknown).sum::<usize>();
    let attempts = tries.len();
    let failed_attempts = tries.iter().filter(|r| r.status != Status::Ok).count();
    l.set(
        "failed_share",
        ratio(failed_attempts as f64, attempts as f64),
    );
    l.set(
        "gateway.unknown_parent_share",
        ratio(unknown as f64, attempts as f64),
    );
    l.set(
        "core.repair.replayed_share",
        ratio(replayed as f64, (replayed + rescheduled) as f64),
    );
    l.sizes(recs.iter().map(|s| (s.line_len, s.rec.reply_len)));
    out.attempted = recs.len() as u64;
    out.failed = recs.iter().filter(|s| s.rec.status != Status::Ok).count() as u64;
    let requests = |steps: &[StepRec]| -> Vec<Rec> {
        steps.iter().flat_map(|s| s.tries.iter().cloned()).collect()
    };
    l.finish(
        &mut out,
        &t,
        (&before, &after),
        "client.rtt",
        (&requests(&recs[..n_traced]), &requests(&recs[n_traced..])),
        &a.span_file(),
    )?;
    Ok(out)
}

/// Span request id of step `step` of chain `c`.
fn step_id(c: usize, step: usize) -> u64 {
    (c * 1_000_000 + step) as u64
}

/// Chain `c` runs on connection `c / (PATCH_CHAINS / CONNS)`.
fn conn_of(c: usize) -> usize {
    c / (PATCH_CHAINS / CONNS)
}

/// Schedule every chain's parent (set-up). Returns the parents' replies.
fn seed_parents(chains: &[Chain], conns: &mut [Conn]) -> Result<Vec<Vec<u8>>, String> {
    let per_conn = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(k, conn)| {
                s.spawn(move || -> Result<Vec<(usize, Vec<u8>)>, String> {
                    let mut got = Vec::new();
                    for (c, chain) in chains.iter().enumerate().filter(|(c, _)| conn_of(*c) == k) {
                        let reply = conn.call(&chain.parent_line)?;
                        if Status::of(&reply) != Status::Ok {
                            return Err(format!(
                                "parent reply: {}",
                                String::from_utf8_lossy(&reply[..reply.len().min(200)])
                            ));
                        }
                        got.push((c, reply[..reply.len().min(REPLY_PREFIX)].to_vec()));
                    }
                    Ok(got)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up thread"))
            .collect::<Vec<_>>()
    });
    let mut replies = vec![Vec::new(); chains.len()];
    for got in per_conn {
        for (c, r) in got? {
            replies[c] = r;
        }
    }
    Ok(replies)
}

/// Drive every chain for `dur`, each connection round-robin over its own
/// chains. Returns the steps, when the window started and how much of it
/// was driven: all of it, or up to the first chain running out of steps.
fn window(
    conns: &mut [Conn],
    states: &mut [ChainState],
    dur: Duration,
    t: Option<&mut Tracer>,
) -> Result<(Vec<StepRec>, Instant, Duration), String> {
    let start = Instant::now();
    let end = start + dur;
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(states.chunks_mut(PATCH_CHAINS / CONNS))
            .enumerate()
            .map(|(k, (conn, mine))| {
                s.spawn(move || -> Result<Vec<StepRec>, String> {
                    let mut recs = Vec::new();
                    'run: while Instant::now() < end {
                        for (j, st) in mine.iter_mut().enumerate() {
                            if Instant::now() >= end {
                                break 'run;
                            }
                            if st.next >= st.chain.steps.len() {
                                continue;
                            }
                            recs.push(step(conn, st, k * (PATCH_CHAINS / CONNS) + j)?);
                        }
                        if mine.iter().all(|st| st.next >= st.chain.steps.len()) {
                            break;
                        }
                    }
                    Ok(recs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    let mut recs = Vec::new();
    for r in results {
        recs.extend(r?);
    }
    recs.sort_by_key(|s| (s.chain, s.step));
    let measured = recs
        .iter()
        .filter(|s| s.step + 1 == states[s.chain].chain.steps.len())
        .map(|s| s.rec.done - start)
        .fold(dur, Duration::min);
    if let Some(t) = t {
        for s in &recs {
            if s.rec.status == Status::Ok {
                t.record(
                    "client.rtt",
                    step_id(s.chain, s.step),
                    None,
                    s.rec.sent,
                    s.rec.done,
                );
            }
        }
    }
    Ok((recs, start, measured))
}

/// One patch step of chain `c`. On `unknown_parent` it does what the
/// error text says: re-send the head as a full `schedule`, then retry.
fn step(conn: &mut Conn, st: &mut ChainState, c: usize) -> Result<StepRec, String> {
    let k = st.next;
    st.next += 1;
    let id = step_id(c, k) as usize;
    let line = st.chain.steps[k].line(&st.head_fp);
    let mut tries = Vec::with_capacity(2);
    let attempt = |conn: &mut Conn, tries: &mut Vec<Rec>| -> Result<Vec<u8>, String> {
        let sent = Instant::now();
        let reply = conn.call(&line)?;
        tries.push(Rec {
            id,
            t0: sent,
            sent,
            done: Instant::now(),
            status: Status::of(&reply),
            reply: Vec::new(),
            reply_len: reply.len(),
            digest: 0,
        });
        Ok(reply)
    };
    let mut reply = attempt(conn, &mut tries)?;
    if Status::of(&reply) == Status::UnknownParent {
        let full = st.head_line()?;
        let seeded = conn.call(&full)?;
        if Status::of(&seeded) != Status::Ok
            || field_str(&seeded, "\"problem\":\"") != Some(st.head_fp.as_str())
        {
            return Err(format!(
                "re-seeding chain {c} answered {}",
                String::from_utf8_lossy(&seeded[..seeded.len().min(200)])
            ));
        }
        reply = attempt(conn, &mut tries)?;
    }
    let last = tries.last().expect("one attempt");
    if last.status == Status::Ok {
        st.head_fp = field_str(&reply, "\"problem\":\"")
            .ok_or("patch reply has no problem")?
            .to_string();
        st.pending.push(k);
    }
    reply.truncate(REPLY_PREFIX);
    let rec = Rec { reply, ..*last };
    Ok(StepRec {
        chain: c,
        step: k,
        rec,
        tries,
        line_len: line.len(),
    })
}

/// `patch` reports its patches, repairs and `unknown_parent` replies,
/// and the shards' counters must agree with what the client saw.
fn self_check(out: &mut Outcome, recs: &[StepRec], before: &Stats, after: &Stats) {
    let d = |f: fn(&hetsched_serve::StatsBody) -> u64| after.sum(f) - before.sum(f);
    let (patches, repairs, errors) = (d(|s| s.patches), d(|s| s.repairs), d(|s| s.errors));
    let ok_replies = recs
        .iter()
        .flat_map(|s| &s.tries)
        .filter(|r| r.status == Status::Ok)
        .count() as u64;
    let unknown = recs.iter().map(StepRec::unknown).sum::<usize>() as u64;
    let attempts = recs.iter().map(|s| s.tries.len()).sum::<usize>();
    out.notes.push(format!(
        "{} steps, {attempts} patch requests: {patches} patches, {repairs} repairs, {unknown} unknown_parent",
        recs.len()
    ));
    out.check(patches == ok_replies, || {
        format!("shards accepted {patches} patches but {ok_replies} patch replies were ok")
    });
    out.check(repairs <= patches, || {
        format!("{repairs} repairs exceed {patches} patches")
    });
    out.check(errors == unknown, || {
        format!("shards answered {errors} errors but the client saw {unknown} unknown_parent")
    });
}

/// Replay every chain: each ok step's makespan must equal a fresh
/// `schedule_instance` of the patched problem (repair == fresh), and its
/// `problem` the patched fingerprint. Returns the mean SLR of the first
/// [`SLR_STEPS`] steps of every chain.
fn verify(out: &mut Outcome, chains: &[Chain], parents: &[Vec<u8>], recs: &[StepRec]) -> f64 {
    let check = |c: usize| -> Result<Vec<f64>, String> {
        let chain = &chains[c];
        let alg = algorithms::by_name(chain.alg).ok_or("unknown algorithm")?;
        let mut inst = base_instance(chain)?;
        let same = |reply: &[u8], inst: &ProblemInstance, what: &str| -> Result<(), String> {
            let want = alg.schedule_instance(inst).makespan();
            let got = field_f64(reply, "\"makespan\":").ok_or("reply has no makespan")?;
            if got.to_bits() != want.to_bits() {
                return Err(format!("chain {c} {what}: makespan {got} != fresh {want}"));
            }
            let fp = format!("{:016x}", inst.fingerprint());
            if field_str(reply, "\"problem\":\"") != Some(fp.as_str()) {
                return Err(format!("chain {c} {what}: problem is not {fp}"));
            }
            Ok(())
        };
        same(&parents[c], &inst, "parent")?;
        let mut slrs = Vec::new();
        for s in recs
            .iter()
            .filter(|s| s.chain == c && s.rec.status == Status::Ok)
        {
            let next = inst
                .apply_deltas(&chain.steps[s.step].deltas)
                .map_err(|e| format!("apply: {e:?}"))?
                .instance
                .into_owned();
            inst = next;
            same(&s.rec.reply, &inst, &format!("step {}", s.step))?;
            if s.step < SLR_STEPS {
                slrs.extend(field_f64(&s.rec.reply, "\"slr\":"));
            }
        }
        Ok(slrs)
    };
    let results: Vec<Result<Vec<f64>, String>> = std::thread::scope(|s| {
        let h = s.spawn(|| {
            (PATCH_CHAINS / 2..PATCH_CHAINS)
                .map(check)
                .collect::<Vec<_>>()
        });
        let mut v: Vec<_> = (0..PATCH_CHAINS / 2).map(check).collect();
        v.extend(h.join().expect("verifier thread"));
        v
    });
    let mut slrs = Vec::new();
    for r in results {
        match r {
            Ok(v) => slrs.extend(v),
            Err(e) => out.problems.push(e),
        }
    }
    out.notes.push(format!(
        "verified {} ok patch replies against fresh schedules",
        recs.iter().filter(|s| s.rec.status == Status::Ok).count()
    ));
    mean(&slrs)
}
