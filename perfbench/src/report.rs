//! Run outcome, metric printing and small statistics helpers.

use std::time::{Duration, Instant};

use crate::net::Status;

/// One request as the client saw it.
#[derive(Clone)]
pub struct Rec {
    /// Index of the request in its workload's input order.
    pub id: usize,
    /// When the latency clock starts: the due time in an open loop, the
    /// first send in a closed loop.
    pub t0: Instant,
    pub sent: Instant,
    pub done: Instant,
    pub status: Status,
    /// The reply bytes a workload keeps: all of them, a prefix, or none.
    pub reply: Vec<u8>,
    /// Length of the whole reply line, without its `\n`.
    pub reply_len: usize,
    /// Hash of the whole reply line, for workloads that keep no bytes.
    pub digest: u64,
}

impl Rec {
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.t0)
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run prints.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Verification mismatches and failed self-checks; any makes the run
    /// incorrect.
    pub problems: Vec<String>,
    /// Human-readable context printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Print the notes, a table of every metric with its unit, and as the
    /// last line the JSON result.
    pub fn print(&self) {
        for p in &self.problems {
            eprintln!("perfbench: INCORRECT: {p}");
        }
        for n in &self.notes {
            println!("# {n}");
        }
        for m in &self.metrics {
            println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let mut metrics = serde_json::Map::new();
        for m in &self.metrics {
            let mut v = serde_json::Map::new();
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            v.insert("value", serde_json::json!(value));
            v.insert("unit", serde_json::json!(m.unit));
            metrics.insert(m.name.clone(), serde_json::Value::Object(v));
        }
        let mut out = serde_json::Map::new();
        out.insert("correct", serde_json::json!(self.correct()));
        out.insert("attempted", serde_json::json!(self.attempted));
        out.insert("failed", serde_json::json!(self.failed));
        out.insert("metrics", serde_json::Value::Object(metrics));
        println!(
            "{}",
            serde_json::to_string(&serde_json::Value::Object(out)).expect("result serializes")
        );
    }
}

/// Nearest-rank quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A stable 64-bit hash of a reply line.
pub fn digest(bytes: &[u8]) -> u64 {
    use std::hash::Hasher;
    let mut h = std::hash::DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Slices a measured window is cut into (one a second for a 30 s window).
pub const SLICES: usize = 30;
/// The kept slices are grouped, in time order, into this many blocks;
/// each time metric is taken per block and the median of the blocks is
/// reported, so a host episode that slows fewer than half of the blocks
/// does not move it.
const BLOCKS: usize = 5;
/// A slice is left out of the time metrics when the host stole more of
/// the CPU in it than in the window's least-stolen slice by more than
/// this share (one percentage point: two 10 ms ticks of a 2-core second).
const STEAL_MARGIN: f64 = 0.01;
/// At most this share of a window's slices is left out for steal.
const MAX_DROPPED: f64 = 0.25;

/// The host's CPU steal, sampled from `/proc/stat` at every slice boundary
/// of a window by a thread that sleeps in between.
pub struct StealSampler(std::thread::JoinHandle<Vec<f64>>);

impl StealSampler {
    pub fn start(start: Instant, window: Duration) -> StealSampler {
        StealSampler(std::thread::spawn(move || {
            let read = || -> Option<(f64, f64)> {
                let text = std::fs::read_to_string("/proc/stat").ok()?;
                let v: Vec<f64> = text
                    .lines()
                    .next()?
                    .split_whitespace()
                    .skip(1)
                    .filter_map(|x| x.parse().ok())
                    .collect();
                Some((v.get(7).copied().unwrap_or(0.0), v.iter().take(8).sum()))
            };
            let mut marks = Vec::with_capacity(SLICES + 1);
            for i in 0..=SLICES {
                let at = start + window.mul_f64(i as f64 / SLICES as f64);
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                marks.push(read().unwrap_or((0.0, 0.0)));
            }
            marks
                .windows(2)
                .map(|m| ratio(m[1].0 - m[0].0, m[1].1 - m[0].1))
                .collect()
        }))
    }

    /// Steal share of every slice.
    pub fn finish(self) -> Vec<f64> {
        self.0.join().expect("steal sampler")
    }
}

/// Slices of a window the time metrics pool. Only slices that end by
/// `measured` count (a closed loop that drains its inputs measures less
/// than the whole window). Of those, a slice is left out when its steal
/// exceeds the least steal among them by more than [`STEAL_MARGIN`], the
/// most stolen first and at most [`MAX_DROPPED`] of them; on a quiet host
/// every slice is kept.
fn kept_slices(steal: &[f64], w: f64, measured: f64) -> Vec<usize> {
    let whole = ((measured / w + 1e-9).floor() as usize).min(SLICES);
    let mut order: Vec<usize> = (0..whole).collect();
    order.sort_by(|&a, &b| steal[b].total_cmp(&steal[a]));
    let least = order.last().map_or(0.0, |&i| steal[i]);
    let droppable = (whole as f64 * MAX_DROPPED) as usize;
    let dropped = order
        .iter()
        .take(droppable)
        .take_while(|&&i| steal[i] > least + STEAL_MARGIN)
        .count();
    let mut kept = order.split_off(dropped);
    kept.sort_unstable();
    kept
}

/// Throughput, latency and SLO metrics of the requests `recs` whose clock
/// starts in the `window` from `start`, of which the first `measured` was
/// driven (all of it, unless a closed loop drained its inputs early). The
/// window is cut into [`SLICES`] equal slices (a request belongs to the
/// slice its clock starts in), and the metrics use the requests of the
/// slices [`kept_slices`] keeps: whole slices within `measured`, less
/// those in which the host stole markedly more CPU (`steal`, one share per
/// slice), because on a shared VM seconds in which the hypervisor runs
/// other guests measure the host, not the program. The kept slices form
/// [`BLOCKS`] consecutive blocks; each metric is the median over the
/// blocks of: `ok` replies per second, the p50 and p99 of `ok` latencies,
/// and the share of requests answered `ok` within `slo`. A kept slice
/// without requests makes the run incorrect: the window measured idle
/// time.
pub fn window_metrics(
    out: &mut Outcome,
    recs: &[Rec],
    slo: Duration,
    start: Instant,
    (window, measured): (Duration, Duration),
    steal: &[f64],
) {
    let w = window.as_secs_f64() / SLICES as f64;
    let slice_of = |r: &Rec| {
        let at = r.t0.saturating_duration_since(start).as_secs_f64();
        ((at / w) as usize).min(SLICES - 1)
    };
    let kept = kept_slices(steal, w, measured.as_secs_f64());
    let mut per_slice = [0usize; SLICES];
    for r in recs {
        per_slice[slice_of(r)] += 1;
    }
    out.check(!kept.is_empty(), || {
        format!(
            "the window measured {:.2} s, less than one {w:.2} s slice",
            measured.as_secs_f64()
        )
    });
    let empty: Vec<usize> = kept
        .iter()
        .copied()
        .filter(|&i| per_slice[i] == 0)
        .collect();
    out.check(empty.is_empty(), || {
        format!("measured slices {empty:?} hold no requests")
    });
    let n = BLOCKS.min(kept.len());
    let (mut tput, mut p50, mut p99, mut met) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut pooled, mut ok) = (0, 0);
    for b in 0..n {
        let block = &kept[b * kept.len() / n..(b + 1) * kept.len() / n];
        let in_block: Vec<&Rec> = recs
            .iter()
            .filter(|r| block.contains(&slice_of(r)))
            .collect();
        let lat: Vec<f64> = in_block
            .iter()
            .filter(|r| r.status == Status::Ok)
            .map(|r| ms(r.latency()))
            .collect();
        tput.push(ratio(lat.len() as f64, block.len() as f64 * w));
        p50.push(quantile(&lat, 0.5));
        p99.push(quantile(&lat, 0.99));
        let within = lat.iter().filter(|&&l| l <= ms(slo)).count();
        met.push(ratio(within as f64, in_block.len() as f64));
        pooled += in_block.len();
        ok += lat.len();
    }
    let mean_steal = |idx: &[usize]| mean(&idx.iter().map(|&i| steal[i]).collect::<Vec<_>>());
    out.notes.push(format!(
        "{} requests over {:.2} s; {} of {SLICES} slices kept (host steal {:.1}% vs {:.1}% over \
         the window) hold {pooled} of them, {ok} ok, in {n} blocks; p99 per block (ms) {:.1?}",
        recs.len(),
        measured.as_secs_f64(),
        kept.len(),
        100.0 * mean_steal(&kept),
        100.0 * mean(steal),
        p99,
    ));
    out.metric("throughput_rps", quantile(&tput, 0.5), "req/s");
    out.metric("latency_p50_ms", quantile(&p50, 0.5), "ms");
    out.metric("latency_p99_ms", quantile(&p99, 0.5), "ms");
    out.metric("slo_met_share", quantile(&met, 0.5), "ratio");
}

/// A number in a reply's prefix, e.g. `"makespan":` — replies put the
/// scalar fields of a schedule body before its (large) schedule.
pub fn field_f64(reply: &[u8], key: &str) -> Option<f64> {
    let at = crate::gen::find(reply, key.as_bytes())? + key.len();
    let end = reply[at..].iter().position(|&b| b == b',' || b == b'}')? + at;
    std::str::from_utf8(&reply[at..end]).ok()?.parse().ok()
}

/// A string field in a reply's prefix, e.g. `"problem":"`.
pub fn field_str<'a>(reply: &'a [u8], key: &str) -> Option<&'a str> {
    let at = crate::gen::find(reply, key.as_bytes())? + key.len();
    let end = reply[at..].iter().position(|&b| b == b'"')? + at;
    std::str::from_utf8(&reply[at..end]).ok()
}
