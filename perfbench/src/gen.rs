//! Seeded inputs for the three workloads. Everything here runs before a
//! daemon starts; only the bytes of the finished request lines reach it.

use std::sync::Arc;
use std::time::Duration;

use hetsched_core::{Delta, ProblemInstance};
use hetsched_dag::io::DagSpec;
use hetsched_dag::{Dag, TaskId};
use hetsched_platform::spec::{NetworkSpec, ProcessorsSpec};
use hetsched_platform::{EtcMatrix, EtcParams, ProcId, System, SystemSpec};
use hetsched_serve::protocol::InstanceSpec;
use hetsched_serve::{Request, RequestOptions};
use hetsched_workloads::{random_dag, RandomDagParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Independent random streams, so adding draws to one workload never
/// shifts another's inputs.
const STREAM_COLD: u64 = 1;
const STREAM_COLD_ALGS: u64 = 2;
const STREAM_HOT_SET: u64 = 3;
const STREAM_HOT_ARRIVALS: u64 = 4;
const STREAM_HOT_FRESH: u64 = 5;
const STREAM_PATCH: u64 = 6;

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn rng_for(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix(splitmix(seed ^ (stream << 48)) ^ index))
}

/// Processor side of a generated system.
#[derive(Clone, Copy)]
pub enum Procs {
    /// Explicit range-based ETC matrix (β = 1, inconsistent rows).
    Etc(usize),
    Homogeneous(usize),
    /// Related machines with speeds uniform in [0.5, 2).
    Speeds(usize),
}

/// A fig10-style random DAG (α = 1, CCR = 1) and a system for it on a
/// zero-latency unit-bandwidth network.
pub fn problem(n: usize, procs: Procs, rng: &mut StdRng) -> (Dag, DagSpec, SystemSpec) {
    let dag = random_dag(&RandomDagParams::new(n, 1.0, 1.0), rng);
    let processors = match procs {
        Procs::Etc(p) => {
            let etc = EtcMatrix::generate(&dag, p, &EtcParams::range_based(1.0), rng);
            ProcessorsSpec::Etc {
                etc: dag.task_ids().map(|t| etc.row(t).to_vec()).collect(),
            }
        }
        Procs::Homogeneous(p) => ProcessorsSpec::Homogeneous { count: p },
        Procs::Speeds(p) => ProcessorsSpec::Speeds {
            speeds: (0..p).map(|_| rng.gen_range(0.5..2.0)).collect(),
        },
    };
    let spec = DagSpec::from_dag(&dag);
    (dag, spec, system_spec(processors))
}

fn system_spec(processors: ProcessorsSpec) -> SystemSpec {
    SystemSpec {
        processors,
        network: NetworkSpec {
            topology: "fully_connected".to_string(),
            startup: 0.0,
            bandwidth: 1.0,
            rows: None,
            cols: None,
        },
    }
}

/// The spec a client would send for an in-memory problem whose ETC matrix
/// is explicit and whose network is the generator's unit network.
pub fn spec_of(inst: &ProblemInstance) -> (DagSpec, SystemSpec) {
    let etc = inst.sys().etc();
    let rows = inst.dag().task_ids().map(|t| etc.row(t).to_vec()).collect();
    (
        DagSpec::from_dag(inst.dag()),
        system_spec(ProcessorsSpec::Etc { etc: rows }),
    )
}

/// One request serialized the way the protocol crate writes it, ending in
/// `\n`.
pub fn to_line(req: &Request) -> Vec<u8> {
    let mut line = serde_json::to_string(req)
        .expect("requests serialize")
        .into_bytes();
    line.push(b'\n');
    line
}

pub fn schedule_line(dag: DagSpec, system: SystemSpec, algorithm: &str) -> Vec<u8> {
    to_line(&Request::Schedule {
        dag,
        system,
        algorithm: algorithm.to_string(),
        options: RequestOptions::default(),
    })
}

/// Build the problem a `schedule` line names, exactly as the daemon does.
pub fn build_problem(dag: &DagSpec, system: &SystemSpec) -> Result<(Dag, System), String> {
    let d = dag.build().map_err(|e| format!("invalid dag: {e}"))?;
    let s = system
        .build(&d)
        .map_err(|e| format!("invalid system: {e}"))?;
    Ok((d, s))
}

// ---------------------------------------------------------------- cold

/// The fig10 grid the `cold` sizes cycle through.
pub const COLD_SIZES: [usize; 4] = [100, 200, 400, 800];
pub const COLD_PROCS: usize = 8;
/// The paper's comparison set with its share of `cold` draws, out of 20.
pub const COLD_ALGS: [(&str, usize); 7] = [
    ("HEFT", 6),
    ("ILS-H", 3),
    ("ILS-D", 3),
    ("CPOP", 2),
    ("PEFT", 2),
    ("HOFT", 2),
    ("DUP-HEFT", 2),
];

/// `count` never-repeated `schedule` requests. Request `i` has
/// `n = COLD_SIZES[i % 4]`; each size draws its algorithms from shuffled
/// blocks of 20 with exactly the shares of [`COLD_ALGS`], alternating an
/// explicit heterogeneous ETC matrix with a homogeneous system. Stratified
/// draws keep every window's mix, and so its latency quantiles, stable
/// across seeds.
pub fn cold_pool(seed: u64, count: usize) -> Vec<Vec<u8>> {
    let block: Vec<&'static str> = COLD_ALGS
        .iter()
        .flat_map(|&(a, k)| std::iter::repeat_n(a, k))
        .collect();
    let alg_for = |i: usize| {
        let (size, round) = (i % 4, i / 4);
        let mut order = block.clone();
        shuffle(
            &mut order,
            &mut rng_for(seed, STREAM_COLD_ALGS, (round / 20 * 4 + size) as u64),
        );
        order[round % 20]
    };
    let make = |i: usize| {
        let alg = alg_for(i);
        let procs = if (i / 4).is_multiple_of(2) {
            Procs::Etc(COLD_PROCS)
        } else {
            Procs::Homogeneous(COLD_PROCS)
        };
        let (_, dag, sys) = problem(
            COLD_SIZES[i % 4],
            procs,
            &mut rng_for(seed, STREAM_COLD, i as u64),
        );
        schedule_line(dag, sys, alg)
    };
    par_build(count, make)
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// Build `count` items on two threads (before any daemon runs).
fn par_build<T: Send>(count: usize, make: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let half = count / 2;
    let (mut a, b) = std::thread::scope(|s| {
        let hi = s.spawn(|| (half..count).map(&make).collect::<Vec<_>>());
        let lo = (0..half).map(&make).collect::<Vec<_>>();
        (lo, hi.join().expect("generator thread"))
    });
    a.extend(b);
    a
}

// ----------------------------------------------------------------- hot

/// Problems in the `hot` working set: twice the fleet's reply memo
/// (2 shards × 256), so the Zipf tail misses.
pub const HOT_SET: usize = 1024;
/// Share of `hot` requests drawn from the working set.
pub const HOT_WS_SHARE: f64 = 0.75;
/// Share of `hot` requests naming a problem never sent before.
pub const HOT_FRESH_SHARE: f64 = 0.15;
// The remaining 10% are `schedule_many` batches of 4–16 members.

/// A problem a `hot` request names: working-set rank, or a fresh problem.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Prob {
    Ws(u32),
    Fresh(u32),
}

pub struct HotReq {
    /// Arrival time, from the start of the window.
    pub due: Duration,
    pub line: Arc<[u8]>,
    /// Problems named, in order (one, or a batch's members).
    pub members: Vec<Prob>,
    pub batch: bool,
}

pub struct HotInputs {
    /// Working-set lines by popularity rank (rank 0 is the most popular).
    pub ws: Vec<Arc<[u8]>>,
    pub reqs: Vec<HotReq>,
}

fn hot_problem(rng: &mut StdRng) -> (DagSpec, SystemSpec) {
    let n = rng.gen_range(30..=60);
    let p = rng.gen_range(4..=8);
    let procs = if rng.gen_bool(0.5) {
        Procs::Homogeneous(p)
    } else {
        Procs::Speeds(p)
    };
    let (_, dag, sys) = problem(n, procs, rng);
    (dag, sys)
}

/// The `hot` working set and a Poisson arrival schedule at `rate` req/s
/// over `seconds`.
pub fn hot_inputs(seed: u64, rate: f64, seconds: f64) -> HotInputs {
    let specs: Vec<(DagSpec, SystemSpec)> = (0..HOT_SET)
        .map(|k| hot_problem(&mut rng_for(seed, STREAM_HOT_SET, k as u64)))
        .collect();
    let ws: Vec<Arc<[u8]>> = specs
        .iter()
        .map(|(d, s)| Arc::from(schedule_line(d.clone(), s.clone(), "HEFT")))
        .collect();
    // Zipf(s = 1) over ranks 1..=HOT_SET.
    let cdf: Vec<f64> = (1..=HOT_SET)
        .scan(0.0, |acc, k| {
            *acc += 1.0 / k as f64;
            Some(*acc)
        })
        .collect();
    let total = cdf[HOT_SET - 1];
    let mut rng = rng_for(seed, STREAM_HOT_ARRIVALS, 0);
    let mut fresh = 0u32;
    let mut draw = |rng: &mut StdRng, ws_share: f64| -> Prob {
        if rng.gen::<f64>() < ws_share {
            let u = rng.gen::<f64>() * total;
            Prob::Ws(cdf.partition_point(|&c| c < u).min(HOT_SET - 1) as u32)
        } else {
            fresh += 1;
            Prob::Fresh(fresh - 1)
        }
    };
    let spec_for = |p: Prob| match p {
        Prob::Ws(k) => specs[k as usize].clone(),
        Prob::Fresh(j) => hot_problem(&mut rng_for(seed, STREAM_HOT_FRESH, j as u64)),
    };
    let mut reqs = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= seconds {
            break;
        }
        let u = rng.gen::<f64>();
        let due = Duration::from_secs_f64(t);
        if u < HOT_WS_SHARE + HOT_FRESH_SHARE {
            let p = draw(&mut rng, HOT_WS_SHARE / (HOT_WS_SHARE + HOT_FRESH_SHARE));
            let line = match p {
                Prob::Ws(k) => ws[k as usize].clone(),
                Prob::Fresh(_) => {
                    let (d, s) = spec_for(p);
                    Arc::from(schedule_line(d, s, "HEFT"))
                }
            };
            reqs.push(HotReq {
                due,
                line,
                members: vec![p],
                batch: false,
            });
        } else {
            let k = rng.gen_range(4..=16);
            let members: Vec<Prob> = (0..k)
                .map(|_| draw(&mut rng, HOT_WS_SHARE / (HOT_WS_SHARE + HOT_FRESH_SHARE)))
                .collect();
            let instances = members
                .iter()
                .map(|&p| {
                    let (dag, system) = spec_for(p);
                    InstanceSpec { dag, system }
                })
                .collect();
            let line = to_line(&Request::ScheduleMany {
                instances,
                algorithm: "HEFT".to_string(),
                options: RequestOptions::default(),
            });
            reqs.push(HotReq {
                due,
                line: Arc::from(line),
                members,
                batch: true,
            });
        }
    }
    HotInputs { ws, reqs }
}

// --------------------------------------------------------------- patch

/// Chains in the `patch` workload; each has its own parent problem.
pub const PATCH_CHAINS: usize = 8;
pub const PATCH_SIZES: [usize; 2] = [800, 1600];
pub const PATCH_ALGS: [&str; 2] = ["HEFT", "HOFT"];
const PARENT_PLACEHOLDER: &str = "0000000000000000";

/// One timed `patch` request, missing only its parent fingerprint.
pub struct PatchStep {
    /// The deltas as the daemon will parse them from the line.
    pub deltas: Vec<Delta>,
    prefix: Vec<u8>,
    suffix: Vec<u8>,
}

impl PatchStep {
    /// The request line naming `parent` (16 hex digits).
    pub fn line(&self, parent: &str) -> Vec<u8> {
        let mut line = Vec::with_capacity(self.prefix.len() + 16 + self.suffix.len());
        line.extend_from_slice(&self.prefix);
        line.extend_from_slice(parent.as_bytes());
        line.extend_from_slice(&self.suffix);
        line
    }
}

pub struct Chain {
    pub alg: &'static str,
    pub parent_line: Vec<u8>,
    pub steps: Vec<PatchStep>,
}

/// Eight parents with explicit ETC (n ∈ {800, 1600}, HEFT or HOFT), each
/// with `steps` patches of 1–3 field-level deltas.
pub fn patch_chains(seed: u64, steps: usize) -> Vec<Chain> {
    par_build(PATCH_CHAINS, |c| {
        let n = PATCH_SIZES[c % 2];
        let alg = PATCH_ALGS[(c / 2) % 2];
        let mut rng = rng_for(seed, STREAM_PATCH, c as u64);
        let (dag, dspec, sspec) = problem(n, Procs::Etc(COLD_PROCS), &mut rng);
        let steps = (0..steps)
            .map(|_| patch_step(&dag, alg, &mut rng))
            .collect();
        Chain {
            alg,
            parent_line: schedule_line(dspec, sspec, alg),
            steps,
        }
    })
}

fn patch_step(dag: &Dag, alg: &str, rng: &mut StdRng) -> PatchStep {
    let scale = |rng: &mut StdRng, v: f64| v * rng.gen_range(0.5..1.5);
    let deltas: Vec<Delta> = (0..rng.gen_range(1..=3))
        .map(|_| {
            let t = TaskId(rng.gen_range(0..dag.num_tasks() as u32));
            match rng.gen_range(0..3) {
                0 => Delta::EtcEntry {
                    task: t,
                    proc: ProcId(rng.gen_range(0..COLD_PROCS as u32)),
                    time: scale(rng, dag.task_weight(t)),
                },
                1 => Delta::TaskWeight {
                    task: t,
                    weight: scale(rng, dag.task_weight(t)),
                },
                _ => {
                    let e = dag.edges()[rng.gen_range(0..dag.num_edges())];
                    Delta::EdgeData {
                        src: e.src,
                        dst: e.dst,
                        data: scale(rng, e.data),
                    }
                }
            }
        })
        .collect();
    let line = to_line(&Request::Patch {
        parent: PARENT_PLACEHOLDER.to_string(),
        algorithm: alg.to_string(),
        deltas,
        options: RequestOptions::default(),
    });
    let key = format!("\"parent\":\"{PARENT_PLACEHOLDER}\"");
    let at = find(&line, key.as_bytes()).expect("patch line names its parent") + key.len() - 17;
    // Keep the deltas as the daemon reads them back from the line.
    let deltas = match Request::parse(std::str::from_utf8(&line).expect("utf-8 line").trim_end()) {
        Ok(Request::Patch { deltas, .. }) => deltas,
        other => panic!("patch line does not parse back: {other:?}"),
    };
    PatchStep {
        deltas,
        prefix: line[..at].to_vec(),
        suffix: line[at + 16..].to_vec(),
    }
}

pub fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}
