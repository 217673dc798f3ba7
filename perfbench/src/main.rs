//! `perfbench` — the end-to-end serving benchmark.
//!
//! Starts the real `hetsched-cli serve` daemon (alone, or as
//! `serve --shards 2`) as a child process, drives one seeded workload at
//! it over TCP, checks every reply against the library, and prints every
//! metric with its unit; the last stdout line is the JSON result. With
//! `--trace 1` a separate traced pass replays the same inputs and reports
//! per-layer numbers instead. See `perfbench/README.md`.

mod cold;
mod gen;
mod hot;
mod layers;
mod net;
mod patch;
mod report;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use net::{Conn, Daemon};
use report::Outcome;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Path of the `hetsched-cli` binary to start.
    pub cli: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            cli: PathBuf::from("target/release/hetsched-cli"),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {v}: {e}");
            match flag.as_str() {
                "--workload" => a.workload = v,
                "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
                "--seconds" => a.seconds = v.parse().map_err(|e| bad(&e))?,
                "--trace" => a.trace = v.parse::<u8>().map_err(|e| bad(&e))? != 0,
                "--cli" => a.cli = PathBuf::from(v),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if a.seconds.is_nan() || a.seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        if !a.cli.is_file() {
            return Err(format!("no daemon binary at {}", a.cli.display()));
        }
        Ok(a)
    }

    /// Where the traced pass writes its span file.
    pub fn span_file(&self) -> PathBuf {
        PathBuf::from(format!(
            "perfbench/out/spans-{}-{}.ndjson",
            self.workload, self.seed
        ))
    }
}

/// Start the daemon and warm it, `reps` times, keeping the last one (an
/// untraced run repeats set-up and reports the median as `setup_s`): each
/// set-up is timed from child spawn to the first `hello` answered on every
/// one of `conns` connections, plus `warm`. Returns the running daemon,
/// its connections, the last warm-up's result and the median set-up time.
pub fn setup<W>(
    a: &Args,
    shards: usize,
    conns: usize,
    reps: usize,
    mut warm: impl FnMut(&mut [Conn]) -> Result<W, String>,
) -> Result<(Daemon, Vec<Conn>, W, f64), String> {
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        let t0 = Instant::now();
        let daemon = Daemon::spawn(&a.cli, shards)?;
        let mut cs = (0..conns)
            .map(|_| daemon.hello())
            .collect::<Result<Vec<_>, _>>()?;
        let w = warm(&mut cs)?;
        times.push(t0.elapsed().as_secs_f64());
        if rep + 1 == reps {
            return Ok((daemon, cs, w, report::quantile(&times, 0.5)));
        }
        drop(cs);
        daemon.stop()?;
    }
    unreachable!("reps is at least one")
}

fn run(a: &Args) -> Result<Outcome, String> {
    match a.workload.as_str() {
        "cold" => cold::run(a),
        "hot" => hot::run(a),
        "patch" => patch::run(a),
        w => Err(format!("unknown workload `{w}` (cold, hot, patch)")),
    }
}

fn main() {
    let started = Instant::now();
    let outcome = Args::parse().and_then(|a| {
        let out = run(&a)?;
        eprintln!(
            "perfbench: {} seed {} done in {:.1} s",
            a.workload,
            a.seed,
            started.elapsed().as_secs_f64()
        );
        Ok(out)
    });
    match outcome {
        Ok(out) => {
            out.print();
            if !out.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// `d` as a window length.
pub fn secs(d: f64) -> Duration {
    Duration::from_secs_f64(d)
}
