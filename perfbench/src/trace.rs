//! In-memory spans for the traced pass, their self times, and the span
//! file written at the end.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: String,
    /// The request the span belongs to.
    pub req: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Record a span measured elsewhere (a client round trip).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            req,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: impl Into<String>, req: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, req, parent, now, now)
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Time one call as a span.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let name = name.into();
        let start = Instant::now();
        let r = std::hint::black_box(f());
        self.record(name, req, parent, start, Instant::now());
        r
    }

    /// Self time of every span, µs: its duration minus the part of that
    /// interval its child spans cover.
    pub fn self_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(Instant, Instant)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start.max(s.start), c.end.min(s.end))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort();
                let mut covered = 0.0;
                let mut reach = s.start;
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += (b - a).as_secs_f64();
                        reach = b;
                    }
                }
                ((s.end - s.start).as_secs_f64() - covered) * 1e6
            })
            .collect()
    }

    /// Self times (µs) of the spans named `name`, by request.
    pub fn by_name(&self, name: &str) -> Vec<(u64, f64)> {
        let own = self.self_us();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(s, t)| (s.req, t))
            .collect()
    }

    /// Mean self time (µs) of the spans named `name` (0 when none ran).
    pub fn mean_us(&self, name: &str) -> f64 {
        let v: Vec<f64> = self.by_name(name).into_iter().map(|(_, t)| t).collect();
        crate::report::mean(&v)
    }

    /// Write every span as one JSON object per line: name, request,
    /// span id, parent id, start and end in µs since the run began, and
    /// self time.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        let off = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        for (i, (s, own)) in self.spans.iter().zip(self.self_us()).enumerate() {
            let v = serde_json::json!({
                "id": i,
                "name": s.name,
                "req": s.req,
                "parent": s.parent,
                "start_us": off(s.start),
                "end_us": off(s.end),
                "self_us": own,
            });
            writeln!(f, "{}", serde_json::to_string(&v).expect("span serializes"))?;
        }
        f.flush()
    }
}
