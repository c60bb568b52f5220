//! In-memory span recorder for the traced run.
//!
//! Spans are taken around the public calls the benchmark makes into the
//! program; nothing inside the program is instrumented. Each span keeps
//! its name, start, end, the span that caused it and the request it
//! belongs to. They stay in memory until the run ends and are then
//! written out as JSON lines, each with its self time (duration minus the
//! time its child spans cover).

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was made.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans when switched on; a disabled tracer only runs the
/// closure, so the untraced run pays one branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`. `f` receives the span id, to
    /// pass as the parent of nested spans (0 when tracing is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let span = Span { id, parent, req, name, start_ns, end_ns };
        self.spans.lock().expect("span buffer poisoned by a panicking worker").push(span);
        out
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans =
            self.spans.lock().expect("span buffer poisoned by a panicking worker").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time of every span in milliseconds, keyed by span id.
pub fn self_times_ms(spans: &[Span]) -> HashMap<u64, f64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    spans
        .iter()
        .map(|s| {
            let own =
                (s.end_ns - s.start_ns).saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            (s.id, own as f64 / 1e6)
        })
        .collect()
}

/// Per span name: count, total time and total self time (ms), by name.
pub fn summarize(spans: &[Span]) -> Vec<(&'static str, usize, f64, f64)> {
    let selfs = self_times_ms(spans);
    let mut by_name: HashMap<&'static str, (usize, f64, f64)> = HashMap::new();
    for s in spans {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ms();
        e.2 += selfs[&s.id];
    }
    let mut rows: Vec<_> = by_name.into_iter().map(|(n, (c, t, o))| (n, c, t, o)).collect();
    rows.sort_by(|a, b| a.0.cmp(b.0));
    rows
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let selfs = self_times_ms(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
            s.id,
            s.parent,
            s.req,
            s.name,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            selfs[&s.id] * 1e3
        )?;
    }
    out.flush()
}
