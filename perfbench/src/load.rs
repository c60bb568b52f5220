//! The benchmark's own load generator: open-loop readers and a paced
//! writer.
//!
//! Reads arrive on a fixed schedule (request `i` is due `i / rate` seconds
//! into the phase) whether or not earlier ones have finished, and a fixed
//! pool of worker threads serves them. Each read is timed from its due
//! time, so a stall also charges the requests queued behind it. The writer
//! is one thread of its own that commits waves of new users at a fixed
//! rate and checkpoints on a fixed cadence; it never runs on a read
//! worker.

use crate::trace::Tracer;
use mlp_core::{response_determinism_hash, ProfileRequest, ServingEngine};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A read that has waited this long past its due time is refused rather
/// than started, so an overloaded phase sheds load instead of running on.
const REFUSE_AFTER_MS: f64 = 1_000.0;

/// Read latency tails are taken per window of this many reads, so a p99
/// has ten samples beyond it.
pub const READS_PER_WINDOW: usize = 1_000;

/// Read latency medians are taken per window of this many reads: shorter
/// windows give the quantile across windows more of them to choose from
/// (18 in `serve_churn`, where four windows of 1,000 left only their
/// minimum).
pub const READS_PER_MEDIAN_WINDOW: usize = 250;

/// Quantile across windows (or across repeats) that a run reports. Host
/// interference such as CPU steal only ever adds time and comes in bursts
/// of seconds, so the lower quartile tracks the engine while the median
/// and the pooled figure, printed beside it, still show the bursts. A
/// slowdown of the engine itself moves every window.
pub const ACROSS_WINDOWS: f64 = 0.25;

/// Start delay, at the median, past which a phase's backlog counts as
/// grown. Below saturation the median read starts within a fraction of a
/// millisecond of its due time.
const BACKLOG_MS: f64 = 5.0;

/// One served read, in milliseconds since its phase started.
#[derive(Debug, Clone, Copy)]
pub struct ReadSample {
    pub due_ms: f64,
    pub start_ms: f64,
    pub end_ms: f64,
    /// Index into the request pool.
    pub user: usize,
}

/// What one open-loop read phase did.
#[derive(Debug, Default)]
pub struct ReadPhase {
    pub rate: f64,
    pub window_s: f64,
    pub workers: usize,
    pub samples: Vec<ReadSample>,
    /// Reads the engine answered with an error.
    pub failed: u64,
    /// Reads not started because they were already too late.
    pub refused: u64,
    /// Epoch-0 reads whose answer differed from the untimed reference pass.
    pub mismatched: u64,
}

impl ReadPhase {
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64 + self.failed + self.refused
    }

    /// Latency of each served read from its due time, sorted (ms).
    pub fn latency_ms(&self) -> Vec<f64> {
        sorted(self.samples.iter().map(|s| s.end_ms - s.due_ms).collect())
    }

    /// How late each read started, sorted (ms).
    pub fn start_late_ms(&self) -> Vec<f64> {
        sorted(self.samples.iter().map(|s| s.start_ms - s.due_ms).collect())
    }

    /// Share of the workers' time spent serving.
    pub fn busy_frac(&self) -> f64 {
        let busy: f64 = self.samples.iter().map(|s| s.end_ms - s.start_ms).sum();
        busy / (self.workers as f64 * self.window_s * 1e3)
    }

    /// Served reads per second, from the first due time to the last answer.
    pub fn achieved_rps(&self) -> f64 {
        let last_ms = self.samples.iter().map(|s| s.end_ms).fold(0.0, f64::max);
        self.samples.len() as f64 * 1e3 / last_ms.max(f64::MIN_POSITIVE)
    }

    /// Whether the backlog grew: the median read started more than
    /// `BACKLOG_MS` late. Under a rate the workers cannot keep up with,
    /// every read starts later than the one before; one heavy request
    /// delays only the reads queued behind it.
    pub fn backlog_grew(&self) -> bool {
        self.samples.is_empty() || quantile(&self.start_late_ms(), 0.5) > BACKLOG_MS
    }

    /// Read latency quantile `q` within each window (of
    /// `READS_PER_MEDIAN_WINDOW` reads up to the median, else of
    /// `READS_PER_WINDOW`), summarized across windows by the quantile
    /// `across`, and the window count.
    pub fn windowed_latency_ms(&self, q: f64, across: f64) -> (f64, usize) {
        let by_due: Vec<f64> = self.samples.iter().map(|s| s.end_ms - s.due_ms).collect();
        let per_window = if q <= 0.5 { READS_PER_MEDIAN_WINDOW } else { READS_PER_WINDOW };
        windowed_quantile(&by_due, per_window, q, across)
    }

    /// The phase met its rate: nothing failed or was refused, the backlog
    /// did not grow and the read p99 is within the limit.
    pub fn meets(&self, limit_ms: f64) -> bool {
        self.failed == 0
            && self.refused == 0
            && !self.samples.is_empty()
            && !self.backlog_grew()
            && self.windowed_latency_ms(0.99, 0.5).0 <= limit_ms
    }
}

/// The read schedule: which request is sent `i`-th, and the answer each
/// request must get while the engine still serves epoch 0.
pub struct ReadSet<'r> {
    pub pool: &'r [ProfileRequest],
    pub order: &'r [u32],
    pub oracle: &'r [u64],
}

/// Serves `rate` reads per second for `window_s` seconds on `workers`
/// threads, starting at `start`. `req_base` numbers the phase's requests
/// in the trace; `offset` picks where in the schedule the phase begins.
#[allow(clippy::too_many_arguments)]
pub fn run_reads(
    engine: &ServingEngine<'_>,
    reads: &ReadSet<'_>,
    offset: usize,
    rate: f64,
    window_s: f64,
    workers: usize,
    start: Instant,
    tracer: &Tracer,
    req_base: u64,
) -> ReadPhase {
    let next = AtomicUsize::new(0);
    let per_worker: Vec<(Vec<ReadSample>, u64, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let (mut samples, mut failed, mut refused, mut mismatched) =
                        (Vec::new(), 0, 0, 0);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let due_ms = i as f64 * 1e3 / rate;
                        if due_ms >= window_s * 1e3 {
                            break;
                        }
                        sleep_until(start, due_ms);
                        let start_ms = ms_since(start);
                        if start_ms - due_ms > REFUSE_AFTER_MS {
                            refused += 1;
                            continue;
                        }
                        let user = reads.order[(offset + i) % reads.order.len()] as usize;
                        let request = std::slice::from_ref(&reads.pool[user]);
                        let req = req_base + i as u64;
                        let answer = tracer.span("load.read", 0, req, |id| {
                            let handle = tracer.span("engine.pin", id, req, |_| engine.snapshot());
                            tracer.span("infer.fold_in", id, req, |_| {
                                engine.profile_batch_on(&handle, request)
                            })
                        });
                        let end_ms = ms_since(start);
                        match answer {
                            Ok(responses) => {
                                if responses[0].epoch == 0
                                    && response_determinism_hash(&responses) != reads.oracle[user]
                                {
                                    mismatched += 1;
                                }
                                samples.push(ReadSample { due_ms, start_ms, end_ms, user });
                            }
                            Err(_) => failed += 1,
                        }
                    }
                    (samples, failed, refused, mismatched)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("read worker panicked")).collect()
    });
    let mut phase = ReadPhase { rate, window_s, workers: workers.max(1), ..Default::default() };
    for (samples, failed, refused, mismatched) in per_worker {
        phase.samples.extend(samples);
        phase.failed += failed;
        phase.refused += refused;
        phase.mismatched += mismatched;
    }
    phase.samples.sort_by(|a, b| a.due_ms.total_cmp(&b.due_ms));
    phase
}

/// One commit, in milliseconds since its phase started.
#[derive(Debug, Clone, Copy)]
pub struct CommitSample {
    pub due_ms: f64,
    pub start_ms: f64,
    pub end_ms: f64,
    /// CPU time the writer thread spent in the commit.
    pub cpu_ms: f64,
}

/// What one writer phase did.
#[derive(Debug, Default)]
pub struct WritePhase {
    pub commits: Vec<CommitSample>,
    pub checkpoint_ms: Vec<f64>,
    /// Write-ahead log growth of each commit (bytes).
    pub wal_bytes: Vec<u64>,
    pub failed: u64,
    pub epochs_published: u64,
    /// `is_mapped()` right after the first commit.
    pub zero_copy_after_commit: bool,
    pub rss_anon_growth_mib: f64,
}

impl WritePhase {
    pub fn attempted(&self) -> u64 {
        (self.commits.len() + self.checkpoint_ms.len()) as u64 + self.failed
    }

    /// Commit-to-publish latency of each wave from its due time, in due
    /// order (ms).
    pub fn commit_by_due_ms(&self) -> Vec<f64> {
        self.commits.iter().map(|c| c.end_ms - c.due_ms).collect()
    }

    /// CPU time of each commit, in due order (ms).
    pub fn commit_cpu_ms(&self) -> Vec<f64> {
        self.commits.iter().map(|c| c.cpu_ms).collect()
    }

    /// How late each wave started, sorted (ms).
    pub fn start_late_ms(&self) -> Vec<f64> {
        sorted(self.commits.iter().map(|c| c.start_ms - c.due_ms).collect())
    }
}

/// Commits waves of `wave` users from `pool` (taken in order from
/// `*cursor`, wrapping) at `rate` per second for `window_s` seconds,
/// checkpointing after every `checkpoint_every` commits.
#[allow(clippy::too_many_arguments)]
pub fn run_writes(
    engine: &ServingEngine<'_>,
    pool: &[ProfileRequest],
    cursor: &mut usize,
    wave: usize,
    rate: f64,
    window_s: f64,
    checkpoint_every: usize,
    start: Instant,
    tracer: &Tracer,
    req_base: u64,
) -> WritePhase {
    let mut phase = WritePhase::default();
    let epoch_before = engine.epoch();
    let rss_before = crate::report::rss_anon_mib();
    let mut log_before = engine.log_bytes().unwrap_or(0);
    for k in 0.. {
        let due_ms = k as f64 * 1e3 / rate;
        if due_ms >= window_s * 1e3 {
            break;
        }
        sleep_until(start, due_ms);
        let batch: Vec<ProfileRequest> =
            (0..wave).map(|j| pool[(*cursor + j) % pool.len()].clone()).collect();
        *cursor += wave;
        let req = req_base + k as u64;
        let start_ms = ms_since(start);
        let cpu_before = thread_cpu_ms();
        let committed = tracer.span("load.commit", 0, req, |id| {
            tracer.span("engine.refresh", id, req, |_| engine.refresh(&batch))
        });
        let cpu_ms = thread_cpu_ms() - cpu_before;
        let end_ms = ms_since(start);
        if committed.is_err() {
            phase.failed += 1;
            continue;
        }
        phase.commits.push(CommitSample { due_ms, start_ms, end_ms, cpu_ms });
        let log_now = tracer.span("engine.log_bytes", 0, req, |_| engine.log_bytes()).unwrap_or(0);
        phase.wal_bytes.push(log_now.saturating_sub(log_before));
        log_before = log_now;
        if phase.commits.len() == 1 {
            phase.zero_copy_after_commit =
                tracer.span("engine.is_mapped", 0, req, |_| engine.is_mapped());
        }
        if phase.commits.len() % checkpoint_every == 0 {
            let t = Instant::now();
            match tracer.span("engine.checkpoint", 0, req, |_| engine.checkpoint()) {
                Ok(true) => phase.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3),
                _ => phase.failed += 1,
            }
            log_before = engine.log_bytes().unwrap_or(0);
        }
    }
    phase.epochs_published = engine.epoch() - epoch_before;
    phase.rss_anon_growth_mib = crate::report::rss_anon_mib() - rss_before;
    phase
}

/// CPU time this thread has run (ms). `refresh` folds a wave in on the
/// calling thread (the serving fold-in runs one thread), so around it this
/// is the commit's CPU work. The kernel keeps time the hypervisor stole
/// from the vCPU out of this clock, unlike the wall clock.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable timespec with the C layout of the
    // 64-bit Linux ABI, and the clock id is a valid constant.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ms() -> f64 {
    f64::NAN
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn sleep_until(start: Instant, due_ms: f64) {
    let wait = due_ms - ms_since(start);
    if wait > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(wait / 1e3));
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile of sorted values (`0.0` when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q` quantile within each consecutive window of `per_window`
/// values (in due order), summarized across windows by the quantile
/// `across`, with the window count. With fewer than two whole windows it
/// is the quantile of all values.
pub fn windowed_quantile(by_due: &[f64], per_window: usize, q: f64, across: f64) -> (f64, usize) {
    let windows = by_due.len() / per_window.max(1);
    if windows < 2 {
        return (quantile(&sorted(by_due.to_vec()), q), 1);
    }
    let per: Vec<f64> =
        by_due.chunks_exact(per_window).map(|w| quantile(&sorted(w.to_vec()), q)).collect();
    (quantile(&sorted(per), across), windows)
}
