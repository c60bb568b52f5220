//! One benchmark for MLP training and serving, driven through the public
//! API of `mlp-core` and `mlp-social`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve|serve_churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run sets up three times (set-up time is their median), checks
//! the answers, runs the workload's measured phases for about `--seconds`
//! seconds and prints a report. Its last line is one JSON object: the
//! end-to-end metrics with `--trace 0`, or with `--trace 1` the per-layer
//! metrics taken from spans recorded around each public call. A run whose
//! correctness checks fail prints `"correct": false` and exits with 1.
//! `perfbench/README.md` describes the workloads and every metric.

mod load;
mod report;
mod trace;

use load::{
    quantile, run_reads, run_writes, sorted, windowed_quantile, ReadPhase, ReadSet, WritePhase,
    ACROSS_WINDOWS,
};
use mlp_core::{response_determinism_hash, MlpConfig, ProfileRequest, ServingEngine};
use mlp_eval::metrics::acc_at_m;
use mlp_gazetteer::{CityId, Gazetteer};
use mlp_sampling::{Pcg64, SplitMix64};
use mlp_social::{
    CorpusReader, Dataset, GeneratedData, Generator, GeneratorConfig, StreamingGenerator, UserId,
};
use report::{median, metric, Metric};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Users the posterior is trained on.
const TRAINED_USERS: usize = 10_000;
/// Held-out users the readers ask about (never trained, never absorbed).
const READ_USERS: usize = 3_000;
/// Further held-out users the writer absorbs, disjoint from the readers'.
const WRITE_USERS: usize = 4_000;
/// Share of users whose home is registered (the rest are what training infers).
const REGISTERED_FRACTION: f64 = 0.8;
const SWEEPS: usize = 4;
const SHARDS: usize = 4;
const RECONCILE_EVERY: usize = 2;
const CORPUS_CHUNK: usize = 2_500;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: u64 = 3;
/// Repeated opens of the artifact; `open_ms` is their median.
const OPENS: u64 = 9;
/// Requests in the fixed batch whose answer hash must repeat.
const VERIFY_BATCH: usize = 64;
/// Nominal read rate of `serve`, on `nproc` read workers.
const READ_RATE: f64 = 400.0;
/// Nominal read rate of `serve_churn`, on `nproc - 1` read workers, so the
/// writer keeps a core of its own: with a read worker per core, reads
/// waking beside a commit preempted it, and commit latency followed the
/// host's load rather than the engine.
const CHURN_READ_RATE: f64 = 200.0;
const COMMIT_RATE: f64 = 20.0;
const WAVE_USERS: usize = 8;
const CHECKPOINT_EVERY: usize = 20;
/// Read p99 a rate must keep to count as met. On a shared two-core host,
/// CPU steal alone lifts read p99 near 10 ms at modest rates, so the limit
/// sits where queueing, not host noise, decides.
const LATENCY_LIMIT_MS: f64 = 50.0;
/// The ramp starts at `RAMP_START` times the serve rate and multiplies by
/// `RAMP_FACTOR` until a step misses the limit (or divides by it until one
/// meets it, when the first step misses), then tries the rates
/// `RAMP_REFINE` times the last rate met. Every step sends the whole read
/// set once, in the same order.
const RAMP_START: f64 = 2.0;
const RAMP_FACTOR: f64 = 1.25;
const RAMP_STEPS: i32 = 10;
const RAMP_REFINE: [f64; 2] = [1.08, 1.16];
/// Commit quantiles are taken per window of this many commits, so a p90
/// has ten samples beyond it, and summarized across windows by
/// `ACROSS_WINDOWS`, as read latency is.
const COMMITS_PER_WINDOW: usize = 100;
/// Shares of `--seconds` given to the main phase (rounded to whole passes
/// over the read set at `READ_RATE`; `serve_churn` reads for as long at its
/// own rate) and to the writer alone.
const MAIN_SHARE: f64 = 0.8;
const IDLE_WRITE_SHARE: f64 = 0.4;

/// Request-id ranges that tell the phases apart in the trace.
const REQ_MAIN: u64 = 1 << 40;
const REQ_RAMP: u64 = 2 << 40;
const REQ_WRITE: u64 = 3 << 40;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Read-only open-loop serving of held-out users; in-memory trainer.
    Serve,
    /// The same reads beside a durable writer; out-of-core trainer.
    ServeChurn,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "serve" => Some(Self::Serve),
            "serve_churn" => Some(Self::ServeChurn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Serve => "serve",
            Self::ServeChurn => "serve_churn",
        }
    }

    /// Rate and read workers of the main phase.
    fn main_reads(self, nproc: usize) -> (f64, usize) {
        match self {
            Self::Serve => (READ_RATE, nproc),
            Self::ServeChurn => (CHURN_READ_RATE, nproc.saturating_sub(1).max(1)),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: Workload::Serve, seed: 1, seconds: 30.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench");
    let run_dir = out_dir.join(format!("run-{}", std::process::id()));
    let outcome = std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("cannot create {}: {e}", run_dir.display()))
        .and_then(|()| run(&args, &run_dir));
    std::fs::remove_dir_all(&run_dir).ok();
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            std::process::exit(1);
        }
    };

    let history = out_dir.join("history.tsv");
    let recorded: Vec<Metric> = outcome.end_to_end.iter().chain(&outcome.tails).cloned().collect();
    if let Err(e) =
        report::append_history(&history, args.workload.name(), args.seed, args.trace, &recorded)
    {
        eprintln!("perfbench: history not recorded: {e}");
    }
    for line in report::envelope_lines(&history, args.workload.name(), &recorded) {
        println!("{line}");
    }
    if args.trace {
        let traces = out_dir.join("traces");
        let path = traces.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        match std::fs::create_dir_all(&traces)
            .and_then(|()| trace::write_jsonl(&outcome.spans, &path))
        {
            Ok(()) => {
                println!("trace: {} spans written to {}", outcome.spans.len(), path.display())
            }
            Err(e) => eprintln!("perfbench: trace not written: {e}"),
        }
    }
    let correct = outcome.checks.iter().all(|(_, ok)| *ok);
    let shown = if args.trace { &outcome.per_layer } else { &outcome.end_to_end };
    println!("{}", report::result_json(correct, outcome.attempted, outcome.failed, shown));
    if !correct {
        std::process::exit(1);
    }
}

/// Everything a run measured and checked.
struct Outcome {
    end_to_end: Vec<Metric>,
    /// Latency tails and the ramp's rate: printed and recorded with the
    /// end-to-end metrics, emitted with the per-layer ones.
    tails: Vec<Metric>,
    per_layer: Vec<Metric>,
    checks: Vec<(String, bool)>,
    attempted: u64,
    failed: u64,
    spans: Vec<trace::Span>,
}

/// Operation counts of one phase.
struct PhaseCount {
    name: &'static str,
    attempted: u64,
    failed: u64,
    refused: u64,
}

/// Sizes and rates of the run, printed with its results.
struct Params {
    nproc: usize,
    main_s: f64,
    idle_write_s: f64,
}

impl Params {
    fn new(seconds: f64) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let passes = (seconds * MAIN_SHARE * READ_RATE / READ_USERS as f64).round().max(1.0);
        Self {
            nproc,
            main_s: passes * READ_USERS as f64 / READ_RATE,
            idle_write_s: seconds * IDLE_WRITE_SHARE,
        }
    }
}

fn gen_config(users: usize, seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        num_users: users,
        seed,
        registered_fraction: REGISTERED_FRACTION,
        ..Default::default()
    }
}

fn mlp_config(nproc: usize, seed: u64) -> MlpConfig {
    MlpConfig {
        iterations: SWEEPS,
        burn_in: SWEEPS / 2,
        threads: nproc,
        seed,
        ..Default::default()
    }
}

/// Durable, mapped open with default integrity and auto-compaction off,
/// so every checkpoint is an explicit call.
fn open_durable<'g>(gaz: &'g Gazetteer, path: &Path) -> Result<ServingEngine<'g>, String> {
    ServingEngine::builder(gaz)
        .wal_compact_threshold(u64::MAX)
        .from_artifact_file(path)
        .map_err(|e| e.to_string())
}

/// One set-up: inputs generated, posterior trained, artifact written and
/// opened durable.
struct Built<'g> {
    engine: ServingEngine<'g>,
    artifact: PathBuf,
    /// Source of the held-out users (and, for `serve`, of the trained ones).
    data: GeneratedData,
    setup_s: f64,
    train_s: f64,
    /// Assignment variables resampled by training: sweeps × (edges + mentions).
    vars_resampled: f64,
    artifact_bytes: usize,
}

fn setup<'g>(
    gaz: &'g Gazetteer,
    workload: Workload,
    p: &Params,
    seed: u64,
    dir: &Path,
    tracer: &Tracer,
    k: u64,
) -> Result<Built<'g>, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let artifact = dir.join("model.mlps");
    let total = TRAINED_USERS + READ_USERS + WRITE_USERS;
    let started = Instant::now();
    tracer.span("setup", 0, k, |root| {
        let (engine, data, vars, train_s) = match workload {
            Workload::Serve => {
                let data = tracer.span("social.generate", root, k, |_| {
                    Generator::new(gaz, gen_config(total, seed)).generate()
                });
                let trained = data.dataset.prefix(TRAINED_USERS);
                let vars = SWEEPS * (trained.num_edges() + trained.num_mentions());
                let t = Instant::now();
                let engine = tracer
                    .span("model.train", root, k, |_| {
                        ServingEngine::builder(gaz)
                            .mlp_config(mlp_config(p.nproc, seed))
                            .train(&trained)
                    })
                    .map_err(|e| e.to_string())?;
                (engine, data, vars, t.elapsed().as_secs_f64())
            }
            Workload::ServeChurn => {
                let corpus = dir.join("corpus");
                let manifest = tracer
                    .span("social.write_corpus", root, k, |_| {
                        StreamingGenerator::new(gaz, gen_config(TRAINED_USERS, seed), CORPUS_CHUNK)
                            .write_corpus(&corpus)
                    })
                    .map_err(|e| e.to_string())?;
                let t = Instant::now();
                let engine = tracer
                    .span("shard.train_corpus", root, k, |_| {
                        ServingEngine::builder(gaz)
                            .mlp_config(mlp_config(p.nproc, seed))
                            .shards(SHARDS)
                            .reconcile_every(RECONCILE_EVERY)
                            .train_corpus(&corpus)
                    })
                    .map_err(|e| e.to_string())?;
                let train_s = t.elapsed().as_secs_f64();
                // The held-out users come from the same generator over a
                // larger population: per-user streams give every trained
                // user the same profile there (checked after set-up).
                let data = tracer.span("social.generate", root, k, |_| {
                    StreamingGenerator::new(gaz, gen_config(total, seed), CORPUS_CHUNK).generate()
                });
                let vars = SWEEPS * (manifest.total_edges + manifest.total_mentions) as usize;
                (engine, data, vars, train_s)
            }
        };
        let artifact_bytes = tracer
            .span("snapshot.write_artifact", root, k, |_| engine.write_artifact(&artifact))
            .map_err(|e| e.to_string())?;
        drop(engine);
        let engine = tracer.span("snapshot.open", root, k, |_| open_durable(gaz, &artifact))?;
        Ok(Built {
            engine,
            artifact: artifact.clone(),
            data,
            setup_s: started.elapsed().as_secs_f64(),
            train_s,
            vars_resampled: vars as f64,
            artifact_bytes,
        })
    })
}

/// Requests for held-out users `ids`, keeping only neighbours the
/// posterior knows.
fn held_out(dataset: &Dataset, ids: std::ops::Range<usize>) -> Vec<ProfileRequest> {
    let ids: Vec<UserId> = ids.map(|u| UserId(u as u32)).collect();
    let mut pool = ProfileRequest::batch_from_dataset(dataset, &ids);
    for r in &mut pool {
        r.observations.neighbors.retain(|n| n.index() < TRAINED_USERS);
    }
    pool
}

/// A seeded permutation of `0..n`.
fn seeded_order(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = Pcg64::new(SplitMix64::derive(seed, 0x5EED_0DE2));
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.next_bounded(i + 1));
    }
    order
}

/// Answer hash of the fixed verification batch on the current epoch.
fn verify_hash(engine: &ServingEngine<'_>, batch: &[ProfileRequest]) -> Result<u64, String> {
    let responses =
        engine.profile_batch_on(&engine.snapshot(), batch).map_err(|e| e.to_string())?;
    Ok(response_determinism_hash(&responses))
}

/// The untimed reference pass: every read user served once, the way the
/// timed reads serve them. Returns each answer's hash and home, and how
/// many answers were malformed or failed.
fn reference_pass(
    engine: &ServingEngine<'_>,
    pool: &[ProfileRequest],
    threads: usize,
) -> (Vec<u64>, Vec<Option<CityId>>, u64) {
    let handle = engine.snapshot();
    let per = pool.len().div_ceil(threads.max(1));
    let parts: Vec<Vec<(u64, Option<CityId>, bool)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = pool
            .chunks(per)
            .map(|chunk| {
                let handle = &handle;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|r| match engine.profile_batch_on(handle, std::slice::from_ref(r)) {
                            Ok(resp) => {
                                let ranked = resp[0].ranked.as_slice();
                                let well_formed = !ranked.is_empty()
                                    && ranked
                                        .iter()
                                        .all(|&(_, p)| p.is_finite() && (0.0..=1.0).contains(&p))
                                    && ranked.windows(2).all(|w| w[0].1 >= w[1].1);
                                (
                                    response_determinism_hash(&resp),
                                    Some(resp[0].ranked.home()),
                                    well_formed,
                                )
                            }
                            Err(_) => (0, None, false),
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reference worker panicked")).collect()
    });
    let mut hashes = Vec::with_capacity(pool.len());
    let mut homes = Vec::with_capacity(pool.len());
    let mut bad = 0;
    for (hash, home, ok) in parts.into_iter().flatten() {
        hashes.push(hash);
        homes.push(home);
        bad += u64::from(!ok);
    }
    (hashes, homes, bad)
}

/// ACC@100 of the posterior's home for every unlabeled trained user.
fn train_accuracy(
    gaz: &Gazetteer,
    engine: &ServingEngine<'_>,
    labels: &GeneratedData,
) -> (f64, usize) {
    let snap = engine.snapshot();
    let (preds, truths): (Vec<Option<CityId>>, Vec<CityId>) = (0..TRAINED_USERS)
        .filter(|&u| labels.dataset.registered[u].is_none())
        .map(|u| (Some(snap.users.home(UserId(u as u32))), labels.truth.home(UserId(u as u32))))
        .unzip();
    (acc_at_m(gaz, &preds, &truths, 100.0), truths.len())
}

fn run(args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let workload = args.workload;
    let p = Params::new(args.seconds);
    let gaz = Gazetteer::us_cities();
    let tracer = Tracer::new(args.trace);
    let jiffies_before = report::cpu_jiffies();
    let mut checks: Vec<(String, bool)> = Vec::new();
    let mut phases: Vec<PhaseCount> = Vec::new();

    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", report::machine_line(p.nproc));
    let (main_rate, main_workers) = workload.main_reads(p.nproc);
    println!(
        "params: trained_users={TRAINED_USERS} read_users={READ_USERS} write_users={WRITE_USERS} sweeps={SWEEPS} \
         trainer={} threads={} read_rate={}/s read_workers={} (+1 writer thread in serve_churn) commit_rate={COMMIT_RATE}/s wave={WAVE_USERS} \
         checkpoint_every={CHECKPOINT_EVERY} latency_limit={LATENCY_LIMIT_MS}ms main={:.1}s{}",
        match workload {
            Workload::Serve => "in-memory".to_string(),
            Workload::ServeChurn => format!("sharded(shards={SHARDS},reconcile_every={RECONCILE_EVERY})"),
        },
        p.nproc,
        main_rate,
        main_workers,
        p.main_s,
        match workload {
            Workload::Serve => format!(" idle_write={:.1}s", p.idle_write_s),
            Workload::ServeChurn => String::new(),
        }
    );

    // --- Set-up, several times; the last one is used. -----------------
    let mut setup_s = Vec::new();
    let mut train_s = Vec::new();
    let mut setup_hashes = Vec::new();
    let mut built = None;
    for k in 0..SETUPS {
        drop(built.take());
        let b =
            setup(&gaz, workload, &p, args.seed, &run_dir.join(format!("setup-{k}")), &tracer, k)?;
        setup_s.push(b.setup_s);
        train_s.push(b.train_s);
        let batch = held_out(&b.data.dataset, TRAINED_USERS..TRAINED_USERS + VERIFY_BATCH);
        setup_hashes.push(verify_hash(&b.engine, &batch)?);
        built = Some(b);
    }
    println!(
        "set-ups: total s {:?}, training s {:?}",
        setup_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
        train_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>()
    );
    let Built { engine, artifact, data, vars_resampled, artifact_bytes, .. } =
        built.expect("at least one set-up ran");
    phases.push(PhaseCount { name: "setup", attempted: 4 * SETUPS, failed: 0, refused: 0 });
    checks.push((
        "setup answers repeat across set-ups".into(),
        setup_hashes.windows(2).all(|w| w[0] == w[1]),
    ));

    // --- Inputs of the timed phases. -----------------------------------
    let reads_end = TRAINED_USERS + READ_USERS;
    let read_pool = held_out(&data.dataset, TRAINED_USERS..reads_end);
    let write_pool = held_out(&data.dataset, reads_end..reads_end + WRITE_USERS);
    let read_truth: Vec<CityId> =
        (TRAINED_USERS..reads_end).map(|u| data.truth.home(UserId(u as u32))).collect();
    let order = seeded_order(read_pool.len(), args.seed);
    let verify_batch = &read_pool[..VERIFY_BATCH];

    // --- Untimed checks and accuracy. ----------------------------------
    let (train_acc, train_acc_n) = match workload {
        Workload::Serve => train_accuracy(&gaz, &engine, &data),
        Workload::ServeChurn => {
            let corpus = CorpusReader::open(&run_dir.join(format!("setup-{}/corpus", SETUPS - 1)))
                .and_then(|r| r.read_all())
                .map_err(|e| e.to_string())?;
            checks.push((
                "held-out generator agrees with the corpus on trained users".into(),
                corpus.truth.profiles[..] == data.truth.profiles[..TRAINED_USERS],
            ));
            train_accuracy(&gaz, &engine, &corpus)
        }
    };
    let (oracle, homes, malformed) =
        tracer.span("check.reference_pass", 0, 0, |_| reference_pass(&engine, &read_pool, p.nproc));
    let serve_acc = acc_at_m(&gaz, &homes, &read_truth, 100.0);
    phases.push(PhaseCount {
        name: "reference",
        attempted: read_pool.len() as u64,
        failed: malformed,
        refused: 0,
    });
    checks.push(("every reference answer is well-formed".into(), malformed == 0));
    let first = verify_hash(&engine, verify_batch)?;
    let again = verify_hash(&engine, verify_batch)?;
    checks.push((
        "response_determinism_hash repeats on the verification batch".into(),
        first == again,
    ));

    // --- Open probe: repeated durable opens, warm page cache. ----------
    let probe = run_dir.join("open-probe.mlps");
    std::fs::copy(&artifact, &probe).map_err(|e| e.to_string())?;
    let mut open_ms = Vec::new();
    for i in 0..OPENS {
        let t = Instant::now();
        let opened = tracer.span("open_probe", 0, i, |id| {
            tracer.span("snapshot.open", id, i, |_| open_durable(&gaz, &probe))
        })?;
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(opened);
    }
    phases.push(PhaseCount { name: "open", attempted: OPENS, failed: 0, refused: 0 });

    // --- Ramp of fixed read rates on the freshly opened engine. ---------
    let reads = ReadSet { pool: &read_pool, order: &order, oracle: &oracle };
    let mut ramp: Vec<ReadPhase> = Vec::new();
    let step_at = |rate: f64, ramp: &mut Vec<ReadPhase>| {
        let base = REQ_RAMP + ((ramp.len() as u64) << 32);
        let phase = run_reads(
            &engine,
            &reads,
            0,
            rate,
            read_pool.len() as f64 / rate,
            p.nproc,
            Instant::now(),
            &tracer,
            base,
        );
        let met = phase.meets(LATENCY_LIMIT_MS);
        ramp.push(phase);
        met
    };
    let mut met_rate = 0.0;
    for step in 0..RAMP_STEPS {
        let rate = RAMP_START * READ_RATE * RAMP_FACTOR.powi(step);
        if !step_at(rate, &mut ramp) {
            break;
        }
        met_rate = rate;
    }
    for step in 1..RAMP_STEPS / 2 {
        if met_rate > 0.0 {
            break;
        }
        let rate = RAMP_START * READ_RATE / RAMP_FACTOR.powi(step);
        if step_at(rate, &mut ramp) {
            met_rate = rate;
        }
    }
    if met_rate > 0.0 {
        for fine in RAMP_REFINE {
            if !step_at(met_rate * fine, &mut ramp) {
                break;
            }
        }
    }
    let ramp_attempted: u64 = ramp.iter().map(ReadPhase::attempted).sum();
    let ramp_failed: u64 = ramp.iter().map(|r| r.failed).sum();
    let ramp_refused: u64 = ramp.iter().map(|r| r.refused).sum();
    phases.push(PhaseCount {
        name: "ramp.reads",
        attempted: ramp_attempted,
        failed: ramp_failed,
        refused: ramp_refused,
    });
    let ramp_mismatched: u64 = ramp.iter().map(|r| r.mismatched).sum();
    checks
        .push(("every epoch-0 ramp read equals its reference answer".into(), ramp_mismatched == 0));
    let max_rps = ramp
        .iter()
        .filter(|r| r.meets(LATENCY_LIMIT_MS))
        .max_by(|a, b| a.rate.total_cmp(&b.rate))
        .map_or(0.0, ReadPhase::achieved_rps);

    // --- Main phase. ----------------------------------------------------
    let mut cursor = 0usize;
    let start = Instant::now();
    let (main, churn_writes) = match workload {
        Workload::Serve => {
            let main = run_reads(
                &engine,
                &reads,
                0,
                main_rate,
                p.main_s,
                main_workers,
                start,
                &tracer,
                REQ_MAIN,
            );
            (main, None)
        }
        Workload::ServeChurn => std::thread::scope(|scope| {
            let (engine, write_pool, cursor, tracer) = (&engine, &write_pool, &mut cursor, &tracer);
            let writer = scope.spawn(move || {
                run_writes(
                    engine,
                    write_pool,
                    cursor,
                    WAVE_USERS,
                    COMMIT_RATE,
                    p.main_s,
                    CHECKPOINT_EVERY,
                    start,
                    tracer,
                    REQ_WRITE,
                )
            });
            let main = run_reads(
                engine,
                &reads,
                0,
                main_rate,
                p.main_s,
                main_workers,
                start,
                tracer,
                REQ_MAIN,
            );
            (main, Some(writer.join().expect("writer thread panicked")))
        }),
    };
    phases.push(PhaseCount {
        name: "main.reads",
        attempted: main.attempted(),
        failed: main.failed,
        refused: main.refused,
    });
    let nominal_met = main.failed == 0 && main.refused == 0 && !main.backlog_grew();
    checks.push((
        format!("nominal read rate {main_rate}/s met without a growing backlog"),
        nominal_met,
    ));
    checks.push((
        "every epoch-0 timed read equals its reference answer".into(),
        main.mismatched == 0,
    ));

    // --- Writes: beside the reads (serve_churn) or alone (serve). -------
    let writes: WritePhase = match churn_writes {
        Some(w) => w,
        None => run_writes(
            &engine,
            &write_pool,
            &mut cursor,
            WAVE_USERS,
            COMMIT_RATE,
            p.idle_write_s,
            CHECKPOINT_EVERY,
            Instant::now(),
            &tracer,
            REQ_WRITE,
        ),
    };
    phases.push(PhaseCount {
        name: "writes",
        attempted: writes.attempted(),
        failed: writes.failed,
        refused: 0,
    });

    // --- Recovery on open: the reopened artifact and log serve exactly
    // what the live engine's final epoch serves. ------------------------
    let tail: Vec<ProfileRequest> =
        (0..WAVE_USERS).map(|j| write_pool[(cursor + j) % write_pool.len()].clone()).collect();
    let tail_ok = tracer.span("engine.refresh", 0, 0, |_| engine.refresh(&tail)).is_ok();
    let live_hash = verify_hash(&engine, verify_batch)?;
    let live_users = engine.snapshot().num_users();
    drop(engine);
    let reopened = tracer.span("snapshot.open_recover", 0, 0, |_| open_durable(&gaz, &artifact))?;
    let replayed = reopened.recovery_report().map_or(0, |r| r.replayed_records);
    let recovered_hash = verify_hash(&reopened, verify_batch)?;
    let recovered_users = reopened.snapshot().num_users();
    drop(reopened);
    phases.push(PhaseCount {
        name: "recovery",
        attempted: 2,
        failed: u64::from(!tail_ok),
        refused: 0,
    });
    checks.push((
        format!("recovery replayed {replayed} log record(s) and serves the live final epoch"),
        replayed >= 1 && recovered_hash == live_hash && recovered_users == live_users,
    ));

    let attempted: u64 = phases.iter().map(|ph| ph.attempted).sum();
    // Reads the ramp shed past its last step are the overload it looks
    // for; every other failure or refusal counts.
    let failed: u64 = phases
        .iter()
        .map(|ph| ph.failed + if ph.name == "ramp.reads" { 0 } else { ph.refused })
        .sum();
    checks.push(("no operation failed".into(), failed == 0));

    // --- Report. ------------------------------------------------------
    let jiffies_after = report::cpu_jiffies();
    println!(
        "cpu steal during the run: {:.1}% of machine time",
        100.0 * (jiffies_after.1 - jiffies_before.1) as f64
            / (jiffies_after.0 - jiffies_before.0).max(1) as f64
    );
    println!("phases (attempted / failed / refused):");
    for ph in &phases {
        println!("  {:<11} {:>7} {:>4} {:>5}", ph.name, ph.attempted, ph.failed, ph.refused);
    }
    let lat = main.latency_ms();
    let late = main.start_late_ms();
    println!(
        "open loop: main phase {} reads at {}/s on {} worker(s); start late p50 {:.3} ms p99 {:.3} ms max {:.3} ms; \
         backlog {}",
        main.samples.len(),
        main_rate,
        main_workers,
        quantile(&late, 0.5),
        quantile(&late, 0.99),
        late.last().copied().unwrap_or(0.0),
        if main.backlog_grew() { "GREW: latency not valid" } else { "steady" }
    );
    println!(
        "ramp (limit: read p99 <= {LATENCY_LIMIT_MS} ms, no growing backlog, nothing refused):"
    );
    for r in &ramp {
        let l = r.latency_ms();
        println!(
            "  {:>7.1}/s served {:>6} ({:>7.1}/s) p50 {:>7.3} ms p99 {:>8.3} ms (pooled {:>8.3}) refused {:>5} \
             late p50 {:>7.3} ms -> {}",
            r.rate,
            r.samples.len(),
            r.achieved_rps(),
            r.windowed_latency_ms(0.5, 0.5).0,
            r.windowed_latency_ms(0.99, 0.5).0,
            quantile(&l, 0.99),
            r.refused,
            quantile(&r.start_late_ms(), 0.5),
            if r.meets(LATENCY_LIMIT_MS) { "met" } else { "missed" }
        );
    }
    for (name, ok) in &checks {
        println!("check: {} {name}", if *ok { "ok  " } else { "FAIL" });
    }

    let commit = writes.commit_by_due_ms();
    let commit_cpu = writes.commit_cpu_ms();
    let (read_p50, read_windows) = main.windowed_latency_ms(0.5, ACROSS_WINDOWS);
    let (read_p99, _) = main.windowed_latency_ms(0.99, ACROSS_WINDOWS);
    let (commit_p50, commit_windows) =
        windowed_quantile(&commit, COMMITS_PER_WINDOW, 0.5, ACROSS_WINDOWS);
    let (commit_p90, _) = windowed_quantile(&commit, COMMITS_PER_WINDOW, 0.9, ACROSS_WINDOWS);
    let (commit_cpu_p50, _) =
        windowed_quantile(&commit_cpu, COMMITS_PER_WINDOW, 0.5, ACROSS_WINDOWS);
    println!(
        "windows: reads {} x ~{} (p99 median across windows {:.3} ms; pooled p50 {:.3} ms p99 {:.3} ms), \
         commits {} x ~{} (pooled p90 {:.3} ms)",
        read_windows,
        lat.len() / read_windows,
        main.windowed_latency_ms(0.99, 0.5).0,
        quantile(&lat, 0.5),
        quantile(&lat, 0.99),
        commit_windows,
        commit.len() / commit_windows,
        quantile(&sorted(commit.clone()), 0.9)
    );
    let setup_sorted = sorted(setup_s);
    let train_sorted = sorted(train_s);
    let open_sorted = sorted(open_ms);
    let end_to_end = vec![
        metric("setup_s", "s", median(&setup_sorted), setup_sorted.len()),
        metric("peak_rss_mib", "MiB", report::peak_rss_mib(), 1),
        metric(
            "train_ms_per_sweep",
            "ms",
            quantile(&train_sorted, ACROSS_WINDOWS) * 1e3 / SWEEPS as f64,
            train_sorted.len(),
        ),
        metric("train_acc100", "ratio", train_acc, train_acc_n),
        metric("open_ms", "ms", quantile(&open_sorted, ACROSS_WINDOWS), open_sorted.len()),
        metric("read_p50_ms", "ms", read_p50, lat.len()),
        metric("serve_acc100", "ratio", serve_acc, read_truth.len()),
        metric("commit_cpu_ms", "ms", commit_cpu_p50, commit_cpu.len()),
        metric(
            "checkpoint_ms",
            "ms",
            quantile(&sorted(writes.checkpoint_ms.clone()), ACROSS_WINDOWS),
            writes.checkpoint_ms.len(),
        ),
    ];
    // The tails, and the commit's wall-clock latency, track the host's CPU
    // steal more than the engine on a shared two-vCPU VM (across ten seeds
    // the tails spread by 0.5-1.1 of their median, and the commit median
    // rose from 7.0 ms at 0.3% steal to 10.5 ms at 12%), so they are
    // reported with the per-layer metrics and carry no bound.
    let tails = vec![
        metric("load.read_p99_ms", "ms", read_p99, lat.len()),
        metric("load.read_max_rps", "req/s", max_rps, ramp.len()),
        metric("load.commit_p50_ms", "ms", commit_p50, commit.len()),
        metric("load.commit_p90_ms", "ms", commit_p90, commit.len()),
    ];
    println!("end-to-end metrics ({}):", workload.name());
    for m in end_to_end.iter().chain(&tails) {
        println!("  {:<20} {:>12.4} {:<6} n={}", m.name, m.value, m.unit, m.samples);
    }

    let spans = tracer.spans();
    let per_layer = if tracer.enabled() {
        let mut layer = per_layer_metrics(
            &spans,
            &main,
            &writes,
            &read_pool,
            vars_resampled,
            artifact_bytes,
            workload,
        );
        layer.extend(tails.iter().cloned());
        println!("per-layer metrics (traced run):");
        for m in &layer {
            println!("  {:<32} {:>12.4} {:<6} n={}", m.name, m.value, m.unit, m.samples);
        }
        println!("spans by name (count, total ms, self ms):");
        for (name, count, total, own) in trace::summarize(&spans) {
            println!("  {name:<24} {count:>7} {total:>12.3} {own:>12.3}");
        }
        layer
    } else {
        Vec::new()
    };

    Ok(Outcome { end_to_end, tails, per_layer, checks, attempted, failed, spans })
}

/// The per-layer metrics, from the traced run's spans and the counts
/// recorded at the same calls.
fn per_layer_metrics(
    spans: &[trace::Span],
    main: &ReadPhase,
    writes: &WritePhase,
    read_pool: &[ProfileRequest],
    vars_resampled: f64,
    artifact_bytes: usize,
    workload: Workload,
) -> Vec<Metric> {
    let selfs = trace::self_times_ms(spans);
    let durations = |name: &str, reqs: std::ops::Range<u64>| -> Vec<f64> {
        sorted(
            spans
                .iter()
                .filter(|s| s.name == name && reqs.contains(&s.req))
                .map(trace::Span::dur_ms)
                .collect(),
        )
    };
    let all = 0..u64::MAX;
    let main_reqs = REQ_MAIN..REQ_RAMP;
    let per_setup_s =
        |name: &str| durations(name, all.clone()).iter().sum::<f64>() / 1e3 / SETUPS as f64;

    let pin_us: Vec<f64> =
        durations("engine.pin", main_reqs.clone()).iter().map(|ms| ms * 1e3).collect();
    let fold_in = durations("infer.fold_in", main_reqs.clone());
    let observations: usize = main
        .samples
        .iter()
        .map(|s| {
            read_pool[s.user].observations.neighbors.len()
                + read_pool[s.user].observations.mentions.len()
        })
        .sum();
    let read_self_us = sorted(
        spans
            .iter()
            .filter(|s| s.name == "load.read" && main_reqs.contains(&s.req))
            .map(|s| selfs[&s.id] * 1e3)
            .collect(),
    );
    let neighbors =
        sorted(read_pool.iter().map(|r| r.observations.neighbors.len() as f64).collect());
    let mentions = sorted(read_pool.iter().map(|r| r.observations.mentions.len() as f64).collect());
    let refresh = durations("engine.refresh", REQ_WRITE..u64::MAX);
    let late = main.start_late_ms();
    let write_late = writes.start_late_ms();
    let wal_per_commit =
        writes.wal_bytes.iter().sum::<u64>() as f64 / writes.wal_bytes.len().max(1) as f64;
    let write_artifact = durations("snapshot.write_artifact", all.clone());

    // One trainer runs per workload: `model` (in memory) for `serve`,
    // `shard` (out of core) for `serve_churn`; the trainer metrics are that
    // layer's, so none of them reads a constant zero.
    let train_s = match workload {
        Workload::Serve => per_setup_s("model.train"),
        Workload::ServeChurn => per_setup_s("shard.train_corpus"),
    };
    let n = SETUPS as usize;
    vec![
        metric(
            "social.setup_s",
            "s",
            per_setup_s("social.generate") + per_setup_s("social.write_corpus"),
            n,
        ),
        metric("trainer.train_s", "s", train_s, n),
        metric("trainer.vars_resampled", "count", vars_resampled, n),
        metric("trainer.ns_per_var", "ns", train_s * 1e9 / vars_resampled, n),
        metric("snapshot.write_artifact_ms", "ms", median(&write_artifact), write_artifact.len()),
        metric("snapshot.artifact_mib", "MiB", artifact_bytes as f64 / (1024.0 * 1024.0), 1),
        metric("engine.pin_us.p50", "us", quantile(&pin_us, 0.5), pin_us.len()),
        metric("engine.pin_us.p99", "us", quantile(&pin_us, 0.99), pin_us.len()),
        metric("infer.fold_in_ms.p50", "ms", quantile(&fold_in, 0.5), fold_in.len()),
        metric("infer.fold_in_ms.p99", "ms", quantile(&fold_in, 0.99), fold_in.len()),
        metric(
            "infer.us_per_obs",
            "us",
            fold_in.iter().sum::<f64>() * 1e3 / observations.max(1) as f64,
            fold_in.len(),
        ),
        metric("infer.neighbors_per_req.p50", "count", quantile(&neighbors, 0.5), neighbors.len()),
        metric("infer.neighbors_per_req.p99", "count", quantile(&neighbors, 0.99), neighbors.len()),
        metric(
            "infer.neighbors_per_req.max",
            "count",
            neighbors.last().copied().unwrap_or(0.0),
            neighbors.len(),
        ),
        metric("infer.mentions_per_req.p50", "count", quantile(&mentions, 0.5), mentions.len()),
        metric("infer.mentions_per_req.p99", "count", quantile(&mentions, 0.99), mentions.len()),
        metric("load.start_late_ms.p50", "ms", quantile(&late, 0.5), late.len()),
        metric("load.start_late_ms.p99", "ms", quantile(&late, 0.99), late.len()),
        metric("load.busy_frac", "ratio", main.busy_frac(), main.samples.len()),
        metric("load.read_self_us.p50", "us", quantile(&read_self_us, 0.5), read_self_us.len()),
        metric("engine.refresh_ms.p50", "ms", quantile(&refresh, 0.5), refresh.len()),
        metric("engine.refresh_ms.p90", "ms", quantile(&refresh, 0.9), refresh.len()),
        metric("load.write_start_late_ms.p90", "ms", quantile(&write_late, 0.9), write_late.len()),
        metric("wal.bytes_per_commit", "bytes", wal_per_commit, writes.wal_bytes.len()),
        metric("engine.epochs_published", "count", writes.epochs_published as f64, 1),
        metric(
            "engine.zero_copy_after_commit",
            "bool",
            f64::from(u8::from(writes.zero_copy_after_commit)),
            1,
        ),
        metric("engine.rss_anon_growth_mib", "MiB", writes.rss_anon_growth_mib, 1),
    ]
}
