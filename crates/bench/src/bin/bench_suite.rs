//! Machine-readable benchmark trajectory with a regression gate.
//!
//! Runs the resume / merge / coalesce micro-benchmarks plus a seeded
//! end-to-end soak and emits two JSON artifacts:
//!
//! * `BENCH_resume.json` — per `(mode × vCPU)` resume totals, per-step
//!   breakdowns and the paper's dominant-share metric, plus the isolated
//!   merge (step ④) and coalesce (step ⑤) numbers;
//! * `BENCH_e2e.json` — per-class p50/p99/p99.9 end-to-end and resume
//!   latencies of a seeded cluster soak, with the full per-step tail
//!   attribution (exemplar trace ids included) from
//!   [`horse_metrics::TailAttribution`].
//!
//! Both carry the git sha and seed. All latencies are **virtual
//! nanoseconds** from the calibrated cost model, so a given tree
//! reproduces its numbers bit-for-bit on any machine — which is what
//! makes a *committed* baseline meaningful.
//!
//! Modes:
//!
//! * `bench_suite --seed 42 --out results` — run and write artifacts;
//! * `bench_suite --against results/bench_baseline.json` — also compare
//!   every `*_ns` leaf against the committed baseline and exit non-zero
//!   when any leaf drifts beyond the noise band (the CI perf gate);
//! * `bench_suite --write-baseline` — regenerate the committed
//!   baseline's section for this seed;
//! * `bench_suite --slowdown-splice 2 --against ...` — scale the
//!   splice-path cost-model terms, which MUST trip the gate (CI runs
//!   this as the gate's negative test);
//! * `bench_suite --throughput --threads 1,4,8` — also run the
//!   multi-threaded closed-loop load generator against a shared
//!   `Arc<Cluster>` and emit `BENCH_throughput.json` (wall-clock
//!   invocations/sec and latency under contention, plus — for the
//!   single-threaded run only — deterministic virtual-latency leaves
//!   that join the `--against` gate). When the committed baseline
//!   carries those leaves, run `--against` together with
//!   `--throughput --threads 1` so the run produces them;
//! * `bench_suite --throughput --threads 1,4 --gate-speedup 2` — fail
//!   unless the best multi-threaded run clears `2×` the
//!   single-threaded invocations/sec (the CI smoke gate; meaningless
//!   on a single-core machine, so it is opt-in);
//! * `bench_suite --wall-clock-resume` — also measure *real* resume
//!   latency (real splice-worker threads, emulated per-vCPU wake cost)
//!   at 1–144 vCPUs and emit `BENCH_wallclock.json`, gating that the
//!   parallel splice's 1→144 growth stays sub-linear while vanilla's is
//!   ~linear; `--serial-splice` forces the pool inline, which MUST trip
//!   that gate (CI's negative self-test).

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use horse_bench::{paper_sched_config, policy_for};
use horse_faas::{Cluster, DispatchPolicy, FaasError, HostId, PlatformConfig, StartStrategy};
use horse_metrics::export::write_chrome_trace;
use horse_metrics::{Histogram, RobustSummary, TailAttribution};
use horse_telemetry::forensics::{chrome_trace_with_flows, ForensicIndex, SpanTree};
use horse_telemetry::json::{self, JsonValue};
use horse_telemetry::{Recorder, TraceSnapshot};
use horse_vmm::{CostModel, ResumeMode, ResumeStep, SandboxConfig, SplicePool, Vmm};
use horse_workloads::Category;

const SCHEMA_RESUME: &str = "horse-bench/resume/1";
const SCHEMA_E2E: &str = "horse-bench/e2e/1";
const SCHEMA_E2E_FORENSICS: &str = "horse-bench/e2e-forensics/1";
/// Slowest stitched trees kept in the e2e postmortem artifact.
const WORST_TREES: usize = 16;
const SCHEMA_THROUGHPUT: &str = "horse-bench/throughput/1";
const SCHEMA_WALLCLOCK: &str = "horse-bench/wallclock/1";
const SCHEMA_BASELINE: &str = "horse-bench/baseline/1";

/// Relative drift tolerated per `*_ns` leaf by `--against`. The model is
/// deterministic, so an unchanged tree reproduces the baseline exactly;
/// the band only absorbs deliberate small calibration adjustments. A 2×
/// splice-path slowdown sits far outside it.
const NOISE_BAND: f64 = 0.10;

/// vCPU points of the micro sections (ends of the paper's Figure 2–3
/// sweep plus the mid-range knee).
const VCPUS: [u32; 3] = [1, 8, 36];

/// Invocation rounds of the e2e soak (each round = one warm + one
/// horse invocation).
const SOAK_ROUNDS: usize = 200;

/// Fleet shape of the throughput runs: hosts × provisioned sandboxes
/// per host. 8×4 = 32 warm sandboxes keeps the pool ahead of the
/// largest supported driver count (16), so a dry pool is a transient
/// all-in-flight window, never a steady state.
const THROUGHPUT_HOSTS: usize = 8;
const THROUGHPUT_PER_HOST: usize = 4;
/// Closed-loop invocation budget shared by the driver threads of one
/// throughput run.
const THROUGHPUT_INVOCATIONS: u64 = 4_000;
/// Largest supported `--threads` entry.
const MAX_THREADS: usize = 16;

struct Options {
    seed: u64,
    out: String,
    against: Option<String>,
    write_baseline: bool,
    slowdown_splice: f64,
    throughput: bool,
    threads: Vec<usize>,
    invocations: u64,
    gate_speedup: Option<f64>,
    gate_min_ips: Option<f64>,
    disable_batching: bool,
    wall_clock_resume: bool,
    serial_splice: bool,
}

const USAGE: &str = "usage: bench_suite [--seed <u64>] [--out <dir>] \
     [--against <baseline.json>] [--write-baseline] [--slowdown-splice <f64>] \
     [--throughput] [--threads <n,n,...>] [--invocations <u64>] \
     [--gate-speedup <f64>] [--gate-min-ips <f64>] [--disable-batching] \
     [--wall-clock-resume] [--serial-splice]";

impl Options {
    fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = Options {
            seed: 42,
            out: "results".to_string(),
            against: None,
            write_baseline: false,
            slowdown_splice: 1.0,
            throughput: false,
            threads: vec![1, 4],
            invocations: THROUGHPUT_INVOCATIONS,
            gate_speedup: None,
            gate_min_ips: None,
            disable_batching: false,
            wall_clock_resume: false,
            serial_splice: false,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value; {USAGE}"))
            };
            match flag.as_str() {
                "--seed" => {
                    opts.seed = value()?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}; {USAGE}"))?;
                }
                "--out" => opts.out = value()?,
                "--against" => opts.against = Some(value()?),
                "--write-baseline" => opts.write_baseline = true,
                "--slowdown-splice" => {
                    opts.slowdown_splice = value()?
                        .parse()
                        .map_err(|e| format!("bad --slowdown-splice: {e}; {USAGE}"))?;
                    if !opts.slowdown_splice.is_finite() || opts.slowdown_splice <= 0.0 {
                        return Err(format!("--slowdown-splice must be positive; {USAGE}"));
                    }
                }
                "--throughput" => opts.throughput = true,
                "--threads" => {
                    let list = value()?;
                    let mut threads = Vec::new();
                    for part in list.split(',') {
                        let n: usize = part
                            .trim()
                            .parse()
                            .map_err(|e| format!("bad --threads entry {part:?}: {e}; {USAGE}"))?;
                        if n == 0 || n > MAX_THREADS {
                            return Err(format!(
                                "--threads entries must be 1..={MAX_THREADS}, got {n}; {USAGE}"
                            ));
                        }
                        if !threads.contains(&n) {
                            threads.push(n);
                        }
                    }
                    if threads.is_empty() {
                        return Err(format!("--threads needs at least one entry; {USAGE}"));
                    }
                    opts.threads = threads;
                }
                "--invocations" => {
                    opts.invocations = value()?
                        .parse()
                        .map_err(|e| format!("bad --invocations: {e}; {USAGE}"))?;
                    if opts.invocations == 0 {
                        return Err(format!("--invocations must be positive; {USAGE}"));
                    }
                }
                "--gate-speedup" => {
                    let g: f64 = value()?
                        .parse()
                        .map_err(|e| format!("bad --gate-speedup: {e}; {USAGE}"))?;
                    if !g.is_finite() || g <= 0.0 {
                        return Err(format!("--gate-speedup must be positive; {USAGE}"));
                    }
                    opts.gate_speedup = Some(g);
                }
                "--gate-min-ips" => {
                    let g: f64 = value()?
                        .parse()
                        .map_err(|e| format!("bad --gate-min-ips: {e}; {USAGE}"))?;
                    if !g.is_finite() || g <= 0.0 {
                        return Err(format!("--gate-min-ips must be positive; {USAGE}"));
                    }
                    opts.gate_min_ips = Some(g);
                }
                "--disable-batching" => opts.disable_batching = true,
                "--wall-clock-resume" => opts.wall_clock_resume = true,
                "--serial-splice" => opts.serial_splice = true,
                other => return Err(format!("unknown flag {other}; {USAGE}")),
            }
        }
        if opts.serial_splice && !opts.wall_clock_resume {
            return Err(format!(
                "--serial-splice requires --wall-clock-resume; {USAGE}"
            ));
        }
        if opts.gate_min_ips.is_some() {
            if !opts.throughput {
                return Err(format!("--gate-min-ips requires --throughput; {USAGE}"));
            }
            if !opts.threads.contains(&1) {
                return Err(format!(
                    "--gate-min-ips gates the single-threaded run; --threads must include 1; \
                     {USAGE}"
                ));
            }
        }
        if opts.gate_speedup.is_some() {
            if !opts.throughput {
                return Err(format!("--gate-speedup requires --throughput; {USAGE}"));
            }
            if !opts.threads.contains(&1) || opts.threads.iter().all(|&t| t == 1) {
                return Err(format!(
                    "--gate-speedup needs --threads to include 1 and at least one multi-threaded \
                     point; {USAGE}"
                ));
            }
        }
        Ok(opts)
    }
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The calibrated model with the 𝒫²𝒮ℳ splice path scaled by `factor`
/// (1.0 = faithful). Used by CI to prove the gate catches a splice-path
/// regression.
fn cost_model(factor: f64) -> CostModel {
    let mut cost = CostModel::calibrated();
    cost.horse_merge_base_ns *= factor;
    cost.splice_thread_ns *= factor;
    cost
}

fn obj(entries: Vec<(String, JsonValue)>) -> JsonValue {
    JsonValue::Object(entries.into_iter().collect::<BTreeMap<_, _>>())
}

fn num(v: f64) -> JsonValue {
    JsonValue::Number(v)
}

/// One deterministic pause/resume cycle under `cost`.
///
/// The splice pool is parallel here *on purpose*: the virtual `*_ns`
/// leaves this feeds are gated against the committed baseline, so every
/// gated run re-proves that real splice-worker threads leave the virtual
/// cost accounting bit-identical to the sequential path.
fn one_resume(cost: &CostModel, vcpus: u32, mode: ResumeMode) -> horse_vmm::ResumeBreakdown {
    let mut vmm = Vmm::new(paper_sched_config(), *cost);
    vmm.set_splice_pool(SplicePool::parallel(4));
    let cfg = SandboxConfig::builder()
        .vcpus(vcpus)
        .memory_mb(512)
        .ull(true)
        .build()
        .expect("static config is valid");
    let id = vmm.create(cfg);
    vmm.start(id).expect("fresh sandbox starts");
    vmm.pause(id, policy_for(mode))
        .expect("running sandbox pauses");
    vmm.resume(id, mode)
        .expect("paused sandbox resumes")
        .breakdown
}

/// The `resume` / `merge` / `coalesce` sections of `BENCH_resume.json`.
fn micro_sections(cost: &CostModel) -> (JsonValue, JsonValue, JsonValue) {
    let mut resume = BTreeMap::new();
    let mut merge = BTreeMap::new();
    let mut coalesce = BTreeMap::new();
    for mode in ResumeMode::ALL {
        for vcpus in VCPUS {
            let b = one_resume(cost, vcpus, mode);
            let key = format!("{}_v{vcpus}", mode.label());
            let total: u64 = b.total_ns();
            let mut steps = BTreeMap::new();
            for step in ResumeStep::ALL {
                steps.insert(format!("{}_ns", step.label()), num(b.get(step) as f64));
            }
            let dominant = (b.get(ResumeStep::SortedMerge) + b.get(ResumeStep::LoadUpdate)) as f64
                / total.max(1) as f64;
            resume.insert(
                key.clone(),
                obj(vec![
                    ("total_ns".into(), num(total as f64)),
                    ("steps".into(), JsonValue::Object(steps)),
                    ("dominant_share".into(), num(dominant)),
                ]),
            );
            merge.insert(
                format!("{key}_ns"),
                num(b.get(ResumeStep::SortedMerge) as f64),
            );
            coalesce.insert(
                format!("{key}_ns"),
                num(b.get(ResumeStep::LoadUpdate) as f64),
            );
        }
    }
    (
        JsonValue::Object(resume),
        JsonValue::Object(merge),
        JsonValue::Object(coalesce),
    )
}

/// vCPU points of the wall-clock resume sweep — past the paper's 36-vCPU
/// range, out to 2× the r650 core count, where linear growth is
/// unmistakable.
const WALL_VCPUS: [u32; 5] = [1, 8, 36, 72, 144];
/// Measured repetitions per wall-clock point (one warm-up cycle runs
/// first and is discarded).
const WALL_REPS: usize = 7;
/// Splice-pool width of the parallel points. Fixed — the whole claim is
/// that dispatch cost does not grow with the vCPU count.
const WALL_WORKERS: usize = 8;
/// Emulated per-vCPU wake cost. Stands in for the IPI + context-switch
/// work a real kernel does per woken vCPU; drives only real
/// `thread::sleep`s, never the virtual cost axis, so the deterministic
/// baseline gate is untouched.
const WALL_WAKE_NANOS: u64 = 20_000;
/// Growth bound for the 1→144 sweep. Vanilla resume wakes all 144 vCPUs
/// from the resuming thread, so its wall-clock grows ~144× (timer slack
/// scales with it); the parallel splice spreads the same wakes over
/// [`WALL_WORKERS`] workers, growing ≤ ~18×. 36 sits between the two
/// with ≥ 2× margin each way.
const WALL_SUBLINEAR_BOUND: f64 = 36.0;

/// One wall-clock point of `(vcpus, mode)`: real resume latencies in
/// nanoseconds over [`WALL_REPS`] warm pause/resume cycles.
///
/// The host carries a background uLL sandbox on even credits and the
/// measured sandbox on odd credits, so each resume splices one distinct
/// point per vCPU into a populated queue — the adversarial shape for
/// 𝒫²𝒮ℳ (maximum splice points) and the fair one for vanilla (same
/// per-vCPU insert count).
fn wall_resume_samples(
    cost: &CostModel,
    vcpus: u32,
    mode: ResumeMode,
    serial_splice: bool,
) -> Vec<f64> {
    let mut vmm = Vmm::new(paper_sched_config(), *cost);
    if mode.uses_ppsm() {
        let mut pool = SplicePool::parallel(WALL_WORKERS);
        pool.set_serial(serial_splice);
        vmm.set_splice_pool(pool);
    }
    vmm.set_wake_emulation_nanos(WALL_WAKE_NANOS);

    let config = || {
        SandboxConfig::builder()
            .vcpus(vcpus)
            .memory_mb(512)
            .ull(true)
            .build()
            .expect("static config is valid")
    };
    let background = vmm.create(config());
    let evens: Vec<i64> = (0..i64::from(vcpus)).map(|i| 2 * i + 2).collect();
    vmm.start_with_credits(background, &evens)
        .expect("background sandbox starts");
    let measured = vmm.create(config());
    let odds: Vec<i64> = (0..i64::from(vcpus)).map(|i| 2 * i + 1).collect();
    vmm.start_with_credits(measured, &odds)
        .expect("measured sandbox starts");

    let policy = policy_for(mode);
    let mut samples = Vec::with_capacity(WALL_REPS);
    for rep in 0..=WALL_REPS {
        vmm.pause(measured, policy).expect("running sandbox pauses");
        let t0 = Instant::now();
        vmm.resume(measured, mode).expect("paused sandbox resumes");
        if rep > 0 {
            samples.push(t0.elapsed().as_nanos() as f64);
        }
    }
    samples
}

/// One summarised point of the wall-clock sweep.
struct WallPoint {
    vcpus: u32,
    summary: RobustSummary,
}

/// Measures the full [`WALL_VCPUS`] sweep for one mode.
fn wall_sweep(cost: &CostModel, mode: ResumeMode, serial_splice: bool) -> Vec<WallPoint> {
    WALL_VCPUS
        .iter()
        .map(|&vcpus| WallPoint {
            vcpus,
            summary: RobustSummary::of(&wall_resume_samples(cost, vcpus, mode, serial_splice)),
        })
        .collect()
}

/// Wall-clock growth of the sweep: last point over first point, on the
/// outlier-robust means.
fn wall_growth(points: &[WallPoint]) -> f64 {
    let first = points.first().expect("sweep is non-empty").summary.mean;
    let last = points.last().expect("sweep is non-empty").summary.mean;
    last / first.max(f64::MIN_POSITIVE)
}

/// JSON section of one mode's sweep. Keys use `_nanos` (never `_ns`):
/// wall-clock numbers are machine-dependent and must stay invisible to
/// the deterministic baseline gate's leaf scan.
fn wall_mode_json(points: &[WallPoint]) -> JsonValue {
    let mut map = BTreeMap::new();
    for p in points {
        map.insert(
            format!("v{}", p.vcpus),
            obj(vec![
                ("resume_mean_nanos".into(), num(p.summary.mean)),
                ("resume_median_nanos".into(), num(p.summary.median)),
                ("resume_min_nanos".into(), num(p.summary.min)),
                ("resume_max_nanos".into(), num(p.summary.max)),
                ("samples_kept".into(), num(p.summary.kept as f64)),
                ("samples_rejected".into(), num(p.summary.rejected as f64)),
            ]),
        );
    }
    map.insert("growth_144_over_1".to_string(), num(wall_growth(points)));
    JsonValue::Object(map)
}

/// Seeded cluster soak: warm (vanilla resume) and horse invocations on a
/// 3-host cluster, traced end to end. Returns the e2e JSON section and
/// the snapshot (for the sample Chrome trace artifact).
fn e2e_soak(seed: u64, cost: &CostModel) -> (JsonValue, TraceSnapshot) {
    let config = PlatformConfig {
        cost: *cost,
        ..PlatformConfig::default()
    };
    let mut cluster = Cluster::with_config(3, DispatchPolicy::RoundRobin, seed, config);
    let recorder = Recorder::enabled();
    cluster.set_recorder(recorder.clone());

    let vanilla = SandboxConfig::builder().vcpus(1).build().unwrap();
    let ull = SandboxConfig::builder().vcpus(2).ull(true).build().unwrap();
    let warm_fn = cluster.register("nat", Category::Cat2, vanilla);
    let horse_fn = cluster.register("filter", Category::Cat3, ull);
    cluster
        .provision_all(warm_fn, 2, StartStrategy::Warm)
        .expect("provision warm pool");
    cluster
        .provision_all(horse_fn, 2, StartStrategy::Horse)
        .expect("provision horse pool");
    recorder.drain(); // provisioning is untraced noise: keep it out

    for _ in 0..SOAK_ROUNDS {
        cluster
            .invoke(warm_fn, StartStrategy::Warm)
            .expect("warm invoke");
        cluster
            .invoke(horse_fn, StartStrategy::Horse)
            .expect("horse invoke");
    }
    let snapshot = recorder.drain();

    let attribution = TailAttribution::from_snapshot(&snapshot);
    let mut classes = BTreeMap::new();
    for (class, attr) in &attribution.classes {
        let mut entry = vec![("invocations".to_string(), num(attr.e2e.len() as f64))];
        for (pct, tag) in [(50.0, "p50"), (99.0, "p99"), (99.9, "p999")] {
            entry.push((
                format!("e2e_{tag}_ns"),
                num(attr.e2e.percentile(pct) as f64),
            ));
            entry.push((
                format!("resume_{tag}_ns"),
                num(attr.resume.percentile(pct) as f64),
            ));
        }
        classes.insert(class.to_string(), obj(entry));
    }
    let report = attribution.report(&[50.0, 99.0, 99.9]);
    let section = obj(vec![
        ("invocations".into(), num((SOAK_ROUNDS * 2) as f64)),
        ("classes".into(), JsonValue::Object(classes)),
        ("attribution".into(), report.to_json()),
    ]);
    (section, snapshot)
}

/// Result of one closed-loop throughput run at a fixed driver count.
struct ThroughputRun {
    threads: usize,
    invocations: u64,
    elapsed_seconds: f64,
    invocations_per_sec: f64,
    /// Wall-clock per-invocation latency (slot claim → success),
    /// including retry backoff under contention.
    wall: Histogram,
    /// Virtual (cost-model) init and end-to-end latency — deterministic
    /// for a single driver thread.
    virt_init: Histogram,
    virt_total: Histogram,
    retries: u64,
    warm_hit_ratio: f64,
    /// Invariant breaches (lost/duplicated sandboxes, stats drift,
    /// starved drivers). Non-empty fails the suite.
    violations: Vec<String>,
}

/// Requests each driver claims from the shared budget per batched
/// submission ([`Cluster::invoke_batch`]). Matches the fleet's warm
/// inventory, so one single-threaded batch exercises every host.
const DRIVER_BATCH: u64 = 32;

/// Drives a fresh seeded cluster with `threads` closed-loop workers
/// sharing one atomic invocation budget, then audits the fleet for
/// conservation and stats consistency.
///
/// With `batching`, workers claim [`DRIVER_BATCH`] slots at a time and
/// submit them through [`Cluster::invoke_batch`] — the default, and
/// what the `--gate-min-ips` floor measures. Without
/// it (`--disable-batching`) each slot goes through the sequential
/// [`Cluster::invoke`] path; CI uses that as the floor gate's negative
/// test. Virtual-latency leaves are identical either way at one driver
/// thread (the equivalence `crates/faas/tests/batch.rs` pins).
fn throughput_run(
    seed: u64,
    cost: &CostModel,
    threads: usize,
    budget: u64,
    batching: bool,
) -> ThroughputRun {
    let config = PlatformConfig {
        cost: *cost,
        ..PlatformConfig::default()
    };
    // The recorder stays disabled: traced runs are single-driver
    // (DESIGN.md §10), and the ring would only add contention noise to
    // the wall-clock numbers.
    let mut cluster =
        Cluster::with_config(THROUGHPUT_HOSTS, DispatchPolicy::RoundRobin, seed, config);
    let ull = SandboxConfig::builder()
        .vcpus(2)
        .ull(true)
        .build()
        .expect("static config");
    let f = cluster.register("filter", Category::Cat3, ull);
    cluster
        .provision_all(f, THROUGHPUT_PER_HOST, StartStrategy::Horse)
        .expect("provision throughput pool");
    let provisioned = THROUGHPUT_HOSTS * THROUGHPUT_PER_HOST;
    let cluster = Arc::new(cluster);

    struct WorkerResult {
        wall: Histogram,
        virt_init: Histogram,
        virt_total: Histogram,
        successes: u64,
        retries: u64,
        starved: u64,
    }

    let next_slot = AtomicU64::new(0);
    let started = Instant::now();
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let cluster = &cluster;
                let next_slot = &next_slot;
                scope.spawn(move || {
                    let mut r = WorkerResult {
                        wall: Histogram::new(),
                        virt_init: Histogram::new(),
                        virt_total: Histogram::new(),
                        successes: 0,
                        retries: 0,
                        starved: 0,
                    };
                    if batching {
                        // Batched driver: claim a run of slots and submit
                        // them as one batch. A failed call returns what
                        // it served and hands the rest back, so the
                        // worker re-submits its unserved remainder.
                        let mut got: Vec<(HostId, horse_faas::InvocationRecord)> =
                            Vec::with_capacity(DRIVER_BATCH as usize);
                        let mut submit = |r: &mut WorkerResult, mut want: usize| loop {
                            let t0 = Instant::now();
                            got.clear();
                            let result =
                                cluster.invoke_batch(f, StartStrategy::Horse, want, &mut got);
                            if !got.is_empty() {
                                // Amortized wall share: the batch is the
                                // unit of work, each record gets its
                                // slice.
                                let share = (t0.elapsed().as_nanos() / got.len() as u128) as u64;
                                for (_, record) in &got {
                                    r.wall.record(share);
                                    r.virt_init.record(record.init_ns);
                                    r.virt_total.record(record.total_ns());
                                }
                                r.successes += got.len() as u64;
                                want -= got.len();
                            }
                            match result {
                                Ok(_) => return true,
                                // Transient dry pool: re-submit the
                                // unserved remainder.
                                Err(FaasError::NoWarmSandbox { .. }) => {
                                    r.retries += 1;
                                    std::thread::yield_now();
                                }
                                Err(_) => {
                                    r.starved += 1;
                                    return false;
                                }
                            }
                        };
                        loop {
                            let start = next_slot.fetch_add(DRIVER_BATCH, Ordering::Relaxed);
                            if start >= budget {
                                break;
                            }
                            let want = DRIVER_BATCH.min(budget - start) as usize;
                            if !submit(&mut r, want) {
                                break;
                            }
                        }
                        return r;
                    }
                    while next_slot.fetch_add(1, Ordering::Relaxed) < budget {
                        let t0 = Instant::now();
                        // A dry pool under contention is a transient
                        // all-in-flight window (the fleet holds 2×
                        // MAX_THREADS sandboxes): retry, charging the
                        // wait to this invocation's wall latency.
                        let mut attempts = 0u64;
                        loop {
                            match cluster.invoke(f, StartStrategy::Horse) {
                                Ok((_, record)) => {
                                    r.wall.record(t0.elapsed().as_nanos() as u64);
                                    r.virt_init.record(record.init_ns);
                                    r.virt_total.record(record.total_ns());
                                    r.successes += 1;
                                    break;
                                }
                                Err(FaasError::NoWarmSandbox { .. }) if attempts < 100_000 => {
                                    attempts += 1;
                                    r.retries += 1;
                                    std::thread::yield_now();
                                }
                                Err(_) => {
                                    r.starved += 1;
                                    break;
                                }
                            }
                        }
                    }
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let elapsed_seconds = started.elapsed().as_secs_f64();

    let mut wall = Histogram::new();
    let mut virt_init = Histogram::new();
    let mut virt_total = Histogram::new();
    let mut successes = 0u64;
    let mut retries = 0u64;
    let mut starved = 0u64;
    for r in results {
        wall.merge(&r.wall);
        virt_init.merge(&r.virt_init);
        virt_total.merge(&r.virt_total);
        successes += r.successes;
        retries += r.retries;
        starved += r.starved;
    }

    let mut violations = Vec::new();
    if starved > 0 {
        violations.push(format!(
            "{threads} threads: {starved} invocation(s) starved or failed outright"
        ));
    }
    if successes != budget {
        violations.push(format!(
            "{threads} threads: {successes} successes for a budget of {budget}"
        ));
    }
    // Conservation: every sandbox re-paused into its pool — nothing
    // lost to a race, nothing duplicated.
    let inventory: usize = (0..THROUGHPUT_HOSTS)
        .map(|i| cluster.host(HostId(i)).pool_size(f, StartStrategy::Horse))
        .sum();
    if inventory != provisioned {
        violations.push(format!(
            "{threads} threads: warm inventory {inventory} != provisioned {provisioned}"
        ));
    }
    // Stats consistency: one pool hit per success, no evictions (the
    // keep-alive clock never advances, no faults are armed).
    let stats = cluster.aggregate_pool_stats(f, StartStrategy::Horse);
    if stats.hits != successes {
        violations.push(format!(
            "{threads} threads: {} pool hits for {successes} successes",
            stats.hits
        ));
    }
    if stats.evictions != 0 {
        violations.push(format!(
            "{threads} threads: {} evictions on an idle keep-alive clock",
            stats.evictions
        ));
    }
    let attempts = stats.hits + stats.misses;
    let warm_hit_ratio = if attempts == 0 {
        0.0
    } else {
        stats.hits as f64 / attempts as f64
    };

    ThroughputRun {
        threads,
        invocations: successes,
        elapsed_seconds,
        invocations_per_sec: successes as f64 / elapsed_seconds.max(f64::MIN_POSITIVE),
        wall,
        virt_init,
        virt_total,
        retries,
        warm_hit_ratio,
        violations,
    }
}

/// Wall-clock cost of `Histogram::record`, measured in-process over a
/// deterministic latency-shaped value stream (same stream as the
/// `histogram` criterion bench). Reported per `crates/metrics`'s
/// `#[inline]` documentation.
fn histogram_record_cost_ns() -> f64 {
    const N: usize = 1_000_000;
    let mut x = 0x9e3779b97f4a7c15u64;
    let values: Vec<u64> = (0..N)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            200 + (x % 2_000_000)
        })
        .collect();
    let mut h = Histogram::new();
    let t0 = Instant::now();
    for &v in &values {
        h.record(v);
    }
    let per_op = t0.elapsed().as_nanos() as f64 / h.len().max(1) as f64;
    // The histogram itself must not be optimized away.
    assert_eq!(h.len(), N as u64);
    per_op
}

/// The JSON section of one throughput run. Wall-clock metrics
/// deliberately avoid the `_ns` key suffix so the deterministic perf
/// gate never sees them; the single-threaded run additionally carries
/// `virtual` `*_ns` leaves, which are deterministic and gated.
fn throughput_run_json(run: &ThroughputRun) -> JsonValue {
    let mut entry = vec![
        ("threads".to_string(), num(run.threads as f64)),
        ("invocations".to_string(), num(run.invocations as f64)),
        ("elapsed_seconds".to_string(), num(run.elapsed_seconds)),
        (
            "invocations_per_sec".to_string(),
            num(run.invocations_per_sec),
        ),
        (
            "wall_p50_nanos".to_string(),
            num(run.wall.percentile(50.0) as f64),
        ),
        (
            "wall_p99_nanos".to_string(),
            num(run.wall.percentile(99.0) as f64),
        ),
        ("warm_hit_ratio".to_string(), num(run.warm_hit_ratio)),
        ("retries".to_string(), num(run.retries as f64)),
        (
            "invariant_violations".to_string(),
            num(run.violations.len() as f64),
        ),
    ];
    if run.threads == 1 {
        entry.push((
            "virtual".to_string(),
            obj(vec![
                (
                    "init_p50_ns".into(),
                    num(run.virt_init.percentile(50.0) as f64),
                ),
                (
                    "init_p99_ns".into(),
                    num(run.virt_init.percentile(99.0) as f64),
                ),
                (
                    "total_p50_ns".into(),
                    num(run.virt_total.percentile(50.0) as f64),
                ),
                (
                    "total_p99_ns".into(),
                    num(run.virt_total.percentile(99.0) as f64),
                ),
            ]),
        ));
    }
    obj(entry)
}

/// Flattens every numeric leaf whose key ends in `_ns` to
/// `(dotted.path, value)` — the latency surface the gate compares.
fn latency_leaves(value: &JsonValue, prefix: &str, out: &mut BTreeMap<String, f64>) {
    if let JsonValue::Object(map) = value {
        for (key, child) in map {
            let path = if prefix.is_empty() {
                key.clone()
            } else {
                format!("{prefix}.{key}")
            };
            match child {
                JsonValue::Number(n) if key.ends_with("_ns") => {
                    out.insert(path, *n);
                }
                _ => latency_leaves(child, &path, out),
            }
        }
    }
}

/// Compares current sections against the baseline's entry for `seed`.
/// Returns the list of violations (empty = gate passes).
///
/// The comparison is *section-scoped*: only baseline sections (top-level
/// keys of the seed entry, e.g. `resume_doc`, `throughput_doc`,
/// `profile_doc`) that the current run also produced are compared, so a
/// baseline carrying `profile_report`'s section does not fail a
/// `bench_suite` run that never measures it — each binary gates the
/// sections it owns.
fn compare(baseline: &JsonValue, seed: u64, current: &JsonValue) -> Result<Vec<String>, String> {
    if baseline.get("schema").and_then(|v| v.as_str()) != Some(SCHEMA_BASELINE) {
        return Err(format!("baseline schema is not {SCHEMA_BASELINE}"));
    }
    let entry = baseline
        .get("seeds")
        .and_then(|s| s.get(&seed.to_string()))
        .ok_or_else(|| format!("baseline has no entry for seed {seed}"))?;
    let (JsonValue::Object(entry_map), JsonValue::Object(current_map)) = (entry, current) else {
        return Err(format!("baseline entry for seed {seed} is not an object"));
    };
    let mut expected = BTreeMap::new();
    for (section, child) in entry_map {
        if current_map.contains_key(section) {
            latency_leaves(child, section, &mut expected);
        } else {
            println!("perf gate: skipping baseline section {section} (not produced by this run)");
        }
    }
    let mut actual = BTreeMap::new();
    latency_leaves(current, "", &mut actual);
    if expected.is_empty() {
        return Err(format!(
            "baseline entry for seed {seed} has no *_ns leaves in any section this run produced"
        ));
    }

    let mut violations = Vec::new();
    for (path, base) in &expected {
        match actual.get(path) {
            None => violations.push(format!("{path}: present in baseline, missing in run")),
            Some(cur) => {
                let drift = (cur - base).abs() / base.abs().max(1.0);
                if drift > NOISE_BAND {
                    violations.push(format!(
                        "{path}: {base:.0} ns -> {cur:.0} ns ({:+.1} % > ±{:.0} % band)",
                        100.0 * (cur - base) / base.abs().max(1.0),
                        100.0 * NOISE_BAND
                    ));
                }
            }
        }
    }
    Ok(violations)
}

fn write_json(path: &str, value: &JsonValue) {
    let mut text = value.render();
    text.push('\n');
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

fn main() {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&opts.out).expect("create out dir");
    let sha = git_sha();
    let cost = cost_model(opts.slowdown_splice);

    let (resume, merge, coalesce) = micro_sections(&cost);
    let resume_doc = obj(vec![
        ("schema".into(), JsonValue::String(SCHEMA_RESUME.into())),
        ("git_sha".into(), JsonValue::String(sha.clone())),
        ("seed".into(), num(opts.seed as f64)),
        ("slowdown_splice".into(), num(opts.slowdown_splice)),
        ("resume".into(), resume),
        ("merge".into(), merge),
        ("coalesce".into(), coalesce),
    ]);
    let resume_path = format!("{}/BENCH_resume.json", opts.out);
    write_json(&resume_path, &resume_doc);

    let (e2e_section, snapshot) = e2e_soak(opts.seed, &cost);
    let e2e_doc = obj(vec![
        ("schema".into(), JsonValue::String(SCHEMA_E2E.into())),
        ("git_sha".into(), JsonValue::String(sha.clone())),
        ("seed".into(), num(opts.seed as f64)),
        ("slowdown_splice".into(), num(opts.slowdown_splice)),
        ("e2e".into(), e2e_section),
    ]);
    let e2e_path = format!("{}/BENCH_e2e.json", opts.out);
    write_json(&e2e_path, &e2e_doc);

    // Sample Chrome trace of the soak — uploaded by CI next to the JSON
    // so a regression comes with the trace that explains it.
    let trace_path = format!("{}/BENCH_e2e.trace.json", opts.out);
    write_chrome_trace(&trace_path, &snapshot).expect("write sample trace");
    if snapshot.dropped > 0 {
        eprintln!(
            "warning: soak dropped {} events — percentiles are lower bounds",
            snapshot.dropped
        );
    }

    // Postmortem stitch of the same soak: the slowest invoke trees as a
    // Chrome trace with flow arrows plus the stitch ledger, so a perf
    // gate failure uploads the causal trees that explain it (the soak
    // has no reliability plane; these are invoke-rooted trees, not
    // submission trees).
    let forensics = ForensicIndex::stitch(&snapshot);
    let mut worst: Vec<&SpanTree> = forensics.trees.iter().collect();
    worst.sort_by(|a, b| {
        b.duration_ns()
            .cmp(&a.duration_ns())
            .then(a.invocation.cmp(&b.invocation))
    });
    worst.truncate(WORST_TREES);
    let forensics_doc = obj(vec![
        (
            "schema".into(),
            JsonValue::String(SCHEMA_E2E_FORENSICS.into()),
        ),
        ("git_sha".into(), JsonValue::String(sha.clone())),
        ("seed".into(), num(opts.seed as f64)),
        ("trees".into(), num(forensics.trees.len() as f64)),
        ("orphan_events".into(), num(forensics.orphan_events as f64)),
        ("extra_roots".into(), num(forensics.extra_roots as f64)),
        (
            "dropped_events".into(),
            num(forensics.dropped_events as f64),
        ),
        (
            "fingerprint".into(),
            JsonValue::String(format!("{:016x}", forensics.fingerprint())),
        ),
        (
            "worst".into(),
            JsonValue::Array(
                worst
                    .iter()
                    .map(|t| {
                        obj(vec![
                            ("invocation".into(), num(t.invocation as f64)),
                            ("dur_ns".into(), num(t.duration_ns() as f64)),
                            ("nodes".into(), num(t.len() as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let forensics_path = format!("{}/BENCH_e2e.forensics.json", opts.out);
    write_json(&forensics_path, &forensics_doc);
    let forensics_trace_path = format!("{}/BENCH_e2e.forensics.trace.json", opts.out);
    let mut forensics_trace = chrome_trace_with_flows(worst.iter().copied());
    forensics_trace.push('\n');
    std::fs::write(&forensics_trace_path, forensics_trace)
        .unwrap_or_else(|e| panic!("write {forensics_trace_path}: {e}"));
    println!(
        "{forensics_path}: {SCHEMA_E2E_FORENSICS} ({} trees, {} orphans)",
        forensics.trees.len(),
        forensics.orphan_events
    );
    println!(
        "{forensics_trace_path}: worst {} invoke trees with flow events",
        worst.len()
    );
    println!(
        "{resume_path}: {SCHEMA_RESUME} (sha {sha}, seed {})",
        opts.seed
    );
    println!(
        "{e2e_path}: {SCHEMA_E2E} ({} traced events)",
        snapshot.events.len()
    );
    println!("{trace_path}: sample Chrome trace");

    // The comparable surface: every document's *_ns leaves under one
    // root (the throughput doc joins below when `--throughput` ran, so
    // a baseline carrying its leaves must be gated with the same flag).
    let mut section_entries = vec![
        ("resume_doc".to_string(), resume_doc),
        ("e2e_doc".to_string(), e2e_doc),
    ];

    let mut throughput_failures: Vec<String> = Vec::new();
    if opts.throughput {
        let record_cost = histogram_record_cost_ns();
        let mut runs = BTreeMap::new();
        let mut single_thread_ips = None;
        let mut best_multi: Option<&ThroughputRun> = None;
        let mut all_runs = Vec::new();
        for &threads in &opts.threads {
            let run = throughput_run(
                opts.seed,
                &cost,
                threads,
                opts.invocations,
                !opts.disable_batching,
            );
            println!(
                "throughput: {:>2} thread(s) -> {:>10.0} inv/s \
                 (wall p50 {} ns, p99 {} ns, {} retries, {} violation(s))",
                threads,
                run.invocations_per_sec,
                run.wall.percentile(50.0),
                run.wall.percentile(99.0),
                run.retries,
                run.violations.len()
            );
            throughput_failures.extend(run.violations.iter().cloned());
            all_runs.push(run);
        }
        for run in &all_runs {
            if run.threads == 1 {
                single_thread_ips = Some(run.invocations_per_sec);
            } else {
                match best_multi {
                    Some(b) if run.invocations_per_sec <= b.invocations_per_sec => {}
                    _ => best_multi = Some(run),
                }
            }
            runs.insert(run.threads.to_string(), throughput_run_json(run));
        }
        let speedup = match (single_thread_ips, best_multi) {
            (Some(single), Some(best)) if single > 0.0 => {
                Some((best.threads, best.invocations_per_sec / single))
            }
            _ => None,
        };
        if let Some(floor) = opts.gate_min_ips {
            match single_thread_ips {
                Some(ips) if ips >= floor => println!(
                    "throughput gate: single-thread reaches {ips:.0} inv/s (>= {floor:.0} floor)"
                ),
                Some(ips) => throughput_failures.push(format!(
                    "min-ips gate: single-thread reaches only {ips:.0} inv/s, \
                     below the {floor:.0} floor"
                )),
                None => throughput_failures
                    .push("min-ips gate: no single-threaded run measured".to_string()),
            }
        }
        if let Some(gate) = opts.gate_speedup {
            match speedup {
                Some((threads, s)) if s >= gate => println!(
                    "throughput gate: {threads} threads reach {s:.2}x single-thread (>= {gate}x)"
                ),
                Some((threads, s)) => throughput_failures.push(format!(
                    "speedup gate: best multi-threaded point ({threads} threads) reaches only \
                     {s:.2}x single-thread, below the {gate}x gate"
                )),
                None => throughput_failures
                    .push("speedup gate: no comparable single/multi thread pair ran".to_string()),
            }
        }

        let mut throughput_entries = vec![
            (
                "schema".to_string(),
                JsonValue::String(SCHEMA_THROUGHPUT.into()),
            ),
            ("git_sha".to_string(), JsonValue::String(sha.clone())),
            ("seed".to_string(), num(opts.seed as f64)),
            ("hosts".to_string(), num(THROUGHPUT_HOSTS as f64)),
            (
                "provisioned_per_host".to_string(),
                num(THROUGHPUT_PER_HOST as f64),
            ),
            (
                "invocation_budget".to_string(),
                num(opts.invocations as f64),
            ),
            (
                "available_parallelism".to_string(),
                num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            ),
            ("histogram_record_ns_per_op".to_string(), num(record_cost)),
            (
                "batching".to_string(),
                JsonValue::Bool(!opts.disable_batching),
            ),
            ("runs".to_string(), JsonValue::Object(runs)),
        ];
        if let Some((threads, s)) = speedup {
            throughput_entries.push((
                "best_speedup".to_string(),
                obj(vec![
                    ("threads".into(), num(threads as f64)),
                    ("vs_single_thread".into(), num(s)),
                ]),
            ));
        }
        let throughput_doc = obj(throughput_entries);
        let throughput_path = format!("{}/BENCH_throughput.json", opts.out);
        write_json(&throughput_path, &throughput_doc);
        println!(
            "{throughput_path}: {SCHEMA_THROUGHPUT} (Histogram::record = {record_cost:.1} ns/op)"
        );
        section_entries.push(("throughput_doc".to_string(), throughput_doc));
    }

    // Wall-clock resume sweep: real threads, real sleeps, robust stats.
    // Deliberately NOT part of `sections` — nothing here is
    // deterministic, so nothing here may join the baseline gate.
    let mut wall_failures: Vec<String> = Vec::new();
    if opts.wall_clock_resume {
        let horse = wall_sweep(&cost, ResumeMode::Horse, opts.serial_splice);
        let vanil = wall_sweep(&cost, ResumeMode::Vanilla, false);
        for (label, points) in [("horse", &horse), ("vanil", &vanil)] {
            for p in points {
                println!(
                    "wallclock: {label} v{:>3} -> mean {:>12.0} ns \
                     (median {:.0}, min {:.0}, max {:.0}, {} kept / {} rejected)",
                    p.vcpus,
                    p.summary.mean,
                    p.summary.median,
                    p.summary.min,
                    p.summary.max,
                    p.summary.kept,
                    p.summary.rejected
                );
            }
        }
        let horse_growth = wall_growth(&horse);
        let vanil_growth = wall_growth(&vanil);
        if horse_growth < WALL_SUBLINEAR_BOUND {
            println!(
                "wallclock gate: parallel-splice growth 1→144 is {horse_growth:.1}x \
                 (sub-linear, < {WALL_SUBLINEAR_BOUND}x)"
            );
        } else {
            wall_failures.push(format!(
                "parallel-splice wall-clock growth 1→144 is {horse_growth:.1}x, \
                 not sub-linear (gate: < {WALL_SUBLINEAR_BOUND}x)"
            ));
        }
        if vanil_growth >= WALL_SUBLINEAR_BOUND {
            println!(
                "wallclock gate: vanilla growth 1→144 is {vanil_growth:.1}x \
                 (~linear, >= {WALL_SUBLINEAR_BOUND}x) — the comparison is live"
            );
        } else {
            wall_failures.push(format!(
                "vanilla wall-clock growth 1→144 is only {vanil_growth:.1}x \
                 (gate: >= {WALL_SUBLINEAR_BOUND}x) — the wake emulation is not \
                 exercising the linear path, so the sub-linear claim proves nothing"
            ));
        }

        let wall_doc = obj(vec![
            ("schema".into(), JsonValue::String(SCHEMA_WALLCLOCK.into())),
            ("git_sha".into(), JsonValue::String(sha.clone())),
            ("seed".into(), num(opts.seed as f64)),
            ("splice_workers".into(), num(WALL_WORKERS as f64)),
            ("wake_emulation_nanos".into(), num(WALL_WAKE_NANOS as f64)),
            ("repetitions".into(), num(WALL_REPS as f64)),
            ("serial_splice".into(), JsonValue::Bool(opts.serial_splice)),
            ("sublinear_bound".into(), num(WALL_SUBLINEAR_BOUND)),
            (
                "available_parallelism".into(),
                num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            ),
            ("horse".into(), wall_mode_json(&horse)),
            ("vanil".into(), wall_mode_json(&vanil)),
        ]);
        let wall_path = format!("{}/BENCH_wallclock.json", opts.out);
        write_json(&wall_path, &wall_doc);
        println!(
            "{wall_path}: {SCHEMA_WALLCLOCK} (horse {horse_growth:.1}x, \
             vanil {vanil_growth:.1}x over 1→144 vCPUs)"
        );
    }

    let sections = obj(section_entries);

    if opts.write_baseline {
        let path = format!("{}/bench_baseline.json", opts.out);
        // The baseline is committed *before* the commit it will gate, so
        // an embedded sha would always name the wrong tree — drop it.
        let mut sections = sections.clone();
        if let JsonValue::Object(docs) = &mut sections {
            for doc in docs.values_mut() {
                if let JsonValue::Object(map) = doc {
                    map.remove("git_sha");
                }
            }
        }
        let mut seeds = match std::fs::read_to_string(&path) {
            Ok(text) => match json::parse(&text).expect("existing baseline parses") {
                JsonValue::Object(mut map) => match map.remove("seeds") {
                    Some(JsonValue::Object(seeds)) => seeds,
                    _ => BTreeMap::new(),
                },
                _ => BTreeMap::new(),
            },
            Err(_) => BTreeMap::new(),
        };
        // Merge at the section level: sections other binaries own (e.g.
        // `profile_report`'s `profile_doc`) survive a bench_suite
        // baseline refresh, and vice versa.
        let mut entry = match seeds.remove(&opts.seed.to_string()) {
            Some(JsonValue::Object(existing)) => existing,
            _ => BTreeMap::new(),
        };
        if let JsonValue::Object(new_sections) = &sections {
            for (k, v) in new_sections {
                entry.insert(k.clone(), v.clone());
            }
        }
        seeds.insert(opts.seed.to_string(), JsonValue::Object(entry));
        let baseline = obj(vec![
            ("schema".into(), JsonValue::String(SCHEMA_BASELINE.into())),
            ("seeds".into(), JsonValue::Object(seeds)),
        ]);
        write_json(&path, &baseline);
        println!("{path}: baseline updated for seed {}", opts.seed);
    }

    if let Some(baseline_path) = &opts.against {
        let text = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("read {baseline_path}: {e}"));
        let baseline = json::parse(&text).expect("baseline is valid JSON");
        match compare(&baseline, opts.seed, &sections) {
            Ok(violations) if violations.is_empty() => {
                println!(
                    "perf gate: all *_ns leaves within ±{:.0} % of {baseline_path} (seed {})",
                    100.0 * NOISE_BAND,
                    opts.seed
                );
            }
            Ok(violations) => {
                eprintln!(
                    "perf gate FAILED against {baseline_path} (seed {}): {} leaf(s) out of band",
                    opts.seed,
                    violations.len()
                );
                for v in &violations {
                    eprintln!("  {v}");
                }
                std::process::exit(1);
            }
            Err(msg) => {
                eprintln!("perf gate error: {msg}");
                std::process::exit(1);
            }
        }
    }

    if !throughput_failures.is_empty() {
        eprintln!(
            "throughput suite FAILED: {} problem(s)",
            throughput_failures.len()
        );
        for f in &throughput_failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }

    if !wall_failures.is_empty() {
        eprintln!("wall-clock gate FAILED: {} problem(s)", wall_failures.len());
        for f in &wall_failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
