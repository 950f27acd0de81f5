//! Continuous-profiling report with a CI gate.
//!
//! Runs a seeded, single-driver cluster soak with the profiling plane
//! enabled (the counting `#[global_allocator]`, phase-scoped allocation
//! attribution, and timed-lock/CAS contention counters) and emits:
//!
//! * `BENCH_profile.json` — allocations and bytes per pipeline phase,
//!   lock acquisitions / nominal wait / CAS retries per contention
//!   site, per-shard warm-pool occupancy, and the three gated leaves
//!   (`gate.allocs_per_warm_invoke`, `gate.allocs_per_horse_invoke`,
//!   `gate.lock_wait_ns`);
//! * `BENCH_profile.prom` — the same state as a Prometheus text-format
//!   page (plus wall-clock lock-wait histograms, which are informative
//!   only and never gated).
//!
//! Everything under the JSON document's deterministic sections comes
//! from *counts* of a seeded single-threaded workload, so a given tree
//! reproduces them bit-for-bit: `gate.lock_wait_ns` is acquisitions ×
//! a nominal per-acquisition constant — wall-clock waits are too noisy
//! for a ±10 % gate, acquisition counts are not. The binary proves the
//! determinism claim on every run by executing the measured soak twice
//! and failing if any gated number differs, and proves profiling is
//! observation-only by running once more with the plane disabled and
//! failing if any virtual-latency percentile moved.
//!
//! Modes:
//!
//! * `profile_report --seed 42 --out results` — run and write artifacts;
//! * `profile_report --against results/bench_baseline.json` — compare
//!   the gated leaves against the committed baseline's `profile_doc`
//!   section and exit non-zero beyond ±10 % (the CI profile gate);
//! * `profile_report --write-baseline` — merge this seed's
//!   `profile_doc` section into the committed baseline, preserving the
//!   sections other binaries own;
//! * `profile_report --inflate-allocs 32 --against ...` — perform 32
//!   extra heap allocations per warm and per HORSE invoke, which MUST
//!   trip the gate (CI runs this as the gate's negative test);
//! * `--gate-zero-alloc` — fail unless both measured loops, Warm and
//!   HORSE, perform exactly zero heap allocations per invoke.

use std::collections::BTreeMap;
use std::process::Command;

use horse_faas::{Cluster, DispatchPolicy, PlatformConfig, StartStrategy};
use horse_metrics::Histogram;
use horse_telemetry::alloc::PhaseAllocStats;
use horse_telemetry::contention::SiteStats;
use horse_telemetry::json::{self, JsonValue};
use horse_telemetry::{profiling, CountingAlloc, Recorder};
use horse_vmm::SandboxConfig;
use horse_workloads::Category;

/// The whole point of this binary: every allocation in the process goes
/// through the counting allocator (a single relaxed load + fall-through
/// to the system allocator while profiling is disabled).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SCHEMA_PROFILE: &str = "horse-bench/profile/1";
const SCHEMA_BASELINE: &str = "horse-bench/baseline/1";

/// Relative drift tolerated per gated leaf by `--against` (the issue's
/// ±10 % band; the workload is deterministic, so an unchanged tree
/// reproduces the baseline exactly).
const NOISE_BAND: f64 = 0.10;

/// Nominal cost charged per timed-lock acquisition when computing the
/// deterministic `gate.lock_wait_ns` leaf (an uncontended parking_lot
/// acquire is on this order). The *measured* wall-clock waits are
/// exported in the `.prom` page instead.
const NOMINAL_ACQUIRE_NS: u64 = 25;

/// Warm (vanilla resume) invocations of the measured loop — the
/// denominator of `gate.allocs_per_warm_invoke`.
const WARM_ROUNDS: usize = 200;
/// HORSE invocations exercising pause/plan/resume/splice/coalesce
/// phases — the denominator of `gate.allocs_per_horse_invoke`.
const HORSE_ROUNDS: usize = 200;
/// Unmeasured invocations before the measured warm loop. The first few
/// invocations on a fresh host fill the scratch-buffer pools (plan
/// buffers, register/page scratch) that the steady state then recycles
/// forever; the zero-alloc gate is a *steady-state* claim, so those
/// one-time pool fills run before the measured window opens.
const WARMUP_ROUNDS: usize = 16;

struct Options {
    seed: u64,
    out: String,
    against: Option<String>,
    write_baseline: bool,
    inflate_allocs: u64,
    gate_zero_alloc: bool,
}

const USAGE: &str = "usage: profile_report [--seed <u64>] [--out <dir>] \
     [--against <baseline.json>] [--write-baseline] [--inflate-allocs <u64>] \
     [--gate-zero-alloc]";

impl Options {
    fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = Options {
            seed: 42,
            out: "results".to_string(),
            against: None,
            write_baseline: false,
            inflate_allocs: 0,
            gate_zero_alloc: false,
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
                "--inflate-allocs" => {
                    opts.inflate_allocs = value()?
                        .parse()
                        .map_err(|e| format!("bad --inflate-allocs: {e}; {USAGE}"))?;
                }
                "--gate-zero-alloc" => opts.gate_zero_alloc = true,
                other => return Err(format!("unknown flag {other}; {USAGE}")),
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

/// Everything one measured soak produces.
struct SoakResult {
    /// Total allocations observed during the warm loop (all phases).
    warm_allocs: u64,
    /// Total allocations observed during the HORSE loop (all phases).
    horse_allocs: u64,
    /// Per-phase allocation profile at the end of the soak.
    alloc: Vec<PhaseAllocStats>,
    /// Per-site contention profile at the end of the soak.
    contention: Vec<SiteStats>,
    /// Gauge state at drain (carries the per-shard pool occupancy).
    gauges: Vec<(&'static str, u64)>,
    snapshot: horse_telemetry::TraceSnapshot,
    /// Virtual (cost-model) latency of the warm and horse loops —
    /// deterministic, used for the bit-identity check.
    virt_init: Histogram,
    virt_total: Histogram,
}

/// Runs the seeded single-driver soak. With `profiled`, the counting
/// allocator and contention counters are live (and reset first); the
/// virtual-latency results must be identical either way.
fn soak(seed: u64, profiled: bool, inflate_allocs: u64) -> SoakResult {
    if profiled {
        profiling::reset();
    }
    profiling::set_enabled(profiled);

    let mut cluster = Cluster::with_config(
        3,
        DispatchPolicy::RoundRobin,
        seed,
        PlatformConfig::default(),
    );
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
    recorder.drain(); // provisioning is untracked noise: keep it out

    let mut virt_init = Histogram::new();
    let mut virt_total = Histogram::new();

    for _ in 0..WARMUP_ROUNDS {
        cluster
            .invoke(warm_fn, StartStrategy::Warm)
            .expect("warm-up invoke");
        cluster
            .invoke(horse_fn, StartStrategy::Horse)
            .expect("warm-up invoke");
    }

    let allocs_before = total_allocs();
    for _ in 0..WARM_ROUNDS {
        let (_, record) = cluster
            .invoke(warm_fn, StartStrategy::Warm)
            .expect("warm invoke");
        virt_init.record(record.init_ns);
        virt_total.record(record.total_ns());
        inflate(inflate_allocs);
    }
    let warm_allocs = total_allocs() - allocs_before;

    let allocs_before = total_allocs();
    for _ in 0..HORSE_ROUNDS {
        let (_, record) = cluster
            .invoke(horse_fn, StartStrategy::Horse)
            .expect("horse invoke");
        virt_init.record(record.init_ns);
        virt_total.record(record.total_ns());
        inflate(inflate_allocs);
    }
    let horse_allocs = total_allocs() - allocs_before;
    let snapshot = recorder.drain();

    let result = SoakResult {
        warm_allocs,
        horse_allocs,
        alloc: horse_telemetry::alloc::snapshot(),
        contention: horse_telemetry::contention::snapshot(),
        gauges: snapshot.gauges.clone(),
        snapshot,
        virt_init,
        virt_total,
    };
    profiling::set_enabled(false);
    result
}

/// The gate's negative self-test: deliberately allocate `n` times per
/// invoke so both per-invoke allocation leaves provably move.
fn inflate(n: u64) {
    for _ in 0..n {
        std::hint::black_box(vec![0u8; 256]);
    }
}

/// Allocations observed so far, summed across every phase (including
/// untracked) — zero while profiling is disabled. Reads the counters
/// without allocating, so the probe never counts itself.
fn total_allocs() -> u64 {
    horse_telemetry::alloc::total_allocs()
}

fn obj(entries: Vec<(String, JsonValue)>) -> JsonValue {
    JsonValue::Object(entries.into_iter().collect::<BTreeMap<_, _>>())
}

fn num(v: f64) -> JsonValue {
    JsonValue::Number(v)
}

/// The deterministic sections of `BENCH_profile.json` (everything the
/// baseline stores).
fn deterministic_sections(r: &SoakResult) -> Vec<(String, JsonValue)> {
    let total_invocations = (WARM_ROUNDS + HORSE_ROUNDS) as f64;

    let lock_wait_ns: u64 = r
        .contention
        .iter()
        .map(|s| s.acquisitions * NOMINAL_ACQUIRE_NS)
        .sum();
    let gate = obj(vec![
        (
            "allocs_per_warm_invoke".into(),
            num(r.warm_allocs as f64 / WARM_ROUNDS as f64),
        ),
        (
            "allocs_per_horse_invoke".into(),
            num(r.horse_allocs as f64 / HORSE_ROUNDS as f64),
        ),
        ("lock_wait_ns".into(), num(lock_wait_ns as f64)),
    ]);

    let mut phases = BTreeMap::new();
    for s in &r.alloc {
        phases.insert(
            s.phase.name().to_string(),
            obj(vec![
                ("allocs".into(), num(s.allocs as f64)),
                ("bytes".into(), num(s.bytes_allocated as f64)),
                (
                    "allocs_per_invoke".into(),
                    num(s.allocs as f64 / total_invocations),
                ),
                (
                    "bytes_per_invoke".into(),
                    num(s.bytes_allocated as f64 / total_invocations),
                ),
                // Pool-recycled buffers: hot-path work the phase served
                // *without* touching the heap. The complement of
                // `allocs` — a zero-alloc steady state shows recycles
                // climbing while allocs stays flat.
                ("recycles".into(), num(s.recycles as f64)),
                (
                    "recycles_per_invoke".into(),
                    num(s.recycles as f64 / total_invocations),
                ),
            ]),
        );
    }

    let mut sites = BTreeMap::new();
    for s in &r.contention {
        sites.insert(
            s.site.name().to_string(),
            obj(vec![
                ("acquisitions".into(), num(s.acquisitions as f64)),
                ("cas_retries".into(), num(s.cas_retries as f64)),
                (
                    "cas_retries_per_invoke".into(),
                    num(s.cas_retries as f64 / total_invocations),
                ),
                (
                    "nominal_wait_ns".into(),
                    num((s.acquisitions * NOMINAL_ACQUIRE_NS) as f64),
                ),
            ]),
        );
    }

    let mut pool_shards = BTreeMap::new();
    for (name, value) in &r.gauges {
        if name.starts_with("pool_shard") {
            pool_shards.insert(name.to_string(), num(*value as f64));
        }
    }

    vec![
        ("gate".to_string(), gate),
        ("phases".to_string(), JsonValue::Object(phases)),
        ("sites".to_string(), JsonValue::Object(sites)),
        ("pool_shards".to_string(), JsonValue::Object(pool_shards)),
        (
            "invocations".to_string(),
            obj(vec![
                ("warm".into(), num(WARM_ROUNDS as f64)),
                ("horse".into(), num(HORSE_ROUNDS as f64)),
            ]),
        ),
    ]
}

/// Virtual-latency fingerprint used by the determinism and bit-identity
/// checks: exact percentiles of the cost-model latencies.
fn virt_fingerprint(r: &SoakResult) -> Vec<u64> {
    [&r.virt_init, &r.virt_total]
        .iter()
        .flat_map(|h| {
            [50.0, 99.0, 99.9, 100.0]
                .iter()
                .map(|&p| h.percentile(p))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Flattens every numeric leaf to `(dotted.path, value)`.
fn numeric_leaves(value: &JsonValue, prefix: &str, out: &mut BTreeMap<String, f64>) {
    if let JsonValue::Object(map) = value {
        for (key, child) in map {
            let path = if prefix.is_empty() {
                key.clone()
            } else {
                format!("{prefix}.{key}")
            };
            match child {
                JsonValue::Number(n) => {
                    out.insert(path, *n);
                }
                _ => numeric_leaves(child, &path, out),
            }
        }
    }
}

/// Compares this run's gated leaves against the baseline's
/// `profile_doc.gate` for `seed`. Returns violations (empty = pass).
fn compare_gate(baseline: &JsonValue, seed: u64, gate: &JsonValue) -> Result<Vec<String>, String> {
    if baseline.get("schema").and_then(|v| v.as_str()) != Some(SCHEMA_BASELINE) {
        return Err(format!("baseline schema is not {SCHEMA_BASELINE}"));
    }
    let expected_gate = baseline
        .get("seeds")
        .and_then(|s| s.get(&seed.to_string()))
        .and_then(|e| e.get("profile_doc"))
        .and_then(|d| d.get("gate"))
        .ok_or_else(|| {
            format!("baseline has no profile_doc.gate for seed {seed} (run --write-baseline)")
        })?;
    let mut expected = BTreeMap::new();
    numeric_leaves(expected_gate, "gate", &mut expected);
    let mut actual = BTreeMap::new();
    numeric_leaves(gate, "gate", &mut actual);
    if expected.is_empty() {
        return Err(format!(
            "baseline profile_doc.gate for seed {seed} is empty"
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
                        "{path}: {base:.1} -> {cur:.1} ({:+.1} % > ±{:.0} % band)",
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

    // Run 1 + 2 (profiled): the determinism self-check. Every gated
    // number must reproduce exactly — the gate is only sound if the
    // measurement is.
    let first = soak(opts.seed, true, opts.inflate_allocs);
    let second = soak(opts.seed, true, opts.inflate_allocs);
    let first_sections = obj(deterministic_sections(&first));
    let second_sections = obj(deterministic_sections(&second));
    if first_sections.render() != second_sections.render() {
        eprintln!("profile_report: two identical profiled soaks disagree — measurement is not");
        eprintln!("deterministic; refusing to write a gate baseline from noise");
        std::process::exit(1);
    }
    if virt_fingerprint(&first) != virt_fingerprint(&second) {
        eprintln!("profile_report: virtual latencies differ across identical profiled soaks");
        std::process::exit(1);
    }

    // Run 3 (unprofiled): profiling must be observation-only — the
    // virtual results of the pipeline are bit-identical either way.
    let unprofiled = soak(opts.seed, false, opts.inflate_allocs);
    let bit_identical = virt_fingerprint(&unprofiled) == virt_fingerprint(&first);
    if !bit_identical {
        eprintln!("profile_report: enabling profiling changed virtual latencies — the plane");
        eprintln!("is supposed to observe the pipeline, not perturb it");
        std::process::exit(1);
    }

    let mut doc_entries = vec![
        (
            "schema".to_string(),
            JsonValue::String(SCHEMA_PROFILE.into()),
        ),
        ("git_sha".to_string(), JsonValue::String(sha.clone())),
        ("seed".to_string(), num(opts.seed as f64)),
        (
            "inflate_allocs".to_string(),
            num(opts.inflate_allocs as f64),
        ),
        (
            "checks".to_string(),
            obj(vec![
                ("deterministic".into(), JsonValue::Bool(true)),
                ("bit_identical_virtual".into(), JsonValue::Bool(true)),
            ]),
        ),
    ];
    doc_entries.extend(deterministic_sections(&first));
    let doc = obj(doc_entries);

    let json_path = format!("{}/BENCH_profile.json", opts.out);
    write_json(&json_path, &doc);
    let prom_path = format!("{}/BENCH_profile.prom", opts.out);
    horse_metrics::export::write_prometheus_page(
        &prom_path,
        &first.snapshot,
        &first.alloc,
        &first.contention,
    )
    .expect("write prometheus page");

    let gate = doc.get("gate").expect("doc carries gate").clone();
    let mut gate_leaves = BTreeMap::new();
    numeric_leaves(&gate, "gate", &mut gate_leaves);
    println!(
        "{json_path}: {SCHEMA_PROFILE} (sha {sha}, seed {})",
        opts.seed
    );
    println!("{prom_path}: Prometheus text-format page");
    for (path, v) in &gate_leaves {
        println!("  {path} = {v:.1}");
    }

    // The exact-zero gate: the steady-state Warm and HORSE paths
    // recycle every buffer they touch, so *any* heap allocation per
    // invoke is a regression — no noise band, each leaf must be 0.0.
    if opts.gate_zero_alloc {
        let loops = [
            ("allocs_per_warm_invoke", first.warm_allocs, WARM_ROUNDS),
            ("allocs_per_horse_invoke", first.horse_allocs, HORSE_ROUNDS),
        ];
        let mut failed = false;
        for (leaf, allocs, rounds) in loops {
            let per_invoke = allocs as f64 / rounds as f64;
            if per_invoke == 0.0 {
                println!("zero-alloc gate: gate.{leaf} == 0");
            } else {
                eprintln!(
                    "zero-alloc gate FAILED: gate.{leaf} = {per_invoke:.2} \
                     (the steady-state invoke path must not allocate)"
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }

    if opts.write_baseline {
        let path = format!("{}/bench_baseline.json", opts.out);
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
        // Merge at the section level: bench_suite's sections survive a
        // profile baseline refresh, and vice versa.
        let mut entry = match seeds.remove(&opts.seed.to_string()) {
            Some(JsonValue::Object(existing)) => existing,
            _ => BTreeMap::new(),
        };
        entry.insert(
            "profile_doc".to_string(),
            obj(deterministic_sections(&first)),
        );
        seeds.insert(opts.seed.to_string(), JsonValue::Object(entry));
        let baseline = obj(vec![
            ("schema".into(), JsonValue::String(SCHEMA_BASELINE.into())),
            ("seeds".into(), JsonValue::Object(seeds)),
        ]);
        write_json(&path, &baseline);
        println!(
            "{path}: profile_doc baseline updated for seed {}",
            opts.seed
        );
    }

    if let Some(baseline_path) = &opts.against {
        let text = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("read {baseline_path}: {e}"));
        let baseline = json::parse(&text).expect("baseline is valid JSON");
        match compare_gate(&baseline, opts.seed, &gate) {
            Ok(violations) if violations.is_empty() => {
                println!(
                    "profile gate: all gated leaves within ±{:.0} % of {baseline_path} (seed {})",
                    100.0 * NOISE_BAND,
                    opts.seed
                );
            }
            Ok(violations) => {
                eprintln!(
                    "profile gate FAILED against {baseline_path} (seed {}): {} leaf(s) out of band",
                    opts.seed,
                    violations.len()
                );
                for v in &violations {
                    eprintln!("  {v}");
                }
                std::process::exit(1);
            }
            Err(msg) => {
                eprintln!("profile gate error: {msg}");
                std::process::exit(1);
            }
        }
    }
}
