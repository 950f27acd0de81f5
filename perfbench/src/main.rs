//! The HORSE reproduction's benchmark: one command runs a workload on a
//! seed, checks the outputs, and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ull_open --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced pass;
//! `--trace 1` runs an untraced and a traced pass of the same seed, then
//! replays the traced pass layer by layer, and prints the per-layer
//! metrics (see `perfbench/README.md`). The last
//! line of standard output is the result object; the traced run also
//! writes its spans as a Chrome trace under `perfbench/out/`.

mod checks;
mod drive;
mod ladder;
mod replay;
mod report;
mod workload;

use checks::Checks;
use drive::{Pass, Tally, Target};
use horse_faas::{Cluster, FunctionId};
use horse_telemetry::contention::{self, ContentionSite};
use horse_telemetry::json::JsonValue;
use horse_telemetry::{alloc, profiling};
use report::{mean, median, number, object, quantile, ratio, Metrics};
use std::process::ExitCode;
use std::time::Instant;
use workload::{CallStream, Fleet, Workload, LAT_LIMIT_NS, NOMINAL_RATE};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Fleet builds per round: at least `SETUP_REPEATS`, and more until
/// `SETUP_BUDGET_S` is spent (at most `SETUP_MAX`). An untraced run builds
/// one round before its measured pass and one after it, so `setup_s`, the
/// median of both rounds, samples the machine at two times.
const SETUP_REPEATS: usize = 5;
const SETUP_BUDGET_S: f64 = 0.5;
const SETUP_MAX: usize = 10_000;
/// The layer spans summed per invocation must cover the `faas.platform`
/// span to within this share of it: the platform's own work (registry
/// read, exec sampling, counters) is the rest.
const CLOSURE_TOLERANCE: f64 = 0.15;
/// Spans per pass written to the Chrome trace.
const TRACE_SPANS: usize = 5_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type Error = Box<dyn std::error::Error>;

/// Runs one workload; `Ok(false)` when a correctness check failed.
fn run(args: &Args) -> Result<bool, Error> {
    let w = args.workload;
    let fleet = w.fleet();
    let provenance = provenance(args);
    println!("# provenance {}", provenance.render());

    let mut checks = Checks::default();
    let seconds_ns = args.seconds * 1_000_000_000;
    let epoch = Instant::now();
    let (metrics, attempted, failed) = if args.trace {
        traced_run(args, &fleet, seconds_ns, epoch, &provenance, &mut checks)?
    } else {
        let mut setups = Vec::with_capacity(2 * SETUP_MAX);
        time_setups(&fleet, args.seed, &mut setups)?;
        let mut m = Metrics::default();
        let (attempted, failed) =
            untraced_run(args, &fleet, seconds_ns, epoch, &mut m, &mut checks)?;
        time_setups(&fleet, args.seed, &mut setups)?;
        m.put("setup_s", median(&setups), "s");
        m.put("peak_rss_mb", report::peak_rss_mb(), "MB");
        (m, attempted, failed)
    };

    for (name, value, unit) in metrics.iter() {
        println!("{name} = {} {unit}", number(*value).render());
    }
    for breach in &checks.breaches {
        eprintln!("CHECK FAILED: {breach}");
    }
    let result = object([
        ("correct", JsonValue::Bool(checks.passed())),
        ("attempted", number(attempted as f64)),
        ("failed", number(failed as f64)),
        ("metrics", metrics.to_json()),
    ]);
    println!("{}", result.render());
    Ok(checks.passed())
}

/// Times one round of fleet builds (each dropped before the next) into
/// `out`, in seconds.
fn time_setups(fleet: &Fleet, seed: u64, out: &mut Vec<f64>) -> Result<(), Error> {
    let (mut builds, mut spent) = (0, 0.0);
    while builds < SETUP_REPEATS || (spent < SETUP_BUDGET_S && builds < SETUP_MAX) {
        let t0 = Instant::now();
        let built = fleet.build(seed)?;
        let s = t0.elapsed().as_secs_f64();
        drop(built);
        out.push(s);
        spent += s;
        builds += 1;
    }
    Ok(())
}

/// A fresh fleet and one measured pass of the workload on it (open
/// loop: at the nominal rate).
fn measured_pass(
    args: &Args,
    fleet: &Fleet,
    duration_ns: u64,
    epoch: Instant,
    traced: bool,
) -> Result<(Cluster, Vec<FunctionId>, Pass), Error> {
    let (cluster, ids) = fleet.build(args.seed)?;
    let target = Target {
        cluster: &cluster,
        ids: &ids,
        fleet,
        epoch,
        traced,
    };
    let pass = if args.workload.is_open() {
        drive::open_phase(
            &target,
            args.seed,
            "nominal",
            NOMINAL_RATE,
            duration_ns,
            true,
            drive::WINDOWS,
        )
    } else {
        let mut calls = CallStream::new(args.workload, fleet, args.seed);
        drive::closed_loop(&target, &mut calls, duration_ns)
    };
    Ok((cluster, ids, pass))
}

/// Ledger, pool and VMM checks of a fleet after all its passes;
/// `served` is everything driven through it, warm-up included.
fn check_fleet(
    checks: &mut Checks,
    w: Workload,
    cluster: &Cluster,
    ids: &[FunctionId],
    fleet: &Fleet,
    served: &Tally,
    bad_calls: u64,
) {
    checks.require(bad_calls == 0, || {
        format!("{bad_calls} calls returned errors or wrong records")
    });
    if w.is_open() {
        if let Err(e) = checks::ledger(served, &cluster.reliability_snapshot()) {
            checks.breaches.push(e);
        }
    } else {
        checks.require(served.completed == served.submitted, || {
            format!(
                "{} of {} requests did not complete",
                served.not_completed(),
                served.submitted
            )
        });
    }
    checks::fleet_accounting(checks, cluster, ids, fleet, served);
}

fn total(p: &Pass) -> Tally {
    let mut t = p.warmup;
    t.add(&p.tally);
    t
}

/// End-to-end metrics from an untraced run. Returns (attempted, failed)
/// over the measured windows.
fn untraced_run(
    args: &Args,
    fleet: &Fleet,
    seconds_ns: u64,
    epoch: Instant,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(u64, u64), Error> {
    let w = args.workload;
    let (cluster, ids, pass) = measured_pass(args, fleet, seconds_ns, epoch, false)?;
    check_fleet(
        checks,
        w,
        &cluster,
        &ids,
        fleet,
        &total(&pass),
        pass.bad_calls,
    );

    m.put("throughput_ips", pass.completions_per_s(), "1/s");
    m.put("lat_p50_us", pass.lat.mean_of(|w| w.p50) / 1e3, "us");
    m.put(
        "served_frac",
        ratio(pass.tally.completed as f64, pass.tally.submitted as f64),
        "ratio",
    );
    m.put(
        "virt_init_p50_ns",
        quantile(&pass.virt_init, 0.5) as f64,
        "virt_ns",
    );
    m.put(
        "virt_init_p99_ns",
        quantile(&pass.virt_init, 0.99) as f64,
        "virt_ns",
    );
    println!(
        "# measured pass: {} latency samples, {} beyond p99, p90 {:.3} us, p99 {:.3} us",
        pass.lat.samples(),
        pass.lat.beyond_p99(),
        pass.lat.mean_of(|w| w.p90) / 1e3,
        pass.lat.mean_of(|w| w.p99) / 1e3
    );
    Ok((pass.tally.submitted, pass.tally.not_completed()))
}

/// Per-layer metrics from an untraced pass (and, open loop, the goodput
/// ladder), a traced pass, and the replays of the traced pass's calls.
fn traced_run(
    args: &Args,
    fleet: &Fleet,
    seconds_ns: u64,
    epoch: Instant,
    provenance: &JsonValue,
    checks: &mut Checks,
) -> Result<(Metrics, u64, u64), Error> {
    let w = args.workload;
    let (cluster, ids, base) = measured_pass(args, fleet, seconds_ns / 4, epoch, false)?;
    let mut served = total(&base);
    let mut bad_calls = base.bad_calls;
    let goodput = if w.is_open() {
        let target = Target {
            cluster: &cluster,
            ids: &ids,
            fleet,
            epoch,
            traced: false,
        };
        ladder::ladder_goodput(
            &target,
            args.seed,
            seconds_ns / 4,
            &mut served,
            &mut bad_calls,
        )
    } else {
        // A closed loop has no offered rate: its goodput is the rate of
        // requests that completed correctly.
        base.completions_per_s()
    };
    check_fleet(checks, w, &cluster, &ids, fleet, &served, bad_calls);
    drop(cluster);

    profiling::reset();
    profiling::set_enabled(true);
    let traced = measured_pass(args, fleet, seconds_ns / 4, epoch, true);
    profiling::set_enabled(false);
    let (cluster, ids, traced) = traced?;
    let sites = contention::snapshot();
    check_fleet(
        checks,
        w,
        &cluster,
        &ids,
        fleet,
        &total(&traced),
        traced.bad_calls,
    );
    let (mut hits, mut misses, mut evictions) = (0, 0, 0);
    for (spec, &id) in fleet.functions.iter().zip(&ids) {
        let s = cluster.aggregate_pool_stats(id, spec.strategy);
        hits += s.hits;
        misses += s.misses;
        evictions += s.evictions;
    }
    let plane = w.is_open().then(|| {
        (
            cluster.reliability_snapshot(),
            cluster.breaker_transitions().0,
        )
    });
    drop(cluster);

    let replay = replay::replay(
        fleet,
        args.seed,
        w.is_open(),
        &traced.calls,
        epoch,
        seconds_ns / 4,
    )?;

    // The virtual axis must not see tracing: the same seed's first
    // requests get bit-identical modeled init times in both passes.
    let n = base.virt_init.len().min(traced.virt_init.len());
    checks.require(n >= 1_000 && base.virt_init[..n] == traced.virt_init[..n], || {
        format!("virt: init_ns of the first {n} requests differ between the untraced and traced passes")
    });
    checks.require(replay.plan_fallbacks == 0, || {
        format!("vmm: {} plan fallbacks", replay.plan_fallbacks)
    });
    let platform_mean = mean(&replay.platform_ns);
    let child_mean = mean(&replay.child_sum_ns);
    let residual = ratio(platform_mean - child_mean, platform_mean);
    checks.require(residual.abs() <= CLOSURE_TOLERANCE, || {
        format!(
            "closure: layer spans sum to {child_mean:.0} ns per invocation against {platform_mean:.0} ns of faas.platform (residual {residual:.3}, tolerance {CLOSURE_TOLERANCE})"
        )
    });

    let mut events = Vec::new();
    traced.spans.chrome_events(1, 1, TRACE_SPANS, &mut events);
    replay
        .cluster_spans
        .chrome_events(2, 1, TRACE_SPANS, &mut events);
    replay
        .platform_spans
        .chrome_events(2, 2, TRACE_SPANS, &mut events);
    replay
        .layer_spans
        .chrome_events(2, 3, TRACE_SPANS, &mut events);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.trace.json", w.name(), args.seed));
    std::fs::write(&path, report::chrome_trace(events, provenance.clone()))?;
    println!("# spans written to {}", path.display());

    let mut m = Metrics::default();
    let base_ns_per_req = ratio(base.busy_ns as f64, base.tally.submitted as f64);
    let traced_ns_per_req = ratio(traced.busy_ns as f64, traced.tally.submitted as f64);
    m.put(
        "driver.lag_p99_us",
        traced.lag.mean_of(|w| w.p99) / 1e3,
        "us",
    );
    m.put("driver.backlog_max", traced.backlog_max as f64, "count");
    m.put(
        "driver.trace_overhead_frac",
        ratio(traced_ns_per_req, base_ns_per_req) - 1.0,
        "ratio",
    );
    m.put("driver.untraced_ns_per_req", base_ns_per_req, "ns");
    m.put("driver.traced_ns_per_req", traced_ns_per_req, "ns");
    m.put("goodput_ips", goodput, "1/s");
    m.put("lat_p90_us", base.lat.mean_of(|w| w.p90) / 1e3, "us");
    m.put("lat_p99_us", base.lat.mean_of(|w| w.p99) / 1e3, "us");
    m.put("driver.lat_samples", base.lat.samples() as f64, "count");
    m.put(
        "driver.lat_beyond_p99",
        base.lat.beyond_p99() as f64,
        "count",
    );
    m.put(
        "driver.fail_frac",
        ratio(
            base.tally.not_completed() as f64,
            base.tally.submitted as f64,
        ),
        "ratio",
    );

    m.put(
        "faas.cluster.ns_per_req_p50",
        quantile(&replay.cluster_ns_per_req, 0.5) as f64,
        "ns",
    );
    m.put(
        "faas.cluster.ns_per_req_p99",
        quantile(&replay.cluster_ns_per_req, 0.99) as f64,
        "ns",
    );
    m.put(
        "faas.cluster.self_ns_mean",
        ratio(replay.cluster_ns as f64, replay.cluster_requests as f64) - platform_mean,
        "ns",
    );
    m.put(
        "faas.platform.ns_per_inv_p50",
        quantile(&replay.platform_ns, 0.5) as f64,
        "ns",
    );
    m.put(
        "faas.platform.ns_per_inv_p99",
        quantile(&replay.platform_ns, 0.99) as f64,
        "ns",
    );
    m.put(
        "faas.platform.self_ns_mean",
        platform_mean - child_mean,
        "ns",
    );
    m.put("faas.platform.closure_residual_frac", residual, "ratio");
    m.put(
        "faas.pool.take_ns_p50",
        quantile(&replay.take_ns, 0.5) as f64,
        "ns",
    );
    m.put(
        "faas.pool.put_ns_p50",
        quantile(&replay.put_ns, 0.5) as f64,
        "ns",
    );
    m.put(
        "faas.pool.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    m.put("faas.pool.evictions", evictions as f64, "count");
    let site = |s: ContentionSite| &sites[s as usize];
    let cas = site(ContentionSite::WarmStackCas).cas_retries
        + site(ContentionSite::FreeStackCas).cas_retries;
    m.put(
        "faas.pool.cas_retries_per_take",
        ratio(cas as f64, hits as f64),
        "ratio",
    );

    let (snap, opens) = plane.unwrap_or_default();
    let per_sub = |x: u64| ratio(x as f64, snap.submissions as f64);
    m.put("reliability.shed_frac", per_sub(snap.sheds), "ratio");
    m.put(
        "reliability.deadline_miss_frac",
        per_sub(snap.deadline_misses),
        "ratio",
    );
    m.put("reliability.failure_frac", per_sub(snap.failures), "ratio");
    m.put(
        "reliability.retries_per_sub",
        per_sub(snap.retries),
        "ratio",
    );
    m.put(
        "reliability.hedge_frac",
        per_sub(snap.hedges_launched),
        "ratio",
    );
    m.put("reliability.breaker_opens", opens as f64, "count");

    let lock = site(ContentionSite::VmmMutex);
    m.put(
        "vmm.lock_wait_ns_p50",
        quantile(&replay.lock_ns, 0.5) as f64,
        "ns",
    );
    m.put(
        "vmm.lock_wait_ns_p99",
        quantile(&replay.lock_ns, 0.99) as f64,
        "ns",
    );
    m.put(
        "vmm.lock_wait_ns_mean",
        ratio(lock.wait_ns_total as f64, lock.acquisitions as f64),
        "ns",
    );
    // The VmmMutex site's log2 wait histogram, folded to six ranges.
    for (name, buckets) in [
        ("le_128ns", 0..8),
        ("le_1us", 8..11),
        ("le_8us", 11..14),
        ("le_64us", 14..17),
        ("le_512us", 17..20),
        ("gt_512us", 20..contention::WAIT_BUCKETS),
    ] {
        let n: u64 = lock.wait_hist[buckets].iter().sum();
        m.put(format!("vmm.lock_wait_hist.{name}"), n as f64, "count");
    }
    for (label, s) in [("horse", &replay.modes[0]), ("vanilla", &replay.modes[1])] {
        m.put(
            format!("vmm.resume_ns_p50.{label}"),
            quantile(&s.resume_ns, 0.5) as f64,
            "ns",
        );
        m.put(
            format!("vmm.resume_ns_p99.{label}"),
            quantile(&s.resume_ns, 0.99) as f64,
            "ns",
        );
        m.put(
            format!("vmm.pause_ns_p50.{label}"),
            quantile(&s.pause_ns, 0.5) as f64,
            "ns",
        );
        m.put(
            format!("vmm.pause_ns_p99.{label}"),
            quantile(&s.pause_ns, 0.99) as f64,
            "ns",
        );
        m.put(
            format!("sched.step4_merge_virt_ns_p50.{label}"),
            quantile(&s.step4_ns, 0.5) as f64,
            "virt_ns",
        );
        m.put(
            format!("core.step5_load_virt_ns_p50.{label}"),
            quantile(&s.step5_ns, 0.5) as f64,
            "virt_ns",
        );
    }
    let horse = &replay.modes[0];
    m.put(
        "vmm.resume_real_over_model.horse",
        ratio(
            quantile(&horse.resume_ns, 0.5) as f64,
            quantile(&horse.resume_model_ns, 0.5) as f64,
        ),
        "ratio",
    );
    let shares = &replay.modes[1].steps45_share;
    m.put(
        "vmm.steps45_share.vanilla",
        ratio(shares.iter().sum(), shares.len() as f64),
        "ratio",
    );
    m.put(
        "vmm.pause_maintenance_virt_ns_mean",
        ratio(replay.maintenance_ns as f64, replay.pauses as f64),
        "virt_ns",
    );
    m.put("vmm.plan_bytes", replay.plan_bytes as f64, "bytes");
    m.put("vmm.splices_per_resume", mean(&replay.splices), "count");
    m.put("vmm.plan_fallbacks", replay.plan_fallbacks as f64, "count");
    m.put(
        "core.plan_precompute_virt_ns_mean",
        mean(&replay.plan_precompute_ns),
        "virt_ns",
    );
    m.put(
        "telemetry.allocs_per_inv",
        ratio(traced.allocs as f64, traced.tally.submitted as f64),
        "count",
    );

    let mut measured = base.tally;
    measured.add(&traced.tally);
    Ok((m, measured.submitted, measured.not_completed()))
}

/// The machine, toolchain, build and run settings, as one JSON object.
fn provenance(args: &Args) -> JsonValue {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let text = |s: &str| JsonValue::String(s.to_string());
    object([
        ("nproc", number(nproc as f64)),
        ("cpu", text(&cpu)),
        ("rustc", text(&rustc)),
        ("profile", text(profile)),
        ("git_sha", text(&report::git_sha())),
        ("workload", text(args.workload.name())),
        ("seed", number(args.seed as f64)),
        ("seconds", number(args.seconds as f64)),
        ("trace", number(f64::from(u8::from(args.trace)))),
        ("hosts", number(workload::HOSTS as f64)),
        ("nominal_rate", number(NOMINAL_RATE)),
        ("lat_limit_ns", number(LAT_LIMIT_NS as f64)),
        ("setup_repeats", number(SETUP_REPEATS as f64)),
    ])
}
