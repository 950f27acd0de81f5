//! The traced run's replays of the traced pass's calls, on three stacks
//! that alternate in chunks of [`CALL_CHUNK`] calls, so all three see the
//! machine in the same state:
//!
//! * the **cluster replay** re-issues each call on a fresh fleet through
//!   the workload's own entry point (`Cluster::submit_batch` or
//!   `Cluster::invoke_batch`), one `faas.cluster` span per call;
//! * the **host replay** re-serves each host's share of those calls on a
//!   second fresh fleet through `FaasPlatform::invoke_batch`, one
//!   `faas.platform` span per invocation;
//! * the **layer replay** serves the same per-host sequence on a host
//!   stack the benchmark builds from public parts — a `Mutex<Vmm>` and
//!   one `ShardedWarmPool` per function — with one span per call into
//!   each layer: `faas.pool.take`, `vmm.lock`, `vmm.resume`, `vmm.pause`,
//!   `faas.pool.put`, under a `layer.invoke` parent.
//!
//! The cluster span minus the platform span is the cluster's self time;
//! the layer spans summed per invocation set against `faas.platform` are
//! the closure.

use crate::drive::ull_request;
use crate::report::{ratio, Span, SpanLog, ROOT};
use crate::workload::Fleet;
use horse_faas::{
    Cluster, Disposition, FunctionId, HostId, KeepAlive, PlatformConfig, ShardedWarmPool,
    StartStrategy,
};
use horse_sim::SimTime;
use horse_vmm::{PausePolicy, PauseStep, ResumeMode, ResumeStep, Vmm};
use std::sync::Mutex;
use std::time::Instant;

/// Calls replayed untimed before the cluster replay records anything.
const CALL_WARMUP: usize = 200;
/// Invocations per host served untimed before the host and layer
/// replays record anything.
const REPLAY_WARMUP: usize = 500;
/// Calls replayed on the cluster stack before the host and layer stacks
/// serve their share.
const CALL_CHUNK: usize = 16;

type Error = Box<dyn std::error::Error>;

/// Samples of one strategy's resumes and pauses in the layer replay.
#[derive(Debug, Default)]
pub struct ModeSamples {
    pub resume_ns: Vec<u64>,
    pub resume_model_ns: Vec<u64>,
    pub pause_ns: Vec<u64>,
    /// Modeled ④ sorted merge / ⑤ load update of each resume.
    pub step4_ns: Vec<u64>,
    pub step5_ns: Vec<u64>,
    /// Modeled (④ + ⑤) / total of each resume.
    pub steps45_share: Vec<f64>,
}

/// One host built from public parts.
struct HostStack {
    vmm: Mutex<Vmm>,
    pools: Vec<ShardedWarmPool>,
}

fn policy_and_mode(strategy: StartStrategy) -> (PausePolicy, ResumeMode, usize) {
    if strategy == StartStrategy::Horse {
        (PausePolicy::horse(), ResumeMode::Horse, 0)
    } else {
        (PausePolicy::vanilla(), ResumeMode::Vanilla, 1)
    }
}

impl HostStack {
    /// Provisions like `Cluster::provision_all` does on one host:
    /// function by function, create → start → pause → pool.
    fn provision(fleet: &Fleet) -> Result<Self, horse_vmm::VmmError> {
        let cfg = PlatformConfig::default();
        let mut vmm = Vmm::new(cfg.sched, cfg.cost);
        let mut pools = Vec::with_capacity(fleet.functions.len());
        for spec in &fleet.functions {
            let pool = ShardedWarmPool::new(KeepAlive::Provisioned);
            let (policy, _, _) = policy_and_mode(spec.strategy);
            for _ in 0..spec.per_host {
                let id = vmm.create(spec.sandbox());
                vmm.start(id)?;
                vmm.pause(id, policy)?;
                pool.put(id, SimTime::ZERO);
            }
            pools.push(pool);
        }
        Ok(Self {
            vmm: Mutex::new(vmm),
            pools,
        })
    }
}

/// What the replays measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Wall ns per request of each timed cluster call.
    pub cluster_ns_per_req: Vec<u64>,
    /// Wall ns and requests of the timed cluster calls, summed.
    pub cluster_ns: u64,
    pub cluster_requests: u64,
    /// Wall ns of each timed one-invocation `invoke_batch`.
    pub platform_ns: Vec<u64>,
    pub take_ns: Vec<u64>,
    pub put_ns: Vec<u64>,
    pub lock_ns: Vec<u64>,
    /// `[horse, vanilla]`.
    pub modes: [ModeSamples; 2],
    /// Modeled plan precompute of each HORSE pause.
    pub plan_precompute_ns: Vec<u64>,
    /// Splices of each 𝒫²𝒮ℳ resume.
    pub splices: Vec<u64>,
    pub plan_fallbacks: u64,
    /// Layer-replay pauses, warm-up included.
    pub pauses: u64,
    /// Growth of the layer stacks' summed pause-time maintenance over
    /// the whole replay (modeled ns).
    pub maintenance_ns: u64,
    /// 𝒫²𝒮ℳ bytes held by every paused sandbox at the end.
    pub plan_bytes: usize,
    /// Layer spans summed, per timed invocation.
    pub child_sum_ns: Vec<u64>,
    /// `faas.cluster`, `faas.platform`, and `layer.invoke` spans with
    /// their children.
    pub cluster_spans: SpanLog,
    pub platform_spans: SpanLog,
    pub layer_spans: SpanLog,
}

/// Replays `calls` (each the function indices of one call's requests)
/// on the three stacks until they end or `budget_ns` is spent. `open`
/// selects the workload's entry point: `submit_batch` or `invoke_batch`.
pub fn replay(
    fleet: &Fleet,
    seed: u64,
    open: bool,
    calls: &[Vec<usize>],
    epoch: Instant,
    budget_ns: u64,
) -> Result<Replay, Error> {
    let (routed, routed_ids) = fleet.build(seed)?;
    let (hosts, ids) = fleet.build(seed)?;
    let stacks = (0..fleet.hosts)
        .map(|_| HostStack::provision(fleet))
        .collect::<Result<Vec<_>, _>>()?;
    let maintenance_start = maintenance(&stacks);
    let mut out = Replay::default();
    let mut served = vec![0usize; fleet.hosts];
    let mut invocations = Vec::with_capacity(CALL_CHUNK * 32);
    // Index of the chunk's first invocation: the request id of its spans.
    let mut first = 0;
    let now = || epoch.elapsed().as_nanos() as u64;
    let start = now();
    for (c, chunk) in calls.chunks(CALL_CHUNK).enumerate() {
        if now() - start > budget_ns {
            break;
        }
        invocations.clear();
        for (k, call) in chunk.iter().enumerate() {
            let index = c * CALL_CHUNK + k;
            cluster_call(
                &mut out,
                &routed,
                &routed_ids,
                fleet,
                open,
                call,
                index >= CALL_WARMUP,
                index,
                &mut invocations,
                now,
            )?;
        }
        let timed: Vec<bool> = invocations
            .iter()
            .map(|&(h, _)| {
                served[h] += 1;
                served[h] > REPLAY_WARMUP
            })
            .collect();
        for (k, &(h, f)) in invocations.iter().enumerate() {
            platform_invoke(
                &mut out,
                &hosts,
                &ids,
                fleet,
                (h, f),
                timed[k],
                first + k,
                now,
            )?;
        }
        for (k, &(h, f)) in invocations.iter().enumerate() {
            layer_invoke(&mut out, &stacks[h], fleet, f, timed[k], first + k, now)?;
        }
        first += invocations.len();
    }
    out.maintenance_ns = maintenance(&stacks) - maintenance_start;
    out.plan_bytes = stacks
        .iter()
        .map(|h| {
            h.vmm
                .lock()
                .expect("no replay thread panics")
                .total_plan_memory_bytes()
        })
        .sum();
    Ok(out)
}

fn maintenance(stacks: &[HostStack]) -> u64 {
    stacks
        .iter()
        .map(|h| {
            h.vmm
                .lock()
                .expect("no replay thread panics")
                .total_maintenance_ns()
        })
        .sum()
}

/// One call through the workload's cluster entry point; appends the
/// serving host and function of each completion to `invocations`.
#[allow(clippy::too_many_arguments)]
fn cluster_call(
    out: &mut Replay,
    cluster: &Cluster,
    ids: &[FunctionId],
    fleet: &Fleet,
    open: bool,
    call: &[usize],
    timed: bool,
    index: usize,
    invocations: &mut Vec<(usize, usize)>,
    now: impl Fn() -> u64,
) -> Result<(), Error> {
    let t0;
    let t1;
    if open {
        let requests: Vec<_> = call
            .iter()
            .map(|&f| ull_request(ids[f], fleet.functions[f].strategy))
            .collect();
        t0 = now();
        let dispositions = cluster.submit_batch(&requests);
        t1 = now();
        for (&f, d) in call.iter().zip(&dispositions) {
            if let Disposition::Completed { host, .. } = d {
                invocations.push((host.0, f));
            }
        }
    } else {
        let f = call[0];
        let mut records = Vec::with_capacity(call.len());
        t0 = now();
        cluster.invoke_batch(
            ids[f],
            fleet.functions[f].strategy,
            call.len(),
            &mut records,
        )?;
        t1 = now();
        invocations.extend(records.iter().map(|(host, _)| (host.0, f)));
    }
    if timed {
        out.cluster_ns += t1 - t0;
        out.cluster_requests += call.len() as u64;
        out.cluster_ns_per_req.push((t1 - t0) / call.len() as u64);
        out.cluster_spans.push(Span {
            name: "faas.cluster",
            start_ns: t0,
            end_ns: t1,
            parent: ROOT,
            request: index as u64,
        });
    }
    Ok(())
}

/// One invocation through `FaasPlatform::invoke_batch`.
#[allow(clippy::too_many_arguments)]
fn platform_invoke(
    out: &mut Replay,
    cluster: &Cluster,
    ids: &[FunctionId],
    fleet: &Fleet,
    (h, f): (usize, usize),
    timed: bool,
    request: usize,
    now: impl Fn() -> u64,
) -> Result<(), Error> {
    let mut records = Vec::with_capacity(1);
    let t0 = now();
    cluster
        .host(HostId(h))
        .invoke_batch(ids[f], fleet.functions[f].strategy, 1, &mut records)?;
    let t1 = now();
    if timed {
        out.platform_ns.push(t1 - t0);
        out.platform_spans.push(Span {
            name: "faas.platform",
            start_ns: t0,
            end_ns: t1,
            parent: ROOT,
            request: request as u64,
        });
    }
    Ok(())
}

/// The same invocation on a benchmark-built stack, one span per layer
/// call, in the platform's order: take, lock, resume, pause, unlock,
/// put.
fn layer_invoke(
    out: &mut Replay,
    host: &HostStack,
    fleet: &Fleet,
    f: usize,
    timed: bool,
    request: usize,
    now: impl Fn() -> u64,
) -> Result<(), Error> {
    let (policy, mode, m) = policy_and_mode(fleet.functions[f].strategy);
    let pool = &host.pools[f];
    let t0 = now();
    let id = pool
        .take(SimTime::ZERO)
        .ok_or("layer replay: a pool ran dry")?;
    let t1 = now();
    let mut vmm = host.vmm.lock().expect("no replay thread panics");
    let t2 = now();
    let resumed = vmm.resume(id, mode)?;
    let t3 = now();
    let paused = vmm.pause(id, policy)?;
    let t4 = now();
    drop(vmm);
    let t5 = now();
    pool.put(id, SimTime::ZERO);
    let t6 = now();
    out.plan_fallbacks += u64::from(resumed.degradation.plan_fallback);
    out.pauses += 1;
    if !timed {
        return Ok(());
    }
    let request = request as u64;
    let parent = out.layer_spans.push(Span {
        name: "layer.invoke",
        start_ns: t0,
        end_ns: t6,
        parent: ROOT,
        request,
    });
    for (name, start_ns, end_ns) in [
        ("faas.pool.take", t0, t1),
        ("vmm.lock", t1, t2),
        ("vmm.resume", t2, t3),
        ("vmm.pause", t3, t4),
        ("faas.pool.put", t5, t6),
    ] {
        out.layer_spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
    }
    out.take_ns.push(t1 - t0);
    out.lock_ns.push(t2 - t1);
    out.put_ns.push(t6 - t5);
    out.child_sum_ns.push((t4 - t0) + (t6 - t5));
    let b = &resumed.breakdown;
    let (step4, step5) = (
        b.get(ResumeStep::SortedMerge),
        b.get(ResumeStep::LoadUpdate),
    );
    let s = &mut out.modes[m];
    s.resume_ns.push(t3 - t2);
    s.resume_model_ns.push(b.total_ns());
    s.pause_ns.push(t4 - t3);
    s.step4_ns.push(step4);
    s.step5_ns.push(step5);
    s.steps45_share
        .push(ratio((step4 + step5) as f64, b.total_ns() as f64));
    if let Some(merge) = resumed.merge {
        out.splices.push(merge.splices as u64);
    }
    if policy.precompute_merge {
        out.plan_precompute_ns
            .push(paused.breakdown.get(PauseStep::PrecomputePlan));
    }
    Ok(())
}
