//! Batch-vs-sequential equivalence: every single-request entry point is
//! a batch of one, and batching exists to amortize bookkeeping, not to
//! change behavior. Most tests here run the same seeded workload twice
//! — once through a batch entry point (`FaasPlatform::invoke_batch`,
//! `Cluster::invoke_batch`, `Cluster::submit_batch`) and once one
//! request at a time — and demand bit-identical results: the records
//! themselves, the counter/gauge ledger, and the stitched forensic
//! forest fingerprints (which hash virtual timestamps, so even the
//! event timeline must match). The rest pin the error contract: a
//! failed batch returns what it served and keeps nothing behind.

use horse_faas::{
    Cluster, DispatchPolicy, Disposition, FaasError, FaasPlatform, FunctionId, HostId,
    InvocationRecord, PlatformConfig, Request, StartStrategy,
};
use horse_reliability::{ReliabilityConfig, RequestClass};
use horse_telemetry::counters::{Counter, Gauge};
use horse_telemetry::forensics::ForensicIndex;
use horse_telemetry::{Recorder, TelemetryConfig};
use horse_vmm::SandboxConfig;
use horse_workloads::Category;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROUNDS: usize = 64;
const POOL: usize = 8;

fn big_recorder() -> Recorder {
    // One shard so single-threaded runs cannot overflow a ring: the
    // forest fingerprints below demand a lossless stream.
    Recorder::new(TelemetryConfig {
        shards: 1,
        capacity_per_shard: 1 << 18,
    })
}

fn ull_config() -> SandboxConfig {
    SandboxConfig::builder().vcpus(1).ull(true).build().unwrap()
}

/// A platform with an enabled recorder and a provisioned horse pool.
fn traced_platform(seed: u64) -> (FaasPlatform, Recorder, FunctionId) {
    let mut platform = FaasPlatform::new(PlatformConfig {
        seed,
        ..PlatformConfig::default()
    });
    let recorder = big_recorder();
    platform.set_recorder(recorder.clone());
    let f = platform.register("filter", Category::Cat3, ull_config());
    platform
        .provision(f, POOL, StartStrategy::Horse)
        .expect("provisioning a fresh platform");
    (platform, recorder, f)
}

/// Tentpole invariant, platform layer: a batch of `N` warm invokes is
/// indistinguishable — records, counters, gauges, and the full span
/// forest including timestamps — from `N` sequential invokes.
#[test]
fn platform_batch_is_bit_identical_to_sequential_invokes() {
    let (batch_platform, batch_recorder, f) = traced_platform(42);
    let mut batched: Vec<InvocationRecord> = Vec::new();
    batch_platform
        .invoke_batch(f, StartStrategy::Horse, ROUNDS, &mut batched)
        .expect("healthy pool serves the whole batch");

    let (seq_platform, seq_recorder, f2) = traced_platform(42);
    let sequential: Vec<InvocationRecord> = (0..ROUNDS)
        .map(|_| {
            seq_platform
                .invoke(f2, StartStrategy::Horse)
                .expect("healthy pool serves every invoke")
        })
        .collect();

    assert_eq!(batched, sequential, "records diverged");
    for c in [Counter::InvokesHorse, Counter::PoolHits] {
        assert_eq!(
            batch_recorder.counter_value(c),
            seq_recorder.counter_value(c),
            "counter {c:?} diverged"
        );
    }
    assert_eq!(
        batch_recorder.gauge_value(Gauge::PooledSandboxes),
        seq_recorder.gauge_value(Gauge::PooledSandboxes),
        "pool gauge diverged"
    );

    let batch_forest = ForensicIndex::stitch(&batch_recorder.drain());
    let seq_forest = ForensicIndex::stitch(&seq_recorder.drain());
    assert!(batch_forest.is_complete());
    assert!(seq_forest.is_complete());
    assert_eq!(batch_forest.trees.len(), ROUNDS);
    assert_eq!(
        batch_forest.fingerprint(),
        seq_forest.fingerprint(),
        "span forests diverged (structure or virtual timestamps)"
    );
}

fn plain_cluster(hosts: usize, seed: u64) -> (Cluster, FunctionId) {
    let mut cluster = Cluster::new(hosts, DispatchPolicy::RoundRobin, seed);
    let f = cluster.register("filter", Category::Cat3, ull_config());
    cluster
        .provision_all(f, POOL, StartStrategy::Horse)
        .expect("provisioning a healthy fleet");
    (cluster, f)
}

/// Tentpole invariant, cluster layer: with round-robin routing and one
/// driver thread, the batched path routes the same request to the same
/// host and each host serves its share in the same order, so per-host
/// record sequences are bit-identical. (The batch groups *output* by
/// host; the cross-host interleaving is the one thing allowed to
/// differ.)
#[test]
fn cluster_batch_preserves_per_host_record_sequences() {
    const HOSTS: usize = 4;
    const COUNT: usize = 48;

    let (batch_cluster, f) = plain_cluster(HOSTS, 7);
    let mut batched: Vec<(HostId, InvocationRecord)> = Vec::new();
    let served = batch_cluster
        .invoke_batch(f, StartStrategy::Horse, COUNT, &mut batched)
        .expect("healthy fleet serves the whole batch");
    assert_eq!(served, COUNT);
    assert_eq!(batched.len(), COUNT);

    let (seq_cluster, f2) = plain_cluster(HOSTS, 7);
    let sequential: Vec<(HostId, InvocationRecord)> = (0..COUNT)
        .map(|_| {
            seq_cluster
                .invoke(f2, StartStrategy::Horse)
                .expect("healthy fleet serves every invoke")
        })
        .collect();

    let per_host = |records: &[(HostId, InvocationRecord)], host: usize| -> Vec<InvocationRecord> {
        records
            .iter()
            .filter(|(h, _)| h.0 == host)
            .map(|&(_, r)| r)
            .collect()
    };
    for host in 0..HOSTS {
        assert_eq!(
            per_host(&batched, host),
            per_host(&sequential, host),
            "host {host} record sequence diverged"
        );
    }
}

/// A large single-host batch is one call into the host's request loop;
/// nothing may be lost, duplicated or reordered.
#[test]
fn cluster_large_batch_matches_sequential_invokes() {
    const COUNT: usize = 1_500;
    let (cluster, f) = plain_cluster(1, 11);
    let mut out = Vec::new();
    let served = cluster
        .invoke_batch(f, StartStrategy::Horse, COUNT, &mut out)
        .expect("healthy host serves the whole batch");
    assert_eq!(served, COUNT);
    assert_eq!(out.len(), COUNT);

    let (seq_cluster, f2) = plain_cluster(1, 11);
    let sequential: Vec<InvocationRecord> = (0..COUNT)
        .map(|_| seq_cluster.invoke(f2, StartStrategy::Horse).unwrap().1)
        .collect();
    let batched: Vec<InvocationRecord> = out.into_iter().map(|(_, r)| r).collect();
    assert_eq!(batched, sequential, "the batch reordered records");
}

const ULL_DEADLINE_NS: u64 = 100_000;
const BG_DEADLINE_NS: u64 = 50_000_000;

/// A reliable, traced cluster plus a seeded request mix small enough
/// that admission capacity is never binding (the documented boundary of
/// the batch/sequential equivalence: `submit_batch` holds the whole
/// batch's slots while admitting, the sequential path releases each
/// before the next).
fn reliable_cluster(seed: u64) -> (Cluster, Recorder, Vec<Request>) {
    let mut cluster = Cluster::new(2, DispatchPolicy::RoundRobin, seed);
    let recorder = big_recorder();
    cluster.set_recorder(recorder.clone());
    let ull_fn = cluster.register("filter", Category::Cat3, ull_config());
    let bg_cfg = SandboxConfig::builder().vcpus(2).build().unwrap();
    let bg_fn = cluster.register("nat", Category::Cat2, bg_cfg);
    cluster.set_reliability(ReliabilityConfig::with_seed(seed));
    for (f, strat) in [(ull_fn, StartStrategy::Horse), (bg_fn, StartStrategy::Warm)] {
        cluster
            .provision_all(f, POOL, strat)
            .expect("provisioning a healthy fleet");
    }

    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C);
    let requests: Vec<Request> = (0..16)
        .map(|_| {
            if rng.gen_bool(0.7) {
                Request {
                    function: ull_fn,
                    strategy: StartStrategy::Horse,
                    class: RequestClass::Ull,
                    deadline_ns: Some(ULL_DEADLINE_NS),
                }
            } else {
                Request {
                    function: bg_fn,
                    strategy: StartStrategy::Warm,
                    class: RequestClass::Background,
                    deadline_ns: if rng.gen_bool(0.5) {
                        Some(BG_DEADLINE_NS)
                    } else {
                        None
                    },
                }
            }
        })
        .collect();
    (cluster, recorder, requests)
}

/// Reliability layer: a batch through [`Cluster::submit_batch`] yields
/// bit-identical dispositions, ledger tallies, and forensic tree
/// fingerprints vs pushing each request through [`Cluster::submit`] one
/// at a time at the same seed.
#[test]
fn submit_batch_is_bit_identical_to_sequential_submits() {
    let (batch_cluster, batch_recorder, requests) = reliable_cluster(1337);
    let batch_dispositions = batch_cluster.submit_batch(&requests);
    assert_eq!(batch_dispositions.len(), requests.len());

    let (seq_cluster, seq_recorder, same_requests) = reliable_cluster(1337);
    assert_eq!(requests, same_requests, "request generation not seeded");
    let seq_dispositions: Vec<_> = same_requests
        .iter()
        .map(|&req| seq_cluster.submit(req))
        .collect();

    // Dispositions carry records, hosts, latencies, hedge and deadline
    // flags; the Debug form covers every field, so string equality is
    // full bit-identity.
    for (i, (a, b)) in batch_dispositions.iter().zip(&seq_dispositions).enumerate() {
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "disposition {i} diverged"
        );
    }

    assert_eq!(
        batch_cluster.reliability_snapshot(),
        seq_cluster.reliability_snapshot(),
        "reliability ledger diverged"
    );

    let batch_forest = ForensicIndex::stitch(&batch_recorder.drain());
    let seq_forest = ForensicIndex::stitch(&seq_recorder.drain());
    assert!(batch_forest.is_complete());
    assert!(seq_forest.is_complete());
    assert_eq!(batch_forest.trees.len(), requests.len());
    assert_eq!(
        batch_forest.fingerprint(),
        seq_forest.fingerprint(),
        "forensic forests diverged (structure or virtual timestamps)"
    );
}

/// Concurrent submitters: three threads each submit their own batch to
/// one shared cluster; every thread gets exactly one disposition per
/// request it submitted, and the ledger counts the union — nothing
/// lost, nothing duplicated — regardless of interleaving.
#[test]
fn concurrent_submit_batches_conserve_requests() {
    const PRODUCERS: usize = 3;
    const PER_PRODUCER: usize = 5;

    let mut cluster = Cluster::new(2, DispatchPolicy::RoundRobin, 7);
    let ull_fn = cluster.register("filter", Category::Cat3, ull_config());
    cluster.set_reliability(ReliabilityConfig::with_seed(7));
    cluster
        .provision_all(ull_fn, POOL, StartStrategy::Horse)
        .expect("provisioning a healthy fleet");
    let completed: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let cluster = &cluster;
                s.spawn(move || {
                    let batch: Vec<Request> = (0..PER_PRODUCER)
                        .map(|i| Request {
                            function: ull_fn,
                            strategy: StartStrategy::Horse,
                            class: RequestClass::Ull,
                            // Deadline doubles as a (producer, index) tag.
                            deadline_ns: Some(1_000_000 + (p * PER_PRODUCER + i) as u64),
                        })
                        .collect();
                    let dispositions = cluster.submit_batch(&batch);
                    assert_eq!(dispositions.len(), PER_PRODUCER);
                    dispositions
                        .iter()
                        .filter(|d| matches!(d, Disposition::Completed { .. }))
                        .count()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let snap = cluster.reliability_snapshot();
    assert_eq!(snap.submissions, (PRODUCERS * PER_PRODUCER) as u64);
    assert_eq!(snap.completions, completed as u64);
    assert!(snap.conserves());
}

/// Failover parity and the error contract. With `f` provisioned on
/// host 1 only, round-robin routes a lone batched request to host 0,
/// whose pool is dry: the request fails over to host 1 exactly as
/// [`Cluster::invoke`] does. A failed call keeps nothing behind, so
/// later calls — for this function or any other — are unaffected.
#[test]
fn cluster_batch_fails_over_and_keeps_nothing_behind() {
    let mut cluster = Cluster::new(2, DispatchPolicy::RoundRobin, 5);
    let f = cluster.register("filter", Category::Cat3, ull_config());
    let g = cluster.register("nat", Category::Cat2, ull_config());
    cluster
        .provision_on(HostId(1), f, 1, StartStrategy::Horse)
        .expect("provisioning host 1");
    cluster
        .provision_all(g, POOL, StartStrategy::Horse)
        .expect("provisioning a healthy fleet");

    let mut out = Vec::new();
    let served = cluster
        .invoke_batch(f, StartStrategy::Horse, 1, &mut out)
        .expect("host 0 is dry, so host 1 serves");
    assert_eq!(served, 1);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].0, HostId(1));

    out.clear();
    let served = cluster
        .invoke_batch(g, StartStrategy::Horse, 4, &mut out)
        .expect("g is provisioned on every host");
    assert_eq!(served, 4);
    assert_eq!(out.len(), 4);
    assert!(out.iter().all(|(_, r)| r.function == g));

    // No host holds a Warm sandbox for `f`: the whole fleet is dry.
    out.clear();
    let err = cluster
        .invoke_batch(f, StartStrategy::Warm, 3, &mut out)
        .unwrap_err();
    assert!(matches!(err, FaasError::NoWarmSandbox { .. }), "{err}");
    assert!(out.is_empty(), "out holds exactly what was served: nothing");

    // Nothing was left behind to fail (or be served by) the next calls.
    assert_eq!(
        cluster.invoke_batch(f, StartStrategy::Warm, 0, &mut out),
        Ok(0)
    );
    let served = cluster
        .invoke_batch(g, StartStrategy::Horse, 4, &mut out)
        .expect("the dry batch left nothing behind");
    assert_eq!(served, 4);
    assert!(out.iter().all(|(_, r)| r.function == g));
    let (host, record) = cluster.invoke(f, StartStrategy::Horse).expect("failover");
    assert_eq!((host, record.function), (HostId(1), f));
}
