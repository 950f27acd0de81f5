//! Multi-host dispatch.
//!
//! The paper evaluates a single server ("we trigger the uLL workload on
//! the same server node where it will run"), but a production platform
//! fronts a fleet. This module provides the fleet layer a downstream
//! user needs: several [`FaasPlatform`] hosts behind a dispatcher, with
//! warm-pool-aware routing (an invocation prefers a host holding a warm
//! sandbox — the locality property provisioned concurrency exists for)
//! and failover to another host when a pool runs dry.

use crate::invocation::{InvocationRecord, StartStrategy};
use crate::platform::{FaasError, FaasPlatform, PlatformConfig};
use crate::pool::PoolStats;
use crate::registry::FunctionId;
use horse_faults::{FaultInjector, FaultSite, RecoveryOutcome, RetryPolicy};
use horse_reliability::{
    AdmissionController, BreakerRegistry, BreakerState, BreakerTransition, ChurnEvent, Deadline,
    DeadlineBoundary, LatencyProfiles, ReliabilityConfig, ReliabilityStats, RequestClass,
    ShedReason, StatsSnapshot, SubmissionId,
};
use horse_sim::SimTime;
use horse_telemetry::forensics::{self, outcome, RootStamp};
use horse_telemetry::{Counter, EventKind, Recorder};
use horse_vmm::SandboxConfig;
use horse_workloads::Category;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// How invocations are routed across hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Cycle through hosts (uniform load spreading).
    #[default]
    RoundRobin,
    /// Prefer the host with the largest warm pool for the function
    /// (maximizes warm hits under skewed provisioning).
    WarmestPool,
}

/// Identifier of a host within a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct HostId(pub usize);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// One request entering the cluster through the reliability plane
/// ([`Cluster::submit`] / [`Cluster::submit_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The function to invoke.
    pub function: FunctionId,
    /// The start strategy.
    pub strategy: StartStrategy,
    /// Traffic class — drives admission reserve and shedding order.
    pub class: RequestClass,
    /// End-to-end deadline budget in virtual ns (`None` = best effort).
    pub deadline_ns: Option<u64>,
}

/// The single, typed outcome of one submitted request. Exactly one
/// disposition exists per submission — the conservation invariant
/// (`submissions == completions + sheds + deadline_misses + failures`)
/// is literally this enum's totality.
#[derive(Debug)]
pub enum Disposition {
    /// The request completed (possibly via a hedge winner).
    Completed {
        /// The host whose attempt was counted.
        host: HostId,
        /// The counted invocation record.
        record: InvocationRecord,
        /// Whether a hedge was launched for this request.
        hedged: bool,
        /// Effective end-to-end latency (virtual ns), including routing
        /// backoffs and first-wins hedge resolution.
        latency_ns: u64,
        /// Whether the effective latency fit the deadline budget.
        met_deadline: bool,
    },
    /// Admission control (or all-breakers-open routing) shed the
    /// request before any host attempt.
    Shed {
        /// Why it was shed.
        reason: ShedReason,
    },
    /// A deadline boundary caught the blown budget mid-flight.
    DeadlineExceeded {
        /// The boundary that caught it.
        boundary: DeadlineBoundary,
        /// Virtual ns consumed when it was caught.
        observed_ns: u64,
    },
    /// Every retry avenue was exhausted.
    Failed {
        /// The terminal error.
        error: FaasError,
    },
}

/// Forensic wire code of a shed reason (offset by 1 in the
/// `admission` instant's arg; 0 means admitted).
fn shed_code(reason: ShedReason) -> u64 {
    ShedReason::ALL
        .iter()
        .position(|&r| r == reason)
        .expect("every reason is in ALL") as u64
}

/// Forensic class code matching `RootStamp::class_label`.
fn class_code(class: RequestClass) -> u8 {
    match class {
        RequestClass::Ull => 0,
        RequestClass::Background => 1,
    }
}

impl Disposition {
    /// The forensic outcome code stamped into the submission's root
    /// span.
    fn outcome_code(&self) -> u8 {
        match self {
            Disposition::Completed { .. } => outcome::COMPLETED,
            Disposition::Shed { .. } => outcome::SHED,
            Disposition::DeadlineExceeded { .. } => outcome::DEADLINE,
            Disposition::Failed { .. } => outcome::FAILED,
        }
    }
}

/// The cluster-resident half of the reliability plane: admission,
/// breakers, latency profiles for hedging, and the conservation stats.
#[derive(Debug)]
struct ReliabilityPlane {
    cfg: ReliabilityConfig,
    admission: AdmissionController,
    breakers: BreakerRegistry,
    profiles: LatencyProfiles,
    stats: ReliabilityStats,
    /// Monotone submission counter — the virtual "tick" axis breakers
    /// cool down on.
    ticks: AtomicU64,
    /// Per-function cheapest-possible service time (ns), the admission
    /// feasibility gate's floor.
    floors: RwLock<HashMap<u64, u64>>,
}

impl ReliabilityPlane {
    fn new(cfg: ReliabilityConfig) -> Self {
        Self {
            cfg,
            admission: AdmissionController::new(cfg.admission),
            breakers: BreakerRegistry::new(),
            profiles: LatencyProfiles::new(),
            stats: ReliabilityStats::new(),
            ticks: AtomicU64::new(0),
            floors: RwLock::new(HashMap::new()),
        }
    }

    fn floor_ns(&self, function: u64) -> u64 {
        self.floors.read().get(&function).copied().unwrap_or(0)
    }
}

/// A fleet of FaaS hosts behind one dispatcher.
///
/// # Example
///
/// ```
/// use horse_faas::{Cluster, DispatchPolicy, StartStrategy};
/// use horse_vmm::SandboxConfig;
/// use horse_workloads::Category;
///
/// let mut cluster = Cluster::new(3, DispatchPolicy::RoundRobin, 42);
/// let cfg = SandboxConfig::builder().ull(true).build()?;
/// let f = cluster.register("nat", Category::Cat2, cfg);
/// cluster.provision_all(f, 1, StartStrategy::Horse)?;
/// let (host, record) = cluster.invoke(f, StartStrategy::Horse)?;
/// assert!(host.0 < 3);
/// assert!(record.init_ns < 1_000);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
/// # Concurrency
///
/// Like [`FaasPlatform`], the request path ([`Cluster::invoke`],
/// [`Cluster::fail_host`], [`Cluster::advance_to`]) takes `&self`:
/// share the cluster behind an `Arc` and drive it from many threads —
/// hosts proceed in parallel, serialized only by their own VMM locks.
/// Liveness and the round-robin cursor live on atomics, so routing
/// takes no lock. Setup (register / set_injector / set_recorder) stays
/// `&mut self`: finish it before sharing.
#[derive(Debug)]
pub struct Cluster {
    hosts: Vec<FaasPlatform>,
    /// Liveness per host; dead hosts are skipped by routing.
    alive: Vec<AtomicBool>,
    /// Routing snapshot: the indices of alive hosts, rebuilt on every
    /// membership change so the per-invoke hot path is O(1) — a
    /// `fetch_add` cursor into an immutable `Arc`'d list instead of a
    /// walk over dead hosts.
    alive_list: RwLock<Arc<Vec<usize>>>,
    policy: DispatchPolicy,
    next_host: AtomicUsize,
    /// Cluster-level fault plane (whole-host failures); disabled by
    /// default.
    injector: FaultInjector,
    /// Telemetry sink; disabled (and inert) by default.
    recorder: Recorder,
    /// Reliability plane (deadlines, hedging, breakers, admission);
    /// absent until [`Cluster::set_reliability`] installs it.
    reliability: Option<ReliabilityPlane>,
}

/// Fleets up to this size tally a batch's per-host shares on the stack,
/// so a plain request allocates nothing.
const INLINE_HOSTS: usize = 32;

impl Cluster {
    /// Builds a cluster of `hosts` identical hosts with per-host derived
    /// seeds.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is zero.
    pub fn new(hosts: usize, policy: DispatchPolicy, seed: u64) -> Self {
        Self::with_config(hosts, policy, seed, PlatformConfig::default())
    }

    /// Builds a cluster of `hosts` hosts sharing `config` (each host gets
    /// a derived seed on top of it). Lets experiments swap in a modified
    /// cost model — e.g. the bench suite's deliberate splice-path
    /// slowdown that validates the CI perf gate.
    ///
    /// # Panics
    ///
    /// Panics if `hosts` is zero.
    pub fn with_config(
        hosts: usize,
        policy: DispatchPolicy,
        seed: u64,
        config: PlatformConfig,
    ) -> Self {
        assert!(hosts > 0, "a cluster needs at least one host");
        let hosts: Vec<FaasPlatform> = (0..hosts)
            .map(|i| {
                FaasPlatform::new(PlatformConfig {
                    seed: seed.wrapping_add(i as u64),
                    ..config.clone()
                })
            })
            .collect();
        let alive = (0..hosts.len()).map(|_| AtomicBool::new(true)).collect();
        let alive_list = RwLock::new(Arc::new((0..hosts.len()).collect()));
        Self {
            hosts,
            alive,
            alive_list,
            policy,
            next_host: AtomicUsize::new(0),
            injector: FaultInjector::disabled(),
            recorder: Recorder::disabled(),
            reliability: None,
        }
    }

    /// Rebuilds the routing snapshot from the liveness flags. Called on
    /// every membership change; the hot path only clones the `Arc`.
    fn rebuild_alive_list(&self) {
        let fresh: Vec<usize> = (0..self.hosts.len())
            .filter(|&i| self.alive[i].load(Ordering::Acquire))
            .collect();
        *self.alive_list.write() = Arc::new(fresh);
    }

    /// Installs a fault injector on the cluster (whole-host failures) and
    /// on every host (all clones feed one injection plane and one log).
    pub fn set_injector(&mut self, injector: FaultInjector) {
        for h in &mut self.hosts {
            h.set_injector(injector.clone());
        }
        self.injector = injector;
    }

    /// The active fault injector (disabled unless one was installed).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Installs a telemetry recorder on the cluster and every host (all
    /// clones feed one sink).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        for h in &mut self.hosts {
            h.set_recorder(recorder.clone());
        }
        self.recorder = recorder;
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the cluster has no hosts (never true — construction
    /// requires at least one).
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Read access to one host.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range id.
    pub fn host(&self, id: HostId) -> &FaasPlatform {
        &self.hosts[id.0]
    }

    /// Registers a function on every host, returning the (shared) id.
    ///
    /// # Panics
    ///
    /// Panics if hosts' registries have diverged (functions must be
    /// registered through the cluster only).
    pub fn register(
        &mut self,
        name: &str,
        category: Category,
        config: SandboxConfig,
    ) -> FunctionId {
        let mut ids = self
            .hosts
            .iter_mut()
            .map(|h| h.register(name, category, config));
        let first = ids.next().expect("at least one host");
        assert!(
            ids.all(|id| id == first),
            "host registries diverged; register via the cluster only"
        );
        first
    }

    /// Provisions `per_host` warm sandboxes for the function on every
    /// host.
    ///
    /// # Errors
    ///
    /// Propagates the first host error.
    pub fn provision_all(
        &self,
        function: FunctionId,
        per_host: usize,
        strategy: StartStrategy,
    ) -> Result<(), FaasError> {
        for (i, h) in self.hosts.iter().enumerate() {
            if self.alive[i].load(Ordering::Acquire) {
                h.provision(function, per_host, strategy)?;
            }
        }
        Ok(())
    }

    /// Whether a host is alive (dead hosts are skipped by routing).
    pub fn is_alive(&self, id: HostId) -> bool {
        self.alive[id.0].load(Ordering::Acquire)
    }

    /// Number of alive hosts.
    pub fn alive_count(&self) -> usize {
        self.alive
            .iter()
            .filter(|a| a.load(Ordering::Acquire))
            .count()
    }

    /// Whole-host failure: marks the host dead (routing skips it from now
    /// on) and rebalances its warm capacity — every pool entry it held is
    /// re-provisioned, spread round-robin across the surviving hosts
    /// (landing on *their* ull_runqueues via the usual pause path).
    /// Returns the number of warm entries re-provisioned.
    ///
    /// # Errors
    ///
    /// Propagates provisioning errors from the surviving hosts; failing
    /// an already-dead host is a no-op returning 0.
    pub fn fail_host(&self, id: HostId) -> Result<usize, FaasError> {
        // The swap makes exactly one concurrent caller the evacuator.
        if !self.alive[id.0].swap(false, Ordering::AcqRel) {
            return Ok(0);
        }
        self.rebuild_alive_list();
        let survivors: Vec<usize> = (0..self.hosts.len())
            .filter(|&i| self.alive[i].load(Ordering::Acquire))
            .collect();
        if survivors.is_empty() {
            return Ok(0);
        }
        let inventory = self.hosts[id.0].pool_inventory();
        let mut rebalanced = 0usize;
        for (function, strategy, count) in inventory {
            for _ in 0..count {
                let target = survivors[rebalanced % survivors.len()];
                self.hosts[target].provision(function, 1, strategy)?;
                rebalanced += 1;
            }
        }
        Ok(rebalanced)
    }

    // ---- membership plane -----------------------------------------------

    /// Graceful departure: the host's warm inventory is rebalanced onto
    /// survivors (exactly like [`Cluster::fail_host`]) and its local
    /// pools are then drained — the host leaves empty. Returns the
    /// number of warm entries rebalanced.
    ///
    /// # Errors
    ///
    /// Propagates provisioning errors from the surviving hosts; a
    /// departure of an already-dead host is a no-op returning 0.
    pub fn leave_host(&self, id: HostId) -> Result<usize, FaasError> {
        let rebalanced = self.fail_host(id)?;
        // Drain what the (now unreachable) host still held. After
        // `fail_host` the host is dead either way; purging frees its
        // sandboxes instead of leaking them until rejoin.
        self.hosts[id.0].purge_pools();
        Ok(rebalanced)
    }

    /// Abrupt host death: the host vanishes and its warm inventory is
    /// *lost* — nothing is rebalanced; survivors re-provision on demand.
    /// Returns the number of warm entries destroyed with the host.
    pub fn crash_host(&self, id: HostId) -> usize {
        if !self.alive[id.0].swap(false, Ordering::AcqRel) {
            return 0;
        }
        self.rebuild_alive_list();
        self.hosts[id.0].purge_pools()
    }

    /// Re-admits a departed host. It returns *empty* (any stale pools
    /// are scrubbed) and — when the reliability plane is installed —
    /// *probation­ed*: every circuit breaker targeting it resets to
    /// half-open, so traffic returns via probes rather than a
    /// thundering herd. Returns false if the host was already alive.
    pub fn join_host(&self, id: HostId) -> bool {
        if self.alive[id.0].swap(true, Ordering::AcqRel) {
            return false;
        }
        // Scrub anything left from the previous incarnation: a rejoined
        // host's old snapshots are stale by definition.
        self.hosts[id.0].purge_pools();
        self.rebuild_alive_list();
        if let Some(plane) = &self.reliability {
            plane.breakers.on_host_join(id.0);
        }
        true
    }

    /// Provisions `count` warm sandboxes on one specific host (e.g.
    /// restoring capacity on a freshly rejoined host).
    ///
    /// # Errors
    ///
    /// Propagates host provisioning errors.
    pub fn provision_on(
        &self,
        id: HostId,
        function: FunctionId,
        count: usize,
        strategy: StartStrategy,
    ) -> Result<(), FaasError> {
        self.hosts[id.0].provision(function, count, strategy)
    }

    /// Applies one churn-schedule event to the cluster, re-provisioning
    /// `rejoin_warm` sandboxes per `(function, strategy)` pair on a
    /// joining host. Returns whether the event changed membership.
    ///
    /// # Errors
    ///
    /// Propagates provisioning errors (rebalancing on leave, warm-up on
    /// join).
    pub fn apply_churn(
        &self,
        event: ChurnEvent,
        rejoin_warm: &[(FunctionId, StartStrategy, usize)],
    ) -> Result<bool, FaasError> {
        match event {
            ChurnEvent::Leave(h) => {
                self.leave_host(HostId(h))?;
                Ok(true)
            }
            ChurnEvent::Crash(h) => {
                self.crash_host(HostId(h));
                Ok(true)
            }
            ChurnEvent::Join(h) => {
                if !self.join_host(HostId(h)) {
                    return Ok(false);
                }
                for &(function, strategy, count) in rejoin_warm {
                    self.provision_on(HostId(h), function, count, strategy)?;
                }
                Ok(true)
            }
        }
    }

    /// Installs a fault injector on one host only (e.g. a single sick
    /// host whose pool entries rot — the scenario circuit breakers
    /// exist for).
    pub fn set_host_injector(&mut self, id: HostId, injector: FaultInjector) {
        self.hosts[id.0].set_injector(injector);
    }

    /// Replaces the warm-path retry budget on one host.
    pub fn set_host_retry_policy(&mut self, id: HostId, retry: RetryPolicy) {
        self.hosts[id.0].set_retry_policy(retry);
    }

    /// Replaces the warm-path retry budget on every host.
    pub fn set_retry_policy_all(&mut self, retry: RetryPolicy) {
        for h in &mut self.hosts {
            h.set_retry_policy(retry);
        }
    }

    /// Routes one invocation per the dispatch policy, failing over to the
    /// next host if the chosen host's pool is empty. Returns the serving
    /// host and the record. A batch of one: the same path as
    /// [`Cluster::invoke_batch`].
    ///
    /// # Errors
    ///
    /// Returns the last host's error if every host fails.
    pub fn invoke(
        &self,
        function: FunctionId,
        strategy: StartStrategy,
    ) -> Result<(HostId, InvocationRecord), FaasError> {
        let mut served = None;
        self.serve_plain(function, strategy, 1, &mut |host, record| {
            served = Some((host, record))
        })?;
        Ok(served.expect("a served batch of one yields its record"))
    }

    /// Invokes a function `count` times: every request is routed (the
    /// dispatch policy, cursor and chaos checks), then each host's share
    /// is served by one amortized call into the host's request loop,
    /// failing over to the next alive host when a pool runs dry.
    /// Appends `(host, record)` pairs to `out` and returns how many
    /// invocations this call served (`count` on success).
    ///
    /// At one driver thread the per-host record sequences are
    /// bit-identical to `count` sequential [`Cluster::invoke`] calls
    /// under [`DispatchPolicy::RoundRobin`] — only the interleaving
    /// across hosts differs (output is grouped by host). Under
    /// [`DispatchPolicy::WarmestPool`] the whole batch is routed before
    /// any request is served, so routing sees pool sizes frozen at
    /// batch entry.
    ///
    /// # Errors
    ///
    /// Routing errors ([`FaasError::NoHealthyHost`]) and the first host
    /// error that failover cannot absorb. On error, `out` holds exactly
    /// the records served so far and every other request is the
    /// caller's to re-submit — the cluster keeps nothing behind.
    pub fn invoke_batch(
        &self,
        function: FunctionId,
        strategy: StartStrategy,
        count: usize,
        out: &mut Vec<(HostId, InvocationRecord)>,
    ) -> Result<usize, FaasError> {
        let before = out.len();
        self.serve_plain(function, strategy, count, &mut |host, record| {
            out.push((host, record))
        })?;
        Ok(out.len() - before)
    }

    /// The plain request path behind [`Cluster::invoke`] and
    /// [`Cluster::invoke_batch`]: route the whole batch, tallying each
    /// host's share, then serve the shares in host order.
    fn serve_plain(
        &self,
        function: FunctionId,
        strategy: StartStrategy,
        count: usize,
        sink: &mut impl FnMut(HostId, InvocationRecord),
    ) -> Result<(), FaasError> {
        let mut inline = [0usize; INLINE_HOSTS];
        let mut heap = Vec::new();
        let shares: &mut [usize] = if self.hosts.len() <= INLINE_HOSTS {
            &mut inline[..self.hosts.len()]
        } else {
            heap.resize(self.hosts.len(), 0);
            &mut heap
        };
        for _ in 0..count {
            shares[self.route_one(function, strategy)?] += 1;
        }
        for (host, &share) in shares.iter().enumerate() {
            if share > 0 {
                self.serve_share(host, function, strategy, share, sink)?;
            }
        }
        Ok(())
    }

    /// Serves `count` requests starting at host `start`: on
    /// [`FaasError::NoWarmSandbox`] the unserved part fails over to the
    /// next alive host, until every host has been tried.
    fn serve_share(
        &self,
        start: usize,
        function: FunctionId,
        strategy: StartStrategy,
        count: usize,
        sink: &mut impl FnMut(HostId, InvocationRecord),
    ) -> Result<(), FaasError> {
        let n = self.hosts.len();
        let mut left = count;
        let mut last_err = FaasError::NoHealthyHost;
        for off in 0..n {
            let idx = (start + off) % n;
            if !self.alive[idx].load(Ordering::Acquire) {
                continue;
            }
            let want = left;
            let served = self.hosts[idx].serve(function, strategy, want, None, &mut |record| {
                left -= 1;
                sink(HostId(idx), record)
            });
            match served {
                Ok(()) => return Ok(()),
                Err(e @ FaasError::NoWarmSandbox { .. }) => last_err = e,
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    /// One routing decision: the chaos-plane host-failure check (the
    /// victim is the host the policy would have picked), then the
    /// dispatch policy's choice among the survivors. Routing runs in the
    /// caller's trace context: its chaos events belong to the routing
    /// step, not to any one request (DESIGN.md §9).
    fn route_one(&self, function: FunctionId, strategy: StartStrategy) -> Result<usize, FaasError> {
        // Chaos: a whole host dies as the request arrives. The victim is
        // the host the policy would have routed to; its warm capacity is
        // rebalanced onto the survivors before routing resumes.
        if let Some(fault) = self.injector.should_inject(FaultSite::HostFailure) {
            self.recorder.count(Counter::FaultsInjected, 1);
            self.recorder.instant(
                EventKind::FaultInjected,
                0,
                FaultSite::HostFailure.index() as u64,
            );
            let rebalanced = match self.route_start(function, strategy) {
                Some(victim) => self.fail_host(HostId(victim))?,
                None => 0,
            };
            self.injector.resolve(
                fault,
                RecoveryOutcome::HostEvacuated {
                    rebalanced: rebalanced as u64,
                },
            );
        }
        self.route_start(function, strategy)
            .ok_or(FaasError::NoHealthyHost)
    }

    // ---- reliability plane ----------------------------------------------

    /// Installs the reliability plane (deadlines, hedging, breakers,
    /// admission). Required before [`Cluster::submit`] /
    /// [`Cluster::submit_batch`]; the plain [`Cluster::invoke`] path is
    /// unaffected.
    pub fn set_reliability(&mut self, cfg: ReliabilityConfig) {
        self.reliability = Some(ReliabilityPlane::new(cfg));
    }

    fn plane(&self) -> &ReliabilityPlane {
        self.reliability
            .as_ref()
            .expect("install the reliability plane with set_reliability before submitting")
    }

    /// Sets the admission feasibility floor for a function: the
    /// cheapest possible service time (virtual ns). Requests whose
    /// deadline budget is below it are shed at the door.
    ///
    /// # Panics
    ///
    /// Panics if the reliability plane is not installed.
    pub fn set_feasibility_floor(&self, function: FunctionId, floor_ns: u64) {
        self.plane()
            .floors
            .write()
            .insert(function.as_u64(), floor_ns);
    }

    /// Point-in-time reliability tallies (conservation inputs, hedge and
    /// shed rates, SLO attainment).
    ///
    /// # Panics
    ///
    /// Panics if the reliability plane is not installed.
    pub fn reliability_snapshot(&self) -> StatsSnapshot {
        self.plane().stats.snapshot()
    }

    /// Breaker transition tallies so far: (opened, half_opened, closed).
    ///
    /// # Panics
    ///
    /// Panics if the reliability plane is not installed.
    pub fn breaker_transitions(&self) -> (u64, u64, u64) {
        self.plane().breakers.transition_counts()
    }

    /// Current breaker state of a (function, host) pair.
    ///
    /// # Panics
    ///
    /// Panics if the reliability plane is not installed.
    pub fn breaker_state(&self, function: FunctionId, host: HostId) -> BreakerState {
        self.plane().breakers.state(function.as_u64(), host.0)
    }

    /// Every tracked (function, host) breaker's current state, sorted —
    /// the `horse_breaker_state` Prometheus gauge's source.
    ///
    /// # Panics
    ///
    /// Panics if the reliability plane is not installed.
    pub fn breaker_states(&self) -> Vec<((u64, usize), BreakerState)> {
        self.plane().breakers.states()
    }

    /// The armed hedge threshold for a function (`None` while its
    /// latency profile is warming up).
    ///
    /// # Panics
    ///
    /// Panics if the reliability plane is not installed.
    pub fn hedge_threshold_ns(&self, function: FunctionId) -> Option<u64> {
        let plane = self.plane();
        plane
            .profiles
            .threshold_ns(function.as_u64(), &plane.cfg.hedge)
    }

    /// Submits one request through the reliability plane: admission,
    /// breaker-gated routing, deadline enforcement, budget-aware retries
    /// and hedging. Exactly one [`Disposition`] comes back.
    ///
    /// # Panics
    ///
    /// Panics if the reliability plane is not installed.
    pub fn submit(&self, request: Request) -> Disposition {
        self.submit_batch(std::slice::from_ref(&request))
            .pop()
            .expect("one disposition per request")
    }

    /// Submits a batch: the whole batch passes admission *first* (slots
    /// are held while the rest of the batch is admitted, so capacity
    /// pressure and reserved-uLL shedding are observable even from a
    /// sequential driver), then the admitted requests are served in
    /// order, each releasing its slot at disposition time.
    ///
    /// # Panics
    ///
    /// Panics if the reliability plane is not installed.
    pub fn submit_batch(&self, requests: &[Request]) -> Vec<Disposition> {
        let plane = self.plane();
        let admissions: Vec<_> = requests
            .iter()
            .map(|req| {
                plane.stats.on_submission();
                let submission = plane.ticks.fetch_add(1, Ordering::Relaxed);
                let outcome = plane.admission.admit(
                    req.class,
                    req.deadline_ns,
                    plane.floor_ns(req.function.as_u64()),
                );
                (submission, outcome)
            })
            .collect();
        admissions
            .into_iter()
            .zip(requests)
            .map(|((submission, admitted), req)| match admitted {
                Err(reason) => {
                    plane.stats.on_shed();
                    self.recorder.count(Counter::AdmissionSheds, 1);
                    // Even a door-shed submission gets a (two-node)
                    // forensic tree: the admission instant naming the
                    // reason under a zero-duration root.
                    let invocation = self.recorder.mint_invocation();
                    self.recorder
                        .set_context(forensics::submit_child_context(invocation));
                    let t0 = self.recorder.now_ns();
                    self.recorder
                        .instant(EventKind::AdmissionGate, 0, shed_code(reason) + 1);
                    let stamp = RootStamp {
                        submission: SubmissionId::new(submission).stamp_bits(),
                        class: class_code(req.class),
                        outcome: outcome::SHED,
                        hedged: false,
                        met_deadline: false,
                    };
                    self.recorder.set_parent(None);
                    self.recorder
                        .span_at(EventKind::Submit, 0, t0, 0, stamp.encode());
                    self.recorder.clear_context();
                    Disposition::Shed { reason }
                }
                Ok(slot) => {
                    let disposition = self.serve_admitted(plane, req, submission);
                    drop(slot);
                    disposition
                }
            })
            .collect()
    }

    /// Serves one admitted request under its own trace context (routing,
    /// retries and the hedge all share the invocation id).
    fn serve_admitted(
        &self,
        plane: &ReliabilityPlane,
        req: &Request,
        submission: u64,
    ) -> Disposition {
        let invocation = self.recorder.mint_invocation();
        // Everything the routing loop emits (admission instant, breaker
        // denials, attempt spans, backoffs) parents under the Submit
        // root span recorded at the end, closing the causal tree.
        self.recorder
            .set_context(forensics::submit_child_context(invocation));
        let t0 = self.recorder.now_ns();
        self.recorder.instant(EventKind::AdmissionGate, 0, 0);
        let disposition = self.serve_routed(plane, req, submission);
        let stamp = RootStamp {
            submission: SubmissionId::new(submission).stamp_bits(),
            class: class_code(req.class),
            outcome: disposition.outcome_code(),
            hedged: matches!(disposition, Disposition::Completed { hedged: true, .. }),
            met_deadline: matches!(
                disposition,
                Disposition::Completed {
                    met_deadline: true,
                    ..
                }
            ),
        };
        self.recorder.set_parent(None);
        self.recorder.span_at(
            EventKind::Submit,
            0,
            t0,
            self.recorder.now_ns().saturating_sub(t0),
            stamp.encode(),
        );
        self.recorder.clear_context();
        disposition
    }

    /// The reliability routing loop: breaker-gated host choice, deadline
    /// checks at the routing boundary, jittered budget-consuming
    /// backoffs between attempts.
    fn serve_routed(
        &self,
        plane: &ReliabilityPlane,
        req: &Request,
        submission: u64,
    ) -> Disposition {
        let fkey = req.function.as_u64();
        let deadline = req.deadline_ns.map(Deadline::from_nanos);
        let tick = submission;
        let mut elapsed_ns = 0u64;
        let mut attempt: u32 = 0;
        loop {
            // Routing-boundary deadline check: accumulated backoff waits
            // must leave budget for another attempt.
            if let Some(d) = deadline {
                if d.exceeded(elapsed_ns) {
                    plane.stats.on_deadline_miss();
                    self.recorder.count(Counter::DeadlineMisses, 1);
                    return Disposition::DeadlineExceeded {
                        boundary: DeadlineBoundary::Routing,
                        observed_ns: elapsed_ns,
                    };
                }
            }
            let Some(host) = self.route_allowed(plane, fkey, tick, None) else {
                // Fleet dead or every alive pair's breaker open: a typed
                // shed. Traffic returns via half-open probes after the
                // cooldown — never by hammering open breakers.
                plane.stats.on_shed();
                self.recorder.count(Counter::AdmissionSheds, 1);
                return Disposition::Shed {
                    reason: ShedReason::BreakersOpen,
                };
            };
            let remaining = deadline.map(|d| {
                d.remaining_ns(elapsed_ns)
                    .expect("routing boundary checked above")
            });
            // The attempt span brackets the host invoke: the platform
            // parents its invoke span under RouteAttempt, and the span
            // itself (recorded after the attempt, covering it) parents
            // under the Submit root.
            let attempt_t0 = self.recorder.now_ns();
            self.recorder.set_parent(Some(EventKind::RouteAttempt));
            let attempted = self.hosts[host].serve_one(req.function, req.strategy, remaining);
            self.recorder.set_parent(Some(EventKind::Submit));
            self.recorder.span_at(
                EventKind::RouteAttempt,
                0,
                attempt_t0,
                self.recorder.now_ns().saturating_sub(attempt_t0),
                host as u64,
            );
            match attempted {
                Ok(record) => {
                    self.note_transition(plane.breakers.record(
                        fkey,
                        host,
                        true,
                        tick,
                        &plane.cfg.breaker,
                    ));
                    return self
                        .resolve_completion(plane, req, host, record, elapsed_ns, deadline, tick);
                }
                Err(FaasError::DeadlineExceeded {
                    boundary,
                    observed_ns,
                    ..
                }) => {
                    // The host boundary already bumped the telemetry
                    // counter; count the disposition once here. Deadline
                    // pressure is not host sickness — the breaker window
                    // is untouched.
                    plane.stats.on_deadline_miss();
                    return Disposition::DeadlineExceeded {
                        boundary,
                        observed_ns: elapsed_ns.saturating_add(observed_ns),
                    };
                }
                Err(error) => {
                    self.note_transition(plane.breakers.record(
                        fkey,
                        host,
                        false,
                        tick,
                        &plane.cfg.breaker,
                    ));
                    attempt += 1;
                    if attempt > plane.cfg.retry.inner.max_retries {
                        plane.stats.on_failure();
                        return Disposition::Failed { error };
                    }
                    plane.stats.on_retries(1);
                    self.recorder.count(Counter::RetriesAttempted, 1);
                    let backoff_ns = plane.cfg.retry.backoff_ns(submission, attempt);
                    elapsed_ns = elapsed_ns.saturating_add(backoff_ns);
                    // The backoff span *advances* the trace cursor so
                    // the next attempt starts after the wait — the
                    // stitched timeline shows the budget the backoff
                    // ate. (Ambient parent here is the Submit root.)
                    self.recorder
                        .span(EventKind::RetryBackoff, 0, backoff_ns, u64::from(attempt));
                }
            }
        }
    }

    /// First-wins hedge resolution for a completed primary: if the
    /// primary ran past the p99-derived threshold, a hedge fires on a
    /// *different* breaker-admitted host; exactly one of the pair is
    /// counted (the loser is cancelled and only accounted).
    #[allow(clippy::too_many_arguments)]
    fn resolve_completion(
        &self,
        plane: &ReliabilityPlane,
        req: &Request,
        host: usize,
        record: InvocationRecord,
        elapsed_ns: u64,
        deadline: Option<Deadline>,
        tick: u64,
    ) -> Disposition {
        let fkey = req.function.as_u64();
        let primary_ns = record.total_ns();
        let mut counted_host = host;
        let mut counted_record = record;
        let mut effective_ns = primary_ns;
        let mut hedged = false;
        let threshold = plane.profiles.threshold_ns(fkey, &plane.cfg.hedge);
        if let Some(threshold_ns) = threshold {
            // Budget left at the instant the hedge would fire; a blown
            // budget means hedging could only waste a second host.
            let hedge_budget = deadline
                .map(|d| d.remaining_ns(elapsed_ns.saturating_add(threshold_ns)))
                .map_or(Some(None), |r| r.map(Some));
            if primary_ns > threshold_ns {
                if let (Some(budget), Some(hedge_host)) = (
                    hedge_budget,
                    self.route_allowed(plane, fkey, tick, Some(host)),
                ) {
                    hedged = true;
                    plane.stats.on_hedge_launched();
                    self.recorder.count(Counter::HedgesLaunched, 1);
                    let hedge_t0 = self.recorder.now_ns();
                    self.recorder.set_parent(Some(EventKind::HedgeAttempt));
                    let hedge_attempt =
                        self.hosts[hedge_host].serve_one(req.function, req.strategy, budget);
                    self.recorder.set_parent(Some(EventKind::Submit));
                    self.recorder.span_at(
                        EventKind::HedgeAttempt,
                        0,
                        hedge_t0,
                        self.recorder.now_ns().saturating_sub(hedge_t0),
                        hedge_host as u64,
                    );
                    match hedge_attempt {
                        Ok(hedge_record) => {
                            self.note_transition(plane.breakers.record(
                                fkey,
                                hedge_host,
                                true,
                                tick,
                                &plane.cfg.breaker,
                            ));
                            let resolution = horse_reliability::resolve_first_wins(
                                primary_ns,
                                threshold_ns,
                                hedge_record.total_ns(),
                            );
                            if resolution.hedge_won {
                                plane.stats.on_hedge_win();
                                self.recorder.count(Counter::HedgeWins, 1);
                                counted_host = hedge_host;
                                counted_record = hedge_record;
                            }
                            effective_ns = resolution.effective_ns;
                        }
                        // A hedge that blew its own budget is simply a
                        // losing hedge; the primary result stands and the
                        // breaker window is untouched.
                        Err(FaasError::DeadlineExceeded { .. }) => {}
                        Err(_) => {
                            self.note_transition(plane.breakers.record(
                                fkey,
                                hedge_host,
                                false,
                                tick,
                                &plane.cfg.breaker,
                            ));
                        }
                    }
                }
            }
        }
        plane.profiles.observe(fkey, effective_ns);
        let latency_ns = elapsed_ns.saturating_add(effective_ns);
        let met_deadline = deadline.map_or(true, |d| !d.exceeded(latency_ns));
        plane.stats.on_completion(met_deadline);
        Disposition::Completed {
            host: HostId(counted_host),
            record: counted_record,
            hedged,
            latency_ns,
            met_deadline,
        }
    }

    /// Breaker-gated round-robin over the alive snapshot: the first host
    /// (starting at the shared cursor) whose (function, host) breaker
    /// admits traffic at `tick`, skipping `exclude` (a hedge's primary).
    /// `None` when the fleet is dead or every pair refuses.
    fn route_allowed(
        &self,
        plane: &ReliabilityPlane,
        fkey: u64,
        tick: u64,
        exclude: Option<usize>,
    ) -> Option<usize> {
        let snapshot = Arc::clone(&self.alive_list.read());
        if snapshot.is_empty() {
            return None;
        }
        let start = self.next_host.fetch_add(1, Ordering::Relaxed);
        for off in 0..snapshot.len() {
            let host = snapshot[(start + off) % snapshot.len()];
            if Some(host) == exclude {
                continue;
            }
            let (allowed, transition) = plane.breakers.allow(fkey, host, tick, &plane.cfg.breaker);
            self.note_transition(transition);
            if allowed {
                return Some(host);
            }
            // A denied pair is a routing decision worth seeing in the
            // tree: the instant names the host the breaker fenced off.
            self.recorder
                .instant(EventKind::BreakerDenied, 0, host as u64);
        }
        None
    }

    /// Bumps the telemetry counter matching a breaker transition (the
    /// registry already keeps its own tallies).
    fn note_transition(&self, transition: Option<BreakerTransition>) {
        let Some(t) = transition else { return };
        let counter = match t {
            BreakerTransition::Opened => Counter::BreakerOpened,
            BreakerTransition::HalfOpened => Counter::BreakerHalfOpened,
            BreakerTransition::Closed => Counter::BreakerClosed,
        };
        self.recorder.count(counter, 1);
    }

    /// The alive host the dispatch policy picks first, or `None` when
    /// the whole fleet is dead. Round-robin is O(1) amortized: one
    /// `fetch_add` into the membership snapshot — no per-invoke walk
    /// over dead hosts, no CAS retry loop. Dead-host skipping moved to
    /// the snapshot rebuild on membership changes, which are rare.
    fn route_start(&self, function: FunctionId, strategy: StartStrategy) -> Option<usize> {
        match self.policy {
            DispatchPolicy::RoundRobin => {
                let snapshot = Arc::clone(&self.alive_list.read());
                if snapshot.is_empty() {
                    return None;
                }
                let step = self.next_host.fetch_add(1, Ordering::Relaxed);
                Some(snapshot[step % snapshot.len()])
            }
            DispatchPolicy::WarmestPool => (0..self.hosts.len())
                .filter(|&i| self.alive[i].load(Ordering::Acquire))
                .max_by_key(|&i| self.hosts[i].pool_size(function, strategy)),
        }
    }

    /// Advances every alive host's clock (keep-alive eviction
    /// fleet-wide; dead hosts are unreachable).
    pub fn advance_to(&self, to: SimTime) {
        for (i, h) in self.hosts.iter().enumerate() {
            if self.alive[i].load(Ordering::Acquire) {
                h.advance_to(to);
            }
        }
    }

    /// Fleet-aggregate pool statistics for a function/strategy.
    pub fn aggregate_pool_stats(&self, function: FunctionId, strategy: StartStrategy) -> PoolStats {
        let mut agg = PoolStats::default();
        for h in &self.hosts {
            let s = h.pool_stats(function, strategy);
            agg.hits += s.hits;
            agg.misses += s.misses;
            agg.evictions += s.evictions;
        }
        agg
    }
}

// The fleet must be shareable across driver threads (`Arc<Cluster>` is
// the multi-threaded bench's whole premise).
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Cluster>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize, policy: DispatchPolicy) -> (Cluster, FunctionId) {
        let mut c = Cluster::new(n, policy, 7);
        let cfg = SandboxConfig::builder().ull(true).build().unwrap();
        let f = c.register("nat", Category::Cat2, cfg);
        (c, f)
    }

    #[test]
    fn round_robin_spreads_load() {
        let (c, f) = cluster(3, DispatchPolicy::RoundRobin);
        c.provision_all(f, 2, StartStrategy::Horse).unwrap();
        let mut counts = [0u32; 3];
        for _ in 0..9 {
            let (host, _) = c.invoke(f, StartStrategy::Horse).unwrap();
            counts[host.0] += 1;
        }
        assert_eq!(counts, [3, 3, 3]);
        let agg = c.aggregate_pool_stats(f, StartStrategy::Horse);
        assert_eq!(agg.hits, 9);
        assert_eq!(agg.misses, 0);
    }

    #[test]
    fn failover_when_a_pool_is_dry() {
        let (c, f) = cluster(2, DispatchPolicy::RoundRobin);
        // Only host 1 is provisioned (provision directly against it by
        // provisioning cluster-wide then draining host 0... simpler: use
        // warmest-pool knowledge): provision via per-host asymmetry.
        c.hosts[1].provision(f, 1, StartStrategy::Horse).unwrap();
        // Round-robin starts at host 0, which has no pool -> fails over.
        let (host, _) = c.invoke(f, StartStrategy::Horse).unwrap();
        assert_eq!(host, HostId(1));
        // Host 0 has no pool at all (never provisioned); host 1 took the
        // hit.
        assert_eq!(c.host(HostId(0)).pool_size(f, StartStrategy::Horse), 0);
        assert_eq!(
            c.host(HostId(1)).pool_stats(f, StartStrategy::Horse).hits,
            1
        );
    }

    #[test]
    fn every_pool_dry_returns_error() {
        let (c, f) = cluster(2, DispatchPolicy::RoundRobin);
        let err = c.invoke(f, StartStrategy::Warm).unwrap_err();
        assert!(matches!(err, FaasError::NoWarmSandbox { .. }));
    }

    #[test]
    fn warmest_pool_prefers_provisioned_host() {
        let (c, f) = cluster(3, DispatchPolicy::WarmestPool);
        c.hosts[2].provision(f, 3, StartStrategy::Horse).unwrap();
        for _ in 0..3 {
            let (host, _) = c.invoke(f, StartStrategy::Horse).unwrap();
            assert_eq!(host, HostId(2));
        }
    }

    #[test]
    fn cold_starts_work_anywhere() {
        let (c, f) = cluster(2, DispatchPolicy::RoundRobin);
        let (h1, r1) = c.invoke(f, StartStrategy::Cold).unwrap();
        let (h2, _) = c.invoke(f, StartStrategy::Cold).unwrap();
        assert_ne!(h1, h2, "round robin alternates");
        assert!(r1.init_ns > 1_000_000_000);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn zero_hosts_panics() {
        Cluster::new(0, DispatchPolicy::RoundRobin, 1);
    }

    // ---- fault plane ----------------------------------------------------

    use horse_faults::{FaultPlan, FaultTrigger, RecoveryOutcome};

    #[test]
    fn fail_host_rebalances_its_warm_capacity_onto_survivors() {
        let (c, f) = cluster(3, DispatchPolicy::RoundRobin);
        c.provision_all(f, 2, StartStrategy::Horse).unwrap();
        let rebalanced = c.fail_host(HostId(0)).unwrap();
        assert_eq!(rebalanced, 2, "both pool entries were re-provisioned");
        assert!(!c.is_alive(HostId(0)));
        assert_eq!(c.alive_count(), 2);
        // The fleet-wide capacity is preserved: 2 + 2 on the survivors
        // plus one rebalanced each.
        let total: usize = (1..3)
            .map(|i| c.host(HostId(i)).pool_size(f, StartStrategy::Horse))
            .sum();
        assert_eq!(total, 6);
        // Routing never lands on the dead host again.
        for _ in 0..6 {
            let (host, _) = c.invoke(f, StartStrategy::Horse).unwrap();
            assert_ne!(host, HostId(0));
        }
        // Failing an already-dead host is a no-op.
        assert_eq!(c.fail_host(HostId(0)).unwrap(), 0);
    }

    #[test]
    fn losing_every_host_is_a_typed_error() {
        let (c, f) = cluster(2, DispatchPolicy::RoundRobin);
        c.provision_all(f, 1, StartStrategy::Horse).unwrap();
        c.fail_host(HostId(0)).unwrap();
        // The last host's capacity has nowhere to go.
        assert_eq!(c.fail_host(HostId(1)).unwrap(), 0);
        let err = c.invoke(f, StartStrategy::Horse).unwrap_err();
        assert!(matches!(err, FaasError::NoHealthyHost), "{err}");
        assert!(err.to_string().contains("no healthy host"));
    }

    #[test]
    fn injected_host_failure_evacuates_and_still_serves() {
        let (mut c, f) = cluster(3, DispatchPolicy::RoundRobin);
        c.provision_all(f, 2, StartStrategy::Horse).unwrap();
        c.set_injector(FaultInjector::new(
            5,
            FaultPlan::new().with(FaultSite::HostFailure, FaultTrigger::Once(1)),
        ));
        // The victim is the host routing would have picked; the request
        // itself is served by a survivor.
        let (host, r) = c.invoke(f, StartStrategy::Horse).unwrap();
        assert_ne!(host, HostId(0), "round-robin's first pick died");
        assert!(!c.is_alive(HostId(0)));
        assert!(r.init_ns > 0);
        let log = c.injector().log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].site, FaultSite::HostFailure);
        assert_eq!(
            log[0].outcome,
            RecoveryOutcome::HostEvacuated { rebalanced: 2 }
        );
        assert_eq!(c.injector().unresolved(), 0);
    }

    #[test]
    fn routing_chaos_events_run_in_the_callers_context() {
        // One rule for one request and for many (DESIGN.md §9): a host
        // failure fires while the batch is routed, before any request is
        // served, so it carries the caller's context (none here) while
        // every served request mints its own id.
        for count in [1, 3] {
            let (mut c, f) = cluster(3, DispatchPolicy::RoundRobin);
            c.provision_all(f, 2, StartStrategy::Horse).unwrap();
            let recorder = Recorder::enabled();
            c.set_recorder(recorder.clone());
            c.set_injector(FaultInjector::new(
                5,
                FaultPlan::new().with(FaultSite::HostFailure, FaultTrigger::Once(1)),
            ));
            let mut out = Vec::new();
            c.invoke_batch(f, StartStrategy::Horse, count, &mut out)
                .unwrap();
            assert_eq!(out.len(), count);
            let snapshot = recorder.drain();
            let fault = snapshot
                .events
                .iter()
                .find(|e| e.kind == EventKind::FaultInjected)
                .expect("the host failure is recorded");
            assert_eq!(fault.invocation, 0, "count {count}");
            let mut ids: Vec<u64> = out.iter().map(|(_, r)| r.invocation).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), count, "one id per served request");
            assert!(!ids.contains(&0));
        }
    }

    // ---- reliability plane ----------------------------------------------

    use horse_reliability::ReliabilityConfig;

    fn reliable_cluster(n: usize) -> (Cluster, FunctionId) {
        let (mut c, f) = cluster(n, DispatchPolicy::RoundRobin);
        c.set_reliability(ReliabilityConfig::with_seed(7));
        (c, f)
    }

    fn req(f: FunctionId, class: RequestClass, deadline_ns: Option<u64>) -> Request {
        Request {
            function: f,
            strategy: StartStrategy::Horse,
            class,
            deadline_ns,
        }
    }

    #[test]
    fn submit_completes_and_conserves() {
        let (c, f) = reliable_cluster(2);
        c.provision_all(f, 2, StartStrategy::Horse).unwrap();
        for _ in 0..10 {
            let d = c.submit(req(f, RequestClass::Ull, Some(1_000_000)));
            let Disposition::Completed {
                latency_ns,
                met_deadline,
                hedged,
                ..
            } = d
            else {
                panic!("expected completion, got {d:?}");
            };
            assert!(met_deadline, "1 ms budget fits a HORSE start");
            assert!(!hedged, "profile still below hedge warmup");
            assert!(latency_ns < 1_000_000);
        }
        let snap = c.reliability_snapshot();
        assert_eq!(snap.submissions, 10);
        assert_eq!(snap.completions, 10);
        assert!(snap.conserves());
        assert!(snap.hedges_consistent());
        assert!((snap.slo_attainment() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn infeasible_deadlines_shed_at_the_door() {
        let (c, f) = reliable_cluster(2);
        c.provision_all(f, 1, StartStrategy::Horse).unwrap();
        c.set_feasibility_floor(f, 10_000);
        let d = c.submit(req(f, RequestClass::Ull, Some(5_000)));
        assert!(
            matches!(
                d,
                Disposition::Shed {
                    reason: ShedReason::DeadlineInfeasible
                }
            ),
            "{d:?}"
        );
        let snap = c.reliability_snapshot();
        assert_eq!(snap.sheds, 1);
        assert!(snap.conserves());
    }

    #[test]
    fn batch_admission_sheds_background_but_reserves_ull() {
        let (mut c, f) = cluster(1, DispatchPolicy::RoundRobin);
        let mut cfg = ReliabilityConfig::with_seed(7);
        cfg.admission.max_inflight = 4;
        cfg.admission.ull_reserve = 2;
        c.set_reliability(cfg);
        c.provision_all(f, 8, StartStrategy::Horse).unwrap();
        // 8 background requests admitted as a batch: slots are held
        // across the batch, so only max_inflight − reserve = 2 pass.
        let batch: Vec<Request> = (0..8)
            .map(|_| req(f, RequestClass::Background, None))
            .collect();
        let dispositions = c.submit_batch(&batch);
        let completed = dispositions
            .iter()
            .filter(|d| matches!(d, Disposition::Completed { .. }))
            .count();
        let shed = dispositions
            .iter()
            .filter(|d| {
                matches!(
                    d,
                    Disposition::Shed {
                        reason: ShedReason::ReservedForUll
                    }
                )
            })
            .count();
        assert_eq!(completed, 2);
        assert_eq!(shed, 6);
        // The reserve is still claimable by uLL traffic afterwards.
        assert!(matches!(
            c.submit(req(f, RequestClass::Ull, None)),
            Disposition::Completed { .. }
        ));
        let snap = c.reliability_snapshot();
        assert_eq!(snap.submissions, 9);
        assert!(snap.conserves());
    }

    #[test]
    fn breaker_opens_on_a_sick_host_and_routing_avoids_it() {
        let (mut c, f) = reliable_cluster(2);
        c.provision_all(f, 2, StartStrategy::Horse).unwrap();
        // Host 0's pool entries always rot; no host-level retries, so
        // every attempt on it fails fast.
        c.set_host_injector(
            HostId(0),
            FaultInjector::new(
                13,
                FaultPlan::new().with(FaultSite::PoolEntryInvalid, FaultTrigger::Nth(1)),
            ),
        );
        c.set_host_retry_policy(
            HostId(0),
            horse_faults::RetryPolicy {
                max_retries: 0,
                ..horse_faults::RetryPolicy::default()
            },
        );
        // Keep host 0's pool stocked so every attempt there actually
        // exercises the fault (and the cluster retry re-routes).
        let mut completions = 0;
        for _ in 0..40 {
            c.provision_on(HostId(0), f, 1, StartStrategy::Horse).ok();
            if matches!(
                c.submit(req(f, RequestClass::Ull, None)),
                Disposition::Completed { .. }
            ) {
                completions += 1;
            }
        }
        assert_eq!(
            c.breaker_state(f, HostId(0)),
            BreakerState::Open,
            "the sick pair tripped open"
        );
        assert_eq!(c.breaker_state(f, HostId(1)), BreakerState::Closed);
        let (opened, _, _) = c.breaker_transitions();
        assert!(opened >= 1);
        assert!(completions >= 30, "healthy host carried the traffic");
        let snap = c.reliability_snapshot();
        assert!(snap.retries > 0, "failures were retried across hosts");
        assert!(snap.conserves());
    }

    #[test]
    fn forced_open_breakers_shed_everything() {
        let (mut c, f) = cluster(2, DispatchPolicy::RoundRobin);
        let mut cfg = ReliabilityConfig::with_seed(7);
        cfg.breaker.forced_open = true;
        c.set_reliability(cfg);
        c.provision_all(f, 2, StartStrategy::Horse).unwrap();
        for _ in 0..5 {
            let d = c.submit(req(f, RequestClass::Ull, Some(1_000_000)));
            assert!(
                matches!(
                    d,
                    Disposition::Shed {
                        reason: ShedReason::BreakersOpen
                    }
                ),
                "{d:?}"
            );
        }
        let snap = c.reliability_snapshot();
        assert_eq!(snap.sheds, 5);
        assert_eq!(snap.completions, 0);
        assert!(snap.conserves());
    }

    #[test]
    fn slow_primary_triggers_a_winning_hedge() {
        let (mut c, f) = reliable_cluster(2);
        let mut cfg = ReliabilityConfig::with_seed(7);
        cfg.hedge.min_samples = 8;
        c.set_reliability(cfg);
        c.provision_all(f, 4, StartStrategy::Horse).unwrap();
        // Warm the latency profile past the hedge warmup.
        for _ in 0..10 {
            assert!(matches!(
                c.submit(req(f, RequestClass::Ull, None)),
                Disposition::Completed { .. }
            ));
        }
        let threshold = c.hedge_threshold_ns(f).expect("profile armed");
        // Now poison ONE pool entry on each host's next take: whichever
        // host serves the primary eats a 10 µs recovery backoff, blowing
        // far past the ~1 µs threshold — the hedge (on the other,
        // healthy host) wins.
        c.set_injector(FaultInjector::new(
            17,
            FaultPlan::new().with(FaultSite::PoolEntryInvalid, FaultTrigger::Once(1)),
        ));
        let d = c.submit(req(f, RequestClass::Ull, None));
        let Disposition::Completed {
            hedged, latency_ns, ..
        } = d
        else {
            panic!("expected completion, got {d:?}");
        };
        assert!(hedged, "the slow primary should have hedged");
        let snap = c.reliability_snapshot();
        assert_eq!(snap.hedges_launched, 1);
        assert_eq!(snap.hedge_wins, 1, "the healthy host's hedge won");
        assert_eq!(
            snap.completions, 11,
            "a hedged pair still counts exactly once"
        );
        assert!(snap.conserves());
        assert!(
            latency_ns < threshold + 5_000,
            "first-wins latency {latency_ns} ≈ threshold {threshold} + hedge"
        );
    }

    #[test]
    fn crash_loses_inventory_but_leave_rebalances_it() {
        let (c, f) = reliable_cluster(3);
        c.provision_all(f, 2, StartStrategy::Horse).unwrap();
        // Graceful leave: inventory moves to survivors.
        assert_eq!(c.leave_host(HostId(1)).unwrap(), 2);
        assert_eq!(c.host(HostId(1)).pool_size(f, StartStrategy::Horse), 0);
        let after_leave: usize = [0, 2]
            .iter()
            .map(|&i| c.host(HostId(i)).pool_size(f, StartStrategy::Horse))
            .sum();
        assert_eq!(after_leave, 6, "leave preserved fleet capacity");
        // Crash: inventory is destroyed with the host.
        assert_eq!(c.crash_host(HostId(2)), 3);
        assert_eq!(c.host(HostId(2)).pool_size(f, StartStrategy::Horse), 0);
        assert_eq!(c.alive_count(), 1);
        // Double-crash is a no-op.
        assert_eq!(c.crash_host(HostId(2)), 0);
    }

    #[test]
    fn join_readmits_a_host_on_probation() {
        let (mut c, f) = reliable_cluster(2);
        let mut cfg = ReliabilityConfig::with_seed(7);
        cfg.breaker.min_samples = 2;
        cfg.breaker.window = 4;
        c.set_reliability(cfg);
        c.provision_all(f, 2, StartStrategy::Horse).unwrap();
        // Open host 0's breaker the honest way: make it sick, drive
        // traffic.
        c.set_host_injector(
            HostId(0),
            FaultInjector::new(
                13,
                FaultPlan::new().with(FaultSite::PoolEntryInvalid, FaultTrigger::Nth(1)),
            ),
        );
        c.set_host_retry_policy(
            HostId(0),
            horse_faults::RetryPolicy {
                max_retries: 0,
                ..horse_faults::RetryPolicy::default()
            },
        );
        for _ in 0..10 {
            c.provision_on(HostId(0), f, 1, StartStrategy::Horse).ok();
            let _ = c.submit(req(f, RequestClass::Ull, None));
        }
        assert_eq!(c.breaker_state(f, HostId(0)), BreakerState::Open);
        // The host crashes out, then rejoins healthy (injector cleared).
        c.crash_host(HostId(0));
        c.set_host_injector(HostId(0), FaultInjector::disabled());
        assert!(c.join_host(HostId(0)));
        assert!(!c.join_host(HostId(0)), "double-join is a no-op");
        assert_eq!(
            c.breaker_state(f, HostId(0)),
            BreakerState::HalfOpen,
            "a rejoined host earns trust through probes"
        );
        assert_eq!(
            c.host(HostId(0)).pool_size(f, StartStrategy::Horse),
            0,
            "it returns empty"
        );
        // Restock it and let probes close the breaker.
        c.provision_on(HostId(0), f, 4, StartStrategy::Horse)
            .unwrap();
        for _ in 0..20 {
            let _ = c.submit(req(f, RequestClass::Ull, None));
        }
        assert_eq!(
            c.breaker_state(f, HostId(0)),
            BreakerState::Closed,
            "probe successes closed it"
        );
        let (_, half_opened, closed) = c.breaker_transitions();
        assert!(
            half_opened == 0,
            "join resets state without a tallied transition"
        );
        assert!(closed >= 1);
    }

    #[test]
    fn host_failure_injection_replays_deterministically() {
        let run = |seed: u64| -> Vec<horse_faults::FaultRecord> {
            let (mut c, f) = cluster(4, DispatchPolicy::RoundRobin);
            c.provision_all(f, 3, StartStrategy::Horse).unwrap();
            c.set_injector(FaultInjector::new(
                seed,
                FaultPlan::new().with(FaultSite::HostFailure, FaultTrigger::Probability(0.15)),
            ));
            for _ in 0..30 {
                // Ignore pool-dry errors late in the run; the log is the
                // artifact under test.
                let _ = c.invoke(f, StartStrategy::Horse);
            }
            c.injector().log()
        };
        assert_eq!(run(42), run(42), "same seed, same fault sequence");
        assert_ne!(run(42), run(43), "different seed, different sequence");
    }
}
