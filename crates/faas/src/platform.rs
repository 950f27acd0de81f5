//! The FaaS platform: start strategies over the VMM substrate.

use crate::invocation::{InvocationRecord, StartStrategy};
use crate::pool::{KeepAlive, PoolStats};
use crate::registry::{FunctionId, FunctionRegistry};
use crate::sharded_pool::ShardedWarmPool;
use horse_faults::{FaultId, FaultInjector, FaultSite, RecoveryOutcome, RetryPolicy};
use horse_reliability::{Deadline, DeadlineBoundary};
use horse_sched::{SandboxId, SchedConfig};
use horse_sim::rng::SeedFactory;
use horse_sim::SimTime;
use horse_telemetry::alloc::{AllocPhase, AllocScope};
use horse_telemetry::contention::{self, ContentionSite};
use horse_telemetry::{Counter, EventKind, Gauge, Recorder, TraceContext};
use horse_vmm::{
    BootModel, CostModel, PausePolicy, RestoreModel, ResumeMode, ResumeOutcome, SandboxConfig, Vmm,
    VmmError,
};
use horse_workloads::Category;
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Userspace trigger overhead of the conventional warm path (request
/// routing, API handling, sandbox wake IPC). Calibrated so that
/// `trigger + vanilla resume(1 vCPU) ≈ 1.1 µs`, Table 1's warm
/// initialization. HORSE bypasses it — it is "a fast path for FaaS
/// platforms" (paper §1) wired directly to the resume call.
pub const WARM_TRIGGER_NS: u64 = 490;

/// Configuration of a [`FaasPlatform`].
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Host scheduler configuration.
    pub sched: SchedConfig,
    /// Resume-path cost model.
    pub cost: CostModel,
    /// Cold-boot model.
    pub boot: BootModel,
    /// Snapshot-restore model.
    pub restore: RestoreModel,
    /// Master seed for service-time sampling.
    pub seed: u64,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        Self {
            sched: SchedConfig::default(),
            cost: CostModel::calibrated(),
            boot: BootModel::default(),
            restore: RestoreModel::default(),
            seed: 42,
        }
    }
}

/// Errors surfaced by platform operations.
///
/// Marked `#[non_exhaustive]`: the fault plane grows new failure classes
/// (retry exhaustion, dead fleets) without breaking downstream matches.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaasError {
    /// The function id is not registered.
    UnknownFunction(FunctionId),
    /// A warm-pool strategy found no provisioned sandbox ("provisioned
    /// concurrency" must be configured ahead of time, §1).
    NoWarmSandbox {
        /// The function whose pool was empty.
        function: FunctionId,
        /// The strategy that needed a sandbox.
        strategy: StartStrategy,
    },
    /// An underlying VMM operation failed.
    Vmm(VmmError),
    /// Bounded-retry recovery (quarantined warm entries, mid-resume
    /// crashes) ran out of budget. The chained `cause` is the terminal
    /// error of the final attempt.
    RetriesExhausted {
        /// The function being invoked.
        function: FunctionId,
        /// Attempts made before giving up (> the retry policy's budget).
        attempts: u32,
        /// Terminal error of the final attempt (see `Error::source`).
        cause: Box<FaasError>,
    },
    /// Every host in the cluster is dead.
    NoHealthyHost,
    /// The invocation's deadline budget was exhausted at an enforcement
    /// boundary before the work could complete.
    DeadlineExceeded {
        /// The function being invoked.
        function: FunctionId,
        /// The full deadline budget the request carried (virtual ns).
        budget_ns: u64,
        /// Virtual ns actually consumed when the boundary caught it.
        observed_ns: u64,
        /// The enforcement boundary that caught the blown budget.
        boundary: DeadlineBoundary,
    },
}

impl fmt::Display for FaasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaasError::UnknownFunction(id) => write!(f, "unknown function {id}"),
            FaasError::NoWarmSandbox { function, strategy } => {
                write!(
                    f,
                    "no provisioned sandbox for {function} ({strategy} start)"
                )
            }
            FaasError::Vmm(e) => write!(f, "{e}"),
            FaasError::RetriesExhausted {
                function,
                attempts,
                cause,
            } => write!(
                f,
                "gave up invoking {function} after {attempts} attempts: {cause}"
            ),
            FaasError::NoHealthyHost => write!(f, "no healthy host left in the cluster"),
            FaasError::DeadlineExceeded {
                function,
                budget_ns,
                observed_ns,
                boundary,
            } => write!(
                f,
                "deadline of {budget_ns}ns blown at the {boundary} boundary \
                 invoking {function} ({observed_ns}ns consumed)"
            ),
        }
    }
}

impl Error for FaasError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FaasError::Vmm(e) => Some(e),
            FaasError::RetriesExhausted { cause, .. } => Some(cause.as_ref()),
            _ => None,
        }
    }
}

impl From<VmmError> for FaasError {
    fn from(e: VmmError) -> Self {
        FaasError::Vmm(e)
    }
}

/// The FaaS platform.
///
/// # Example
///
/// ```
/// use horse_faas::{FaasPlatform, PlatformConfig, StartStrategy};
/// use horse_vmm::SandboxConfig;
/// use horse_workloads::Category;
///
/// let mut platform = FaasPlatform::new(PlatformConfig::default());
/// let ull_cfg = SandboxConfig::builder().ull(true).build()?;
/// let nat = platform.register("nat", Category::Cat2, ull_cfg);
/// platform.provision(nat, 1, StartStrategy::Horse)?;
/// let record = platform.invoke(nat, StartStrategy::Horse)?;
/// assert!(record.init_ns < 1_000, "HORSE init is sub-microsecond");
/// assert!(record.init_share() < 0.20);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Concurrency
///
/// Every request-path method takes `&self`: concurrent driver threads
/// share one platform (or a fleet of them behind a [`Cluster`]) with
/// fine-grained interior mutability — the VMM behind one mutex per
/// host, warm pools on lock-free shards ([`ShardedWarmPool`]), the
/// clock and counters on atomics. The lock hierarchy is
/// `registry → warm_pool map → pool shard → vmm`: no method acquires a
/// lock to the left while holding one to the right, and the pool and
/// VMM locks are never held simultaneously.
///
/// [`Cluster`]: crate::Cluster
#[derive(Debug)]
pub struct FaasPlatform {
    vmm: Mutex<Vmm>,
    registry: RwLock<FunctionRegistry>,
    boot: BootModel,
    restore: RestoreModel,
    /// Paused warm sandboxes per function and strategy kind (key includes
    /// whether the pause was HORSE-style). The `Arc` lets the invoke
    /// path operate on a pool without holding the map lock.
    warm_pool: RwLock<HashMap<(FunctionId, bool), Arc<ShardedWarmPool>>>,
    /// Seed of the exec-sampling stream (derived from the host's master
    /// seed). Sampling is a pure splitmix64 draw keyed by
    /// `(exec_seed, exec_samples index)` — no lock, no shared RNG state.
    exec_seed: u64,
    /// Monotone exec-sample index; each invocation takes the next draw.
    exec_samples: AtomicU64,
    /// Platform clock (nanoseconds) for keep-alive accounting.
    now_ns: AtomicU64,
    /// Telemetry sink; disabled (and inert) by default.
    recorder: Recorder,
    /// Fault-injection plane, shared with the VMM; disabled by default.
    injector: FaultInjector,
    /// Retry budget for quarantine/crash recovery on the warm path.
    retry: RetryPolicy,
}

impl FaasPlatform {
    /// Builds the platform.
    pub fn new(config: PlatformConfig) -> Self {
        let seeds = SeedFactory::new(config.seed);
        Self {
            vmm: Mutex::new(Vmm::new(config.sched, config.cost)),
            registry: RwLock::new(FunctionRegistry::new()),
            boot: config.boot,
            restore: config.restore,
            warm_pool: RwLock::new(HashMap::new()),
            exec_seed: seeds.stream_seed("faas-exec"),
            exec_samples: AtomicU64::new(0),
            now_ns: AtomicU64::new(0),
            recorder: Recorder::disabled(),
            injector: FaultInjector::disabled(),
            retry: RetryPolicy::default(),
        }
    }

    /// Installs a fault injector, shared down through the VMM (all clones
    /// of a [`FaultInjector`] feed one injection plane and one log).
    pub fn set_injector(&mut self, injector: FaultInjector) {
        self.vmm.get_mut().set_injector(injector.clone());
        self.injector = injector;
    }

    /// The active fault injector (disabled unless one was installed).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Replaces the warm-path retry budget (default: 3 retries with
    /// exponential backoff).
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Installs a telemetry recorder, shared down through the VMM and
    /// scheduler (all clones of a [`Recorder`] feed one sink). Invoke
    /// phases, pool hits/misses and the inner pause/resume pipelines all
    /// land in the same trace.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.vmm.get_mut().set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// The active telemetry recorder (disabled unless one was installed).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Current platform clock.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns.load(Ordering::Relaxed))
    }

    /// Advances the platform clock, running keep-alive eviction: pooled
    /// sandboxes idle beyond their TTL are destroyed (the paper's §1
    /// "keep-alive tax" — the very reason hot sandboxes are paused).
    /// The eviction sweep reuses one buffer across every pool — no
    /// per-pool allocation.
    ///
    /// # Panics
    ///
    /// Panics if `to` is earlier than the current clock.
    pub fn advance_to(&self, to: SimTime) {
        let prev = self.now_ns.fetch_max(to.as_nanos(), Ordering::Relaxed);
        assert!(to.as_nanos() >= prev, "platform clock cannot go backwards");
        let mut doomed = Vec::new();
        {
            let pools = self.warm_pool.read();
            for pool in pools.values() {
                pool.evict_expired_into(to, &mut doomed);
            }
        }
        if !doomed.is_empty() {
            let mut vmm = contention::timed(ContentionSite::VmmMutex, || self.vmm.lock());
            for id in doomed {
                vmm.destroy(id).expect("pooled sandboxes are destroyable");
            }
        }
    }

    /// Overrides the keep-alive policy of one function's pool (e.g.
    /// applying a TTL recommended by `horse_traces::stats`). Creates the
    /// pool if absent.
    pub fn set_keep_alive(&self, function: FunctionId, strategy: StartStrategy, policy: KeepAlive) {
        let horse = strategy == StartStrategy::Horse;
        self.warm_pool
            .write()
            .entry((function, horse))
            .or_insert_with(|| Arc::new(ShardedWarmPool::new(policy)))
            .set_keep_alive(policy);
    }

    /// Keep-alive statistics of one function's pool.
    pub fn pool_stats(&self, function: FunctionId, strategy: StartStrategy) -> PoolStats {
        let horse = strategy == StartStrategy::Horse;
        self.warm_pool
            .read()
            .get(&(function, horse))
            .map(|p| p.stats())
            .unwrap_or_default()
    }

    /// Registers a function.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        category: Category,
        config: SandboxConfig,
    ) -> FunctionId {
        self.registry.write().register(name, category, config)
    }

    /// The registry (shared read access; holds the registry read lock
    /// for the guard's lifetime).
    pub fn registry(&self) -> RwLockReadGuard<'_, FunctionRegistry> {
        self.registry.read()
    }

    /// The underlying VMM (for overhead accounting). Holds the host's
    /// VMM lock for the guard's lifetime — bind it to a local rather
    /// than chaining calls off a temporary.
    pub fn vmm(&self) -> MutexGuard<'_, Vmm> {
        contention::timed(ContentionSite::VmmMutex, || self.vmm.lock())
    }

    /// Provisioned-concurrency setup: creates, starts and pauses `count`
    /// sandboxes for the function, ready for `Warm` (vanilla pause) or
    /// `Horse` (precomputing pause) starts.
    ///
    /// # Errors
    ///
    /// * [`FaasError::UnknownFunction`] for unregistered ids;
    /// * propagated [`FaasError::Vmm`] errors.
    ///
    /// # Panics
    ///
    /// Panics if called with a non-pool strategy (`Cold`/`Restore`).
    pub fn provision(
        &self,
        function: FunctionId,
        count: usize,
        strategy: StartStrategy,
    ) -> Result<(), FaasError> {
        assert!(
            strategy.needs_warm_pool(),
            "provisioning only applies to warm-pool strategies"
        );
        let cfg = self
            .registry
            .read()
            .get(function)
            .ok_or(FaasError::UnknownFunction(function))?
            .config();
        let horse = strategy == StartStrategy::Horse;
        let policy = if horse {
            PausePolicy::horse()
        } else {
            PausePolicy::vanilla()
        };
        let pool = self.pool_entry(function, horse, KeepAlive::Provisioned);
        for _ in 0..count {
            let id = {
                let mut vmm = contention::timed(ContentionSite::VmmMutex, || self.vmm.lock());
                let id = vmm.create(cfg);
                vmm.start(id)?;
                vmm.pause(id, policy)?;
                id
            };
            pool.put(id, self.now());
        }
        Ok(())
    }

    /// Number of provisioned sandboxes available for a strategy.
    pub fn pool_size(&self, function: FunctionId, strategy: StartStrategy) -> usize {
        let horse = strategy == StartStrategy::Horse;
        self.warm_pool
            .read()
            .get(&(function, horse))
            .map_or(0, |p| p.len())
    }

    /// Pool accessor, creating the pool with the given default policy.
    /// A provisioned request upgrades an existing TTL pool (the premium
    /// option supersedes plain keep-alive). Returns a clone of the
    /// pool's `Arc` so callers operate on it without the map lock.
    fn pool_entry(
        &self,
        function: FunctionId,
        horse: bool,
        policy: KeepAlive,
    ) -> Arc<ShardedWarmPool> {
        let key = (function, horse);
        let pool = {
            let pools = self.warm_pool.read();
            pools.get(&key).cloned()
        };
        let pool = match pool {
            Some(p) => p,
            None => Arc::clone(
                self.warm_pool
                    .write()
                    .entry(key)
                    .or_insert_with(|| Arc::new(ShardedWarmPool::new(policy))),
            ),
        };
        if policy == KeepAlive::Provisioned && pool.keep_alive() != KeepAlive::Provisioned {
            pool.set_keep_alive(KeepAlive::Provisioned);
        }
        pool
    }

    /// Invokes a function with the given start strategy, returning the
    /// initialization/execution record. Warm-pool sandboxes are paused
    /// back into the pool after execution (keep-alive). A batch of one:
    /// the same request loop as [`Self::invoke_batch`].
    ///
    /// # Errors
    ///
    /// * [`FaasError::UnknownFunction`] for unregistered ids;
    /// * [`FaasError::NoWarmSandbox`] when a pool strategy finds no
    ///   provisioned sandbox;
    /// * propagated [`FaasError::Vmm`] errors.
    pub fn invoke(
        &self,
        function: FunctionId,
        strategy: StartStrategy,
    ) -> Result<InvocationRecord, FaasError> {
        self.serve_one(function, strategy, None)
    }

    /// Invokes a function `count` times with one strategy, appending each
    /// completed record to `out`.
    ///
    /// The per-invocation work (exec sampling, resume → exec → re-pause
    /// under one VMM lock window, per-invocation spans and instants) is
    /// the same for every request; what a batch amortizes is the
    /// bookkeeping *around* it:
    ///
    /// * one registry read for the whole batch instead of one per call;
    /// * one warm-pool map lookup — the pool `Arc` is resolved once and
    ///   reused by every take and re-pause in the batch;
    /// * one invoke-counter update (`count(strategy, n)`) at the end;
    /// * one recorder pool-gauge scan at the end instead of after every
    ///   invocation.
    ///
    /// Counter totals, gauge values after the batch, per-invocation
    /// spans and the records themselves are bit-identical to `count`
    /// sequential [`Self::invoke`] calls from the same state — the
    /// equivalence the batch tests pin.
    ///
    /// Requests are best-effort (no deadline budget). On an error the
    /// records completed so far remain in `out` and the error is
    /// returned; the remaining invocations are not attempted and stay
    /// the caller's to re-submit.
    ///
    /// # Errors
    ///
    /// Everything [`Self::invoke`] returns.
    pub fn invoke_batch(
        &self,
        function: FunctionId,
        strategy: StartStrategy,
        count: usize,
        out: &mut Vec<InvocationRecord>,
    ) -> Result<(), FaasError> {
        self.serve(function, strategy, count, None, &mut |record| {
            out.push(record)
        })
    }

    /// A batch of one carrying an optional deadline budget — the form
    /// every single-request entry (here and in the cluster's routing and
    /// hedge attempts) rides on.
    pub(crate) fn serve_one(
        &self,
        function: FunctionId,
        strategy: StartStrategy,
        budget_ns: Option<u64>,
    ) -> Result<InvocationRecord, FaasError> {
        let mut served = None;
        self.serve(function, strategy, 1, budget_ns, &mut |record| {
            served = Some(record)
        })?;
        Ok(served.expect("a served batch of one yields its record"))
    }

    /// The request loop: serves `count` invocations of one function and
    /// strategy, handing each completed record to `sink` (a closure, so
    /// a single request allocates nothing). Stops at the first error;
    /// the records already handed to `sink` are the ones served.
    ///
    /// `budget_ns` is a per-request deadline budget (virtual ns). It is
    /// enforced at the pool-take boundary (recovery backoffs and
    /// re-provisioning boots must not eat it) and at the resume
    /// boundary (initialization itself must fit); a blown budget
    /// surfaces as [`FaasError::DeadlineExceeded`] naming the boundary.
    ///
    /// Trace context: each request mints its own invocation id — unless
    /// the caller installed a context (the cluster's reliability plane
    /// does, around each routing or hedge attempt), in which case every
    /// request reuses the caller's id, its invoke span parents under the
    /// caller's parent kind, and a failed attempt still records a
    /// synthetic invoke span so its children stay stitchable. The
    /// caller's context is restored before returning.
    pub(crate) fn serve(
        &self,
        function: FunctionId,
        strategy: StartStrategy,
        count: usize,
        budget_ns: Option<u64>,
        sink: &mut impl FnMut(InvocationRecord),
    ) -> Result<(), FaasError> {
        // Allocation attribution: everything on the invoke path defaults
        // to the `Invoke` phase; the pool take and the inner pause/resume
        // pipelines re-scope themselves more precisely.
        let _alloc = AllocScope::enter(AllocPhase::Invoke);
        if count == 0 {
            return Ok(());
        }
        let (cfg, category) = {
            let registry = self.registry.read();
            let meta = registry
                .get(function)
                .ok_or(FaasError::UnknownFunction(function))?;
            (meta.config(), meta.category())
        };
        let kind = Self::invoke_kind(strategy);
        let outer = self.recorder.context();
        // The caller's parent kind (a routing or hedge attempt span)
        // becomes the invoke span's causal parent, so stitched
        // submission trees run submit → attempt → invoke → resume steps.
        // Standalone, the invoke span is the trace root.
        let outer_parent = if outer.is_traced() {
            outer.parent
        } else {
            None
        };
        let mut pool = None;
        let mut completed = 0u64;
        let mut result = Ok(());
        for _ in 0..count {
            let exec_ns = self.sample_exec_ns(category);
            // The context's parent is the invoke-phase span, so the
            // warm-pool take, the scheduler's dispatch instants, the
            // resume steps and the keep-alive re-pause all attach to the
            // invocation they serve.
            let invocation = if outer.is_traced() {
                outer.invocation
            } else {
                self.recorder.mint_invocation()
            };
            self.recorder.set_context(TraceContext {
                invocation,
                parent: Some(kind),
            });
            let t0 = self.recorder.now_ns();
            match self.dispatch_invoke(
                function,
                strategy,
                cfg,
                exec_ns,
                t0,
                budget_ns,
                outer_parent,
                &mut pool,
            ) {
                Ok(init_ns) => {
                    completed += 1;
                    sink(InvocationRecord {
                        function,
                        strategy,
                        init_ns,
                        exec_ns,
                        invocation,
                    });
                }
                Err(e) => {
                    if outer.is_traced() && self.recorder.is_enabled() {
                        // A failed attempt under a caller's context still
                        // emitted children (pool takes, fault recovery,
                        // deadline re-pooling) parented to the invoke
                        // kind; a synthetic invoke span covering the
                        // attempt keeps them stitchable instead of
                        // orphaned. Standalone, a failed invoke records
                        // no invoke span.
                        let now = self.recorder.now_ns();
                        self.recorder.set_parent(outer_parent);
                        let dur = now.saturating_sub(t0);
                        self.recorder.span_at(kind, 0, t0, dur, dur);
                    }
                    result = Err(e);
                    break;
                }
            }
        }
        // Restore the caller's context so a failed invocation cannot
        // leak its id onto unrelated work.
        self.recorder.set_context(outer);
        if completed > 0 {
            self.recorder
                .count(Self::invoke_counter(strategy), completed);
            if self.recorder.is_enabled() {
                self.emit_pool_gauges();
            }
        }
        result
    }

    /// The invoke-phase span kind for a strategy.
    fn invoke_kind(strategy: StartStrategy) -> EventKind {
        match strategy {
            StartStrategy::Cold => EventKind::InvokeCold,
            StartStrategy::Restore => EventKind::InvokeRestore,
            StartStrategy::Warm => EventKind::InvokeWarm,
            StartStrategy::Horse => EventKind::InvokeHorse,
        }
    }

    /// The completed-invocations counter for a strategy.
    fn invoke_counter(strategy: StartStrategy) -> Counter {
        match strategy {
            StartStrategy::Cold => Counter::InvokesCold,
            StartStrategy::Restore => Counter::InvokesRestore,
            StartStrategy::Warm => Counter::InvokesWarm,
            StartStrategy::Horse => Counter::InvokesHorse,
        }
    }

    /// One pass over the pool map: the aggregate pooled gauge plus
    /// per-shard occupancy / cold-overflow depth (summed across pools —
    /// the shard axis, not the function axis, is what the contention
    /// story needs). Runs once per request loop that served anything —
    /// gauges are latest-value-wins, so a batch leaves the reading
    /// `count` single invokes would.
    fn emit_pool_gauges(&self) {
        let mut pooled = 0u64;
        let mut warm = [0u64; horse_telemetry::counters::POOL_GAUGE_SHARDS];
        let mut cold = [0u64; horse_telemetry::counters::POOL_GAUGE_SHARDS];
        for pool in self.warm_pool.read().values() {
            pooled += pool.len() as u64;
            for (i, &(w, c)) in pool.shard_occupancy().iter().enumerate() {
                warm[i] += w;
                cold[i] += c;
            }
        }
        self.recorder.gauge(Gauge::PooledSandboxes, pooled);
        for i in 0..horse_telemetry::counters::POOL_GAUGE_SHARDS {
            self.recorder.gauge(Gauge::pool_shard_occupancy(i), warm[i]);
            self.recorder
                .gauge(Gauge::pool_shard_cold_depth(i), cold[i]);
        }
    }

    /// Runs the strategy-specific initialization pipeline under the
    /// invocation's trace context, returning the init latency.
    ///
    /// `pool` caches the function's warm-pool `Arc` across the pool
    /// take and the keep-alive re-pause (and across the whole batch):
    /// the map lookup runs once, then every take/put reuses the resolved
    /// shard set. An empty cache is always re-resolved, so a pool
    /// created mid-flight is still found.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_invoke(
        &self,
        function: FunctionId,
        strategy: StartStrategy,
        cfg: SandboxConfig,
        exec_ns: u64,
        t0: u64,
        budget_ns: Option<u64>,
        outer_parent: Option<EventKind>,
        pool: &mut Option<Arc<ShardedWarmPool>>,
    ) -> Result<u64, FaasError> {
        Ok(match strategy {
            StartStrategy::Cold => {
                // Boot a brand-new sandbox; it joins the vanilla pool
                // afterwards (keep-alive).
                let id = {
                    let mut vmm = contention::timed(ContentionSite::VmmMutex, || self.vmm.lock());
                    let id = vmm.create(cfg);
                    vmm.start(id)?;
                    id
                };
                let init = self.boot.boot_ns(cfg);
                self.enforce_resume_deadline(function, id, false, init, budget_ns, pool)?;
                self.record_init_and_exec(EventKind::InvokeCold, t0, init, exec_ns, outer_parent);
                self.repause_into_pool(id, function, false, pool)?;
                init
            }
            StartStrategy::Restore => {
                let id = {
                    let mut vmm = contention::timed(ContentionSite::VmmMutex, || self.vmm.lock());
                    let id = vmm.create(cfg);
                    vmm.start(id)?;
                    id
                };
                let init = self.restore.restore_ns(cfg);
                self.enforce_resume_deadline(function, id, false, init, budget_ns, pool)?;
                self.record_init_and_exec(
                    EventKind::InvokeRestore,
                    t0,
                    init,
                    exec_ns,
                    outer_parent,
                );
                self.repause_into_pool(id, function, false, pool)?;
                init
            }
            StartStrategy::Warm => {
                // The userspace trigger precedes the resume on the
                // critical path.
                self.recorder.advance(WARM_TRIGGER_NS);
                let (id, outcome, extra_ns, vmm) =
                    self.warm_resume(function, strategy, cfg, budget_ns, pool)?;
                let init = WARM_TRIGGER_NS + extra_ns + outcome.breakdown.total_ns();
                self.finish_warm_invoke(
                    vmm,
                    EventKind::InvokeWarm,
                    function,
                    id,
                    false,
                    init,
                    exec_ns,
                    t0,
                    budget_ns,
                    outer_parent,
                    pool,
                )?
            }
            StartStrategy::Horse => {
                let (id, outcome, extra_ns, vmm) =
                    self.warm_resume(function, strategy, cfg, budget_ns, pool)?;
                let init = extra_ns + outcome.breakdown.total_ns();
                self.finish_warm_invoke(
                    vmm,
                    EventKind::InvokeHorse,
                    function,
                    id,
                    true,
                    init,
                    exec_ns,
                    t0,
                    budget_ns,
                    outer_parent,
                    pool,
                )?
            }
        })
    }

    /// Completes a warm-path invocation inside the **single** VMM lock
    /// window opened by the resume: the resume-boundary deadline check,
    /// the init/exec telemetry (lock-free recorder traffic) and the
    /// keep-alive re-pause all run under the guard the resume acquired,
    /// so the mutation-heavy resume→repause round trip costs one
    /// [`ContentionSite::VmmMutex`] acquisition instead of two (three on
    /// a deadline miss). The pool insert happens strictly after the
    /// guard drops, preserving the `pool shard ∦ vmm` lock hierarchy.
    #[allow(clippy::too_many_arguments)]
    fn finish_warm_invoke(
        &self,
        vmm: MutexGuard<'_, Vmm>,
        kind: EventKind,
        function: FunctionId,
        id: SandboxId,
        horse: bool,
        init_ns: u64,
        exec_ns: u64,
        t0: u64,
        budget_ns: Option<u64>,
        outer_parent: Option<EventKind>,
        pool: &mut Option<Arc<ShardedWarmPool>>,
    ) -> Result<u64, FaasError> {
        if let Some(budget) = budget_ns {
            if Deadline::from_nanos(budget).exceeded(init_ns) {
                // Initialization alone blew the budget: re-pool the
                // sandbox (its state is intact — only this request's
                // budget is gone) and surface the miss typed.
                self.repause_into_pool_locked(vmm, id, function, horse, pool)?;
                self.recorder.count(Counter::DeadlineMisses, 1);
                return Err(FaasError::DeadlineExceeded {
                    function,
                    budget_ns: budget,
                    observed_ns: init_ns,
                    boundary: DeadlineBoundary::Resume,
                });
            }
        }
        self.record_init_and_exec(kind, t0, init_ns, exec_ns, outer_parent);
        self.repause_into_pool_locked(vmm, id, function, horse, pool)?;
        Ok(init_ns)
    }

    /// The resume-boundary deadline check: if initialization alone
    /// exhausted the budget, the sandbox is re-pooled (its state is
    /// intact — only this request's budget is gone) and the miss
    /// surfaces typed. A `None` budget disables the check.
    fn enforce_resume_deadline(
        &self,
        function: FunctionId,
        id: SandboxId,
        horse: bool,
        init_ns: u64,
        budget_ns: Option<u64>,
        pool: &mut Option<Arc<ShardedWarmPool>>,
    ) -> Result<(), FaasError> {
        let Some(budget) = budget_ns else {
            return Ok(());
        };
        if !Deadline::from_nanos(budget).exceeded(init_ns) {
            return Ok(());
        }
        self.repause_into_pool(id, function, horse, pool)?;
        self.recorder.count(Counter::DeadlineMisses, 1);
        Err(FaasError::DeadlineExceeded {
            function,
            budget_ns: budget,
            observed_ns: init_ns,
            boundary: DeadlineBoundary::Resume,
        })
    }

    /// Emits the invoke-phase span `[t0, t0+init]` and the exec span that
    /// follows it, leaving the cursor at the end of execution.
    ///
    /// The invoke span carries `outer_parent` — the routing/hedge
    /// attempt that launched it when the cluster plane is driving, or
    /// `None` on the plain invoke path (where it is the trace root).
    /// The exec span is its causal child. The ambient parent — the
    /// invoke kind — is restored afterwards for the keep-alive
    /// re-pause.
    fn record_init_and_exec(
        &self,
        kind: EventKind,
        t0: u64,
        init_ns: u64,
        exec_ns: u64,
        outer_parent: Option<EventKind>,
    ) {
        if !self.recorder.is_enabled() {
            return;
        }
        self.recorder.set_parent(outer_parent);
        self.recorder.span_at(kind, 0, t0, init_ns, init_ns);
        self.recorder.set_parent(Some(kind));
        self.recorder.set_now(t0 + init_ns);
        self.recorder.span(EventKind::Exec, 0, exec_ns, exec_ns);
    }

    /// Pops a warm sandbox and resumes it, riding out quarantined pool
    /// entries and mid-resume crashes with bounded, exponentially
    /// backed-off retries, and degraded (downgraded) pauses with a
    /// vanilla-path fallback. Returns the running sandbox, the resume
    /// outcome, the extra latency (backoffs plus re-provisioning boots)
    /// charged to the invocation on top of the resume itself — and the
    /// **still-held** VMM guard the resume ran under, so the caller's
    /// keep-alive re-pause reuses the same lock window instead of
    /// re-acquiring (see [`Self::finish_warm_invoke`]).
    fn warm_resume(
        &self,
        function: FunctionId,
        strategy: StartStrategy,
        cfg: SandboxConfig,
        budget_ns: Option<u64>,
        pool: &mut Option<Arc<ShardedWarmPool>>,
    ) -> Result<(SandboxId, ResumeOutcome, u64, MutexGuard<'_, Vmm>), FaasError> {
        let horse = strategy == StartStrategy::Horse;
        let (mode, pause_policy) = if horse {
            (ResumeMode::Horse, PausePolicy::horse())
        } else {
            (ResumeMode::Vanilla, PausePolicy::vanilla())
        };
        let mut extra_ns = 0u64;
        let mut attempts: u32 = 0;
        let mut pending: Option<FaultId> = None;
        loop {
            // Pool-take deadline boundary: recovery detours (backoffs,
            // re-provisioning boots) accumulate in `extra_ns`; once they
            // alone exhaust the budget, stop retrying — another attempt
            // could only deepen the miss.
            if let Some(budget) = budget_ns {
                if Deadline::from_nanos(budget).exceeded(extra_ns) {
                    self.recorder.count(Counter::DeadlineMisses, 1);
                    return Err(FaasError::DeadlineExceeded {
                        function,
                        budget_ns: budget,
                        observed_ns: extra_ns,
                        boundary: DeadlineBoundary::PoolTake,
                    });
                }
            }
            // Acquire an entry: from the pool, or — once recovery is
            // under way and the pool has drained — by re-provisioning a
            // fresh sandbox (a full boot, charged to the invocation).
            let (id, reprovisioned) = match self.pop_pool(function, horse, strategy, pool) {
                Ok(id) => (id, false),
                Err(e) if attempts == 0 => return Err(e),
                Err(_) => {
                    let id = {
                        let mut vmm =
                            contention::timed(ContentionSite::VmmMutex, || self.vmm.lock());
                        let id = vmm.create(cfg);
                        vmm.start(id)?;
                        vmm.pause(id, pause_policy)?;
                        id
                    };
                    extra_ns += self.boot.boot_ns(cfg);
                    (id, true)
                }
            };
            if let Some(fault) = pending.take() {
                self.injector.resolve(
                    fault,
                    RecoveryOutcome::EntryQuarantined {
                        reprovisioned,
                        retries: attempts,
                    },
                );
            }

            // Chaos: the popped entry is invalid (stale snapshot, dead
            // cgroup, …) — quarantine it and retry.
            if let Some(fault) = self.injector.should_inject(FaultSite::PoolEntryInvalid) {
                self.note_fault(FaultSite::PoolEntryInvalid);
                self.quarantine(id)?;
                attempts += 1;
                if attempts > self.retry.max_retries {
                    self.injector.resolve(
                        fault,
                        RecoveryOutcome::EntryQuarantined {
                            reprovisioned: false,
                            retries: attempts,
                        },
                    );
                    return Err(FaasError::RetriesExhausted {
                        function,
                        attempts,
                        cause: Box::new(FaasError::NoWarmSandbox { function, strategy }),
                    });
                }
                extra_ns += self.retry.backoff_ns(attempts);
                pending = Some(fault);
                continue;
            }

            let mut vmm = contention::timed(ContentionSite::VmmMutex, || self.vmm.lock());
            match vmm.resume(id, mode) {
                Ok(outcome) => return Ok((id, outcome, extra_ns, vmm)),
                Err(VmmError::ModeMismatch { .. }) if mode == ResumeMode::Horse => {
                    // A queue failure downgraded the pause to vanilla;
                    // the sandbox still resumes through the slow path —
                    // recorded as a HORSE fallback. Same lock window: the
                    // guard is already held.
                    let outcome = vmm.resume(id, ResumeMode::Vanilla)?;
                    self.recorder.count(Counter::HorseFallbacks, 1);
                    self.recorder.instant(
                        EventKind::HorseFallback,
                        0,
                        outcome.breakdown.total_ns(),
                    );
                    return Ok((id, outcome, extra_ns, vmm));
                }
                Err(e @ VmmError::Crashed { .. }) => {
                    // The VMM contained the crash (and resolved its
                    // fault); the platform's recovery is a bounded retry.
                    drop(vmm);
                    attempts += 1;
                    if attempts > self.retry.max_retries {
                        return Err(FaasError::RetriesExhausted {
                            function,
                            attempts,
                            cause: Box::new(e.into()),
                        });
                    }
                    extra_ns += self.retry.backoff_ns(attempts);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Quarantines a warm sandbox: telemetry, then destruction (the
    /// simulated equivalent of fencing it off and reaping it).
    fn quarantine(&self, id: SandboxId) -> Result<(), FaasError> {
        self.recorder.count(Counter::PoolQuarantined, 1);
        self.recorder
            .instant(EventKind::PoolQuarantine, 0, id.as_u64());
        contention::timed(ContentionSite::VmmMutex, || self.vmm.lock()).destroy(id)?;
        Ok(())
    }

    /// Returns a sandbox to its keep-alive pool after execution. A crash
    /// during the re-pause (fault plane) is contained by the VMM; the
    /// sandbox simply does not rejoin the pool, and the completed
    /// invocation stands.
    fn repause_into_pool(
        &self,
        id: SandboxId,
        function: FunctionId,
        horse: bool,
        pool: &mut Option<Arc<ShardedWarmPool>>,
    ) -> Result<(), FaasError> {
        let vmm = contention::timed(ContentionSite::VmmMutex, || self.vmm.lock());
        self.repause_into_pool_locked(vmm, id, function, horse, pool)
    }

    /// [`Self::repause_into_pool`] under a VMM guard the caller already
    /// holds (the warm path's consolidated lock window). The guard is
    /// consumed: the pause runs under it, then it drops **before** the
    /// pool insert takes its shard lock — the pool and VMM locks are
    /// never held simultaneously. A populated `pool` cache skips the
    /// map lookup while keeping [`Self::pool_entry`]'s policy-upgrade
    /// semantics (a provisioned put still supersedes plain keep-alive).
    fn repause_into_pool_locked(
        &self,
        mut vmm: MutexGuard<'_, Vmm>,
        id: SandboxId,
        function: FunctionId,
        horse: bool,
        pool: &mut Option<Arc<ShardedWarmPool>>,
    ) -> Result<(), FaasError> {
        let (policy, keep_alive) = if horse {
            (PausePolicy::horse(), KeepAlive::Provisioned)
        } else {
            (PausePolicy::vanilla(), KeepAlive::default_ttl())
        };
        let paused = vmm.pause(id, policy);
        drop(vmm);
        match paused {
            Ok(_) => {
                let pool = match pool {
                    Some(pool) => {
                        if keep_alive == KeepAlive::Provisioned
                            && pool.keep_alive() != KeepAlive::Provisioned
                        {
                            pool.set_keep_alive(KeepAlive::Provisioned);
                        }
                        Arc::clone(pool)
                    }
                    None => {
                        let fresh = self.pool_entry(function, horse, keep_alive);
                        *pool = Some(Arc::clone(&fresh));
                        fresh
                    }
                };
                pool.put(id, self.now());
                Ok(())
            }
            Err(VmmError::Crashed { .. }) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Emits the fault-injection telemetry pair (counter + instant with
    /// the site index as arg) for a fault that just fired at this layer.
    fn note_fault(&self, site: FaultSite) {
        self.recorder.count(Counter::FaultsInjected, 1);
        self.recorder
            .instant(EventKind::FaultInjected, 0, site.index() as u64);
    }

    /// Destroys every pooled sandbox on this host, leaving all pools
    /// empty (policies intact). The cluster layer uses it for abrupt
    /// host death — the inventory is *lost*, not rebalanced — and to
    /// scrub stale state when a departed host rejoins. Returns the
    /// number of sandboxes purged.
    ///
    /// Implementation note: purging goes through the eviction path (a
    /// momentary zero TTL + far-future eviction sweep), not `take`, so
    /// pool hit/miss statistics are untouched — a purge shows up as
    /// evictions, which is what a host teardown semantically is.
    pub fn purge_pools(&self) -> usize {
        let mut doomed = Vec::new();
        {
            let pools = self.warm_pool.read();
            for pool in pools.values() {
                let policy = pool.keep_alive();
                pool.set_keep_alive(KeepAlive::Ttl(horse_sim::SimDuration::from_nanos(0)));
                pool.evict_expired_into(SimTime::from_nanos(u64::MAX), &mut doomed);
                pool.set_keep_alive(policy);
                doomed.extend(pool.drain_doomed());
            }
        }
        let purged = doomed.len();
        if !doomed.is_empty() {
            let mut vmm = contention::timed(ContentionSite::VmmMutex, || self.vmm.lock());
            for id in doomed {
                vmm.destroy(id).expect("pooled sandboxes are destroyable");
            }
        }
        purged
    }

    /// The current warm-pool inventory: `(function, strategy, size)` per
    /// non-empty pool — what a cluster re-provisions on surviving hosts
    /// when this host dies.
    pub fn pool_inventory(&self) -> Vec<(FunctionId, StartStrategy, usize)> {
        let mut out: Vec<(FunctionId, StartStrategy, usize)> = self
            .warm_pool
            .read()
            .iter()
            .filter(|(_, pool)| !pool.is_empty())
            .map(|(&(function, horse), pool)| {
                let strategy = if horse {
                    StartStrategy::Horse
                } else {
                    StartStrategy::Warm
                };
                (function, strategy, pool.len())
            })
            .collect();
        out.sort_by_key(|&(f, s, _)| (f, s.label()));
        out
    }

    fn pop_pool(
        &self,
        function: FunctionId,
        horse: bool,
        strategy: StartStrategy,
        pool: &mut Option<Arc<ShardedWarmPool>>,
    ) -> Result<SandboxId, FaasError> {
        let _alloc = AllocScope::enter(AllocPhase::PoolTake);
        let now = self.now();
        if pool.is_none() {
            // Cache miss: resolve the pool once; every later take and
            // re-pause in this invocation (or batch) reuses the Arc. An
            // absent pool leaves the cache empty so the next take
            // re-resolves (the pool may be created mid-recovery).
            *pool = self.warm_pool.read().get(&(function, horse)).cloned();
        }
        let (taken, doomed) = match pool {
            Some(pool) => (pool.take(now), pool.drain_doomed()),
            None => (None, Vec::new()),
        };
        // Destroy entries `take` lazily expired (the keep-alive tax is
        // paid even when eviction happens on the take path).
        if !doomed.is_empty() {
            let mut vmm = contention::timed(ContentionSite::VmmMutex, || self.vmm.lock());
            for id in doomed {
                vmm.destroy(id).expect("pooled sandboxes are destroyable");
            }
        }
        match taken {
            Some(id) => {
                self.recorder.instant(EventKind::PoolHit, 0, 0);
                self.recorder.count(Counter::PoolHits, 1);
                Ok(id)
            }
            None => {
                self.recorder.instant(EventKind::PoolMiss, 0, 0);
                self.recorder.count(Counter::PoolMisses, 1);
                Err(FaasError::NoWarmSandbox { function, strategy })
            }
        }
    }

    /// Samples a service time: the category's Table 1 mean with ±10 %
    /// uniform jitter (seeded, deterministic).
    ///
    /// The draw is a pure splitmix64 stream keyed by the host's exec
    /// seed and a monotone per-invocation index — the reliability
    /// plane's jitter idiom — replacing the former `Mutex<StdRng>` hot
    /// spot. Bit-stable for a fixed (seed, host, invocation) triple and
    /// free of cross-thread contention (the old
    /// [`ContentionSite::ExecRng`] now records zero acquisitions).
    fn sample_exec_ns(&self, category: Category) -> u64 {
        let index = self.exec_samples.fetch_add(1, Ordering::Relaxed);
        let mean = category.mean_exec_ns() as f64;
        (mean * exec_jitter(self.exec_seed, index)).round() as u64
    }
}

/// The ±10 % jitter factor for exec-sample `index` under `seed`: two
/// rounds of splitmix64 over the (seed, index) pair, top 53 bits mapped
/// onto `[0.9, 1.1)`. Pure — same inputs, same factor, on any thread.
fn exec_jitter(seed: u64, index: u64) -> f64 {
    use horse_sim::rng::splitmix64;
    let h = splitmix64(splitmix64(seed ^ index.rotate_left(17)) ^ index);
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    0.9 + 0.2 * unit
}

// The whole request path is `&self` over interior mutability; these
// compile-time assertions keep the platform shareable across driver
// threads (a regression to `Rc`/`Cell` state would fail here, not at a
// distant bench call site).
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FaasPlatform>();
    assert_send_sync::<ShardedWarmPool>();
    assert_send_sync::<FaultInjector>();
    assert_send_sync::<Recorder>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> FaasPlatform {
        FaasPlatform::new(PlatformConfig {
            sched: SchedConfig {
                topology: horse_sched::CpuTopology::new(1, 8, false),
                ull_queues: 1,
                governor_policy: horse_sched::GovernorPolicy::Performance,
                flavor: Default::default(),
            },
            ..PlatformConfig::default()
        })
    }

    fn ull_cfg(vcpus: u32) -> SandboxConfig {
        SandboxConfig::builder()
            .vcpus(vcpus)
            .ull(true)
            .build()
            .unwrap()
    }

    #[test]
    fn cold_start_matches_table1_scale() {
        let mut p = platform();
        let f = p.register("filter", Category::Cat3, ull_cfg(1));
        let r = p.invoke(f, StartStrategy::Cold).unwrap();
        assert!((1.4e9..1.6e9).contains(&(r.init_ns as f64)));
        assert!(r.init_share() > 0.999, "cold init dominates (99.99%)");
        // The cold sandbox joined the warm pool (keep-alive).
        assert_eq!(p.pool_size(f, StartStrategy::Warm), 1);
    }

    #[test]
    fn restore_start_matches_table1_scale() {
        let mut p = platform();
        let f = p.register("nat", Category::Cat2, ull_cfg(1));
        let r = p.invoke(f, StartStrategy::Restore).unwrap();
        assert!((1.2e6..1.4e6).contains(&(r.init_ns as f64)));
        assert!(r.init_share() > 0.99);
    }

    #[test]
    fn warm_start_is_about_1_1_us() {
        let mut p = platform();
        let f = p.register("filter", Category::Cat3, ull_cfg(1));
        p.provision(f, 1, StartStrategy::Warm).unwrap();
        let r = p.invoke(f, StartStrategy::Warm).unwrap();
        assert!(
            (1_000..1_250).contains(&r.init_ns),
            "warm init {} should be ≈1.1 µs",
            r.init_ns
        );
        // Cat3 warm init share ≈ 61 % (Figure 1).
        assert!((0.55..0.68).contains(&r.init_share()), "{}", r.init_share());
    }

    #[test]
    fn horse_start_is_fast_and_low_share() {
        let mut p = platform();
        let f = p.register("filter", Category::Cat3, ull_cfg(1));
        p.provision(f, 1, StartStrategy::Horse).unwrap();
        let r = p.invoke(f, StartStrategy::Horse).unwrap();
        assert!(r.init_ns < 250, "horse init {}", r.init_ns);
        // Cat3 HORSE init share ≈ 17.6 % (Figure 4: 0.77 %–17.64 %).
        assert!((0.10..0.30).contains(&r.init_share()), "{}", r.init_share());
    }

    #[test]
    fn pool_exhaustion_is_an_error() {
        let mut p = platform();
        let f = p.register("fw", Category::Cat1, ull_cfg(1));
        let e = p.invoke(f, StartStrategy::Warm).unwrap_err();
        assert!(matches!(e, FaasError::NoWarmSandbox { .. }), "{e}");
    }

    #[test]
    fn pools_are_per_strategy() {
        let mut p = platform();
        let f = p.register("fw", Category::Cat1, ull_cfg(1));
        p.provision(f, 2, StartStrategy::Warm).unwrap();
        assert_eq!(p.pool_size(f, StartStrategy::Warm), 2);
        assert_eq!(p.pool_size(f, StartStrategy::Horse), 0);
        assert!(p.invoke(f, StartStrategy::Horse).is_err());
    }

    #[test]
    fn keep_alive_returns_sandbox_to_pool() {
        let mut p = platform();
        let f = p.register("nat", Category::Cat2, ull_cfg(2));
        p.provision(f, 1, StartStrategy::Horse).unwrap();
        for _ in 0..5 {
            p.invoke(f, StartStrategy::Horse).unwrap();
            assert_eq!(p.pool_size(f, StartStrategy::Horse), 1);
        }
    }

    #[test]
    fn unknown_function_is_an_error() {
        let mut p = platform();
        let f = p.register("fw", Category::Cat1, ull_cfg(1));
        p.invoke(f, StartStrategy::Cold).unwrap();
        let bogus = {
            // construct an unknown id by registering on another platform
            let mut other = platform();
            other.register("a", Category::Cat1, ull_cfg(1));
            other.register("b", Category::Cat1, ull_cfg(1))
        };
        assert!(matches!(
            platform().invoke(bogus, StartStrategy::Cold),
            Err(FaasError::UnknownFunction(_))
        ));
    }

    #[test]
    fn exec_times_are_seeded_and_jittered() {
        let mut a = platform();
        let mut b = platform();
        let fa = a.register("filter", Category::Cat3, ull_cfg(1));
        let fb = b.register("filter", Category::Cat3, ull_cfg(1));
        let ra: Vec<u64> = (0..5)
            .map(|_| a.invoke(fa, StartStrategy::Cold).unwrap().exec_ns)
            .collect();
        let rb: Vec<u64> = (0..5)
            .map(|_| b.invoke(fb, StartStrategy::Cold).unwrap().exec_ns)
            .collect();
        assert_eq!(ra, rb, "same seed, same service times");
        assert!(ra.iter().any(|&x| x != ra[0]), "jitter varies across calls");
        for &x in &ra {
            assert!((630..=770).contains(&x), "±10% around 700ns: {x}");
        }
    }

    #[test]
    fn exec_sampling_pins_the_splitmix_stream() {
        // Regression canary for the lock-free exec sampler: the draw
        // for a fixed (master seed, host stream, invocation index)
        // triple is part of the platform's determinism contract — these
        // constants may only change alongside an explicit perf-baseline
        // regeneration.
        let mut p = platform();
        let f = p.register("filter", Category::Cat3, ull_cfg(1));
        assert_eq!(p.invoke(f, StartStrategy::Cold).unwrap().exec_ns, 754);
        assert_eq!(p.invoke(f, StartStrategy::Cold).unwrap().exec_ns, 749);
        assert_eq!(p.invoke(f, StartStrategy::Cold).unwrap().exec_ns, 719);
        // A sibling host (cluster-style seed+1) draws a distinct stream.
        let mut q = FaasPlatform::new(PlatformConfig {
            seed: 43,
            sched: SchedConfig {
                topology: horse_sched::CpuTopology::new(1, 8, false),
                ull_queues: 1,
                governor_policy: horse_sched::GovernorPolicy::Performance,
                flavor: Default::default(),
            },
            ..PlatformConfig::default()
        });
        let g = q.register("filter", Category::Cat3, ull_cfg(1));
        assert_eq!(q.invoke(g, StartStrategy::Cold).unwrap().exec_ns, 673);
        // The raw jitter factor is pure: same triple, same bits.
        assert_eq!(
            exec_jitter(0xffdc_ffd4_6652_2f6a, 0).to_bits(),
            exec_jitter(0xffdc_ffd4_6652_2f6a, 0).to_bits()
        );
    }

    // ---- fault plane ----------------------------------------------------

    use horse_faults::{FaultPlan, FaultTrigger};

    fn chaos_platform(site: FaultSite, trigger: FaultTrigger) -> (FaasPlatform, FunctionId) {
        let mut p = platform();
        let f = p.register("nat", Category::Cat2, ull_cfg(2));
        p.set_injector(FaultInjector::new(11, FaultPlan::new().with(site, trigger)));
        p.set_recorder(Recorder::enabled());
        (p, f)
    }

    #[test]
    fn invalid_pool_entry_is_quarantined_and_the_next_one_serves() {
        let (p, f) = chaos_platform(FaultSite::PoolEntryInvalid, FaultTrigger::Once(1));
        p.provision(f, 2, StartStrategy::Horse).unwrap();
        let clean = {
            let mut q = platform();
            let g = q.register("nat", Category::Cat2, ull_cfg(2));
            q.provision(g, 1, StartStrategy::Horse).unwrap();
            q.invoke(g, StartStrategy::Horse).unwrap().init_ns
        };
        let r = p.invoke(f, StartStrategy::Horse).unwrap();
        // One entry quarantined (destroyed), the survivor served and
        // returned to the pool.
        assert_eq!(p.pool_size(f, StartStrategy::Horse), 1);
        assert!(
            r.init_ns >= clean + RetryPolicy::default().backoff_ns(1),
            "backoff latency is charged: {} vs clean {clean}",
            r.init_ns
        );
        let log = p.injector().log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].site, FaultSite::PoolEntryInvalid);
        assert_eq!(
            log[0].outcome,
            RecoveryOutcome::EntryQuarantined {
                reprovisioned: false,
                retries: 1
            }
        );
        assert_eq!(p.injector().unresolved(), 0);
        assert_eq!(p.recorder().counter_value(Counter::PoolQuarantined), 1);
        assert_eq!(p.recorder().counter_value(Counter::FaultsInjected), 1);
    }

    #[test]
    fn drained_pool_reprovisions_a_fresh_sandbox_mid_recovery() {
        let (p, f) = chaos_platform(FaultSite::PoolEntryInvalid, FaultTrigger::Once(1));
        p.provision(f, 1, StartStrategy::Horse).unwrap();
        let r = p.invoke(f, StartStrategy::Horse).unwrap();
        // The only entry was quarantined; recovery re-provisioned a fresh
        // sandbox and charged its full boot to the invocation.
        assert!(r.init_ns > 1_000_000, "boot dominates: {}", r.init_ns);
        let log = p.injector().log();
        assert_eq!(
            log[0].outcome,
            RecoveryOutcome::EntryQuarantined {
                reprovisioned: true,
                retries: 1
            }
        );
        assert_eq!(p.pool_size(f, StartStrategy::Horse), 1);
    }

    #[test]
    fn quarantine_retries_are_bounded_and_chain_the_cause() {
        // Every pop is invalid: recovery must give up after max_retries.
        let (p, f) = chaos_platform(FaultSite::PoolEntryInvalid, FaultTrigger::Nth(1));
        p.provision(f, 4, StartStrategy::Horse).unwrap();
        let e = p.invoke(f, StartStrategy::Horse).unwrap_err();
        let FaasError::RetriesExhausted {
            attempts,
            ref cause,
            ..
        } = e
        else {
            panic!("expected RetriesExhausted, got {e}");
        };
        assert_eq!(attempts, RetryPolicy::default().max_retries + 1);
        assert!(matches!(**cause, FaasError::NoWarmSandbox { .. }));
        // std::error::Error chaining surfaces the root cause.
        let src = std::error::Error::source(&e).expect("source is chained");
        assert!(src.to_string().contains("no provisioned sandbox"), "{src}");
        assert!(e.to_string().contains("gave up"), "{e}");
        assert_eq!(p.injector().unresolved(), 0);
    }

    #[test]
    fn crash_mid_resume_is_retried_with_the_next_entry() {
        let (p, f) = chaos_platform(FaultSite::CrashMidResume, FaultTrigger::Once(1));
        p.provision(f, 2, StartStrategy::Horse).unwrap();
        let r = p.invoke(f, StartStrategy::Horse).unwrap();
        assert!(r.init_ns > 0);
        // The crashed sandbox is gone; the survivor served and re-pooled.
        assert_eq!(p.pool_size(f, StartStrategy::Horse), 1);
        let log = p.injector().log();
        assert_eq!(
            log[0].outcome,
            RecoveryOutcome::CrashContained { mid_resume: true }
        );
        assert_eq!(p.injector().unresolved(), 0);
    }

    #[test]
    fn crash_during_repause_completes_the_invocation_without_repooling() {
        let mut p = platform();
        let f = p.register("nat", Category::Cat2, ull_cfg(2));
        p.provision(f, 1, StartStrategy::Horse).unwrap();
        // Arm the injector only after provisioning so the fault hits the
        // keep-alive re-pause, not the provisioning pause.
        p.set_injector(FaultInjector::new(
            3,
            FaultPlan::new().with(FaultSite::CrashMidPause, FaultTrigger::Once(1)),
        ));
        let r = p.invoke(f, StartStrategy::Horse);
        assert!(r.is_ok(), "completed work stands: {r:?}");
        assert_eq!(
            p.pool_size(f, StartStrategy::Horse),
            0,
            "the crashed sandbox must not rejoin the pool"
        );
        let log = p.injector().log();
        assert_eq!(
            log[0].outcome,
            RecoveryOutcome::CrashContained { mid_resume: false }
        );
        assert_eq!(p.injector().unresolved(), 0);
    }

    // ---- reliability plane ----------------------------------------------

    #[test]
    fn resume_boundary_catches_a_budget_too_small_for_init() {
        let mut p = platform();
        let f = p.register("nat", Category::Cat2, ull_cfg(2));
        p.provision(f, 1, StartStrategy::Horse).unwrap();
        p.set_recorder(Recorder::enabled());
        // HORSE init is ~200 ns; a 10 ns budget cannot fit it.
        let e = p.serve_one(f, StartStrategy::Horse, Some(10)).unwrap_err();
        let FaasError::DeadlineExceeded {
            budget_ns,
            observed_ns,
            boundary,
            ..
        } = e
        else {
            panic!("expected DeadlineExceeded, got {e}");
        };
        assert_eq!(boundary, DeadlineBoundary::Resume);
        assert_eq!(budget_ns, 10);
        assert!(observed_ns >= 10, "init consumed the budget: {observed_ns}");
        assert_eq!(
            p.pool_size(f, StartStrategy::Horse),
            1,
            "the sandbox is re-pooled — only the request's budget is gone"
        );
        assert_eq!(p.recorder().counter_value(Counter::DeadlineMisses), 1);
        // A generous budget sails through unchanged.
        let r = p
            .serve_one(f, StartStrategy::Horse, Some(1_000_000))
            .unwrap();
        assert!(r.init_ns < 1_000);
    }

    #[test]
    fn pool_take_boundary_stops_recovery_backoffs_from_overrunning() {
        // Every pop is invalid: recovery backoffs accumulate until the
        // pool-take boundary cuts the loop — before retries exhaust.
        let (p, f) = chaos_platform(FaultSite::PoolEntryInvalid, FaultTrigger::Nth(1));
        p.provision(f, 4, StartStrategy::Horse).unwrap();
        // First backoff is 10 µs (base × 2⁰): a 5 µs budget dies at the
        // boundary on the second loop iteration.
        let e = p
            .serve_one(f, StartStrategy::Horse, Some(5_000))
            .unwrap_err();
        let FaasError::DeadlineExceeded { boundary, .. } = e else {
            panic!("expected DeadlineExceeded, got {e}");
        };
        assert_eq!(boundary, DeadlineBoundary::PoolTake);
    }

    #[test]
    fn request_loop_reuses_and_restores_a_callers_context() {
        let mut p = platform();
        let f = p.register("nat", Category::Cat2, ull_cfg(2));
        p.provision(f, 1, StartStrategy::Horse).unwrap();
        let rec = Recorder::enabled();
        p.set_recorder(rec.clone());
        let caller = TraceContext {
            invocation: rec.mint_invocation(),
            parent: Some(EventKind::RouteAttempt),
        };
        rec.set_context(caller);
        let mut out = Vec::new();
        p.invoke_batch(f, StartStrategy::Horse, 2, &mut out)
            .unwrap();
        assert!(out.iter().all(|r| r.invocation == caller.invocation));
        assert_eq!(rec.context(), caller, "restored after success");
        // A failed attempt still records an invoke span under the caller.
        assert!(p.invoke(f, StartStrategy::Warm).is_err());
        assert_eq!(rec.context(), caller, "restored after failure");
        let snapshot = rec.drain();
        let invokes: Vec<_> = snapshot
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::InvokeHorse | EventKind::InvokeWarm))
            .collect();
        assert_eq!(invokes.len(), 3);
        assert!(invokes.iter().all(
            |e| e.invocation == caller.invocation && e.parent == Some(EventKind::RouteAttempt)
        ));
        rec.clear_context();
    }

    #[test]
    fn purge_pools_destroys_inventory_without_touching_take_stats() {
        let mut p = platform();
        let f = p.register("nat", Category::Cat2, ull_cfg(2));
        p.provision(f, 3, StartStrategy::Horse).unwrap();
        p.provision(f, 2, StartStrategy::Warm).unwrap();
        let destroyed_before = p.vmm().stats().destroyed;
        assert_eq!(p.purge_pools(), 5);
        assert_eq!(p.pool_size(f, StartStrategy::Horse), 0);
        assert_eq!(p.pool_size(f, StartStrategy::Warm), 0);
        assert_eq!(p.vmm().stats().destroyed, destroyed_before + 5);
        let stats = p.pool_stats(f, StartStrategy::Horse);
        assert_eq!(stats.hits + stats.misses, 0, "purge is not a take");
        assert_eq!(stats.evictions, 3, "purge shows up as evictions");
        // Policies survive the purge: re-provisioning works as before.
        p.provision(f, 1, StartStrategy::Horse).unwrap();
        assert_eq!(p.pool_size(f, StartStrategy::Horse), 1);
    }

    #[test]
    fn expired_pool_entries_are_destroyed_not_resumed() {
        let mut p = platform();
        let f = p.register("fw", Category::Cat1, ull_cfg(1));
        p.provision(f, 1, StartStrategy::Warm).unwrap();
        // Advance under the default 600 s TTL (no eager sweep fires), then
        // shrink the TTL so the entry is past-deadline with no sweep having
        // run: only `take`'s lazy eviction stands between the invocation
        // and a stale sandbox.
        p.advance_to(SimTime::ZERO + horse_sim::SimDuration::from_secs(120));
        p.set_keep_alive(
            f,
            StartStrategy::Warm,
            KeepAlive::Ttl(horse_sim::SimDuration::from_secs(60)),
        );
        let live_before = p.vmm().stats().destroyed;
        let e = p.invoke(f, StartStrategy::Warm).unwrap_err();
        assert!(matches!(e, FaasError::NoWarmSandbox { .. }), "{e}");
        assert!(
            p.vmm().stats().destroyed > live_before,
            "the expired sandbox was reaped"
        );
    }
}
