//! Seeded deterministic interleaving exploration of the sharded pool.
//!
//! Real concurrent runs exercise whatever interleavings the OS happens
//! to produce; this module explores interleavings *deterministically*.
//! Each virtual worker is a real OS thread (so the pool's per-thread
//! shard pinning behaves exactly as in production), but workers only
//! run when the explorer grants them a step, one operation at a time.
//! Which worker steps next is decided by a seeded [`SchedulePolicy`]:
//!
//! * **round-robin** — the systematic baseline;
//! * **random** — uniform over runnable workers;
//! * **PCT** — priority-based probabilistic concurrency testing
//!   (Burckhardt et al., ASPLOS'10): random thread priorities with `d`
//!   seeded priority-change points, which finds ordering bugs of depth
//!   `d` with provable probability.
//!
//! Operations execute atomically (one completes before the next is
//! granted), so the observed execution order *is* a linearization; the
//! oracle replays it against the relaxed
//! [`SpecPool`](crate::spec::SpecPool) semantics and
//! additionally checks end-of-run conservation. Any violation is
//! reported with the seed, the policy, and the full decision sequence —
//! enough to replay the failing interleaving exactly.

use horse_faas::{KeepAlive, ShardedWarmPool};
use horse_sched::SandboxId;
use horse_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::mpsc;
use std::sync::Arc;

/// One scripted worker operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptOp {
    /// Take a sandbox (held on success).
    Take,
    /// Put back the most recently taken held sandbox, or park a fresh
    /// worker-unique one if none is held.
    Put,
    /// Run an eager eviction sweep.
    Evict,
}

/// How the explorer picks the next worker to step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Cycle through runnable workers in index order.
    RoundRobin,
    /// Uniformly random runnable worker (seeded).
    Random,
    /// PCT with the given bug depth `d` (`d − 1` priority-change
    /// points).
    Pct {
        /// Bug depth (≥ 1).
        depth: usize,
    },
}

impl fmt::Display for SchedulePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulePolicy::RoundRobin => write!(f, "round-robin"),
            SchedulePolicy::Random => write!(f, "random"),
            SchedulePolicy::Pct { depth } => write!(f, "pct(d={depth})"),
        }
    }
}

/// What one granted step did (the explorer's replay log entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEffect {
    /// `take(now)` returned this.
    Took(Option<SandboxId>),
    /// `put(id, now)` parked this id.
    Put(SandboxId),
    /// An eviction sweep removed these many entries (ids recorded
    /// separately in the oracle replay).
    Evicted(usize),
}

/// One executed step.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Worker index granted the step.
    pub thread: usize,
    /// Virtual time the operation ran at.
    pub now: SimTime,
    /// The scripted operation.
    pub op: ScriptOp,
    /// Its observed effect (evictions carry the evicted ids).
    pub effect: StepEffect,
    /// Ids removed by an `Evict` step, sorted.
    pub evicted_ids: Vec<u64>,
}

/// Outcome of one exploration.
#[derive(Debug)]
pub struct Exploration {
    /// Scheduling decisions, in order: the worker index granted each
    /// step. Re-running with the same seed/policy/config replays the
    /// identical interleaving.
    pub decisions: Vec<usize>,
    /// Every executed step, in execution order.
    pub steps: Vec<StepRecord>,
    /// Error description if an oracle rejected the run.
    pub violation: Option<String>,
}

/// Exploration parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Number of virtual workers (OS threads).
    pub threads: usize,
    /// Script length per worker.
    pub ops_per_thread: usize,
    /// Keep-alive TTL in virtual-time steps (1 µs each); `None` for a
    /// provisioned pool.
    pub ttl_steps: Option<u64>,
    /// Entries pre-pooled before workers start.
    pub initial_entries: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            threads: 4,
            ops_per_thread: 12,
            ttl_steps: Some(24),
            initial_entries: 6,
        }
    }
}

/// Step duration in virtual nanoseconds (1 µs per granted step).
const STEP_NS: u64 = 1_000;

fn step_time(step: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_nanos(step * STEP_NS)
}

/// Generates each worker's op script from the seed: a take-heavy mix
/// with occasional puts-of-fresh entries and rare eviction sweeps.
fn generate_scripts(cfg: &ExploreConfig, seed: u64) -> Vec<Vec<ScriptOp>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5c72_1a2e_9d3f_4b60);
    (0..cfg.threads)
        .map(|_| {
            (0..cfg.ops_per_thread)
                .map(|_| match rng.gen_range(0..10u32) {
                    0..=4 => ScriptOp::Take,
                    5..=8 => ScriptOp::Put,
                    _ => ScriptOp::Evict,
                })
                .collect()
        })
        .collect()
}

enum Cmd {
    Step { now: SimTime },
    Stop,
}

struct WorkerReply {
    op: ScriptOp,
    effect: StepEffect,
    evicted_ids: Vec<u64>,
    held: Option<Vec<SandboxId>>, // populated on Stop
}

/// The seeded scheduler over runnable workers. Shared with the splice
/// explorer ([`crate::splice_explore`]), which steps a different system
/// under the same policies.
pub(crate) struct Scheduler {
    policy: SchedulePolicy,
    rng: StdRng,
    rr_next: usize,
    priorities: Vec<u64>,
    change_points: Vec<usize>,
}

impl Scheduler {
    pub(crate) fn new(
        policy: SchedulePolicy,
        seed: u64,
        threads: usize,
        total_steps: usize,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut priorities: Vec<u64> = (0..threads as u64).map(|i| (i + 1) * 1_000).collect();
        // Shuffle initial priorities (Fisher–Yates on the seeded rng).
        for i in (1..priorities.len()).rev() {
            let j = rng.gen_range(0..=i);
            priorities.swap(i, j);
        }
        let change_points = match policy {
            SchedulePolicy::Pct { depth } if depth > 1 && total_steps > 0 => (0..depth - 1)
                .map(|_| rng.gen_range(0..total_steps))
                .collect(),
            _ => Vec::new(),
        };
        Self {
            policy,
            rng,
            rr_next: 0,
            priorities,
            change_points,
        }
    }

    /// Picks the next worker among `runnable` (non-empty) for step
    /// index `step`.
    pub(crate) fn pick(&mut self, runnable: &[usize], step: usize) -> usize {
        debug_assert!(!runnable.is_empty());
        match self.policy {
            SchedulePolicy::RoundRobin => {
                // Next runnable at or after the cursor, cyclically.
                let chosen = *runnable
                    .iter()
                    .find(|&&t| t >= self.rr_next)
                    .unwrap_or(&runnable[0]);
                self.rr_next = chosen + 1;
                chosen
            }
            SchedulePolicy::Random => runnable[self.rng.gen_range(0..runnable.len())],
            SchedulePolicy::Pct { .. } => {
                if self.change_points.contains(&step) {
                    // Demote the currently highest-priority runnable
                    // worker below everyone.
                    if let Some(&hi) = runnable.iter().max_by_key(|&&t| self.priorities[t]) {
                        let min = *self.priorities.iter().min().unwrap_or(&0);
                        self.priorities[hi] = min.saturating_sub(1);
                    }
                }
                *runnable
                    .iter()
                    .max_by_key(|&&t| self.priorities[t])
                    .expect("runnable is non-empty")
            }
        }
    }
}

/// Runs one seeded exploration of a [`ShardedWarmPool`] and validates
/// it against the sequential spec. The returned [`Exploration`] carries
/// the full decision sequence; `violation` is `None` on success.
pub fn explore(cfg: &ExploreConfig, policy: SchedulePolicy, seed: u64) -> Exploration {
    let keep_alive = match cfg.ttl_steps {
        Some(steps) => KeepAlive::Ttl(SimDuration::from_nanos(steps * STEP_NS)),
        None => KeepAlive::Provisioned,
    };
    let pool = Arc::new(ShardedWarmPool::new(keep_alive));
    let mut all_ids: Vec<u64> = Vec::new();
    for i in 0..cfg.initial_entries {
        let id = 900_000_000 + i;
        pool.put(SandboxId::new(id), step_time(0));
        all_ids.push(id);
    }

    let scripts = generate_scripts(cfg, seed);
    let total_steps: usize = scripts.iter().map(Vec::len).sum();
    let mut sched = Scheduler::new(policy, seed, cfg.threads, total_steps);

    // Spawn the workers, each behind a command channel.
    let mut cmd_txs = Vec::with_capacity(cfg.threads);
    let mut reply_rxs = Vec::with_capacity(cfg.threads);
    let mut handles = Vec::with_capacity(cfg.threads);
    for (widx, script) in scripts.iter().cloned().enumerate() {
        let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
        let (reply_tx, reply_rx) = mpsc::channel::<WorkerReply>();
        let pool = Arc::clone(&pool);
        handles.push(std::thread::spawn(move || {
            let mut held: Vec<SandboxId> = Vec::new();
            let mut fresh = 0u64;
            let mut next_op = 0usize;
            while let Ok(cmd) = cmd_rx.recv() {
                match cmd {
                    Cmd::Stop => {
                        let _ = reply_tx.send(WorkerReply {
                            op: ScriptOp::Take,
                            effect: StepEffect::Evicted(0),
                            evicted_ids: Vec::new(),
                            held: Some(held),
                        });
                        return;
                    }
                    Cmd::Step { now } => {
                        let op = script[next_op];
                        next_op += 1;
                        let (effect, evicted_ids) = match op {
                            ScriptOp::Take => {
                                let got = pool.take(now);
                                if let Some(id) = got {
                                    held.push(id);
                                }
                                (StepEffect::Took(got), Vec::new())
                            }
                            ScriptOp::Put => {
                                let id = held.pop().unwrap_or_else(|| {
                                    fresh += 1;
                                    SandboxId::new((widx as u64 + 1) * 1_000_000 + fresh)
                                });
                                pool.put(id, now);
                                (StepEffect::Put(id), Vec::new())
                            }
                            ScriptOp::Evict => {
                                let mut buf = Vec::new();
                                pool.evict_expired_into(now, &mut buf);
                                let mut ids: Vec<u64> = buf.iter().map(|id| id.as_u64()).collect();
                                ids.sort_unstable();
                                (StepEffect::Evicted(ids.len()), ids)
                            }
                        };
                        let _ = reply_tx.send(WorkerReply {
                            op,
                            effect,
                            evicted_ids,
                            held: None,
                        });
                    }
                }
            }
        }));
        cmd_txs.push(cmd_tx);
        reply_rxs.push(reply_rx);
    }

    // Grant steps per the schedule, one at a time.
    let mut remaining: Vec<usize> = scripts.iter().map(Vec::len).collect();
    let mut decisions = Vec::with_capacity(total_steps);
    let mut steps: Vec<StepRecord> = Vec::with_capacity(total_steps);
    for step in 0..total_steps {
        let runnable: Vec<usize> = (0..cfg.threads).filter(|&t| remaining[t] > 0).collect();
        let chosen = sched.pick(&runnable, step);
        remaining[chosen] -= 1;
        decisions.push(chosen);
        let now = step_time(step as u64 + 1);
        cmd_txs[chosen]
            .send(Cmd::Step { now })
            .expect("worker alive");
        let reply = reply_rxs[chosen].recv().expect("worker replied");
        steps.push(StepRecord {
            thread: chosen,
            now,
            op: reply.op,
            effect: reply.effect,
            evicted_ids: reply.evicted_ids,
        });
    }

    // Collect held ids and join.
    let mut held_at_end: Vec<u64> = Vec::new();
    for t in 0..cfg.threads {
        cmd_txs[t].send(Cmd::Stop).expect("worker alive");
        let reply = reply_rxs[t].recv().expect("stop ack");
        held_at_end.extend(
            reply
                .held
                .expect("stop reply carries held")
                .iter()
                .map(|id| id.as_u64()),
        );
    }
    for h in handles {
        h.join().expect("worker thread panicked");
    }

    let violation = validate(
        &pool,
        keep_alive,
        &steps,
        &mut all_ids,
        &held_at_end,
        total_steps,
    );
    Exploration {
        decisions,
        steps,
        violation,
    }
}

/// Replays the execution order against the relaxed spec and checks
/// conservation. Returns a description of the first violation.
///
/// Because `take` evicts expired entries *lazily* (an entry it passes
/// over on the way to a hit is doomed, so a later sweep legitimately
/// misses it), the oracle tracks expired entries in a *limbo* set —
/// "expired; either still pooled or already doomed" — instead of
/// predicting the exact sweep contents:
///
/// * a take may only return a **live** (pooled, non-expired) entry;
/// * a take may only miss when **no live entry exists**;
/// * a sweep may only evict **limbo** entries (never a live one);
/// * at the end, every id ever pooled is accounted for exactly once
///   (held ∪ drained ∪ doomed ∪ swept).
fn validate(
    pool: &ShardedWarmPool,
    keep_alive: KeepAlive,
    steps: &[StepRecord],
    all_ids: &mut Vec<u64>,
    held_at_end: &[u64],
    total_steps: usize,
) -> Option<String> {
    let expired = |since: SimTime, now: SimTime| crate::spec::spec_expired(keep_alive, since, now);
    // id -> parked-at for live entries; limbo holds expired ids.
    let mut live: Vec<(u64, SimTime)> = all_ids.iter().map(|&id| (id, step_time(0))).collect();
    let mut limbo: Vec<u64> = Vec::new();
    for (i, rec) in steps.iter().enumerate() {
        // Monotonic time: demote newly expired entries to limbo.
        let now = rec.now;
        let mut still_live = Vec::with_capacity(live.len());
        for (id, since) in live.drain(..) {
            if expired(since, now) {
                limbo.push(id);
            } else {
                still_live.push((id, since));
            }
        }
        live = still_live;
        match (rec.op, &rec.effect) {
            (ScriptOp::Take, StepEffect::Took(Some(id))) => {
                let raw = id.as_u64();
                match live.iter().position(|&(e, _)| e == raw) {
                    Some(pos) => {
                        live.remove(pos);
                    }
                    None => {
                        return Some(format!(
                            "step {i} (thread {t}): take returned id {raw} which is not \
                             pooled-and-live at now={now}ns",
                            t = rec.thread,
                            now = now.as_nanos(),
                        ));
                    }
                }
            }
            (ScriptOp::Take, StepEffect::Took(None)) => {
                if !live.is_empty() {
                    return Some(format!(
                        "step {i} (thread {t}): take missed while live entries {live:?} were \
                         pooled at now={now}ns (lost sandbox)",
                        t = rec.thread,
                        now = now.as_nanos(),
                    ));
                }
            }
            (ScriptOp::Put, StepEffect::Put(id)) => {
                live.push((id.as_u64(), now));
                if !all_ids.contains(&id.as_u64()) {
                    all_ids.push(id.as_u64());
                }
            }
            (ScriptOp::Evict, StepEffect::Evicted(_)) => {
                for &evicted in &rec.evicted_ids {
                    match limbo.iter().position(|&e| e == evicted) {
                        Some(pos) => {
                            limbo.swap_remove(pos);
                        }
                        None => {
                            return Some(format!(
                                "step {i} (thread {t}): eviction sweep removed id {evicted} \
                                 which was not an expired pooled entry at now={now}ns",
                                t = rec.thread,
                                now = now.as_nanos(),
                            ));
                        }
                    }
                }
            }
            (op, effect) => {
                return Some(format!("step {i}: inconsistent record {op:?} / {effect:?}"));
            }
        }
    }

    // Conservation: initial + fresh = held + pooled + doomed.
    let end_now = step_time(total_steps as u64 + 1);
    let mut accounted: Vec<u64> = held_at_end.to_vec();
    // Evict-sweep results were already removed from the pool; drain the
    // remainder (takes may lazily doom expired entries).
    while let Some(id) = pool.take(end_now) {
        accounted.push(id.as_u64());
    }
    accounted.extend(pool.drain_doomed().iter().map(|id| id.as_u64()));
    // Ids evicted by sweeps are gone for good — count them from the log.
    for rec in steps {
        accounted.extend(rec.evicted_ids.iter().copied());
    }
    let mut expected = all_ids.clone();
    expected.sort_unstable();
    accounted.sort_unstable();
    if accounted != expected {
        return Some(format!(
            "conservation violated: expected ids {expected:?}, accounted {accounted:?}"
        ));
    }
    if !pool.is_empty() {
        return Some(format!("pool reports len {} after full drain", pool.len()));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_policies_pass_on_the_real_pool() {
        let cfg = ExploreConfig::default();
        for policy in [
            SchedulePolicy::RoundRobin,
            SchedulePolicy::Random,
            SchedulePolicy::Pct { depth: 3 },
        ] {
            for seed in [1u64, 42, 1337] {
                let r = explore(&cfg, policy, seed);
                assert!(
                    r.violation.is_none(),
                    "policy {policy} seed {seed}: {:?}\ndecisions: {:?}",
                    r.violation,
                    r.decisions
                );
                assert_eq!(r.decisions.len(), cfg.threads * cfg.ops_per_thread);
            }
        }
    }

    #[test]
    fn same_seed_same_decisions() {
        let cfg = ExploreConfig::default();
        for policy in [
            SchedulePolicy::RoundRobin,
            SchedulePolicy::Random,
            SchedulePolicy::Pct { depth: 4 },
        ] {
            let a = explore(&cfg, policy, 7);
            let b = explore(&cfg, policy, 7);
            assert_eq!(a.decisions, b.decisions, "policy {policy} must replay");
        }
    }

    #[test]
    fn different_seeds_differ_for_random_policies() {
        let cfg = ExploreConfig::default();
        let a = explore(&cfg, SchedulePolicy::Random, 1);
        let b = explore(&cfg, SchedulePolicy::Random, 2);
        assert_ne!(a.decisions, b.decisions, "seeds must steer the schedule");
    }

    #[test]
    fn provisioned_exploration_never_evicts() {
        let cfg = ExploreConfig {
            ttl_steps: None,
            ..ExploreConfig::default()
        };
        let r = explore(&cfg, SchedulePolicy::Random, 99);
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(r.steps.iter().all(|s| s.evicted_ids.is_empty()));
    }
}
