//! `check_suite` — the model-based correctness harness runner.
//!
//! Runs every checker in the crate against the real HORSE
//! implementations and exits non-zero on any violation. Fully seeded:
//! the same `--seed` replays the same randomized cases, schedules and
//! concurrent histories, and every failure report names the seed and
//! section needed to reproduce it.
//!
//! `--mutate <name>` plants one known bug ([`horse_check::Mutation`])
//! into the system under test; the run must then FAIL (non-zero exit).
//! CI asserts this for every mutation — the harness's negative control.

use horse_check::{
    check_linearizable_bounded, coalesce_oracle_case, explore, explore_splice, merge_oracle_case,
    run_pool_trajectory, vmm_differential_case, Event, ExploreConfig, History, LinearizeError,
    Mutation, PoolOp, PoolResult, SchedulePolicy, SpliceExploreConfig, TickSource,
};
use horse_faas::{KeepAlive, ShardedWarmPool};
use horse_sched::SandboxId;
use horse_sim::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const USAGE: &str = "check_suite — model-based correctness harness for HORSE

USAGE:
    check_suite [--seed N] [--cases N] [--mutate NAME]

OPTIONS:
    --seed N       Master seed (default 42). Every randomized case,
                   schedule and history derives deterministically from
                   it; re-running with the same seed replays the exact
                   run a failure report came from.
    --cases N      Cases per randomized section (default 64).
    --mutate NAME  Plant a known bug; the run must fail. Names:
                   splice-misorder, stale-plan, coalesce-off-by-one,
                   nonlinearizable-pool, splice-worker-misorder.
    --help         Show this help.";

struct Suite {
    seed: u64,
    failures: Vec<String>,
}

impl Suite {
    fn fail(&mut self, section: &str, detail: String) {
        let n = self.failures.len() + 1;
        println!("FAIL [{section}] {detail}");
        println!("  replay: check_suite --seed {}", self.seed);
        self.failures.push(format!("#{n} [{section}]"));
    }

    fn section<F: FnMut(&mut Suite)>(&mut self, name: &str, mut f: F) {
        let before = self.failures.len();
        f(self);
        let new = self.failures.len() - before;
        if new == 0 {
            println!("ok   [{name}]");
        } else {
            println!("FAIL [{name}] {new} violation(s)");
        }
    }
}

/// Records one free-running concurrent history of the sharded pool:
/// real threads, no schedule control — whatever interleaving the OS
/// produces is checked for linearizability afterwards.
fn record_concurrent_history(seed: u64, round: u64) -> History {
    let keep_alive = if round % 2 == 0 {
        KeepAlive::Provisioned
    } else {
        KeepAlive::Ttl(SimDuration::from_nanos(50_000))
    };
    let pool = Arc::new(ShardedWarmPool::new(keep_alive));
    let ticks = Arc::new(TickSource::new());
    let mut initial = Vec::new();
    for i in 0..4u64 {
        let id = SandboxId::new(500_000 + i);
        pool.put(id, SimTime::ZERO);
        initial.push((id, SimTime::ZERO));
    }

    let threads = 4usize;
    let ops_per_thread = 8usize;
    let mut handles = Vec::new();
    for t in 0..threads {
        let pool = Arc::clone(&pool);
        let ticks = Arc::clone(&ticks);
        handles.push(std::thread::spawn(move || {
            let mut rng =
                StdRng::seed_from_u64(seed ^ round.wrapping_mul(0x51f2_77e4) ^ ((t as u64) << 40));
            let mut held: Vec<SandboxId> = Vec::new();
            let mut fresh = 0u64;
            let mut events = Vec::new();
            for _ in 0..ops_per_thread {
                let put_back = !held.is_empty() && rng.gen::<bool>();
                let call = ticks.next();
                let now = ticks.now();
                if put_back {
                    let id = held.pop().expect("held is non-empty");
                    pool.put(id, now);
                    let ret = ticks.next();
                    events.push(Event {
                        thread: t,
                        call,
                        ret,
                        op: PoolOp::Put { id, now },
                        result: PoolResult::Putted,
                    });
                } else if rng.gen_range(0..4u32) == 0 {
                    // Park a fresh sandbox.
                    fresh += 1;
                    let id = SandboxId::new((t as u64 + 1) * 100_000 + fresh);
                    pool.put(id, now);
                    let ret = ticks.next();
                    events.push(Event {
                        thread: t,
                        call,
                        ret,
                        op: PoolOp::Put { id, now },
                        result: PoolResult::Putted,
                    });
                } else {
                    let got = pool.take(now);
                    let ret = ticks.next();
                    if let Some(id) = got {
                        held.push(id);
                    }
                    events.push(Event {
                        thread: t,
                        call,
                        ret,
                        op: PoolOp::Take { now },
                        result: got.map(PoolResult::Took).unwrap_or(PoolResult::Missed),
                    });
                }
            }
            events
        }));
    }
    let mut history = History::new(keep_alive, initial);
    for h in handles {
        history
            .events
            .extend(h.join().expect("history worker panicked"));
    }
    history
}

/// Corrupts a recorded history into a double handout: a second take of
/// an id that was handed out and never returned (appended after every
/// real event, so no legal order can supply it).
fn plant_nonlinearizable(history: &mut History) {
    let max_ret = history.events.iter().map(|e| e.ret).max().unwrap_or(0);
    let taken_never_reput = history.events.iter().find_map(|e| match e.result {
        PoolResult::Took(id)
            if !history
                .events
                .iter()
                .any(|p| matches!(p.op, PoolOp::Put { id: pid, .. } if pid == id)) =>
        {
            Some(id)
        }
        _ => None,
    });
    // Fallback (every taken id was re-put): a take returning an id the
    // pool never saw — just as impossible.
    let id = taken_never_reput.unwrap_or_else(|| SandboxId::new(777_777_777));
    let now = SimTime::ZERO + SimDuration::from_nanos((max_ret + 1) * 1_000);
    history.events.push(Event {
        thread: 0,
        call: max_ret + 1,
        ret: max_ret + 2,
        op: PoolOp::Take { now },
        result: PoolResult::Took(id),
    });
}

fn main() {
    let mut seed = 42u64;
    let mut cases = 64u64;
    let mut mutation: Option<Mutation> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--cases" => {
                cases = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--cases needs an integer"));
            }
            "--mutate" => {
                let name = args.next().unwrap_or_else(|| die("--mutate needs a name"));
                mutation = Some(Mutation::from_name(&name).unwrap_or_else(|| {
                    die(&format!(
                        "unknown mutation '{name}' (have: {})",
                        Mutation::ALL.map(|m| m.name()).join(", ")
                    ))
                }));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown argument '{other}'\n\n{USAGE}")),
        }
    }

    println!(
        "check_suite: seed={seed} cases={cases} mutation={}",
        mutation.map_or("none".to_string(), |m| m.to_string())
    );

    let mut suite = Suite {
        seed,
        failures: Vec::new(),
    };

    // 1. Differential merge oracle: 𝒫²𝒮ℳ vs merge_walk vs spec queue.
    suite.section("merge-oracle", |s| {
        let planted =
            mutation.filter(|m| matches!(m, Mutation::SpliceMisorder | Mutation::StaleMergePlan));
        for case in 0..cases {
            if let Err(e) = merge_oracle_case(s.seed, case, planted) {
                s.fail("merge-oracle", format!("case {case}: {e}"));
                break;
            }
        }
    });

    // 2. Coalescing oracle: closed form vs sequential load updates.
    suite.section("coalesce-oracle", |s| {
        let planted = mutation.filter(|m| matches!(m, Mutation::CoalesceOffByOne));
        for case in 0..cases * 2 {
            if let Err(e) = coalesce_oracle_case(s.seed, case, planted) {
                s.fail("coalesce-oracle", format!("case {case}: {e}"));
                break;
            }
        }
    });

    // 3. Pool trajectory equivalence: SpecPool vs WarmPool vs
    //    ShardedWarmPool on identical single-threaded op sequences.
    suite.section("pool-trajectory", |s| {
        for case in 0..cases / 4 {
            if let Err(e) = run_pool_trajectory(s.seed, case, 300) {
                s.fail("pool-trajectory", format!("case {case}: {e}"));
                break;
            }
        }
    });

    // 4. Deterministic interleaving exploration of the sharded pool.
    suite.section("explore", |s| {
        let cfg = ExploreConfig::default();
        for policy in [
            SchedulePolicy::RoundRobin,
            SchedulePolicy::Random,
            SchedulePolicy::Pct { depth: 3 },
        ] {
            for i in 0..3u64 {
                let esee = s.seed.wrapping_add(i);
                let r = explore(&cfg, policy, esee);
                if let Some(v) = r.violation {
                    s.fail(
                        "explore",
                        format!(
                            "policy {policy} seed {esee}: {v}\n  schedule decisions: {:?}",
                            r.decisions
                        ),
                    );
                }
            }
        }
    });

    // 4b. Deterministic interleaving exploration of the real 𝒫²𝒮ℳ
    //    splice workers: one splice per granted step, merged queue
    //    compared against the sequential merge-walk oracle (multiset AND
    //    FIFO order). `--mutate splice-worker-misorder` plants a worker
    //    that links its anchor to the sub-list tail.
    suite.section("splice-explore", |s| {
        let cfg = SpliceExploreConfig {
            plant_misorder: mutation == Some(Mutation::SpliceWorkerMisorder),
            ..SpliceExploreConfig::default()
        };
        for policy in [
            SchedulePolicy::RoundRobin,
            SchedulePolicy::Random,
            SchedulePolicy::Pct { depth: 3 },
        ] {
            for i in 0..3u64 {
                let esee = s.seed.wrapping_add(i);
                let r = explore_splice(&cfg, policy, esee);
                if let Some(v) = r.violation {
                    s.fail(
                        "splice-explore",
                        format!(
                            "policy {policy} seed {esee}: {v}\n  schedule decisions: {:?}",
                            r.decisions
                        ),
                    );
                }
            }
        }
    });

    // 5. Linearizability of free-running concurrent histories.
    suite.section("linearize", |s| {
        for round in 0..4u64 {
            let mut history = record_concurrent_history(s.seed, round);
            if round == 0 && mutation == Some(Mutation::NonLinearizablePool) {
                plant_nonlinearizable(&mut history);
            }
            match check_linearizable_bounded(&history, 2_000_000) {
                Ok(_) => {}
                Err(e @ LinearizeError::NotLinearizable { .. }) => {
                    s.fail("linearize", format!("round {round}: {e}"));
                }
                Err(LinearizeError::Inconclusive { visited }) => {
                    // Not a verdict: report loudly but don't fail CI on a
                    // search-budget artifact.
                    println!("warn [linearize] round {round}: inconclusive after {visited} states");
                }
                Err(e) => s.fail("linearize", format!("round {round}: {e}")),
            }
        }
    });

    // 6. Whole-pipeline VMM differential: HORSE vs vanilla resume.
    suite.section("vmm-differential", |s| {
        for case in 0..cases / 8 {
            if let Err(e) = vmm_differential_case(s.seed, case) {
                s.fail("vmm-differential", format!("case {case}: {e}"));
                break;
            }
        }
    });

    println!();
    if suite.failures.is_empty() {
        if let Some(m) = mutation {
            println!("check_suite: ERROR — planted mutation '{m}' was NOT caught by any checker");
            println!("(a harness that can't fail its negative control proves nothing)");
            // Exit 0: CI's `if check_suite --mutate X; then exit 1; fi`
            // turns this into the job failure.
            return;
        }
        println!("check_suite: all sections passed (seed {seed})");
        return;
    }
    if let Some(m) = mutation {
        println!(
            "check_suite: planted mutation '{m}' caught — {} failure(s), exiting non-zero \
             as the negative self-test expects",
            suite.failures.len()
        );
    } else {
        println!(
            "check_suite: {} failure(s): {}",
            suite.failures.len(),
            suite.failures.join(", ")
        );
    }
    std::process::exit(1);
}

fn die(msg: &str) -> ! {
    eprintln!("check_suite: {msg}");
    std::process::exit(2);
}
