//! Correctness checks every run makes; any breach fails the run.

use crate::drive::Tally;
use horse_faas::{Cluster, FunctionId, HostId, StartStrategy};
use horse_reliability::StatsSnapshot;
use horse_vmm::ResumeMode;

/// Breaches found so far, one line each.
#[derive(Debug, Default)]
pub struct Checks {
    pub breaches: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.breaches.push(what());
        }
    }

    pub fn passed(&self) -> bool {
        self.breaches.is_empty()
    }
}

/// The driver's own disposition tally must equal the reliability
/// plane's, and the plane's books must balance.
pub fn ledger(driver: &Tally, plane: &StatsSnapshot) -> Result<(), String> {
    let pairs = [
        ("submissions", driver.submitted, plane.submissions),
        ("completions", driver.completed, plane.completions),
        ("sheds", driver.shed, plane.sheds),
        (
            "deadline misses",
            driver.deadline_missed,
            plane.deadline_misses,
        ),
        ("failures", driver.failed, plane.failures),
        ("hedges", driver.hedged, plane.hedges_launched),
    ];
    for (what, mine, theirs) in pairs {
        if mine != theirs {
            return Err(format!(
                "ledger: driver counted {mine} {what}, plane {theirs}"
            ));
        }
    }
    let settled = plane.completions + plane.sheds + plane.deadline_misses + plane.failures;
    if plane.submissions != settled {
        return Err(format!(
            "ledger: {} submissions but {settled} completions + sheds + deadline misses + failures",
            plane.submissions
        ));
    }
    Ok(())
}

/// Pool and VMM accounting of a fleet after a pass, given everything
/// the driver saw complete (warm-up included).
pub fn fleet_accounting(
    checks: &mut Checks,
    cluster: &Cluster,
    ids: &[FunctionId],
    fleet: &crate::workload::Fleet,
    served: &Tally,
) {
    let mut pooled = 0usize;
    let (mut hits, mut evictions) = (0u64, 0u64);
    let mut hits_by_mode = [0u64; 2];
    for (spec, &id) in fleet.functions.iter().zip(ids) {
        let stats = cluster.aggregate_pool_stats(id, spec.strategy);
        hits += stats.hits;
        evictions += stats.evictions;
        hits_by_mode[usize::from(spec.strategy != StartStrategy::Horse)] += stats.hits;
        for h in 0..fleet.hosts {
            pooled += cluster.host(HostId(h)).pool_size(id, spec.strategy);
        }
    }
    let provisioned = fleet.provisioned_per_host() * fleet.hosts;
    checks.require(pooled == provisioned, || {
        format!("pools: {pooled} sandboxes pooled at the end, {provisioned} provisioned")
    });
    // Every completion took one pooled sandbox; a hedge took one more.
    let expected_hits = served.completed + served.hedged;
    checks.require(hits == expected_hits, || {
        format!("pools: {hits} hits for {expected_hits} completions + hedges")
    });
    checks.require(evictions == 0, || format!("pools: {evictions} evictions"));
    // A HORSE resume that fell back to the vanilla merge shows up as a
    // vanilla resume no Warm invoke accounts for.
    let mut resumes = [0u64; 2];
    for h in 0..fleet.hosts {
        let stats = cluster.host(HostId(h)).vmm().stats();
        for (i, mode) in ResumeMode::ALL.iter().enumerate() {
            match mode {
                ResumeMode::Horse => resumes[0] += stats.resumes_by_mode[i],
                ResumeMode::Vanilla => resumes[1] += stats.resumes_by_mode[i],
                _ => {}
            }
        }
    }
    checks.require(resumes == hits_by_mode, || {
        format!(
            "vmm: {} horse + {} vanilla resumes for {} horse + {} warm pool hits (plan fallbacks)",
            resumes[0], resumes[1], hits_by_mode[0], hits_by_mode[1]
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced() -> (Tally, StatsSnapshot) {
        let tally = Tally {
            submitted: 100,
            completed: 97,
            shed: 2,
            deadline_missed: 1,
            failed: 0,
            hedged: 3,
        };
        let plane = StatsSnapshot {
            submissions: 100,
            completions: 97,
            sheds: 2,
            deadline_misses: 1,
            failures: 0,
            retries: 0,
            hedges_launched: 3,
            hedge_wins: 1,
            deadline_met: 97,
        };
        (tally, plane)
    }

    #[test]
    fn a_balanced_ledger_passes() {
        let (tally, plane) = balanced();
        assert_eq!(ledger(&tally, &plane), Ok(()));
    }

    #[test]
    fn a_doctored_tally_trips_the_ledger() {
        let (mut tally, plane) = balanced();
        tally.completed += 1;
        tally.shed -= 1;
        let err = ledger(&tally, &plane).unwrap_err();
        assert!(err.contains("completions"), "{err}");
    }

    #[test]
    fn unbalanced_books_trip_the_ledger() {
        let (mut tally, mut plane) = balanced();
        plane.submissions += 1;
        tally.submitted += 1;
        let err = ledger(&tally, &plane).unwrap_err();
        assert!(err.contains("101 submissions"), "{err}");
    }
}
