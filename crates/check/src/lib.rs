//! `horse-check` — model-based correctness harness for HORSE.
//!
//! Performance work is only trustworthy on top of demonstrated
//! equivalence: HORSE promises to change *when* scheduler work happens,
//! never *what* the scheduler computes. This crate checks that promise
//! mechanically, from three angles:
//!
//! * [`spec`] — deliberately naive sequential reference models
//!   ([`spec::SpecPool`], [`spec::SpecRunQueue`], [`spec::SpecLoad`])
//!   that define what "correct" means;
//! * [`linearize`] — a bounded Wing–Gong linearizability checker that
//!   validates recorded concurrent histories of the sharded warm pool
//!   ([`history`]) against the spec, while [`explore`] generates those
//!   histories under seeded deterministic schedules (round-robin,
//!   random, PCT) that replay exactly from a seed;
//! * [`differential`] — randomized differential oracles driving the
//!   HORSE fast paths (𝒫²𝒮ℳ splice merge, coalesced load updates,
//!   `ResumeMode::Horse`) and the vanilla paths through identical
//!   scenarios, demanding identical observables;
//! * [`reliability_oracle`] — an external-vs-internal ledger oracle for
//!   the cluster reliability plane: the dispositions handed back to the
//!   caller must balance the plane's own conservation books line by
//!   line, so hedged or retried invocations can never double-apply.
//!
//! * [`splice_explore`] — the same seeded schedules driving real
//!   𝒫²𝒮ℳ splice-worker threads one splice at a time, with the merged
//!   queue compared against the sequential merge-walk oracle in both
//!   multiset and FIFO order;
//!
//! The harness distrusts itself too: [`mutate`] defines five known bugs
//! (`check_suite --mutate <name>`) that are planted into the system
//! under test, and CI asserts each one is caught — a checker that can't
//! fail its own negative control proves nothing.
//!
//! Every failure report carries the seed (and, for concurrent runs, the
//! recorded schedule or history) needed to replay it deterministically;
//! `tests/README.md` documents the replay workflow.

#![warn(missing_docs)]

pub mod differential;
pub mod explore;
pub mod history;
pub mod linearize;
pub mod mutate;
pub mod reliability_oracle;
pub mod spec;
pub mod splice_explore;

pub use differential::{
    coalesce_oracle_case, merge_oracle_case, run_pool_trajectory, vmm_differential_case,
};
pub use explore::{explore, Exploration, ExploreConfig, SchedulePolicy};
pub use history::{Event, History, PoolOp, PoolResult, TickSource};
pub use linearize::{
    check_linearizable, check_linearizable_bounded, Linearization, LinearizeError,
};
pub use mutate::Mutation;
pub use reliability_oracle::{
    check_ledgers, run_reliability_scenario, DispositionTally, OracleReport, ReliabilityScenario,
};
pub use spec::{spec_expired, SpecLoad, SpecPool, SpecRunQueue};
pub use splice_explore::{
    explore_splice, SpliceExploration, SpliceExploreConfig, SpliceStepRecord,
};
