//! Golden operation counts of the arena cost model.
//!
//! The VMM turns `ArenaStats` (comparisons, pointer writes, allocs,
//! frees) into virtual nanoseconds, so every count must stay exact at
//! every `take_stats` boundary — however the arena publishes them
//! internally. This test runs a fixed script through every counted path
//! of `SortedList` and `MergePlan` and compares the counters read after
//! each step against a table recorded from the reference implementation
//! (one atomic add per counted element). A change to how counts are
//! accumulated must leave this table untouched.

use horse_core::{Arena, ArenaStats, MergePlan, PlanBuffers, SortedList, SpliceMode};

/// `(step, comparisons, pointer_writes, allocs, frees)` after each step.
const GOLDEN: &[(&str, u64, u64, u64, u64)] = &[
    ("insert_empty", 0, 2, 1, 0),
    ("insert_head", 1, 2, 1, 0),
    ("insert_tail", 2, 3, 1, 0),
    ("insert_middle", 2, 2, 1, 0),
    ("insert_equal_key", 3, 2, 1, 0),
    ("unlink_middle", 0, 2, 0, 0),
    ("link_sorted_middle", 3, 2, 0, 0),
    ("unlink_head", 0, 2, 0, 0),
    ("link_sorted_head", 1, 2, 0, 0),
    ("unlink_tail", 0, 2, 0, 0),
    ("link_sorted_tail", 4, 3, 0, 0),
    ("unlink_absent", 0, 0, 1, 1),
    ("remove", 0, 2, 0, 1),
    ("unlink_front", 0, 1, 0, 0),
    ("free", 0, 0, 0, 1),
    ("pop_front", 0, 1, 0, 1),
    ("walk_build", 25, 31, 11, 0),
    ("merge_walk", 8, 11, 0, 0),
    ("drain_all", 0, 13, 0, 13),
    ("seq_build", 49, 43, 15, 0),
    ("merge_sequential", 0, 9, 0, 0),
    ("drain", 0, 15, 0, 15),
    ("par_build", 49, 43, 15, 0),
    ("merge_parallel", 0, 9, 0, 0),
    ("drain", 0, 15, 0, 15),
    ("chunked_build", 49, 43, 15, 0),
    ("merge_parallel_chunked", 0, 9, 0, 0),
    ("drain", 0, 15, 0, 15),
    ("inline_build", 73, 52, 18, 0),
    ("staged_inline", 0, 17, 0, 0),
    ("drain", 0, 18, 0, 18),
    ("workers_build", 73, 52, 18, 0),
    ("staged_4_workers", 0, 17, 0, 0),
    ("drain", 0, 18, 0, 18),
    ("maint_build", 21, 28, 10, 0),
    ("precompute", 0, 0, 0, 0),
    ("insert_a_sublist_tail", 0, 2, 1, 0),
    ("insert_a_sublist_head", 0, 1, 1, 0),
    ("insert_a_new_splice", 0, 0, 1, 0),
    ("remove_a_interior", 0, 1, 0, 1),
    ("on_b_pop_front_concatenates", 0, 2, 0, 1),
    ("push_back_insert", 3, 3, 1, 0),
    ("on_b_push_back_splits", 0, 0, 0, 0),
    ("into_list_recycling", 0, 7, 0, 0),
    ("remerge", 0, 7, 0, 0),
    ("final_drain", 0, 12, 0, 12),
];

struct Script {
    arena: Arena<i64>,
    log: Vec<(&'static str, ArenaStats)>,
}

impl Script {
    fn new() -> Self {
        Self {
            arena: Arena::new(),
            log: Vec::new(),
        }
    }

    /// Closes a step: reads and resets the counters.
    fn step(&mut self, name: &'static str) {
        let stats = self.arena.take_stats();
        self.log.push((name, stats));
    }

    fn build(&mut self, keys: &[i64]) -> SortedList {
        let mut l = SortedList::new();
        for &k in keys {
            l.insert_sorted(&mut self.arena, k, k);
        }
        l
    }
}

/// Runs a full precompute → merge cycle in `mode` on fresh lists.
fn merge_in_mode(
    s: &mut Script,
    name_build: &'static str,
    name_merge: &'static str,
    mode: SpliceMode,
) {
    let mut b = s.build(&[10, 20, 30, 40, 50, 60, 70, 80]);
    let a = s.build(&[5, 15, 25, 26, 55, 85, 90]);
    s.step(name_build);
    let plan = MergePlan::precompute_in(&s.arena, &b, a, PlanBuffers::with_capacity(8, 8));
    let (report, _) = plan.merge_recycling(&s.arena, &mut b, mode).unwrap();
    assert_eq!(report.merged, 7);
    b.check_invariants(&s.arena).unwrap();
    s.step(name_merge);
    b.drain_all(&mut s.arena);
    s.step("drain");
}

/// Stages a merge and runs its node-splice blocks on `workers` scoped
/// threads (1 = inline on the calling thread), then finishes it — the
/// protocol the VMM's splice pool runs.
fn staged_merge(
    s: &mut Script,
    name_build: &'static str,
    name_merge: &'static str,
    workers: usize,
) {
    let mut b = s.build(&[10, 20, 30, 40, 50, 60, 70, 80]);
    let a = s.build(&[1, 12, 22, 32, 42, 52, 62, 72, 82, 83]);
    s.step(name_build);
    let plan = MergePlan::precompute(&s.arena, &b, a);
    {
        let staged = plan.stage(&b).unwrap();
        let arena = &s.arena;
        if workers == 1 {
            staged.block(0, 1).execute(arena);
        } else {
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let block = staged.block(w, workers);
                    scope.spawn(move || block.execute(arena));
                }
            });
        }
    }
    let (report, _) = plan.finish_staged(&s.arena, &mut b);
    assert_eq!(report.merged, 10);
    b.check_invariants(&s.arena).unwrap();
    s.step(name_merge);
    b.drain_all(&mut s.arena);
    s.step("drain");
}

fn run_script() -> Vec<(&'static str, ArenaStats)> {
    let mut s = Script::new();

    // Sorted inserts at every position.
    let mut l = SortedList::new();
    l.insert_sorted(&mut s.arena, 50, 50);
    s.step("insert_empty");
    l.insert_sorted(&mut s.arena, 10, 10);
    s.step("insert_head");
    l.insert_sorted(&mut s.arena, 90, 90);
    s.step("insert_tail");
    l.insert_sorted(&mut s.arena, 30, 30);
    s.step("insert_middle");
    l.insert_sorted(&mut s.arena, 30, 31);
    s.step("insert_equal_key");
    l.check_invariants(&s.arena).unwrap();

    // Unlinks at head, middle and tail, a miss, and a re-link.
    let nodes: Vec<_> = l.iter(&s.arena).map(|(n, _, _)| n).collect();
    assert!(l.unlink(&s.arena, nodes[2]));
    s.step("unlink_middle");
    l.link_sorted(&s.arena, nodes[2]);
    s.step("link_sorted_middle");
    assert!(l.unlink(&s.arena, nodes[0]));
    s.step("unlink_head");
    l.link_sorted(&s.arena, nodes[0]);
    s.step("link_sorted_head");
    assert!(l.unlink(&s.arena, nodes[4]));
    s.step("unlink_tail");
    l.link_sorted(&s.arena, nodes[4]);
    s.step("link_sorted_tail");
    let stray = s.arena.alloc(7, 7);
    assert!(!l.unlink(&s.arena, stray));
    s.arena.free(stray);
    s.step("unlink_absent");
    assert_eq!(l.remove(&mut s.arena, nodes[3]), Some((50, 50)));
    s.step("remove");
    let front = l.unlink_front(&s.arena).unwrap();
    s.step("unlink_front");
    s.arena.free(front);
    s.step("free");
    assert_eq!(l.pop_front(&mut s.arena), Some((30, 30)));
    s.step("pop_front");
    l.check_invariants(&s.arena).unwrap();

    // Two-pointer merge walk, then drain.
    let mut x = s.build(&[1, 4, 6, 9, 12]);
    let y = s.build(&[2, 3, 7, 13, 14, 15]);
    s.step("walk_build");
    x.merge_walk(&s.arena, y);
    x.check_invariants(&s.arena).unwrap();
    s.step("merge_walk");
    x.drain_all(&mut s.arena);
    l.drain_all(&mut s.arena);
    s.step("drain_all");

    // Precompute + merge in each splice mode.
    merge_in_mode(
        &mut s,
        "seq_build",
        "merge_sequential",
        SpliceMode::Sequential,
    );
    merge_in_mode(&mut s, "par_build", "merge_parallel", SpliceMode::Parallel);
    merge_in_mode(
        &mut s,
        "chunked_build",
        "merge_parallel_chunked",
        SpliceMode::ParallelChunked { threads: 3 },
    );

    // Staged merges: inline and four workers.
    staged_merge(&mut s, "inline_build", "staged_inline", 1);
    staged_merge(&mut s, "workers_build", "staged_4_workers", 4);

    // Plan maintenance: insert_a / remove_a, B pops and pushes, teardown.
    let mut b = s.build(&[10, 20, 30, 40]);
    let a = s.build(&[5, 15, 16, 45, 46, 47]);
    s.step("maint_build");
    let mut plan = MergePlan::precompute(&s.arena, &b, a);
    s.step("precompute");
    plan.insert_a(&mut s.arena, 17, 17);
    s.step("insert_a_sublist_tail");
    plan.insert_a(&mut s.arena, 14, 14);
    s.step("insert_a_sublist_head");
    plan.insert_a(&mut s.arena, 25, 25);
    s.step("insert_a_new_splice");
    assert_eq!(plan.remove_a(&mut s.arena, 16), Some(16));
    s.step("remove_a_interior");
    b.pop_front(&mut s.arena);
    plan.on_b_pop_front(&s.arena, &b);
    s.step("on_b_pop_front_concatenates");
    plan.check_consistent(&s.arena, &b).unwrap();
    b.insert_sorted(&mut s.arena, 46, 46);
    let tail = b.tail().unwrap();
    s.step("push_back_insert");
    plan.on_b_push_back(&s.arena, &b, tail);
    s.step("on_b_push_back_splits");
    plan.check_consistent(&s.arena, &b).unwrap();
    let (a, bufs) = plan.into_list_recycling(&s.arena);
    a.check_invariants(&s.arena).unwrap();
    assert_eq!(a.keys(&s.arena), vec![5, 14, 15, 17, 25, 45, 46, 47]);
    s.step("into_list_recycling");
    let plan = MergePlan::precompute_in(&s.arena, &b, a, bufs);
    plan.merge(&s.arena, &mut b, SpliceMode::Sequential)
        .unwrap();
    b.check_invariants(&s.arena).unwrap();
    s.step("remerge");
    b.drain_all(&mut s.arena);
    s.step("final_drain");
    assert!(s.arena.is_empty());

    s.log
}

#[test]
fn arena_counts_match_the_golden_script() {
    let log = run_script();
    let actual: Vec<(&str, u64, u64, u64, u64)> = log
        .iter()
        .map(|(name, st)| {
            (
                *name,
                st.comparisons,
                st.pointer_writes,
                st.allocs,
                st.frees,
            )
        })
        .collect();
    if actual != GOLDEN {
        let table: String = actual
            .iter()
            .map(|(n, c, w, a, f)| format!("    (\"{n}\", {c}, {w}, {a}, {f}),\n"))
            .collect();
        panic!("arena counts diverged from the golden table; this run counted:\n{table}");
    }
}

#[test]
fn golden_script_is_deterministic_across_runs() {
    // The 4-worker step splices from real threads: totals must not
    // depend on the interleaving.
    let first = run_script();
    for _ in 0..8 {
        assert_eq!(run_script(), first);
    }
}
