//! Real-thread worker pool for the resume-time 𝒫²𝒮ℳ splice.
//!
//! The paper's Algorithm 1 executes the splice on pre-existing,
//! highest-priority kernel workers; this pool is the userspace analogue
//! the VMM owns across resumes. A staged merge ([`MergePlan::stage`])
//! partitions the splice-point map into disjoint per-worker blocks; the
//! pool dispatches one scoped thread per configured worker, each of which
//! executes its block — two atomic pointer writes per splice, **no lock
//! on the merge itself** — and wakes the merged vCPUs (emulated; see
//! [`Vmm::set_wake_emulation_nanos`]).
//!
//! Two properties are load-bearing:
//!
//! * **The default pool is inline.** A pool with one worker executes the
//!   staged blocks on the calling thread without spawning — the warm
//!   invoke path keeps its zero-allocation, no-syscall profile and the
//!   throughput floor holds. Parallel dispatch is opt-in per VMM
//!   ([`SplicePool::parallel`]), used by the benches and tests that
//!   measure real concurrency.
//! * **Dispatch cost is independent of the splice count.** A parallel
//!   pool always dispatches exactly `workers` threads, even when some
//!   blocks are empty, so a 1-splice resume and a 144-splice resume pay
//!   the same fixed dispatch overhead — the wall-clock analogue of the
//!   paper's O(1) claim, which `bench_suite --wall-clock-resume` gates.
//!
//! Virtual-axis accounting never touches this module: the cost model
//! charges `horse_merge_ns(splices, parallel)` from the *plan's* splice
//! count, and the merge report / arena counters are produced by the same
//! `MergePlan` methods in every execution strategy, so enabling the pool
//! cannot move a single `*_ns` leaf.
//!
//! [`MergePlan::stage`]: horse_core::MergePlan::stage
//! [`Vmm::set_wake_emulation_nanos`]: crate::Vmm::set_wake_emulation_nanos

use horse_core::{Arena, SpliceBlock, StagedMerge};
use horse_sched::SpliceWatchdog;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Default wall-clock straggler budget: 5 ms. Generous — real splice
/// workers finish in microseconds; the budget exists to flag runners
/// whose threads get descheduled for milliseconds, not to race healthy
/// workers. Observational only (see [`SpliceWatchdog::supervise_wall`]).
pub const DEFAULT_WALL_BUDGET_NANOS: u64 = 5_000_000;

/// Explicit per-worker scratch slot.
///
/// Every worker owns exactly one slot for the duration of a dispatch —
/// slot `w` belongs to worker `w`, never shared, never recycled across
/// concurrently-running workers (the fix for the one-merge-at-a-time
/// assumption the shared scratch buffers used to bake in). The slot
/// outlives the dispatch so the pool can read the measurements after the
/// join without an allocation.
#[derive(Debug, Default)]
struct WorkerSlot {
    /// Wall-clock nanoseconds the worker spent on its block (written by
    /// the owning worker, read by the pool after the join).
    elapsed_nanos: AtomicU64,
}

/// Cumulative counters of a [`SplicePool`] — the pool's observability
/// surface (mirrors the style of [`crate::VmmStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplicePoolStats {
    /// Staged merges the pool executed (inline or parallel).
    pub merges: u64,
    /// Merges that dispatched real worker threads.
    pub parallel_merges: u64,
    /// Worker threads dispatched, cumulative.
    pub dispatched_workers: u64,
    /// Workers whose wall-clock duration overran the watchdog's wall
    /// budget (observational; see [`SpliceWatchdog::supervise_wall`]).
    pub wall_overruns: u64,
}

/// Outcome of one staged-merge execution on the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpliceRun {
    /// Worker threads dispatched (0 = executed inline on the caller).
    pub dispatched_workers: usize,
    /// Workers that overran the wall budget (always 0 inline).
    pub wall_overruns: usize,
}

/// Reusable worker pool executing staged 𝒫²𝒮ℳ merges (see the module
/// docs). The pool object persists across resumes on its owning [`Vmm`]:
/// worker slots and measurement scratch are allocated once at
/// construction, so a steady-state resume loop performs no pool-side
/// heap allocation in either mode.
///
/// [`Vmm`]: crate::Vmm
#[derive(Debug)]
pub struct SplicePool {
    /// Configured parallel width (1 = inline).
    workers: usize,
    /// Force inline execution regardless of `workers` (the
    /// `--serial-splice` self-test lever).
    serial: bool,
    /// One explicit scratch slot per worker (see [`WorkerSlot`]).
    slots: Vec<WorkerSlot>,
    /// Join-time measurement buffer, reused across dispatches.
    elapsed_scratch: Vec<u64>,
    /// Wall budget fed to [`SpliceWatchdog::supervise_wall`].
    wall_budget_nanos: u64,
    stats: SplicePoolStats,
}

impl Default for SplicePool {
    fn default() -> Self {
        Self::inline()
    }
}

impl SplicePool {
    /// The default pool: staged blocks execute on the calling thread, no
    /// threads are spawned. This is what every [`Vmm`] starts with.
    ///
    /// [`Vmm`]: crate::Vmm
    pub fn inline() -> Self {
        Self {
            workers: 1,
            serial: false,
            slots: Vec::new(),
            elapsed_scratch: Vec::new(),
            wall_budget_nanos: DEFAULT_WALL_BUDGET_NANOS,
            stats: SplicePoolStats::default(),
        }
    }

    /// A pool that dispatches exactly `workers` real threads per merge
    /// (clamped to at least 1; 1 behaves like [`Self::inline`]).
    pub fn parallel(workers: usize) -> Self {
        let workers = workers.max(1);
        Self {
            workers,
            serial: false,
            slots: (0..workers).map(|_| WorkerSlot::default()).collect(),
            elapsed_scratch: Vec::with_capacity(workers),
            wall_budget_nanos: DEFAULT_WALL_BUDGET_NANOS,
            stats: SplicePoolStats::default(),
        }
    }

    /// Forces every merge onto the calling thread while keeping the
    /// configured width for reporting — the `--serial-splice` must-fail
    /// self-test: a serialized pool must make the sub-linear wall-clock
    /// gate trip.
    pub fn set_serial(&mut self, serial: bool) {
        self.serial = serial;
    }

    /// Replaces the wall-clock straggler budget
    /// (default [`DEFAULT_WALL_BUDGET_NANOS`]).
    pub fn set_wall_budget_nanos(&mut self, nanos: u64) {
        self.wall_budget_nanos = nanos;
    }

    /// Configured parallel width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether the pool currently executes inline (width 1 or serialized).
    pub fn is_inline(&self) -> bool {
        self.serial || self.workers <= 1
    }

    /// Cumulative counters.
    pub fn stats(&self) -> SplicePoolStats {
        self.stats
    }

    /// Executes a staged merge's node-splice blocks, then emulates the
    /// head-splice wakes on the calling thread. The caller must still run
    /// `finish_staged` afterwards (via the scheduler's
    /// `ull_finish_staged`) — the pool only does the partitionable half.
    ///
    /// `wake_nanos_per_vcpu` > 0 makes every worker sleep that long per
    /// merged vCPU of each splice it executes (the wake-IPI emulation the
    /// wall-clock bench measures); 0 — the default — skips the sleeps
    /// entirely, so nothing changes for virtual-axis callers.
    pub fn run<T: Sync>(
        &mut self,
        arena: &Arena<T>,
        staged: &StagedMerge<'_>,
        watchdog: &SpliceWatchdog,
        wake_nanos_per_vcpu: u64,
    ) -> SpliceRun {
        self.stats.merges += 1;
        let run = if self.is_inline() {
            let block = staged.block(0, 1);
            block.execute(arena);
            wake_block(&block, wake_nanos_per_vcpu);
            SpliceRun {
                dispatched_workers: 0,
                wall_overruns: 0,
            }
        } else {
            // Always dispatch the full width — empty blocks included —
            // so the dispatch cost is a constant of the pool, not of the
            // splice count (the wall-clock O(1) property under test).
            let workers = self.workers;
            let slots = &self.slots[..workers];
            std::thread::scope(|scope| {
                for (w, slot) in slots.iter().enumerate() {
                    let block = staged.block(w, workers);
                    scope.spawn(move || {
                        let t0 = Instant::now();
                        block.execute(arena);
                        wake_block(&block, wake_nanos_per_vcpu);
                        slot.elapsed_nanos
                            .store(t0.elapsed().as_nanos() as u64, Ordering::Release);
                    });
                }
            });
            self.stats.parallel_merges += 1;
            self.stats.dispatched_workers += workers as u64;
            self.elapsed_scratch.clear();
            self.elapsed_scratch.extend(
                slots
                    .iter()
                    .map(|s| s.elapsed_nanos.load(Ordering::Acquire)),
            );
            let rescue = watchdog.supervise_wall(&self.elapsed_scratch, self.wall_budget_nanos);
            self.stats.wall_overruns += rescue.rescued_splices as u64;
            SpliceRun {
                dispatched_workers: workers,
                wall_overruns: rescue.rescued_splices,
            }
        };
        // Head-splice wakes belong to the calling thread: the head splice
        // itself runs in `finish_staged`, on this thread.
        if wake_nanos_per_vcpu > 0 && staged.head_len() > 0 {
            std::thread::sleep(Duration::from_nanos(
                wake_nanos_per_vcpu * staged.head_len() as u64,
            ));
        }
        run
    }
}

/// Emulated wake IPIs for one executed block: one sleep per splice,
/// scaled by the sub-list's vCPU count (serial per worker — exactly the
/// work a kernel splice worker does when it wakes its merged vCPUs).
fn wake_block(block: &SpliceBlock<'_>, wake_nanos_per_vcpu: u64) {
    if wake_nanos_per_vcpu == 0 {
        return;
    }
    for i in 0..block.len() {
        std::thread::sleep(Duration::from_nanos(
            wake_nanos_per_vcpu * block.sub_len(i) as u64,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horse_core::{ArenaStats, MergePlan, SortedList};

    fn build(arena: &mut Arena<i64>, keys: &[i64]) -> SortedList {
        let mut l = SortedList::new();
        for &k in keys {
            l.insert_sorted(arena, k, k);
        }
        l
    }

    fn merge_with(pool: &mut SplicePool) -> Vec<i64> {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &[10, 30, 50, 70]);
        let a = build(&mut arena, &[5, 20, 40, 60, 80]);
        let plan = MergePlan::precompute(&arena, &b, a);
        {
            let staged = plan.stage(&b).unwrap();
            pool.run(&arena, &staged, &SpliceWatchdog::default(), 0);
        }
        let (report, _) = plan.finish_staged(&arena, &mut b);
        assert_eq!(report.merged, 5);
        b.check_invariants(&arena).unwrap();
        b.keys(&arena)
    }

    #[test]
    fn inline_and_parallel_produce_identical_lists() {
        let expected = vec![5, 10, 20, 30, 40, 50, 60, 70, 80];
        let mut inline = SplicePool::inline();
        assert_eq!(merge_with(&mut inline), expected);
        assert_eq!(inline.stats().dispatched_workers, 0, "inline never spawns");
        for workers in [2, 4, 16] {
            let mut pool = SplicePool::parallel(workers);
            assert_eq!(merge_with(&mut pool), expected, "workers={workers}");
            assert_eq!(pool.stats().dispatched_workers, workers as u64);
            assert_eq!(pool.stats().parallel_merges, 1);
        }
    }

    #[test]
    fn arena_counts_are_exact_on_every_pool_width() {
        // Workers splice from real threads; the cost model still needs
        // the exact totals: 4 node splices × 2 writes + 1 head-splice
        // write, no comparisons, allocs or frees.
        let expected = ArenaStats {
            comparisons: 0,
            pointer_writes: 9,
            allocs: 0,
            frees: 0,
        };
        for mut pool in [SplicePool::inline(), SplicePool::parallel(4)] {
            let mut arena = Arena::new();
            let mut b = build(&mut arena, &[10, 30, 50, 70]);
            let a = build(&mut arena, &[5, 20, 40, 60, 80]);
            let plan = MergePlan::precompute(&arena, &b, a);
            arena.take_stats();
            {
                let staged = plan.stage(&b).unwrap();
                pool.run(&arena, &staged, &SpliceWatchdog::default(), 0);
            }
            plan.finish_staged(&arena, &mut b);
            assert_eq!(arena.take_stats(), expected, "workers={}", pool.workers());
        }
    }

    #[test]
    fn dispatch_width_is_constant_even_with_empty_blocks() {
        // 2 node splices, 8 workers: 6 blocks are empty, all 8 dispatch.
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &[10, 30]);
        let a = build(&mut arena, &[20, 40]);
        let plan = MergePlan::precompute(&arena, &b, a);
        let mut pool = SplicePool::parallel(8);
        {
            let staged = plan.stage(&b).unwrap();
            let run = pool.run(&arena, &staged, &SpliceWatchdog::default(), 0);
            assert_eq!(run.dispatched_workers, 8);
        }
        plan.finish_staged(&arena, &mut b);
        assert_eq!(b.keys(&arena), vec![10, 20, 30, 40]);
    }

    #[test]
    fn serialized_pool_runs_inline() {
        let mut pool = SplicePool::parallel(8);
        pool.set_serial(true);
        assert!(pool.is_inline());
        assert_eq!(
            merge_with(&mut pool),
            vec![5, 10, 20, 30, 40, 50, 60, 70, 80]
        );
        assert_eq!(pool.stats().dispatched_workers, 0);
        assert_eq!(pool.stats().merges, 1);
    }

    #[test]
    fn wall_overruns_flagged_under_tiny_budget() {
        let mut pool = SplicePool::parallel(4);
        pool.set_wall_budget_nanos(0); // every worker "overruns" a 0 budget
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &[10, 30, 50, 70, 90]);
        let a = build(&mut arena, &[20, 40, 60, 80]);
        let plan = MergePlan::precompute(&arena, &b, a);
        {
            let staged = plan.stage(&b).unwrap();
            let run = pool.run(&arena, &staged, &SpliceWatchdog::default(), 0);
            assert_eq!(run.wall_overruns, 4);
        }
        plan.finish_staged(&arena, &mut b);
        assert_eq!(pool.stats().wall_overruns, 4);
    }
}
