//! Allocation attribution: a counting `#[global_allocator]` wrapper
//! plus scoped phase guards.
//!
//! ROADMAP item 3 (the zero-allocation batched invoke path) needs a
//! *map* before it needs a fix: which pipeline phase allocates, how
//! often, and how many bytes. This module provides it without touching
//! the virtual time axis:
//!
//! - [`CountingAlloc`] wraps [`std::alloc::System`]; a binary installs
//!   it with `#[global_allocator]`. When the profiling plane is off
//!   ([`profiling::is_enabled`](crate::profiling::is_enabled)) every
//!   hook is one `Relaxed` load plus the forwarded system call.
//! - [`AllocScope`] attributes the allocations of a lexical region to
//!   an [`AllocPhase`] (invoke, pool take, pause, plan precompute,
//!   resume/splice, coalesce) via a thread-local phase cell; scopes
//!   nest and restore the previous phase on drop.
//! - Counts land in a fixed per-phase table of `AtomicU64` — like
//!   [`counters`](crate::counters), a snapshot never pauses writers —
//!   and in per-thread totals readable by the owning thread.
//!
//! Allocation *counts* for a deterministic workload are themselves
//! deterministic (collection growth depends only on the operation
//! sequence), which is what lets `bin/profile_report` gate
//! `allocs_per_warm_invoke` and `allocs_per_horse_invoke` at ±10%
//! against a committed baseline.
//!
//! The hooks themselves never allocate: they touch `Cell`s and atomics
//! only, and use `try_with` so allocations during thread-local teardown
//! fall back to the [`AllocPhase::Untracked`] bucket instead of
//! panicking.

// `unsafe` is confined to the `GlobalAlloc` impl, which forwards every
// pointer operation verbatim to `System` — the wrapper adds counting,
// never changes layout or aliasing.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Pipeline phases allocations are attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum AllocPhase {
    /// No scope active (runtime, test harness, setup).
    Untracked = 0,
    /// The platform invoke path (routing, registry, record assembly).
    Invoke = 1,
    /// Warm-pool take (and the doomed-entry reap that rides on it).
    PoolTake = 2,
    /// Pause: dequeue + state save (keep-alive re-pause included).
    Pause = 3,
    /// HORSE pause-time plan precomputation (merge-list build + 𝒫²𝒮ℳ).
    PlanPrecompute = 4,
    /// Resume steps ①–⑥ including the splice merge.
    ResumeSplice = 5,
    /// Coalesced-load precompute and apply.
    Coalesce = 6,
}

impl AllocPhase {
    /// Every phase, in discriminant order.
    pub const ALL: [AllocPhase; 7] = [
        AllocPhase::Untracked,
        AllocPhase::Invoke,
        AllocPhase::PoolTake,
        AllocPhase::Pause,
        AllocPhase::PlanPrecompute,
        AllocPhase::ResumeSplice,
        AllocPhase::Coalesce,
    ];

    /// Export name.
    pub fn name(self) -> &'static str {
        match self {
            AllocPhase::Untracked => "untracked",
            AllocPhase::Invoke => "invoke",
            AllocPhase::PoolTake => "pool_take",
            AllocPhase::Pause => "pause",
            AllocPhase::PlanPrecompute => "plan_precompute",
            AllocPhase::ResumeSplice => "resume_splice",
            AllocPhase::Coalesce => "coalesce",
        }
    }
}

const PHASES: usize = AllocPhase::ALL.len();

/// One phase's slots in the global table.
#[derive(Debug)]
struct PhaseCounters {
    allocs: AtomicU64,
    deallocs: AtomicU64,
    bytes_allocated: AtomicU64,
    bytes_freed: AtomicU64,
    recycles: AtomicU64,
}

impl PhaseCounters {
    const fn new() -> Self {
        Self {
            allocs: AtomicU64::new(0),
            deallocs: AtomicU64::new(0),
            bytes_allocated: AtomicU64::new(0),
            bytes_freed: AtomicU64::new(0),
            recycles: AtomicU64::new(0),
        }
    }
}

static TABLE: [PhaseCounters; PHASES] = [
    PhaseCounters::new(),
    PhaseCounters::new(),
    PhaseCounters::new(),
    PhaseCounters::new(),
    PhaseCounters::new(),
    PhaseCounters::new(),
    PhaseCounters::new(),
];

thread_local! {
    /// The calling thread's current phase (an `AllocPhase` discriminant).
    static CURRENT_PHASE: Cell<u8> = const { Cell::new(AllocPhase::Untracked as u8) };
    /// Per-thread totals (all phases), readable via [`thread_totals`].
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_DEALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn current_phase_index() -> usize {
    // During thread teardown the TLS slot may already be destroyed;
    // attribute those allocations to Untracked rather than panicking
    // inside the allocator.
    CURRENT_PHASE
        .try_with(Cell::get)
        .unwrap_or(AllocPhase::Untracked as u8) as usize
}

#[inline]
fn note_alloc(bytes: usize) {
    let t = &TABLE[current_phase_index()];
    t.allocs.fetch_add(1, Ordering::Relaxed);
    t.bytes_allocated.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

#[inline]
fn note_dealloc(bytes: usize) {
    let t = &TABLE[current_phase_index()];
    t.deallocs.fetch_add(1, Ordering::Relaxed);
    t.bytes_freed.fetch_add(bytes as u64, Ordering::Relaxed);
    let _ = THREAD_DEALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Notes that the current phase satisfied a would-be allocation from a
/// recycled buffer (object pool, slab arena free list, `Vec` capacity
/// reuse) instead of the heap.
///
/// The allocator hooks only fire on real `malloc`/`free` traffic, so a
/// recycled buffer never inflates `allocs` — this counter is the
/// *positive* signal that the zero-allocation steady state is actually
/// recycling rather than simply idle. `bin/profile_report` exports it
/// next to `allocs` per phase, and the warm-invoke gate checks
/// `allocs == 0 && recycles > 0` for a pooled steady state.
#[inline]
pub fn note_buffer_recycled() {
    if !crate::profiling::is_enabled() {
        return;
    }
    TABLE[current_phase_index()]
        .recycles
        .fetch_add(1, Ordering::Relaxed);
}

/// A counting wrapper over the system allocator. Install it in a
/// binary's root:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: horse_telemetry::alloc::CountingAlloc =
///     horse_telemetry::alloc::CountingAlloc;
/// ```
///
/// Counting is active only while the profiling plane is enabled; a
/// `realloc` is counted as one allocation of the new size plus one
/// deallocation of the old size.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && crate::profiling::is_enabled() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if crate::profiling::is_enabled() {
            note_dealloc(layout.size());
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && crate::profiling::is_enabled() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && crate::profiling::is_enabled() {
            note_dealloc(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

/// Sentinel marking a scope created while profiling was disabled (its
/// drop is then a no-op).
const INACTIVE: u8 = u8::MAX;

/// RAII guard attributing the allocations of a lexical region to a
/// phase. Nests: the previous phase is restored on drop. Creating a
/// scope while the plane is disabled costs one `Relaxed` load.
#[derive(Debug)]
pub struct AllocScope {
    prev: u8,
}

impl AllocScope {
    /// Enters `phase` for the current thread until the guard drops.
    #[must_use = "the phase is attributed only while the guard lives"]
    #[inline]
    pub fn enter(phase: AllocPhase) -> Self {
        if !crate::profiling::is_enabled() {
            return Self { prev: INACTIVE };
        }
        let prev = CURRENT_PHASE
            .try_with(|c| {
                let prev = c.get();
                c.set(phase as u8);
                prev
            })
            .unwrap_or(INACTIVE);
        Self { prev }
    }
}

impl Drop for AllocScope {
    #[inline]
    fn drop(&mut self) {
        if self.prev != INACTIVE {
            let _ = CURRENT_PHASE.try_with(|c| c.set(self.prev));
        }
    }
}

/// One phase's totals in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseAllocStats {
    /// The phase.
    pub phase: AllocPhase,
    /// Allocations attributed to the phase.
    pub allocs: u64,
    /// Deallocations attributed to the phase.
    pub deallocs: u64,
    /// Bytes allocated.
    pub bytes_allocated: u64,
    /// Bytes freed.
    pub bytes_freed: u64,
    /// Would-be allocations served from recycled buffers instead of the
    /// heap (see [`note_buffer_recycled`]).
    pub recycles: u64,
}

/// Snapshots every phase's counters (writers are never paused; the
/// snapshot is a consistent-enough racy read, like the counter
/// registry's).
pub fn snapshot() -> Vec<PhaseAllocStats> {
    AllocPhase::ALL
        .iter()
        .map(|&phase| {
            let t = &TABLE[phase as usize];
            PhaseAllocStats {
                phase,
                allocs: t.allocs.load(Ordering::Relaxed),
                deallocs: t.deallocs.load(Ordering::Relaxed),
                bytes_allocated: t.bytes_allocated.load(Ordering::Relaxed),
                bytes_freed: t.bytes_freed.load(Ordering::Relaxed),
                recycles: t.recycles.load(Ordering::Relaxed),
            }
        })
        .collect()
}

/// Total allocations across every phase, read without allocating —
/// safe to call *inside* a measured window (a [`snapshot`] call builds
/// a `Vec` and would count itself).
pub fn total_allocs() -> u64 {
    TABLE.iter().map(|t| t.allocs.load(Ordering::Relaxed)).sum()
}

/// Zeroes the global phase table.
pub fn reset() {
    for t in &TABLE {
        t.allocs.store(0, Ordering::Relaxed);
        t.deallocs.store(0, Ordering::Relaxed);
        t.bytes_allocated.store(0, Ordering::Relaxed);
        t.bytes_freed.store(0, Ordering::Relaxed);
        t.recycles.store(0, Ordering::Relaxed);
    }
}

/// The calling thread's lifetime totals as
/// `(allocs, deallocs, bytes_allocated)` — counted only while the plane
/// was enabled.
pub fn thread_totals() -> (u64, u64, u64) {
    (
        THREAD_ALLOCS.with(Cell::get),
        THREAD_DEALLOCS.with(Cell::get),
        THREAD_BYTES.with(Cell::get),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiling;
    use crate::profiling::test_gate;

    // The unit-test binary routes its allocations through the wrapper
    // so the counting path is exercised for real.
    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    fn phase_stats(phase: AllocPhase) -> PhaseAllocStats {
        snapshot()
            .into_iter()
            .find(|s| s.phase == phase)
            .expect("phase present")
    }

    #[test]
    fn discriminants_match_all_order_and_names_unique() {
        for (i, p) in AllocPhase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
        }
        let mut names: Vec<_> = AllocPhase::ALL.iter().map(|p| p.name()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn scoped_allocations_attribute_to_their_phase() {
        let _gate = test_gate();
        let _on = profiling::ProfilingScope::enter();
        let before = phase_stats(AllocPhase::PlanPrecompute);
        {
            let _scope = AllocScope::enter(AllocPhase::PlanPrecompute);
            let v: Vec<u64> = Vec::with_capacity(64);
            std::hint::black_box(&v);
        }
        let after = phase_stats(AllocPhase::PlanPrecompute);
        assert!(after.allocs > before.allocs, "alloc was counted");
        assert!(
            after.bytes_allocated >= before.bytes_allocated + 64 * 8,
            "bytes were counted"
        );
        assert!(after.deallocs > before.deallocs, "drop was counted");
    }

    #[test]
    fn scopes_nest_and_restore() {
        let _gate = test_gate();
        let _on = profiling::ProfilingScope::enter();
        let outer_before = phase_stats(AllocPhase::Pause);
        let inner_before = phase_stats(AllocPhase::Coalesce);
        {
            let _outer = AllocScope::enter(AllocPhase::Pause);
            {
                let _inner = AllocScope::enter(AllocPhase::Coalesce);
                std::hint::black_box(vec![1u8; 32]);
            }
            std::hint::black_box(vec![1u8; 32]);
        }
        let outer_after = phase_stats(AllocPhase::Pause);
        let inner_after = phase_stats(AllocPhase::Coalesce);
        assert!(inner_after.allocs > inner_before.allocs);
        assert!(outer_after.allocs > outer_before.allocs);
    }

    #[test]
    fn disabled_plane_counts_nothing() {
        let _gate = test_gate();
        profiling::set_enabled(false);
        let before = phase_stats(AllocPhase::Invoke);
        {
            let _scope = AllocScope::enter(AllocPhase::Invoke);
            std::hint::black_box(vec![0u8; 128]);
        }
        let after = phase_stats(AllocPhase::Invoke);
        assert_eq!(before, after, "disabled plane attributes nothing");
    }

    #[test]
    fn thread_totals_grow_while_enabled() {
        let _gate = test_gate();
        let _on = profiling::ProfilingScope::enter();
        let (a0, _, b0) = thread_totals();
        std::hint::black_box(vec![0u8; 256]);
        let (a1, _, b1) = thread_totals();
        assert!(a1 > a0);
        assert!(b1 >= b0 + 256);
    }

    #[test]
    fn reset_zeroes_the_table() {
        let _gate = test_gate();
        let _on = profiling::ProfilingScope::enter();
        {
            let _scope = AllocScope::enter(AllocPhase::ResumeSplice);
            std::hint::black_box(vec![0u8; 16]);
        }
        profiling::set_enabled(false);
        reset();
        for s in snapshot() {
            assert_eq!(
                (
                    s.allocs,
                    s.deallocs,
                    s.bytes_allocated,
                    s.bytes_freed,
                    s.recycles
                ),
                (0, 0, 0, 0, 0)
            );
        }
    }

    #[test]
    fn recycles_attribute_to_phase_without_counting_as_allocs() {
        let _gate = test_gate();
        let _on = profiling::ProfilingScope::enter();
        let before = phase_stats(AllocPhase::Pause);
        {
            let _scope = AllocScope::enter(AllocPhase::Pause);
            // A recycled buffer re-serves existing capacity: no malloc.
            note_buffer_recycled();
            note_buffer_recycled();
        }
        let after = phase_stats(AllocPhase::Pause);
        assert_eq!(after.recycles, before.recycles + 2);
        assert_eq!(
            after.allocs, before.allocs,
            "a recycle must not count as a fresh allocation"
        );
    }

    #[test]
    fn disabled_plane_counts_no_recycles() {
        let _gate = test_gate();
        profiling::set_enabled(false);
        let before = phase_stats(AllocPhase::Pause);
        note_buffer_recycled();
        let after = phase_stats(AllocPhase::Pause);
        assert_eq!(before, after);
    }
}
