//! Slab arena backing the intrusive linked lists.
//!
//! Kernel run queues are intrusive linked lists whose nodes are embedded in
//! the scheduled entities. In safe Rust we model this with an arena: nodes
//! live in a slab, and "pointers" are typed [`NodeRef`] indices. The `next`
//! pointer of every node is an atomic so the 𝒫²𝒮ℳ merge threads can splice
//! disjoint positions concurrently *without any unsafe code and without
//! mutual exclusion*, exactly as the paper's Algorithm 1 requires.
//!
//! The arena also counts the operations performed on it (key comparisons,
//! next-pointer writes, allocations) — the deterministic cost model of
//! `horse-vmm` converts these counts into virtual nanoseconds.
//!
//! Counting rule: **an operation publishes its counts once.** A list or
//! plan operation tallies the comparisons and pointer writes of its
//! element loop in locals and adds them to the shared counters with one
//! [`Arena::add_counts`] before it returns; `alloc`/`free` hold `&mut
//! self` and bump plain integers. The totals read at every
//! [`Arena::take_stats`] boundary are exactly those of one atomic add per
//! element, without a lock-prefixed add in every loop iteration.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Sentinel encoding of "null" inside the atomic next pointers.
const NIL: u32 = u32::MAX;

/// A typed index identifying a node inside an [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef(u32);

impl NodeRef {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// One slab slot: the node payload plus its intrusive next pointer.
#[derive(Debug)]
struct Slot<T> {
    /// `None` while the slot is on the free list.
    node: Option<(i64, T)>,
    /// Next node in whatever list this node belongs to (`NIL` = none).
    next: AtomicU32,
}

/// Counters of the primitive operations performed on the arena.
///
/// These are the quantities the paper's resume-cost breakdown is made of:
/// sorted-insert comparisons (step ④ vanilla), pointer writes (step ④
/// 𝒫²𝒮ℳ), and allocations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Sort-key comparisons performed by list scans.
    pub comparisons: u64,
    /// Writes to intrusive `next` pointers (including head/tail updates).
    pub pointer_writes: u64,
    /// Node allocations.
    pub allocs: u64,
    /// Node deallocations.
    pub frees: u64,
}

/// A slab arena of list nodes carrying an `i64` sort key and a payload `T`.
///
/// # Example
///
/// ```
/// use horse_core::Arena;
///
/// let mut arena: Arena<&str> = Arena::new();
/// let n = arena.alloc(10, "vcpu0");
/// assert_eq!(arena.key(n), 10);
/// assert_eq!(*arena.value(n), "vcpu0");
/// assert_eq!(arena.live(), 1);
/// let (k, v) = arena.free(n);
/// assert_eq!((k, v), (10, "vcpu0"));
/// assert_eq!(arena.live(), 0);
/// ```
#[derive(Debug)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    free_list: Vec<u32>,
    live: usize,
    comparisons: AtomicU64,
    pointer_writes: AtomicU64,
    allocs: AtomicU64,
    frees: AtomicU64,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an arena with room for `cap` nodes before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            slots: Vec::with_capacity(cap),
            free_list: Vec::new(),
            live: 0,
            comparisons: AtomicU64::new(0),
            pointer_writes: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
        }
    }

    /// Number of live (allocated, not freed) nodes.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether the arena has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Allocates a node, reusing freed slots when possible.
    pub fn alloc(&mut self, key: i64, value: T) -> NodeRef {
        *self.allocs.get_mut() += 1;
        self.live += 1;
        if let Some(idx) = self.free_list.pop() {
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.node.is_none(), "free-list slot was live");
            slot.node = Some((key, value));
            *slot.next.get_mut() = NIL;
            NodeRef(idx)
        } else {
            let idx = u32::try_from(self.slots.len()).expect("arena exceeds u32 indices");
            assert_ne!(idx, NIL, "arena full");
            self.slots.push(Slot {
                node: Some((key, value)),
                next: AtomicU32::new(NIL),
            });
            NodeRef(idx)
        }
    }

    /// Frees a node, returning its key and payload.
    ///
    /// # Panics
    ///
    /// Panics if the node was already freed (use-after-free guard).
    pub fn free(&mut self, r: NodeRef) -> (i64, T) {
        let slot = &mut self.slots[r.index()];
        let node = slot.node.take().expect("double free of arena node");
        *slot.next.get_mut() = NIL;
        self.free_list.push(r.0);
        self.live -= 1;
        *self.frees.get_mut() += 1;
        node
    }

    /// Sort key of a live node.
    ///
    /// # Panics
    ///
    /// Panics if the node was freed.
    pub fn key(&self, r: NodeRef) -> i64 {
        self.slots[r.index()].node.as_ref().expect("freed node").0
    }

    /// Shared reference to the payload of a live node.
    ///
    /// # Panics
    ///
    /// Panics if the node was freed.
    pub fn value(&self, r: NodeRef) -> &T {
        &self.slots[r.index()].node.as_ref().expect("freed node").1
    }

    /// Exclusive reference to the payload of a live node.
    ///
    /// # Panics
    ///
    /// Panics if the node was freed.
    pub fn value_mut(&mut self, r: NodeRef) -> &mut T {
        &mut self.slots[r.index()].node.as_mut().expect("freed node").1
    }

    /// Reads the intrusive next pointer of `r`.
    pub fn next(&self, r: NodeRef) -> Option<NodeRef> {
        let raw = self.slots[r.index()].next.load(Ordering::Relaxed);
        (raw != NIL).then_some(NodeRef(raw))
    }

    /// Writes the intrusive next pointer of `r`.
    ///
    /// This takes `&self`: next pointers are atomics so the 𝒫²𝒮ℳ merge
    /// threads can splice *disjoint* nodes concurrently. Counted as one
    /// pointer write.
    pub fn set_next(&self, r: NodeRef, next: Option<NodeRef>) {
        self.write_next(r, next);
        self.add_counts(0, 1);
    }

    /// Writes the intrusive next pointer of `r` without counting it. The
    /// caller tallies the write and publishes it with
    /// [`Self::add_counts`] before its operation returns.
    pub(crate) fn write_next(&self, r: NodeRef, next: Option<NodeRef>) {
        self.slots[r.index()]
            .next
            .store(next.map_or(NIL, |n| n.0), Ordering::Relaxed);
    }

    /// Publishes the key comparisons and pointer writes (head/tail handle
    /// updates included) one operation tallied — once per operation, not
    /// once per element.
    pub(crate) fn add_counts(&self, comparisons: u64, pointer_writes: u64) {
        if comparisons != 0 {
            self.comparisons.fetch_add(comparisons, Ordering::Relaxed);
        }
        if pointer_writes != 0 {
            self.pointer_writes
                .fetch_add(pointer_writes, Ordering::Relaxed);
        }
    }

    /// Returns the accumulated operation counters and resets them to zero.
    pub fn take_stats(&self) -> ArenaStats {
        ArenaStats {
            comparisons: self.comparisons.swap(0, Ordering::Relaxed),
            pointer_writes: self.pointer_writes.swap(0, Ordering::Relaxed),
            allocs: self.allocs.swap(0, Ordering::Relaxed),
            frees: self.frees.swap(0, Ordering::Relaxed),
        }
    }

    /// Reads the accumulated operation counters without resetting them.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            comparisons: self.comparisons.load(Ordering::Relaxed),
            pointer_writes: self.pointer_writes.load(Ordering::Relaxed),
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut a: Arena<String> = Arena::new();
        let n = a.alloc(5, "x".into());
        assert_eq!(a.key(n), 5);
        assert_eq!(a.value(n), "x");
        *a.value_mut(n) = "y".into();
        let (k, v) = a.free(n);
        assert_eq!((k, v.as_str()), (5, "y"));
        assert!(a.is_empty());
    }

    #[test]
    fn slots_are_reused() {
        let mut a: Arena<u32> = Arena::new();
        let n1 = a.alloc(1, 1);
        a.free(n1);
        let n2 = a.alloc(2, 2);
        assert_eq!(n1, n2, "freed slot must be reused");
        assert_eq!(a.live(), 1);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a: Arena<u32> = Arena::new();
        let n = a.alloc(1, 1);
        a.free(n);
        a.free(n);
    }

    #[test]
    #[should_panic(expected = "freed node")]
    fn use_after_free_panics() {
        let mut a: Arena<u32> = Arena::new();
        let n = a.alloc(1, 1);
        a.free(n);
        a.key(n);
    }

    #[test]
    fn next_pointers() {
        let mut a: Arena<u32> = Arena::new();
        let n1 = a.alloc(1, 1);
        let n2 = a.alloc(2, 2);
        assert_eq!(a.next(n1), None);
        a.set_next(n1, Some(n2));
        assert_eq!(a.next(n1), Some(n2));
        a.set_next(n1, None);
        assert_eq!(a.next(n1), None);
    }

    #[test]
    fn freeing_clears_next() {
        let mut a: Arena<u32> = Arena::new();
        let n1 = a.alloc(1, 1);
        let n2 = a.alloc(2, 2);
        a.set_next(n1, Some(n2));
        a.free(n1);
        let n3 = a.alloc(3, 3);
        assert_eq!(n3, n1);
        assert_eq!(a.next(n3), None, "recycled slot must not leak next ptr");
    }

    #[test]
    fn stats_count_operations() {
        let mut a: Arena<u32> = Arena::new();
        let n1 = a.alloc(1, 1);
        let n2 = a.alloc(2, 2);
        a.set_next(n1, Some(n2));
        a.free(n2);
        let s = a.take_stats();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.pointer_writes, 1);
        assert_eq!(s.frees, 1);
        // take_stats resets.
        assert_eq!(a.stats(), ArenaStats::default());
    }

    #[test]
    fn parallel_set_next_is_safe() {
        // The property 𝒫²𝒮ℳ relies on: concurrent set_next on disjoint
        // nodes from scoped threads is race-free.
        let mut a: Arena<u32> = Arena::new();
        let nodes: Vec<_> = (0..64).map(|i| a.alloc(i, i as u32)).collect();
        let arena = &a;
        crossbeam::scope(|s| {
            for pair in nodes.chunks(2) {
                let (from, to) = (pair[0], pair[1]);
                s.spawn(move |_| arena.set_next(from, Some(to)));
            }
        })
        .unwrap();
        for pair in nodes.chunks(2) {
            assert_eq!(a.next(pair[0]), Some(pair[1]));
        }
    }
}
