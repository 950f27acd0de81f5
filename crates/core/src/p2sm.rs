//! 𝒫²𝒮ℳ — *parallel precomputed sorted merge* (paper §4.1).
//!
//! 𝒫²𝒮ℳ merges a sorted list *A* (the paused sandbox's `merge_vcpus`) into
//! a sorted list *B* (the reserved `ull_runqueue`) in **O(1)** time with
//! respect to the sizes of both lists, by precomputing — while the sandbox
//! is paused, off the critical path — two auxiliary structures:
//!
//! * `arrayB` ([`MergePlan`]'s positional index): entry *i* is the node of
//!   *B* at position *i*;
//! * `posA` (the [`MergePlan`]'s splice table): maps a position in *B* to
//!   the sub-list of *A* that must be spliced right after it.
//!
//! At resume time ([`MergePlan::merge`], the paper's Algorithm 1) each
//! splice is two pointer writes, one thread per splice point, with **no
//! mutual exclusion** — the splice points are disjoint nodes, which the
//! arena guarantees race-freedom for via atomic next pointers.
//!
//! The plan also supports the incremental maintenance the paper describes
//! in §4.1.1 and §4.1.3: whenever the `ull_runqueue` or the paused
//! sandbox's vCPU set changes, the plan is updated rather than rebuilt.

use crate::arena::{Arena, NodeRef};
use crate::list::SortedList;
use std::error::Error;
use std::fmt;

/// Anchor of a splice: `-1` means "before the head of B"; `i ≥ 0` means
/// "immediately after the node at position `i` of B".
type Anchor = isize;

/// Anchor value for "splice before the head of B".
const BEFORE_HEAD: Anchor = -1;

/// A contiguous, sorted sub-list of *A* destined for one splice point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SubList {
    head: NodeRef,
    tail: NodeRef,
    len: usize,
}

/// One splice: the anchor position in *B* plus the sub-list of *A*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Splice {
    anchor: Anchor,
    sub: SubList,
}

/// How [`MergePlan::merge`] executes its splices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpliceMode {
    /// One scoped thread per splice point — the paper's Algorithm 1.
    /// In the paper's in-kernel setting these are pre-existing,
    /// highest-priority workers; in userspace each is an OS thread, so
    /// prefer [`SpliceMode::ParallelChunked`] when wall-clock matters.
    #[default]
    Parallel,
    /// A bounded number of scoped threads, each splicing a contiguous
    /// chunk of the splice points (disjointness is preserved — chunks
    /// never share a node). Amortizes thread dispatch the way the
    /// kernel's persistent merge workers do.
    ParallelChunked {
        /// Number of worker threads (clamped to the splice count; 0 is
        /// treated as 1).
        threads: usize,
    },
    /// All splices on the calling thread (ablation baseline; identical
    /// result, used to isolate the benefit of parallelism).
    Sequential,
}

/// Outcome statistics of a merge, used by the cost model and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeReport {
    /// Number of splice points (== threads used in parallel mode).
    pub splices: usize,
    /// Number of elements of *A* merged.
    pub merged: usize,
    /// Intrusive pointer writes performed (2 per splice plus head/tail
    /// handle updates).
    pub pointer_writes: usize,
}

/// Error returned when a plan no longer matches the list it was computed
/// against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StalePlanError {
    reason: String,
}

impl fmt::Display for StalePlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "merge plan is stale: {}", self.reason)
    }
}

impl Error for StalePlanError {}

/// Ways a plan's *metadata* can be made inconsistent with the list it
/// was computed against, used by the fault-injection plane
/// (`horse-faults`) to model staleness and corruption between pause and
/// resume.
///
/// Every variant corrupts only the auxiliary structures (`arrayB`, the
/// staleness guard, splice anchors) — never the sub-list node chain or
/// `a_len` — so a corrupted plan is always detected by
/// [`MergePlan::check_consistent`] while [`MergePlan::into_list`] still
/// reconstructs *A* exactly. That pair of properties is what makes the
/// vanilla-merge fallback sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanCorruption {
    /// The recorded head of *B* no longer matches (models *B* mutating
    /// under the plan without maintenance callbacks). Needs |B| ≥ 2.
    StaleBHead,
    /// `arrayB` lost its last entry (models a torn positional index).
    /// Needs |B| ≥ 1.
    TruncatedArrayB,
    /// The first splice anchor points past the end of `arrayB` (models a
    /// corrupted `posA` entry). Needs at least one splice.
    AnchorSkew,
}

impl PlanCorruption {
    /// Every corruption, in a fixed order (used by seeded injectors).
    pub const ALL: [PlanCorruption; 3] = [
        PlanCorruption::StaleBHead,
        PlanCorruption::TruncatedArrayB,
        PlanCorruption::AnchorSkew,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PlanCorruption::StaleBHead => "stale_b_head",
            PlanCorruption::TruncatedArrayB => "truncated_array_b",
            PlanCorruption::AnchorSkew => "anchor_skew",
        }
    }
}

/// Recyclable backing buffers of a [`MergePlan`] (`arrayB` plus the
/// splice table), for allocation-free steady-state pause/resume loops.
///
/// The fields are opaque: a consumer obtains buffers from
/// [`MergePlan::merge_recycling`] / [`MergePlan::into_list_recycling`]
/// (or starts from [`PlanBuffers::default`]) and hands them back to
/// [`MergePlan::precompute_in`], which clears and reuses the backing
/// capacity instead of allocating fresh vectors.
#[derive(Debug, Default)]
pub struct PlanBuffers {
    array_b: Vec<NodeRef>,
    splices: Vec<Splice>,
}

impl PlanBuffers {
    /// Buffers pre-sized for a plan over `b_len` queue elements and up
    /// to `splices` splice points.
    pub fn with_capacity(b_len: usize, splices: usize) -> Self {
        Self {
            array_b: Vec::with_capacity(b_len),
            splices: Vec::with_capacity(splices),
        }
    }

    /// Whether the buffers carry any reusable capacity (a freshly
    /// defaulted pair has none — recycling it is a no-op).
    pub fn has_capacity(&self) -> bool {
        self.array_b.capacity() > 0 || self.splices.capacity() > 0
    }
}

/// The precomputed state enabling an O(1) sorted merge of *A* into *B*.
///
/// A `MergePlan` takes ownership of *A*'s nodes at construction: while the
/// plan is alive, membership of *A* is managed through
/// [`MergePlan::insert_a`] / [`MergePlan::remove_a`], and *B* changes are
/// reported through [`MergePlan::on_b_pop_front`] /
/// [`MergePlan::on_b_push_back`] (or a full [`MergePlan::precompute`]
/// rebuild). [`MergePlan::merge`] consumes the plan.
///
/// # Example
///
/// ```
/// use horse_core::{Arena, MergePlan, SortedList, SpliceMode};
///
/// let mut arena = Arena::new();
/// let mut b = SortedList::new();
/// for k in [10, 30, 50] { b.insert_sorted(&mut arena, k, k); }
/// let mut a = SortedList::new();
/// for k in [20, 40, 60] { a.insert_sorted(&mut arena, k, k); }
///
/// let plan = MergePlan::precompute(&arena, &b, a);
/// let report = plan.merge(&arena, &mut b, SpliceMode::Parallel).unwrap();
/// assert_eq!(report.merged, 3);
/// assert_eq!(b.keys(&arena), vec![10, 20, 30, 40, 50, 60]);
/// ```
#[derive(Debug, Clone)]
pub struct MergePlan {
    /// `arrayB`: node of *B* at each position.
    array_b: Vec<NodeRef>,
    /// `posA`: splices sorted by anchor, unique anchors.
    splices: Vec<Splice>,
    /// Total elements of *A* across all sub-lists.
    a_len: usize,
    /// Head of *B* when the plan was (re)computed — staleness guard.
    b_head: Option<NodeRef>,
}

impl MergePlan {
    /// Builds the plan for merging `a` into `b`, consuming `a`'s handle
    /// (the nodes stay in the arena; the plan now tracks them).
    ///
    /// Cost: O(|A| + |B|) — run while the sandbox is paused, off the
    /// resume critical path (paper §4.1.3).
    pub fn precompute<T>(arena: &Arena<T>, b: &SortedList, a: SortedList) -> Self {
        Self::precompute_in(arena, b, a, PlanBuffers::default())
    }

    /// [`Self::precompute`] reusing recycled [`PlanBuffers`]: the
    /// buffers are cleared and their capacity reused, so a steady-state
    /// pause that recycles its previous plan's buffers performs no heap
    /// allocation. Semantically identical to `precompute`.
    pub fn precompute_in<T>(
        arena: &Arena<T>,
        b: &SortedList,
        a: SortedList,
        buffers: PlanBuffers,
    ) -> Self {
        let PlanBuffers {
            mut array_b,
            mut splices,
        } = buffers;
        array_b.clear();
        splices.clear();
        array_b.extend(b.iter(arena).map(|(n, _, _)| n));
        let mut b_idx: usize = 0; // number of B elements with key <= current a key
        let mut cur = a.head();
        while let Some(node) = cur {
            let key = arena.key(node);
            while b_idx < array_b.len() && arena.key(array_b[b_idx]) <= key {
                b_idx += 1;
            }
            let anchor: Anchor = b_idx as isize - 1;
            match splices.last_mut() {
                Some(s) if s.anchor == anchor => {
                    s.sub.tail = node;
                    s.sub.len += 1;
                }
                _ => splices.push(Splice {
                    anchor,
                    sub: SubList {
                        head: node,
                        tail: node,
                        len: 1,
                    },
                }),
            }
            cur = arena.next(node);
        }
        Self {
            array_b,
            splices,
            a_len: a.len(),
            b_head: b.head(),
        }
    }

    /// Number of elements of *A* tracked by the plan.
    pub fn a_len(&self) -> usize {
        self.a_len
    }

    /// Number of splice points (threads the merge will use).
    pub fn splice_count(&self) -> usize {
        self.splices.len()
    }

    /// Length of *B* as known to the plan.
    pub fn b_len(&self) -> usize {
        self.array_b.len()
    }

    /// Approximate heap footprint of the pause-time state in bytes, for
    /// the paper's §5.2 memory-overhead experiment: the auxiliary
    /// structures (`arrayB` + `posA`) plus the retained `merge_vcpus`
    /// arena nodes — a vanilla pause frees its queue nodes, whereas a
    /// HORSE pause keeps them linked for the O(1) splice, so they are
    /// genuine overhead relative to vanilla.
    pub fn memory_bytes(&self) -> usize {
        /// Estimated footprint of one retained arena node: i64 key,
        /// atomic next pointer, payload slot and padding.
        const NODE_BYTES: usize = 24;
        self.array_b.capacity() * std::mem::size_of::<NodeRef>()
            + self.splices.capacity() * std::mem::size_of::<Splice>()
            + self.a_len * NODE_BYTES
            + std::mem::size_of::<Self>()
    }

    /// Executes the merge (the paper's Algorithm 1), consuming the plan.
    /// On success *B* contains all elements of both lists, sorted, and the
    /// report describes the work done.
    ///
    /// Complexity: O(1) with respect to |A| and |B| — two pointer writes
    /// per splice point, at most |splices| ≤ |A| of them, executed
    /// concurrently in [`SpliceMode::Parallel`].
    ///
    /// # Errors
    ///
    /// Returns [`StalePlanError`] if `b` changed since the plan was
    /// computed or last updated.
    pub fn merge<T: Sync>(
        self,
        arena: &Arena<T>,
        b: &mut SortedList,
        mode: SpliceMode,
    ) -> Result<MergeReport, StalePlanError> {
        self.merge_recycling(arena, b, mode)
            .map(|(report, _)| report)
    }

    /// [`Self::merge`] that also hands the plan's backing buffers back
    /// to the caller for recycling into a future
    /// [`Self::precompute_in`]. Identical merge semantics; a stale plan
    /// surrenders its buffers with the error's context (they are simply
    /// dropped — staleness is the cold path).
    pub fn merge_recycling<T: Sync>(
        self,
        arena: &Arena<T>,
        b: &mut SortedList,
        mode: SpliceMode,
    ) -> Result<(MergeReport, PlanBuffers), StalePlanError> {
        {
            let staged = self.stage(b)?;
            let n = staged.node_splice_count();
            match mode {
                SpliceMode::Sequential => staged.block(0, 1).execute(arena),
                SpliceMode::Parallel => {
                    crossbeam::scope(|scope| {
                        for w in 0..n {
                            let block = staged.block(w, n);
                            scope.spawn(move |_| block.execute(arena));
                        }
                    })
                    .expect("merge splice thread panicked");
                }
                SpliceMode::ParallelChunked { threads } => {
                    let threads = threads.max(1).min(n.max(1));
                    crossbeam::scope(|scope| {
                        for w in 0..threads {
                            let block = staged.block(w, threads);
                            if block.is_empty() {
                                continue;
                            }
                            scope.spawn(move |_| block.execute(arena));
                        }
                    })
                    .expect("merge splice thread panicked");
                }
            }
        }
        Ok(self.finish_staged(arena, b))
    }

    /// Validates the plan against the current state of `b` and exposes
    /// the node splices as [`Send`]-safe per-worker blocks.
    ///
    /// This is the first half of the merge, split out so a caller-owned
    /// worker pool (the VMM's resume path, the check-plane explorer) can
    /// execute the blocks on real threads it controls. The protocol is:
    ///
    /// 1. `let staged = plan.stage(&b)?;`
    /// 2. hand each [`StagedMerge::block`] to a worker; every worker runs
    ///    [`SpliceBlock::execute`] with no lock — blocks are disjoint;
    /// 3. join the workers, drop `staged`;
    /// 4. `plan.finish_staged(&arena, &mut b)` applies the head splice
    ///    and handle fixes on the calling thread.
    ///
    /// [`Self::merge_recycling`] is exactly this protocol run on scoped
    /// threads it spawns itself, so both paths produce byte-identical
    /// reports and arena traffic.
    ///
    /// # Errors
    ///
    /// Returns [`StalePlanError`] if `b` changed since the plan was
    /// computed or last updated — same guard as [`Self::merge`].
    pub fn stage(&self, b: &SortedList) -> Result<StagedMerge<'_>, StalePlanError> {
        if b.head() != self.b_head {
            return Err(StalePlanError {
                reason: format!(
                    "B head changed: plan {:?}, list {:?}",
                    self.b_head,
                    b.head()
                ),
            });
        }
        if b.len() != self.array_b.len() {
            return Err(StalePlanError {
                reason: format!(
                    "B length changed: plan {}, list {}",
                    self.array_b.len(),
                    b.len()
                ),
            });
        }
        let (head_splice, node_splices) = self.split_head();
        Ok(StagedMerge {
            array_b: &self.array_b,
            node_splices,
            head_len: head_splice.map_or(0, |s| s.len),
            a_len: self.a_len,
        })
    }

    /// Second half of the staged merge (see [`Self::stage`]): applies the
    /// head splice and the head/tail handle + length fixes on the calling
    /// thread, consuming the plan and returning the same
    /// [`MergeReport`] / recycled [`PlanBuffers`] pair as
    /// [`Self::merge_recycling`].
    ///
    /// Must only be called after a successful [`Self::stage`] against the
    /// same (unmutated) `b`, once every block's execution has been joined
    /// — the staleness guard already ran in `stage`.
    pub fn finish_staged<T>(
        self,
        arena: &Arena<T>,
        b: &mut SortedList,
    ) -> (MergeReport, PlanBuffers) {
        if self.a_len == 0 {
            let Self {
                array_b, splices, ..
            } = self;
            return (MergeReport::default(), PlanBuffers { array_b, splices });
        }

        let (head_splice, node_splices) = self.split_head();
        let mut pointer_writes = node_splices.len() * 2;

        // Head splice (at most one, anchor == BEFORE_HEAD): handled by the
        // calling thread because it updates the list *handle*, not a node.
        if let Some(sub) = head_splice {
            let old_head = b.head();
            arena.set_next(sub.tail, old_head);
            pointer_writes += 2; // tail.next + head handle
                                 // Update the handle via re-linking: SortedList fields are
                                 // private to the crate, so we rebuild the handle in place.
            b.set_head_for_splice(Some(sub.head));
            if old_head.is_none() {
                b.set_tail_for_splice(Some(sub.tail));
            }
        }

        // Tail fix: a splice anchored at the last element of B extends the
        // tail.
        if let Some(last) = node_splices.last() {
            if last.anchor as usize == self.array_b.len().saturating_sub(1)
                && !self.array_b.is_empty()
                && b.tail() == self.array_b.last().copied()
            {
                b.set_tail_for_splice(Some(last.sub.tail));
                pointer_writes += 1;
            }
        }

        b.add_len_for_splice(self.a_len);

        let report = MergeReport {
            splices: self.splices.len(),
            merged: self.a_len,
            pointer_writes,
        };
        let Self {
            array_b, splices, ..
        } = self;
        (report, PlanBuffers { array_b, splices })
    }

    /// Splits the splice table into the (optional) head splice and the
    /// node splices — the head splice mutates the list handle and must
    /// run on the thread owning `&mut SortedList`, the node splices only
    /// touch disjoint arena nodes.
    fn split_head(&self) -> (Option<SubList>, &[Splice]) {
        if let Some(first) = self.splices.first() {
            if first.anchor == BEFORE_HEAD {
                return (Some(first.sub), &self.splices[1..]);
            }
        }
        (None, &self.splices)
    }

    /// Inserts a new element into *A* keeping the plan consistent
    /// (paper §4.1.1: position lookup + O(1) sub-list insertion; we use a
    /// binary search over `arrayB`, so the lookup is O(log |B|) rather
    /// than the paper's O(|B|)).
    pub fn insert_a<T>(&mut self, arena: &mut Arena<T>, key: i64, value: T) -> NodeRef {
        let node = arena.alloc(key, value);
        // Anchor: index of the last B element with key <= key, or -1.
        let anchor = self.anchor_for(arena, key);
        // Find (or create) the splice for this anchor, inserting the node
        // in sorted position within the sub-list.
        match self.splices.binary_search_by(|s| s.anchor.cmp(&anchor)) {
            Ok(i) => {
                let sub = &mut self.splices[i].sub;
                // Walk the sub-list to the sorted position (FIFO ties).
                if arena.key(sub.head) > key {
                    arena.set_next(node, Some(sub.head));
                    sub.head = node;
                } else {
                    let mut prev = sub.head;
                    loop {
                        let nxt = if prev == sub.tail {
                            None
                        } else {
                            arena.next(prev)
                        };
                        match nxt {
                            Some(n) if arena.key(n) <= key => prev = n,
                            _ => break,
                        }
                    }
                    let after = if prev == sub.tail {
                        None
                    } else {
                        arena.next(prev)
                    };
                    arena.write_next(node, after);
                    arena.write_next(prev, Some(node));
                    arena.add_counts(0, 2);
                    if prev == sub.tail {
                        sub.tail = node;
                    }
                }
                sub.len += 1;
            }
            Err(i) => self.splices.insert(
                i,
                Splice {
                    anchor,
                    sub: SubList {
                        head: node,
                        tail: node,
                        len: 1,
                    },
                },
            ),
        }
        self.a_len += 1;
        node
    }

    /// Removes one element of *A* with the given key (the first in FIFO
    /// order), returning its payload, or `None` if absent. O(|sub-list|),
    /// the paper's §4.1.1 delete.
    pub fn remove_a<T>(&mut self, arena: &mut Arena<T>, key: i64) -> Option<T> {
        let anchor = self.anchor_for(arena, key);
        let i = self
            .splices
            .binary_search_by(|s| s.anchor.cmp(&anchor))
            .ok()?;
        let sub = self.splices[i].sub;
        // Find the node and its predecessor inside the sub-list.
        let mut prev: Option<NodeRef> = None;
        let mut cur = sub.head;
        loop {
            if arena.key(cur) == key {
                break;
            }
            if cur == sub.tail {
                return None;
            }
            prev = Some(cur);
            cur = arena.next(cur).expect("sub-list chain broken");
        }
        let after = if cur == sub.tail {
            None
        } else {
            arena.next(cur)
        };
        match (prev, after) {
            (None, None) => {
                // Sole element: the splice disappears.
                self.splices.remove(i);
            }
            (None, Some(a)) => {
                self.splices[i].sub.head = a;
                self.splices[i].sub.len -= 1;
            }
            (Some(p), aft) => {
                arena.set_next(p, aft);
                if aft.is_none() {
                    self.splices[i].sub.tail = p;
                }
                self.splices[i].sub.len -= 1;
            }
        }
        self.a_len -= 1;
        Some(arena.free(cur).1)
    }

    /// Updates the plan after *B* lost its front element (a vCPU was
    /// dispatched off the run queue). O(|B|) for the positional index
    /// shift, O(1) for the splice table.
    pub fn on_b_pop_front<T>(&mut self, arena: &Arena<T>, b: &SortedList) {
        assert!(!self.array_b.is_empty(), "plan: pop_front on empty arrayB");
        self.array_b.remove(0);
        self.b_head = b.head();
        // Shift all anchors down; After(0) becomes BeforeHead and, if a
        // BeforeHead splice already exists, the two sub-lists concatenate
        // (both sorted, BeforeHead keys <= old B[0] key <= After(0) keys).
        for s in &mut self.splices {
            s.anchor -= 1;
        }
        if !self.splices.is_empty() && self.splices[0].anchor == -2 {
            if self.splices.len() >= 2 && self.splices[1].anchor == BEFORE_HEAD {
                // old BeforeHead (now -2) concatenates with old After(0)
                // (now BeforeHead): both precede the new head of B.
                let first = self.splices.remove(0);
                let second = &mut self.splices[0];
                arena.set_next(first.sub.tail, Some(second.sub.head));
                second.sub.head = first.sub.head;
                second.sub.len += first.sub.len;
            } else {
                self.splices[0].anchor = BEFORE_HEAD;
            }
        }
    }

    /// Updates the plan after *B* gained a new element at its back (a new
    /// vCPU enqueued on the ull_runqueue with the largest key).
    /// O(|last sub-list|): the trailing sub-list may need splitting around
    /// the new key.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not the current tail of `b` (this helper is
    /// only valid for push-back updates; use [`MergePlan::precompute`]
    /// for arbitrary insertions).
    pub fn on_b_push_back<T>(&mut self, arena: &Arena<T>, b: &SortedList, node: NodeRef) {
        assert_eq!(b.tail(), Some(node), "on_b_push_back: node is not B's tail");
        let new_key = arena.key(node);
        let old_last_anchor = self.array_b.len() as isize - 1;
        self.array_b.push(node);
        self.b_head = b.head();
        // The sub-list anchored after the old last element holds keys
        // >= key(old last). Those with key > new_key move after the new
        // element; splitting requires a walk.
        let Some(pos) = self
            .splices
            .iter()
            .position(|s| s.anchor == old_last_anchor)
        else {
            return;
        };
        let sub = self.splices[pos].sub;
        // Count the prefix that stays (keys <= new_key ⇒ they precede the
        // new B tail).
        let mut stay_tail: Option<NodeRef> = None;
        let mut stay_len = 0usize;
        let mut cur = Some(sub.head);
        while let Some(c) = cur {
            if arena.key(c) > new_key {
                break;
            }
            stay_tail = Some(c);
            stay_len += 1;
            cur = if c == sub.tail { None } else { arena.next(c) };
        }
        let new_anchor = old_last_anchor + 1;
        match (stay_tail, stay_len == sub.len) {
            (_, true) => {} // whole sub-list stays put
            (None, _) => {
                // Whole sub-list moves after the new element.
                self.splices[pos].anchor = new_anchor;
            }
            (Some(t), false) => {
                let moved_head = arena.next(t).expect("split point has successor");
                self.splices[pos].sub = SubList {
                    head: sub.head,
                    tail: t,
                    len: stay_len,
                };
                self.splices.insert(
                    pos + 1,
                    Splice {
                        anchor: new_anchor,
                        sub: SubList {
                            head: moved_head,
                            tail: sub.tail,
                            len: sub.len - stay_len,
                        },
                    },
                );
            }
        }
    }

    /// Tears the plan down, reconstructing *A* as a standalone sorted list
    /// (inverse of [`MergePlan::precompute`]); used when a paused sandbox
    /// migrates to a different ull_runqueue and the plan must be rebuilt
    /// against the new *B*.
    pub fn into_list<T>(self, arena: &Arena<T>) -> SortedList {
        self.into_list_recycling(arena).0
    }

    /// [`Self::into_list`] that also hands the plan's backing buffers
    /// back for recycling into a future [`Self::precompute_in`].
    pub fn into_list_recycling<T>(self, arena: &Arena<T>) -> (SortedList, PlanBuffers) {
        let mut head: Option<NodeRef> = None;
        let mut tail: Option<NodeRef> = None;
        let mut writes = 0u64;
        for s in &self.splices {
            match tail {
                None => head = Some(s.sub.head),
                Some(t) => {
                    arena.write_next(t, Some(s.sub.head));
                    writes += 1;
                }
            }
            arena.write_next(s.sub.tail, None);
            writes += 1;
            tail = Some(s.sub.tail);
        }
        arena.add_counts(0, writes);
        let list = SortedList::from_raw_parts(head, tail, self.a_len);
        let Self {
            array_b, splices, ..
        } = self;
        (list, PlanBuffers { array_b, splices })
    }

    /// Applies a metadata-only corruption to the plan, returning whether
    /// it was applicable (degenerate plans — empty *B* or no splices —
    /// cannot express every corruption).
    ///
    /// After a successful `corrupt`, [`MergePlan::check_consistent`] is
    /// guaranteed to fail while [`MergePlan::into_list`] still
    /// reconstructs *A* exactly — see [`PlanCorruption`].
    pub fn corrupt(&mut self, corruption: PlanCorruption) -> bool {
        match corruption {
            PlanCorruption::StaleBHead if self.array_b.len() >= 2 => {
                self.b_head = Some(self.array_b[1]);
                true
            }
            PlanCorruption::TruncatedArrayB if !self.array_b.is_empty() => {
                self.array_b.pop();
                true
            }
            PlanCorruption::AnchorSkew if !self.splices.is_empty() => {
                self.splices[0].anchor = self.array_b.len() as isize;
                true
            }
            _ => false,
        }
    }

    /// Anchor for a key: index of the last element of *B* with key ≤
    /// `key`, or `BEFORE_HEAD`. O(log |B|) binary search over `arrayB`
    /// (an improvement over the paper's stated O(|B|) scan — `arrayB` is
    /// random-access, so there is no reason to walk it linearly).
    fn anchor_for<T>(&self, arena: &Arena<T>, key: i64) -> Anchor {
        self.array_b.partition_point(|&n| arena.key(n) <= key) as isize - 1
    }

    /// Verifies the plan against the current state of `b`: every sub-list
    /// must be sorted, sized correctly, and fit strictly between its
    /// anchor's key range. Used by tests and property tests.
    pub fn check_consistent<T>(&self, arena: &Arena<T>, b: &SortedList) -> Result<(), String> {
        if b.head() != self.b_head {
            return Err("b_head mismatch".into());
        }
        if b.len() != self.array_b.len() {
            return Err(format!(
                "arrayB len {} != B len {}",
                self.array_b.len(),
                b.len()
            ));
        }
        for (i, (node, _, _)) in b.iter(arena).enumerate() {
            if self.array_b[i] != node {
                return Err(format!("arrayB[{i}] stale"));
            }
        }
        let mut total = 0usize;
        let mut last_anchor = BEFORE_HEAD - 1;
        for s in &self.splices {
            if s.anchor <= last_anchor {
                return Err("anchors not strictly increasing".into());
            }
            last_anchor = s.anchor;
            if s.anchor < BEFORE_HEAD || s.anchor >= self.array_b.len() as isize {
                return Err(format!("anchor {} out of range", s.anchor));
            }
            let lo = (s.anchor >= 0).then(|| arena.key(self.array_b[s.anchor as usize]));
            let hi = ((s.anchor + 1) as usize) < self.array_b.len();
            let hi_key = hi.then(|| arena.key(self.array_b[(s.anchor + 1) as usize]));
            let mut count = 0usize;
            let mut prev_key = i64::MIN;
            let mut cur = Some(s.sub.head);
            while let Some(c) = cur {
                let k = arena.key(c);
                if k < prev_key {
                    return Err("sub-list unsorted".into());
                }
                if let Some(lo) = lo {
                    if k < lo {
                        return Err(format!("key {k} below anchor key {lo}"));
                    }
                }
                if let Some(hk) = hi_key {
                    if k > hk {
                        return Err(format!("key {k} above next anchor key {hk}"));
                    }
                }
                prev_key = k;
                count += 1;
                if count > s.sub.len {
                    return Err("sub-list longer than recorded".into());
                }
                cur = if c == s.sub.tail { None } else { arena.next(c) };
            }
            if count != s.sub.len {
                return Err(format!("sub-list len {} != walked {count}", s.sub.len));
            }
            total += count;
        }
        if total != self.a_len {
            return Err(format!("a_len {} != sum of sub-lists {total}", self.a_len));
        }
        Ok(())
    }
}

/// The validated, partitionable first half of a staged merge (see
/// [`MergePlan::stage`]): an immutable borrow of the plan's node splices
/// plus the positional index, sliceable into disjoint per-worker
/// [`SpliceBlock`]s.
///
/// `StagedMerge` is `Send + Sync` (it only holds shared slices), so a
/// worker pool can capture blocks across threads with no locking — the
/// disjointness argument of the paper's Algorithm 1 applies per block
/// exactly as it applies per splice.
#[derive(Debug, Clone, Copy)]
pub struct StagedMerge<'p> {
    array_b: &'p [NodeRef],
    node_splices: &'p [Splice],
    head_len: usize,
    a_len: usize,
}

impl<'p> StagedMerge<'p> {
    /// Number of node splices (the partitionable work; excludes the head
    /// splice, which [`MergePlan::finish_staged`] applies inline).
    pub fn node_splice_count(&self) -> usize {
        self.node_splices.len()
    }

    /// Elements of *A* in the head splice (0 when there is none) — the
    /// vCPUs the calling thread wakes itself during finish.
    pub fn head_len(&self) -> usize {
        self.head_len
    }

    /// Total elements of *A* the merge will move.
    pub fn a_len(&self) -> usize {
        self.a_len
    }

    /// Bounds `[start, end)` into the node-splice table of worker `w` of
    /// `workers`: contiguous ⌈n/workers⌉-sized chunks, trailing workers
    /// possibly empty. Every index lands in exactly one worker's block
    /// (the partition-coverage property the proptest suite pins down).
    pub fn block_bounds(&self, w: usize, workers: usize) -> (usize, usize) {
        let n = self.node_splices.len();
        let chunk = n.div_ceil(workers.max(1)).max(1);
        let start = (w * chunk).min(n);
        let end = ((w + 1) * chunk).min(n);
        (start, end)
    }

    /// The block of worker `w` of `workers` (see [`Self::block_bounds`]).
    pub fn block(&self, w: usize, workers: usize) -> SpliceBlock<'p> {
        let (start, end) = self.block_bounds(w, workers);
        SpliceBlock {
            array_b: self.array_b,
            splices: &self.node_splices[start..end],
        }
    }
}

/// One worker's disjoint share of a staged merge's node splices.
///
/// Executing a block is pure arena-node surgery — two atomic pointer
/// writes per splice, no list-handle access — so blocks run concurrently
/// with no mutual exclusion.
#[derive(Debug, Clone, Copy)]
pub struct SpliceBlock<'p> {
    array_b: &'p [NodeRef],
    splices: &'p [Splice],
}

impl SpliceBlock<'_> {
    /// Number of splices in this block.
    pub fn len(&self) -> usize {
        self.splices.len()
    }

    /// Whether the block carries no splices (a trailing worker of an
    /// over-partitioned merge).
    pub fn is_empty(&self) -> bool {
        self.splices.is_empty()
    }

    /// Elements of *A* merged by splice `i` of this block — the vCPUs
    /// the executing worker wakes (drives the bench's wake emulation).
    pub fn sub_len(&self, i: usize) -> usize {
        self.splices[i].sub.len
    }

    /// Executes every splice in the block on the calling thread, then
    /// publishes the block's pointer writes to the arena counters with a
    /// single add — concurrent workers never contend on the counters per
    /// splice, and the joined total is exact.
    pub fn execute<T: Sync>(&self, arena: &Arena<T>) {
        for s in self.splices {
            self.splice(arena, s.sub.head, s);
        }
        arena.add_counts(0, 2 * self.splices.len() as u64);
    }

    /// Executes splice `i` of the block: links `array_b[anchor] →
    /// sub.head` and `sub.tail → old next` — the two pointer writes of
    /// the paper's Algorithm 1. Exposed one-at-a-time so the check-plane
    /// explorer can interleave workers at splice granularity.
    pub fn execute_one<T: Sync>(&self, arena: &Arena<T>, i: usize) {
        let s = &self.splices[i];
        self.splice(arena, s.sub.head, s);
        arena.add_counts(0, 2);
    }

    /// Deliberately buggy variant of [`Self::execute_one`] that links the
    /// anchor to `sub.tail` instead of `sub.head`, silently dropping the
    /// interior of any sub-list with ≥ 2 elements. Exists solely for the
    /// check plane's seeded `--mutate` misorder bug (the concurrency
    /// analogue of [`PlanCorruption`]) — never called by a real merge.
    pub fn execute_one_misordered<T: Sync>(&self, arena: &Arena<T>, i: usize) {
        let s = &self.splices[i];
        self.splice(arena, s.sub.tail, s);
        arena.add_counts(0, 2);
    }

    /// The two uncounted pointer writes of one splice: `array_b[anchor]
    /// → first` and `sub.tail → old next`. Callers publish the count.
    fn splice<T>(&self, arena: &Arena<T>, first: NodeRef, s: &Splice) {
        let anchor_node = self.array_b[s.anchor as usize];
        let tmp = arena.next(anchor_node);
        arena.write_next(anchor_node, Some(first));
        arena.write_next(s.sub.tail, tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(arena: &mut Arena<i64>, keys: &[i64]) -> SortedList {
        let mut l = SortedList::new();
        for &k in keys {
            l.insert_sorted(arena, k, k);
        }
        l
    }

    fn merged_keys(b_keys: &[i64], a_keys: &[i64], mode: SpliceMode) -> Vec<i64> {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, b_keys);
        let a = build(&mut arena, a_keys);
        let plan = MergePlan::precompute(&arena, &b, a);
        plan.check_consistent(&arena, &b).unwrap();
        let report = plan.merge(&arena, &mut b, mode).unwrap();
        assert_eq!(report.merged, a_keys.len());
        b.check_invariants(&arena).unwrap();
        b.keys(&arena)
    }

    fn expected(b_keys: &[i64], a_keys: &[i64]) -> Vec<i64> {
        let mut v: Vec<i64> = b_keys.iter().chain(a_keys).copied().collect();
        v.sort();
        v
    }

    #[test]
    fn corruptions_are_detected_and_into_list_survives() {
        for c in PlanCorruption::ALL {
            let mut arena = Arena::new();
            let b = build(&mut arena, &[10, 30, 50]);
            let a = build(&mut arena, &[20, 40]);
            let mut plan = MergePlan::precompute(&arena, &b, a);
            plan.check_consistent(&arena, &b).unwrap();
            assert!(
                plan.corrupt(c),
                "{} applicable on non-degenerate plan",
                c.label()
            );
            assert!(
                plan.check_consistent(&arena, &b).is_err(),
                "{} must be detected",
                c.label()
            );
            let rebuilt = plan.into_list(&arena);
            rebuilt.check_invariants(&arena).unwrap();
            assert_eq!(
                rebuilt.keys(&arena),
                vec![20, 40],
                "{} keeps A intact",
                c.label()
            );
        }
    }

    #[test]
    fn degenerate_plans_refuse_inapplicable_corruptions() {
        let mut arena = Arena::new();
        let b = build(&mut arena, &[]);
        let a = build(&mut arena, &[]);
        let mut plan = MergePlan::precompute(&arena, &b, a);
        for c in PlanCorruption::ALL {
            assert!(!plan.corrupt(c), "{} inapplicable on empty plan", c.label());
        }
        plan.check_consistent(&arena, &b).unwrap();
    }

    #[test]
    fn interleaved_merge() {
        for mode in [SpliceMode::Sequential, SpliceMode::Parallel] {
            let b = [10, 30, 50];
            let a = [5, 20, 40, 60];
            assert_eq!(merged_keys(&b, &a, mode), expected(&b, &a));
        }
    }

    #[test]
    fn merge_into_empty_b() {
        let b: [i64; 0] = [];
        let a = [3, 1, 2];
        assert_eq!(merged_keys(&b, &a, SpliceMode::Parallel), expected(&b, &a));
    }

    #[test]
    fn merge_empty_a_is_noop() {
        let b = [1, 2, 3];
        let a: [i64; 0] = [];
        assert_eq!(
            merged_keys(&b, &a, SpliceMode::Sequential),
            expected(&b, &a)
        );
    }

    #[test]
    fn all_before_head() {
        assert_eq!(
            merged_keys(&[100, 200], &[1, 2, 3], SpliceMode::Parallel),
            vec![1, 2, 3, 100, 200]
        );
    }

    #[test]
    fn all_after_tail_updates_tail() {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &[1, 2]);
        let a = build(&mut arena, &[10, 20]);
        let plan = MergePlan::precompute(&arena, &b, a);
        plan.merge(&arena, &mut b, SpliceMode::Parallel).unwrap();
        b.check_invariants(&arena).unwrap();
        assert_eq!(arena.key(b.tail().unwrap()), 20);
        // The list must remain usable: insert after the merge.
        b.insert_sorted(&mut arena, 15, 15);
        assert_eq!(b.keys(&arena), vec![1, 2, 10, 15, 20]);
    }

    #[test]
    fn duplicate_keys_merge_after_equals() {
        assert_eq!(
            merged_keys(&[5, 5, 10], &[5, 10], SpliceMode::Sequential),
            vec![5, 5, 5, 10, 10]
        );
    }

    #[test]
    fn merge_is_o1_pointer_writes() {
        // 36 vCPUs landing in one contiguous gap: exactly one splice,
        // two pointer writes — independent of |A| and |B|.
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &(0..100).map(|i| i * 1000).collect::<Vec<_>>());
        let a_keys: Vec<i64> = (0..36).map(|i| 500 + i).collect();
        let a = build(&mut arena, &a_keys);
        let plan = MergePlan::precompute(&arena, &b, a);
        assert_eq!(plan.splice_count(), 1);
        arena.take_stats();
        let report = plan.merge(&arena, &mut b, SpliceMode::Sequential).unwrap();
        assert_eq!(report.pointer_writes, 2);
        let stats = arena.take_stats();
        assert_eq!(stats.comparisons, 0, "merge must not compare keys");
        b.check_invariants(&arena).unwrap();
    }

    #[test]
    fn stale_plan_after_b_mutation_is_rejected() {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &[1, 2, 3]);
        let a = build(&mut arena, &[10]);
        let plan = MergePlan::precompute(&arena, &b, a);
        b.pop_front(&mut arena); // invalidates the plan
        let err = plan
            .merge(&arena, &mut b, SpliceMode::Sequential)
            .unwrap_err();
        assert!(err.to_string().contains("stale"));
    }

    #[test]
    fn on_b_pop_front_keeps_plan_fresh() {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &[10, 20, 30]);
        let a = build(&mut arena, &[5, 15, 25, 35]);
        let mut plan = MergePlan::precompute(&arena, &b, a);
        b.pop_front(&mut arena);
        plan.on_b_pop_front(&arena, &b);
        plan.check_consistent(&arena, &b).unwrap();
        plan.merge(&arena, &mut b, SpliceMode::Parallel).unwrap();
        b.check_invariants(&arena).unwrap();
        assert_eq!(b.keys(&arena), vec![5, 15, 20, 25, 30, 35]);
    }

    #[test]
    fn on_b_pop_front_concatenates_head_sublists() {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &[10, 20]);
        // A has keys both below B[0] and between B[0] and B[1].
        let a = build(&mut arena, &[1, 2, 11, 12]);
        let mut plan = MergePlan::precompute(&arena, &b, a);
        assert_eq!(plan.splice_count(), 2);
        b.pop_front(&mut arena);
        plan.on_b_pop_front(&arena, &b);
        plan.check_consistent(&arena, &b).unwrap();
        assert_eq!(plan.splice_count(), 1);
        plan.merge(&arena, &mut b, SpliceMode::Sequential).unwrap();
        assert_eq!(b.keys(&arena), vec![1, 2, 11, 12, 20]);
    }

    #[test]
    fn on_b_push_back_splits_trailing_sublist() {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &[10]);
        let a = build(&mut arena, &[15, 25, 35]);
        let mut plan = MergePlan::precompute(&arena, &b, a);
        assert_eq!(plan.splice_count(), 1);
        let node = b.insert_sorted(&mut arena, 30, 30);
        plan.on_b_push_back(&arena, &b, node);
        plan.check_consistent(&arena, &b).unwrap();
        assert_eq!(plan.splice_count(), 2);
        plan.merge(&arena, &mut b, SpliceMode::Parallel).unwrap();
        assert_eq!(b.keys(&arena), vec![10, 15, 25, 30, 35]);
    }

    #[test]
    fn on_b_push_back_whole_sublist_moves() {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &[10]);
        let a = build(&mut arena, &[50, 60]);
        let mut plan = MergePlan::precompute(&arena, &b, a);
        let node = b.insert_sorted(&mut arena, 20, 20);
        plan.on_b_push_back(&arena, &b, node);
        plan.check_consistent(&arena, &b).unwrap();
        plan.merge(&arena, &mut b, SpliceMode::Sequential).unwrap();
        assert_eq!(b.keys(&arena), vec![10, 20, 50, 60]);
    }

    #[test]
    fn insert_a_maintains_plan() {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &[10, 20, 30]);
        let a = build(&mut arena, &[15]);
        let mut plan = MergePlan::precompute(&arena, &b, a);
        plan.insert_a(&mut arena, 5, 5);
        plan.insert_a(&mut arena, 17, 17);
        plan.insert_a(&mut arena, 16, 16);
        plan.insert_a(&mut arena, 35, 35);
        plan.check_consistent(&arena, &b).unwrap();
        assert_eq!(plan.a_len(), 5);
        plan.merge(&arena, &mut b, SpliceMode::Parallel).unwrap();
        assert_eq!(b.keys(&arena), vec![5, 10, 15, 16, 17, 20, 30, 35]);
    }

    #[test]
    fn remove_a_maintains_plan() {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &[10, 20]);
        let a = build(&mut arena, &[5, 15, 16, 25]);
        let mut plan = MergePlan::precompute(&arena, &b, a);
        assert_eq!(plan.remove_a(&mut arena, 15), Some(15));
        assert_eq!(plan.remove_a(&mut arena, 5), Some(5));
        assert_eq!(plan.remove_a(&mut arena, 99), None);
        plan.check_consistent(&arena, &b).unwrap();
        assert_eq!(plan.a_len(), 2);
        plan.merge(&arena, &mut b, SpliceMode::Sequential).unwrap();
        assert_eq!(b.keys(&arena), vec![10, 16, 20, 25]);
    }

    #[test]
    fn remove_a_sole_element_drops_splice() {
        let mut arena = Arena::new();
        let b = build(&mut arena, &[10]);
        let a = build(&mut arena, &[15]);
        let mut plan = MergePlan::precompute(&arena, &b, a);
        assert_eq!(plan.remove_a(&mut arena, 15), Some(15));
        assert_eq!(plan.splice_count(), 0);
        assert_eq!(plan.a_len(), 0);
        plan.check_consistent(&arena, &b).unwrap();
    }

    #[test]
    fn into_list_reconstructs_a() {
        let mut arena = Arena::new();
        let b = build(&mut arena, &[10, 20, 30]);
        let a_keys = [5, 15, 25, 35];
        let a = build(&mut arena, &a_keys);
        let plan = MergePlan::precompute(&arena, &b, a);
        let rebuilt = plan.into_list(&arena);
        rebuilt.check_invariants(&arena).unwrap();
        assert_eq!(rebuilt.keys(&arena), a_keys.to_vec());
    }

    #[test]
    fn memory_bytes_is_reported() {
        let mut arena = Arena::new();
        let b = build(&mut arena, &[1, 2, 3]);
        let a = build(&mut arena, &[4]);
        let plan = MergePlan::precompute(&arena, &b, a);
        assert!(plan.memory_bytes() > 0);
        assert_eq!(plan.b_len(), 3);
        assert_eq!(plan.a_len(), 1);
    }

    #[test]
    fn staged_protocol_matches_merge() {
        for workers in [1usize, 2, 3, 7, 16] {
            let mut arena = Arena::new();
            let mut b = build(&mut arena, &[10, 30, 50, 70]);
            let a = build(&mut arena, &[5, 20, 21, 40, 60, 80]);
            let plan = MergePlan::precompute(&arena, &b, a);
            let expected_splices = plan.splice_count();
            {
                let staged = plan.stage(&b).unwrap();
                assert_eq!(staged.a_len(), 6);
                let arena_ref = &arena;
                crossbeam::scope(|scope| {
                    for w in 0..workers {
                        let block = staged.block(w, workers);
                        scope.spawn(move |_| block.execute(arena_ref));
                    }
                })
                .unwrap();
            }
            let (report, _bufs) = plan.finish_staged(&arena, &mut b);
            assert_eq!(report.splices, expected_splices);
            assert_eq!(report.merged, 6);
            b.check_invariants(&arena).unwrap();
            assert_eq!(
                b.keys(&arena),
                expected(&[10, 30, 50, 70], &[5, 20, 21, 40, 60, 80]),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn staged_report_is_identical_to_merge_recycling() {
        let b_keys = [10, 30, 50];
        let a_keys = [5, 20, 21, 60];
        let via_merge = {
            let mut arena = Arena::new();
            let mut b = build(&mut arena, &b_keys);
            let a = build(&mut arena, &a_keys);
            let plan = MergePlan::precompute(&arena, &b, a);
            plan.merge(&arena, &mut b, SpliceMode::Sequential).unwrap()
        };
        let via_staged = {
            let mut arena = Arena::new();
            let mut b = build(&mut arena, &b_keys);
            let a = build(&mut arena, &a_keys);
            let plan = MergePlan::precompute(&arena, &b, a);
            {
                let staged = plan.stage(&b).unwrap();
                staged.block(0, 1).execute(&arena);
            }
            plan.finish_staged(&arena, &mut b).0
        };
        assert_eq!(via_merge, via_staged);
    }

    #[test]
    fn stage_rejects_mutated_b() {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &[1, 2, 3]);
        let a = build(&mut arena, &[10]);
        let plan = MergePlan::precompute(&arena, &b, a);
        b.pop_front(&mut arena);
        assert!(plan.stage(&b).is_err());
    }

    #[test]
    fn block_bounds_partition_all_indices() {
        let mut arena = Arena::new();
        let b = build(&mut arena, &[10, 20, 30, 40, 50]);
        let a = build(&mut arena, &[11, 21, 31, 41, 51]);
        let plan = MergePlan::precompute(&arena, &b, a);
        let staged = plan.stage(&b).unwrap();
        let n = staged.node_splice_count();
        assert!(n >= 2);
        for workers in 1..=8usize {
            let mut covered = vec![0u32; n];
            for w in 0..workers {
                let (start, end) = staged.block_bounds(w, workers);
                assert!(start <= end && end <= n);
                for slot in &mut covered[start..end] {
                    *slot += 1;
                }
                assert_eq!(staged.block(w, workers).len(), end - start);
            }
            assert!(
                covered.iter().all(|&c| c == 1),
                "workers={workers}: {covered:?}"
            );
        }
    }

    #[test]
    fn misordered_splice_loses_interior_entries() {
        let mut arena = Arena::new();
        let mut b = build(&mut arena, &[10, 30]);
        // One sub-list of length 3 between 10 and 30.
        let a = build(&mut arena, &[20, 21, 22]);
        let plan = MergePlan::precompute(&arena, &b, a);
        {
            let staged = plan.stage(&b).unwrap();
            assert_eq!(staged.node_splice_count(), 1);
            staged.block(0, 1).execute_one_misordered(&arena, 0);
        }
        let (report, _) = plan.finish_staged(&arena, &mut b);
        assert_eq!(report.merged, 3, "accounting still claims the full merge");
        // The list walk sees only the sub-list tail: 20 and 21 are lost,
        // which is exactly what the check-plane oracle must catch.
        assert_ne!(b.keys(&arena), expected(&[10, 30], &[20, 21, 22]));
        assert!(b.check_invariants(&arena).is_err());
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let b = [2, 4, 6, 8, 10, 12];
        let a = [1, 3, 5, 7, 9, 11, 13];
        assert_eq!(
            merged_keys(&b, &a, SpliceMode::Parallel),
            merged_keys(&b, &a, SpliceMode::Sequential)
        );
    }
}
