//! Caller-held, reusable search scratch.
//!
//! `ecf::run_dfs` needs one [`Frame`](crate::ecf) per depth (a candidate
//! `Vec`), one shared pair of intersection/staging masks, an assignment
//! array and a used-host-node bitset; LNS needs per-depth candidate
//! buffers, an anchor list, a dedup mask and its memo cache. All of that
//! is *setup*, not search: for tight queries over big hosts the fixed
//! allocation dominates the (microsecond-scale) search itself. A
//! [`SearchScratch`] owns the whole arena and is re-validated (and,
//! where semantically required, cleared) by `SearchScratch::ensure` at
//! the start of every search, so a caller embedding thousands of queries
//! — the service layer's batch path — allocates once and reuses the
//! high-water-mark buffers forever after. The cold (fresh-scratch) path
//! is kept cheap too: the DFS masks are shared across depths instead of
//! per-frame, and the LNS-only buffers are sized lazily by
//! `ensure_lns`, so a one-shot ECF search allocates a handful of
//! buffers, not `O(depth)` bitsets.
//!
//! [`ParallelScratch`] is the same idea for `parallel::search`: one
//! [`SearchScratch`] per worker thread, grown on demand and reused
//! across every stolen subtree task that worker executes — plus the
//! persistent [`WorkerPool`] those workers run on, so a reused
//! `ParallelScratch` makes repeated parallel searches spawn-free as
//! well as allocation-free (worker `w`'s scratch always lands on pool
//! thread `w`, keeping the arenas cache-warm per thread).

use crate::ecf::Frame;
use crate::pool::WorkerPool;
use netgraph::{NodeBitSet, NodeId};
use rustc_hash::FxHashMap;

/// Reusable buffers for one sequential search (ECF, RWB, or LNS).
///
/// Create once with [`SearchScratch::new`], then pass to `ecf::search`,
/// `rwb::search` or `lns::search` (or, inside an [`EmbedScratch`], to
/// `Engine::run_with_scratch`). The scratch adapts itself to each
/// problem's dimensions; nothing about a previous search leaks into the
/// next one (the LNS memo cache is cleared, masks and assignments
/// reset), only the allocations survive.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// Per-depth DFS frames (candidate vec + cursor).
    pub(crate) frames: Vec<Frame>,
    /// Query-node → host-node assignment (u32::MAX = unassigned).
    pub(crate) assign: Vec<NodeId>,
    /// Host nodes currently used by the partial mapping.
    pub(crate) used: NodeBitSet,
    /// Shared intersection mask (expression (2)'s accumulator). One per
    /// scratch, not per frame: it is consumed before the DFS descends.
    pub(crate) mask: NodeBitSet,
    /// Shared staging mask for sparse cells without a bitset mirror.
    pub(crate) stage: NodeBitSet,
    /// LNS: per-depth candidate buffers.
    pub(crate) lns_cand_bufs: Vec<Vec<NodeId>>,
    /// LNS: covered-anchor list, taken/restored around candidate fills.
    pub(crate) lns_anchors: Vec<(NodeId, NodeId)>,
    /// LNS: dedup mask for the anchor-adjacency scan.
    pub(crate) lns_seen: NodeBitSet,
    /// LNS: memo cache `(query edge, host src, host dst)` → ok/fail.
    /// Cleared per search (it is problem-specific); the map's capacity is
    /// what gets amortized.
    pub(crate) lns_memo: FxHashMap<(u32, u32, u32), u8>,
    /// LNS: covered flags per query node.
    pub(crate) lns_covered: Vec<bool>,
    /// LNS: covered-neighbor counts per query node.
    pub(crate) lns_covered_links: Vec<u32>,
    /// Host capacity the bitsets were last sized for.
    nr: usize,
}

impl SearchScratch {
    /// An empty scratch; buffers grow lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size (or re-size) for a `(nq, nr)` problem and reset all transient
    /// DFS state. Called by every search entry point before the first
    /// descent; idempotent and cheap when the dimensions are unchanged
    /// (no allocation, just clears). The LNS-only buffers are *not*
    /// touched here — LNS calls [`SearchScratch::ensure_lns`] on top —
    /// so a cold ECF/RWB/parallel search never pays for them.
    pub(crate) fn ensure(&mut self, nq: usize, nr: usize) {
        if self.nr != nr {
            self.nr = nr;
            self.used = NodeBitSet::new(nr);
            self.mask = NodeBitSet::new(nr);
            self.stage = NodeBitSet::new(nr);
        } else {
            self.used.clear();
        }
        if self.frames.len() < nq {
            self.frames.resize_with(nq, Frame::new);
        }
        // `assign` is cloned into `Mapping`s at every leaf, so it must be
        // exactly `nq` long (resize both ways; capacity is retained).
        self.assign.resize(nq, NodeId(u32::MAX));
        for a in &mut self.assign {
            *a = NodeId(u32::MAX);
        }
    }

    /// The LNS extension of [`SearchScratch::ensure`]: size and reset the
    /// buffers only the lazy neighborhood search uses (per-depth
    /// candidate buffers, anchors, dedup mask, memo cache, covered
    /// flags). Kept separate so the DFS-based searches stay free of this
    /// setup on the cold path.
    pub(crate) fn ensure_lns(&mut self, nq: usize, nr: usize) {
        if self.lns_seen.capacity() != nr {
            self.lns_seen = NodeBitSet::new(nr);
        } else {
            self.lns_seen.clear();
        }
        if self.lns_cand_bufs.len() < nq {
            self.lns_cand_bufs.resize_with(nq, Vec::new);
        }
        if self.lns_covered.len() < nq {
            self.lns_covered.resize(nq, false);
        }
        if self.lns_covered_links.len() < nq {
            self.lns_covered_links.resize(nq, 0);
        }
        for c in &mut self.lns_covered[..nq] {
            *c = false;
        }
        for l in &mut self.lns_covered_links[..nq] {
            *l = 0;
        }
        self.lns_anchors.clear();
        self.lns_memo.clear();
    }
}

/// Per-worker scratches for `parallel::search` plus the persistent
/// [`WorkerPool`] they run on: worker `w` reuses `self.workers[w]` (on
/// pool thread `w`) across calls, so a long-lived caller pays the
/// per-depth arena setup *and* the thread spawns once instead of once
/// per request.
#[derive(Debug, Default)]
pub struct ParallelScratch {
    workers: Vec<SearchScratch>,
    pool: WorkerPool,
}

impl ParallelScratch {
    /// An empty scratch pool; worker scratches and pool threads grow on
    /// demand (a scratch that never runs a parallel search spawns
    /// nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch pool over a caller-constructed [`WorkerPool`] — e.g.
    /// one pre-spawned with [`WorkerPool::with_threads`] so the first
    /// search is already warm.
    pub fn with_pool(pool: WorkerPool) -> Self {
        ParallelScratch {
            workers: Vec::new(),
            pool,
        }
    }

    /// The persistent worker pool (thread/spawn counters live here).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Mutable access to the pool — the filter build borrows it
    /// separately from the worker scratches.
    pub fn pool_mut(&mut self) -> &mut WorkerPool {
        &mut self.pool
    }

    /// Split borrow: the pool plus at least `n` worker scratches.
    pub(crate) fn pool_and_workers(&mut self, n: usize) -> (&mut WorkerPool, &mut [SearchScratch]) {
        if self.workers.len() < n {
            self.workers.resize_with(n, SearchScratch::new);
        }
        (&mut self.pool, &mut self.workers[..n])
    }
}

/// Scratch bundle for [`Engine`](crate::Engine): one sequential scratch
/// (ECF/RWB/LNS) plus a per-worker pool for the parallel algorithm, so a
/// single bundle serves any sequence of engine runs.
#[derive(Debug, Default)]
pub struct EmbedScratch {
    /// Sequential search scratch.
    pub search: SearchScratch,
    /// Per-worker scratches for [`Algorithm::ParallelEcf`](crate::Algorithm).
    pub parallel: ParallelScratch,
}

impl EmbedScratch {
    /// An empty bundle; everything grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_grows_and_resets() {
        let mut s = SearchScratch::new();
        s.ensure(3, 100);
        s.ensure_lns(3, 100);
        assert_eq!(s.frames.len(), 3);
        assert_eq!(s.assign.len(), 3);
        assert_eq!(s.used.capacity(), 100);
        // Dirty the transient state, then ensure with the same dims.
        s.assign[1] = NodeId(7);
        s.used.insert(NodeId(9));
        s.lns_memo.insert((0, 0, 0), 1);
        s.lns_covered[0] = true;
        s.lns_covered_links[2] = 4;
        s.ensure(3, 100);
        s.ensure_lns(3, 100);
        assert_eq!(s.assign[1], NodeId(u32::MAX));
        assert!(s.used.is_empty());
        assert!(s.lns_memo.is_empty());
        assert!(!s.lns_covered[0]);
        assert_eq!(s.lns_covered_links[2], 0);
    }

    #[test]
    fn ensure_resizes_bitsets_on_new_host() {
        let mut s = SearchScratch::new();
        s.ensure(2, 10);
        s.ensure(4, 500);
        assert_eq!(s.used.capacity(), 500);
        assert_eq!(s.frames.len(), 4);
        assert_eq!(s.mask.capacity(), 500);
        assert_eq!(s.stage.capacity(), 500);
    }

    #[test]
    fn lns_buffers_are_lazy() {
        // A DFS-only ensure never touches the LNS arena; ensure_lns sizes
        // it on demand and tracks later host growth.
        let mut s = SearchScratch::new();
        s.ensure(3, 100);
        assert_eq!(s.lns_seen.capacity(), 0);
        assert!(s.lns_cand_bufs.is_empty());
        assert!(s.lns_covered.is_empty());
        s.ensure_lns(3, 100);
        assert_eq!(s.lns_seen.capacity(), 100);
        assert_eq!(s.lns_cand_bufs.len(), 3);
        s.ensure(3, 200);
        s.ensure_lns(3, 200);
        assert_eq!(s.lns_seen.capacity(), 200);
    }

    #[test]
    fn parallel_scratch_grows_on_demand() {
        let mut p = ParallelScratch::new();
        assert_eq!(p.pool_and_workers(3).1.len(), 3);
        assert_eq!(p.pool_and_workers(2).1.len(), 2);
        assert_eq!(p.pool_and_workers(5).1.len(), 5);
        // Asking for scratches spawns no threads; only running does.
        assert_eq!(p.pool().thread_count(), 0);
    }

    #[test]
    fn parallel_scratch_adopts_prewarmed_pool() {
        let mut p = ParallelScratch::with_pool(crate::pool::WorkerPool::with_threads(2));
        assert_eq!(p.pool().thread_count(), 2);
        assert_eq!(p.pool_and_workers(2).0.thread_count(), 2);
    }
}
