//! The 3-D constraint filter matrix of §V-A, stored as a flat CSR arena.
//!
//! During ECF/RWB's first stage the constraint expression is applied to
//! every (query edge, host edge) pair. Each match `(q1 → r1, q2 → r2)`
//! populates two cells:
//!
//! ```text
//! F[(q1, r1, q2)] ← r2        F[(q2, r2, q1)] ← r1
//! ```
//!
//! so that during the second stage, the candidates for the next query node
//! `vi` given its already-mapped neighbors `vj → rj` are the intersection
//! of the cells `F[(vj, rj, vi)]` minus the already-used host nodes —
//! the paper's expression (2).
//!
//! ## Storage layout
//!
//! A cell key `(vj, rj, vi)` is sparse in `vj × vi` (only query-edge pairs
//! exist) but dense in `rj` (any admissible host node can anchor a cell).
//! The matrix exploits that shape instead of hashing:
//!
//! * the ordered query pairs `(vj, vi)` that can ever hold cells are known
//!   before any constraint is evaluated (one per directed query edge, two
//!   per undirected edge), so a dense `nq × nq` table maps `(vj, vi)` to a
//!   small *pair slot* — or to "no cells" for non-adjacent pairs;
//! * per pair slot, a CSR offset row indexed by `rj` points into one
//!   contiguous candidate arena (`Vec<NodeId>`, each cell's span sorted
//!   ascending).
//!
//! [`FilterMatrix::fwd_cell`]/[`FilterMatrix::rev_cell`] are therefore two
//! array indexings and a slice borrow — O(1), no hashing, no pointer
//! chasing — and construction is two passes: evaluate-and-collect, then
//! counting-sort into the arena. Cells holding at least
//! [`CELL_DENSE_MIN`] candidates additionally materialize a
//! [`NodeBitSet`] mirror ([`FilterMatrix::fwd_view`]), which the search's
//! inner loop intersects word-by-word into per-depth scratch masks (see
//! `ecf::fill_candidates`) — the hot path allocates nothing and probes no
//! hash table.
//!
//! For directed graphs only the matching orientation is recorded
//! (footnote 3): the forward table covers query edges `vj → vi` and a
//! reverse table covers `vi → vj`, and the search intersects whichever
//! apply. This replaces the paper's negative filter `F̄` with an exact
//! equivalent: both encode "which reverse-direction candidates are
//! (in)admissible", and a positive encoding needs no subtraction pass.
//!
//! ## Parallel construction
//!
//! The evaluation scan is embarrassingly parallel over *query edges*:
//! distinct query edges populate distinct `(vj, vi)` pair slots, so their
//! cell rows are disjoint by construction. [`FilterMatrix::build_par_pooled`]
//! exploits that: the pair-slot tables are fixed up front (in query-edge
//! order, before any evaluation), the query-edge list is split into
//! contiguous chunks — one job each on a caller-held
//! [`WorkerPool`] — and every job streams `(cell row, candidate)` hits
//! into its own buffers. The stitch concatenates the chunk outputs in
//! chunk order, which reproduces the sequential scan's hit stream
//! *exactly*, and the deterministic counting-sort pass then lays out the
//! same CSR arena — the pooled build is bitwise-identical to
//! [`FilterMatrix::build`] (verified by `tests/prop_layout.rs` via the
//! `PartialEq` impl, which compares the raw slot/offset/arena/bitset
//! storage). Per-job eval counters sum to the sequential total, and base
//! candidate sets are OR-merged (bitwise OR commutes, so job order cannot
//! matter). It is the only builder: a one-thread build scans inline and
//! never touches the pool, so [`FilterMatrix::build`] and
//! [`FilterMatrix::build_restricted`] are one-thread calls of it.
//!
//! The seed's `FxHashMap`-keyed implementation survives as
//! [`reference::HashFilterMatrix`] for the `abl_filter_layout` ablation
//! benchmark and the layout-equivalence property test
//! (`tests/prop_layout.rs`).

use crate::deadline::Deadline;
use crate::pool::WorkerPool;
use crate::problem::{Problem, ProblemError};
use crate::stats::SearchStats;
use netgraph::{EdgeRef, NodeBitSet, NodeId};
use rustc_hash::FxHashSet;

/// Cells with at least this many candidates also materialize a bitset
/// mirror for word-level intersection. Below it, staging the (short)
/// sorted slice into a scratch mask is cheaper than carrying `nr` bits
/// per cell through construction.
pub const CELL_DENSE_MIN: usize = 16;

/// A filter cell, in both representations the search can consume.
#[derive(Clone, Copy)]
pub struct CellView<'a> {
    /// The cell's candidates, sorted ascending. Empty when the cell is
    /// absent.
    pub slice: &'a [NodeId],
    /// Bitset mirror, present when `slice.len() >= CELL_DENSE_MIN`.
    pub bits: Option<&'a NodeBitSet>,
}

/// One direction's cells: pair-slot table + CSR offsets + arena.
///
/// `PartialEq` compares the raw storage (slots, offsets, arena, bitset
/// mirrors) — two tables are equal only when they are laid out
/// identically, which is what the parallel-build determinism property
/// asserts.
#[derive(Clone, PartialEq)]
struct CellTable {
    nq: usize,
    nr: usize,
    /// `slot[vj * nq + vi]`: dense pair slot, or `u32::MAX` when the
    /// ordered pair `(vj, vi)` has no cells in this direction.
    slot: Vec<u32>,
    /// `offsets[s * (nr + 1) + rj] .. offsets[s * (nr + 1) + rj + 1]`:
    /// the arena span of cell `(vj, rj, vi)` with pair slot `s`.
    offsets: Vec<u32>,
    /// All candidates, cell spans sorted ascending.
    arena: Vec<NodeId>,
    /// `bit_idx[s * nr + rj]`: index into `bits`, or `u32::MAX`.
    bit_idx: Vec<u32>,
    /// Bitset mirrors of the dense cells.
    bits: Vec<NodeBitSet>,
    /// Number of non-empty cells, counted once during construction.
    ncells: usize,
}

impl CellTable {
    /// Pair-slot lookup for `(vj, vi)`.
    #[inline]
    fn pair(&self, vj: NodeId, vi: NodeId) -> u32 {
        self.slot[vj.index() * self.nq + vi.index()]
    }

    #[inline]
    fn cell(&self, vj: NodeId, rj: NodeId, vi: NodeId) -> &[NodeId] {
        let s = self.pair(vj, vi);
        if s == u32::MAX {
            return &[];
        }
        let row = s as usize * (self.nr + 1) + rj.index();
        &self.arena[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }

    #[inline]
    fn view(&self, vj: NodeId, rj: NodeId, vi: NodeId) -> CellView<'_> {
        let s = self.pair(vj, vi);
        if s == u32::MAX {
            return CellView {
                slice: &[],
                bits: None,
            };
        }
        let row = s as usize * (self.nr + 1) + rj.index();
        let slice = &self.arena[self.offsets[row] as usize..self.offsets[row + 1] as usize];
        let bi = self.bit_idx[s as usize * self.nr + rj.index()];
        CellView {
            slice,
            bits: (bi != u32::MAX).then(|| &self.bits[bi as usize]),
        }
    }

    /// Number of non-empty cells (cached at construction; O(1) like the
    /// hash layout's map length).
    fn cell_count(&self) -> usize {
        self.ncells
    }

    /// Pair slots in this table (rows per slot: `nr`).
    fn nslots(&self) -> usize {
        self.offsets.len() / (self.nr + 1)
    }

    /// In-place removal pass of [`FilterMatrix::patch`]: drop every
    /// dirty-incident arena entry (anchor `rj` or candidate dirty) that
    /// the re-scan did not confirm, compact the arena tail-forward, and
    /// rebuild offsets, bitset mirrors and the cell count canonically —
    /// the surviving layout is exactly what [`CellTable::from_hits`]
    /// would produce from the surviving hit stream, which is what keeps
    /// a patched table `PartialEq`-identical to a fresh build.
    fn retain_confirmed(&mut self, dirty: &NodeBitSet, keep: &FxHashSet<(u64, u32)>) {
        let nslots = self.nslots();
        let mut new_offsets = vec![0u32; self.offsets.len()];
        let mut write = 0usize;
        let mut ncells = 0usize;
        for s in 0..nslots {
            let obase = s * (self.nr + 1);
            for rj in 0..self.nr {
                let (lo, hi) = (
                    self.offsets[obase + rj] as usize,
                    self.offsets[obase + rj + 1] as usize,
                );
                new_offsets[obase + rj] = write as u32;
                let rj_dirty = dirty.contains(NodeId(rj as u32));
                for k in lo..hi {
                    let r2 = self.arena[k];
                    let affected = rj_dirty || dirty.contains(r2);
                    if !affected || keep.contains(&(s as u64 * self.nr as u64 + rj as u64, r2.0)) {
                        self.arena[write] = r2;
                        write += 1;
                    }
                }
                if write as u32 > new_offsets[obase + rj] {
                    ncells += 1;
                }
            }
            new_offsets[obase + self.nr] = write as u32;
        }
        self.arena.truncate(write);
        self.offsets = new_offsets;
        // Re-derive the bitset mirrors from scratch: a shrunken span may
        // have crossed the density threshold, and `from_hits` assigns
        // mirror indices in row order — reproduce that exactly.
        self.bits.clear();
        self.bit_idx.fill(u32::MAX);
        for s in 0..nslots {
            let obase = s * (self.nr + 1);
            for rj in 0..self.nr {
                let (lo, hi) = (
                    self.offsets[obase + rj] as usize,
                    self.offsets[obase + rj + 1] as usize,
                );
                let span = &self.arena[lo..hi];
                if span.len() >= CELL_DENSE_MIN {
                    self.bit_idx[s * self.nr + rj] = self.bits.len() as u32;
                    self.bits
                        .push(NodeBitSet::from_iter(self.nr, span.iter().copied()));
                }
            }
        }
        self.ncells = ncells;
    }

    /// OR into `out` every anchor `rj` of a non-empty cell keyed
    /// `(vj, rj, ·)` — the scan-derived base-set contribution of this
    /// table for query node `vj` (a hit `(vj, rj, vi) ← r2` always
    /// inserted `rj` into `base[vj]`).
    fn collect_anchors(&self, vj: NodeId, out: &mut NodeBitSet) {
        for vi in 0..self.nq {
            let s = self.slot[vj.index() * self.nq + vi];
            if s == u32::MAX {
                continue;
            }
            let obase = s as usize * (self.nr + 1);
            for rj in 0..self.nr {
                if self.offsets[obase + rj] < self.offsets[obase + rj + 1] {
                    out.insert(NodeId(rj as u32));
                }
            }
        }
    }
}

/// Dense `(vj, vi)` → pair-slot table. Fixed *before* any constraint is
/// evaluated — slots are assigned in query-edge order, so the sequential
/// and parallel builds agree on the numbering by construction.
#[derive(Clone, PartialEq)]
struct PairSlots {
    nq: usize,
    slot: Vec<u32>,
    slots: u32,
}

impl PairSlots {
    fn new(nq: usize) -> Self {
        PairSlots {
            nq,
            slot: vec![u32::MAX; nq * nq],
            slots: 0,
        }
    }

    /// Register the ordered query pair `(vj, vi)` as cell-bearing.
    fn add_pair(&mut self, vj: NodeId, vi: NodeId) {
        let idx = vj.index() * self.nq + vi.index();
        if self.slot[idx] == u32::MAX {
            self.slot[idx] = self.slots;
            self.slots += 1;
        }
    }

    /// Pair slot of `(vj, vi)`, `u32::MAX` when the pair bears no cells.
    #[inline]
    fn get(&self, vj: NodeId, vi: NodeId) -> u32 {
        self.slot[vj.index() * self.nq + vi.index()]
    }
}

/// Record `r2 ∈ F[(vj, rj, vi)]` as a `(cell row, candidate)` hit. The
/// pair must have been registered in `slots`.
#[inline]
fn push_hit(
    hits: &mut Vec<(u64, NodeId)>,
    slots: &PairSlots,
    nr: usize,
    vj: NodeId,
    rj: NodeId,
    vi: NodeId,
    r2: NodeId,
) {
    let s = slots.get(vj, vi);
    debug_assert_ne!(s, u32::MAX, "cell pushed for unregistered pair");
    hits.push((s as u64 * nr as u64 + rj.index() as u64, r2));
}

/// Raw output of one evaluation-scan chunk: streamed cell hits, partial
/// base sets, and local counters. Chunk outputs stitched in chunk order
/// reproduce the sequential scan exactly.
struct ScanOut {
    fwd_hits: Vec<(u64, NodeId)>,
    rev_hits: Vec<(u64, NodeId)>,
    base: Vec<NodeBitSet>,
    evals: u64,
    truncated: bool,
}

/// Evaluate the constraint for `qedges × host edges` (the first-stage
/// scan), streaming hits. This is the shared worker body of both the
/// sequential and the parallel build — identical logic, so chunked runs
/// concatenate to exactly the sequential hit stream.
fn scan_query_edges(
    problem: &Problem<'_>,
    qedges: &[EdgeRef],
    node_pass: &[NodeBitSet],
    fwd_slots: &PairSlots,
    rev_slots: &PairSlots,
    deadline: &mut Deadline,
) -> Result<ScanOut, ProblemError> {
    let nq = problem.nq();
    let nr = problem.nr();
    let undirected = problem.query.is_undirected();
    let mut out = ScanOut {
        fwd_hits: Vec::new(),
        rev_hits: Vec::new(),
        base: (0..nq).map(|_| NodeBitSet::new(nr)).collect(),
        evals: 0,
        truncated: false,
    };
    'outer: for qe in qedges {
        let (a, b) = (qe.src, qe.dst);
        for he in problem.host.edge_refs() {
            if deadline.expired() {
                out.truncated = true;
                break 'outer;
            }
            let (u, v) = (he.src, he.dst);
            // Orientation 1: a→u, b→v.
            if node_pass[a.index()].contains(u) && node_pass[b.index()].contains(v) {
                out.evals += 1;
                if problem.edge_ok(qe.id, a, b, he.id, u, v)? {
                    push_hit(&mut out.fwd_hits, fwd_slots, nr, a, u, b, v);
                    if undirected {
                        push_hit(&mut out.fwd_hits, fwd_slots, nr, b, v, a, u);
                    } else {
                        push_hit(&mut out.rev_hits, rev_slots, nr, b, v, a, u);
                    }
                    out.base[a.index()].insert(u);
                    out.base[b.index()].insert(v);
                }
            }
            // Orientation 2: a→v, b→u. A real evaluation for undirected
            // hosts; for directed hosts the orientation is rejected by
            // direction alone, but it is still one considered orientation
            // of the scan, so the counter is bumped either way to keep
            // directed and undirected eval totals comparable.
            if node_pass[a.index()].contains(v) && node_pass[b.index()].contains(u) {
                out.evals += 1;
                if undirected && problem.edge_ok(qe.id, a, b, he.id, v, u)? {
                    push_hit(&mut out.fwd_hits, fwd_slots, nr, a, v, b, u);
                    push_hit(&mut out.fwd_hits, fwd_slots, nr, b, u, a, v);
                    out.base[a.index()].insert(v);
                    out.base[b.index()].insert(u);
                }
            }
        }
    }
    Ok(out)
}

impl CellTable {
    /// Counting-sort a hit stream into the CSR layout. Deterministic:
    /// the layout depends only on the hit multiset order within each cell
    /// (and each span is sorted afterwards), so any scan that reproduces
    /// the sequential hit stream produces a bitwise-identical table.
    fn from_hits(slots: PairSlots, nr: usize, hits: Vec<(u64, NodeId)>) -> CellTable {
        let nslots = slots.slots as usize;
        let rows = nslots * nr;
        // Counting sort the hits by cell row.
        let mut counts = vec![0u32; rows];
        for &(row, _) in &hits {
            counts[row as usize] += 1;
        }
        // Per-slot offset rows of length nr + 1 (the extra slot closes the
        // last cell of each pair).
        let mut offsets = vec![0u32; nslots * (nr + 1)];
        let mut running = 0u32;
        for s in 0..nslots {
            let obase = s * (nr + 1);
            for rj in 0..nr {
                offsets[obase + rj] = running;
                running += counts[s * nr + rj];
            }
            offsets[obase + nr] = running;
        }
        let mut arena = vec![NodeId(u32::MAX); hits.len()];
        let mut cursor: Vec<u32> = (0..rows)
            .map(|row| offsets[row / nr * (nr + 1) + row % nr])
            .collect();
        for &(row, r2) in &hits {
            let c = &mut cursor[row as usize];
            arena[*c as usize] = r2;
            *c += 1;
        }
        // Sort each cell span so the search and external callers can rely
        // on ascending order. Host edges are unique per node pair, so a
        // span cannot contain duplicates.
        let mut bit_idx = vec![u32::MAX; rows];
        let mut bits: Vec<NodeBitSet> = Vec::new();
        let mut ncells = 0usize;
        for s in 0..nslots {
            let obase = s * (nr + 1);
            for rj in 0..nr {
                let (lo, hi) = (
                    offsets[obase + rj] as usize,
                    offsets[obase + rj + 1] as usize,
                );
                if lo == hi {
                    continue;
                }
                ncells += 1;
                let span = &mut arena[lo..hi];
                span.sort_unstable();
                debug_assert!(span.windows(2).all(|w| w[0] < w[1]), "duplicate candidates");
                if span.len() >= CELL_DENSE_MIN {
                    bit_idx[s * nr + rj] = bits.len() as u32;
                    bits.push(NodeBitSet::from_iter(nr, span.iter().copied()));
                }
            }
        }
        CellTable {
            nq: slots.nq,
            nr,
            slot: slots.slot,
            offsets,
            arena,
            bit_idx,
            bits,
            ncells,
        }
    }
}

/// The constructed filter state for one problem.
///
/// `PartialEq` compares the raw CSR storage of both cell tables plus the
/// base sets — equality means the two matrices are laid out
/// bitwise-identically, the property `tests/prop_layout.rs` asserts for
/// [`FilterMatrix::build`] vs [`FilterMatrix::build_par_pooled`].
#[derive(Clone, PartialEq)]
pub struct FilterMatrix {
    /// `fwd[(vj, rj, vi)]`: candidates for `vi` via query edge `vj → vi`
    /// (for undirected problems this holds both orientations).
    fwd: CellTable,
    /// `rev[(vj, rj, vi)]`: candidates for `vi` via query edge `vi → vj`
    /// (directed problems only).
    rev: CellTable,
    /// Per-query-node base candidate set (expression (1) of the paper):
    /// every host node that appears in at least one edge match per incident
    /// edge, or that passes the node constraint for edge-less query nodes.
    base: Vec<NodeBitSet>,
    /// `base[v].len()`, precomputed for the Lemma-1 ordering.
    counts: Vec<usize>,
    /// Whether construction was cut short by the deadline. A truncated
    /// filter must not be searched (results would be incomplete).
    truncated: bool,
}

/// How [`FilterMatrix::patch`] resolved a dirty window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchOutcome {
    /// The matrix was repaired in place and is now bitwise-identical to
    /// a fresh build against the patched host.
    Patched,
    /// Re-evaluation discovered a *newly admissible* candidate (or the
    /// patch preconditions failed: truncated matrix, host shape change,
    /// deadline expiry). Additions cannot be spliced into the frozen
    /// CSR arena — the caller must fall back to a full rebuild.
    NeedsRebuild,
}

/// Memoized node-admissibility probe for [`FilterMatrix::patch`]: the
/// tri-state `memo` (0 unknown / 1 admissible / 2 not) caches verdicts
/// per `(v, r)` so repeated probes of the same pair across host edges
/// evaluate the node constraint once, exactly mirroring the gate in
/// [`node_admissible_within`].
#[allow(clippy::too_many_arguments)]
fn admit_memo(
    problem: &Problem<'_>,
    qdeg: &[(usize, usize)],
    memo: &mut [u8],
    nr: usize,
    v: NodeId,
    r: NodeId,
    stats: &mut SearchStats,
) -> Result<bool, ProblemError> {
    let idx = v.index() * nr + r.index();
    match memo[idx] {
        1 => return Ok(true),
        2 => return Ok(false),
        _ => {}
    }
    let (v_out, v_in) = qdeg[v.index()];
    let mut ok =
        problem.host.neighbors(r).len() >= v_out && problem.host.in_neighbors(r).len() >= v_in;
    if ok && problem.has_node_expr() {
        stats.constraint_evals += 1;
        ok = problem.node_ok(v, r)?;
    }
    memo[idx] = if ok { 1 } else { 2 };
    Ok(ok)
}

/// Confirm one re-scanned hit against the frozen table: present → record
/// it in `keep` (so the removal pass retains it) and report `true`;
/// absent → the mutation *added* a candidate, which the arena cannot
/// absorb — the caller must rebuild.
fn confirm_hit(
    table: &CellTable,
    keep: &mut FxHashSet<(u64, u32)>,
    vj: NodeId,
    rj: NodeId,
    vi: NodeId,
    r2: NodeId,
) -> bool {
    let s = table.pair(vj, vi);
    if s == u32::MAX {
        return false;
    }
    let row = s as usize * (table.nr + 1) + rj.index();
    let span = &table.arena[table.offsets[row] as usize..table.offsets[row + 1] as usize];
    if span.binary_search(&r2).is_err() {
        return false;
    }
    keep.insert((s as u64 * table.nr as u64 + rj.index() as u64, r2.0));
    true
}

/// Node-admissibility prefilter: which `(v, r)` pairs can possibly map.
/// Two sound prunes apply before any constraint evaluation: degree (every
/// query edge maps to a distinct host edge, so the host node needs at
/// least the query node's degree — in/out separately for directed graphs)
/// and then the node constraint.
pub(crate) fn node_admissible(
    problem: &Problem<'_>,
    stats: &mut SearchStats,
) -> Result<Vec<NodeBitSet>, ProblemError> {
    node_admissible_within(problem, stats, None)
}

/// [`node_admissible`] scoped to per-query-node candidate sets. With
/// `allowed` present (the hierarchical expansion step) only the listed
/// host nodes are examined — the degree gate and node constraint are
/// never evaluated outside the surviving super-node subtrees, which is
/// where the hierarchy's `O(levels)` vs `O(|VR|)` admission win comes
/// from on large substrates.
pub(crate) fn node_admissible_within(
    problem: &Problem<'_>,
    stats: &mut SearchStats,
    allowed: Option<&[NodeBitSet]>,
) -> Result<Vec<NodeBitSet>, ProblemError> {
    let nr = problem.nr();
    let mut node_pass: Vec<NodeBitSet> = Vec::with_capacity(problem.nq());
    for v in problem.query.node_ids() {
        let mut set = NodeBitSet::new(nr);
        let (v_out, v_in) = (
            problem.query.neighbors(v).len(),
            problem.query.in_neighbors(v).len(),
        );
        let admit = |r: NodeId, stats: &mut SearchStats| -> Result<bool, ProblemError> {
            if problem.host.neighbors(r).len() < v_out || problem.host.in_neighbors(r).len() < v_in
            {
                return Ok(false);
            }
            if problem.has_node_expr() {
                stats.constraint_evals += 1;
                if !problem.node_ok(v, r)? {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        match allowed {
            Some(allowed) => {
                for r in allowed[v.index()].iter() {
                    if admit(r, stats)? {
                        set.insert(r);
                    }
                }
            }
            None => {
                for r in problem.host.node_ids() {
                    if admit(r, stats)? {
                        set.insert(r);
                    }
                }
            }
        }
        node_pass.push(set);
    }
    Ok(node_pass)
}

impl FilterMatrix {
    /// First-stage filter construction. Evaluates the constraint for every
    /// (query edge, host edge) pair, polling `deadline`; on expiry returns
    /// a matrix flagged [`FilterMatrix::truncated`].
    ///
    /// Counter updates land in `stats` (`constraint_evals`,
    /// `filter_cells`). Every *considered orientation* of a (query edge,
    /// host edge) pair whose endpoints pass the node prefilter bumps
    /// `constraint_evals` — including, for directed problems, the reverse
    /// orientation that direction alone rejects (the paper's F̄ pass) —
    /// so directed and undirected runs of the same topology report
    /// comparable totals.
    pub fn build(
        problem: &Problem<'_>,
        deadline: &mut Deadline,
        stats: &mut SearchStats,
    ) -> Result<FilterMatrix, ProblemError> {
        Self::build_par_pooled(problem, None, 1, deadline, stats, &mut WorkerPool::new())
    }

    /// [`FilterMatrix::build`] restricted to per-query-node host
    /// candidate sets — the expansion step of the hierarchical search:
    /// `allowed[v]` (one bitset per query node, host-node capacity)
    /// scopes the node prefilter itself, so neither the admission gate
    /// nor any cell outside the surviving super-node subtrees is ever
    /// evaluated. With `allowed`
    /// covering every solution (the hierarchy refinement's guarantee)
    /// the restricted matrix yields exactly the same search results as
    /// the full build.
    pub fn build_restricted(
        problem: &Problem<'_>,
        allowed: &[NodeBitSet],
        deadline: &mut Deadline,
        stats: &mut SearchStats,
    ) -> Result<FilterMatrix, ProblemError> {
        Self::build_par_pooled(
            problem,
            Some(allowed),
            1,
            deadline,
            stats,
            &mut WorkerPool::new(),
        )
    }

    /// The filter builder: [`FilterMatrix::build`] (or, with `allowed`,
    /// [`FilterMatrix::build_restricted`]) with the evaluation scan
    /// split into up to `threads` contiguous query-edge chunks, each run
    /// as one job on the caller-held `pool` — threads parked there
    /// between calls serve the next build without a spawn. Produces a
    /// matrix bitwise-identical to the one-thread build — same CSR
    /// layout, same eval counters, same base sets — because the chunk
    /// outputs are stitched in chunk order and the counting-sort pass is
    /// deterministic. `threads <= 1`, or a query with a single edge,
    /// scans inline on the calling thread and never touches the pool.
    pub fn build_par_pooled(
        problem: &Problem<'_>,
        allowed: Option<&[NodeBitSet]>,
        threads: usize,
        deadline: &mut Deadline,
        stats: &mut SearchStats,
        pool: &mut WorkerPool,
    ) -> Result<FilterMatrix, ProblemError> {
        let nq = problem.nq();
        let nr = problem.nr();
        let undirected = problem.query.is_undirected();

        // Phase boundary: a zero/expired/cancelled budget is caught here,
        // before any evaluation work, regardless of how many strided
        // polls the caller's deadline has already consumed.
        if deadline.check_now() {
            stats.filter_cells = 0;
            return Ok(FilterMatrix {
                fwd: CellTable::from_hits(PairSlots::new(nq), nr, Vec::new()),
                rev: CellTable::from_hits(PairSlots::new(nq), nr, Vec::new()),
                base: (0..nq).map(|_| NodeBitSet::new(nr)).collect(),
                counts: vec![0; nq],
                truncated: true,
            });
        }

        if let Some(allowed) = allowed {
            debug_assert_eq!(allowed.len(), nq);
        }
        let node_pass = node_admissible_within(problem, stats, allowed)?;

        // The cell-bearing ordered pairs are exactly the query edges (both
        // orientations when undirected), known before evaluation starts.
        let mut fwd_slots = PairSlots::new(nq);
        let mut rev_slots = PairSlots::new(nq);
        for qe in problem.query.edge_refs() {
            fwd_slots.add_pair(qe.src, qe.dst);
            if undirected {
                fwd_slots.add_pair(qe.dst, qe.src);
            } else {
                rev_slots.add_pair(qe.dst, qe.src);
            }
        }

        // The evaluation scan: one chunk inline, or `workers` contiguous
        // chunks fanned out over the pool. Each job polls its own clone
        // of the deadline (shared cancel flag, shared clock).
        let qedges: Vec<EdgeRef> = problem.query.edge_refs().collect();
        let workers = threads.min(qedges.len()).max(1);
        let outs: Vec<Result<ScanOut, ProblemError>> = if workers <= 1 {
            vec![scan_query_edges(
                problem, &qedges, &node_pass, &fwd_slots, &rev_slots, deadline,
            )]
        } else {
            let chunk = qedges.len().div_ceil(workers);
            let chunks: Vec<&[EdgeRef]> = qedges.chunks(chunk).collect();
            let mut slots: Vec<Option<Result<ScanOut, ProblemError>>> =
                (0..chunks.len()).map(|_| None).collect();
            {
                let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(chunks.len());
                for (ch, slot) in chunks.into_iter().zip(slots.iter_mut()) {
                    let mut dl = deadline.clone();
                    let (node_pass, fwd_slots, rev_slots) = (&node_pass, &fwd_slots, &rev_slots);
                    jobs.push(Box::new(move || {
                        *slot = Some(scan_query_edges(
                            problem, ch, node_pass, fwd_slots, rev_slots, &mut dl,
                        ));
                    }));
                }
                pool.run_scoped(jobs);
            }
            slots
                .into_iter()
                .map(|s| s.expect("pool scan job completed"))
                .collect()
        };

        // Deterministic stitch: chunk outputs in chunk order reproduce
        // the sequential hit stream; bases OR-merge; eval counts sum.
        let mut fwd_hits: Vec<(u64, NodeId)> = Vec::new();
        let mut rev_hits: Vec<(u64, NodeId)> = Vec::new();
        let mut base: Vec<NodeBitSet> = (0..nq).map(|_| NodeBitSet::new(nr)).collect();
        let mut truncated = false;
        for out in outs {
            // Errors surface in chunk order, so the reported error is the
            // one the sequential scan would have hit first.
            let mut out = out?;
            fwd_hits.append(&mut out.fwd_hits);
            rev_hits.append(&mut out.rev_hits);
            for (acc, part) in base.iter_mut().zip(&out.base) {
                acc.union_with(part);
            }
            stats.constraint_evals += out.evals;
            truncated |= out.truncated;
        }
        if truncated {
            // Let the caller's own deadline observe the expiry the worker
            // clones saw (their `expired_seen` latches are thread-local).
            deadline.check_now();
        }

        // Edge-less query nodes (degree 0): their base set is the node-
        // admissible set — topology imposes nothing.
        for v in problem.query.node_ids() {
            if problem.query.total_degree(v) == 0 {
                base[v.index()] = node_pass[v.index()].clone();
            }
        }

        let fwd = CellTable::from_hits(fwd_slots, nr, fwd_hits);
        let rev = CellTable::from_hits(rev_slots, nr, rev_hits);
        let counts: Vec<usize> = base.iter().map(|s| s.len()).collect();
        stats.filter_cells = (fwd.cell_count() + rev.cell_count()) as u64;
        Ok(FilterMatrix {
            fwd,
            rev,
            base,
            counts,
            truncated,
        })
    }

    /// True when construction hit the deadline; search must not run.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Candidate count for query node `v` (the Lemma-1 sort key).
    #[inline]
    pub fn candidate_count(&self, v: NodeId) -> usize {
        self.counts[v.index()]
    }

    /// Base candidate set for query node `v` (expression (1)).
    #[inline]
    pub fn base(&self, v: NodeId) -> &NodeBitSet {
        &self.base[v.index()]
    }

    /// Cell `F[(vj, rj, vi)]` for query edge `vj → vi` (or the undirected
    /// edge `{vj, vi}`): candidates for `vi`, sorted ascending. Empty
    /// slice when absent. O(1): two table indexings, no hashing.
    #[inline]
    pub fn fwd_cell(&self, vj: NodeId, rj: NodeId, vi: NodeId) -> &[NodeId] {
        self.fwd.cell(vj, rj, vi)
    }

    /// Reverse cell for query edge `vi → vj` in directed problems:
    /// candidates for `vi` given `vj → rj`. O(1), as for
    /// [`FilterMatrix::fwd_cell`].
    #[inline]
    pub fn rev_cell(&self, vj: NodeId, rj: NodeId, vi: NodeId) -> &[NodeId] {
        self.rev.cell(vj, rj, vi)
    }

    /// [`CellView`] of a forward cell: slice plus bitset mirror when the
    /// cell is dense. The search's intersection loop consumes these.
    #[inline]
    pub fn fwd_view(&self, vj: NodeId, rj: NodeId, vi: NodeId) -> CellView<'_> {
        self.fwd.view(vj, rj, vi)
    }

    /// [`CellView`] of a reverse cell.
    #[inline]
    pub fn rev_view(&self, vj: NodeId, rj: NodeId, vi: NodeId) -> CellView<'_> {
        self.rev.view(vj, rj, vi)
    }

    /// Total number of materialized (non-empty) cells (space metric for
    /// §V-C).
    pub fn cell_count(&self) -> usize {
        self.fwd.cell_count() + self.rev.cell_count()
    }

    /// Total number of candidate entries across cells.
    pub fn entry_count(&self) -> usize {
        self.fwd.arena.len() + self.rev.arena.len()
    }

    /// Repair this matrix in place against a host that mutated since it
    /// was built, re-evaluating only what `dirty` can have changed.
    ///
    /// `problem` must be the *same query and constraint* compiled
    /// against the host **at the new epoch**, and `dirty` must cover
    /// every mutated host node plus both endpoints of every mutated
    /// host edge (the feed's `DirtySet` contract) — then a host edge
    /// with no dirty endpoint has unchanged attributes *and* unchanged
    /// endpoint admissibility, so every hit it ever produced is
    /// epoch-invariant. The patch therefore re-scans only dirty-incident
    /// host edges (and, for edge-less query nodes, dirty base rows):
    ///
    /// * a previously-recorded hit the re-scan still produces is kept;
    /// * a previously-recorded dirty-incident hit the re-scan no longer
    ///   produces is removed in place (arena compaction, offsets/bitset
    ///   mirrors/`counts` re-derived canonically);
    /// * a re-scanned hit **absent** from the frozen arena is an
    ///   addition — the method returns [`PatchOutcome::NeedsRebuild`]
    ///   without completing the mutation, and the caller must discard
    ///   this matrix and build fresh (additions cannot be spliced into
    ///   a frozen CSR arena).
    ///
    /// On [`PatchOutcome::Patched`] the matrix is `PartialEq`-identical
    /// to a fresh [`FilterMatrix::build`] at the new epoch: the
    /// counting-sort layout is a pure function of the per-cell sorted
    /// candidate sets, which the removal pass reproduces exactly. Host
    /// shape changes (`nq`/`nr` mismatch, dirty id out of range), a
    /// truncated matrix, and deadline expiry mid-scan all resolve as
    /// `NeedsRebuild` — never a partial repair. `stats` accrues
    /// `constraint_evals` for the re-scan and `filter_cells` on
    /// success.
    pub fn patch(
        &mut self,
        problem: &Problem<'_>,
        dirty: &[NodeId],
        deadline: &mut Deadline,
        stats: &mut SearchStats,
    ) -> Result<PatchOutcome, ProblemError> {
        let nq = problem.nq();
        let nr = problem.nr();
        if self.truncated || self.fwd.nq != nq || self.fwd.nr != nr {
            return Ok(PatchOutcome::NeedsRebuild);
        }
        if dirty.iter().any(|d| d.index() >= nr) {
            return Ok(PatchOutcome::NeedsRebuild);
        }
        if dirty.is_empty() {
            return Ok(PatchOutcome::Patched);
        }
        if deadline.check_now() {
            return Ok(PatchOutcome::NeedsRebuild);
        }
        let mut dirty_set = NodeBitSet::new(nr);
        for &d in dirty {
            dirty_set.insert(d);
        }
        let undirected = problem.query.is_undirected();
        let qdeg: Vec<(usize, usize)> = problem
            .query
            .node_ids()
            .map(|v| {
                (
                    problem.query.neighbors(v).len(),
                    problem.query.in_neighbors(v).len(),
                )
            })
            .collect();
        let mut memo = vec![0u8; nq * nr];
        let mut keep_fwd: FxHashSet<(u64, u32)> = FxHashSet::default();
        let mut keep_rev: FxHashSet<(u64, u32)> = FxHashSet::default();

        // Re-scan pass: regenerate the hits of every dirty-incident host
        // edge under the new epoch, mirroring `scan_query_edges` exactly
        // (orientations, admissibility gate, eval accounting). Any
        // regenerated hit missing from the frozen arena is an addition.
        for qe in problem.query.edge_refs() {
            let (a, b) = (qe.src, qe.dst);
            for he in problem.host.edge_refs() {
                let (u, v) = (he.src, he.dst);
                if !dirty_set.contains(u) && !dirty_set.contains(v) {
                    continue;
                }
                if deadline.expired() {
                    return Ok(PatchOutcome::NeedsRebuild);
                }
                // Orientation 1: a→u, b→v.
                if admit_memo(problem, &qdeg, &mut memo, nr, a, u, stats)?
                    && admit_memo(problem, &qdeg, &mut memo, nr, b, v, stats)?
                {
                    stats.constraint_evals += 1;
                    if problem.edge_ok(qe.id, a, b, he.id, u, v)? {
                        if !confirm_hit(&self.fwd, &mut keep_fwd, a, u, b, v) {
                            return Ok(PatchOutcome::NeedsRebuild);
                        }
                        let kept = if undirected {
                            confirm_hit(&self.fwd, &mut keep_fwd, b, v, a, u)
                        } else {
                            confirm_hit(&self.rev, &mut keep_rev, b, v, a, u)
                        };
                        if !kept {
                            return Ok(PatchOutcome::NeedsRebuild);
                        }
                    }
                }
                // Orientation 2: a→v, b→u (a recorded hit only when
                // undirected, exactly as in the build scan).
                if admit_memo(problem, &qdeg, &mut memo, nr, a, v, stats)?
                    && admit_memo(problem, &qdeg, &mut memo, nr, b, u, stats)?
                {
                    stats.constraint_evals += 1;
                    if undirected
                        && problem.edge_ok(qe.id, a, b, he.id, v, u)?
                        && (!confirm_hit(&self.fwd, &mut keep_fwd, a, v, b, u)
                            || !confirm_hit(&self.fwd, &mut keep_fwd, b, u, a, v))
                    {
                        return Ok(PatchOutcome::NeedsRebuild);
                    }
                }
            }
        }

        // Edge-less query nodes: their base set is the node-admissible
        // set, so a dirty host node re-admits per the new constraint —
        // newly admissible is an addition, newly inadmissible a removal.
        let mut deg0_removals: Vec<(NodeId, NodeId)> = Vec::new();
        for v in problem.query.node_ids() {
            if problem.query.total_degree(v) != 0 {
                continue;
            }
            for r in dirty_set.iter() {
                let now = admit_memo(problem, &qdeg, &mut memo, nr, v, r, stats)?;
                let was = self.base[v.index()].contains(r);
                if now && !was {
                    return Ok(PatchOutcome::NeedsRebuild);
                }
                if !now && was {
                    deg0_removals.push((v, r));
                }
            }
        }

        // Every addition check passed — mutate. Removal pass: compact
        // both tables, then re-derive bases and counts from the
        // surviving cells so the result is layout-identical to a fresh
        // build.
        self.fwd.retain_confirmed(&dirty_set, &keep_fwd);
        self.rev.retain_confirmed(&dirty_set, &keep_rev);
        for (v, r) in deg0_removals {
            self.base[v.index()].remove(r);
        }
        for v in problem.query.node_ids() {
            if problem.query.total_degree(v) == 0 {
                continue;
            }
            let base = &mut self.base[v.index()];
            base.clear();
            self.fwd.collect_anchors(v, base);
            self.rev.collect_anchors(v, base);
        }
        for (count, base) in self.counts.iter_mut().zip(&self.base) {
            *count = base.len();
        }
        stats.filter_cells = (self.fwd.cell_count() + self.rev.cell_count()) as u64;
        Ok(PatchOutcome::Patched)
    }
}

#[doc(hidden)]
pub mod reference {
    //! The seed's `FxHashMap`-keyed filter, kept verbatim (plus the same
    //! orientation-2 eval accounting as the CSR build) as the baseline
    //! for the `abl_filter_layout` ablation benchmark and as the oracle
    //! for the layout-equivalence property test. Not part of the public
    //! API.

    use super::*;
    use crate::mapping::Mapping;
    use crate::order::Pred;
    use rustc_hash::FxHashMap;

    /// Key of one filter cell: `(v, r, v′)` with ids packed as `u32`.
    type CellKey = (u32, u32, u32);

    /// Hash-map-backed filter matrix (the pre-CSR layout).
    pub struct HashFilterMatrix {
        fwd: FxHashMap<CellKey, Vec<NodeId>>,
        rev: FxHashMap<CellKey, Vec<NodeId>>,
        base: Vec<NodeBitSet>,
        counts: Vec<usize>,
        truncated: bool,
    }

    impl HashFilterMatrix {
        /// Build with hash-map cells; counters mirror
        /// [`FilterMatrix::build`] exactly.
        pub fn build(
            problem: &Problem<'_>,
            deadline: &mut Deadline,
            stats: &mut SearchStats,
        ) -> Result<HashFilterMatrix, ProblemError> {
            let nq = problem.nq();
            let nr = problem.nr();
            let undirected = problem.query.is_undirected();

            let mut fwd: FxHashMap<CellKey, Vec<NodeId>> = FxHashMap::default();
            let mut rev: FxHashMap<CellKey, Vec<NodeId>> = FxHashMap::default();
            let node_pass = node_admissible(problem, stats)?;

            let mut base: Vec<NodeBitSet> = (0..nq).map(|_| NodeBitSet::new(nr)).collect();
            let mut truncated = false;

            'outer: for qe in problem.query.edge_refs() {
                let (a, b) = (qe.src, qe.dst);
                for he in problem.host.edge_refs() {
                    if deadline.expired() {
                        truncated = true;
                        break 'outer;
                    }
                    let (u, v) = (he.src, he.dst);
                    if node_pass[a.index()].contains(u) && node_pass[b.index()].contains(v) {
                        stats.constraint_evals += 1;
                        if problem.edge_ok(qe.id, a, b, he.id, u, v)? {
                            push_cell(&mut fwd, (a.0, u.0, b.0), v);
                            if undirected {
                                push_cell(&mut fwd, (b.0, v.0, a.0), u);
                            } else {
                                push_cell(&mut rev, (b.0, v.0, a.0), u);
                            }
                            base[a.index()].insert(u);
                            base[b.index()].insert(v);
                        }
                    }
                    if node_pass[a.index()].contains(v) && node_pass[b.index()].contains(u) {
                        stats.constraint_evals += 1;
                        if undirected && problem.edge_ok(qe.id, a, b, he.id, v, u)? {
                            push_cell(&mut fwd, (a.0, v.0, b.0), u);
                            push_cell(&mut fwd, (b.0, u.0, a.0), v);
                            base[a.index()].insert(v);
                            base[b.index()].insert(u);
                        }
                    }
                }
            }

            for v in problem.query.node_ids() {
                if problem.query.total_degree(v) == 0 {
                    base[v.index()] = node_pass[v.index()].clone();
                }
            }

            for cell in fwd.values_mut().chain(rev.values_mut()) {
                cell.sort_unstable();
                cell.dedup();
            }

            let counts: Vec<usize> = base.iter().map(|s| s.len()).collect();
            stats.filter_cells = (fwd.len() + rev.len()) as u64;
            Ok(HashFilterMatrix {
                fwd,
                rev,
                base,
                counts,
                truncated,
            })
        }

        /// See [`FilterMatrix::truncated`].
        pub fn truncated(&self) -> bool {
            self.truncated
        }

        /// See [`FilterMatrix::candidate_count`].
        #[inline]
        pub fn candidate_count(&self, v: NodeId) -> usize {
            self.counts[v.index()]
        }

        /// See [`FilterMatrix::base`].
        #[inline]
        pub fn base(&self, v: NodeId) -> &NodeBitSet {
            &self.base[v.index()]
        }

        /// See [`FilterMatrix::fwd_cell`]. One hash probe per call.
        #[inline]
        pub fn fwd_cell(&self, vj: NodeId, rj: NodeId, vi: NodeId) -> &[NodeId] {
            self.fwd
                .get(&(vj.0, rj.0, vi.0))
                .map(Vec::as_slice)
                .unwrap_or(&[])
        }

        /// See [`FilterMatrix::rev_cell`]. One hash probe per call.
        #[inline]
        pub fn rev_cell(&self, vj: NodeId, rj: NodeId, vi: NodeId) -> &[NodeId] {
            self.rev
                .get(&(vj.0, rj.0, vi.0))
                .map(Vec::as_slice)
                .unwrap_or(&[])
        }

        /// See [`FilterMatrix::cell_count`].
        pub fn cell_count(&self) -> usize {
            self.fwd.len() + self.rev.len()
        }

        /// See [`FilterMatrix::entry_count`].
        pub fn entry_count(&self) -> usize {
            self.fwd
                .values()
                .chain(self.rev.values())
                .map(Vec::len)
                .sum()
        }
    }

    #[inline]
    fn push_cell(map: &mut FxHashMap<CellKey, Vec<NodeId>>, key: CellKey, value: NodeId) {
        map.entry(key).or_default().push(value);
    }

    /// The seed's candidate computation: gather one hash-probed cell per
    /// predecessor, allocate a fresh `Vec`, and intersect via
    /// `binary_search` membership tests.
    pub fn candidates_at(
        filter: &HashFilterMatrix,
        order: &[NodeId],
        preds: &[Vec<Pred>],
        depth: usize,
        assign: &[NodeId],
        used: &NodeBitSet,
    ) -> Vec<NodeId> {
        let vi = order[depth];
        let plist = &preds[depth];
        if plist.is_empty() {
            return filter
                .base(vi)
                .iter()
                .filter(|r| !used.contains(*r))
                .collect();
        }
        let mut cells: Vec<&[NodeId]> = Vec::with_capacity(plist.len());
        for p in plist {
            let rj = assign[p.node.index()];
            let cell = if p.forward {
                filter.fwd_cell(p.node, rj, vi)
            } else {
                filter.rev_cell(p.node, rj, vi)
            };
            if cell.is_empty() {
                return Vec::new();
            }
            cells.push(cell);
        }
        cells.sort_by_key(|c| c.len());
        let (base, rest) = cells.split_first().expect("at least one cell");
        base.iter()
            .copied()
            .filter(|r| !used.contains(*r) && rest.iter().all(|c| c.binary_search(r).is_ok()))
            .collect()
    }

    /// ECF over the hash filter with the seed's per-descent allocation
    /// pattern, enumerating up to `limit` feasible mappings (in the same
    /// ascending candidate order as the CSR search, so bounded runs of
    /// the two layouts see identical solution prefixes). Used by the
    /// ablation bench (hashmap side) and the equivalence property test.
    pub fn search_up_to(
        problem: &Problem<'_>,
        filter: &HashFilterMatrix,
        order: &[NodeId],
        preds: &[Vec<Pred>],
        limit: usize,
    ) -> Vec<Mapping> {
        let mut assign = vec![NodeId(u32::MAX); problem.nq()];
        let mut used = NodeBitSet::new(problem.nr());
        let mut out = Vec::new();
        #[allow(clippy::too_many_arguments)]
        fn go(
            filter: &HashFilterMatrix,
            order: &[NodeId],
            preds: &[Vec<Pred>],
            depth: usize,
            assign: &mut Vec<NodeId>,
            used: &mut NodeBitSet,
            out: &mut Vec<Mapping>,
            limit: usize,
        ) {
            if out.len() >= limit {
                return;
            }
            if depth == order.len() {
                out.push(Mapping::new(assign.clone()));
                return;
            }
            let vq = order[depth];
            for r in candidates_at(filter, order, preds, depth, assign, used) {
                assign[vq.index()] = r;
                used.insert(r);
                go(filter, order, preds, depth + 1, assign, used, out, limit);
                used.remove(r);
                assign[vq.index()] = NodeId(u32::MAX);
                if out.len() >= limit {
                    break;
                }
            }
        }
        go(
            filter,
            order,
            preds,
            0,
            &mut assign,
            &mut used,
            &mut out,
            limit,
        );
        out
    }

    /// Every feasible mapping ([`search_up_to`] without a bound).
    pub fn search_all(
        problem: &Problem<'_>,
        filter: &HashFilterMatrix,
        order: &[NodeId],
        preds: &[Vec<Pred>],
    ) -> Vec<Mapping> {
        search_up_to(problem, filter, order, preds, usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{Direction, Network};

    /// Host: path u - v - w with delays 5, 50; query: single edge.
    fn fixture() -> (Network, Network) {
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        q.add_edge(a, b);
        let mut h = Network::new(Direction::Undirected);
        let u = h.add_node("u");
        let v = h.add_node("v");
        let w = h.add_node("w");
        let e1 = h.add_edge(u, v);
        h.set_edge_attr(e1, "d", 5.0);
        let e2 = h.add_edge(v, w);
        h.set_edge_attr(e2, "d", 50.0);
        (q, h)
    }

    fn build(q: &Network, h: &Network, c: &str) -> (FilterMatrix, SearchStats) {
        let p = Problem::new(q, h, c).unwrap();
        let mut d = Deadline::unlimited();
        let mut s = SearchStats::default();
        let f = FilterMatrix::build(&p, &mut d, &mut s).unwrap();
        (f, s)
    }

    /// [`FilterMatrix::build_par_pooled`] over a fresh pool.
    fn build_pooled(
        p: &Problem<'_>,
        threads: usize,
        d: &mut Deadline,
        s: &mut SearchStats,
    ) -> Result<FilterMatrix, ProblemError> {
        FilterMatrix::build_par_pooled(p, None, threads, d, s, &mut WorkerPool::new())
    }

    #[test]
    fn both_orientations_recorded_for_undirected() {
        let (q, h) = fixture();
        let (f, stats) = build(&q, &h, "rEdge.d < 10.0");
        // Only edge (u,v) matches; both orientations of the query edge.
        let (a, b) = (NodeId(0), NodeId(1));
        let (u, v) = (NodeId(0), NodeId(1));
        assert_eq!(f.fwd_cell(a, u, b), &[v]);
        assert_eq!(f.fwd_cell(a, v, b), &[u]);
        assert_eq!(f.fwd_cell(b, u, a), &[v]);
        assert_eq!(f.fwd_cell(b, v, a), &[u]);
        assert!(f.fwd_cell(a, NodeId(2), b).is_empty());
        // Base candidates: {u, v} for both query nodes.
        assert_eq!(f.candidate_count(a), 2);
        assert_eq!(f.candidate_count(b), 2);
        // 2 host edges × 2 orientations = 4 evals.
        assert_eq!(stats.constraint_evals, 4);
        assert!(!f.truncated());
    }

    #[test]
    fn unconstrained_query_matches_everything() {
        let (q, h) = fixture();
        let (f, _) = build(&q, &h, "true");
        let (a, b) = (NodeId(0), NodeId(1));
        assert_eq!(f.candidate_count(a), 3);
        assert_eq!(f.candidate_count(b), 3);
        // v's cell given a→v must contain both u and w.
        assert_eq!(f.fwd_cell(a, NodeId(1), b), &[NodeId(0), NodeId(2)]);
        // Cells: (a, r, b) and (b, r, a) for r ∈ {u, v, w} = 6 distinct
        // cells; the two cells anchored at v hold two candidates each.
        assert_eq!(f.cell_count(), 6);
    }

    #[test]
    fn node_constraint_prunes_candidates() {
        let (q, mut h) = fixture();
        h.set_node_attr(NodeId(0), "cpu", 8.0);
        h.set_node_attr(NodeId(1), "cpu", 1.0);
        h.set_node_attr(NodeId(2), "cpu", 8.0);
        let p = Problem::new(&q, &h, "rNode.cpu >= 4.0").unwrap();
        let mut d = Deadline::unlimited();
        let mut s = SearchStats::default();
        let f = FilterMatrix::build(&p, &mut d, &mut s).unwrap();
        // v (cpu 1) excluded ⇒ no host edge has both endpoints admissible
        // ⇒ no cells at all.
        assert_eq!(f.cell_count(), 0);
        assert_eq!(f.candidate_count(NodeId(0)), 0);
    }

    #[test]
    fn directed_uses_rev_cells() {
        let mut q = Network::new(Direction::Directed);
        let a = q.add_node("a");
        let b = q.add_node("b");
        q.add_edge(a, b);
        let mut h = Network::new(Direction::Directed);
        let u = h.add_node("u");
        let v = h.add_node("v");
        h.add_edge(u, v);
        let (f, _) = build(&q, &h, "true");
        // a→u admits b→v via fwd; b→v admits a→u via rev.
        assert_eq!(f.fwd_cell(a, u, b), &[v]);
        assert_eq!(f.rev_cell(b, v, a), &[u]);
        // The wrong orientation is absent.
        assert!(f.fwd_cell(a, v, b).is_empty());
        assert!(f.rev_cell(b, u, a).is_empty());
    }

    #[test]
    fn directed_and_undirected_eval_counts_comparable() {
        // Directed host 2-cycle u⇄v, directed query a→b: every node
        // passes the degree prefilter, so each of the 2 host edges
        // accounts 2 considered orientations — 4 evals, exactly like the
        // undirected twin (1 undirected host edge would account 2; the
        // 2-cycle doubles it). Before the fix the directed run reported
        // 2, making eval counts incomparable across directedness.
        let mut q = Network::new(Direction::Directed);
        let a = q.add_node("a");
        let b = q.add_node("b");
        q.add_edge(a, b);
        let mut h = Network::new(Direction::Directed);
        let u = h.add_node("u");
        let v = h.add_node("v");
        h.add_edge(u, v);
        h.add_edge(v, u);
        let (_, stats) = build(&q, &h, "true");
        assert_eq!(stats.constraint_evals, 4);
    }

    #[test]
    fn isolated_query_node_base_is_node_admissible_set() {
        let mut q = Network::new(Direction::Undirected);
        q.add_node("lone");
        let (_, h) = fixture();
        let (f, _) = build(&q, &h, "true");
        assert_eq!(f.candidate_count(NodeId(0)), 3);
    }

    #[test]
    fn deadline_truncates_construction() {
        let (q, h) = fixture();
        let p = Problem::new(&q, &h, "true").unwrap();
        let mut d = Deadline::new(Some(std::time::Duration::ZERO));
        // Force immediate observation.
        d.check_now();
        let mut s = SearchStats::default();
        let f = FilterMatrix::build(&p, &mut d, &mut s).unwrap();
        assert!(f.truncated());
    }

    #[test]
    fn type_error_surfaces() {
        let (q, h) = fixture();
        let p = Problem::new(&q, &h, "rEdge.d == \"fast\"").unwrap();
        let mut d = Deadline::unlimited();
        let mut s = SearchStats::default();
        assert!(matches!(
            FilterMatrix::build(&p, &mut d, &mut s),
            Err(ProblemError::Eval(_))
        ));
    }

    #[test]
    fn entry_count_counts_candidates() {
        let (q, h) = fixture();
        let (f, _) = build(&q, &h, "true");
        // Each of the 8 cells holds exactly one candidate here.
        assert_eq!(f.entry_count(), 8);
    }

    #[test]
    fn dense_cells_grow_bitset_mirrors() {
        // Star host: hub adjacent to many leaves ⇒ the cells anchored at
        // the hub are dense and must carry bitset mirrors agreeing with
        // their slices; leaf-anchored cells are sparse and must not.
        let mut h = Network::new(Direction::Undirected);
        let hub = h.add_node("hub");
        let leaves: Vec<NodeId> = (0..CELL_DENSE_MIN + 4)
            .map(|i| h.add_node(format!("l{i}")))
            .collect();
        for &l in &leaves {
            h.add_edge(hub, l);
        }
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        q.add_edge(a, b);
        let (f, _) = build(&q, &h, "true");
        let dense = f.fwd_view(a, hub, b);
        assert_eq!(dense.slice.len(), leaves.len());
        let bits = dense.bits.expect("dense cell must have a bitset mirror");
        assert_eq!(bits.iter().collect::<Vec<_>>(), dense.slice);
        let sparse = f.fwd_view(a, leaves[0], b);
        assert_eq!(sparse.slice, &[hub]);
        assert!(sparse.bits.is_none());
        // Absent cells are empty in both representations.
        let absent = f.fwd_view(b, leaves[0], a);
        assert_eq!(absent.slice, &[hub]); // the symmetric orientation exists
        let no_pair = f.rev_view(a, hub, b);
        assert!(no_pair.slice.is_empty() && no_pair.bits.is_none());
    }

    /// A 4-ring query (several edges, so the scan actually chunks) over
    /// an 8-clique host with varied delays.
    fn ring_over_clique() -> (Network, Network) {
        let mut q = Network::new(Direction::Undirected);
        let qs: Vec<NodeId> = (0..4).map(|i| q.add_node(format!("q{i}"))).collect();
        for i in 0..4 {
            q.add_edge(qs[i], qs[(i + 1) % 4]);
        }
        let mut h = Network::new(Direction::Undirected);
        let hs: Vec<NodeId> = (0..8).map(|i| h.add_node(format!("h{i}"))).collect();
        for i in 0..8 {
            for j in (i + 1)..8 {
                let e = h.add_edge(hs[i], hs[j]);
                h.set_edge_attr(e, "d", ((i * 5 + j) % 30) as f64);
            }
        }
        (q, h)
    }

    #[test]
    fn parallel_build_is_bitwise_identical() {
        let (q, h) = ring_over_clique();
        let p = Problem::new(&q, &h, "rEdge.d <= 20.0").unwrap();
        let mut d = Deadline::unlimited();
        let mut s_seq = SearchStats::default();
        let seq = FilterMatrix::build(&p, &mut d, &mut s_seq).unwrap();
        for threads in [2, 3, 4, 16] {
            let mut d = Deadline::unlimited();
            let mut s_par = SearchStats::default();
            let par = build_pooled(&p, threads, &mut d, &mut s_par).unwrap();
            assert!(seq == par, "layout diverges at {threads} threads");
            assert_eq!(s_seq.constraint_evals, s_par.constraint_evals);
            assert_eq!(s_seq.filter_cells, s_par.filter_cells);
        }
    }

    #[test]
    fn parallel_build_single_edge_query() {
        // Fewer query edges than threads: falls back to one chunk.
        let (q, h) = fixture();
        let p = Problem::new(&q, &h, "rEdge.d < 10.0").unwrap();
        let mut d = Deadline::unlimited();
        let (mut s1, mut s2) = (SearchStats::default(), SearchStats::default());
        let seq = FilterMatrix::build(&p, &mut d, &mut s1).unwrap();
        let par = build_pooled(&p, 8, &mut d, &mut s2).unwrap();
        assert!(seq == par);
        assert_eq!(s1.constraint_evals, s2.constraint_evals);
    }

    #[test]
    fn parallel_build_directed_rev_table() {
        let mut q = Network::new(Direction::Directed);
        let qs: Vec<NodeId> = (0..3).map(|i| q.add_node(format!("q{i}"))).collect();
        q.add_edge(qs[0], qs[1]);
        q.add_edge(qs[1], qs[2]);
        q.add_edge(qs[2], qs[0]);
        let mut h = Network::new(Direction::Directed);
        let hs: Vec<NodeId> = (0..6).map(|i| h.add_node(format!("h{i}"))).collect();
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    h.add_edge(hs[i], hs[j]);
                }
            }
        }
        let p = Problem::new(&q, &h, "true").unwrap();
        let mut d = Deadline::unlimited();
        let (mut s1, mut s2) = (SearchStats::default(), SearchStats::default());
        let seq = FilterMatrix::build(&p, &mut d, &mut s1).unwrap();
        let par = build_pooled(&p, 3, &mut d, &mut s2).unwrap();
        assert!(seq == par);
        assert_eq!(s1.constraint_evals, s2.constraint_evals);
    }

    #[test]
    fn parallel_build_surfaces_eval_errors() {
        let mut q = Network::new(Direction::Undirected);
        let qs: Vec<NodeId> = (0..3).map(|i| q.add_node(format!("q{i}"))).collect();
        for i in 0..3 {
            q.add_edge(qs[i], qs[(i + 1) % 3]);
        }
        // Triangle host so every node passes the degree prefilter and the
        // (ill-typed) constraint actually gets evaluated.
        let mut h = Network::new(Direction::Undirected);
        let hs: Vec<NodeId> = (0..3).map(|i| h.add_node(format!("h{i}"))).collect();
        for i in 0..3 {
            let e = h.add_edge(hs[i], hs[(i + 1) % 3]);
            h.set_edge_attr(e, "d", 5.0);
        }
        let p = Problem::new(&q, &h, "rEdge.d == \"fast\"").unwrap();
        let mut d = Deadline::unlimited();
        let mut s = SearchStats::default();
        assert!(matches!(
            build_pooled(&p, 3, &mut d, &mut s),
            Err(ProblemError::Eval(_))
        ));
    }

    #[test]
    fn pre_expired_deadline_skips_all_work() {
        let (q, h) = fixture();
        let p = Problem::new(&q, &h, "rEdge.d < 10.0").unwrap();
        let mut d = Deadline::new(Some(std::time::Duration::ZERO));
        let mut s = SearchStats::default();
        let f = build_pooled(&p, 4, &mut d, &mut s).unwrap();
        assert!(f.truncated());
        assert_eq!(f.cell_count(), 0);
        assert_eq!(s.constraint_evals, 0, "no evaluation before the check");
        assert_eq!(s.filter_cells, 0);
    }

    #[test]
    fn one_thread_pooled_build_is_inline() {
        // One thread scans on the caller: the pool stays empty and the
        // matrix is the sequential build's.
        let (q, h) = ring_over_clique();
        let p = Problem::new(&q, &h, "rEdge.d <= 20.0").unwrap();
        let mut d = Deadline::unlimited();
        let (mut s1, mut s2) = (SearchStats::default(), SearchStats::default());
        let seq = FilterMatrix::build(&p, &mut d, &mut s1).unwrap();
        let mut pool = WorkerPool::new();
        let one = FilterMatrix::build_par_pooled(&p, None, 1, &mut d, &mut s2, &mut pool).unwrap();
        assert_eq!(pool.spawned_total(), 0, "a one-thread build spawned");
        assert!(one == seq);
        assert_eq!(s1.constraint_evals, s2.constraint_evals);
    }

    #[test]
    fn restricted_pooled_build_is_bitwise_identical() {
        // Allow every other host node per query node: the restricted scan
        // must chunk exactly like the sequential restricted build.
        let (q, h) = ring_over_clique();
        let p = Problem::new(&q, &h, "rEdge.d <= 20.0").unwrap();
        let allowed: Vec<NodeBitSet> = q
            .node_ids()
            .map(|v| {
                NodeBitSet::from_iter(
                    h.node_count(),
                    h.node_ids().filter(|r| (r.index() + v.index()) % 2 == 0),
                )
            })
            .collect();
        let mut d = Deadline::unlimited();
        let mut s_seq = SearchStats::default();
        let seq = FilterMatrix::build_restricted(&p, &allowed, &mut d, &mut s_seq).unwrap();
        assert!(seq.cell_count() > 0, "restriction left nothing to compare");
        let mut pool = WorkerPool::new();
        for threads in [2, 3, 4] {
            let mut s_par = SearchStats::default();
            let par = FilterMatrix::build_par_pooled(
                &p,
                Some(&allowed),
                threads,
                &mut d,
                &mut s_par,
                &mut pool,
            )
            .unwrap();
            assert!(
                seq == par,
                "restricted layout diverges at {threads} threads"
            );
            assert_eq!(s_seq.constraint_evals, s_par.constraint_evals);
        }
    }

    /// Patch `f` (built against the pre-mutation host) with `dirty`
    /// against the post-mutation host, returning the outcome.
    fn patch(
        f: &mut FilterMatrix,
        q: &Network,
        h: &Network,
        c: &str,
        dirty: &[NodeId],
    ) -> PatchOutcome {
        let p = Problem::new(q, h, c).unwrap();
        let mut d = Deadline::unlimited();
        let mut s = SearchStats::default();
        f.patch(&p, dirty, &mut d, &mut s).unwrap()
    }

    #[test]
    fn patch_removal_matches_fresh_build() {
        let (q, mut h) = fixture();
        let c = "rEdge.d < 60.0";
        let (mut patched, _) = build(&q, &h, c);
        // Edge (v, w) leaves the constraint: its candidates must go.
        h.set_edge_attr(netgraph::EdgeId(1), "d", 100.0);
        let outcome = patch(&mut patched, &q, &h, c, &[NodeId(1), NodeId(2)]);
        assert_eq!(outcome, PatchOutcome::Patched);
        let (fresh, _) = build(&q, &h, c);
        assert!(patched == fresh, "patched layout diverges from fresh build");
        assert_eq!(patched.candidate_count(NodeId(0)), 2);
    }

    #[test]
    fn patch_with_empty_dirty_is_a_noop() {
        let (q, h) = fixture();
        let (mut f, _) = build(&q, &h, "rEdge.d < 60.0");
        let (orig, _) = build(&q, &h, "rEdge.d < 60.0");
        assert_eq!(
            patch(&mut f, &q, &h, "rEdge.d < 60.0", &[]),
            PatchOutcome::Patched
        );
        assert!(f == orig);
    }

    #[test]
    fn patch_detects_an_added_candidate() {
        let (q, mut h) = fixture();
        let c = "rEdge.d < 10.0";
        // Only (u, v) matches at build time. Edge (v, w) then drops under
        // the bound: its endpoints gain hits the frozen arena never held —
        // a patch must refuse.
        let (mut f, _) = build(&q, &h, c);
        h.set_edge_attr(netgraph::EdgeId(1), "d", 5.0);
        assert_eq!(
            patch(&mut f, &q, &h, c, &[NodeId(1), NodeId(2)]),
            PatchOutcome::NeedsRebuild
        );
    }

    #[test]
    fn patch_handles_degree_zero_base_rows() {
        let mut q = Network::new(Direction::Undirected);
        q.add_node("lone");
        let (_, mut h) = fixture();
        for r in 0..3 {
            h.set_node_attr(NodeId(r), "cpu", 8.0);
        }
        let c = "rNode.cpu >= 4.0";
        let (f, _) = build(&q, &h, c);
        assert_eq!(f.candidate_count(NodeId(0)), 3);
        // Removal: node w drops below the bound.
        h.set_node_attr(NodeId(2), "cpu", 1.0);
        let mut f2 = f.clone();
        assert_eq!(
            patch(&mut f2, &q, &h, c, &[NodeId(2)]),
            PatchOutcome::Patched
        );
        let (fresh, _) = build(&q, &h, c);
        assert!(f2 == fresh);
        assert_eq!(f2.candidate_count(NodeId(0)), 2);
        // Addition: it climbs back up — the base row cannot grow in place.
        let mut h3 = h.clone();
        h3.set_node_attr(NodeId(2), "cpu", 9.0);
        assert_eq!(
            patch(&mut f2, &q, &h3, c, &[NodeId(2)]),
            PatchOutcome::NeedsRebuild
        );
    }

    #[test]
    fn patch_refuses_truncated_and_reshaped_inputs() {
        let (q, h) = fixture();
        let p = Problem::new(&q, &h, "true").unwrap();
        let mut d = Deadline::new(Some(std::time::Duration::ZERO));
        d.check_now();
        let mut s = SearchStats::default();
        let mut truncated = FilterMatrix::build(&p, &mut d, &mut s).unwrap();
        assert!(truncated.truncated());
        assert_eq!(
            patch(&mut truncated, &q, &h, "true", &[NodeId(0)]),
            PatchOutcome::NeedsRebuild
        );
        // A host that grew a node is a shape change, not a patch.
        let (mut f, _) = build(&q, &h, "true");
        let mut grown = h.clone();
        grown.add_node("x");
        assert_eq!(
            patch(&mut f, &q, &grown, "true", &[NodeId(3)]),
            PatchOutcome::NeedsRebuild
        );
    }

    #[test]
    fn patch_directed_rev_table_matches_fresh_build() {
        let mut q = Network::new(Direction::Directed);
        let qa = q.add_node("a");
        let qb = q.add_node("b");
        q.add_edge(qa, qb);
        let mut h = Network::new(Direction::Directed);
        let hs: Vec<NodeId> = (0..4).map(|i| h.add_node(format!("h{i}"))).collect();
        for i in 0..4usize {
            for j in 0..4usize {
                if i != j {
                    let e = h.add_edge(hs[i], hs[j]);
                    h.set_edge_attr(e, "d", 5.0);
                }
            }
        }
        let c = "rEdge.d < 10.0";
        let (mut f, _) = build(&q, &h, c);
        // Every edge incident to h3 leaves the constraint.
        let edges: Vec<_> = h.edge_refs().collect();
        for e in edges {
            if e.src == hs[3] || e.dst == hs[3] {
                h.set_edge_attr(e.id, "d", 50.0);
            }
        }
        let dirty: Vec<NodeId> = hs.clone();
        assert_eq!(patch(&mut f, &q, &h, c, &dirty), PatchOutcome::Patched);
        let (fresh, _) = build(&q, &h, c);
        assert!(
            f == fresh,
            "directed patch layout diverges from fresh build"
        );
    }

    #[test]
    fn patch_recrosses_the_dense_cell_threshold() {
        // Hub cell starts dense (bitset mirror); removals push it below
        // CELL_DENSE_MIN and the mirror must disappear exactly as in a
        // fresh build.
        let mut h = Network::new(Direction::Undirected);
        let hub = h.add_node("hub");
        let leaves: Vec<NodeId> = (0..CELL_DENSE_MIN + 2)
            .map(|i| h.add_node(format!("l{i}")))
            .collect();
        for &l in &leaves {
            let e = h.add_edge(hub, l);
            h.set_edge_attr(e, "d", 5.0);
        }
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        q.add_edge(a, b);
        let c = "rEdge.d < 10.0";
        let (mut f, _) = build(&q, &h, c);
        assert!(f.fwd_view(a, hub, b).bits.is_some(), "starts dense");
        // Cut enough leaves to drop below the density threshold.
        let mut dirty = vec![hub];
        let edges: Vec<_> = h.edge_refs().take(4).collect();
        for e in edges {
            h.set_edge_attr(e.id, "d", 50.0);
            dirty.push(e.dst);
        }
        assert_eq!(patch(&mut f, &q, &h, c, &dirty), PatchOutcome::Patched);
        let (fresh, _) = build(&q, &h, c);
        assert!(f == fresh);
        assert!(f.fwd_view(a, hub, b).bits.is_none(), "mirror dropped");
    }

    #[test]
    fn csr_matches_reference_on_fixture() {
        let (q, h) = fixture();
        let p = Problem::new(&q, &h, "rEdge.d < 60.0").unwrap();
        let mut d = Deadline::unlimited();
        let (mut s1, mut s2) = (SearchStats::default(), SearchStats::default());
        let csr = FilterMatrix::build(&p, &mut d, &mut s1).unwrap();
        let href = reference::HashFilterMatrix::build(&p, &mut d, &mut s2).unwrap();
        assert_eq!(s1.constraint_evals, s2.constraint_evals);
        assert_eq!(csr.cell_count(), href.cell_count());
        assert_eq!(csr.entry_count(), href.entry_count());
        for vj in q.node_ids() {
            for vi in q.node_ids() {
                for rj in h.node_ids() {
                    assert_eq!(csr.fwd_cell(vj, rj, vi), href.fwd_cell(vj, rj, vi));
                    assert_eq!(csr.rev_cell(vj, rj, vi), href.rev_cell(vj, rj, vi));
                }
            }
        }
    }
}
