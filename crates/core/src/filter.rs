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
//! exist) and, in `rj`, confined to the base set `base[vj]`: every anchor
//! of a match is a base member of its query node. The matrix exploits that
//! shape instead of hashing:
//!
//! * the ordered query pairs `(vj, vi)` that can ever hold cells are known
//!   before any constraint is evaluated (one per directed query edge, two
//!   per undirected edge), so a dense `nq × nq` table maps `(vj, vi)` to a
//!   small *pair slot* — or to "no cells" for non-adjacent pairs;
//! * per pair slot, one CSR row per member of `base[vj]`, in ascending
//!   order, points into one contiguous candidate arena (`Vec<NodeId>`,
//!   each cell's span sorted ascending). Row `k` belongs to the `k`-th
//!   member; per query node, the base set's words sit beside prefix counts
//!   of their members (shared by both tables), so `rj`'s row is one word
//!   test, one prefix read and one popcount, and `rj ∉ base[vj]` is the
//!   empty cell.
//!
//! [`FilterMatrix::fwd_cell`]/[`FilterMatrix::rev_cell`] are therefore a
//! pair-slot read, a rank and two offset reads — O(1), no hashing — and
//! construction is two passes: evaluate-and-collect, then counting-sort
//! into the arena. The layout holds `Σ_slots (|base[vj]| + 1)` offsets and
//! `Σ_slots |base[vj]|` mirror indices beside the `nq · (⌈|VR|/64⌉ + 1)`
//! rank words, so a hierarchical build over a few surviving host nodes
//! allocates for those nodes and its hits, not for all of `VR`. Cells
//! holding at least [`CELL_DENSE_MIN`] candidates additionally
//! materialize a [`NodeBitSet`] mirror ([`FilterMatrix::fwd_view`]),
//! which the search's inner loop intersects word-by-word into per-depth
//! scratch masks (see `ecf::fill_candidates`) — the hot path allocates
//! nothing and probes no hash table.
//!
//! For directed graphs only the matching orientation is recorded
//! (footnote 3): the forward table covers query edges `vj → vi` and a
//! reverse table covers `vi → vj`, and the search intersects whichever
//! apply. This replaces the paper's negative filter `F̄` with an exact
//! equivalent: both encode "which reverse-direction candidates are
//! (in)admissible", and a positive encoding needs no subtraction pass.
//!
//! ## The evaluation scan
//!
//! A (query edge, host edge) pair needs evaluating only in an orientation
//! whose endpoints both pass the node prefilter (degree gate plus node
//! constraint, scoped to the allowed sets in a restricted build). So for
//! a query edge `(a, b)` the scan walks the adjacency of each admitted
//! anchor `x` of `a` — in-edges too on directed hosts, whose reverse
//! orientation direction alone rejects but which the scan counts as
//! considered (see [`FilterMatrix::build`]) — and marks every host edge
//! whose other end is admitted for `b`. It then evaluates the marked
//! edges in edge-id order, the order the host stores edges and their
//! attributes in. That evaluates exactly the pairs a sweep over every
//! host edge would, in the same order, so hits and `constraint_evals` are
//! the same, in `O(Σ deg x)` plus a `⌈|ER|/64⌉`-word sweep of the marks
//! per query edge instead of `O(|ER|)`.
//!
//! ## Parallel construction
//!
//! The evaluation scan is embarrassingly parallel over *query edges*:
//! distinct query edges populate distinct `(vj, vi)` pair slots, so their
//! cells are disjoint by construction. [`FilterMatrix::build_par_pooled`]
//! exploits that: the pair-slot tables are fixed up front (in query-edge
//! order, before any evaluation), the query-edge list is split into
//! contiguous chunks — one job each on a caller-held
//! [`WorkerPool`] — and every job streams `(pair slot, anchor,
//! candidate)` hits and partial base sets into its own buffers. The
//! stitch concatenates the chunk outputs in chunk order and OR-merges the
//! base sets (bitwise OR commutes, so job order cannot matter); the rank
//! index is built from the merged sets, and the deterministic
//! counting-sort pass, whose result depends only on the set of hits and
//! the base sets, lays out the same ranked arena — the pooled build is
//! bitwise-identical to [`FilterMatrix::build`] (verified by
//! `tests/prop_layout.rs` via the `PartialEq` impl, which compares the raw
//! slot/offset/arena/bitset and base storage). Per-job eval counters sum
//! to the sequential total. It is the only builder: a one-thread build
//! scans inline and never touches the pool, so [`FilterMatrix::build`]
//! and [`FilterMatrix::build_restricted`] are one-thread calls of it.
//!
//! The seed's `FxHashMap`-keyed implementation survives as
//! [`reference::HashFilterMatrix`] for the `abl_filter_layout` ablation
//! benchmark and the layout-equivalence property test
//! (`tests/prop_layout.rs`).

use crate::deadline::Deadline;
use crate::pool::WorkerPool;
use crate::problem::{Problem, ProblemError};
use crate::stats::SearchStats;
use netgraph::{EdgeId, EdgeRef, NodeBitSet, NodeId};
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

/// The per-query-node base sets plus a rank index over them: the row
/// domain both cell tables share. Row `k` of a pair slot `(vj, vi)`
/// belongs to the `k`-th member of `base[vj]` in ascending order.
///
/// `PartialEq` compares the sets and their index (a function of the
/// sets).
#[derive(Clone, PartialEq)]
struct RankedBase {
    /// `base[v]` (expression (1)).
    sets: Vec<NodeBitSet>,
    /// Index entries per query node: one per bitset word plus a closing
    /// one.
    stride: usize,
    /// `index[v * stride + w]`: word `w` of `sets[v]` beside the number
    /// of members below host id `64 · w`, so a rank is one load and one
    /// popcount; the closing entry of each stride counts all of `sets[v]`.
    index: Vec<RankWord>,
}

/// One word of a base set and the number of set members before it.
#[derive(Clone, Copy, PartialEq)]
struct RankWord {
    bits: u64,
    below: u32,
}

impl RankedBase {
    /// Index `sets` (each of host-node capacity `nr`) in
    /// O(nq · ⌈nr/64⌉).
    fn new(sets: Vec<NodeBitSet>, nr: usize) -> RankedBase {
        let stride = nr.div_ceil(64) + 1;
        let mut index = Vec::with_capacity(sets.len() * stride);
        for set in &sets {
            let mut below = 0u32;
            for &bits in set.words() {
                index.push(RankWord { bits, below });
                below += bits.count_ones();
            }
            index.push(RankWord { bits: 0, below });
        }
        RankedBase {
            sets,
            stride,
            index,
        }
    }

    /// Rank of `r` among the members of `base[v]`, or `None` when
    /// `r ∉ base[v]`: one word test, one prefix read and one popcount.
    #[inline]
    fn rank(&self, v: NodeId, r: NodeId) -> Option<usize> {
        let word = self.index[v.index() * self.stride + r.index() / 64];
        let bit = 1u64 << (r.index() % 64);
        if word.bits & bit == 0 {
            return None;
        }
        Some(word.below as usize + (word.bits & (bit - 1)).count_ones() as usize)
    }

    /// `|base[v]|`.
    #[inline]
    fn len(&self, v: NodeId) -> usize {
        self.index[v.index() * self.stride + self.stride - 1].below as usize
    }
}

/// Dense `(vj, vi)` → pair-slot table. Slots are fixed *before* any
/// constraint is evaluated — assigned in query-edge order, so the
/// sequential and parallel builds agree on the numbering by
/// construction; each slot's first row is filled in by the layout.
#[derive(Clone, PartialEq)]
struct PairSlots {
    nq: usize,
    /// `pair[vj * nq + vi]`: the slot of the ordered pair `(vj, vi)` and
    /// its first row — one load for both on the lookup path. The slot is
    /// `u32::MAX` when the pair bears no cells.
    pair: Vec<Pair>,
    /// `anchor[s]`: the `vj` of pair slot `s`, whose base set is the
    /// slot's row domain.
    anchor: Vec<NodeId>,
}

#[derive(Clone, Copy, PartialEq)]
struct Pair {
    slot: u32,
    first_row: u32,
}

impl PairSlots {
    fn new(nq: usize) -> Self {
        PairSlots {
            nq,
            pair: vec![
                Pair {
                    slot: u32::MAX,
                    first_row: 0,
                };
                nq * nq
            ],
            anchor: Vec::new(),
        }
    }

    /// Register the ordered query pair `(vj, vi)` as cell-bearing.
    fn add_pair(&mut self, vj: NodeId, vi: NodeId) {
        let idx = vj.index() * self.nq + vi.index();
        if self.pair[idx].slot == u32::MAX {
            self.pair[idx].slot = self.anchor.len() as u32;
            self.anchor.push(vj);
        }
    }

    /// Slot and first row of `(vj, vi)`.
    #[inline]
    fn get(&self, vj: NodeId, vi: NodeId) -> Pair {
        self.pair[vj.index() * self.nq + vi.index()]
    }
}

/// One recorded match `r2 ∈ F[(vj, rj, vi)]`, with `slot` the pair slot
/// of `(vj, vi)` in the table it belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Hit {
    slot: u32,
    rj: NodeId,
    r2: NodeId,
}

/// One direction's cells: pair-slot table, CSR rows ranked within the
/// base sets, and one candidate arena.
///
/// `PartialEq` compares the raw storage (slots with their first rows,
/// offsets, arena, bitset mirrors) — two tables are equal only when they
/// are laid out identically, which is what the parallel-build
/// determinism and patch properties assert.
#[derive(Clone, PartialEq)]
struct CellTable {
    /// Host node count: the capacity of every bitset mirror.
    nr: usize,
    /// Pair slots; slot `s` owns rows `first_row .. first_row +
    /// |base[anchor[s]]|`, one per base member, slot after slot.
    slots: PairSlots,
    /// `offsets[first_row + s + k] .. offsets[first_row + s + k + 1]`: the
    /// arena span of the cell in row `k` of slot `s`. Each slot closes
    /// with one extra entry, so there are `Σ_s (|base[anchor[s]]| + 1)`.
    offsets: Vec<u32>,
    /// All candidates, cell spans sorted ascending.
    arena: Vec<NodeId>,
    /// `bit_idx[first_row + k]`: index into `bits` of the mirror of
    /// row `k` of slot `s`, or `u32::MAX`; `Σ_s |base[anchor[s]]|` entries.
    bit_idx: Vec<u32>,
    /// Bitset mirrors of the dense cells.
    bits: Vec<NodeBitSet>,
    /// Number of non-empty cells, counted once during construction.
    ncells: usize,
}

impl CellTable {
    /// Counting-sort a hit stream into the ranked CSR layout, in
    /// O(hits + Σ_s |base[anchor[s]]|). Deterministic: the layout depends
    /// only on the set of hits (each span is sorted afterwards), so any
    /// scan that produces the same hits, in any order, produces a
    /// bitwise-identical table. Every hit's anchor must be in its base
    /// set.
    fn from_hits(slots: PairSlots, nr: usize, base: &RankedBase, hits: &[Hit]) -> CellTable {
        let mut first_row = Vec::with_capacity(slots.anchor.len());
        let mut nrows = 0;
        for &vj in &slots.anchor {
            first_row.push(nrows);
            nrows += base.len(vj);
        }
        let row_of: Vec<u32> = hits
            .iter()
            .map(|h| {
                let rank = base
                    .rank(slots.anchor[h.slot as usize], h.rj)
                    .expect("a hit's anchor is in its base set");
                (first_row[h.slot as usize] + rank) as u32
            })
            .collect();
        let mut len = vec![0u32; nrows];
        for &row in &row_of {
            len[row as usize] += 1;
        }
        let mut cursor: Vec<u32> = len
            .iter()
            .scan(0, |at, &n| {
                *at += n;
                Some(*at - n)
            })
            .collect();
        let mut arena = vec![NodeId(u32::MAX); hits.len()];
        for (h, &row) in hits.iter().zip(&row_of) {
            let c = &mut cursor[row as usize];
            arena[*c as usize] = h.r2;
            *c += 1;
        }
        // Sort each cell span so the search and external callers can rely
        // on ascending order. Host edges are unique per node pair, so a
        // span cannot contain duplicates.
        let mut at = 0;
        for &n in &len {
            let span = &mut arena[at..at + n as usize];
            span.sort_unstable();
            debug_assert!(span.windows(2).all(|w| w[0] < w[1]), "duplicate candidates");
            at += n as usize;
        }
        let mirror = |_: usize, span: &[NodeId]| NodeBitSet::from_iter(nr, span.iter().copied());
        CellTable::assemble(slots, nr, base, arena, &len, mirror)
    }

    /// Lay out `arena` — grouped by row in row order, each span sorted,
    /// row `i` holding `len[i]` candidates — as the ranked table over
    /// `base`: first rows, offsets, the cell count, and `mirror(i, span)`
    /// for every row dense enough to carry a bitset mirror.
    fn assemble(
        mut slots: PairSlots,
        nr: usize,
        base: &RankedBase,
        arena: Vec<NodeId>,
        len: &[u32],
        mut mirror: impl FnMut(usize, &[NodeId]) -> NodeBitSet,
    ) -> CellTable {
        let mut first_row = Vec::with_capacity(slots.anchor.len());
        let mut offsets = Vec::with_capacity(len.len() + slots.anchor.len());
        let mut bit_idx = vec![u32::MAX; len.len()];
        let mut bits: Vec<NodeBitSet> = Vec::new();
        let (mut row, mut at, mut ncells) = (0usize, 0usize, 0usize);
        for &vj in &slots.anchor {
            first_row.push(row as u32);
            for _ in 0..base.len(vj) {
                offsets.push(at as u32);
                let span = &arena[at..at + len[row] as usize];
                if !span.is_empty() {
                    ncells += 1;
                }
                if span.len() >= CELL_DENSE_MIN {
                    bit_idx[row] = bits.len() as u32;
                    bits.push(mirror(row, span));
                }
                at += span.len();
                row += 1;
            }
            offsets.push(at as u32);
        }
        debug_assert_eq!(
            (row, at),
            (len.len(), arena.len()),
            "rows and arena disagree"
        );
        for pair in slots.pair.iter_mut().filter(|p| p.slot != u32::MAX) {
            pair.first_row = first_row[pair.slot as usize];
        }
        CellTable {
            nr,
            slots,
            offsets,
            arena,
            bit_idx,
            bits,
            ncells,
        }
    }

    /// Cell `(vj, rj, vi)`: empty when the pair bears no cells in this
    /// table or `rj ∉ base[vj]`, else row `rank(rj)` of the pair's slot.
    #[inline]
    fn view(&self, base: &RankedBase, vj: NodeId, rj: NodeId, vi: NodeId) -> CellView<'_> {
        let pair = self.slots.get(vj, vi);
        let rank = if pair.slot == u32::MAX {
            None
        } else {
            base.rank(vj, rj)
        };
        let Some(rank) = rank else {
            return CellView {
                slice: &[],
                bits: None,
            };
        };
        let row = pair.first_row as usize + rank;
        let o = row + pair.slot as usize;
        let bi = self.bit_idx[row];
        CellView {
            slice: &self.arena[self.offsets[o] as usize..self.offsets[o + 1] as usize],
            bits: (bi != u32::MAX).then(|| &self.bits[bi as usize]),
        }
    }

    /// Number of non-empty cells (cached at construction; O(1) like the
    /// hash layout's map length).
    fn cell_count(&self) -> usize {
        self.ncells
    }

    /// The removal pass of [`FilterMatrix::patch`]: drop every entry a
    /// node of `dirty` touches, as anchor or candidate, unless `keep`
    /// confirmed it, compacting the arena in place (still grouped by row,
    /// spans still sorted). Returns each row's slot, anchor and surviving
    /// length, in row order.
    fn retain(
        &mut self,
        base: &RankedBase,
        dirty: &NodeBitSet,
        keep: &FxHashSet<Hit>,
    ) -> Vec<(u32, NodeId, u32)> {
        let CellTable {
            slots,
            offsets,
            arena,
            bit_idx,
            ..
        } = self;
        let mut rows = Vec::with_capacity(bit_idx.len());
        let mut write = 0;
        for (s, &vj) in slots.anchor.iter().enumerate() {
            let slot = s as u32;
            for rj in base.sets[vj.index()].iter() {
                let o = rows.len() + s;
                let rj_dirty = dirty.contains(rj);
                let start = write;
                for i in offsets[o] as usize..offsets[o + 1] as usize {
                    let r2 = arena[i];
                    if !(rj_dirty || dirty.contains(r2)) || keep.contains(&Hit { slot, rj, r2 }) {
                        arena[write] = r2;
                        write += 1;
                    }
                }
                rows.push((slot, rj, (write - start) as u32));
            }
        }
        arena.truncate(write);
        rows
    }
}

/// Raw output of one evaluation-scan chunk: streamed cell hits, partial
/// base sets, and local counters. Chunk outputs stitched in chunk order
/// reproduce the sequential scan exactly.
struct ScanOut {
    fwd_hits: Vec<Hit>,
    rev_hits: Vec<Hit>,
    base: Vec<NodeBitSet>,
    evals: u64,
    truncated: bool,
}

/// The first-stage scan for `qedges`, streaming hits. Per query edge
/// `(a, b)` it first marks, from the adjacency of every admitted anchor
/// `x ∈ node_pass[a]` (in-edges included on a directed host), each host
/// edge whose other end is admitted for `b`; those are exactly the host
/// edges with an orientation whose endpoints both pass the node
/// prefilter. It then evaluates the marked edges in edge-id order, each
/// orientation whose endpoints pass, so the hits, their order and
/// `constraint_evals` are those of a sweep over every host edge, at
/// `O(Σ_{x ∈ node_pass[a]} deg x)` plus a word-level sweep of the marks
/// (`⌈|ER|/64⌉` words) per query edge instead of `O(|ER|)`. Id order
/// matters for speed: host edges and their attributes are stored in it,
/// and evaluating in adjacency order instead halved the evaluation rate
/// of a flat build on a dense 296-node host.
///
/// This is the shared worker body of both the sequential and the
/// parallel build — identical logic, so chunked runs concatenate to
/// exactly the sequential hit stream.
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
    let host = problem.host;
    let undirected = problem.query.is_undirected();
    let mut out = ScanOut {
        fwd_hits: Vec::new(),
        rev_hits: Vec::new(),
        base: (0..nq).map(|_| NodeBitSet::new(nr)).collect(),
        evals: 0,
        truncated: false,
    };
    // One bit per host edge id, set while marking a query edge's
    // candidates and cleared by the sweep that evaluates them.
    let mut marked = vec![0u64; host.edge_count().div_ceil(64)];
    'outer: for qe in qedges {
        let (a, b) = (qe.src, qe.dst);
        let (pass_a, pass_b) = (&node_pass[a.index()], &node_pass[b.index()]);
        // A match `a→u, b→v` fills `(a, u, b) ← v` forward and `(b, v, a)
        // ← u` forward when undirected, in the reverse table when not.
        let ab = fwd_slots.get(a, b).slot;
        let ba = if undirected {
            fwd_slots.get(b, a).slot
        } else {
            rev_slots.get(b, a).slot
        };
        debug_assert!(ab != u32::MAX && ba != u32::MAX, "unregistered pair");
        let record = |out: &mut ScanOut, u: NodeId, v: NodeId| {
            out.fwd_hits.push(Hit {
                slot: ab,
                rj: u,
                r2: v,
            });
            let back = if undirected {
                &mut out.fwd_hits
            } else {
                &mut out.rev_hits
            };
            back.push(Hit {
                slot: ba,
                rj: v,
                r2: u,
            });
            out.base[a.index()].insert(u);
            out.base[b.index()].insert(v);
        };
        for x in pass_a.iter() {
            if deadline.expired() {
                out.truncated = true;
                break 'outer;
            }
            let mut mark = |adjacency: &[(NodeId, EdgeId)]| {
                for &(y, e) in adjacency {
                    if pass_b.contains(y) {
                        marked[e.index() / 64] |= 1 << (e.index() % 64);
                    }
                }
            };
            mark(host.neighbors(x));
            if !undirected {
                mark(host.in_neighbors(x));
            }
        }
        for (w, word) in marked.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let e = EdgeId((w * 64) as u32 + bits.trailing_zeros());
                bits &= bits - 1;
                if deadline.expired() {
                    out.truncated = true;
                    break 'outer;
                }
                let (u, v) = host.edge_endpoints(e);
                // Orientation 1: a→u, b→v.
                if pass_a.contains(u) && pass_b.contains(v) {
                    out.evals += 1;
                    if problem.edge_ok(qe.id, a, b, e, u, v)? {
                        record(&mut out, u, v);
                    }
                }
                // Orientation 2: a→v, b→u. A real evaluation for
                // undirected hosts; for directed hosts the orientation is
                // rejected by direction alone, but it is still one
                // considered orientation of the scan, so the counter is
                // bumped either way to keep directed and undirected eval
                // totals comparable.
                if pass_a.contains(v) && pass_b.contains(u) {
                    out.evals += 1;
                    if undirected && problem.edge_ok(qe.id, a, b, e, v, u)? {
                        record(&mut out, v, u);
                    }
                }
            }
        }
    }
    Ok(out)
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
    /// every host node that anchors at least one edge match, or that
    /// passes the node constraint for edge-less query nodes. Ranked: it is
    /// the row domain of both tables, and its sizes are the Lemma-1 keys.
    base: RankedBase,
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
    base: &RankedBase,
    keep: &mut FxHashSet<Hit>,
    vj: NodeId,
    rj: NodeId,
    vi: NodeId,
    r2: NodeId,
) -> bool {
    if table
        .view(base, vj, rj, vi)
        .slice
        .binary_search(&r2)
        .is_err()
    {
        return false;
    }
    keep.insert(Hit {
        slot: table.slots.get(vj, vi).slot,
        rj,
        r2,
    });
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
    /// (query edge, host edge) pair whose endpoints pass the node
    /// prefilter, polling `deadline`; on expiry returns a matrix flagged
    /// [`FilterMatrix::truncated`].
    ///
    /// Cost: the prefilter examines every (query node, host node) pair;
    /// the scan then walks, per query edge `(a, b)`, the adjacency of the
    /// admitted anchors of `a` and sweeps `⌈|ER|/64⌉` mark words —
    /// `O(|ER|)` per query edge at worst, less when the prefilter admits
    /// few anchors; the layout is
    /// `O(hits + Σ_slots |base[vj]| + nq · ⌈|VR|/64⌉)`.
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
    /// evaluated. With `allowed` covering every solution (the hierarchy
    /// refinement's guarantee) the restricted matrix yields exactly the
    /// same search results as the full build; each of its cells is the
    /// full build's cell with anchors and candidates cut to `allowed`.
    ///
    /// Cost: output-sensitive up to word-level bitset sweeps. Admission
    /// examines `Σ |allowed[v]|` pairs, the scan walks the adjacency of
    /// the admitted anchors only (`O(Σ_{x admitted for a} deg x)` per
    /// query edge `(a, b)`, plus a sweep of `⌈|ER|/64⌉` mark words), and
    /// the layout allocates `O(hits + Σ_slots |base[vj]|)` words beside
    /// `O(nq · ⌈|VR|/64⌉)` words of base sets and rank index — nothing
    /// per host node.
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
    /// layout, same eval counters, same base sets — because the chunks
    /// together record the same hits and base sets, and the counting-sort
    /// pass depends on nothing else. `threads <= 1`, or a query with a
    /// single edge, scans inline on the calling thread and never touches
    /// the pool.
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
            let base = RankedBase::new((0..nq).map(|_| NodeBitSet::new(nr)).collect(), nr);
            return Ok(FilterMatrix {
                fwd: CellTable::from_hits(PairSlots::new(nq), nr, &base, &[]),
                rev: CellTable::from_hits(PairSlots::new(nq), nr, &base, &[]),
                base,
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
        let mut fwd_hits: Vec<Hit> = Vec::new();
        let mut rev_hits: Vec<Hit> = Vec::new();
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

        let base = RankedBase::new(base, nr);
        let fwd = CellTable::from_hits(fwd_slots, nr, &base, &fwd_hits);
        let rev = CellTable::from_hits(rev_slots, nr, &base, &rev_hits);
        stats.filter_cells = (fwd.cell_count() + rev.cell_count()) as u64;
        Ok(FilterMatrix {
            fwd,
            rev,
            base,
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
        self.base.len(v)
    }

    /// Base candidate set for query node `v` (expression (1)).
    #[inline]
    pub fn base(&self, v: NodeId) -> &NodeBitSet {
        &self.base.sets[v.index()]
    }

    /// Cell `F[(vj, rj, vi)]` for query edge `vj → vi` (or the undirected
    /// edge `{vj, vi}`): candidates for `vi`, sorted ascending. Empty
    /// slice when absent. O(1), no hashing: a pair-slot read, `rj`'s rank
    /// in `base(vj)` (one word test, one prefix read, one popcount) and
    /// the row's offset reads.
    #[inline]
    pub fn fwd_cell(&self, vj: NodeId, rj: NodeId, vi: NodeId) -> &[NodeId] {
        self.fwd.view(&self.base, vj, rj, vi).slice
    }

    /// Reverse cell for query edge `vi → vj` in directed problems:
    /// candidates for `vi` given `vj → rj`. O(1), as for
    /// [`FilterMatrix::fwd_cell`].
    #[inline]
    pub fn rev_cell(&self, vj: NodeId, rj: NodeId, vi: NodeId) -> &[NodeId] {
        self.rev.view(&self.base, vj, rj, vi).slice
    }

    /// [`CellView`] of a forward cell: slice plus bitset mirror when the
    /// cell is dense. The search's intersection loop consumes these.
    #[inline]
    pub fn fwd_view(&self, vj: NodeId, rj: NodeId, vi: NodeId) -> CellView<'_> {
        self.fwd.view(&self.base, vj, rj, vi)
    }

    /// [`CellView`] of a reverse cell.
    #[inline]
    pub fn rev_view(&self, vj: NodeId, rj: NodeId, vi: NodeId) -> CellView<'_> {
        self.rev.view(&self.base, vj, rj, vi)
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
    ///   produces is removed in place (arena compaction), and the base
    ///   sets, their rank index, the ranked rows and the bitset mirrors
    ///   are re-derived from the surviving entries;
    /// * a re-scanned hit **absent** from the frozen arena is an
    ///   addition — the method returns [`PatchOutcome::NeedsRebuild`]
    ///   without completing the mutation, and the caller must discard
    ///   this matrix and build fresh (additions cannot be spliced into
    ///   a frozen CSR arena).
    ///
    /// On [`PatchOutcome::Patched`] the matrix is `PartialEq`-identical
    /// to a fresh [`FilterMatrix::build`] at the new epoch: the layout is
    /// a pure function of the hit set and the base sets, and the removal
    /// pass lays the compacted arena out over the surviving base sets with
    /// the same step a fresh build ends with. Host
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
        if self.truncated || self.fwd.slots.nq != nq || self.fwd.nr != nr {
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
        let mut keep_fwd: FxHashSet<Hit> = FxHashSet::default();
        let mut keep_rev: FxHashSet<Hit> = FxHashSet::default();
        let base = &self.base;

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
                        if !confirm_hit(&self.fwd, base, &mut keep_fwd, a, u, b, v) {
                            return Ok(PatchOutcome::NeedsRebuild);
                        }
                        let kept = if undirected {
                            confirm_hit(&self.fwd, base, &mut keep_fwd, b, v, a, u)
                        } else {
                            confirm_hit(&self.rev, base, &mut keep_rev, b, v, a, u)
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
                        && (!confirm_hit(&self.fwd, base, &mut keep_fwd, a, v, b, u)
                            || !confirm_hit(&self.fwd, base, &mut keep_fwd, b, u, a, v))
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
                let was = base.sets[v.index()].contains(r);
                if now && !was {
                    return Ok(PatchOutcome::NeedsRebuild);
                }
                if !now && was {
                    deg0_removals.push((v, r));
                }
            }
        }

        // Every addition check passed — mutate. Removal pass: keep every
        // entry no dirty node touches plus every confirmed one. The new
        // base sets are the anchors of the non-empty rows (edge-less query
        // nodes keep theirs minus the removals); the rows of anchors that
        // left them are empty and go, and `assemble` lays the rest out
        // exactly as a fresh build would.
        let fwd_rows = self.fwd.retain(base, &dirty_set, &keep_fwd);
        let rev_rows = self.rev.retain(base, &dirty_set, &keep_rev);
        let mut sets = base.sets.clone();
        for (v, r) in deg0_removals {
            sets[v.index()].remove(r);
        }
        for v in problem.query.node_ids() {
            if problem.query.total_degree(v) != 0 {
                sets[v.index()].clear();
            }
        }
        for (table, rows) in [(&self.fwd, &fwd_rows), (&self.rev, &rev_rows)] {
            for &(slot, rj, len) in rows {
                if len > 0 {
                    sets[table.slots.anchor[slot as usize].index()].insert(rj);
                }
            }
        }
        let new_base = RankedBase::new(sets, nr);
        for (table, rows) in [(&mut self.fwd, fwd_rows), (&mut self.rev, rev_rows)] {
            let kept: Vec<usize> = (0..rows.len())
                .filter(|&row| {
                    let (slot, rj, _) = rows[row];
                    new_base.sets[table.slots.anchor[slot as usize].index()].contains(rj)
                })
                .collect();
            let len: Vec<u32> = kept.iter().map(|&row| rows[row].2).collect();
            let arena = std::mem::take(&mut table.arena);
            // A row still dense after the removals was dense before:
            // refill its old mirror instead of allocating a new one.
            let mut mirrors = std::mem::take(&mut table.bits);
            let bit_idx = &table.bit_idx;
            let mirror = |row: usize, span: &[NodeId]| {
                let mut bits = std::mem::take(&mut mirrors[bit_idx[kept[row]] as usize]);
                bits.clear_and_insert_all(span);
                bits
            };
            let patched =
                CellTable::assemble(table.slots.clone(), nr, &new_base, arena, &len, mirror);
            *table = patched;
        }
        self.base = new_base;
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
    fn restricted_build_lays_out_rows_for_base_members_only() {
        // A 5·10⁴-node ring and a 3-node path query, each query node
        // allowed 32 host nodes: a window of 24 consecutive ring nodes
        // (shifted by one per query node, so the path embeds) and 8
        // isolated ones that pass admission but anchor no match. Each
        // table lays out one offset per base member of a slot's anchor
        // plus one closing offset per slot, and one mirror index per
        // base member — nothing per host node.
        const NR: usize = 50_000;
        for dir in [Direction::Undirected, Direction::Directed] {
            let mut h = Network::new(dir);
            let hs: Vec<NodeId> = (0..NR).map(|i| h.add_node(format!("h{i}"))).collect();
            for i in 0..NR {
                h.add_edge(hs[i], hs[(i + 1) % NR]);
            }
            let mut q = Network::new(dir);
            let qs: Vec<NodeId> = (0..3).map(|i| q.add_node(format!("q{i}"))).collect();
            q.add_edge(qs[0], qs[1]);
            q.add_edge(qs[1], qs[2]);
            let allowed: Vec<NodeBitSet> = (0..3)
                .map(|v| {
                    let window = (100 + v..124 + v).map(|i| hs[i]);
                    let isolated = (1..=8).map(|k| hs[k * 5_000 + 3 * v]);
                    NodeBitSet::from_iter(NR, window.chain(isolated))
                })
                .collect();
            let p = Problem::new(&q, &h, "true").unwrap();
            let mut d = Deadline::unlimited();
            let mut s = SearchStats::default();
            let f = FilterMatrix::build_restricted(&p, &allowed, &mut d, &mut s).unwrap();
            assert!(f.cell_count() > 0, "{dir:?}: nothing embeds");
            let (mut fwd, mut rev) = ((0, 0), (0, 0)); // (rows, slots)
            for qe in q.edge_refs() {
                fwd = (fwd.0 + f.base(qe.src).len(), fwd.1 + 1);
                let back = if q.is_undirected() {
                    &mut fwd
                } else {
                    &mut rev
                };
                *back = (back.0 + f.base(qe.dst).len(), back.1 + 1);
            }
            for (name, table, (rows, slots)) in [("fwd", &f.fwd, fwd), ("rev", &f.rev, rev)] {
                assert!(
                    rows <= 24 * slots,
                    "{dir:?} {name}: isolated nodes got rows"
                );
                assert_eq!(table.offsets.len(), rows + slots, "{dir:?} {name} offsets");
                assert_eq!(table.bit_idx.len(), rows, "{dir:?} {name} bit_idx");
            }
        }
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
