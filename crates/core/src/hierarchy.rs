//! Multilevel substrate hierarchy: repeated coarsening of the host
//! network plus a top-down refinement search.
//!
//! A [`SubstrateHierarchy`] groups host nodes into super-nodes by
//! deterministic greedy matching, level by level, roughly halving the
//! node count each time. Every super-node and super-edge carries
//! *conservatively aggregated* attribute bounds
//! ([`cexpr::BoundsMap`]): a coarse element's bounds contain the exact
//! attribute values of every member, so abstract constraint
//! evaluation ([`cexpr::Compiled::abs_edge`] /
//! [`cexpr::Compiled::abs_node`]) returning
//! [`Verdict::Infeasible`] is a sound prune — no concrete solution
//! can live inside a pruned subtree (coarse-feasible ⊇ fine-feasible).
//!
//! [`SubstrateHierarchy::refine`] walks the hierarchy from the
//! coarsest level down: per query node it keeps a domain of candidate
//! super-nodes (degree gate + abstract node constraint), runs
//! arc-consistency over the query edges using abstract edge verdicts
//! on super-arcs, and descends only into the children of surviving
//! super-nodes. The finest level's survivors expand into per-query-node
//! host [`NodeBitSet`]s that restrict the exact filter build
//! ([`FilterMatrix::build_restricted`](crate::FilterMatrix)), so the
//! exhaustive search touches a small fraction of the full
//! `O(|VQ|·|VR|)` matrix on large substrates. That build pays for the
//! survivors, not the substrate: it admits only allowed host nodes,
//! evaluates only host edges incident to admitted anchors, and lays out
//! one row per base member and one entry per match — the only
//! substrate-sized work left is word-level bitset sweeps
//! (`O(|VQ|·⌈|VR|/64⌉ + |EQ|·⌈|ER|/64⌉)`).

use std::collections::BTreeMap;

use cexpr::{AbsEdgeCtx, AbsNodeCtx, BoundsMap, Verdict};
use netgraph::{Network, NodeBitSet, NodeId};
use rustc_hash::FxHashMap;

use crate::deadline::Deadline;
use crate::problem::Problem;
use crate::stats::SearchStats;

/// Knobs controlling hierarchy construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HierarchySpec {
    /// Maximum number of coarsening levels to build.
    pub max_levels: usize,
    /// Stop coarsening once a level has at most this many super-nodes.
    pub min_nodes: usize,
}

impl Default for HierarchySpec {
    fn default() -> Self {
        Self {
            max_levels: 16,
            min_nodes: 64,
        }
    }
}

/// One coarsening level. `child` indices point into the next finer
/// layer; at level 0 they are host node indices.
struct Level {
    /// Number of super-nodes.
    n: usize,
    /// CSR offsets into `child`.
    child_off: Vec<u32>,
    /// Member indices in the next finer layer (host ids at level 0).
    child: Vec<u32>,
    /// Host leaves under each super-node.
    leaf_count: Vec<u32>,
    /// Max out-degree (host `neighbors`) over member host nodes.
    max_out: Vec<u32>,
    /// Max in-degree (host `in_neighbors`) over member host nodes.
    max_in: Vec<u32>,
    /// Aggregated node-attribute bounds per super-node.
    node_bounds: Vec<BoundsMap>,
    /// Aggregated bounds over member edges *internal* to the
    /// super-node; `None` when no internal edge exists.
    self_bounds: Vec<Option<BoundsMap>>,
    /// Super-arc endpoints, sorted by `(src, dst)`, `src != dst`.
    arc_src: Vec<u32>,
    arc_dst: Vec<u32>,
    /// Aggregated edge bounds per super-arc.
    arc_bounds: Vec<BoundsMap>,
    /// CSR over the arc list grouped by `src`.
    out_off: Vec<u32>,
    /// CSR over `in_arc` grouped by `dst`.
    in_off: Vec<u32>,
    /// Arc indices sorted by `(dst, src)`.
    in_arc: Vec<u32>,
}

impl Level {
    fn children(&self, sup: usize) -> &[u32] {
        &self.child[self.child_off[sup] as usize..self.child_off[sup + 1] as usize]
    }

    fn out_arcs(&self, sup: usize) -> std::ops::Range<usize> {
        self.out_off[sup] as usize..self.out_off[sup + 1] as usize
    }

    fn in_arcs(&self, sup: usize) -> &[u32] {
        &self.in_arc[self.in_off[sup] as usize..self.in_off[sup + 1] as usize]
    }

    /// The identity level: one super-node per host node. Used only as
    /// the seed for the first `coarsen` call, never stored.
    fn identity(host: &Network) -> Level {
        let n = host.node_count();
        let mut max_out = Vec::with_capacity(n);
        let mut max_in = Vec::with_capacity(n);
        let mut node_bounds = Vec::with_capacity(n);
        for v in host.node_ids() {
            max_out.push(host.neighbors(v).len() as u32);
            max_in.push(host.in_neighbors(v).len() as u32);
            node_bounds.push(BoundsMap::from_node(host, v));
        }
        // `neighbors` lists are sorted, so iterating nodes in order
        // yields arcs already sorted by (src, dst). Undirected edges
        // appear in both endpoint lists and thus as both arcs.
        let mut arc_src = Vec::new();
        let mut arc_dst = Vec::new();
        let mut arc_bounds: Vec<BoundsMap> = Vec::new();
        for u in host.node_ids() {
            for &(w, e) in host.neighbors(u) {
                if w == u {
                    continue; // self-loops carry no pairwise cell
                }
                let b = BoundsMap::from_edge(host, e);
                if arc_src.last() == Some(&u.0) && arc_dst.last() == Some(&w.0) {
                    // parallel edge between the same ordered pair
                    arc_bounds.last_mut().expect("arc exists").merge_from(&b);
                } else {
                    arc_src.push(u.0);
                    arc_dst.push(w.0);
                    arc_bounds.push(b);
                }
            }
        }
        let (out_off, in_off, in_arc) = build_arc_csr(n, &arc_src, &arc_dst);
        Level {
            n,
            child_off: Vec::new(),
            child: Vec::new(),
            leaf_count: vec![1; n],
            max_out,
            max_in,
            node_bounds,
            self_bounds: vec![None; n],
            arc_src,
            arc_dst,
            arc_bounds,
            out_off,
            in_off,
            in_arc,
        }
    }
}

/// Build the out-CSR and in-CSR over an arc list sorted by `(src, dst)`.
fn build_arc_csr(n: usize, arc_src: &[u32], arc_dst: &[u32]) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let m = arc_src.len();
    let mut out_off = vec![0u32; n + 1];
    for &s in arc_src {
        out_off[s as usize + 1] += 1;
    }
    for i in 0..n {
        out_off[i + 1] += out_off[i];
    }
    let mut in_count = vec![0u32; n + 1];
    for &d in arc_dst {
        in_count[d as usize + 1] += 1;
    }
    for i in 0..n {
        in_count[i + 1] += in_count[i];
    }
    let in_off = in_count.clone();
    let mut cursor = in_count;
    let mut in_arc = vec![0u32; m];
    for (idx, &d) in arc_dst.iter().enumerate() {
        let slot = cursor[d as usize];
        in_arc[slot as usize] = idx as u32;
        cursor[d as usize] += 1;
    }
    (out_off, in_off, in_arc)
}

/// Coarsen one level by greedy matching: scan nodes in ascending id
/// order, pair each unmatched node with its first unmatched neighbor
/// (out first, then in), then pair leftover singletons with each other
/// so every level at least halves (up to rounding). Deterministic by
/// construction.
fn coarsen(fine: &Level) -> Level {
    let n = fine.n;
    const UNMATCHED: u32 = u32::MAX;
    let mut partner = vec![UNMATCHED; n];
    for u in 0..n {
        if partner[u] != UNMATCHED {
            continue;
        }
        let mut found = None;
        for a in fine.out_arcs(u) {
            let w = fine.arc_dst[a] as usize;
            if w != u && partner[w] == UNMATCHED {
                found = Some(w);
                break;
            }
        }
        if found.is_none() {
            for &a in fine.in_arcs(u) {
                let w = fine.arc_src[a as usize] as usize;
                if w != u && partner[w] == UNMATCHED {
                    found = Some(w);
                    break;
                }
            }
        }
        if let Some(w) = found {
            partner[u] = w as u32;
            partner[w] = u as u32;
        }
    }
    // Pair leftover singletons (ascending) so progress is guaranteed
    // even on stars and other matchings-resistant shapes.
    let mut prev_single: Option<usize> = None;
    for u in 0..n {
        if partner[u] != UNMATCHED {
            continue;
        }
        match prev_single.take() {
            None => prev_single = Some(u),
            Some(p) => {
                partner[p] = u as u32;
                partner[u] = p as u32;
            }
        }
    }
    // Assign coarse ids in ascending order of each group's smallest
    // member, so the mapping is stable and deterministic.
    const UNSET: u32 = u32::MAX;
    let mut group_of = vec![UNSET; n];
    let mut n_new = 0u32;
    for u in 0..n {
        if group_of[u] != UNSET {
            continue;
        }
        group_of[u] = n_new;
        if partner[u] != UNMATCHED {
            group_of[partner[u] as usize] = n_new;
        }
        n_new += 1;
    }
    let n_new = n_new as usize;

    // Children CSR + aggregated node state.
    let mut child_off = vec![0u32; n_new + 1];
    for &g in &group_of {
        child_off[g as usize + 1] += 1;
    }
    for i in 0..n_new {
        child_off[i + 1] += child_off[i];
    }
    let mut cursor = child_off.clone();
    let mut child = vec![0u32; n];
    for (u, &g) in group_of.iter().enumerate() {
        child[cursor[g as usize] as usize] = u as u32;
        cursor[g as usize] += 1;
    }

    let mut leaf_count = vec![0u32; n_new];
    let mut max_out = vec![0u32; n_new];
    let mut max_in = vec![0u32; n_new];
    let mut node_bounds: Vec<Option<BoundsMap>> = vec![None; n_new];
    let mut self_bounds: Vec<Option<BoundsMap>> = vec![None; n_new];
    for (u, &g) in group_of.iter().enumerate() {
        let g = g as usize;
        leaf_count[g] += fine.leaf_count[u];
        max_out[g] = max_out[g].max(fine.max_out[u]);
        max_in[g] = max_in[g].max(fine.max_in[u]);
        merge_opt(&mut node_bounds[g], &fine.node_bounds[u]);
        if let Some(sb) = &fine.self_bounds[u] {
            merge_opt(&mut self_bounds[g], sb);
        }
    }
    let node_bounds: Vec<BoundsMap> = node_bounds
        .into_iter()
        .map(|b| b.expect("every group has a member"))
        .collect();

    // Super-arcs: fine arcs between distinct groups accumulate into a
    // BTreeMap (deterministic order); intra-group arcs fold into the
    // group's self bounds.
    let mut arcs: BTreeMap<(u32, u32), BoundsMap> = BTreeMap::new();
    for a in 0..fine.arc_src.len() {
        let gs = group_of[fine.arc_src[a] as usize];
        let gd = group_of[fine.arc_dst[a] as usize];
        let b = &fine.arc_bounds[a];
        if gs == gd {
            merge_opt(&mut self_bounds[gs as usize], b);
        } else {
            match arcs.entry((gs, gd)) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(b.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().merge_from(b);
                }
            }
        }
    }
    let mut arc_src = Vec::with_capacity(arcs.len());
    let mut arc_dst = Vec::with_capacity(arcs.len());
    let mut arc_bounds = Vec::with_capacity(arcs.len());
    for ((s, d), b) in arcs {
        arc_src.push(s);
        arc_dst.push(d);
        arc_bounds.push(b);
    }
    let (out_off, in_off, in_arc) = build_arc_csr(n_new, &arc_src, &arc_dst);
    Level {
        n: n_new,
        child_off,
        child,
        leaf_count,
        max_out,
        max_in,
        node_bounds,
        self_bounds,
        arc_src,
        arc_dst,
        arc_bounds,
        out_off,
        in_off,
        in_arc,
    }
}

fn merge_opt(dst: &mut Option<BoundsMap>, src: &BoundsMap) {
    match dst {
        None => *dst = Some(src.clone()),
        Some(d) => d.merge_from(src),
    }
}

/// Outcome of [`SubstrateHierarchy::refine`].
#[derive(Debug)]
pub enum Refinement {
    /// Some query node's domain emptied at a coarse level: the problem
    /// has **no** solution (the prune is sound), without ever touching
    /// the full filter matrix.
    Infeasible,
    /// Per-query-node host candidate sets covering every solution;
    /// feed to [`FilterMatrix::build_restricted`](crate::FilterMatrix).
    Restricted(Vec<NodeBitSet>),
    /// The deadline expired during refinement.
    TimedOut,
}

/// A multilevel coarsening of one host network. Build once per
/// `(host, epoch)` — construction only reads the host, so the same
/// hierarchy serves every query against that snapshot.
pub struct SubstrateHierarchy {
    host_nodes: usize,
    /// `levels[0]` is the finest coarsening (children are host node
    /// ids); the last entry is the coarsest.
    levels: Vec<Level>,
}

impl SubstrateHierarchy {
    /// Coarsen `host` until a level has at most `spec.min_nodes`
    /// super-nodes or `spec.max_levels` levels exist.
    pub fn build(host: &Network, spec: &HierarchySpec) -> Self {
        let floor = spec.min_nodes.max(1);
        let mut chain = vec![Level::identity(host)];
        while chain.len() - 1 < spec.max_levels {
            let fine = chain.last().expect("chain is never empty");
            if fine.n <= floor {
                break;
            }
            let coarse = coarsen(fine);
            if coarse.n >= fine.n {
                break;
            }
            chain.push(coarse);
        }
        chain.remove(0); // drop the identity seed; level-0 children are host ids
        SubstrateHierarchy {
            host_nodes: host.node_count(),
            levels: chain,
        }
    }

    /// Number of coarsening levels (0 when the host was already at or
    /// below the `min_nodes` floor).
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Host node count this hierarchy was built from.
    pub fn host_nodes(&self) -> usize {
        self.host_nodes
    }

    /// Super-node count at `level` (0 = finest).
    pub fn level_size(&self, level: usize) -> usize {
        self.levels[level].n
    }

    /// Super-node counts from finest to coarsest.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.n).collect()
    }

    /// All host leaves under super-node `sup` of `level`, ascending.
    pub fn leaf_members(&self, level: usize, sup: usize) -> Vec<NodeId> {
        let mut frontier = vec![sup as u32];
        for li in (0..=level).rev() {
            let lvl = &self.levels[li];
            let mut next = Vec::new();
            for &s in &frontier {
                next.extend_from_slice(lvl.children(s as usize));
            }
            frontier = next;
        }
        frontier.sort_unstable();
        frontier.into_iter().map(NodeId).collect()
    }

    /// Aggregated node bounds of super-node `sup` at `level`.
    pub fn node_bounds(&self, level: usize, sup: usize) -> &BoundsMap {
        &self.levels[level].node_bounds[sup]
    }

    /// Aggregated bounds of edges internal to super-node `sup`.
    pub fn self_bounds(&self, level: usize, sup: usize) -> Option<&BoundsMap> {
        self.levels[level].self_bounds[sup].as_ref()
    }

    /// Aggregated bounds of the super-arc `s → t`, if present.
    pub fn arc_bounds_between(&self, level: usize, s: usize, t: usize) -> Option<&BoundsMap> {
        let lvl = &self.levels[level];
        lvl.out_arcs(s)
            .find(|&a| lvl.arc_dst[a] == t as u32)
            .map(|a| &lvl.arc_bounds[a])
    }

    /// Top-down refinement: per-query-node candidate domains are
    /// filtered (degree gate + abstract node constraint) and propagated
    /// to arc-consistency with abstract edge verdicts at each level,
    /// descending only into surviving super-nodes' children.
    ///
    /// Updates `stats` hierarchy counters (`hier_levels`,
    /// `hier_pruned`, `hier_expanded_cells`, `hier_full_cells`) plus
    /// `constraint_evals`/`prunes` for the abstract work performed.
    pub fn refine(
        &self,
        problem: &Problem<'_>,
        deadline: &mut Deadline,
        stats: &mut SearchStats,
    ) -> Refinement {
        let q = problem.query;
        let nq = problem.nq();
        stats.hier_levels = self.levels.len() as u64;
        stats.hier_full_cells = (nq as u64) * (self.host_nodes as u64);
        if self.levels.is_empty() {
            let allowed: Vec<NodeBitSet> =
                (0..nq).map(|_| NodeBitSet::full(self.host_nodes)).collect();
            stats.hier_expanded_cells = stats.hier_full_cells;
            return Refinement::Restricted(allowed);
        }

        let q_out: Vec<u32> = q.node_ids().map(|v| q.neighbors(v).len() as u32).collect();
        let q_in: Vec<u32> = q
            .node_ids()
            .map(|v| q.in_neighbors(v).len() as u32)
            .collect();
        let qedges: Vec<netgraph::EdgeRef> = q.edge_refs().collect();

        let mut pruned_total = 0u64;
        let mut prev: Option<Vec<NodeBitSet>> = None;
        for li in (0..self.levels.len()).rev() {
            if deadline.check_now() {
                return Refinement::TimedOut;
            }
            let lvl = &self.levels[li];
            // Seed this level's domains: every super-node at the
            // coarsest level, else the children of coarser survivors.
            let mut domains: Vec<NodeBitSet> = Vec::with_capacity(nq);
            let mut considered = 0u64;
            let mut admitted = 0u64;
            for v in 0..nq {
                let mut dom = NodeBitSet::new(lvl.n);
                let mut admit = |s: usize, stats: &mut SearchStats| {
                    considered += 1;
                    if lvl.max_out[s] < q_out[v] || lvl.max_in[s] < q_in[v] {
                        return;
                    }
                    if let Some(node_expr) = problem.node_expr() {
                        stats.constraint_evals += 1;
                        let verdict = node_expr.abs_node(&AbsNodeCtx {
                            q,
                            v_node: NodeId(v as u32),
                            r_node: &lvl.node_bounds[s],
                        });
                        if verdict == Verdict::Infeasible {
                            return;
                        }
                    }
                    admitted += 1;
                    dom.insert(NodeId(s as u32));
                };
                match &prev {
                    None => {
                        for s in 0..lvl.n {
                            admit(s, stats);
                        }
                    }
                    Some(coarser) => {
                        let coarser_lvl = &self.levels[li + 1];
                        for sup in coarser[v].iter() {
                            for &c in coarser_lvl.children(sup.index()) {
                                admit(c as usize, stats);
                            }
                        }
                    }
                }
                if dom.is_empty() {
                    stats.hier_pruned = pruned_total + (considered - admitted);
                    return Refinement::Infeasible;
                }
                domains.push(dom);
            }
            pruned_total += considered - admitted;

            // Arc-consistency over query edges with lazily memoized
            // abstract super-arc verdicts (true = Maybe).
            let mut arc_memo: FxHashMap<(u32, u32), bool> = FxHashMap::default();
            let mut self_memo: FxHashMap<(u32, u32), bool> = FxHashMap::default();
            let mut changed = true;
            while changed {
                changed = false;
                for (ei, e) in qedges.iter().enumerate() {
                    if deadline.expired() {
                        return Refinement::TimedOut;
                    }
                    let (a, b) = (e.src.index(), e.dst.index());
                    let edge_maybe =
                        |arc: usize,
                         stats: &mut SearchStats,
                         memo: &mut FxHashMap<(u32, u32), bool>| {
                            *memo.entry((ei as u32, arc as u32)).or_insert_with(|| {
                                stats.constraint_evals += 1;
                                let verdict = problem.edge_expr().abs_edge(&AbsEdgeCtx {
                                    q,
                                    v_edge: e.id,
                                    v_src: e.src,
                                    v_dst: e.dst,
                                    r_edge: &lvl.arc_bounds[arc],
                                    r_src: &lvl.node_bounds[lvl.arc_src[arc] as usize],
                                    r_dst: &lvl.node_bounds[lvl.arc_dst[arc] as usize],
                                });
                                verdict == Verdict::Maybe
                            })
                        };
                    let self_maybe =
                        |s: usize,
                         stats: &mut SearchStats,
                         memo: &mut FxHashMap<(u32, u32), bool>| {
                            *memo.entry((ei as u32, s as u32)).or_insert_with(|| {
                                let Some(sb) = &lvl.self_bounds[s] else {
                                    return false;
                                };
                                stats.constraint_evals += 1;
                                let verdict = problem.edge_expr().abs_edge(&AbsEdgeCtx {
                                    q,
                                    v_edge: e.id,
                                    v_src: e.src,
                                    v_dst: e.dst,
                                    r_edge: sb,
                                    r_src: &lvl.node_bounds[s],
                                    r_dst: &lvl.node_bounds[s],
                                });
                                verdict == Verdict::Maybe
                            })
                        };

                    // Revise the source side: S ∈ D_a needs an out-arc
                    // to some T ∈ D_b (or an internal edge when the
                    // whole query edge fits inside S).
                    let mut dropped: Vec<NodeId> = Vec::new();
                    for sid in domains[a].iter() {
                        let s = sid.index();
                        let mut supported = false;
                        for arc in lvl.out_arcs(s) {
                            let t = lvl.arc_dst[arc] as usize;
                            if domains[b].contains(NodeId(t as u32))
                                && edge_maybe(arc, stats, &mut arc_memo)
                            {
                                supported = true;
                                break;
                            }
                        }
                        if !supported
                            && domains[b].contains(sid)
                            && self_maybe(s, stats, &mut self_memo)
                        {
                            supported = true;
                        }
                        if !supported {
                            dropped.push(sid);
                        }
                    }
                    for sid in dropped.drain(..) {
                        domains[a].remove(sid);
                        stats.prunes += 1;
                        pruned_total += 1;
                        changed = true;
                    }
                    if domains[a].is_empty() {
                        stats.hier_pruned = pruned_total;
                        return Refinement::Infeasible;
                    }

                    // Revise the target side via in-arcs.
                    for tid in domains[b].iter() {
                        let t = tid.index();
                        let mut supported = false;
                        for &arc in lvl.in_arcs(t) {
                            let arc = arc as usize;
                            let s = lvl.arc_src[arc] as usize;
                            if domains[a].contains(NodeId(s as u32))
                                && edge_maybe(arc, stats, &mut arc_memo)
                            {
                                supported = true;
                                break;
                            }
                        }
                        if !supported
                            && domains[a].contains(tid)
                            && self_maybe(t, stats, &mut self_memo)
                        {
                            supported = true;
                        }
                        if !supported {
                            dropped.push(tid);
                        }
                    }
                    for tid in dropped.drain(..) {
                        domains[b].remove(tid);
                        stats.prunes += 1;
                        pruned_total += 1;
                        changed = true;
                    }
                    if domains[b].is_empty() {
                        stats.hier_pruned = pruned_total;
                        return Refinement::Infeasible;
                    }
                }
            }
            prev = Some(domains);
        }

        // Expand level-0 survivors into host candidate sets.
        let lvl0 = &self.levels[0];
        let domains = prev.expect("at least one level was refined");
        let mut allowed = Vec::with_capacity(nq);
        let mut expanded = 0u64;
        for dom in &domains {
            let mut bs = NodeBitSet::new(self.host_nodes);
            for sup in dom.iter() {
                for &c in lvl0.children(sup.index()) {
                    bs.insert(NodeId(c));
                }
            }
            expanded += bs.len() as u64;
            allowed.push(bs);
        }
        stats.hier_pruned = pruned_total;
        stats.hier_expanded_cells = expanded;
        Refinement::Restricted(allowed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::Direction;

    fn ring(n: usize) -> Network {
        let mut net = Network::new(Direction::Undirected);
        let ids: Vec<NodeId> = (0..n).map(|i| net.add_node(format!("n{i}"))).collect();
        for i in 0..n {
            let e = net.add_edge(ids[i], ids[(i + 1) % n]);
            net.set_edge_attr(e, "bw", 10.0);
        }
        for (i, &v) in ids.iter().enumerate() {
            net.set_node_attr(v, "cpu", (i % 7) as f64);
        }
        net
    }

    #[test]
    fn levels_halve_and_partition() {
        let host = ring(64);
        let spec = HierarchySpec {
            max_levels: 8,
            min_nodes: 4,
        };
        let h = SubstrateHierarchy::build(&host, &spec);
        assert!(h.levels() >= 3);
        let sizes = h.level_sizes();
        for w in sizes.windows(2) {
            assert!(w[1] < w[0], "sizes must strictly decrease: {sizes:?}");
        }
        assert_eq!(sizes[0], 32, "greedy matching halves a ring exactly");
        // Every level's leaves partition the host node set.
        for li in 0..h.levels() {
            let mut seen: Vec<NodeId> = Vec::new();
            for s in 0..h.level_size(li) {
                seen.extend(h.leaf_members(li, s));
            }
            seen.sort_unstable();
            assert_eq!(seen.len(), 64);
            assert!(seen.windows(2).all(|w| w[0] != w[1]), "no leaf repeats");
        }
    }

    #[test]
    fn bounds_contain_member_attrs() {
        let host = ring(32);
        let h = SubstrateHierarchy::build(
            &host,
            &HierarchySpec {
                max_levels: 8,
                min_nodes: 2,
            },
        );
        let cpu = host.schema().get("cpu").expect("cpu attr interned");
        for li in 0..h.levels() {
            for s in 0..h.level_size(li) {
                let bounds = h.node_bounds(li, s);
                for v in h.leaf_members(li, s) {
                    let val = host.node_attr(v, cpu);
                    let ab = bounds.get(cpu).expect("cpu bounds aggregated");
                    assert!(ab.contains(val), "level {li} super {s} node {v:?}");
                }
            }
        }
    }

    #[test]
    fn min_nodes_floor_respected() {
        let host = ring(16);
        let h = SubstrateHierarchy::build(
            &host,
            &HierarchySpec {
                max_levels: 16,
                min_nodes: 16,
            },
        );
        assert_eq!(h.levels(), 0, "host already at the floor");
        let h2 = SubstrateHierarchy::build(
            &host,
            &HierarchySpec {
                max_levels: 1,
                min_nodes: 2,
            },
        );
        assert_eq!(h2.levels(), 1);
        assert_eq!(h2.level_size(0), 8);
    }
}
