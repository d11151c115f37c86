//! Lazy Neighborhood Search (LNS) — §V-C, Figures 6 and 7.
//!
//! ECF/RWB precompute filter matrices whose worst-case space is
//! O(n·|E_Q|·|E_R|) — prohibitive for under-constrained queries over dense
//! hosts. LNS instead keeps only O(depth) state: at any point the query
//! nodes are partitioned into *Covered* (already matched), *Neighbors*
//! (adjacent to a covered node) and *External* (everything else). Each step
//! picks the neighbor with the most links into the covered set (heuristic 2
//! — the largest conjunction of constraints, pruning earliest), enumerates
//! host candidates lazily by scanning the host adjacency of one covered
//! anchor, and recurses. The very first vertex is the query's maximum-
//! degree node (heuristic 1 — grow a tightly-connected core).
//!
//! Constraint evaluations are memoized in a positive/negative cache keyed
//! by `(query edge, host src, host dst)` — the moral equivalent of the
//! paper's F/F̄ pair, built lazily instead of eagerly. The cache can be
//! disabled for the `abl-negcache` ablation.

use crate::deadline::Deadline;
use crate::ecf::SearchEnd;
use crate::mapping::Mapping;
use crate::problem::{Problem, ProblemError};
use crate::scratch::SearchScratch;
use crate::sink::{SinkControl, SolutionSink};
use crate::stats::SearchStats;
use netgraph::NodeId;

/// LNS tuning knobs (all default to the paper's heuristics).
#[derive(Debug, Clone, Copy)]
pub struct LnsConfig {
    /// Memoize constraint evaluations per (query edge, host pair).
    pub memo_cache: bool,
    /// Seed the covered set with the maximum-degree query node
    /// (heuristic 1). `false` uses input order (ablation).
    pub max_degree_seed: bool,
    /// Extend by the neighbor with the most covered links (heuristic 2).
    /// `false` picks an arbitrary neighbor (ablation).
    pub most_constrained_neighbor: bool,
}

impl Default for LnsConfig {
    fn default() -> Self {
        LnsConfig {
            memo_cache: true,
            max_degree_seed: true,
            most_constrained_neighbor: true,
        }
    }
}

/// Run LNS, streaming feasible embeddings into `sink`. The per-depth
/// candidate buffers, anchor list, dedup mask and memo-cache capacity
/// live in the caller's `scratch` and are reused across searches (the
/// memo *contents* are cleared — they are problem-specific).
pub fn search(
    problem: &Problem<'_>,
    config: &LnsConfig,
    deadline: &mut Deadline,
    sink: &mut dyn SolutionSink,
    stats: &mut SearchStats,
    scratch: &mut SearchScratch,
) -> Result<SearchEnd, ProblemError> {
    let start = std::time::Instant::now();
    scratch.ensure(problem.nq(), problem.nr());
    scratch.ensure_lns(problem.nq(), problem.nr());
    let mut state = LnsState::new(problem, config, scratch);
    let end = state.extend(deadline, sink, stats)?;
    stats.timed_out |= end == SearchEnd::Timeout;
    stats.elapsed = start.elapsed();
    stats.cpu_time = stats.elapsed;
    Ok(end)
}

/// Tri-state memo entry packed as u8.
const MEMO_FAIL: u8 = 0;
const MEMO_OK: u8 = 1;

/// The search state. Every buffer lives in the borrowed
/// [`SearchScratch`] (`assign`, `used`, and the `lns_*` fields), already
/// sized and reset by `ensure`; only the recursion depth is local.
struct LnsState<'p, 'a, 's> {
    problem: &'p Problem<'a>,
    config: LnsConfig,
    scr: &'s mut SearchScratch,
    depth: usize,
}

impl<'p, 'a, 's> LnsState<'p, 'a, 's> {
    fn new(problem: &'p Problem<'a>, config: &LnsConfig, scratch: &'s mut SearchScratch) -> Self {
        LnsState {
            problem,
            config: *config,
            scr: scratch,
            depth: 0,
        }
    }

    /// Pick the next query node to cover: the neighbor (of the covered
    /// set) with the most covered links; when there are no neighbors —
    /// start of the search or a new component — the maximum-degree
    /// uncovered node.
    fn pick_next(&self) -> NodeId {
        let q = self.problem.query;
        let mut best: Option<NodeId> = None;
        let mut best_links = 0u32;
        let mut best_deg = 0usize;
        for v in q.node_ids() {
            if self.scr.lns_covered[v.index()] {
                continue;
            }
            let links = self.scr.lns_covered_links[v.index()];
            let deg = q.total_degree(v);
            let replace = match best {
                None => true,
                Some(_b) => {
                    if self.config.most_constrained_neighbor {
                        (links, deg) > (best_links, best_deg)
                    } else {
                        // Ablation: arbitrary (first found) neighbor, but
                        // still prefer neighbors over externals.
                        links > 0 && best_links == 0
                    }
                }
            };
            if replace {
                best = Some(v);
                best_links = links;
                best_deg = deg;
            }
        }
        let mut chosen = best.expect("at least one uncovered node");
        // Seed choice (depth 0 or new component): max degree.
        if best_links == 0 && self.config.max_degree_seed {
            chosen = q
                .node_ids()
                .filter(|v| !self.scr.lns_covered[v.index()])
                .max_by_key(|&v| (q.total_degree(v), std::cmp::Reverse(v)))
                .expect("uncovered node");
        }
        chosen
    }

    /// Does `(vn → r)` satisfy the query edge between `vn` and covered
    /// neighbor `vc` (mapped to `rc`)? Consults/updates the memo cache.
    fn edge_pair_ok(
        &mut self,
        vn: NodeId,
        r: NodeId,
        vc: NodeId,
        rc: NodeId,
        stats: &mut SearchStats,
    ) -> Result<bool, ProblemError> {
        let q = self.problem.query;
        // The query may have the edge in either (or for directed graphs,
        // both) orientations; all present orientations must hold.
        let mut ok = true;
        if let Some(qe) = q.find_edge(vn, vc) {
            // Careful with undirected storage: fetch stored endpoints so
            // the memo key and the evaluation orientation are canonical.
            let (qs, qd) = q.edge_endpoints(qe);
            let (rs, rd) = if qs == vn { (r, rc) } else { (rc, r) };
            ok &= self.cached_pair(qe.0, qs, qd, rs, rd, stats)?;
        }
        if ok && !q.is_undirected() {
            if let Some(qe) = q.find_edge(vc, vn) {
                let (qs, qd) = q.edge_endpoints(qe);
                let (rs, rd) = if qs == vn { (r, rc) } else { (rc, r) };
                ok &= self.cached_pair(qe.0, qs, qd, rs, rd, stats)?;
            }
        }
        Ok(ok)
    }

    fn cached_pair(
        &mut self,
        qe: u32,
        qs: NodeId,
        qd: NodeId,
        rs: NodeId,
        rd: NodeId,
        stats: &mut SearchStats,
    ) -> Result<bool, ProblemError> {
        if self.config.memo_cache {
            if let Some(&m) = self.scr.lns_memo.get(&(qe, rs.0, rd.0)) {
                return Ok(m == MEMO_OK);
            }
        }
        stats.constraint_evals += 1;
        let ok = self.problem.pair_ok(netgraph::EdgeId(qe), qs, qd, rs, rd)?;
        if self.config.memo_cache {
            self.scr
                .lns_memo
                .insert((qe, rs.0, rd.0), if ok { MEMO_OK } else { MEMO_FAIL });
        }
        Ok(ok)
    }

    /// Candidate host nodes for `vn` given the current covered set,
    /// appended to `out` (cleared first). Scratch state (`anchors`,
    /// `seen`) is reused across calls.
    fn fill_candidates(
        &mut self,
        vn: NodeId,
        out: &mut Vec<NodeId>,
        stats: &mut SearchStats,
    ) -> Result<(), ProblemError> {
        out.clear();
        let q = self.problem.query;
        let r_net = self.problem.host;

        // Covered neighbors of vn with their host images. The buffer is
        // taken out of `self` (and restored before returning) because the
        // loop below needs `&mut self` for the memoized edge checks.
        let mut anchors = std::mem::take(&mut self.scr.lns_anchors);
        anchors.clear();
        for &(nb, _) in q.neighbors(vn).iter().chain(q.in_neighbors(vn)) {
            if self.scr.lns_covered[nb.index()] {
                let pair = (nb, self.scr.assign[nb.index()]);
                if !anchors.contains(&pair) {
                    anchors.push(pair);
                }
            }
        }

        // Sound degree prune: vn's query edges all need distinct host
        // edges at its image, so deg_host(r) ≥ deg_query(vn) (per
        // direction for directed graphs).
        let (vn_out, vn_in) = (q.neighbors(vn).len(), q.in_neighbors(vn).len());
        let degree_ok =
            |r: NodeId| r_net.neighbors(r).len() >= vn_out && r_net.in_neighbors(r).len() >= vn_in;

        if anchors.is_empty() {
            // New component / isolated node: scan all unused host nodes.
            for r in r_net.node_ids() {
                if self.scr.used.contains(r) || !degree_ok(r) {
                    continue;
                }
                stats.constraint_evals += 1;
                if self.problem.node_ok(vn, r)? {
                    out.push(r);
                }
            }
            self.scr.lns_anchors = anchors;
            return Ok(());
        }

        // Enumerate from the anchor whose host node has the smallest
        // adjacency — every candidate must be a host-neighbor of all
        // anchors anyway.
        let (&(_, base_rc), _) = anchors.split_first().expect("non-empty anchors");
        let mut base_rc = base_rc;
        let mut best_len = usize::MAX;
        for &(_, rc) in &anchors {
            let len = r_net.neighbors(rc).len() + r_net.in_neighbors(rc).len();
            if len < best_len {
                best_len = len;
                base_rc = rc;
            }
        }

        self.scr.lns_seen.clear();
        let neighbor_lists = [r_net.neighbors(base_rc), r_net.in_neighbors(base_rc)];
        for list in neighbor_lists {
            for &(r, _) in list {
                if self.scr.used.contains(r) || self.scr.lns_seen.contains(r) || !degree_ok(r) {
                    continue;
                }
                self.scr.lns_seen.insert(r);
                stats.constraint_evals += 1;
                if !self.problem.node_ok(vn, r)? {
                    continue;
                }
                let mut ok = true;
                for &(vc, rc) in &anchors {
                    if !self.edge_pair_ok(vn, r, vc, rc, stats)? {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    out.push(r);
                }
            }
        }
        self.scr.lns_anchors = anchors;
        Ok(())
    }

    /// Recursive extension (step 5..16 of Figure 7).
    fn extend(
        &mut self,
        deadline: &mut Deadline,
        sink: &mut dyn SolutionSink,
        stats: &mut SearchStats,
    ) -> Result<SearchEnd, ProblemError> {
        if deadline.expired() {
            return Ok(SearchEnd::Timeout);
        }
        if self.depth == self.problem.nq() {
            stats.solutions += 1;
            let mapping = Mapping::new(self.scr.assign.clone());
            return Ok(match sink.report(&mapping) {
                SinkControl::Stop => SearchEnd::SinkStop,
                SinkControl::Continue => SearchEnd::Exhausted,
            });
        }
        let vn = self.pick_next();
        // Take this depth's reusable buffer for the duration of the
        // candidate iteration (recursion uses the deeper buffers).
        let here = self.depth;
        let mut candidates = std::mem::take(&mut self.scr.lns_cand_bufs[here]);
        let result = (|| -> Result<SearchEnd, ProblemError> {
            self.fill_candidates(vn, &mut candidates, stats)?;
            if candidates.is_empty() {
                stats.prunes += 1;
                return Ok(SearchEnd::Exhausted);
            }
            for &r in &candidates {
                stats.nodes_visited += 1;
                self.cover(vn, r);
                let end = self.extend(deadline, sink, stats)?;
                self.uncover(vn, r);
                match end {
                    SearchEnd::Exhausted => {}
                    other => return Ok(other),
                }
            }
            Ok(SearchEnd::Exhausted)
        })();
        candidates.clear();
        self.scr.lns_cand_bufs[here] = candidates;
        result
    }

    fn cover(&mut self, v: NodeId, r: NodeId) {
        self.scr.lns_covered[v.index()] = true;
        self.scr.assign[v.index()] = r;
        self.scr.used.insert(r);
        self.depth += 1;
        let q = self.problem.query;
        for &(nb, _) in q.neighbors(v).iter().chain(q.in_neighbors(v)) {
            self.scr.lns_covered_links[nb.index()] += 1;
        }
    }

    fn uncover(&mut self, v: NodeId, r: NodeId) {
        self.scr.lns_covered[v.index()] = false;
        self.scr.assign[v.index()] = NodeId(u32::MAX);
        self.scr.used.remove(r);
        self.depth -= 1;
        let q = self.problem.query;
        for &(nb, _) in q.neighbors(v).iter().chain(q.in_neighbors(v)) {
            self.scr.lns_covered_links[nb.index()] -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectAll, CollectUpTo};
    use crate::verify::check_mapping;
    use netgraph::{Direction, Network};

    fn run_all(q: &Network, h: &Network, c: &str) -> (Vec<Mapping>, SearchStats) {
        let p = Problem::new(q, h, c).unwrap();
        let mut sink = CollectAll::default();
        let mut stats = SearchStats::default();
        let mut dl = Deadline::unlimited();
        search(
            &p,
            &LnsConfig::default(),
            &mut dl,
            &mut sink,
            &mut stats,
            &mut SearchScratch::new(),
        )
        .unwrap();
        for m in &sink.solutions {
            check_mapping(&p, m).unwrap();
        }
        (sink.solutions, stats)
    }

    fn cycle(n: usize, with_attrs: bool) -> Network {
        let mut h = Network::new(Direction::Undirected);
        let ids: Vec<NodeId> = (0..n).map(|i| h.add_node(format!("h{i}"))).collect();
        for i in 0..n {
            let e = h.add_edge(ids[i], ids[(i + 1) % n]);
            if with_attrs {
                h.set_edge_attr(e, "d", (10 * (i + 1)) as f64);
            }
        }
        h
    }

    #[test]
    fn agrees_with_ecf_on_single_edge() {
        let h = cycle(4, true);
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        q.add_edge(a, b);
        let (lns_sols, stats) = run_all(&q, &h, "rEdge.d <= 20.0");
        assert_eq!(lns_sols.len(), 4); // 2 edges × 2 orientations
        assert_eq!(stats.filter_cells, 0); // LNS keeps no filter state
    }

    #[test]
    fn triangle_in_triangle_all_six() {
        let h = cycle(3, false);
        let q = cycle(3, false);
        let (sols, _) = run_all(&q, &h, "true");
        assert_eq!(sols.len(), 6);
        let distinct: std::collections::HashSet<_> = sols.iter().collect();
        assert_eq!(distinct.len(), 6);
    }

    #[test]
    fn path_in_cycle_counts_match_ecf() {
        let h = cycle(5, false);
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        let c = q.add_node("c");
        q.add_edge(a, b);
        q.add_edge(b, c);
        let (sols, _) = run_all(&q, &h, "true");
        // Centre: 5 choices × 2 orders of its two cycle-neighbors = 10.
        assert_eq!(sols.len(), 10);
    }

    #[test]
    fn infeasible_is_definitive() {
        let h = cycle(4, true);
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        q.add_edge(a, b);
        let p = Problem::new(&q, &h, "rEdge.d > 1e9").unwrap();
        let mut sink = CollectAll::default();
        let mut stats = SearchStats::default();
        let mut dl = Deadline::unlimited();
        let end = search(
            &p,
            &LnsConfig::default(),
            &mut dl,
            &mut sink,
            &mut stats,
            &mut SearchScratch::new(),
        )
        .unwrap();
        assert_eq!(end, SearchEnd::Exhausted);
        assert!(sink.solutions.is_empty());
    }

    #[test]
    fn first_match_stops_early() {
        let h = cycle(6, false);
        let q = cycle(3, false); // no triangle in C6 → infeasible!
        let p = Problem::new(&q, &h, "true").unwrap();
        let mut sink = CollectUpTo::new(1);
        let mut stats = SearchStats::default();
        let mut dl = Deadline::unlimited();
        let end = search(
            &p,
            &LnsConfig::default(),
            &mut dl,
            &mut sink,
            &mut stats,
            &mut SearchScratch::new(),
        )
        .unwrap();
        assert_eq!(end, SearchEnd::Exhausted);
        assert!(sink.solutions.is_empty());

        // A feasible variant: path query.
        let mut q2 = Network::new(Direction::Undirected);
        let a = q2.add_node("a");
        let b = q2.add_node("b");
        q2.add_edge(a, b);
        let p2 = Problem::new(&q2, &h, "true").unwrap();
        let mut sink2 = CollectUpTo::new(1);
        let mut stats2 = SearchStats::default();
        let mut dl2 = Deadline::unlimited();
        let end2 = search(
            &p2,
            &LnsConfig::default(),
            &mut dl2,
            &mut sink2,
            &mut stats2,
            &mut SearchScratch::new(),
        )
        .unwrap();
        assert_eq!(end2, SearchEnd::SinkStop);
        assert_eq!(sink2.solutions.len(), 1);
    }

    #[test]
    fn memo_cache_reduces_evals_without_changing_results() {
        let h = cycle(8, true);
        let q = {
            let mut q = Network::new(Direction::Undirected);
            let ids: Vec<NodeId> = (0..4).map(|i| q.add_node(format!("q{i}"))).collect();
            for w in ids.windows(2) {
                q.add_edge(w[0], w[1]);
            }
            q
        };
        let p = Problem::new(&q, &h, "rEdge.d <= 60.0").unwrap();
        let run = |memo: bool| {
            let mut sink = CollectAll::default();
            let mut stats = SearchStats::default();
            let mut dl = Deadline::unlimited();
            let cfg = LnsConfig {
                memo_cache: memo,
                ..LnsConfig::default()
            };
            let scratch = &mut SearchScratch::new();
            search(&p, &cfg, &mut dl, &mut sink, &mut stats, scratch).unwrap();
            (sink.solutions, stats.constraint_evals)
        };
        let (with_memo, evals_memo) = run(true);
        let (without_memo, evals_raw) = run(false);
        assert_eq!(with_memo.len(), without_memo.len());
        assert!(
            evals_memo <= evals_raw,
            "memo {evals_memo} > raw {evals_raw}"
        );
    }

    #[test]
    fn disconnected_query() {
        let h = cycle(5, false);
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        q.add_edge(a, b);
        q.add_node("lone");
        let (sols, _) = run_all(&q, &h, "true");
        // Edge: 5 edges × 2 orientations = 10; lone node: 3 remaining = 30.
        assert_eq!(sols.len(), 30);
    }

    #[test]
    fn directed_query_in_directed_host() {
        let mut h = Network::new(Direction::Directed);
        let ids: Vec<NodeId> = (0..4).map(|i| h.add_node(format!("h{i}"))).collect();
        for i in 0..4 {
            h.add_edge(ids[i], ids[(i + 1) % 4]);
        }
        let mut q = Network::new(Direction::Directed);
        let a = q.add_node("a");
        let b = q.add_node("b");
        let c = q.add_node("c");
        q.add_edge(a, b);
        q.add_edge(b, c);
        let (sols, _) = run_all(&q, &h, "true");
        // Directed 2-paths in directed C4: 4.
        assert_eq!(sols.len(), 4);
    }

    #[test]
    fn node_constraints_respected() {
        let mut h = cycle(4, false);
        for i in 0..4 {
            h.set_node_attr(NodeId(i), "cpu", (i + 1) as f64);
        }
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        q.add_edge(a, b);
        // cpu ≥ 3 leaves h2, h3 (adjacent in the cycle) — 2 orientations.
        let (sols, _) = run_all(&q, &h, "rNode.cpu >= 3.0");
        assert_eq!(sols.len(), 2);
    }
}
