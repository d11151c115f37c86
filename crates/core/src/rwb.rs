//! Random Walk with Backtracking (RWB) — §V-B, Figure 5.
//!
//! RWB shares ECF's filtering conditions (expressions (1) and (2)) but
//! chooses the next candidate mapping *at random*, backtracking to the
//! previous virtual node when it reaches a dead end. Because the walk is a
//! randomized depth-first traversal of the same pruned permutation tree it
//! inherits ECF's completeness: if it returns "no solution" without timing
//! out, no solution exists. By design it terminates as soon as the first
//! feasible embedding is found (footnote 7 of the paper) — callers wanting
//! several random solutions pass a sink that collects more.

use crate::deadline::Deadline;
use crate::ecf::{search_walk, SearchEnd};
use crate::filter::FilterMatrix;
use crate::order::NodeOrder;
use crate::problem::Problem;
use crate::scratch::SearchScratch;
use crate::sink::SolutionSink;
use crate::stats::SearchStats;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The random walk over a filter built for this problem: the ECF DFS
/// with each frame's candidates shuffled by an RNG seeded with `seed`.
/// The `sink` decides how many embeddings to collect (one is the
/// paper's behaviour); different seeds, sinks or deadlines can reuse
/// one build. Truncated filters and expired deadlines are handled as in
/// `ecf::search`.
#[allow(clippy::too_many_arguments)]
pub fn search(
    problem: &Problem<'_>,
    filter: &FilterMatrix,
    seed: u64,
    order: NodeOrder,
    deadline: &mut Deadline,
    sink: &mut dyn SolutionSink,
    stats: &mut SearchStats,
    scratch: &mut SearchScratch,
) -> SearchEnd {
    let mut rng = StdRng::seed_from_u64(seed);
    search_walk(
        problem,
        filter,
        order,
        Some(&mut rng),
        deadline,
        sink,
        stats,
        scratch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Mapping;
    use crate::sink::CollectUpTo;
    use crate::verify::check_mapping;
    use netgraph::{Direction, Network, NodeId};

    /// Build the filter, then collect up to `limit` random-walk
    /// embeddings.
    fn walk(
        problem: &Problem<'_>,
        seed: u64,
        limit: usize,
        deadline: &mut Deadline,
        stats: &mut SearchStats,
    ) -> (Vec<Mapping>, SearchEnd) {
        let filter = FilterMatrix::build(problem, deadline, stats).unwrap();
        let mut sink = CollectUpTo::new(limit);
        let end = search(
            problem,
            &filter,
            seed,
            NodeOrder::default(),
            deadline,
            &mut sink,
            stats,
            &mut SearchScratch::new(),
        );
        (sink.solutions, end)
    }

    fn host_cycle(n: usize) -> Network {
        let mut h = Network::new(Direction::Undirected);
        let ids: Vec<NodeId> = (0..n).map(|i| h.add_node(format!("h{i}"))).collect();
        for i in 0..n {
            let e = h.add_edge(ids[i], ids[(i + 1) % n]);
            h.set_edge_attr(e, "d", (10 * (i + 1)) as f64);
        }
        h
    }

    fn path_query(n: usize) -> Network {
        let mut q = Network::new(Direction::Undirected);
        let ids: Vec<NodeId> = (0..n).map(|i| q.add_node(format!("q{i}"))).collect();
        for w in ids.windows(2) {
            q.add_edge(w[0], w[1]);
        }
        q
    }

    #[test]
    fn finds_first_valid_solution() {
        let h = host_cycle(6);
        let q = path_query(3);
        let p = Problem::new(&q, &h, "true").unwrap();
        let mut stats = SearchStats::default();
        let mut dl = Deadline::unlimited();
        let (sols, end) = walk(&p, 42, 1, &mut dl, &mut stats);
        assert_eq!(sols.len(), 1);
        assert_eq!(end, crate::ecf::SearchEnd::SinkStop);
        check_mapping(&p, &sols[0]).unwrap();
    }

    #[test]
    fn different_seeds_can_find_different_solutions() {
        let h = host_cycle(8);
        let q = path_query(3);
        let p = Problem::new(&q, &h, "true").unwrap();
        let mut found = std::collections::HashSet::new();
        for seed in 0..20 {
            let mut stats = SearchStats::default();
            let mut dl = Deadline::unlimited();
            let (sols, _) = walk(&p, seed, 1, &mut dl, &mut stats);
            found.insert(sols[0].clone());
        }
        // With 8·2·… possible embeddings, 20 random walks should not all
        // collapse onto one solution.
        assert!(found.len() > 1, "all seeds returned the same mapping");
    }

    #[test]
    fn complete_on_infeasible_instances() {
        let h = host_cycle(5);
        let q = path_query(3);
        let p = Problem::new(&q, &h, "rEdge.d > 1e6").unwrap();
        let mut stats = SearchStats::default();
        let mut dl = Deadline::unlimited();
        let (sols, end) = walk(&p, 7, 1, &mut dl, &mut stats);
        assert!(sols.is_empty());
        // Exhausted (not timeout): a definitive "no solution".
        assert_eq!(end, crate::ecf::SearchEnd::Exhausted);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let h = host_cycle(8);
        let q = path_query(4);
        let p = Problem::new(&q, &h, "true").unwrap();
        let run = |seed| {
            let mut stats = SearchStats::default();
            let mut dl = Deadline::unlimited();
            walk(&p, seed, 1, &mut dl, &mut stats).0
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn limit_collects_multiple_random_solutions() {
        let h = host_cycle(8);
        let q = path_query(3);
        let p = Problem::new(&q, &h, "true").unwrap();
        let mut stats = SearchStats::default();
        let mut dl = Deadline::unlimited();
        let (sols, _) = walk(&p, 3, 5, &mut dl, &mut stats);
        assert_eq!(sols.len(), 5);
        for m in &sols {
            check_mapping(&p, m).unwrap();
        }
    }
}
