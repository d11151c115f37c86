//! Cross-crate deadline semantics: zero/expired budgets are caught before
//! any work, cancellation propagates through cloned and scoped deadlines,
//! strided polling cannot mask expiry at phase boundaries, and truncated
//! filter builds still report comparable filter-phase counters.

use netembed::{
    ecf, parallel, Algorithm, CollectAll, Deadline, Engine, FilterMatrix, Mapping, NodeOrder,
    Options, Outcome, ParallelScratch, Problem, SearchScratch, SearchStats, StealPolicy,
};
use netgraph::{Direction, Network, NodeId};
use std::time::Duration;

/// Clique host with delay and cpu attributes.
fn clique_host(n: usize) -> Network {
    let mut h = Network::new(Direction::Undirected);
    let ids: Vec<NodeId> = (0..n).map(|i| h.add_node(format!("h{i}"))).collect();
    for &id in &ids {
        h.set_node_attr(id, "cpu", 8.0);
    }
    for i in 0..n {
        for j in (i + 1)..n {
            let e = h.add_edge(ids[i], ids[j]);
            h.set_edge_attr(e, "d", ((i * 7 + j * 3) % 50) as f64);
        }
    }
    h
}

fn ring_query(n: usize) -> Network {
    let mut q = Network::new(Direction::Undirected);
    let ids: Vec<NodeId> = (0..n).map(|i| q.add_node(format!("q{i}"))).collect();
    for i in 0..n {
        q.add_edge(ids[i], ids[(i + 1) % n]);
    }
    q
}

/// Parallel ECF as the engine runs it: a 4-thread filter build on the
/// scratch's pool, then the stealing search under `dl`.
fn parallel_ecf(
    problem: &Problem<'_>,
    dl: &mut Deadline,
    stats: &mut SearchStats,
) -> (Vec<Mapping>, ecf::SearchEnd) {
    let mut scratch = ParallelScratch::new();
    let filter =
        FilterMatrix::build_par_pooled(problem, None, 4, dl, stats, scratch.pool_mut()).unwrap();
    let (order, policy) = (NodeOrder::default(), StealPolicy::default());
    parallel::search(
        problem,
        &filter,
        4,
        None,
        order,
        dl,
        stats,
        &mut scratch,
        policy,
    )
}

#[test]
fn zero_budget_caught_before_any_work() {
    let host = clique_host(8);
    let query = ring_query(3);
    let engine = Engine::new(&host);
    for algorithm in [
        Algorithm::Ecf,
        Algorithm::Rwb,
        Algorithm::ParallelEcf { threads: 2 },
    ] {
        let r = engine
            .embed(
                &query,
                "true",
                &Options {
                    algorithm,
                    timeout: Some(Duration::ZERO),
                    ..Options::default()
                },
            )
            .unwrap();
        assert!(matches!(r.outcome, Outcome::Inconclusive), "{algorithm:?}");
        assert!(r.stats.timed_out, "{algorithm:?}");
        assert_eq!(r.stats.nodes_visited, 0, "{algorithm:?}: work happened");
        assert_eq!(
            r.stats.constraint_evals, 0,
            "{algorithm:?}: evaluation happened"
        );
    }
}

#[test]
fn mid_stride_polls_do_not_mask_expiry_at_phase_boundaries() {
    // Burn part of the deadline's poll stride while its budget is still
    // live, then let the clock run out. The next *phase boundary* (the
    // build's entry check) must observe expiry immediately — the strided
    // counter being mid-stride must not buy the search hundreds of free
    // tree nodes.
    let host = clique_host(8);
    let query = ring_query(3);
    let problem = Problem::new(&query, &host, "true").unwrap();
    let mut dl = Deadline::new(Some(Duration::from_millis(20)));
    for _ in 0..17 {
        let _ = dl.expired(); // consume mid-stride polls
    }
    std::thread::sleep(Duration::from_millis(25));
    assert!(!dl.was_expired(), "strided poll should not have fired yet");
    let mut sink = CollectAll::default();
    let mut stats = SearchStats::default();
    let filter = FilterMatrix::build(&problem, &mut dl, &mut stats).unwrap();
    let end = ecf::search(
        &problem,
        &filter,
        NodeOrder::default(),
        &mut dl,
        &mut sink,
        &mut stats,
        &mut SearchScratch::new(),
    );
    assert_eq!(end, ecf::SearchEnd::Timeout);
    assert!(stats.timed_out);
    assert_eq!(stats.nodes_visited, 0);
    assert_eq!(stats.constraint_evals, 0);
}

#[test]
fn cancellation_propagates_through_cloned_worker_deadlines() {
    // A cancelled parent deadline must stop the parallel search's workers
    // (which run on scoped + cloned children) before they visit anything.
    let host = clique_host(8);
    let query = ring_query(3);
    let problem = Problem::new(&query, &host, "true").unwrap();
    let mut dl = Deadline::unlimited();
    dl.cancel();
    let mut stats = SearchStats::default();
    let (sols, end) = parallel_ecf(&problem, &mut dl, &mut stats);
    assert!(sols.is_empty());
    assert_eq!(end, ecf::SearchEnd::Timeout);
    assert_eq!(stats.nodes_visited, 0);
}

#[test]
fn cancel_mid_search_stops_all_workers() {
    // Cancel from another thread while the parallel search runs. Either
    // the canceller wins (Timeout, partial results) or the search was
    // simply faster (Exhausted) — but it must never hang, and a timeout
    // must be flagged in the stats.
    let host = clique_host(11);
    let query = ring_query(5);
    let problem = Problem::new(&query, &host, "true").unwrap();
    let dl = Deadline::unlimited();
    let canceller = dl.clone();
    let handle = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        canceller.cancel();
    });
    let mut dl = dl;
    let mut stats = SearchStats::default();
    let (_, end) = parallel_ecf(&problem, &mut dl, &mut stats);
    handle.join().unwrap();
    match end {
        ecf::SearchEnd::Timeout => assert!(stats.timed_out),
        ecf::SearchEnd::Exhausted => assert!(!stats.timed_out),
        other => panic!("unexpected end: {other:?}"),
    }
}

#[test]
fn truncated_build_still_reports_filter_phase_counters() {
    // A budget big enough to start the first-stage scan but far too small
    // to finish it (the same scenario takes milliseconds unconstrained):
    // the timeout row must still carry the filter-phase counters so it is
    // comparable with completed rows in harness/bench tables.
    let host = clique_host(40);
    let query = ring_query(4);
    let constraint = "rNode.cpu >= 0.0 && rEdge.d <= 25.0";
    let engine = Engine::new(&host);
    for algorithm in [Algorithm::Ecf, Algorithm::ParallelEcf { threads: 4 }] {
        let r = engine
            .embed(
                &query,
                constraint,
                &Options {
                    algorithm,
                    timeout: Some(Duration::from_micros(50)),
                    ..Options::default()
                },
            )
            .unwrap();
        assert!(matches!(r.outcome, Outcome::Inconclusive), "{algorithm:?}");
        assert!(r.stats.timed_out, "{algorithm:?}");
        assert_eq!(r.stats.nodes_visited, 0, "{algorithm:?}: search ran");
        // The node-admissibility prefilter ran before the budget expired,
        // so the eval counter is populated even on the timeout row.
        assert!(
            r.stats.constraint_evals > 0,
            "{algorithm:?}: filter-phase counters missing from timeout row"
        );
    }
}

#[test]
fn scoped_limit_stop_leaves_request_deadline_usable() {
    // Engine-level view of the parallel bugfix: an UpTo-limit stop inside
    // the parallel search must classify as Partial (not a timeout).
    let host = clique_host(8);
    let query = ring_query(3);
    let engine = Engine::new(&host);
    let r = engine
        .embed(
            &query,
            "true",
            &Options {
                algorithm: Algorithm::ParallelEcf { threads: 4 },
                mode: netembed::SearchMode::UpTo(4),
                ..Options::default()
            },
        )
        .unwrap();
    assert_eq!(r.mappings.len(), 4);
    assert!(matches!(r.outcome, Outcome::Partial(_)));
    assert!(!r.stats.timed_out, "limit stop misreported as timeout");
}
