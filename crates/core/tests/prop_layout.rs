//! Layout-equivalence property tests: the CSR-arena [`FilterMatrix`] and
//! the seed's hash-map reference (`filter::reference::HashFilterMatrix`)
//! must agree cell-for-cell on random problems, and the allocation-free
//! DFS over the CSR filter must enumerate exactly the solution set of the
//! reference search — the two layouts are interchangeable up to speed.
//!
//! The pooled parallel build (`FilterMatrix::build_par_pooled`) is
//! additionally proven *bitwise-identical* to the one-thread build on
//! random problems and thread counts: `FilterMatrix`'s `PartialEq` compares the raw CSR
//! storage (pair slots, offset rows, candidate arena, bitset mirrors,
//! base sets), so equality means the layouts match word for word, and a
//! search over either filter takes exactly the same path.
//!
//! The restricted build (`FilterMatrix::build_restricted`, the
//! hierarchical search's expansion step) is held to the flat build: each
//! of its cells must be the flat cell cut to the allowed host nodes, on
//! random allowed sets including empty and full ones, and its pooled
//! build must be bitwise-identical to it.
//!
//! The work-stealing parallel DFS is held to the same standard: at every
//! tested thread count (env-overridable via `NETEMBED_TEST_WORKERS`, so
//! CI can force a skewed 4-worker pool on a 1-core box) and under an
//! aggressive split policy it must enumerate exactly the sequential
//! solution multiset with identical `nodes_visited`/`prunes` totals, and
//! a mid-search cancel must stop it without inventing solutions.

use netembed::filter::reference::{self, HashFilterMatrix};
use netembed::order::{compute_order, predecessors};
use netembed::{
    ecf, parallel, CollectAll, Deadline, FilterMatrix, Mapping, NodeOrder, ParallelScratch,
    Problem, SearchScratch, SearchStats, StealPolicy, WorkerPool,
};
use netgraph::{Direction, Network, NodeBitSet, NodeId};
use proptest::prelude::*;

/// Thread counts exercised by the stealing properties. CI pins this to a
/// forced worker count (`NETEMBED_TEST_WORKERS=4`) so scheduler-skew
/// bugs surface even on single-core runners.
fn steal_threads() -> Vec<usize> {
    match std::env::var("NETEMBED_TEST_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) if n >= 1 => vec![n],
        _ => vec![2, 3, 4],
    }
}

/// Build a host/query pair from raw edge lists (self-loops and duplicate
/// edges are dropped; node indices wrap).
fn build_nets(
    dir: Direction,
    nr: usize,
    hedges: &[(u32, u32, u32)],
    nq: usize,
    qedges: &[(u32, u32)],
) -> (Network, Network) {
    let mut host = Network::new(dir);
    for i in 0..nr {
        host.add_node(format!("h{i}"));
    }
    for &(u, v, d) in hedges {
        let (u, v) = (NodeId(u % nr as u32), NodeId(v % nr as u32));
        if u != v && !host.has_edge(u, v) {
            let e = host.add_edge(u, v);
            host.set_edge_attr(e, "d", d as f64);
        }
    }
    let mut query = Network::new(dir);
    for i in 0..nq {
        query.add_node(format!("q{i}"));
    }
    for &(u, v) in qedges {
        let (u, v) = (NodeId(u % nq as u32), NodeId(v % nq as u32));
        if u != v && !query.has_edge(u, v) {
            query.add_edge(u, v);
        }
    }
    (host, query)
}

/// Assert both layouts agree on every observable of the filter stage.
fn assert_filters_equal(
    query: &Network,
    host: &Network,
    csr: &FilterMatrix,
    href: &HashFilterMatrix,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(csr.cell_count(), href.cell_count());
    prop_assert_eq!(csr.entry_count(), href.entry_count());
    for v in query.node_ids() {
        prop_assert_eq!(csr.candidate_count(v), href.candidate_count(v));
        prop_assert_eq!(csr.base(v), href.base(v), "base set mismatch at {}", v);
    }
    for vj in query.node_ids() {
        for vi in query.node_ids() {
            for rj in host.node_ids() {
                prop_assert_eq!(
                    csr.fwd_cell(vj, rj, vi),
                    href.fwd_cell(vj, rj, vi),
                    "fwd cell ({}, {}, {})",
                    vj,
                    rj,
                    vi
                );
                prop_assert_eq!(
                    csr.rev_cell(vj, rj, vi),
                    href.rev_cell(vj, rj, vi),
                    "rev cell ({}, {}, {})",
                    vj,
                    rj,
                    vi
                );
                // The bitset mirror, when present, must agree with the
                // slice it mirrors.
                let view = csr.fwd_view(vj, rj, vi);
                if let Some(bits) = view.bits {
                    prop_assert_eq!(&bits.iter().collect::<Vec<_>>(), &view.slice);
                }
            }
        }
    }
    Ok(())
}

fn sorted_mappings(mut v: Vec<Mapping>) -> Vec<Mapping> {
    v.sort_by_key(|m| m.as_slice().to_vec());
    v
}

fn check_case(
    dir: Direction,
    nr: usize,
    hedges: &[(u32, u32, u32)],
    nq: usize,
    qedges: &[(u32, u32)],
    thr: u32,
) -> Result<(), TestCaseError> {
    let (host, query) = build_nets(dir, nr, hedges, nq, qedges);
    prop_assume!(query.node_count() <= host.node_count());
    let constraint = format!("rEdge.d <= {thr}.0");
    let problem = Problem::new(&query, &host, &constraint).unwrap();

    let mut dl = Deadline::unlimited();
    let mut s_csr = SearchStats::default();
    let mut s_ref = SearchStats::default();
    let csr = FilterMatrix::build(&problem, &mut dl, &mut s_csr).unwrap();
    let href = HashFilterMatrix::build(&problem, &mut dl, &mut s_ref).unwrap();

    // Identical candidate sets and identical eval accounting.
    prop_assert_eq!(s_csr.constraint_evals, s_ref.constraint_evals);
    prop_assert_eq!(s_csr.filter_cells, s_ref.filter_cells);
    assert_filters_equal(&query, &host, &csr, &href)?;

    // The pooled build must reproduce the sequential CSR layout
    // *bitwise* (PartialEq compares the raw arena storage), along with
    // the eval accounting, at every thread count.
    let mut pool = WorkerPool::new();
    for threads in [2usize, 3, 4] {
        let mut dl_par = Deadline::unlimited();
        let mut s_par = SearchStats::default();
        let par = FilterMatrix::build_par_pooled(
            &problem,
            None,
            threads,
            &mut dl_par,
            &mut s_par,
            &mut pool,
        )
        .unwrap();
        prop_assert!(
            par == csr,
            "parallel build diverges from sequential at {} threads",
            threads
        );
        prop_assert_eq!(s_par.constraint_evals, s_csr.constraint_evals);
        prop_assert_eq!(s_par.filter_cells, s_csr.filter_cells);
    }

    // Identical ECF solution sets, traversing in the same Lemma-1 order.
    let order = compute_order(&query, &csr, NodeOrder::AscendingCandidates);
    let preds = predecessors(&query, &order);
    let ref_sols = reference::search_all(&problem, &href, &order, &preds);

    let mut sink = CollectAll::default();
    let mut stats = SearchStats::default();
    let mut dl2 = Deadline::unlimited();
    ecf::search(
        &problem,
        &csr,
        NodeOrder::AscendingCandidates,
        &mut dl2,
        &mut sink,
        &mut stats,
        &mut SearchScratch::new(),
    );

    prop_assert_eq!(
        sorted_mappings(sink.solutions),
        sorted_mappings(ref_sols),
        "solution sets diverge"
    );
    Ok(())
}

/// Work-stealing determinism: the parallel DFS under maximal task churn
/// must reproduce the sequential ECF run exactly — same solution
/// multiset, same visited/prune totals, same build counters.
fn check_steal_case(
    dir: Direction,
    nr: usize,
    hedges: &[(u32, u32, u32)],
    nq: usize,
    qedges: &[(u32, u32)],
    thr: u32,
) -> Result<(), TestCaseError> {
    let (host, query) = build_nets(dir, nr, hedges, nq, qedges);
    prop_assume!(query.node_count() <= host.node_count());
    let constraint = format!("rEdge.d <= {thr}.0");
    let problem = Problem::new(&query, &host, &constraint).unwrap();

    let mut dl = Deadline::unlimited();
    let mut bstats = SearchStats::default();
    let filter = FilterMatrix::build(&problem, &mut dl, &mut bstats).unwrap();

    let mut sink = CollectAll::default();
    let mut seq_stats = SearchStats::default();
    let mut dl_seq = Deadline::unlimited();
    ecf::search(
        &problem,
        &filter,
        NodeOrder::AscendingCandidates,
        &mut dl_seq,
        &mut sink,
        &mut seq_stats,
        &mut SearchScratch::new(),
    );
    let seq = sorted_mappings(sink.solutions);

    for threads in steal_threads() {
        let mut scratch = ParallelScratch::new();
        let mut stats = SearchStats::default();
        let mut dl_par = Deadline::unlimited();
        let (sols, end) = parallel::search(
            &problem,
            &filter,
            threads,
            None,
            NodeOrder::AscendingCandidates,
            &mut dl_par,
            &mut stats,
            &mut scratch,
            StealPolicy::aggressive(),
        );
        prop_assert_eq!(end, ecf::SearchEnd::Exhausted, "threads {}", threads);
        prop_assert_eq!(
            sorted_mappings(sols),
            seq.clone(),
            "stealing solution set diverges at {} threads",
            threads
        );
        // Splitting moves subtrees between workers; it must never
        // duplicate or drop one.
        prop_assert_eq!(stats.nodes_visited, seq_stats.nodes_visited);
        prop_assert_eq!(stats.prunes, seq_stats.prunes);
        prop_assert_eq!(stats.filter_cells, seq_stats.filter_cells);

        // Mid-search deadline cancel, deterministically triggered: a
        // solution limit below the full count makes the first worker to
        // reach it cancel the (scoped) pool deadline while siblings are
        // still searching — possibly with stolen tasks queued. The pool
        // must drain and stop: exactly `limit` solutions, every one a
        // member of the true set, and no timeout reported (the limit,
        // not the clock, stopped it).
        if seq.len() >= 2 {
            let k = 1 + seq.len() / 2;
            let mut limit_dl = Deadline::unlimited();
            let mut lstats = SearchStats::default();
            let (lsols, lend) = parallel::search(
                &problem,
                &filter,
                threads,
                Some(k),
                NodeOrder::AscendingCandidates,
                &mut limit_dl,
                &mut lstats,
                &mut scratch,
                StealPolicy::aggressive(),
            );
            prop_assert_eq!(lend, ecf::SearchEnd::SinkStop);
            prop_assert_eq!(lsols.len(), k);
            prop_assert!(!lstats.timed_out, "limit stop misreported as timeout");
            prop_assert!(!limit_dl.check_now(), "pool cancel leaked to caller");
            for m in &lsols {
                prop_assert!(seq.contains(m), "limit run invented a solution");
            }
        }

        // Pre-cancelled caller deadline: the pool must refuse to start
        // (drain-at-entry) and report an honest timeout.
        let mut cancel_dl = Deadline::unlimited();
        cancel_dl.cancel();
        let mut cstats = SearchStats::default();
        let (csols, cend) = parallel::search(
            &problem,
            &filter,
            threads,
            None,
            NodeOrder::AscendingCandidates,
            &mut cancel_dl,
            &mut cstats,
            &mut scratch,
            StealPolicy::aggressive(),
        );
        prop_assert_eq!(cend, ecf::SearchEnd::Timeout);
        prop_assert!(cstats.timed_out);
        prop_assert!(csols.is_empty());
    }
    Ok(())
}

/// Restricted-build oracle: `build_restricted` over per-query-node
/// `allowed` sets is the flat build filtered to anchors `rj ∈
/// allowed[vj]` and candidates `r2 ∈ allowed[vi]`, cell for cell with
/// `rj` over every host node (so lookups outside the base sets are hit
/// too); its base sets are the anchors of its non-empty cells (the
/// allowed part of the admissible set for edge-less query nodes); and
/// the pooled build at every tested thread count is `==` to it. Each
/// case runs with the drawn `masks` (per query node: empty, full or
/// random bits), with every set empty and with every set full — where
/// the restricted build must equal the flat build outright.
fn check_restricted_case(
    dir: Direction,
    nr: usize,
    hedges: &[(u32, u32, u32)],
    nq: usize,
    qedges: &[(u32, u32)],
    thr: u32,
    masks: &[(u8, u64)],
) -> Result<(), TestCaseError> {
    let (host, query) = build_nets(dir, nr, hedges, nq, qedges);
    prop_assume!(query.node_count() <= host.node_count());
    let constraint = format!("rEdge.d <= {thr}.0");
    let problem = Problem::new(&query, &host, &constraint).unwrap();
    let mut dl = Deadline::unlimited();
    let flat = FilterMatrix::build(&problem, &mut dl, &mut SearchStats::default()).unwrap();

    let drawn: Vec<NodeBitSet> = query
        .node_ids()
        .map(|v| match masks[v.index() % masks.len()] {
            (0, _) => NodeBitSet::new(nr),
            (1, _) => NodeBitSet::full(nr),
            (_, bits) => NodeBitSet::from_iter(
                nr,
                host.node_ids()
                    .filter(|r| bits >> (r.index() % 64) & 1 == 1),
            ),
        })
        .collect();
    let empty = vec![NodeBitSet::new(nr); nq];
    let full = vec![NodeBitSet::full(nr); nq];
    for (allowed, everything) in [(&drawn, false), (&empty, false), (&full, true)] {
        let mut s_res = SearchStats::default();
        let res = FilterMatrix::build_restricted(&problem, allowed, &mut dl, &mut s_res).unwrap();
        let mut base: Vec<NodeBitSet> = vec![NodeBitSet::new(nr); nq];
        let (mut cells, mut entries) = (0usize, 0usize);
        for vj in query.node_ids() {
            for vi in query.node_ids() {
                for rj in host.node_ids() {
                    let cases = [
                        ("fwd", res.fwd_cell(vj, rj, vi), flat.fwd_cell(vj, rj, vi)),
                        ("rev", res.rev_cell(vj, rj, vi), flat.rev_cell(vj, rj, vi)),
                    ];
                    for (table, got, whole) in cases {
                        let want: Vec<NodeId> = whole
                            .iter()
                            .copied()
                            .filter(|&r2| {
                                allowed[vj.index()].contains(rj) && allowed[vi.index()].contains(r2)
                            })
                            .collect();
                        prop_assert_eq!(
                            got,
                            want.as_slice(),
                            "{} cell ({}, {}, {})",
                            table,
                            vj,
                            rj,
                            vi
                        );
                        if !want.is_empty() {
                            cells += 1;
                            entries += want.len();
                            base[vj.index()].insert(rj);
                        }
                    }
                    let view = res.fwd_view(vj, rj, vi);
                    prop_assert_eq!(view.slice, res.fwd_cell(vj, rj, vi));
                    if let Some(bits) = view.bits {
                        prop_assert_eq!(&bits.iter().collect::<Vec<_>>(), &view.slice);
                    }
                }
            }
        }
        for v in query.node_ids() {
            if query.total_degree(v) == 0 {
                base[v.index()] = flat.base(v).clone();
                base[v.index()].intersect_with(&allowed[v.index()]);
            }
            prop_assert_eq!(res.base(v), &base[v.index()], "base set of {}", v);
            prop_assert_eq!(res.candidate_count(v), base[v.index()].len());
        }
        prop_assert_eq!(res.cell_count(), cells);
        prop_assert_eq!(res.entry_count(), entries);
        if everything {
            prop_assert!(
                res == flat,
                "an all-allowed restricted build differs from the flat build"
            );
        }

        let mut pool = WorkerPool::new();
        for threads in steal_threads() {
            let mut s_par = SearchStats::default();
            let par = FilterMatrix::build_par_pooled(
                &problem,
                Some(allowed),
                threads,
                &mut dl,
                &mut s_par,
                &mut pool,
            )
            .unwrap();
            prop_assert!(
                par == res,
                "pooled restricted build diverges at {} threads",
                threads
            );
            prop_assert_eq!(s_par.constraint_evals, s_res.constraint_evals);
            prop_assert_eq!(s_par.filter_cells, s_res.filter_cells);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Undirected problems: cells, bases, stats, and full solution sets
    /// agree between the CSR and hash-map layouts.
    #[test]
    fn csr_equals_reference_undirected(
        nr in 3usize..8,
        hedges in proptest::collection::vec((0u32..8, 0u32..8, 0u32..50), 1..20),
        nq in 2usize..5,
        qedges in proptest::collection::vec((0u32..5, 0u32..5), 1..8),
        thr in 5u32..45,
    ) {
        check_case(Direction::Undirected, nr, &hedges, nq, &qedges, thr)?;
    }

    /// Directed problems exercise the reverse-cell table as well.
    #[test]
    fn csr_equals_reference_directed(
        nr in 3usize..8,
        hedges in proptest::collection::vec((0u32..8, 0u32..8, 0u32..50), 1..20),
        nq in 2usize..5,
        qedges in proptest::collection::vec((0u32..5, 0u32..5), 1..8),
        thr in 5u32..45,
    ) {
        check_case(Direction::Directed, nr, &hedges, nq, &qedges, thr)?;
    }

    /// Dense unconstrained problems push cells past the bitset-mirror
    /// threshold, exercising the word-level intersection path end to end.
    #[test]
    fn csr_equals_reference_dense(
        nr in 17usize..24,
        nq in 2usize..4,
        qedges in proptest::collection::vec((0u32..4, 0u32..4), 1..5),
    ) {
        // Complete host graph: every cell anchored anywhere is dense.
        let hedges: Vec<(u32, u32, u32)> = (0..nr as u32)
            .flat_map(|u| ((u + 1)..nr as u32).map(move |v| (u, v, 10)))
            .collect();
        check_case(Direction::Undirected, nr, &hedges, nq, &qedges, 45)?;
    }

    /// Undirected restricted builds are the flat build filtered to the
    /// allowed sets.
    #[test]
    fn restricted_equals_filtered_flat_undirected(
        nr in 3usize..8,
        hedges in proptest::collection::vec((0u32..8, 0u32..8, 0u32..50), 1..20),
        nq in 2usize..5,
        qedges in proptest::collection::vec((0u32..5, 0u32..5), 1..8),
        thr in 5u32..45,
        masks in proptest::collection::vec((0u8..4, any::<u64>()), 1..5),
    ) {
        check_restricted_case(Direction::Undirected, nr, &hedges, nq, &qedges, thr, &masks)?;
    }

    /// Directed restricted builds, reverse table included.
    #[test]
    fn restricted_equals_filtered_flat_directed(
        nr in 3usize..8,
        hedges in proptest::collection::vec((0u32..8, 0u32..8, 0u32..50), 1..20),
        nq in 2usize..5,
        qedges in proptest::collection::vec((0u32..5, 0u32..5), 1..8),
        thr in 5u32..45,
        masks in proptest::collection::vec((0u8..4, any::<u64>()), 1..5),
    ) {
        check_restricted_case(Direction::Directed, nr, &hedges, nq, &qedges, thr, &masks)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Work-stealing determinism on random undirected problems: the
    /// solution multiset and visit/prune totals match sequential ECF at
    /// every tested thread count, including under a mid-search cancel.
    #[test]
    fn stealing_matches_sequential_undirected(
        nr in 4usize..9,
        hedges in proptest::collection::vec((0u32..9, 0u32..9, 0u32..50), 4..24),
        nq in 2usize..5,
        qedges in proptest::collection::vec((0u32..5, 0u32..5), 1..8),
        thr in 10u32..45,
    ) {
        check_steal_case(Direction::Undirected, nr, &hedges, nq, &qedges, thr)?;
    }

    /// Directed problems route through the reverse-cell table under
    /// stealing as well.
    #[test]
    fn stealing_matches_sequential_directed(
        nr in 4usize..9,
        hedges in proptest::collection::vec((0u32..9, 0u32..9, 0u32..50), 4..24),
        nq in 2usize..5,
        qedges in proptest::collection::vec((0u32..5, 0u32..5), 1..8),
        thr in 10u32..45,
    ) {
        check_steal_case(Direction::Directed, nr, &hedges, nq, &qedges, thr)?;
    }
}
