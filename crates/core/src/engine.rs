//! The high-level embedding API: pick an algorithm, a search mode and a
//! timeout, get back mappings + outcome + statistics.
//!
//! [`Engine`] is the in-process form of the NETEMBED mapping service
//! (component 2 of Figure 1); the `service` crate wraps it with model
//! management, reservations and negotiation.

use crate::deadline::Deadline;
use crate::ecf;
use crate::filter::FilterMatrix;
use crate::hierarchy::{HierarchySpec, Refinement, SubstrateHierarchy};
use crate::lns::{self, LnsConfig};
use crate::mapping::Mapping;
use crate::order::NodeOrder;
use crate::outcome::Outcome;
use crate::parallel::{self, StealPolicy};
use crate::problem::{Problem, ProblemError};
use crate::rwb;
use crate::scratch::EmbedScratch;
use crate::sink::{CollectAll, CollectUpTo};
use crate::stats::{BuildCharge, SearchStats};
use netgraph::{Network, NodeBitSet};
use std::time::Duration;

/// Which search algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Exhaustive search with constraint filtering (§V-A).
    Ecf,
    /// Random walk with backtracking (§V-B).
    Rwb,
    /// Lazy neighborhood search (§V-C).
    Lns,
    /// ECF with the filter build and the search spread over the given
    /// number of work-stealing pool threads.
    ParallelEcf {
        /// Worker threads.
        threads: usize,
    },
}

/// How many embeddings to look for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Enumerate every feasible embedding.
    All,
    /// Stop at the first feasible embedding.
    First,
    /// Stop after `k` feasible embeddings.
    UpTo(usize),
}

/// Engine options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Algorithm to run.
    pub algorithm: Algorithm,
    /// Search mode.
    pub mode: SearchMode,
    /// Wall-clock budget; `None` = unlimited.
    pub timeout: Option<Duration>,
    /// Query-node ordering (ECF/RWB only).
    pub order: NodeOrder,
    /// RNG seed (RWB only).
    pub seed: u64,
    /// LNS heuristics (LNS only).
    pub lns: LnsConfig,
    /// Work-stealing split policy (ParallelEcf only): the D/K knobs of
    /// depth-bounded subtree re-splitting. [`StealPolicy::aggressive`]
    /// splits at every depth (the determinism tests' stress setting).
    pub steal: StealPolicy,
    /// When set, the filter-based algorithms (ECF/RWB/ParallelEcf) run
    /// hierarchically: the host is coarsened into a
    /// [`SubstrateHierarchy`], a top-down refinement prunes infeasible
    /// super-node subtrees with sound abstract constraint verdicts, and
    /// the exact filter is built only inside the surviving subtrees
    /// ([`FilterMatrix::build_restricted`]). Solution sets are identical
    /// to the flat run; on large substrates only a fraction of the
    /// `O(|VQ|·|VR|)` matrix is expanded. LNS ignores the knob (it
    /// keeps no filter state to restrict). Engine-level runs rebuild
    /// the hierarchy per call; the service layer caches it per
    /// `(host, epoch)` and routes through [`Engine::run_hier`].
    pub hierarchy: Option<HierarchySpec>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            algorithm: Algorithm::Ecf,
            mode: SearchMode::All,
            timeout: None,
            order: NodeOrder::default(),
            seed: 0,
            lns: LnsConfig::default(),
            steal: StealPolicy::default(),
            hierarchy: None,
        }
    }
}

/// The result of one embedding run.
#[derive(Debug, Clone)]
pub struct EmbedResult {
    /// The embeddings found (order is algorithm-dependent).
    pub mappings: Vec<Mapping>,
    /// §VII-E classification of the result.
    pub outcome: Outcome,
    /// Search statistics (timings, visited nodes, evaluations).
    pub stats: SearchStats,
}

/// An embedding engine bound to one hosting network.
pub struct Engine<'a> {
    host: &'a Network,
}

impl<'a> Engine<'a> {
    /// Create an engine for `host`.
    pub fn new(host: &'a Network) -> Self {
        Engine { host }
    }

    /// The hosting network.
    pub fn host(&self) -> &Network {
        self.host
    }

    /// Embed `query` under `constraint` (§VI-B source text).
    pub fn embed(
        &self,
        query: &Network,
        constraint: &str,
        options: &Options,
    ) -> Result<EmbedResult, ProblemError> {
        let problem = Problem::new(query, self.host, constraint)?;
        Self::run(&problem, options)
    }

    /// Embed a pre-built problem (lets callers supply separate edge and
    /// node expressions via [`Problem::with_exprs`]).
    pub fn run(problem: &Problem<'_>, options: &Options) -> Result<EmbedResult, ProblemError> {
        Self::run_with_scratch(problem, options, &mut EmbedScratch::new())
    }

    /// [`Engine::run`] with a caller-held [`EmbedScratch`]. The filter
    /// build runs under this call, on the scratch's worker pool for
    /// [`Algorithm::ParallelEcf`]; batch callers that also want to
    /// amortize the *filter* across runs use [`Engine::run_prebuilt`].
    pub fn run_with_scratch(
        problem: &Problem<'_>,
        options: &Options,
        scratch: &mut EmbedScratch,
    ) -> Result<EmbedResult, ProblemError> {
        let mut deadline = Deadline::new(options.timeout);
        let mut stats = SearchStats::default();
        let start = std::time::Instant::now();

        let (mappings, end) = match (options.algorithm, options.hierarchy) {
            (Algorithm::Lns, _) => {
                Self::dispatch_lns(problem, options, &mut deadline, &mut stats, scratch)?
            }
            (_, Some(spec)) => {
                // Hierarchical path: coarsen, refine, then build the
                // exact filter only inside the surviving subtrees. The
                // construction happens under this run's deadline clock,
                // so a budgeted caller pays for it; the service layer
                // amortizes it through its `HierarchyCache`.
                let hier = SubstrateHierarchy::build(problem.host, &spec);
                Self::dispatch_hier(problem, &hier, options, &mut deadline, &mut stats, scratch)?
            }
            (_, None) => Self::build_and_dispatch(
                problem,
                None,
                options,
                &mut deadline,
                &mut stats,
                scratch,
            )?,
        };
        Ok(Self::finalize(
            mappings,
            end,
            stats,
            start,
            options.algorithm,
        ))
    }

    /// Run over an already constructed filter (built with
    /// [`FilterMatrix::build`]/[`FilterMatrix::build_par_pooled`] for the
    /// *same* problem). This is the batch primitive: one filter build plus one
    /// scratch serve any number of runs — different modes, orders, seeds
    /// or thread counts ([`Algorithm::Lns`] ignores the filter). The
    /// returned stats cover only this run; build-phase counters live with
    /// whoever built the filter, except `filter_cells`, which is
    /// re-reported per run so result tables stay comparable.
    pub fn run_prebuilt(
        problem: &Problem<'_>,
        filter: &FilterMatrix,
        options: &Options,
        scratch: &mut EmbedScratch,
    ) -> Result<EmbedResult, ProblemError> {
        let mut deadline = Deadline::new(options.timeout);
        let mut stats = SearchStats::default();
        let start = std::time::Instant::now();
        let (mappings, end) = match options.algorithm {
            Algorithm::Lns => {
                Self::dispatch_lns(problem, options, &mut deadline, &mut stats, scratch)?
            }
            _ => Self::dispatch_prebuilt(
                problem,
                filter,
                options,
                &mut deadline,
                &mut stats,
                scratch,
            ),
        };
        Ok(Self::finalize(
            mappings,
            end,
            stats,
            start,
            options.algorithm,
        ))
    }

    /// Run hierarchically over an already coarsened substrate (built
    /// with [`SubstrateHierarchy::build`] for this problem's host) —
    /// the batch primitive of the hierarchical path, mirroring
    /// [`Engine::run_prebuilt`]: one coarsening serves any number of
    /// queries against the same host snapshot. Refinement, the
    /// restricted filter build and the exact search all run under this
    /// call's deadline. A sound coarse-level infeasibility verdict
    /// returns [`Outcome::Complete`] with no mappings — definitively
    /// infeasible without touching the full filter matrix.
    pub fn run_hier(
        problem: &Problem<'_>,
        hier: &SubstrateHierarchy,
        options: &Options,
        scratch: &mut EmbedScratch,
    ) -> Result<EmbedResult, ProblemError> {
        let mut deadline = Deadline::new(options.timeout);
        let mut stats = SearchStats::default();
        let start = std::time::Instant::now();
        let (mappings, end) = match options.algorithm {
            Algorithm::Lns => {
                Self::dispatch_lns(problem, options, &mut deadline, &mut stats, scratch)?
            }
            _ => Self::dispatch_hier(problem, hier, options, &mut deadline, &mut stats, scratch)?,
        };
        Ok(Self::finalize(
            mappings,
            end,
            stats,
            start,
            options.algorithm,
        ))
    }

    /// Refinement + restricted filter build + exact search for the
    /// filter-based algorithms.
    fn dispatch_hier(
        problem: &Problem<'_>,
        hier: &SubstrateHierarchy,
        options: &Options,
        deadline: &mut Deadline,
        stats: &mut SearchStats,
        scratch: &mut EmbedScratch,
    ) -> Result<(Vec<Mapping>, ecf::SearchEnd), ProblemError> {
        match hier.refine(problem, deadline, stats) {
            Refinement::TimedOut => {
                stats.timed_out = true;
                Ok((Vec::new(), ecf::SearchEnd::Timeout))
            }
            // The refinement's empty-domain prune is sound: no
            // concretization of a pruned super-node holds a solution,
            // so an empty result here is exhaustive, not a give-up.
            Refinement::Infeasible => Ok((Vec::new(), ecf::SearchEnd::Exhausted)),
            Refinement::Restricted(allowed) => {
                Self::build_and_dispatch(problem, Some(&allowed), options, deadline, stats, scratch)
            }
        }
    }

    /// Filter build (restricted to `allowed` when given) plus search for
    /// the filter-based algorithms. The build fans out over the scratch's
    /// pool at the [`Algorithm::ParallelEcf`] thread count; every other
    /// algorithm builds with one thread, which scans inline.
    fn build_and_dispatch(
        problem: &Problem<'_>,
        allowed: Option<&[NodeBitSet]>,
        options: &Options,
        deadline: &mut Deadline,
        stats: &mut SearchStats,
        scratch: &mut EmbedScratch,
    ) -> Result<(Vec<Mapping>, ecf::SearchEnd), ProblemError> {
        let threads = match options.algorithm {
            Algorithm::ParallelEcf { threads } => threads,
            _ => 1,
        };
        // Build-charging contract (see `stats::BuildCharge`): threads the
        // build fan-out spawns are new, not warm.
        let mut charge = BuildCharge::begin(scratch.parallel.pool().spawned_total());
        let filter = FilterMatrix::build_par_pooled(
            problem,
            allowed,
            threads,
            deadline,
            stats,
            scratch.parallel.pool_mut(),
        )?;
        charge.finish_build(scratch.parallel.pool().spawned_total());
        let out = Self::dispatch_prebuilt(problem, &filter, options, deadline, stats, scratch);
        charge.settle_pool_reuse(stats);
        Ok(out)
    }

    /// Shared run finalization: authoritative wall clock, the
    /// sequential-run `cpu_time = elapsed` convention (parallel runs keep
    /// the worker sum their merge produced), and outcome classification.
    fn finalize(
        mappings: Vec<Mapping>,
        end: ecf::SearchEnd,
        mut stats: SearchStats,
        start: std::time::Instant,
        algorithm: Algorithm,
    ) -> EmbedResult {
        stats.elapsed = start.elapsed();
        if !matches!(algorithm, Algorithm::ParallelEcf { .. }) {
            stats.cpu_time = stats.elapsed;
        }
        let outcome = Outcome::classify(end, mappings.clone());
        EmbedResult {
            mappings,
            outcome,
            stats,
        }
    }

    /// Second-stage dispatch for the filter-based algorithms.
    fn dispatch_prebuilt(
        problem: &Problem<'_>,
        filter: &FilterMatrix,
        options: &Options,
        deadline: &mut Deadline,
        stats: &mut SearchStats,
        scratch: &mut EmbedScratch,
    ) -> (Vec<Mapping>, ecf::SearchEnd) {
        match options.algorithm {
            Algorithm::Ecf => match options.mode {
                SearchMode::All => {
                    let mut sink = CollectAll::default();
                    let end = ecf::search(
                        problem,
                        filter,
                        options.order,
                        deadline,
                        &mut sink,
                        stats,
                        &mut scratch.search,
                    );
                    (sink.solutions, end)
                }
                SearchMode::First | SearchMode::UpTo(_) => {
                    let k = match options.mode {
                        SearchMode::UpTo(k) => k,
                        _ => 1,
                    };
                    let mut sink = CollectUpTo::new(k);
                    let end = ecf::search(
                        problem,
                        filter,
                        options.order,
                        deadline,
                        &mut sink,
                        stats,
                        &mut scratch.search,
                    );
                    (sink.solutions, end)
                }
            },
            Algorithm::Rwb => {
                let limit = match options.mode {
                    SearchMode::All => usize::MAX,
                    SearchMode::First => 1,
                    SearchMode::UpTo(k) => k,
                };
                let mut sink = CollectUpTo::new(limit);
                let end = rwb::search(
                    problem,
                    filter,
                    options.seed,
                    options.order,
                    deadline,
                    &mut sink,
                    stats,
                    &mut scratch.search,
                );
                (sink.solutions, end)
            }
            Algorithm::ParallelEcf { threads } => {
                let limit = match options.mode {
                    SearchMode::All => None,
                    SearchMode::First => Some(1),
                    SearchMode::UpTo(k) => Some(k),
                };
                parallel::search(
                    problem,
                    filter,
                    threads,
                    limit,
                    options.order,
                    deadline,
                    stats,
                    &mut scratch.parallel,
                    options.steal,
                )
            }
            Algorithm::Lns => unreachable!("LNS is dispatched without a filter"),
        }
    }

    /// LNS dispatch (no filter stage).
    fn dispatch_lns(
        problem: &Problem<'_>,
        options: &Options,
        deadline: &mut Deadline,
        stats: &mut SearchStats,
        scratch: &mut EmbedScratch,
    ) -> Result<(Vec<Mapping>, ecf::SearchEnd), ProblemError> {
        Ok(match options.mode {
            SearchMode::All => {
                let mut sink = CollectAll::default();
                let end = lns::search(
                    problem,
                    &options.lns,
                    deadline,
                    &mut sink,
                    stats,
                    &mut scratch.search,
                )?;
                (sink.solutions, end)
            }
            SearchMode::First | SearchMode::UpTo(_) => {
                let k = match options.mode {
                    SearchMode::UpTo(k) => k,
                    _ => 1,
                };
                let mut sink = CollectUpTo::new(k);
                let end = lns::search(
                    problem,
                    &options.lns,
                    deadline,
                    &mut sink,
                    stats,
                    &mut scratch.search,
                )?;
                (sink.solutions, end)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{Direction, NodeId};

    fn host() -> Network {
        let mut h = Network::new(Direction::Undirected);
        let ids: Vec<NodeId> = (0..5).map(|i| h.add_node(format!("h{i}"))).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                let e = h.add_edge(ids[i], ids[j]);
                h.set_edge_attr(e, "d", ((i + j) * 10) as f64);
            }
        }
        h
    }

    fn edge_query() -> Network {
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        q.add_edge(a, b);
        q
    }

    #[test]
    fn all_algorithms_agree_on_feasibility_and_count() {
        let h = host();
        let q = edge_query();
        let engine = Engine::new(&h);
        let constraint = "rEdge.d <= 30.0";

        let ecf = engine.embed(&q, constraint, &Options::default()).unwrap();
        let lns = engine
            .embed(
                &q,
                constraint,
                &Options {
                    algorithm: Algorithm::Lns,
                    ..Default::default()
                },
            )
            .unwrap();
        let par = engine
            .embed(
                &q,
                constraint,
                &Options {
                    algorithm: Algorithm::ParallelEcf { threads: 3 },
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(ecf.mappings.len(), lns.mappings.len());
        assert_eq!(ecf.mappings.len(), par.mappings.len());
        assert!(matches!(ecf.outcome, Outcome::Complete(_)));
    }

    #[test]
    fn first_mode_returns_one() {
        let h = host();
        let q = edge_query();
        let engine = Engine::new(&h);
        for algorithm in [
            Algorithm::Ecf,
            Algorithm::Rwb,
            Algorithm::Lns,
            Algorithm::ParallelEcf { threads: 2 },
        ] {
            let r = engine
                .embed(
                    &q,
                    "true",
                    &Options {
                        algorithm,
                        mode: SearchMode::First,
                        ..Default::default()
                    },
                )
                .unwrap();
            assert_eq!(r.mappings.len(), 1, "algorithm {algorithm:?}");
            assert!(matches!(r.outcome, Outcome::Partial(_)));
        }
    }

    #[test]
    fn up_to_mode_caps_solutions() {
        let h = host();
        let q = edge_query();
        let engine = Engine::new(&h);
        let r = engine
            .embed(
                &q,
                "true",
                &Options {
                    mode: SearchMode::UpTo(3),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(r.mappings.len(), 3);
    }

    #[test]
    fn cold_parallel_run_reports_zero_pool_reuse() {
        // Regression: a multi-edge query makes the filter build fan out
        // first, spawning the pool threads *before* the search stage —
        // those threads are new, not warm, and must not be counted as
        // reuse on the very first run.
        let h = host();
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        let c = q.add_node("c");
        q.add_edge(a, b);
        q.add_edge(b, c);
        q.add_edge(a, c);
        let opts = Options {
            algorithm: Algorithm::ParallelEcf { threads: 4 },
            ..Options::default()
        };
        let p = Problem::new(&q, &h, "true").unwrap();
        let mut scratch = EmbedScratch::new();
        let cold = Engine::run_with_scratch(&p, &opts, &mut scratch).unwrap();
        assert_eq!(cold.stats.pool_reuse, 0, "cold run must report no reuse");
        let warm = Engine::run_with_scratch(&p, &opts, &mut scratch).unwrap();
        assert!(warm.stats.pool_reuse > 0, "second run must reuse the pool");
        assert_eq!(cold.mappings.len(), warm.mappings.len());
    }

    #[test]
    fn partially_warm_pool_keeps_credit_for_warm_threads() {
        // A 2-thread run leaves 2 parked threads; a following 4-thread
        // run on a 2-edge query builds with only 2 chunks (spawns
        // nothing) and then grows the pool in the *search* stage. The
        // two genuinely warm threads must stay credited — only
        // build-phase spawns are deducted, never search-stage ones.
        let h = host();
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        let c = q.add_node("c");
        q.add_edge(a, b);
        q.add_edge(b, c);
        let p = Problem::new(&q, &h, "true").unwrap();
        let parallel = |threads| Options {
            algorithm: Algorithm::ParallelEcf { threads },
            ..Options::default()
        };
        let mut scratch = EmbedScratch::new();
        Engine::run_with_scratch(&p, &parallel(2), &mut scratch).unwrap();
        assert_eq!(scratch.parallel.pool().thread_count(), 2);
        let grown = Engine::run_with_scratch(&p, &parallel(4), &mut scratch).unwrap();
        assert_eq!(
            grown.stats.pool_reuse, 2,
            "the two pre-existing threads served this run"
        );
        assert_eq!(scratch.parallel.pool().thread_count(), 4);
    }

    #[test]
    fn infeasible_is_complete_empty() {
        let h = host();
        let q = edge_query();
        let engine = Engine::new(&h);
        let r = engine
            .embed(&q, "rEdge.d > 1e9", &Options::default())
            .unwrap();
        assert!(r.outcome.definitively_infeasible());
        assert!(r.mappings.is_empty());
    }

    #[test]
    fn parse_error_propagates() {
        let h = host();
        let q = edge_query();
        let engine = Engine::new(&h);
        assert!(matches!(
            engine.embed(&q, "1 +", &Options::default()),
            Err(ProblemError::Parse(_))
        ));
    }

    #[test]
    fn timeout_classifies_inconclusive_or_partial() {
        let h = host();
        let q = edge_query();
        let engine = Engine::new(&h);
        let r = engine
            .embed(
                &q,
                "true",
                &Options {
                    timeout: Some(Duration::ZERO),
                    ..Default::default()
                },
            )
            .unwrap();
        // With a zero budget the filter build aborts immediately.
        assert!(matches!(r.outcome, Outcome::Inconclusive));
        assert!(r.stats.timed_out);
    }
}
