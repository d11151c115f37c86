//! Prepared queries: the long-lived request handle of the service API.
//!
//! §III describes applications that query the mapping service
//! *repeatedly* — negotiation loops, scheduler sweeps, periodic
//! re-checks under monitoring churn. A [`PreparedQuery`] front-loads
//! everything that is per-*request* rather than per-*run*:
//!
//! * the constraint is parsed and type-linted **once**, at
//!   [`NetEmbedService::prepare`] (a malformed constraint fails there,
//!   as [`ServiceError::BadConstraint`], never mid-search);
//! * each run binds the parsed expression to the *current* registry
//!   snapshot via [`netembed::Problem::from_parsed`] — one compiled
//!   problem serves both the search and the mapping re-verification;
//! * filter builds are memoized in the service's shared
//!   [`FilterCache`] under `(host name,
//!   model epoch, query fingerprint, constraint)` — repeated runs (or
//!   repeated `submit`s of the same request, which are thin wrappers
//!   over this type) rebuild nothing until the model's epoch moves, and
//!   an epoch bump invalidates exactly this host's entries;
//! * the handle leases a warm [`netembed::EmbedScratch`] — DFS arenas
//!   *and* the persistent parallel worker pool — from the service, and
//!   returns it on drop, so back-to-back prepared runs are
//!   allocation-free and spawn-free
//!   ([`SearchStats::pool_reuse`](netembed::SearchStats) shows it).

use crate::admission::{ShedMode, ShedReason};
use crate::cache::{Fetch, FilterCache, FilterKey, HierarchyKey};
use crate::{NetEmbedService, QueryResponse, ServiceError};
use cexpr::Expr;
use netembed::{
    Algorithm, BuildCharge, Deadline, EmbedResult, EmbedScratch, Engine, FilterMatrix, Options,
    Outcome, Problem, SearchStats,
};
use netgraph::Network;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A compiled, cache-connected `(host, query, constraint)` request.
/// Created by [`NetEmbedService::prepare`]; run any number of times
/// with [`PreparedQuery::run`] / [`PreparedQuery::run_batch`].
pub struct PreparedQuery<'svc> {
    svc: &'svc NetEmbedService,
    host: String,
    query: Network,
    constraint: String,
    query_hash: u128,
    expr: Expr,
    /// Leased from the service at prepare, returned on drop. `Some`
    /// for the whole life of the handle.
    scratch: Option<EmbedScratch>,
}

impl<'svc> PreparedQuery<'svc> {
    pub(crate) fn new(
        svc: &'svc NetEmbedService,
        host: String,
        query: Network,
        constraint: String,
        expr: Expr,
    ) -> Self {
        let query_hash = crate::cache::network_fingerprint(&query);
        let scratch = Some(svc.checkout_scratch());
        PreparedQuery {
            svc,
            host,
            query,
            constraint,
            query_hash,
            expr,
            scratch,
        }
    }

    /// The registry name this query targets.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The query network.
    pub fn query(&self) -> &Network {
        &self.query
    }

    /// The constraint source text.
    pub fn constraint(&self) -> &str {
        &self.constraint
    }

    /// Swap in a new constraint, keeping the query (and its
    /// fingerprint), the scratch lease and the cache connection. This
    /// is the §VI-B relaxation step made cheap: a negotiation loop
    /// re-constrains one handle per level instead of re-preparing —
    /// no query clone, no re-fingerprint, no scratch churn. The new
    /// constraint is parsed and type-linted here, exactly like
    /// [`NetEmbedService::prepare`].
    pub fn reconstrain(&mut self, constraint: &str) -> Result<(), ServiceError> {
        self.expr = crate::parse_and_lint(constraint)?;
        self.constraint = constraint.to_string();
        Ok(())
    }

    /// Run once under `options` against the current model snapshot.
    pub fn run(&mut self, options: &Options) -> Result<QueryResponse, ServiceError> {
        let mut out = self.run_many(std::slice::from_ref(options))?;
        Ok(out.pop().expect("one response per run"))
    }

    /// Run a whole batch against **one** model snapshot: every run sees
    /// the same epoch (a concurrent registry update affects the next
    /// batch, not a run in the middle of this one), so one filter build
    /// — or one cache hit — serves every filter-based run.
    pub fn run_batch(&mut self, runs: &[Options]) -> Result<Vec<QueryResponse>, ServiceError> {
        self.run_many(runs)
    }

    fn run_many(&mut self, runs: &[Options]) -> Result<Vec<QueryResponse>, ServiceError> {
        let (host, epoch) = self
            .svc
            .registry()
            .get(&self.host)
            .ok_or_else(|| ServiceError::UnknownHost(self.host.clone()))?;
        // Staleness gate (crate docs, "Staleness and degradation"): the
        // direct path has no admission queue, so the gate is the whole
        // check — shed per the service's mode, exactly like a planner
        // submit would.
        if self.svc.stale_shed() {
            match self.svc.config().admission.shed {
                ShedMode::Reject => {
                    return Err(ServiceError::Overloaded(ShedReason::StaleModel));
                }
                ShedMode::DegradeInconclusive => {
                    let staleness = self.svc.current_staleness(epoch);
                    return Ok(runs
                        .iter()
                        .map(|_| {
                            let shed = shed_inconclusive();
                            QueryResponse {
                                outcome: shed.outcome,
                                stats: shed.stats,
                                staleness,
                            }
                        })
                        .collect());
                }
            }
        }
        let key = FilterKey {
            host: self.host.clone(),
            epoch,
            query_hash: self.query_hash,
            constraint: self.constraint.clone(),
        };
        let problem = Problem::from_parsed(&self.query, &host, &self.expr)?;
        // Epoch bump since the last cached build? Classify the dirty
        // window before the fetch below can miss: empty → promote the
        // old entry, subtractive → patch it in place, additive or
        // unknown → let the miss rebuild.
        let repair = self.svc.repair_filter(&key, &problem);
        let scratch = self.scratch.as_mut().expect("scratch leased until drop");
        let mut responses = Vec::with_capacity(runs.len());
        // Batch-local pin: once a filter is obtained (hit or build), the
        // rest of the batch reuses this exact `Arc` regardless of what
        // concurrent queries do to the shared cache's LRU — the old
        // `submit_batch` held its filter in a local, and a long batch
        // must keep that eviction immunity.
        let mut pinned: Option<Arc<FilterMatrix>> = None;
        for options in runs {
            let fetched = run_cached(
                RunCtx::service(self.svc, None),
                &key,
                &problem,
                options,
                scratch,
                &mut pinned,
            );
            let result = match fetched {
                // Direct-path dedup shedding resolves per the service's
                // shed mode: degrade to a fast timed-out Inconclusive,
                // or surface the deterministic Overloaded error.
                Err(ServiceError::Overloaded(_))
                    if self.svc.config().admission.shed == ShedMode::DegradeInconclusive =>
                {
                    shed_inconclusive()
                }
                other => other?,
            };
            // Safety net, §III: independently verify every mapping
            // before returning — against the *same* compiled problem
            // the search used (the old submit path compiled it twice).
            for m in &result.mappings {
                netembed::check_mapping(&problem, m).map_err(ServiceError::VerificationFailed)?;
            }
            // Stamp serve-time staleness: the epoch this batch is bound
            // to may be lagging a degraded feed.
            let staleness = self.svc.current_staleness(epoch);
            let mut stats = result.stats;
            stats.staleness_lag = staleness.map_or(0, |s| s.lag);
            responses.push(QueryResponse {
                outcome: result.outcome,
                stats,
                staleness,
            });
        }
        // The repair ran once, before the batch: credit it to the first
        // response so a submit loop can sum `patches`/`patch_rebuilds`
        // across responses, mirroring `filter_cache_hits`.
        if let Some(first) = responses.first_mut() {
            repair.credit(&mut first.stats);
        }
        Ok(responses)
    }
}

impl Drop for PreparedQuery<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.svc.checkin_scratch(scratch);
        }
    }
}

impl std::fmt::Debug for PreparedQuery<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("host", &self.host)
            .field("constraint", &self.constraint)
            .field("query_nodes", &self.query.node_count())
            .finish()
    }
}

/// Everything [`run_cached`] needs from its host: the filter cache to
/// resolve through, the owning service, and the dispatcher's cancel
/// probe. The standalone [`crate::schedule::Scheduler`] runs `bare`:
/// its private cache, no service, no cancellation.
pub(crate) struct RunCtx<'a> {
    cache: &'a FilterCache,
    /// The service whose hierarchy cache and registry serve
    /// hierarchical runs and whose fault injector drives chaos tests;
    /// `None` (the bare scheduler) coarsens per call and injects
    /// nothing.
    svc: Option<&'a NetEmbedService>,
    cancel: Option<&'a dyn Fn() -> bool>,
}

impl<'a> RunCtx<'a> {
    pub(crate) fn service(svc: &'a NetEmbedService, cancel: Option<&'a dyn Fn() -> bool>) -> Self {
        Self {
            cache: svc.cache(),
            svc: Some(svc),
            cancel,
        }
    }

    pub(crate) fn bare(cache: &'a FilterCache) -> Self {
        Self {
            cache,
            svc: None,
            cancel: None,
        }
    }
}

/// One engine run through the service's filter cache: pinned/hit →
/// reuse the memoized matrix (`stats.filter_cache_hits = 1`, zero build
/// evals); miss → resolve through the cache's in-flight dedup table
/// ([`crate::cache::EpochCache::fetch_or_build`]). A *designated
/// builder* builds under this run's budget (parallel builds go through
/// the scratch's persistent pool), charges the build to its own stats
/// and timeout via the shared [`BuildCharge`] contract, and memoizes
/// the matrix unless the deadline truncated it (a truncated filter is a
/// function of the budget, not the key — the ticket is abandoned and
/// the next run rebuilds under its own budget). A run that instead
/// found the same key *already being built* blocks — at most for its
/// own budget — and reuses the winner's matrix, reporting
/// `dedup_waits = 1` alongside the hit; a wait the budget cut short
/// reports a plain timeout, exactly as if the budget had gone into a
/// truncated build.
///
/// `pinned` is the caller's batch-local slot for the same key: it is
/// consulted before the shared cache and populated by the first hit or
/// complete build, so a multi-run caller keeps its filter even if the
/// shared LRU evicts the entry mid-batch. Single-run callers pass a
/// fresh `&mut None`.
///
/// Overload/cancellation hooks: a dedup wait that hits the cache's
/// waiter cap returns [`ServiceError::Overloaded`] (the *caller* maps
/// it per the service's [`ShedMode`] — the planner moves the member's
/// `accepted` credit to the shed column, the direct path degrades or
/// propagates); `cancel` is the planner dispatcher's probe for "the
/// requester dropped its ticket", which aborts dedup waits with a
/// discarded Inconclusive instead of blocking on a build nobody will
/// read. The service's fault injector may force a designated build to
/// abandon (chaos testing): observably identical to a deadline-
/// truncated build, so it exercises the abandon→takeover chain without
/// ever caching a truncated filter.
pub(crate) fn run_cached(
    ctx: RunCtx<'_>,
    key: &FilterKey,
    problem: &Problem<'_>,
    options: &Options,
    scratch: &mut EmbedScratch,
    pinned: &mut Option<Arc<FilterMatrix>>,
) -> Result<EmbedResult, ServiceError> {
    if matches!(options.algorithm, Algorithm::Lns) {
        // LNS keeps no filter state (that is its point, §V-C); it only
        // shares the scratch.
        return Ok(Engine::run_with_scratch(problem, options, scratch)?);
    }
    if let Some(spec) = options.hierarchy {
        // Hierarchical runs bypass the filter cache on purpose: their
        // restricted matrix is a product of this run's refinement, and
        // memoizing it under the flat key would let a later flat run
        // serve (correct but pointlessly narrow) restricted cells — or
        // a hierarchical run hit a full matrix and skip the very
        // pruning it asked for. The expensive shared artifact here is
        // the *coarsening*, which is per-`(host, epoch, spec)` and
        // resolved through the service's `HierarchyCache` exactly like
        // a filter: repaired across the dirty window, built once by a
        // designated builder while concurrent misses wait for its `Arc`
        // (at most for their budget), shed past the waiter cap.
        let Some(svc) = ctx.svc else {
            let hier = netembed::SubstrateHierarchy::build(problem.host, &spec);
            return Ok(Engine::run_hier(problem, &hier, options, scratch)?);
        };
        let hkey = HierarchyKey {
            host: key.host.clone(),
            epoch: key.epoch,
            spec,
        };
        let wait_started = Instant::now();
        let mut waited = Duration::ZERO;
        let (hier, hit) = match svc.fetch_hierarchy(&hkey, options.timeout, ctx.cancel) {
            Fetch::Hit(hier) => (hier, true),
            Fetch::Waited(hier) => {
                waited = wait_started.elapsed();
                (hier, true)
            }
            Fetch::MustBuild(ticket) => {
                let hier = Arc::new(netembed::SubstrateHierarchy::build(problem.host, &spec));
                ticket.complete(hier.clone());
                (hier, false)
            }
            Fetch::WaitExpired => {
                let mut result = shed_inconclusive();
                result.stats.elapsed = wait_started.elapsed();
                return Ok(result);
            }
            Fetch::Overloaded => {
                return Err(ServiceError::Overloaded(ShedReason::DedupWaitersFull))
            }
            Fetch::Cancelled => return Ok(shed_inconclusive()),
        };
        // A hit delivered late: the wait consumed wall time on this
        // run's budget, as in the filter path below.
        let run_options = Options {
            timeout: options.timeout.map(|t| t.saturating_sub(waited)),
            ..options.clone()
        };
        let mut result = Engine::run_hier(problem, &hier, &run_options, scratch)?;
        result.stats.hierarchy_cache_hits = u64::from(hit);
        result.stats.elapsed += waited;
        return Ok(result);
    }
    if let Some(filter) = pinned.as_ref().cloned() {
        let mut result = Engine::run_prebuilt(problem, &filter, options, scratch)?;
        result.stats.filter_cache_hits += 1;
        return Ok(result);
    }
    let mut charge = BuildCharge::begin(scratch.parallel.pool().spawned_total());
    match ctx
        .cache
        .fetch_or_build_watch(key, options.timeout, ctx.cancel)
    {
        Fetch::Hit(filter) => {
            *pinned = Some(filter.clone());
            let mut result = Engine::run_prebuilt(problem, &filter, options, scratch)?;
            result.stats.filter_cache_hits += 1;
            Ok(result)
        }
        Fetch::Waited(filter) => {
            // Someone else built this key while we blocked: a cache hit
            // delivered late. The wait consumed real wall time on this
            // run's budget (but no CPU), so the search runs on the
            // remainder and the wait is added back to `elapsed`.
            *pinned = Some(filter.clone());
            charge.finish_build(scratch.parallel.pool().spawned_total());
            let run_options = Options {
                timeout: charge.remaining(options.timeout),
                ..options.clone()
            };
            let mut result = Engine::run_prebuilt(problem, &filter, &run_options, scratch)?;
            result.stats.filter_cache_hits += 1;
            result.stats.dedup_waits += 1;
            result.stats.elapsed += charge.spent();
            Ok(result)
        }
        Fetch::WaitExpired => {
            // The whole budget went into waiting on a build that did
            // not finish in time — the same observable outcome as a
            // deadline-truncated own build.
            // No `dedup_waits` here: that counter (like the cache's)
            // only marks waits that actually *delivered* a filter — an
            // expired wait saved nothing, exactly as the cache counts
            // it.
            charge.finish_build(scratch.parallel.pool().spawned_total());
            let mut result = shed_inconclusive();
            result.stats.elapsed = charge.spent();
            Ok(result)
        }
        Fetch::Overloaded => {
            // The in-flight build's waiter convoy is full. The caller
            // decides what the shed resolves to (planner: telemetry +
            // per-mode delivery; direct path: degrade or propagate).
            Err(ServiceError::Overloaded(ShedReason::DedupWaitersFull))
        }
        Fetch::Cancelled => {
            // The requester dropped its ticket while this thread waited
            // on its behalf; the result is discarded at delivery, so a
            // bare Inconclusive is enough.
            Ok(shed_inconclusive())
        }
        Fetch::MustBuild(ticket) => {
            // Chaos injection: abandon this build as if its deadline
            // had truncated it — waiters wake and one takes over; the
            // "builder" reports a timeout. Identical to the organic
            // truncation path below, so nothing downstream can tell
            // injected faults from real ones.
            if ctx
                .svc
                .is_some_and(|svc| svc.faults().should_truncate_build())
            {
                ticket.abandon();
                charge.finish_build(scratch.parallel.pool().spawned_total());
                let mut result = shed_inconclusive();
                result.stats.elapsed = charge.spent();
                return Ok(result);
            }
            // A takeover builder (its predecessor's build was abandoned
            // mid-wait) has already burned part of its budget blocking:
            // `remaining_now` keeps the deadline honest, and the
            // build-start mark keeps the blocked time out of
            // `cpu_time`.
            charge.mark_build_start();
            let mut deadline = Deadline::new(charge.remaining_now(options.timeout));
            let mut build_stats = SearchStats::default();
            let threads = match options.algorithm {
                Algorithm::ParallelEcf { threads } => threads,
                _ => 1,
            };
            // A `?` here drops the ticket, which abandons the key so a
            // waiter can take over — builders never strand waiters.
            let filter = Arc::new(FilterMatrix::build_par_pooled(
                problem,
                None,
                threads,
                &mut deadline,
                &mut build_stats,
                scratch.parallel.pool_mut(),
            )?);
            charge.finish_build(scratch.parallel.pool().spawned_total());
            if filter.truncated() {
                ticket.abandon();
            } else {
                ticket.complete(filter.clone());
                *pinned = Some(filter.clone());
            }
            // The builder's search runs on whatever budget the build
            // left over; later cache hitters get their full timeout
            // (they paid nothing).
            let run_options = Options {
                timeout: charge.remaining(options.timeout),
                ..options.clone()
            };
            let mut result = Engine::run_prebuilt(problem, &filter, &run_options, scratch)?;
            charge.charge_build(&mut result.stats, &build_stats);
            charge.settle_pool_reuse(&mut result.stats);
            Ok(result)
        }
    }
}

/// The canonical shed/cancel result: a fast timed-out `Inconclusive`
/// with zero search work — observably the outcome admission predicted
/// (the request's budget would have died waiting anyway).
pub(crate) fn shed_inconclusive() -> EmbedResult {
    EmbedResult {
        mappings: Vec::new(),
        outcome: Outcome::Inconclusive,
        stats: SearchStats {
            timed_out: true,
            ..SearchStats::default()
        },
    }
}
