//! Prepared queries, and the one serving pipeline every request runs.
//!
//! §III describes applications that query the mapping service
//! *repeatedly* — negotiation loops, scheduler sweeps, periodic
//! re-checks under monitoring churn. A [`PreparedQuery`] front-loads
//! what is per-*request* rather than per-*run*: the constraint is
//! parsed and type-linted **once**, at [`NetEmbedService::prepare`] (a
//! malformed constraint fails there, as
//! [`ServiceError::BadConstraint`], never mid-search), and the handle
//! leases a warm [`netembed::EmbedScratch`] — DFS arenas *and* the
//! persistent worker pool — until it drops, so back-to-back runs are
//! allocation-free and spawn-free
//! ([`SearchStats::pool_reuse`](netembed::SearchStats) shows it).
//!
//! A prepared batch and a [`planner`](crate::planner) group run the
//! same pipeline, written once here: bind the parsed expression to one
//! registry snapshot ([`netembed::Problem::from_parsed`]); let the
//! first member to run repair the [`FilterCache`] across the model's
//! dirty window on its own budget
//! ([`EpochCache::repair`](crate::cache::EpochCache::repair)); resolve
//! each member's filter, or coarsening, through the epoch caches — a
//! hit, a wait on a concurrent build, or a build charged to the
//! member's budget ([`netembed::BuildCharge`]) — pinning the first
//! filter for the rest of the batch or group; re-verify every mapping
//! with [`netembed::check_mapping`] against the compiled problem; and
//! stamp the serve-time [`Staleness`](crate::Staleness).

use crate::admission::ShedReason;
use crate::cache::{EpochCache, EpochKey, Fetch, FilterCache, FilterKey, HierarchyKey, Repaired};
use crate::{NetEmbedService, QueryResponse, ServiceError};
use cexpr::Expr;
use netembed::{
    Algorithm, BuildCharge, Deadline, EmbedScratch, Engine, FilterMatrix, Options, Problem,
    ProblemError, SearchStats, WorkerPool,
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
        let mut out = self.run_batch(std::slice::from_ref(options))?;
        Ok(out.pop().expect("one response per run"))
    }

    /// Run a whole batch against **one** model snapshot: every run sees
    /// the same epoch (a concurrent registry update affects the next
    /// batch, not a run in the middle of this one), so one filter build
    /// — or one cache hit — serves every filter-based run.
    pub fn run_batch(&mut self, runs: &[Options]) -> Result<Vec<QueryResponse>, ServiceError> {
        let svc = self.svc;
        let (host, epoch) = svc
            .registry()
            .get(&self.host)
            .ok_or_else(|| ServiceError::UnknownHost(self.host.clone()))?;
        // Staleness gate (crate docs, "Staleness and degradation"): the
        // direct path has no admission queue, so the gate is the whole
        // check — every run sheds, exactly like a planner submit would.
        if svc.stale_shed() {
            return runs
                .iter()
                .map(|_| svc.shed(ShedReason::StaleModel, Duration::ZERO))
                .collect();
        }
        let key = FilterKey {
            host: self.host.clone(),
            epoch,
            query_hash: self.query_hash,
            constraint: self.constraint.clone(),
        };
        let mut runner = Runner::new(svc, &key, &self.query, &host, &self.expr)?;
        let scratch = self.scratch.as_mut().expect("scratch leased until drop");
        runs.iter()
            .map(|options| match runner.run(options, scratch, None) {
                Err(ServiceError::Overloaded(reason)) => svc.shed(reason, Duration::ZERO),
                answer => answer,
            })
            .collect()
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

/// The pipeline of one prepared batch or one planner group (module
/// docs): compiled once by [`Runner::new`], then one [`Runner::run`]
/// per member. Callers keep only their own concerns: resolving a shed
/// per the service's mode, and for the planner the queue-wait budget,
/// the cancel probe, panic isolation and its ledgers.
pub(crate) struct Runner<'a> {
    svc: &'a NetEmbedService,
    key: &'a FilterKey,
    problem: Problem<'a>,
    /// The first filter obtained (hit, wait or complete build): every
    /// later filter-based run reuses this exact `Arc`, whatever
    /// concurrent queries do to the shared cache's LRU.
    pinned: Option<Arc<FilterMatrix>>,
    /// `None` until the first member to run repairs the filter cache;
    /// then that repair until an `Ok` response carries it (summing
    /// `patches`/`patch_rebuilds` over responses then reproduces the
    /// cache's counters), and `Nothing` after.
    repair: Option<Repaired>,
}

impl<'a> Runner<'a> {
    /// Bind the parsed constraint to the `host` snapshot `key` names.
    pub(crate) fn new(
        svc: &'a NetEmbedService,
        key: &'a FilterKey,
        query: &'a Network,
        host: &'a Network,
        expr: &'a Expr,
    ) -> Result<Self, ProblemError> {
        Ok(Runner {
            svc,
            key,
            problem: Problem::from_parsed(query, host, expr)?,
            pinned: None,
            repair: None,
        })
    }

    /// Whether a filter is pinned: the next filter-based run reuses it
    /// without touching the shared cache.
    pub(crate) fn pinned(&self) -> bool {
        self.pinned.is_some()
    }

    /// Run one member under `options`. The first member to run repairs
    /// the filter cache on its own budget: the repair's wall time comes
    /// off its timeout and onto its `elapsed`. `cancel` is the planner
    /// dispatcher's probe for a dropped ticket ([`RunCtx::fetch`]); an
    /// `Err(Overloaded)` is the caller's to shed.
    pub(crate) fn run(
        &mut self,
        options: &Options,
        scratch: &mut EmbedScratch,
        cancel: Option<&dyn Fn() -> bool>,
    ) -> Result<QueryResponse, ServiceError> {
        let started = Instant::now();
        self.repair.get_or_insert_with(|| {
            self.svc
                .repair_filter(self.key, &self.problem, options.timeout)
        });
        let repair_time = started.elapsed();
        let options = Options {
            timeout: options.timeout.map(|t| t.saturating_sub(repair_time)),
            ..options.clone()
        };
        let mut response = run_cached(
            RunCtx::service(self.svc, cancel),
            self.key,
            &self.problem,
            &options,
            scratch,
            &mut self.pinned,
        )?;
        // Safety net, §III: never return a mapping the compiled problem
        // cannot re-verify.
        for m in response.mappings() {
            netembed::check_mapping(&self.problem, m).map_err(ServiceError::VerificationFailed)?;
        }
        response.stats.elapsed += repair_time;
        // The snapshot this run answered from may be lagging a degraded
        // feed: stamp the serve-time marker.
        response.staleness = self.svc.current_staleness(self.key.epoch);
        response.stats.staleness_lag = response.staleness.map_or(0, |s| s.lag);
        if let Some(repair) = self.repair.replace(Repaired::Nothing) {
            repair.credit(&mut response.stats);
        }
        Ok(response)
    }
}

/// What a run needs from its host: the filter cache, the service
/// behind it (hierarchy cache, registry, fault injector) and the
/// planner dispatcher's cancel probe. The standalone
/// [`crate::schedule::Scheduler`] runs `bare`, and so does
/// [`NetEmbedService::warm_hierarchy`], which is no request run.
pub(crate) struct RunCtx<'a> {
    cache: &'a FilterCache,
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

    /// Resolve `key` through `cache` for one run — the one fetch step of
    /// both epoch caches — charging the run per [`BuildCharge`]: a hit
    /// is free; a wait on another thread's build of the key (at most
    /// for `timeout`) is wall time on the budget, but no CPU; a wait the
    /// budget or the cancel probe cut short leaves no value; a wait past
    /// the cache's waiter cap is [`ServiceError::Overloaded`], for the
    /// caller to shed. The designated builder runs `build` on what the
    /// budget left (a takeover builder has already waited) and `pool`,
    /// and gets the value and whether it is complete: a complete value
    /// is published to the cache and its waiters, an incomplete one (a
    /// deadline-truncated filter is a function of the budget, not the
    /// key) is abandoned for a waiter to take over. The fault injector
    /// may abandon a designated build before it starts, observably a
    /// build truncated at once.
    pub(crate) fn fetch<K: EpochKey, V>(
        &self,
        cache: &EpochCache<K, V>,
        key: &K,
        timeout: Option<Duration>,
        pool: &mut WorkerPool,
        build: impl FnOnce(
            &mut Deadline,
            &mut SearchStats,
            &mut WorkerPool,
        ) -> Result<(V, bool), ServiceError>,
    ) -> Result<Fetched<V>, ServiceError> {
        let mut charge = BuildCharge::begin(pool.spawned_total());
        let (value, source) = match cache.fetch_or_build_watch(key, timeout, self.cancel) {
            Fetch::Hit(value) => return Ok(Fetched::hit(value)),
            Fetch::Waited(value) => (Some(value), Source::Waited),
            Fetch::WaitExpired | Fetch::Cancelled => (None, Source::Waited),
            Fetch::Overloaded => {
                return Err(ServiceError::Overloaded(ShedReason::DedupWaitersFull));
            }
            Fetch::MustBuild(ticket)
                if self
                    .svc
                    .is_some_and(|svc| svc.faults().should_truncate_build()) =>
            {
                ticket.abandon();
                (None, Source::Built(SearchStats::default()))
            }
            Fetch::MustBuild(ticket) => {
                charge.mark_build_start();
                let mut deadline = Deadline::new(charge.remaining_now(timeout));
                let mut stats = SearchStats::default();
                // A `?` here drops the ticket, which abandons the key so
                // a waiter can take over — builders never strand waiters.
                let (value, complete) = build(&mut deadline, &mut stats, pool)?;
                let value = Arc::new(value);
                if complete {
                    ticket.complete(value.clone());
                } else {
                    ticket.abandon();
                }
                (Some(value), Source::Built(stats))
            }
        };
        charge.finish_build(pool.spawned_total());
        Ok(Fetched {
            value,
            source,
            charge,
        })
    }
}

/// A cached artifact as one run obtained it ([`RunCtx::fetch`]), and
/// what obtaining it cost.
pub(crate) struct Fetched<V> {
    /// `None` when the fetch used the run up: its `elapsed` is the
    /// whole wait or abandoned build.
    pub(crate) value: Option<Arc<V>>,
    source: Source,
    charge: BuildCharge,
}

/// Where a [`Fetched`] value came from.
enum Source {
    /// The memo or the caller's pin.
    Hit,
    /// A concurrent build of the same key this run blocked on.
    Waited,
    /// This run's own build, with the build's counters.
    Built(SearchStats),
}

impl<V> Fetched<V> {
    fn hit(value: Arc<V>) -> Self {
        Fetched {
            value: Some(value),
            source: Source::Hit,
            charge: BuildCharge::begin(0),
        }
    }

    /// `options` with the budget the fetch left.
    fn remaining(&self, options: &Options) -> Options {
        Options {
            timeout: self.charge.remaining(options.timeout),
            ..options.clone()
        }
    }

    /// Charge the fetch to the statistics of the run it served — a
    /// wait's wall time into `elapsed`, a build per
    /// [`BuildCharge::charge_build`] — and return the run's hit credit:
    /// 1 when the value came ready-made (hit or wait), 0 when the run
    /// built it.
    fn settle(&self, stats: &mut SearchStats) -> u64 {
        match &self.source {
            Source::Hit => {}
            Source::Waited => stats.elapsed += self.charge.spent(),
            Source::Built(build) => self.charge.charge_build(stats, build),
        }
        self.charge.settle_pool_reuse(stats);
        u64::from(!matches!(self.source, Source::Built(_)))
    }
}

/// One engine run through the service's caches. LNS keeps no filter
/// state (§V-C), and a hierarchical run with no service behind it
/// coarsens per call. A hierarchical run fetches its coarsening
/// ([`NetEmbedService::fetch_hierarchy`]); its restricted filter is a
/// product of its own refinement and bypasses the filter cache on
/// purpose, since a flat key would mix full and restricted matrices. A
/// flat run reuses the caller's `pinned` filter or fetches one,
/// building it on the scratch's pool on a miss, and pins the first
/// complete one. The search runs on the budget the fetch left; a run
/// the fetch used up answers timed out. Staleness is the [`Runner`]'s
/// to stamp.
pub(crate) fn run_cached(
    ctx: RunCtx<'_>,
    key: &FilterKey,
    problem: &Problem<'_>,
    options: &Options,
    scratch: &mut EmbedScratch,
    pinned: &mut Option<Arc<FilterMatrix>>,
) -> Result<QueryResponse, ServiceError> {
    let result = match (options.algorithm, options.hierarchy, ctx.svc) {
        (Algorithm::Lns, _, _) | (_, Some(_), None) => {
            Engine::run_with_scratch(problem, options, scratch)?
        }
        (_, Some(spec), Some(svc)) => {
            let hkey = HierarchyKey {
                host: key.host.clone(),
                epoch: key.epoch,
                spec,
            };
            let fetched = svc.fetch_hierarchy(
                &ctx,
                &hkey,
                problem.host,
                options.timeout,
                scratch.parallel.pool_mut(),
            )?;
            let Some(hier) = &fetched.value else {
                return Ok(QueryResponse::timed_out(fetched.charge.spent()));
            };
            let mut result = Engine::run_hier(problem, hier, &fetched.remaining(options), scratch)?;
            result.stats.hierarchy_cache_hits += fetched.settle(&mut result.stats);
            result
        }
        (_, None, _) => {
            let fetched = match pinned {
                Some(filter) => Fetched::hit(filter.clone()),
                None => {
                    let threads = match options.algorithm {
                        Algorithm::ParallelEcf { threads } => threads,
                        _ => 1,
                    };
                    ctx.fetch(
                        ctx.cache,
                        key,
                        options.timeout,
                        scratch.parallel.pool_mut(),
                        |deadline, stats, pool| {
                            let filter = FilterMatrix::build_par_pooled(
                                problem, None, threads, deadline, stats, pool,
                            )?;
                            let complete = !filter.truncated();
                            Ok((filter, complete))
                        },
                    )?
                }
            };
            let Some(filter) = &fetched.value else {
                return Ok(QueryResponse::timed_out(fetched.charge.spent()));
            };
            if !filter.truncated() {
                *pinned = Some(filter.clone());
            }
            let mut result =
                Engine::run_prebuilt(problem, filter, &fetched.remaining(options), scratch)?;
            result.stats.filter_cache_hits += fetched.settle(&mut result.stats);
            result.stats.dedup_waits += u64::from(matches!(fetched.source, Source::Waited));
            result
        }
    };
    Ok(QueryResponse {
        outcome: result.outcome,
        stats: result.stats,
        staleness: None,
    })
}
