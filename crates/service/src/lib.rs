//! # service — the NETEMBED mapping service
//!
//! §III of the paper describes NETEMBED as a long-running service
//! (Figure 1) with three components:
//!
//! 1. a **model of the real network**, maintained by a monitoring service
//!    or resource manager → the epoch-versioned
//!    [`registry::ModelRegistry`] (every update bumps a
//!    [`ModelEpoch`]; readers get `(snapshot, epoch)` pairs) plus the
//!    [`monitor::MonitorSim`] churn simulator;
//! 2. the **mapping service** where applications submit queries and get
//!    back lists of possible mappings → [`NetEmbedService`]. The
//!    session-oriented entry point is [`NetEmbedService::prepare`]: a
//!    [`PreparedQuery`] parses and lints the constraint once, memoizes
//!    filter builds in the service-wide [`cache::FilterCache`] keyed by
//!    `(host, model epoch, query fingerprint, constraint)`, and leases a
//!    warm scratch + persistent worker pool so repeated runs are
//!    build-free, allocation-free and thread-spawn-free.
//!    [`NetEmbedService::submit`] / [`NetEmbedService::submit_batch`]
//!    are thin wrappers over it, and the interactive
//!    requirement-adjustment loop is [`NetEmbedService::negotiate`];
//! 3. an optional **resource reservation system** that adjusts the model
//!    when mappings are allocated → [`reservation::ReservationManager`].
//!    A reservation commit goes through [`ModelRegistry::update`], so it
//!    bumps the host's epoch and thereby invalidates exactly that host's
//!    cached filters — in-flight prepared queries pick up the new model
//!    (and rebuild once) on their next run.
//!
//! Every mapping handed to a client is re-validated with
//! [`netembed::check_mapping`] against the same compiled problem the
//! search used — the service never returns an embedding it cannot prove
//! feasible against the current model.
//!
//! ## Request lifecycle
//!
//! A request travels through four amortization layers, each reusing
//! everything the previous one established:
//!
//! 1. **submit** — [`NetEmbedService::submit`] (or a client holding a
//!    [`PreparedQuery`]) names a host, a query network and a §VI-B
//!    constraint. Unknown hosts and malformed/ill-typed constraints
//!    fail here, before any queueing or search.
//! 2. **prepare** — the constraint is parsed + type-linted once, the
//!    query fingerprinted once, and the handle binds to a registry
//!    snapshot `(Arc<Network>, ModelEpoch)`; the problem is compiled
//!    once per snapshot and serves both the search and the final
//!    mapping re-verification.
//! 3. **planner** (optional, [`NetEmbedService::planner`]) — concurrent
//!    clients enqueue [`planner::PlannedRequest`]s. The request's
//!    grouping key `(host, epoch, query fingerprint, constraint)` —
//!    exactly a [`FilterKey`] — is **hashed onto one of N dispatch
//!    shards** ([`NetEmbedService::planner_shards`]); within its shard,
//!    pending requests with the same key coalesce into one group that
//!    is dispatched through **one** prepared pipeline: one parse/lint,
//!    one compiled problem, one filter build or cache hit (pinned for
//!    the group), one leased scratch. Per-request deadlines and
//!    failures stay per-request. Dispatch is waiter-driven and
//!    serialized **per shard**, so same-key bursts coalesce by
//!    backpressure (group commit) with no timing windows, while
//!    distinct-key groups in distinct shards dispatch concurrently,
//!    each on its own leased scratch/pool; see [`planner`] for the
//!    hash → shard → group → dispatch pipeline, the fairness/ordering
//!    guarantees (per-shard FIFO, bounded dispatch bursts) and the
//!    `Σ filter_cache_hits + Σ coalesced_requests == N − 1` counter
//!    identity.
//! 4. **pool** — the run executes on a leased warm [`EmbedScratch`]
//!    whose persistent worker pool parks threads between runs
//!    ([`SearchStats::pool_reuse`](netembed::SearchStats) proves warm
//!    runs spawn nothing); filter builds miss into the shared
//!    [`cache::FilterCache`], where concurrent misses on one key are
//!    deduplicated through an in-flight build table (second miss waits
//!    for the winner instead of rebuilding —
//!    [`SearchStats::dedup_waits`](netembed::SearchStats)).
//!
//! Beside the pool layer sits the **HIERARCHY** layer, engaged when a
//! request's [`Options::hierarchy`](netembed::Options) is set: the
//! host substrate is coarsened once into a multilevel
//! [`SubstrateHierarchy`] — cached per `(host, epoch, spec)` in the
//! service's [`cache::HierarchyCache`], the same [`cache::EpochCache`]
//! the filters live in (so concurrent cold misses coarsen once and the
//! waiters share the builder's `Arc`), and warmable ahead of traffic
//! via [`NetEmbedService::warm_hierarchy`] — and each run refines
//! top-down: sound abstract constraint verdicts over aggregated
//! super-node bounds prune whole subtrees, and the exact filter is
//! built only inside the survivors
//! ([`FilterMatrix::build_restricted`](netembed::FilterMatrix)).
//! Solution sets are identical to the flat path; on large substrates
//! only a fraction of the `O(|VQ|·|VR|)` admission matrix is ever
//! examined (`SearchStats::hier_expanded_cells` vs
//! `hier_full_cells`). One coarsening serves every query and every
//! distinct constraint against that host snapshot, which is exactly
//! the amortization the filter cache cannot offer (its key includes
//! the query fingerprint and constraint). Hierarchical runs bypass
//! the filter cache on purpose: the restricted matrix is a product of
//! per-query refinement, and memoizing it under the flat key would
//! collide full and restricted builds.
//!
//! Underneath the four request layers sits the **FEED** layer: the
//! model side of every request. In production shape, registry
//! mutations arrive from an external watch stream consumed by a
//! [`feed::RegistryFeed`], which tolerates duplicated, reordered and
//! lost deltas (bounded reorder buffer, idempotent drops, snapshot
//! resync with backoff — see [`feed`]) and records each applied
//! delta's dirty-node set per epoch transition
//! ([`ModelRegistry::dirty_between`]). The request layers consume the
//! feed twice: before resolving a filter key, the service classifies
//! the accumulated dirty window against the superseded cached filter —
//! an empty window *promotes* the entry in place, a removal-only window
//! *patches* a clone with
//! [`FilterMatrix::patch`](netembed::FilterMatrix::patch) and re-keys
//! it, and a window that adds a feasible candidate falls back to a full
//! rebuild ([`EpochCache::repair`](cache::EpochCache::repair); see the
//! cache module's "Epoch repair" docs; a cached coarsening is promoted
//! across an empty window and rebuilt across any other) — and the
//! admission layer reads the feed's health for the staleness gate below.
//!
//! ### Staleness and degradation
//!
//! While a feed is degraded (anything but
//! [`FeedState::Live`](feed::FeedState)), the service's
//! [`StalenessPolicy`] governs serving:
//!
//! * [`StalenessPolicy::ServeStale`]` { max_lag }` — answers keep
//!   coming from the last good model, but every response is stamped
//!   with a [`Staleness`] marker (`lag` + the epoch served, mirrored
//!   into [`SearchStats::staleness_lag`](netembed::SearchStats)); once
//!   the feed's lag exceeds `max_lag`, submits shed as
//!   [`ShedReason::StaleModel`] through the normal admission
//!   machinery. This is the default, with `max_lag = u64::MAX`: a
//!   service with no feed attached never sheds and never stamps.
//! * [`StalenessPolicy::Block`] — any degradation sheds immediately:
//!   correctness-critical callers prefer a deterministic
//!   [`ServiceError::Overloaded`]`(StaleModel)` (or a degraded
//!   `Inconclusive`, per [`ShedMode`]) over a possibly-stale answer.
//!
//! The gate is enforced at both submit paths — planner admission and
//! the direct [`PreparedQuery`] path — and `tests/feed.rs` +
//! `tests/chaos.rs` pin the trichotomy: every response is fresh,
//! `Staleness`-marked within `max_lag`, or a deterministic shed.
//!
//! ## Admission, priority and load shedding
//!
//! The queues above are bounded by a per-service
//! [`AdmissionPolicy`] (part of [`ServiceConfig`], default:
//! unbounded). Enforcement happens at the two places a request can
//! start waiting:
//!
//! * **`Planner::submit`** — before a request takes a queue slot in
//!   its dispatch shard it must clear four checks, in order: its
//!   deadline must survive the estimated queue wait (the shard's
//!   pending groups × that shard's EWMA of recent group dispatch times
//!   — a request that would die in the queue is answered *now* as a
//!   timed-out `Inconclusive` instead of wasting a slot); the
//!   service-wide gauge must be under `max_total_queue_depth` (if
//!   set); the shard's queue depth must be under `max_queue_depth`;
//!   and its coalescing group must be under `max_group_size`. When a
//!   per-shard or per-group bound is hit, admission first tries to
//!   **evict** a strictly lower-[`Priority`] queued request of the
//!   same shard (newest arrival among the lowest priority) to make
//!   room — so reservation commits and monitor re-checks submitted at
//!   [`Priority::High`] displace speculative [`Priority::Low`] probes,
//!   never the other way around; the global cap always sheds the
//!   incoming request (lanes never touch each other's queues). The
//!   displaced (or refused) request resolves per
//!   [`ShedMode`]: a deterministic
//!   [`ServiceError::Overloaded`] ([`ShedMode::Reject`]) or a fast
//!   timed-out `Inconclusive` ([`ShedMode::DegradeInconclusive`]).
//! * **`EpochCache::fetch_or_build`** — at most `max_dedup_waiters`
//!   threads may block on one in-flight cached build (a filter build or
//!   a substrate coarsening); the excess is shed the same way instead
//!   of convoying behind a single build.
//!
//! Priorities enter through [`Planner::submit_with`];
//! [`Planner::submit`] is `Normal`. Shedding never reorders accepted
//! work: admitted requests produce bitwise-identical results to
//! isolated submits, because admission only decides *whether* a
//! request queues, never *how* it runs.
//!
//! ### Ticket lifecycle (including shed paths)
//!
//! ```text
//!                         submit / submit_with
//!                                │
//!                                ▼
//!                      ROUTED  hash(FilterKey) % N picks the
//!                              dispatch shard; every later state,
//!                              counter and wakeup stays in that lane
//!                                │
//!                ┌───────────────┼─────────────────────┐
//!                │ (admitted)    │ (bound hit, no       │ (deadline
//!                │               │  victim — or model   │  hopeless)
//!                │               │  feed degraded:      │
//!                │               │  StaleModel)         │
//!                ▼               ▼                      ▼
//!            QUEUED         SHED-AT-SUBMIT        SHED-HOPELESS
//!       shard gauge += 1   Reject ⇒ Err(Overloaded)  always resolves
//!                │         Degrade ⇒ pre-resolved    as pre-resolved
//!                │           timed-out Inconclusive  timed-out ticket
//!    ┌───────────┼──────────────┐
//!    │           │              │ (higher-priority arrival
//!    │           │              │  in this shard, this is
//!    │           │              │  the victim)
//!    │           │              ▼
//!    │           │          EVICTED   gauge −= 1, accepted → shed;
//!    │           │                    resolves per ShedMode
//!    │           │ (ticket dropped while queued)
//!    │           ▼
//!    │       UNLINKED    gauge −= 1
//!    │ (a waiter of this shard becomes its dispatcher and pops the
//!    │  group; a burst beyond max_dispatch_burst re-queues its
//!    │  remainder behind the shard's waiting groups)
//!    ▼
//! DISPATCHING ── ticket dropped mid-dispatch ──► CANCEL-MARKED
//!    │                                           gauge −= 1; the
//!    │                                           dispatcher's cancel
//!    │                                           probe aborts dedup
//!    │                                           waits for this member
//!    ▼
//! DELIVERED      gauge −= 1 (skipped if a cancel mark is consumed:
//!                the slot was already released at cancel time)
//! ```
//!
//! All gauges and counters above are the routed shard's. Every path
//! decrements that shard's queue-depth gauge exactly once, so the
//! ledger identity `Σaccepted + Σshed == Σsubmitted` (and gauge = 0 at
//! drain) holds **per shard** under arbitrary interleavings — and
//! therefore also in the global roll-up
//! ([`ServiceTelemetry::shards`]) — `tests/chaos.rs` hammers exactly
//! this at both granularities.
//!
//! [`NetEmbedService::telemetry`] exposes the parked-scratch/pool
//! counters plus the overload block (queue-depth gauge, per-reason
//! shed counters, queue-wait and dispatch-latency histograms) for
//! capacity planning.

pub mod admission;
pub mod cache;
pub mod feed;
pub mod monitor;
pub mod negotiate;
pub mod partition;
pub mod planner;
pub mod prepared;
pub mod registry;
pub mod reservation;
pub mod schedule;

pub use admission::{
    AdmissionPolicy, FaultPlan, Priority, ServiceConfig, ShedCounters, ShedMode, ShedReason,
    StalenessPolicy,
};
pub use cache::{FilterCache, FilterKey, HierarchyCache, HierarchyKey, PatchDecision};
pub use feed::{
    DeltaMutation, DeltaStream, FeedConfig, FeedSnapshot, FeedState, FeedStatus, FeedTelemetry,
    RegistryDelta, RegistryFeed, SnapshotSource,
};
pub use monitor::{MonitorParams, MonitorSim};
pub use negotiate::{negotiate, NegotiationOutcome};
pub use partition::{Locality, PartitionedHost, PartitionedResponse};
pub use planner::{PlannedRequest, Planner, Ticket};
pub use prepared::PreparedQuery;
pub use registry::{DirtySet, ModelEpoch, ModelRegistry};
pub use reservation::{Reservation, ReservationError, ReservationManager};
pub use schedule::{Allocation, ScheduleError, ScheduledEmbedding, Scheduler, Tick};

use cache::{EpochCache, EpochKey, Fetch, Repaired};
use netembed::{
    Deadline, EmbedScratch, HistogramSnapshot, Mapping, Options, Outcome, PatchOutcome, Problem,
    ProblemError, SearchStats, SubstrateHierarchy,
};
use netgraph::Network;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A query submitted to the service.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Name of the hosting-network model to embed into.
    pub host: String,
    /// The query (virtual) network.
    pub query: Network,
    /// Constraint expression source (§VI-B).
    pub constraint: String,
    /// Engine options (algorithm, mode, timeout, …).
    pub options: Options,
}

/// A batch of embedding runs over one `(host, query, constraint)` triple
/// — e.g. thousands of RWB samples with different seeds, or one query
/// swept across modes/orders/thread counts. The whole batch runs on one
/// model snapshot through a [`PreparedQuery`], so the problem is
/// compiled once and one filter build (or cache hit) plus one leased
/// scratch serve every run (see [`NetEmbedService::submit_batch`]).
#[derive(Debug, Clone)]
pub struct BatchQueryRequest {
    /// Name of the hosting-network model to embed into.
    pub host: String,
    /// The query (virtual) network, shared by every run.
    pub query: Network,
    /// Constraint expression source, shared by every run.
    pub constraint: String,
    /// One engine-options set per run.
    pub runs: Vec<Options>,
}

/// Marker stamped on responses computed while the model feed was
/// degraded (see the crate docs' "Staleness and degradation"): the
/// answer is correct against `epoch`, but `lag` newer stream deltas had
/// not been applied when it was served. `None` on a response means the
/// model was fresh (or no feed is attached — the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Staleness {
    /// Feed lag at serve time, in stream sequence units
    /// ([`FeedStatus::lag`]).
    pub lag: u64,
    /// The (possibly stale) model epoch the answer was computed
    /// against.
    pub epoch: ModelEpoch,
}

/// A service response: the §VII-E-classified outcome plus statistics.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Classified result.
    pub outcome: Outcome,
    /// Search statistics. Service-level extras:
    /// [`SearchStats::filter_cache_hits`] is 1 when the run reused a
    /// memoized filter, and [`SearchStats::pool_reuse`] counts warm
    /// worker-pool threads a parallel run found.
    pub stats: SearchStats,
    /// `Some` when the serving model was stale under a degraded feed
    /// ([`StalenessPolicy::ServeStale`]); mirrored into
    /// [`SearchStats::staleness_lag`](netembed::SearchStats) so batch
    /// roll-ups keep the worst lag.
    pub staleness: Option<Staleness>,
}

impl QueryResponse {
    /// The mappings found (empty for inconclusive results).
    pub fn mappings(&self) -> &[Mapping] {
        self.outcome.mappings()
    }
}

/// Why a constraint was rejected up front (§VI-B language checks run at
/// [`NetEmbedService::prepare`], before any search).
#[derive(Debug)]
pub enum ConstraintFault {
    /// The source text does not parse.
    Parse(cexpr::ParseError),
    /// It parses, but the static type lint found a definite error.
    Type(cexpr::TypeError),
}

impl fmt::Display for ConstraintFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintFault::Parse(e) => write!(f, "constraint parse error: {e}"),
            ConstraintFault::Type(e) => write!(f, "{e}"),
        }
    }
}

/// Service-level errors.
#[derive(Debug)]
pub enum ServiceError {
    /// No model registered under the requested name.
    UnknownHost(String),
    /// The embedding engine rejected the problem.
    Problem(ProblemError),
    /// A produced mapping failed independent verification — an engine bug
    /// surfaced; the response is withheld.
    VerificationFailed(netembed::VerifyError),
    /// GraphML parse failure (when loading models from documents).
    Graphml(graphml::GraphmlError),
    /// The constraint was rejected by the up-front checks: it either
    /// fails to parse or fails the static type lint (§VI-B language).
    BadConstraint(ConstraintFault),
    /// The request's run panicked inside the service (an engine
    /// invariant violation). Carried as an error instead of unwinding
    /// so one request's panic cannot strand its planner group-mates;
    /// the payload is the panic message.
    Internal(String),
    /// The request was shed by the service's [`AdmissionPolicy`] under
    /// [`ShedMode::Reject`]: the payload says which bound refused it.
    /// Deterministic and retryable — nothing was queued or run.
    Overloaded(ShedReason),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownHost(h) => write!(f, "unknown hosting network `{h}`"),
            ServiceError::Problem(e) => write!(f, "{e}"),
            ServiceError::VerificationFailed(e) => {
                write!(
                    f,
                    "internal error: produced mapping failed verification: {e}"
                )
            }
            ServiceError::Graphml(e) => write!(f, "{e}"),
            ServiceError::BadConstraint(e) => write!(f, "{e}"),
            ServiceError::Internal(msg) => write!(f, "internal error: run panicked: {msg}"),
            ServiceError::Overloaded(reason) => {
                write!(f, "request shed under overload: {reason}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ProblemError> for ServiceError {
    fn from(e: ProblemError) -> Self {
        ServiceError::Problem(e)
    }
}

impl From<graphml::GraphmlError> for ServiceError {
    fn from(e: graphml::GraphmlError) -> Self {
        ServiceError::Graphml(e)
    }
}

/// The up-front §VI-B constraint checks shared by
/// [`NetEmbedService::prepare`] and
/// [`PreparedQuery::reconstrain`]: parse, then static type lint.
pub(crate) fn parse_and_lint(constraint: &str) -> Result<cexpr::Expr, ServiceError> {
    let expr = cexpr::parse(constraint)
        .map_err(|e| ServiceError::BadConstraint(ConstraintFault::Parse(e)))?;
    cexpr::check_constraint(&expr)
        .map_err(|e| ServiceError::BadConstraint(ConstraintFault::Type(e)))?;
    Ok(expr)
}

/// Resolve the planner shard count at service construction: an
/// explicit [`ServiceConfig::planner_shards`] always wins; otherwise
/// the `NETEMBED_PLANNER_SHARDS` environment variable (how CI pins the
/// sharded stress matrix); otherwise the machine's available
/// parallelism, capped at 8 — more dispatch lanes than cores only adds
/// lock traffic.
fn resolve_planner_shards(config: &ServiceConfig) -> usize {
    if let Some(n) = config.planner_shards {
        return n.max(1);
    }
    if let Ok(raw) = std::env::var("NETEMBED_PLANNER_SHARDS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

/// The mapping service.
pub struct NetEmbedService {
    registry: ModelRegistry,
    cache: FilterCache,
    /// Coarsened-substrate memo, keyed `(host, epoch, spec)`: one
    /// hierarchy build serves every hierarchical query against that
    /// model snapshot, across the prepared, planner and direct submit
    /// paths alike.
    hierarchies: HierarchyCache,
    /// Leasable warm scratches; [`NetEmbedService::prepare`] checks one
    /// out, [`PreparedQuery`]'s drop checks it back in. Concurrent
    /// prepared queries each hold their own, so nothing serializes on a
    /// single pool.
    scratches: Mutex<Vec<EmbedScratch>>,
    config: ServiceConfig,
    /// Dispatch-shard count, resolved once at construction (see
    /// [`resolve_planner_shards`]); every planner of this service gets
    /// this many lanes, matching `overload.len()`.
    planner_shards: usize,
    /// One overload ledger per planner dispatch shard; the service-wide
    /// picture is the roll-up ([`NetEmbedService::telemetry`]).
    overload: Box<[admission::OverloadStats]>,
    /// Scratches currently leased out, and the lifetime peak — the
    /// observed-concurrency signal the adaptive parking caps are driven
    /// from (see [`NetEmbedService::effective_max_parked_scratches`]).
    leases_out: AtomicUsize,
    lease_peak: AtomicUsize,
    faults: admission::FaultInjector,
    /// Feed-health block, written by an attached
    /// [`RegistryFeed`](feed::RegistryFeed)'s pumps and read by the
    /// staleness gate on every submit path. A service with no feed
    /// reads as `Live`/zero-lag, which disables the gate.
    feed: feed::FeedStatus,
}

impl NetEmbedService {
    /// A service with an empty model registry and filter cache and the
    /// default (unbounded-admission) [`ServiceConfig`].
    pub fn new() -> Self {
        Self::with_config(ServiceConfig::default())
    }

    /// A service with explicit per-service knobs: admission bounds and
    /// shed mode, parked-scratch/pool caps, planner shard count, and
    /// (for chaos testing) a fault-injection plan.
    pub fn with_config(config: ServiceConfig) -> Self {
        let planner_shards = resolve_planner_shards(&config);
        NetEmbedService {
            registry: ModelRegistry::new(),
            cache: FilterCache::new().with_max_waiters(config.admission.max_dedup_waiters),
            hierarchies: HierarchyCache::new().with_max_waiters(config.admission.max_dedup_waiters),
            scratches: Mutex::new(Vec::new()),
            config,
            planner_shards,
            overload: (0..planner_shards)
                .map(|_| admission::OverloadStats::default())
                .collect(),
            leases_out: AtomicUsize::new(0),
            lease_peak: AtomicUsize::new(0),
            faults: admission::FaultInjector::new(config.faults),
            feed: feed::FeedStatus::default(),
        }
    }

    /// The model registry (register/update hosting networks here).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The shared filter cache (hit/miss counters live here).
    pub fn cache(&self) -> &FilterCache {
        &self.cache
    }

    /// The shared coarsened-substrate cache (hit/miss counters live
    /// here). Populated lazily by hierarchical runs, or eagerly via
    /// [`NetEmbedService::warm_hierarchy`].
    pub fn hierarchy_cache(&self) -> &HierarchyCache {
        &self.hierarchies
    }

    /// Coarsen `host`'s current model snapshot under `spec` and memoize
    /// the result, so a later hierarchical submit pays refinement and
    /// the restricted filter build only — not construction. Returns the
    /// cached hierarchy when one already exists for the current epoch.
    /// This is the warm-up path for latency-sensitive callers on large
    /// substrates (construction at 10^5+ nodes is seconds of work that
    /// should not land on the first query's budget).
    ///
    /// A coarsening already in flight is waited for, not repeated;
    /// beyond [`AdmissionPolicy::max_dedup_waiters`] waiters the call
    /// is shed with [`ServiceError::Overloaded`].
    pub fn warm_hierarchy(
        &self,
        host: &str,
        spec: netembed::HierarchySpec,
    ) -> Result<Arc<SubstrateHierarchy>, ServiceError> {
        let (net, epoch) = self
            .registry
            .get(host)
            .ok_or_else(|| ServiceError::UnknownHost(host.to_string()))?;
        let key = HierarchyKey {
            host: host.to_string(),
            epoch,
            spec,
        };
        match self.fetch_hierarchy(&key, None, None) {
            Fetch::Hit(hier) | Fetch::Waited(hier) => Ok(hier),
            Fetch::MustBuild(ticket) => {
                let hier = Arc::new(SubstrateHierarchy::build(&net, &spec));
                ticket.complete(hier.clone());
                Ok(hier)
            }
            Fetch::Overloaded => Err(ServiceError::Overloaded(ShedReason::DedupWaitersFull)),
            Fetch::WaitExpired | Fetch::Cancelled => {
                unreachable!("an unbounded wait without a cancel probe")
            }
        }
    }

    /// The service's configuration (admission policy, parking caps).
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Number of planner dispatch shards (resolved at construction:
    /// explicit config, else `NETEMBED_PLANNER_SHARDS`, else available
    /// parallelism capped at 8). Every [`Planner`] created from this
    /// service has exactly this many lanes.
    pub fn planner_shards(&self) -> usize {
        self.planner_shards
    }

    /// The overload ledger of one dispatch shard.
    pub(crate) fn overload_shard(&self, shard: usize) -> &admission::OverloadStats {
        &self.overload[shard]
    }

    /// Admitted-but-unresolved requests across all shards right now
    /// (the sum of the per-shard queue-depth gauges) — what the
    /// service-wide `max_total_queue_depth` cap is checked against.
    pub(crate) fn total_queue_depth(&self) -> usize {
        self.overload.iter().map(|o| o.queue_depth()).sum()
    }

    pub(crate) fn faults(&self) -> &admission::FaultInjector {
        &self.faults
    }

    /// The feed-health block a [`RegistryFeed`]
    /// publishes into (and the staleness gate reads). Always `Live`
    /// with zero lag when no feed is attached.
    pub fn feed_status(&self) -> &feed::FeedStatus {
        &self.feed
    }

    /// Remove a model *and* eagerly drop the host's cached filters and
    /// coarsenings. [`ModelRegistry::remove`] alone leaves the removed
    /// host's cache entries resident until LRU pressure evicts them
    /// — epoch keying keeps them unservable, but a removed namespace
    /// should not pin cache slots (and a promotion must never consider
    /// a dead host's entries), so the service pairs the two. A build
    /// still in flight for the host completes for its waiters but
    /// memoizes nothing.
    pub fn remove_model(&self, name: &str) -> Option<std::sync::Arc<Network>> {
        let model = self.registry.remove(name);
        if model.is_some() {
            self.cache.invalidate_host(name);
            self.hierarchies.invalidate_host(name);
        }
        model
    }

    /// Whether the [`StalenessPolicy`] says submits must shed right
    /// now: the feed is degraded and the policy is `Block`, or it is
    /// `ServeStale` and the lag exceeds `max_lag`.
    pub(crate) fn stale_shed(&self) -> bool {
        if self.feed.state() == feed::FeedState::Live {
            return false;
        }
        match self.config.staleness {
            StalenessPolicy::Block => true,
            StalenessPolicy::ServeStale { max_lag } => self.feed.lag() > max_lag,
        }
    }

    /// The [`Staleness`] marker to stamp on a response computed against
    /// `epoch` right now — `None` while the feed is live.
    pub(crate) fn current_staleness(&self, epoch: ModelEpoch) -> Option<Staleness> {
        if self.feed.state() == feed::FeedState::Live {
            return None;
        }
        Some(Staleness {
            lag: self.feed.lag(),
            epoch,
        })
    }

    /// Dirty-window cache repair, the one classification both epoch
    /// caches share (see [`EpochCache::repair`] and the cache module's
    /// "Epoch repair" docs): before resolving `key` through `cache`,
    /// classify the registry's accumulated dirty window against the
    /// newest superseded entry of the key's lineage —
    ///
    /// * window unknowable (broken delta chain, plain `update`) →
    ///   skip, normal miss/build;
    /// * window provably empty → *promote* the entry in place;
    /// * otherwise → `patch` decides from the dirty set and the
    ///   superseded value: repair a clone, or rebuild.
    fn repair<K: EpochKey, V>(
        &self,
        cache: &EpochCache<K, V>,
        key: &K,
        patch: impl FnOnce(&DirtySet, &V) -> PatchDecision<V>,
    ) -> Repaired {
        cache.repair(key, |old, value| {
            match self.registry.dirty_between(key.host(), old, key.epoch()) {
                None => PatchDecision::Skip,
                Some(dirty) if dirty.is_empty() => PatchDecision::Promote,
                Some(dirty) => patch(&dirty, value),
            }
        })
    }

    /// Filter repair ([`NetEmbedService::repair`]): a non-empty window
    /// clones the superseded matrix and repairs it with
    /// [`FilterMatrix::patch`](netembed::FilterMatrix::patch) under
    /// `problem` (compiled at `key.epoch`); a removal-only window
    /// re-keys the repaired clone, while a window that *added* a
    /// feasible candidate falls back to a full rebuild.
    ///
    /// Routing every non-empty window through the patch path is what
    /// makes epoch reuse sound for additive mutations: the old
    /// touched-host intersection could not see a dirty node becoming
    /// newly admissible outside the cached candidate set, and would
    /// promote a filter that silently misses solutions.
    pub(crate) fn repair_filter(&self, key: &FilterKey, problem: &Problem<'_>) -> Repaired {
        self.repair(&self.cache, key, |dirty, filter| {
            let ids: Vec<netgraph::NodeId> = dirty.iter().map(netgraph::NodeId).collect();
            let mut repaired = filter.clone();
            let mut dl = Deadline::unlimited();
            let mut stats = SearchStats::default();
            match repaired.patch(problem, &ids, &mut dl, &mut stats) {
                Ok(PatchOutcome::Patched) => {
                    debug_assert!(!repaired.truncated(), "caching a truncated patch");
                    PatchDecision::Replace(Arc::new(repaired))
                }
                Ok(PatchOutcome::NeedsRebuild) | Err(_) => PatchDecision::Rebuild,
            }
        })
    }

    /// Resolve the coarsening `key` names through the hierarchy cache's
    /// in-flight table, after the epoch repair: a coarsening aggregates
    /// every node, so an empty dirty window promotes the superseded one
    /// and any other window rebuilds it. The caller coarsens on
    /// [`Fetch::MustBuild`]; a concurrent miss waits (at most
    /// `wait_budget`, abandoned early by `cancel`) for that build.
    pub(crate) fn fetch_hierarchy(
        &self,
        key: &HierarchyKey,
        wait_budget: Option<Duration>,
        cancel: Option<&dyn Fn() -> bool>,
    ) -> Fetch<'_, HierarchyKey, SubstrateHierarchy> {
        self.repair(&self.hierarchies, key, |_, _| PatchDecision::Rebuild);
        self.hierarchies
            .fetch_or_build_watch(key, wait_budget, cancel)
    }

    /// The parked-scratch cap in force right now: an explicit
    /// [`ServiceConfig::max_parked_scratches`] verbatim, else adaptive —
    /// enough parked scratches to re-lease one to every dispatch shard
    /// *and* to the peak number of concurrent leases ever observed,
    /// never below the historical fixed cap of 8 (and capped at 64 so a
    /// one-off spike cannot pin unbounded memory).
    pub fn effective_max_parked_scratches(&self) -> usize {
        self.config.max_parked_scratches.unwrap_or_else(|| {
            let observed = self
                .planner_shards
                .max(self.lease_peak.load(Ordering::Relaxed));
            observed.clamp(8, 64)
        })
    }

    /// The parked-pool-thread cap in force right now: an explicit
    /// [`ServiceConfig::max_parked_pool_threads`] verbatim, else
    /// adaptive — scaled off the same observed-concurrency signal as
    /// [`NetEmbedService::effective_max_parked_scratches`] (8 threads
    /// per concurrent lease, the historical per-scratch budget), never
    /// below the historical fixed cap of 32 and capped at 256.
    pub fn effective_max_parked_pool_threads(&self) -> usize {
        self.config.max_parked_pool_threads.unwrap_or_else(|| {
            let observed = self
                .planner_shards
                .max(self.lease_peak.load(Ordering::Relaxed));
            (8 * observed).clamp(32, 256)
        })
    }

    pub(crate) fn checkout_scratch(&self) -> EmbedScratch {
        let now = self.leases_out.fetch_add(1, Ordering::Relaxed) + 1;
        self.lease_peak.fetch_max(now, Ordering::Relaxed);
        self.scratches.lock().pop().unwrap_or_default()
    }

    pub(crate) fn checkin_scratch(&self, scratch: EmbedScratch) {
        // Saturating decrement: tests (and future callers) may check in
        // a scratch they never checked out, and a wrapped gauge would
        // poison the adaptive caps.
        let _ = self
            .leases_out
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                Some(n.saturating_sub(1))
            });
        if scratch.parallel.pool().thread_count() > self.effective_max_parked_pool_threads() {
            // Dropping the scratch drops its pool, joining the threads:
            // outlier thread counts don't stay resident.
            return;
        }
        let mut parked = self.scratches.lock();
        if parked.len() < self.effective_max_parked_scratches() {
            parked.push(scratch);
        }
    }

    /// Register a hosting network from a GraphML document.
    pub fn register_graphml(&self, name: &str, doc: &str) -> Result<(), ServiceError> {
        let net = graphml::from_str(doc)?;
        self.registry.register(name, net);
        Ok(())
    }

    /// Compile a `(host, query, constraint)` request into a long-lived
    /// [`PreparedQuery`] handle (§III's repeatedly-querying
    /// application, made explicit). Fails fast on an unknown host and on
    /// any constraint problem — parse errors and definite type errors
    /// both surface here as [`ServiceError::BadConstraint`], never
    /// mid-search.
    pub fn prepare(
        &self,
        host: &str,
        query: Network,
        constraint: &str,
    ) -> Result<PreparedQuery<'_>, ServiceError> {
        if self.registry.epoch(host).is_none() {
            return Err(ServiceError::UnknownHost(host.to_string()));
        }
        let expr = parse_and_lint(constraint)?;
        Ok(PreparedQuery::new(
            self,
            host.to_string(),
            query,
            constraint.to_string(),
            expr,
        ))
    }

    /// Submit a query (§III component 2): a thin wrapper that prepares,
    /// runs once and drops the handle. Repeated identical submits still
    /// amortize — the filter cache and the scratch/pool lease are
    /// service-wide, so only the first submit (per model epoch) builds a
    /// filter and spawns worker threads.
    pub fn submit(&self, request: &QueryRequest) -> Result<QueryResponse, ServiceError> {
        let mut prepared =
            self.prepare(&request.host, request.query.clone(), &request.constraint)?;
        prepared.run(&request.options)
    }

    /// Submit a batch of runs over one `(host, query, constraint)`
    /// triple (§III component 2, amortized): a thin wrapper over
    /// [`PreparedQuery::run_batch`]. One model snapshot, one compiled
    /// problem, and one filter build — or cache hit — serve every
    /// filter-based run; the build is charged to the run that triggered
    /// it (its timeout budget, its eval counters, its wall time),
    /// exactly as in [`NetEmbedService::submit`]. If a build is cut
    /// short by its run's deadline, that run reports `Inconclusive`,
    /// the truncated filter is discarded (never cached), and the next
    /// filter-needing run retries under its own budget. Every returned
    /// mapping is independently re-verified.
    pub fn submit_batch(
        &self,
        request: &BatchQueryRequest,
    ) -> Result<Vec<QueryResponse>, ServiceError> {
        let mut prepared =
            self.prepare(&request.host, request.query.clone(), &request.constraint)?;
        prepared.run_batch(&request.runs)
    }
}

impl Default for NetEmbedService {
    fn default() -> Self {
        Self::new()
    }
}

/// One dispatch shard's slice of the overload telemetry. The ledger
/// identity `accepted + shed.total() == submitted` holds per shard
/// (when the shard's queue is drained) because every request's counter
/// traffic stays in the shard its key hashed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTelemetry {
    /// Admitted-but-unresolved requests in this shard right now.
    pub queue_depth: usize,
    /// Requests ever routed to this shard (past host/constraint
    /// validation).
    pub submitted: u64,
    /// Requests admitted to this shard's queue and not later evicted.
    pub accepted: u64,
    /// Requests this shard shed, by reason.
    pub shed: ShedCounters,
    /// Enqueue→dispatch waits observed in this shard.
    pub queue_wait: HistogramSnapshot,
    /// Per-member dispatch (run) latencies observed in this shard.
    pub dispatch_latency: HistogramSnapshot,
}

/// Point-in-time telemetry of a service: the pool/scratch block (the
/// ROADMAP's "scratch-lease tuning" observability half — how much warm
/// capacity is parked, whether steady-state traffic is still spawning
/// threads, and the peak number of concurrently leased scratches that
/// drives the adaptive parking caps) plus the overload block
/// (queue-depth gauge, admission counters, shed counters by reason,
/// and queue-wait / dispatch-latency histograms). The overload fields
/// are **roll-ups** of the per-shard ledgers in
/// [`ServiceTelemetry::shards`]: counters sum, histograms merge
/// bucket-wise — so `accepted + shed.total() == submitted` holds
/// globally because it holds in every shard. One snapshot is not
/// atomic across shards: probe at quiescent points for exact
/// identities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceTelemetry {
    /// Warm scratches currently parked (bounded by
    /// [`NetEmbedService::effective_max_parked_scratches`]; leased ones
    /// are not counted).
    pub parked_scratches: usize,
    /// Live worker threads across the parked scratches' pools.
    pub pool_threads: usize,
    /// Threads ever spawned by the parked scratches' pools. Frozen
    /// between two probes ⇒ the traffic in between ran entirely on
    /// warm threads.
    pub spawned_total: u64,
    /// Peak number of simultaneously leased-out scratches over the
    /// service's lifetime — the observed-concurrency signal the
    /// adaptive parking caps are derived from.
    pub scratch_lease_peak: usize,
    /// Number of planner dispatch shards (the length of `shards`).
    pub planner_shards: usize,
    /// Admitted-but-unresolved planner requests right now (gauge,
    /// summed across shards).
    pub queue_depth: usize,
    /// Planner requests ever submitted (past host/constraint
    /// validation), summed across shards.
    pub submitted: u64,
    /// Planner requests admitted to a queue and not later evicted,
    /// summed across shards.
    pub accepted: u64,
    /// Requests shed, by reason (admission refusals, evictions,
    /// deadline-hopeless sheds, dedup-waiter overflow), summed across
    /// shards.
    pub shed: ShedCounters,
    /// Fixed-bucket histogram of enqueue→dispatch waits (merged across
    /// shards).
    pub queue_wait: HistogramSnapshot,
    /// Fixed-bucket histogram of per-member dispatch (run) latencies
    /// (merged across shards).
    pub dispatch_latency: HistogramSnapshot,
    /// Coarsened substrates currently memoized in the
    /// [`HierarchyCache`].
    pub hierarchies_resident: usize,
    /// Lifetime [`HierarchyCache`] lookup hits — hierarchical runs
    /// that skipped substrate coarsening entirely.
    pub hierarchy_cache_hits: u64,
    /// Lifetime [`HierarchyCache`] lookup misses (each one coarsened
    /// the substrate once; concurrent misses on one key wait for that
    /// build instead of counting here).
    pub hierarchy_cache_misses: u64,
    /// Lifetime superseded hierarchies re-keyed across an empty dirty
    /// window ([`EpochCache::repair`]'s promote arm) — re-coarsenings
    /// saved.
    pub hierarchy_promotions: u64,
    /// Lifetime [`FilterCache`] entries re-keyed across an empty dirty
    /// window ([`EpochCache::repair`]'s promote arm) — filter rebuilds
    /// saved without touching a single cell.
    pub filter_cache_promotions: u64,
    /// Lifetime [`FilterCache`] entries repaired in place across a
    /// removal-only dirty window ([`EpochCache::repair`]'s replace arm)
    /// — filter rebuilds turned into dirty-window re-scans.
    pub filter_cache_patches: u64,
    /// Lifetime patch attempts that fell back to a full rebuild
    /// because the window added a feasible candidate (the additive-
    /// mutation soundness valve).
    pub filter_cache_patch_rebuilds: u64,
    /// Feed health: state, delta counters (balanced per the
    /// [`feed`]-module ledger identity), resync counters, last applied
    /// sequence and the staleness-lag gauge. All zero /
    /// [`FeedState::Live`](feed::FeedState) when no feed is attached.
    pub feed: feed::FeedTelemetry,
    /// The per-shard ledgers the fields above roll up.
    pub shards: Vec<ShardTelemetry>,
}

impl NetEmbedService {
    /// Snapshot the service telemetry. See [`ServiceTelemetry`] for
    /// field semantics.
    pub fn telemetry(&self) -> ServiceTelemetry {
        let parked = self.scratches.lock();
        let shards: Vec<ShardTelemetry> = self
            .overload
            .iter()
            .map(|o| ShardTelemetry {
                queue_depth: o.queue_depth(),
                submitted: o.submitted(),
                accepted: o.accepted(),
                shed: o.shed_counters(),
                queue_wait: o.queue_wait_snapshot(),
                dispatch_latency: o.dispatch_snapshot(),
            })
            .collect();
        let mut shed = ShedCounters::default();
        let mut queue_wait = HistogramSnapshot::default();
        let mut dispatch_latency = HistogramSnapshot::default();
        for s in &shards {
            shed.merge(&s.shed);
            queue_wait.merge(&s.queue_wait);
            dispatch_latency.merge(&s.dispatch_latency);
        }
        ServiceTelemetry {
            parked_scratches: parked.len(),
            pool_threads: parked
                .iter()
                .map(|s| s.parallel.pool().thread_count())
                .sum(),
            spawned_total: parked
                .iter()
                .map(|s| s.parallel.pool().spawned_total())
                .sum(),
            scratch_lease_peak: self.lease_peak.load(Ordering::Relaxed),
            planner_shards: self.planner_shards,
            queue_depth: shards.iter().map(|s| s.queue_depth).sum(),
            submitted: shards.iter().map(|s| s.submitted).sum(),
            accepted: shards.iter().map(|s| s.accepted).sum(),
            shed,
            queue_wait,
            dispatch_latency,
            hierarchies_resident: self.hierarchies.len(),
            hierarchy_cache_hits: self.hierarchies.hits(),
            hierarchy_cache_misses: self.hierarchies.misses(),
            hierarchy_promotions: self.hierarchies.promotions(),
            filter_cache_promotions: self.cache.promotions(),
            filter_cache_patches: self.cache.patches(),
            filter_cache_patch_rebuilds: self.cache.patch_rebuilds(),
            feed: self.feed.snapshot(),
            shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netembed::{Algorithm, Outcome};
    use netgraph::Direction;

    fn triangle_host() -> Network {
        let mut h = Network::new(Direction::Undirected);
        let a = h.add_node("a");
        let b = h.add_node("b");
        let c = h.add_node("c");
        for (u, v, d) in [(a, b, 10.0), (b, c, 20.0), (a, c, 30.0)] {
            let e = h.add_edge(u, v);
            h.set_edge_attr(e, "avgDelay", d);
        }
        h
    }

    fn edge_query() -> Network {
        let mut q = Network::new(Direction::Undirected);
        let x = q.add_node("x");
        let y = q.add_node("y");
        q.add_edge(x, y);
        q
    }

    #[test]
    fn submit_round_trip() {
        let svc = NetEmbedService::new();
        svc.registry().register("plab", triangle_host());
        let resp = svc
            .submit(&QueryRequest {
                host: "plab".into(),
                query: edge_query(),
                constraint: "rEdge.avgDelay <= 15.0".into(),
                options: Options::default(),
            })
            .unwrap();
        assert_eq!(resp.mappings().len(), 2);
        assert!(matches!(resp.outcome, Outcome::Complete(_)));
    }

    #[test]
    fn adaptive_scratch_caps_track_shards_and_lease_peak() {
        // Explicit config is authoritative — the adaptive signal never
        // overrides it.
        let svc = NetEmbedService::with_config(
            ServiceConfig::default()
                .max_parked_scratches(3)
                .max_parked_pool_threads(40)
                .planner_shards(6),
        );
        assert_eq!(svc.effective_max_parked_scratches(), 3);
        assert_eq!(svc.effective_max_parked_pool_threads(), 40);

        // Adaptive defaults hold the historical floors at low
        // concurrency…
        let svc = NetEmbedService::with_config(ServiceConfig::default().planner_shards(2));
        assert_eq!(svc.effective_max_parked_scratches(), 8);
        assert_eq!(svc.effective_max_parked_pool_threads(), 32);

        // …scale with the shard count once it exceeds the floor…
        let svc = NetEmbedService::with_config(ServiceConfig::default().planner_shards(12));
        assert_eq!(svc.effective_max_parked_scratches(), 12);
        assert_eq!(svc.effective_max_parked_pool_threads(), 96);

        // …and with the observed peak of concurrent scratch leases,
        // which persists after the leases return.
        let svc = NetEmbedService::with_config(ServiceConfig::default().planner_shards(1));
        let held: Vec<_> = (0..20).map(|_| svc.checkout_scratch()).collect();
        for scratch in held {
            svc.checkin_scratch(scratch);
        }
        assert_eq!(svc.effective_max_parked_scratches(), 20);
        assert_eq!(svc.effective_max_parked_pool_threads(), 160);
        assert_eq!(svc.telemetry().scratch_lease_peak, 20);

        // Clamped: a one-off spike cannot pin unbounded memory.
        let svc = NetEmbedService::with_config(ServiceConfig::default().planner_shards(1));
        let held: Vec<_> = (0..100).map(|_| svc.checkout_scratch()).collect();
        drop(held);
        assert_eq!(svc.effective_max_parked_scratches(), 64);
        assert_eq!(svc.effective_max_parked_pool_threads(), 256);
    }

    #[test]
    fn unknown_host_rejected() {
        let svc = NetEmbedService::new();
        let err = svc
            .submit(&QueryRequest {
                host: "nope".into(),
                query: edge_query(),
                constraint: "true".into(),
                options: Options::default(),
            })
            .unwrap_err();
        assert!(matches!(err, ServiceError::UnknownHost(_)));
    }

    #[test]
    fn register_from_graphml() {
        let svc = NetEmbedService::new();
        let doc = r#"<graphml>
          <key id="d" for="edge" attr.name="avgDelay" attr.type="double"/>
          <graph id="g" edgedefault="undirected">
            <node id="a"/><node id="b"/>
            <edge source="a" target="b"><data key="d">5.0</data></edge>
          </graph></graphml>"#;
        svc.register_graphml("g", doc).unwrap();
        let resp = svc
            .submit(&QueryRequest {
                host: "g".into(),
                query: edge_query(),
                constraint: "rEdge.avgDelay < 10.0".into(),
                options: Options::default(),
            })
            .unwrap();
        assert_eq!(resp.mappings().len(), 2);
    }

    #[test]
    fn malformed_graphml_rejected() {
        let svc = NetEmbedService::new();
        assert!(matches!(
            svc.register_graphml("bad", "<graphml><nope/></graphml>"),
            Err(ServiceError::Graphml(_))
        ));
    }

    #[test]
    fn repeated_submit_builds_exactly_one_filter() {
        // The acceptance loop: same host/query/constraint, no model
        // update — the first submit builds, every later submit is a
        // cache hit (zero constraint evaluations, hit counter set).
        let svc = NetEmbedService::new();
        svc.registry().register("plab", triangle_host());
        let req = QueryRequest {
            host: "plab".into(),
            query: edge_query(),
            constraint: "rEdge.avgDelay <= 15.0".into(),
            options: Options::default(),
        };
        let first = svc.submit(&req).unwrap();
        assert_eq!(first.mappings().len(), 2);
        assert!(first.stats.constraint_evals > 0, "first submit builds");
        assert_eq!(first.stats.filter_cache_hits, 0);
        for i in 0..5 {
            let resp = svc.submit(&req).unwrap();
            assert_eq!(resp.mappings().len(), 2, "submit {i}");
            assert_eq!(
                resp.stats.constraint_evals, 0,
                "submit {i} rebuilt the filter"
            );
            assert_eq!(resp.stats.filter_cache_hits, 1, "submit {i} missed");
            assert_eq!(resp.stats.filter_cells, first.stats.filter_cells);
        }
        assert_eq!(svc.cache().len(), 1);
    }

    #[test]
    fn epoch_bump_forces_exactly_one_rebuild() {
        let svc = NetEmbedService::new();
        svc.registry().register("plab", triangle_host());
        let req = QueryRequest {
            host: "plab".into(),
            query: edge_query(),
            constraint: "rEdge.avgDelay <= 15.0".into(),
            options: Options::default(),
        };
        svc.submit(&req).unwrap();
        // Reservation-style in-place update: epoch bumps, model content
        // changes.
        svc.registry()
            .update("plab", |net| {
                for e in net.edge_refs().collect::<Vec<_>>() {
                    net.set_edge_attr(e.id, "avgDelay", 100.0);
                }
            })
            .unwrap();
        // Exactly one rebuild against the new model...
        let rebuilt = svc.submit(&req).unwrap();
        assert!(
            rebuilt.stats.constraint_evals > 0,
            "epoch bump must rebuild"
        );
        assert_eq!(rebuilt.stats.filter_cache_hits, 0);
        assert_eq!(rebuilt.mappings().len(), 0, "new model: nothing fits");
        // ...then hits again.
        let warm = svc.submit(&req).unwrap();
        assert_eq!(warm.stats.constraint_evals, 0);
        assert_eq!(warm.stats.filter_cache_hits, 1);
    }

    #[test]
    fn prepared_query_runs_share_scratch_and_cache() {
        let svc = NetEmbedService::new();
        svc.registry().register("plab", triangle_host());
        let mut prepared = svc
            .prepare("plab", edge_query(), "rEdge.avgDelay <= 15.0")
            .unwrap();
        let first = prepared.run(&Options::default()).unwrap();
        assert_eq!(first.mappings().len(), 2);
        assert!(first.stats.constraint_evals > 0);
        for _ in 0..3 {
            let resp = prepared.run(&Options::default()).unwrap();
            assert_eq!(resp.mappings().len(), 2);
            assert_eq!(resp.stats.filter_cache_hits, 1);
        }
        // The handle returns its scratch to the service on drop; the
        // next prepare reuses it.
        drop(prepared);
        let mut again = svc
            .prepare("plab", edge_query(), "rEdge.avgDelay <= 15.0")
            .unwrap();
        let resp = again.run(&Options::default()).unwrap();
        assert_eq!(resp.stats.filter_cache_hits, 1);
    }

    #[test]
    fn oversized_pools_are_dropped_at_checkin_not_parked() {
        // Small caps via ServiceConfig (the knobs that used to be
        // hard-coded constants) so the test stays cheap.
        let svc = NetEmbedService::with_config(
            ServiceConfig::default()
                .max_parked_scratches(2)
                .max_parked_pool_threads(6),
        );
        let mut big = EmbedScratch::new();
        big.parallel.pool_mut().ensure_threads(7);
        svc.checkin_scratch(big);
        assert!(
            svc.scratches.lock().is_empty(),
            "an outlier pool must not stay resident"
        );
        let mut ok = EmbedScratch::new();
        ok.parallel.pool_mut().ensure_threads(4);
        svc.checkin_scratch(ok);
        assert_eq!(svc.scratches.lock().len(), 1);
        // The scratch-park cap is a knob too.
        svc.checkin_scratch(EmbedScratch::new());
        svc.checkin_scratch(EmbedScratch::new());
        assert_eq!(
            svc.scratches.lock().len(),
            2,
            "park cap of 2 must hold the third scratch out"
        );
    }

    #[test]
    fn reconstrain_swaps_constraint_without_repreparing() {
        let svc = NetEmbedService::new();
        svc.registry().register("plab", triangle_host());
        let mut prepared = svc
            .prepare("plab", edge_query(), "rEdge.avgDelay <= 15.0")
            .unwrap();
        assert_eq!(
            prepared.run(&Options::default()).unwrap().mappings().len(),
            2
        );
        // Relax: every edge qualifies now.
        prepared.reconstrain("rEdge.avgDelay <= 50.0").unwrap();
        assert_eq!(prepared.constraint(), "rEdge.avgDelay <= 50.0");
        assert_eq!(
            prepared.run(&Options::default()).unwrap().mappings().len(),
            6
        );
        // Back to the first level: its filter is still cached.
        prepared.reconstrain("rEdge.avgDelay <= 15.0").unwrap();
        let back = prepared.run(&Options::default()).unwrap();
        assert_eq!(back.mappings().len(), 2);
        assert_eq!(back.stats.filter_cache_hits, 1);
        // Bad replacements are rejected and leave the handle usable.
        assert!(matches!(
            prepared.reconstrain("1 +"),
            Err(ServiceError::BadConstraint(ConstraintFault::Parse(_)))
        ));
        assert!(matches!(
            prepared.reconstrain("\"fast\" == 1"),
            Err(ServiceError::BadConstraint(ConstraintFault::Type(_)))
        ));
        assert_eq!(
            prepared.run(&Options::default()).unwrap().mappings().len(),
            2
        );
    }

    #[test]
    fn batch_pins_its_filter_and_touches_the_cache_once() {
        // Regression: a batch must hold the filter it obtained in a
        // batch-local pin — one shared-cache lookup for the whole
        // batch, so concurrent LRU eviction can never force a mid-batch
        // rebuild onto an innocent run's timeout budget.
        use netembed::SearchMode;
        let svc = NetEmbedService::new();
        svc.registry().register("plab", triangle_host());
        let mut prepared = svc
            .prepare("plab", edge_query(), "rEdge.avgDelay <= 15.0")
            .unwrap();
        let runs: Vec<Options> = (0..5)
            .map(|seed| Options {
                algorithm: netembed::Algorithm::Rwb,
                mode: SearchMode::First,
                seed,
                ..Options::default()
            })
            .collect();
        let (hits0, misses0) = (svc.cache().hits(), svc.cache().misses());
        let responses = prepared.run_batch(&runs).unwrap();
        assert!(responses[0].stats.constraint_evals > 0, "first run builds");
        for resp in &responses[1..] {
            assert_eq!(resp.stats.constraint_evals, 0);
            assert_eq!(resp.stats.filter_cache_hits, 1);
        }
        // Exactly one miss to discover the key; the four reusing runs
        // never touched the shared cache — they used the pin.
        assert_eq!(svc.cache().misses() - misses0, 1);
        assert_eq!(svc.cache().hits() - hits0, 0);
    }

    #[test]
    fn prepare_rejects_unparsable_constraint_up_front() {
        let svc = NetEmbedService::new();
        svc.registry().register("plab", triangle_host());
        let err = svc
            .submit(&QueryRequest {
                host: "plab".into(),
                query: edge_query(),
                constraint: "1 +".into(),
                options: Options::default(),
            })
            .unwrap_err();
        assert!(
            matches!(err, ServiceError::BadConstraint(ConstraintFault::Parse(_))),
            "parse failure must surface as BadConstraint, got {err}"
        );
        // Batch path too.
        let err = svc
            .submit_batch(&BatchQueryRequest {
                host: "plab".into(),
                query: edge_query(),
                constraint: "rEdge.avgDelay <=".into(),
                runs: vec![Options::default()],
            })
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::BadConstraint(ConstraintFault::Parse(_))
        ));
    }

    #[test]
    fn batch_reuses_filter_across_runs() {
        use netembed::{Algorithm, SearchMode};
        let svc = NetEmbedService::new();
        svc.registry().register("plab", triangle_host());
        // Ten RWB samples with different seeds plus a parallel run and an
        // LNS run: one filter build serves every filter-based run.
        let mut runs: Vec<Options> = (0..10)
            .map(|seed| Options {
                algorithm: Algorithm::Rwb,
                mode: SearchMode::First,
                seed,
                ..Options::default()
            })
            .collect();
        runs.push(Options {
            algorithm: Algorithm::ParallelEcf { threads: 2 },
            ..Options::default()
        });
        runs.push(Options {
            algorithm: Algorithm::Lns,
            ..Options::default()
        });
        let responses = svc
            .submit_batch(&BatchQueryRequest {
                host: "plab".into(),
                query: edge_query(),
                constraint: "rEdge.avgDelay <= 15.0".into(),
                runs,
            })
            .unwrap();
        assert_eq!(responses.len(), 12);
        let cells = responses[0].stats.filter_cells;
        assert!(cells > 0);
        // The first filter-needing run is charged for the build.
        assert!(responses[0].stats.constraint_evals > 0);
        for resp in &responses[..10] {
            assert_eq!(resp.mappings().len(), 1, "each RWB sample finds one");
            assert_eq!(resp.stats.filter_cells, cells);
        }
        for resp in &responses[1..10] {
            // Reusing runs evaluate no constraints — the batch amortized
            // the filter build away (via the epoch-keyed cache now).
            assert_eq!(resp.stats.constraint_evals, 0);
            assert_eq!(resp.stats.filter_cache_hits, 1);
        }
        // The parallel all-matches run agrees with a standalone submit.
        assert_eq!(responses[10].mappings().len(), 2);
        assert!(matches!(responses[10].outcome, Outcome::Complete(_)));
        // LNS ran filter-less but through the same scratch.
        assert_eq!(responses[11].mappings().len(), 2);
        assert_eq!(responses[11].stats.filter_cells, 0);
    }

    #[test]
    fn batch_parallel_runs_share_worker_pool_under_stealing() {
        use netembed::{Algorithm, StealPolicy};
        // A bigger host so the parallel runs actually have a tree to
        // split: hub-heavy, like the skew the scheduler exists for.
        let mut h = Network::new(netgraph::Direction::Undirected);
        let hub = h.add_node("hub");
        let spokes: Vec<_> = (0..8).map(|i| h.add_node(format!("s{i}"))).collect();
        for (i, &s) in spokes.iter().enumerate() {
            let e = h.add_edge(hub, s);
            h.set_edge_attr(e, "avgDelay", 5.0 + i as f64);
            let e2 = h.add_edge(s, spokes[(i + 1) % spokes.len()]);
            h.set_edge_attr(e2, "avgDelay", 50.0);
        }
        let mut q = Network::new(netgraph::Direction::Undirected);
        let qh = q.add_node("qh");
        for i in 0..3 {
            let l = q.add_node(format!("ql{i}"));
            q.add_edge(qh, l);
        }
        let svc = NetEmbedService::new();
        svc.registry().register("skew", h);

        // Several parallel all-matches runs with different policies: the
        // batch reuses one filter and one persistent worker pool across
        // them, and stealing must not change the answer.
        let runs: Vec<Options> = vec![
            Options {
                // Splits only at the root level.
                algorithm: Algorithm::ParallelEcf { threads: 4 },
                steal: StealPolicy {
                    split_depth: 0,
                    min_tail: 2,
                },
                ..Options::default()
            },
            Options {
                algorithm: Algorithm::ParallelEcf { threads: 4 },
                ..Options::default()
            },
            Options {
                // More workers than root candidates (the host has 9
                // nodes): the surplus is hungry from the start, so the
                // deep worker is guaranteed to re-split.
                algorithm: Algorithm::ParallelEcf { threads: 16 },
                steal: StealPolicy::aggressive(),
                ..Options::default()
            },
        ];
        let responses = svc
            .submit_batch(&BatchQueryRequest {
                host: "skew".into(),
                query: q,
                constraint: "rEdge.avgDelay <= 20.0".into(),
                runs,
            })
            .unwrap();
        assert_eq!(responses.len(), 3);
        let n = responses[0].mappings().len();
        assert!(n > 0, "hub star must embed");
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(resp.mappings().len(), n, "run {i} diverged");
            assert!(matches!(resp.outcome, Outcome::Complete(_)));
        }
        // Later runs reused the batch filter (no rebuild evals).
        assert_eq!(responses[1].stats.constraint_evals, 0);
        assert_eq!(responses[2].stats.constraint_evals, 0);
        // The second 4-thread run found all four pool threads parked
        // and warm from the first — spawn-free parallel search.
        assert_eq!(responses[1].stats.pool_reuse, 4);
        // The aggressive run on a hub host with idle workers re-split.
        assert!(
            responses[2].stats.tasks_spawned > 0,
            "aggressive stealing batch run never split"
        );
    }

    #[test]
    fn warm_service_parallel_submits_spawn_no_new_threads() {
        let svc = NetEmbedService::new();
        svc.registry().register("plab", triangle_host());
        let req = QueryRequest {
            host: "plab".into(),
            query: edge_query(),
            constraint: "rEdge.avgDelay <= 15.0".into(),
            options: Options {
                algorithm: Algorithm::ParallelEcf { threads: 2 },
                ..Options::default()
            },
        };
        let cold = svc.submit(&req).unwrap();
        assert_eq!(cold.stats.pool_reuse, 0, "first submit has no warm pool");
        for i in 0..3 {
            let warm = svc.submit(&req).unwrap();
            assert_eq!(warm.mappings().len(), 2);
            assert!(
                warm.stats.pool_reuse > 0,
                "warm submit {i} reused no pool threads"
            );
            assert_eq!(warm.stats.filter_cache_hits, 1);
        }
    }

    #[test]
    fn batch_unknown_host_rejected() {
        let svc = NetEmbedService::new();
        let err = svc
            .submit_batch(&BatchQueryRequest {
                host: "nope".into(),
                query: edge_query(),
                constraint: "true".into(),
                runs: vec![Options::default()],
            })
            .unwrap_err();
        assert!(matches!(err, ServiceError::UnknownHost(_)));
    }

    #[test]
    fn batch_zero_budget_run_does_not_poison_later_runs() {
        use std::time::Duration;
        let svc = NetEmbedService::new();
        svc.registry().register("plab", triangle_host());
        let responses = svc
            .submit_batch(&BatchQueryRequest {
                host: "plab".into(),
                query: edge_query(),
                constraint: "rEdge.avgDelay <= 15.0".into(),
                runs: vec![
                    Options {
                        timeout: Some(Duration::ZERO),
                        ..Options::default()
                    },
                    Options::default(),
                ],
            })
            .unwrap();
        assert!(matches!(responses[0].outcome, Outcome::Inconclusive));
        assert!(responses[0].stats.timed_out);
        // The truncated filter was never cached: the unlimited run
        // rebuilt it and completed.
        assert_eq!(responses[1].mappings().len(), 2);
        assert!(matches!(responses[1].outcome, Outcome::Complete(_)));
        assert_eq!(responses[1].stats.filter_cache_hits, 0);
    }

    #[test]
    fn model_update_changes_answers() {
        let svc = NetEmbedService::new();
        svc.registry().register("h", triangle_host());
        let req = QueryRequest {
            host: "h".into(),
            query: edge_query(),
            constraint: "rEdge.avgDelay <= 15.0".into(),
            options: Options::default(),
        };
        assert_eq!(svc.submit(&req).unwrap().mappings().len(), 2);
        // Monitoring update: all delays jump.
        let mut updated = triangle_host();
        for e in updated.edge_refs().collect::<Vec<_>>() {
            updated.set_edge_attr(e.id, "avgDelay", 100.0);
        }
        svc.registry().register("h", updated);
        assert_eq!(svc.submit(&req).unwrap().mappings().len(), 0);
    }

    /// Registers the triangle host and claims its cold coarsening's
    /// build ticket, as a concurrent first hierarchical run would.
    fn hold_coarsening(
        svc: &NetEmbedService,
    ) -> cache::BuildTicket<'_, HierarchyKey, SubstrateHierarchy> {
        svc.registry().register("plab", triangle_host());
        let key = HierarchyKey {
            host: "plab".into(),
            epoch: svc.registry().epoch("plab").unwrap(),
            spec: netembed::HierarchySpec::default(),
        };
        match svc.hierarchy_cache().fetch_or_build(&key, None) {
            Fetch::MustBuild(ticket) => ticket,
            _ => panic!("a cold coarsening must hand out a build ticket"),
        }
    }

    #[test]
    fn hierarchical_submit_waits_for_the_in_flight_coarsening() {
        // A coarsening already in flight is not repeated: the submit
        // waits on it, and a wait that outlives the budget reports a
        // timeout, exactly like a filter-build wait.
        let svc = NetEmbedService::new();
        let ticket = hold_coarsening(&svc);
        let resp = svc
            .submit(&QueryRequest {
                host: "plab".into(),
                query: edge_query(),
                constraint: "rEdge.avgDelay <= 15.0".into(),
                options: Options {
                    timeout: Some(Duration::from_millis(50)),
                    hierarchy: Some(netembed::HierarchySpec::default()),
                    ..Options::default()
                },
            })
            .unwrap();
        assert!(matches!(resp.outcome, Outcome::Inconclusive));
        assert!(resp.stats.timed_out);
        assert!(resp.stats.elapsed >= Duration::from_millis(50));
        assert_eq!(
            svc.hierarchy_cache().misses(),
            1,
            "the submit must not coarsen a second copy"
        );
        drop(ticket);
    }

    #[test]
    fn coarsening_finished_after_remove_model_memoizes_nothing() {
        let svc = NetEmbedService::new();
        let ticket = hold_coarsening(&svc);
        let model = svc.remove_model("plab").expect("registered host");
        let spec = netembed::HierarchySpec::default();
        ticket.complete(Arc::new(SubstrateHierarchy::build(&model, &spec)));
        assert_eq!(
            svc.telemetry().hierarchies_resident,
            0,
            "a removed host's coarsening must not be resurrected"
        );
    }
}

#[cfg(test)]
mod lint_tests {
    use super::*;
    use netgraph::{Direction, Network};

    #[test]
    fn statically_ill_typed_constraint_rejected_at_submit() {
        let svc = NetEmbedService::new();
        let mut h = Network::new(Direction::Undirected);
        let a = h.add_node("a");
        let b = h.add_node("b");
        h.add_edge(a, b);
        svc.registry().register("h", h);
        let mut q = Network::new(Direction::Undirected);
        let x = q.add_node("x");
        let y = q.add_node("y");
        q.add_edge(x, y);
        let err = svc
            .submit(&QueryRequest {
                host: "h".into(),
                query: q,
                constraint: "\"fast\" == 1".into(),
                options: Options::default(),
            })
            .unwrap_err();
        assert!(
            matches!(err, ServiceError::BadConstraint(ConstraintFault::Type(_))),
            "{err}"
        );
    }
}
