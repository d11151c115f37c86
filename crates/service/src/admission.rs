//! Admission control, load shedding and overload telemetry.
//!
//! PR 4–5 made the service warm and burst-deduplicating, but left it
//! **unbounded**: planner queue depth, group size and in-flight dedup
//! waiters could all grow without limit, so a sustained oversubscribed
//! burst degraded into latency collapse instead of graceful
//! degradation. This module is the missing resilience layer:
//!
//! * [`AdmissionPolicy`] bounds the three unbounded dimensions
//!   (queue depth, group size, dedup waiters) and picks what happens to
//!   the excess ([`ShedMode`]): a deterministic
//!   [`ServiceError::Overloaded`](crate::ServiceError::Overloaded)
//!   rejection, or degradation to a fast timed-out
//!   `Inconclusive` — the ℓp-Box ADMM philosophy (best-effort bounded
//!   answers beat queueing forever) applied at the service level;
//! * [`Priority`] orders requests for shedding: when the queue is full,
//!   the lowest-priority **newest-arrival** queued request is evicted
//!   to make room for a higher-priority arrival, so reservation commits
//!   and monitor-driven re-checks ([`Priority::High`]) outrank
//!   speculative probes ([`Priority::Low`]);
//! * [`ServiceConfig`] is the per-service knob block (builder style):
//!   the admission policy, the previously hard-coded parked-scratch and
//!   parked-pool-thread caps, and a [`FaultPlan`] for chaos testing;
//! * `OverloadStats` (exposed through
//!   [`ServiceTelemetry`](crate::ServiceTelemetry)) carries the
//!   queue-depth gauge, per-reason shed counters, the dispatch-latency
//!   EWMA that powers deadline-aware enqueue shedding, and fixed-bucket
//!   queue-wait / dispatch-latency histograms.
//!
//! ## Accounting invariant
//!
//! Every submitted planner request resolves exactly once, so the
//! counters partition: `accepted + shed_total == submitted` whenever the
//! queue is drained. A request sheds either *at* submit (bounds or a
//! hopeless deadline) or *after* admission (evicted by a
//! higher-priority arrival — its provisional `accepted` credit moves to
//! the shed column); it never double-counts. The chaos harness
//! (`tests/chaos.rs`) asserts this under randomized interleavings.

use netembed::{HistogramSnapshot, LatencyHistogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Per-request importance, consulted only under overload: admission
/// sheds strictly lower-priority work first and never evicts an equal
/// or higher priority. The default ([`Priority::Normal`]) keeps plain
/// clients symmetric; infrastructure traffic that *must* land
/// (reservation commits, monitor-driven re-verification sweeps) should
/// submit [`Priority::High`], and speculative probes (prefetches,
/// negotiation look-aheads) [`Priority::Low`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Sheds first: speculative or retryable work.
    Low,
    /// The default for plain client queries.
    #[default]
    Normal,
    /// Sheds last: control-plane traffic (reservations, monitors).
    High,
}

/// What happens to a request the admission policy refuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedMode {
    /// Fail fast and loud: the submitter gets a deterministic
    /// [`ServiceError::Overloaded`](crate::ServiceError::Overloaded)
    /// carrying the [`ShedReason`]. Right for clients with their own
    /// retry/backoff logic.
    #[default]
    Reject,
    /// Degrade instead of failing: the request resolves as a fast
    /// timed-out `Inconclusive` — observably identical to a request
    /// whose deadline died in the queue, which is exactly what
    /// admission predicted would happen. Right for callers that treat
    /// `Inconclusive` as "try again later" anyway.
    DegradeInconclusive,
}

/// Why a request was shed. Each variant maps to its own telemetry
/// counter ([`ShedCounters`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// Total queued requests (across all pending groups) reached
    /// [`AdmissionPolicy::max_queue_depth`] and no lower-priority
    /// victim existed.
    QueueFull,
    /// The request's coalescing group reached
    /// [`AdmissionPolicy::max_group_size`] and no lower-priority
    /// group member could be evicted.
    GroupFull,
    /// The request's deadline cannot survive the estimated queue wait
    /// (pending groups × dispatch-latency EWMA): it would die in the
    /// queue, so it is answered now instead of occupying a slot.
    DeadlineHopeless,
    /// A cache's in-flight build for this key (a filter build or a
    /// substrate coarsening) already has
    /// [`AdmissionPolicy::max_dedup_waiters`] waiters blocked on it.
    DedupWaitersFull,
    /// The service's model feed is degraded and the [`StalenessPolicy`]
    /// refuses to serve from the stale snapshot: either the policy is
    /// [`StalenessPolicy::Block`], or the feed's staleness lag exceeded
    /// [`StalenessPolicy::ServeStale`]'s `max_lag`.
    StaleModel,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "planner queue depth limit reached"),
            ShedReason::GroupFull => write!(f, "coalescing group size limit reached"),
            ShedReason::DeadlineHopeless => {
                write!(f, "deadline cannot survive the estimated queue wait")
            }
            ShedReason::DedupWaitersFull => {
                write!(f, "in-flight cached build already has the maximum waiters")
            }
            ShedReason::StaleModel => {
                write!(f, "model feed degraded beyond the staleness policy")
            }
        }
    }
}

/// How the service serves while its model feed is degraded (the feed is
/// catching up, resyncing, or stalled — see
/// [`FeedState`](crate::feed::FeedState)). Irrelevant while the feed is
/// live (or when no feed is attached at all): fresh models serve
/// normally under every policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StalenessPolicy {
    /// Answer from the last good epoch, stamping every response with a
    /// [`Staleness`](crate::Staleness) marker, until the feed's lag (in
    /// deltas behind the stream head) exceeds `max_lag` — beyond that,
    /// submits shed as [`ShedReason::StaleModel`] through the normal
    /// [`AdmissionPolicy`] machinery. `max_lag: u64::MAX` (the default)
    /// reproduces the historical feed-less behaviour: serve whatever
    /// the registry holds, forever.
    ServeStale {
        /// Maximum tolerated staleness, in deltas behind the feed head.
        max_lag: u64,
    },
    /// Never answer from a stale snapshot: every submit during feed
    /// degradation sheds as [`ShedReason::StaleModel`].
    Block,
}

impl Default for StalenessPolicy {
    fn default() -> Self {
        StalenessPolicy::ServeStale { max_lag: u64::MAX }
    }
}

/// Bounds on the service's formerly-unbounded queues, plus the shed
/// behaviour. The default is **unbounded** (`usize::MAX` everywhere) so
/// existing callers see no behaviour change; production deployments set
/// explicit bounds via [`ServiceConfig`].
///
/// Since the planner's queue became sharded, `max_queue_depth` and
/// eviction scans are interpreted **per dispatch shard** (with one
/// shard this is exactly the old global meaning), while
/// `max_total_queue_depth` optionally caps the whole service.
/// `max_dispatch_burst` is the cross-shard fairness bound: one
/// dispatcher turn runs at most that many members of one group before
/// re-queueing the rest behind already-waiting groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Maximum requests queued across the pending groups of **one
    /// planner shard**. Eviction under this bound also stays within the
    /// shard (requests never displace work in another dispatch lane).
    pub max_queue_depth: usize,
    /// Maximum admitted-but-unresolved requests across **all** shards.
    /// Violations always shed the incoming request — there is no
    /// cross-shard eviction, because touching another lane's queue
    /// would serialize the lanes on each other.
    pub max_total_queue_depth: usize,
    /// Maximum members in one coalescing group.
    pub max_group_size: usize,
    /// Maximum group members one dispatcher turn executes before the
    /// remainder is re-queued as a fresh group *behind* every group
    /// already waiting in the shard — the bound on how long a hot key
    /// can make a cold key wait. Coalescing survives the split: the
    /// re-queued members score filter-cache hits, so the burst identity
    /// `Σhits + Σcoalesced == N − 1` is unchanged.
    pub max_dispatch_burst: usize,
    /// Maximum threads allowed to block on one in-flight cached build —
    /// a filter build or a substrate coarsening (the caches' dedup
    /// tables); the excess is shed instead of piling onto a single
    /// build's completion.
    pub max_dedup_waiters: usize,
    /// What shed requests resolve to.
    pub shed: ShedMode,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_queue_depth: usize::MAX,
            max_total_queue_depth: usize::MAX,
            max_group_size: usize::MAX,
            max_dispatch_burst: usize::MAX,
            max_dedup_waiters: usize::MAX,
            shed: ShedMode::default(),
        }
    }
}

impl AdmissionPolicy {
    /// Bound one planner shard's queue depth (clamped to ≥ 1).
    pub fn max_queue_depth(mut self, n: usize) -> Self {
        self.max_queue_depth = n.max(1);
        self
    }

    /// Bound the service-wide admitted-but-unresolved request count
    /// across all shards (clamped to ≥ 1).
    pub fn max_total_queue_depth(mut self, n: usize) -> Self {
        self.max_total_queue_depth = n.max(1);
        self
    }

    /// Bound one coalescing group's size (clamped to ≥ 1).
    pub fn max_group_size(mut self, n: usize) -> Self {
        self.max_group_size = n.max(1);
        self
    }

    /// Bound one dispatcher turn's group burst (clamped to ≥ 1).
    pub fn max_dispatch_burst(mut self, n: usize) -> Self {
        self.max_dispatch_burst = n.max(1);
        self
    }

    /// Bound the waiters on one in-flight cached build.
    pub fn max_dedup_waiters(mut self, n: usize) -> Self {
        self.max_dedup_waiters = n;
        self
    }

    /// Choose the shed behaviour.
    pub fn shed(mut self, mode: ShedMode) -> Self {
        self.shed = mode;
        self
    }
}

/// Deterministic fault injection for the chaos harness: counters tick
/// on every candidate site, firing every `N`-th time. `0` disables a
/// site (the default), so production services pay one relaxed atomic
/// load per request at most. Injection is *semantic*, not memory-unsafe:
/// an injected panic exercises the planner's per-member panic isolation
/// (the member gets `ServiceError::Internal`, group-mates are
/// unaffected); an injected build truncation exercises the epoch
/// caches' abandon-and-takeover chain (the designated builder abandons
/// its ticket as if its deadline had cut the build short).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Panic inside every `N`-th planner member run (0 = never).
    pub panic_every_nth_run: u64,
    /// Abandon every `N`-th designated cached build a request run makes
    /// — a filter or a substrate coarsening alike (0 = never). The
    /// run answers timed out; a waiter takes the build over.
    /// [`NetEmbedService::warm_hierarchy`](crate::NetEmbedService::warm_hierarchy)
    /// is no request run and is never abandoned.
    pub truncate_every_nth_build: u64,
}

/// The live injector: a [`FaultPlan`] plus its trigger counters.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    runs: AtomicU64,
    builds: AtomicU64,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            runs: AtomicU64::new(0),
            builds: AtomicU64::new(0),
        }
    }

    /// True when the current planner member run should panic.
    pub(crate) fn should_panic_run(&self) -> bool {
        fire(&self.runs, self.plan.panic_every_nth_run)
    }

    /// True when the current designated build should be abandoned as if
    /// deadline-truncated.
    pub(crate) fn should_truncate_build(&self) -> bool {
        fire(&self.builds, self.plan.truncate_every_nth_build)
    }
}

fn fire(counter: &AtomicU64, every: u64) -> bool {
    every != 0 && (counter.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(every)
}

/// Per-service configuration (builder style): admission policy, the
/// scratch/pool parking caps that used to be hard-coded constants, and
/// the chaos-testing fault plan. Pass to
/// [`NetEmbedService::with_config`](crate::NetEmbedService::with_config).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceConfig {
    /// Warm scratches parked between prepared queries. `None` (the
    /// default) is **adaptive**: the service derives the cap from its
    /// shard count and the observed peak of concurrently leased
    /// scratches, never below the historical fixed cap of 8 (see
    /// [`NetEmbedService::effective_max_parked_scratches`](crate::NetEmbedService::effective_max_parked_scratches)).
    /// An explicit `Some` value is authoritative.
    pub max_parked_scratches: Option<usize>,
    /// A scratch whose worker pool exceeds this many threads is dropped
    /// at check-in instead of parked. `None` (the default) is adaptive
    /// like `max_parked_scratches`, never below the historical fixed
    /// cap of 32; an explicit `Some` value is authoritative.
    pub max_parked_pool_threads: Option<usize>,
    /// Number of planner dispatch shards. `None` (the default) resolves
    /// at service construction: the `NETEMBED_PLANNER_SHARDS`
    /// environment variable if set, else the machine's available
    /// parallelism (capped at 8). An explicit `Some` always wins over
    /// the environment, so tests that pin a shard count stay pinned
    /// under CI matrices that export the variable.
    pub planner_shards: Option<usize>,
    /// Queue bounds and shed behaviour.
    pub admission: AdmissionPolicy,
    /// Serving behaviour while the model feed is degraded. The default
    /// ([`StalenessPolicy::ServeStale`] with unlimited lag) matches the
    /// historical feed-less behaviour.
    pub staleness: StalenessPolicy,
    /// Chaos fault injection (disabled by default).
    pub faults: FaultPlan,
}

impl ServiceConfig {
    /// Set an explicit (authoritative) parked-scratch cap.
    pub fn max_parked_scratches(mut self, n: usize) -> Self {
        self.max_parked_scratches = Some(n);
        self
    }

    /// Set an explicit parked-pool-thread cap (clamped to ≥ 1).
    pub fn max_parked_pool_threads(mut self, n: usize) -> Self {
        self.max_parked_pool_threads = Some(n.max(1));
        self
    }

    /// Pin the planner shard count (clamped to ≥ 1). One shard
    /// reproduces the pre-sharding fully-serialized dispatch exactly.
    pub fn planner_shards(mut self, n: usize) -> Self {
        self.planner_shards = Some(n.max(1));
        self
    }

    /// Set the admission policy.
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Set the degraded-feed serving policy.
    pub fn staleness(mut self, policy: StalenessPolicy) -> Self {
        self.staleness = policy;
        self
    }

    /// Set the fault-injection plan (chaos testing only).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }
}

/// Snapshot of the per-reason shed counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShedCounters {
    /// Requests shed because the planner queue was full.
    pub queue_full: u64,
    /// Requests shed because their coalescing group was full.
    pub group_full: u64,
    /// Requests shed at enqueue because their deadline could not
    /// survive the estimated queue wait.
    pub deadline_hopeless: u64,
    /// Requests shed because an in-flight build's waiter cap was hit.
    pub dedup_waiters_full: u64,
    /// Requests shed because the model feed was degraded beyond the
    /// [`StalenessPolicy`].
    pub stale_model: u64,
}

impl ShedCounters {
    /// Total sheds across all reasons.
    pub fn total(&self) -> u64 {
        self.queue_full
            + self.group_full
            + self.deadline_hopeless
            + self.dedup_waiters_full
            + self.stale_model
    }

    /// Accumulate another counter block into this one — the roll-up
    /// primitive for per-shard telemetry.
    pub fn merge(&mut self, other: &ShedCounters) {
        self.queue_full += other.queue_full;
        self.group_full += other.group_full;
        self.deadline_hopeless += other.deadline_hopeless;
        self.dedup_waiters_full += other.dedup_waiters_full;
        self.stale_model += other.stale_model;
    }
}

/// EWMA smoothing: `new = old − old/4 + sample/4` (α = ¼) — reactive
/// enough to track a load shift within a few groups, smooth enough that
/// one outlier dispatch doesn't swing admission.
const EWMA_SHIFT: u32 = 2;

/// The per-shard overload instrumentation: one block of relaxed
/// atomics per planner dispatch shard, shared by every planner of a
/// service (so multiple planners over one service report one coherent
/// per-lane picture; the service-wide view is the bucket-wise roll-up
/// across shards, computed in
/// [`telemetry`](crate::NetEmbedService::telemetry)). All counters are
/// lifetime totals; `queue_depth` is a gauge. The ledger identity
/// `accepted + shed == submitted` holds **per shard** — every request
/// is routed to exactly one shard and all of its counter traffic stays
/// there — and therefore also in the roll-up.
#[derive(Debug, Default)]
pub(crate) struct OverloadStats {
    submitted: AtomicU64,
    accepted: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_group_full: AtomicU64,
    shed_deadline: AtomicU64,
    shed_dedup: AtomicU64,
    shed_stale: AtomicU64,
    /// Admitted-but-unresolved planner requests. Every admission path
    /// increments exactly once and every resolution path (delivery,
    /// cancellation at any lifecycle stage, eviction) decrements exactly
    /// once — audited by `tests/chaos.rs` and the planner's
    /// ticket-lifecycle regression tests.
    queue_depth: AtomicU64,
    /// EWMA of recent group dispatch wall times, in nanoseconds.
    ewma_dispatch_nanos: AtomicU64,
    pub(crate) queue_wait: LatencyHistogram,
    pub(crate) dispatch: LatencyHistogram,
}

impl OverloadStats {
    pub(crate) fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// A request passed admission: provisional `accepted` credit plus a
    /// queue-depth slot.
    pub(crate) fn record_admitted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A request was refused at submit (it never took a queue slot).
    pub(crate) fn record_shed(&self, reason: ShedReason) {
        self.shed_counter(reason).fetch_add(1, Ordering::Relaxed);
    }

    /// An *admitted* request was evicted by a higher-priority arrival:
    /// its provisional `accepted` credit moves to the shed column and
    /// its queue slot frees — `accepted + shed == submitted` stays
    /// exact.
    pub(crate) fn record_evicted(&self, reason: ShedReason) {
        self.accepted.fetch_sub(1, Ordering::Relaxed);
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.shed_counter(reason).fetch_add(1, Ordering::Relaxed);
    }

    /// An admitted request was shed *mid-dispatch* (dedup waiter cap):
    /// `accepted` → shed, but the queue-depth slot stays — delivery of
    /// the shed resolution releases it like any other member's.
    pub(crate) fn record_shed_admitted(&self, reason: ShedReason) {
        self.accepted.fetch_sub(1, Ordering::Relaxed);
        self.shed_counter(reason).fetch_add(1, Ordering::Relaxed);
    }

    /// An admitted request resolved (delivered, discarded at delivery,
    /// or cancelled): its queue slot frees.
    pub(crate) fn release_slot(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    fn shed_counter(&self, reason: ShedReason) -> &AtomicU64 {
        match reason {
            ShedReason::QueueFull => &self.shed_queue_full,
            ShedReason::GroupFull => &self.shed_group_full,
            ShedReason::DeadlineHopeless => &self.shed_deadline,
            ShedReason::DedupWaitersFull => &self.shed_dedup,
            ShedReason::StaleModel => &self.shed_stale,
        }
    }

    /// Fold one group's dispatch wall time into the EWMA.
    pub(crate) fn observe_dispatch(&self, elapsed: Duration) {
        let sample = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        // Racy read-modify-write on purpose: a lost update under
        // contention skews the estimate by one sample, which the next
        // sample corrects — admission needs a trend, not a ledger.
        let old = self.ewma_dispatch_nanos.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else {
            old - (old >> EWMA_SHIFT) + (sample >> EWMA_SHIFT)
        };
        self.ewma_dispatch_nanos.store(new, Ordering::Relaxed);
    }

    /// Estimated wait for a request enqueued behind `groups_ahead`
    /// pending groups. Zero until the first dispatch has been observed
    /// (no evidence ⇒ never shed on deadline).
    pub(crate) fn estimated_queue_wait(&self, groups_ahead: usize) -> Duration {
        let ewma = self.ewma_dispatch_nanos.load(Ordering::Relaxed);
        Duration::from_nanos(ewma.saturating_mul(groups_ahead as u64))
    }

    pub(crate) fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    pub(crate) fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    pub(crate) fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed) as usize
    }

    pub(crate) fn shed_counters(&self) -> ShedCounters {
        ShedCounters {
            queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            group_full: self.shed_group_full.load(Ordering::Relaxed),
            deadline_hopeless: self.shed_deadline.load(Ordering::Relaxed),
            dedup_waiters_full: self.shed_dedup.load(Ordering::Relaxed),
            stale_model: self.shed_stale.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn queue_wait_snapshot(&self) -> HistogramSnapshot {
        self.queue_wait.snapshot()
    }

    pub(crate) fn dispatch_snapshot(&self) -> HistogramSnapshot {
        self.dispatch.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_low_normal_high() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn policy_builder_clamps_and_sets() {
        let p = AdmissionPolicy::default()
            .max_queue_depth(0)
            .max_total_queue_depth(0)
            .max_group_size(0)
            .max_dispatch_burst(0)
            .max_dedup_waiters(3)
            .shed(ShedMode::DegradeInconclusive);
        assert_eq!(p.max_queue_depth, 1, "zero depth would deadlock; clamp");
        assert_eq!(p.max_total_queue_depth, 1);
        assert_eq!(p.max_group_size, 1);
        assert_eq!(p.max_dispatch_burst, 1, "zero burst would never dispatch");
        assert_eq!(p.max_dedup_waiters, 3);
        assert_eq!(p.shed, ShedMode::DegradeInconclusive);
        // The default policy is fully open: no behaviour change for
        // services that never set bounds.
        let open = AdmissionPolicy::default();
        assert_eq!(open.max_queue_depth, usize::MAX);
        assert_eq!(open.max_total_queue_depth, usize::MAX);
        assert_eq!(open.max_group_size, usize::MAX);
        assert_eq!(open.max_dispatch_burst, usize::MAX);
        assert_eq!(open.max_dedup_waiters, usize::MAX);
        assert_eq!(open.shed, ShedMode::Reject);
    }

    #[test]
    fn service_config_park_caps_and_shards_are_optional() {
        // Defaults are adaptive (None); builders pin explicit values.
        let d = ServiceConfig::default();
        assert_eq!(d.max_parked_scratches, None);
        assert_eq!(d.max_parked_pool_threads, None);
        assert_eq!(d.planner_shards, None);
        let c = ServiceConfig::default()
            .max_parked_scratches(3)
            .max_parked_pool_threads(0)
            .planner_shards(0);
        assert_eq!(c.max_parked_scratches, Some(3));
        assert_eq!(c.max_parked_pool_threads, Some(1), "clamped to ≥ 1");
        assert_eq!(c.planner_shards, Some(1), "clamped to ≥ 1");
    }

    #[test]
    fn shed_counters_merge_sums_per_reason() {
        let mut a = ShedCounters {
            queue_full: 1,
            group_full: 2,
            deadline_hopeless: 3,
            dedup_waiters_full: 4,
            stale_model: 5,
        };
        let b = ShedCounters {
            queue_full: 10,
            group_full: 20,
            deadline_hopeless: 30,
            dedup_waiters_full: 40,
            stale_model: 50,
        };
        a.merge(&b);
        assert_eq!(a.queue_full, 11);
        assert_eq!(a.group_full, 22);
        assert_eq!(a.deadline_hopeless, 33);
        assert_eq!(a.dedup_waiters_full, 44);
        assert_eq!(a.stale_model, 55);
        assert_eq!(a.total(), 165);
    }

    #[test]
    fn staleness_policy_defaults_to_unbounded_serve_stale() {
        assert_eq!(
            StalenessPolicy::default(),
            StalenessPolicy::ServeStale { max_lag: u64::MAX }
        );
        let c = ServiceConfig::default().staleness(StalenessPolicy::Block);
        assert_eq!(c.staleness, StalenessPolicy::Block);
    }

    #[test]
    fn fault_injector_fires_every_nth() {
        let inj = FaultInjector::new(FaultPlan {
            panic_every_nth_run: 3,
            truncate_every_nth_build: 0,
        });
        let fired: Vec<bool> = (0..6).map(|_| inj.should_panic_run()).collect();
        assert_eq!(fired, [false, false, true, false, false, true]);
        // Disabled sites never fire.
        assert!((0..100).all(|_| !inj.should_truncate_build()));
    }

    #[test]
    fn overload_accounting_partitions() {
        let stats = OverloadStats::default();
        // 3 submitted: one admitted+resolved, one shed at submit, one
        // admitted then evicted.
        for _ in 0..3 {
            stats.record_submitted();
        }
        stats.record_admitted();
        stats.release_slot();
        stats.record_shed(ShedReason::QueueFull);
        stats.record_admitted();
        stats.record_evicted(ShedReason::GroupFull);
        assert_eq!(stats.submitted(), 3);
        assert_eq!(stats.accepted(), 1);
        assert_eq!(stats.shed_counters().total(), 2);
        assert_eq!(
            stats.accepted() + stats.shed_counters().total(),
            stats.submitted()
        );
        assert_eq!(stats.queue_depth(), 0, "all slots released");
    }

    #[test]
    fn ewma_tracks_dispatch_latency() {
        let stats = OverloadStats::default();
        assert_eq!(
            stats.estimated_queue_wait(10),
            Duration::ZERO,
            "no evidence, no shedding"
        );
        stats.observe_dispatch(Duration::from_millis(8));
        let est1 = stats.estimated_queue_wait(1);
        assert_eq!(est1, Duration::from_millis(8), "first sample seeds");
        assert_eq!(stats.estimated_queue_wait(3), est1 * 3);
        // Repeated fast samples pull the estimate down geometrically.
        for _ in 0..40 {
            stats.observe_dispatch(Duration::from_micros(100));
        }
        assert!(stats.estimated_queue_wait(1) < Duration::from_millis(1));
    }
}
