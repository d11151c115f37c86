//! Cross-request planner: a coalescing, **sharded** request queue in
//! front of the service's one serving pipeline (the
//! [`prepared`](crate::prepared) module).
//!
//! A [`PreparedQuery`](crate::PreparedQuery) amortizes per *session*:
//! one handle reuses its compiled problem, cached filter and leased
//! scratch across its own runs. But two **independent clients**
//! submitting the same query against the same host still each pay their
//! own prepare, their own cache probe and their own dispatch. The
//! [`Planner`] closes that gap — the cross-request amortization layer:
//!
//! * [`Planner::submit`] enqueues a [`PlannedRequest`] and returns a
//!   [`Ticket`]; compatible pending requests — same **grouping key**
//!   `(host, model epoch, query fingerprint, constraint)`, which is
//!   exactly a [`FilterKey`] — join one *group*;
//! * each group is dispatched through the pipeline a prepared batch
//!   runs: one constraint parse/lint (done once when the group is
//!   created), one compiled [`Problem`](netembed::Problem), one cache
//!   repair, one filter build **or** cache hit pinned for the whole
//!   group, one leased warm scratch/pool. Every member still gets its
//!   *own* engine run under its *own* [`Options`], so results are
//!   identical to isolated sequential submits;
//! * around that pipeline the planner keeps only its own concerns:
//!   queue wait comes off each member's budget, a cancel probe stops
//!   work for a dropped ticket, a member's panic stays that member's
//!   error, a member that rode the group's pin is credited as
//!   coalesced, and the per-shard ledgers and histograms record it
//!   all;
//! * results fan back to the per-request tickets, with per-request
//!   deadlines respected and group-member failures isolated (one
//!   member's timeout or verification failure never poisons its
//!   group-mates).
//!
//! ## Grouping-key invariants
//!
//! Two requests share a group only if **every** component of the
//! [`FilterKey`] matches:
//!
//! * **host + epoch** — the model snapshot (`Arc<Network>`, epoch) is
//!   captured at *enqueue*; a registry epoch bump between enqueue and
//!   dispatch therefore **splits the group**: pre-bump members run
//!   against the snapshot they saw at submission, post-bump members
//!   form a new group against the new model. Members never observe a
//!   model newer (or older) than their submission point;
//! * **query fingerprint** — the 128-bit structural
//!   [`network_fingerprint`](crate::cache::network_fingerprint), so
//!   distinct query networks never share a compiled problem;
//! * **constraint** — verbatim source text, so one parse/lint per
//!   group is sound.
//!
//! Per-member `Options` (algorithm, mode, seed, timeout…) are *not*
//! part of the key: they don't affect the shared stages, only the
//! per-member run.
//!
//! ## Dispatch model: sharded waiter-driven group commit
//!
//! The planner owns **no threads**. Its queue is split into `N`
//! *dispatch shards* (`N` =
//! [`NetEmbedService::planner_shards`]): a request's [`FilterKey`] is
//! hashed once at submit and routes the request — and every counter,
//! wait and wakeup it will ever touch — to exactly one shard. Each
//! shard is the old planner in miniature: its own pending-group list,
//! its own condvar, its own `dispatching` flag, and its own
//! [`OverloadStats`](crate::ServiceTelemetry) block (queue-depth gauge,
//! shed counters, dispatch-latency EWMA, histograms).
//!
//! Within a shard, dispatch is driven by whichever ticket is blocked in
//! [`Ticket::wait`]: one waiter at a time becomes that shard's
//! *dispatcher*, pops the oldest group and executes it for everyone;
//! the rest park until their result lands or the dispatcher role frees
//! up. Serializing dispatch **per shard** is what makes coalescing
//! emerge under load with no timing windows (classic group commit):
//! while one group runs, a burst of equivalent arrivals accumulates
//! into a single next group in the same shard. A burst of N equivalent
//! concurrent requests against a cold cache thus performs exactly one
//! filter build, provable from counters:
//! `Σ filter_cache_hits + Σ coalesced_requests == N − 1`
//! over the N responses, under **every** interleaving (each request
//! either builds, hits the shared cache, or rides the group pin).
//!
//! **Across** shards nothing serializes: groups with distinct keys that
//! hash to distinct shards dispatch concurrently, each dispatcher
//! leasing its own scratch/pool from the service
//! ([`Planner::peak_concurrent_dispatchers`] is the proof counter).
//! With one shard the planner reproduces the pre-sharding fully
//! serialized dispatch exactly — same ordering, same coalescing, same
//! counters.
//!
//! ## Fairness and ordering guarantees
//!
//! * **Within a shard** groups dispatch in creation order (FIFO; each
//!   group carries a monotone enqueue sequence number, and a
//!   burst-split remainder re-enters the queue *behind* every group
//!   already waiting). A hot key therefore cannot indefinitely delay a
//!   cold key in its shard:
//!   [`AdmissionPolicy::max_dispatch_burst`](crate::AdmissionPolicy)
//!   bounds how many members of one group a single dispatcher turn may
//!   execute before the remainder is re-queued as a fresh group behind
//!   the cold one. The cold group's extra wait is bounded by one burst,
//!   not by the hot group's full backlog. Coalescing survives the
//!   split: re-queued members score filter-cache hits, so the burst
//!   identity above is unchanged.
//! * **Across shards** there is no ordering relation at all — that is
//!   the point. Admission bounds (`max_queue_depth`, eviction scans)
//!   are per shard, so one flooded lane sheds its own traffic and
//!   leaves the others untouched; `max_total_queue_depth` optionally
//!   caps the sum.
//!
//! ## Deadlines and cancellation
//!
//! A member's `Options::timeout` is measured from **enqueue**: time
//! spent queued behind other groups comes off its budget before it
//! runs, and a member whose budget is exhausted when its turn comes is
//! answered with a timed-out [`Outcome::Inconclusive`](netembed::Outcome)
//! (its `elapsed` reporting the queue wait, no staleness marker)
//! without running — and without disturbing its group-mates. What is
//! left pays for everything the member runs: the group's cache repair
//! when it is the first member to run, a wait on a concurrent build or
//! a build of its own, and its search. Dropping a [`Ticket`] before
//! [`Ticket::wait`] cancels the request: a still-queued member is
//! unlinked from its group on the spot, a member already being
//! dispatched has its result discarded at delivery (and the
//! dispatcher's cancel probe aborts any dedup wait it was blocked in
//! on that member's behalf) — either way no queue slot, result slot or
//! cancellation mark survives the ticket.
//!
//! ## Admission and load shedding
//!
//! Before a request takes a queue slot it passes the service's
//! [`AdmissionPolicy`](crate::AdmissionPolicy): a deadline-hopeless check (estimated queue wait
//! — the shard's pending groups × its dispatch-latency EWMA — already
//! exceeds the request's budget), the optional service-wide
//! `max_total_queue_depth` cap, the per-shard queue-depth bound, and
//! the per-group size bound. A per-shard or per-group bound violation
//! first tries to **evict** a strictly lower-[`Priority`] queued member
//! *of the same shard* (newest arrival among the lowest priority —
//! [`Planner::submit_with`] sets the priority, plain
//! [`Planner::submit`] is `Normal`); if none exists the incoming
//! request itself is shed. The global cap always sheds the incoming
//! request — lanes never reach into each other's queues. Shed requests
//! resolve per [`ShedMode`](crate::ShedMode): a deterministic
//! [`ServiceError::Overloaded`] or a fast timed-out `Inconclusive`.
//! The full lifecycle/state diagram lives in the crate docs
//! ([`crate`], "Admission, priority and load shedding").

use crate::admission::{Priority, ShedReason};
use crate::cache::FilterKey;
use crate::prepared::Runner;
use crate::{NetEmbedService, QueryRequest, QueryResponse, ServiceError};
use cexpr::Expr;
use netembed::Options;
use netgraph::Network;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A request handed to the planner queue. Identical in shape to a
/// plain [`QueryRequest`] — the planner differs in *how* it executes
/// (grouped, coalesced), not in what it accepts.
pub type PlannedRequest = QueryRequest;

/// One enqueued request awaiting dispatch.
struct Member {
    id: u64,
    options: Options,
    enqueued: Instant,
    /// Consulted only under overload: eviction targets strictly
    /// lower-priority members (newest first).
    priority: Priority,
}

/// Pending requests sharing one grouping key, model snapshot and parsed
/// constraint — dispatched together through one run of the serving
/// pipeline.
/// The query and expr are `Arc`ed so a burst-split remainder re-queues
/// without re-cloning a possibly large network or re-parsing.
struct PendingGroup {
    key: FilterKey,
    /// Model snapshot captured when the group was created; every member
    /// runs against exactly this version (see module docs).
    model: Arc<Network>,
    query: Arc<Network>,
    /// Parsed + type-linted once per group, at creation.
    expr: Arc<Expr>,
    /// Planner-wide monotone creation sequence: the FIFO tie-breaker
    /// (burst-split remainders get a fresh, higher sequence, which is
    /// what puts them behind already-waiting cold groups).
    seq: u64,
    members: Vec<Member>,
}

/// One dispatch lane's mutable state — the old whole-planner state,
/// now instantiated once per shard.
#[derive(Default)]
struct ShardState {
    /// Open groups in creation (and therefore dispatch) order.
    groups: VecDeque<PendingGroup>,
    /// Delivered results awaiting pickup by their tickets.
    results: HashMap<u64, Result<QueryResponse, ServiceError>>,
    /// Cancelled ids whose member is currently being dispatched (a
    /// still-queued cancel unlinks the member directly instead).
    cancelled: HashSet<u64>,
    /// True while some waiter is executing one of this shard's groups;
    /// dispatch is serialized *per shard* — that is what makes arrivals
    /// coalesce (module docs).
    dispatching: bool,
}

/// One dispatch shard: its state plus its own condvar, so waiters and
/// dispatchers of different lanes never wake each other.
struct Shard {
    state: Mutex<ShardState>,
    /// One condvar per shard for everything: result delivery and
    /// dispatcher-role handoff both go through `notify_all` (waiters
    /// re-check their own predicate under the shard lock, so wakeups
    /// are never lost).
    wake: Condvar,
}

/// The coalescing, sharded cross-request queue. Create one per service
/// with [`NetEmbedService::planner`]; share it by reference among
/// client threads ([`Planner::submit`]/[`Planner::run`] take `&self`).
pub struct Planner<'svc> {
    svc: &'svc NetEmbedService,
    shards: Box<[Shard]>,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    groups_dispatched: AtomicU64,
    coalesced_total: AtomicU64,
    /// Dispatchers currently executing a group (across all shards) and
    /// the high-water mark — the observable proof that distinct-key
    /// groups really are in flight simultaneously.
    dispatchers_in_flight: AtomicUsize,
    dispatchers_peak: AtomicUsize,
}

impl NetEmbedService {
    /// A coalescing request queue over this service (see
    /// [`Planner`]), with [`NetEmbedService::planner_shards`] dispatch
    /// shards. Cheap; independent planners don't share queues, but they
    /// do share the service's registry, filter cache (with its
    /// in-flight build dedup), per-shard overload ledgers and scratch
    /// pool.
    pub fn planner(&self) -> Planner<'_> {
        let shards = (0..self.planner_shards())
            .map(|_| Shard {
                state: Mutex::new(ShardState::default()),
                wake: Condvar::new(),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Planner {
            svc: self,
            shards,
            next_id: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            groups_dispatched: AtomicU64::new(0),
            coalesced_total: AtomicU64::new(0),
            dispatchers_in_flight: AtomicUsize::new(0),
            dispatchers_peak: AtomicUsize::new(0),
        }
    }
}

/// Route a grouping key to its dispatch shard. `DefaultHasher` with the
/// default key is deterministic within one process, which is all the
/// planner needs: the same key always lands in the same shard, so the
/// coalescing and ledger invariants are per-lane facts.
fn shard_index_for(key: &FilterKey, shards: usize) -> usize {
    if shards == 1 {
        return 0;
    }
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

/// Human-readable form of a caught panic payload (the `&str`/`String`
/// cases `panic!` actually produces).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Tracks one dispatcher turn: maintains the in-flight/peak counters
/// and resets the owning shard's `dispatching` flag (waking its queue)
/// even if group execution unwinds, so a dispatcher role is never
/// wedged. Per-member panics never reach the unwind path — `execute`
/// catches them and delivers [`ServiceError::Internal`] to the affected
/// member, so group-mates always receive their results.
struct DispatchGuard<'a, 'svc> {
    planner: &'a Planner<'svc>,
    shard: usize,
}

impl<'a, 'svc> DispatchGuard<'a, 'svc> {
    fn enter(planner: &'a Planner<'svc>, shard: usize) -> Self {
        let now = planner
            .dispatchers_in_flight
            .fetch_add(1, Ordering::Relaxed)
            + 1;
        planner.dispatchers_peak.fetch_max(now, Ordering::Relaxed);
        DispatchGuard { planner, shard }
    }
}

impl Drop for DispatchGuard<'_, '_> {
    fn drop(&mut self) {
        self.planner
            .dispatchers_in_flight
            .fetch_sub(1, Ordering::Relaxed);
        let shard = &self.planner.shards[self.shard];
        let mut st = lock_state(&shard.state);
        st.dispatching = false;
        drop(st);
        shard.wake.notify_all();
    }
}

/// The planner's bookkeeping runs outside any unwind-prone code, so a
/// poisoned lock can only mean a panic *between* two bookkeeping steps
/// — continuing with the inner state is sound (same argument as the
/// worker pool's lock helper).
fn lock_state(m: &Mutex<ShardState>) -> std::sync::MutexGuard<'_, ShardState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Outcome of one admission attempt (see [`Planner::admit`]).
enum Admit {
    /// Queued; the id's ticket waits normally.
    Admitted(u64),
    /// Shed, but the submitter still gets a ticket — its result (a
    /// timed-out `Inconclusive`, or the victim's per-mode resolution)
    /// is already parked under this id.
    ShedResolved(u64),
    /// Shed under [`ShedMode::Reject`](crate::ShedMode::Reject): the
    /// submitter gets the error, no ticket exists.
    ShedRejected(ServiceError),
    /// Fast path only: no open group for the key — parse the
    /// constraint and retry with the group-creation ingredients.
    NoOpenGroup,
}

/// Eviction preference among two candidates: lowest [`Priority`]
/// first, newest arrival breaking ties — shedding hurts the least
/// important, least-invested work.
fn victim_order(a: &Member, b: &Member) -> std::cmp::Ordering {
    a.priority
        .cmp(&b.priority)
        .then(b.enqueued.cmp(&a.enqueued))
}

/// Position of the eviction victim among `members`: the best
/// [`victim_order`] candidate *strictly below* the incoming priority
/// (equal priority is never displaced — admission must not let two
/// equal requests evict each other back and forth).
fn victim_pos(members: &[Member], incoming: Priority) -> Option<usize> {
    members
        .iter()
        .enumerate()
        .filter(|(_, m)| m.priority < incoming)
        .min_by(|(_, a), (_, b)| victim_order(a, b))
        .map(|(i, _)| i)
}

impl<'svc> Planner<'svc> {
    /// The service this planner dispatches into.
    pub fn service(&self) -> &'svc NetEmbedService {
        self.svc
    }

    /// Number of dispatch shards (fixed at planner creation from
    /// [`NetEmbedService::planner_shards`]).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The dispatch shard this request's grouping key routes to — the
    /// same shard every equivalent request lands in. Fails like
    /// [`Planner::submit`] on an unknown host. Exposed so stress
    /// harnesses and operators can reason about lane placement.
    pub fn shard_for(&self, request: &PlannedRequest) -> Result<usize, ServiceError> {
        let (_, key) = self.key_for(request)?;
        Ok(shard_index_for(&key, self.shards.len()))
    }

    /// `request`'s grouping key at its host's current epoch, with the
    /// model snapshot that epoch names.
    fn key_for(&self, request: &PlannedRequest) -> Result<(Arc<Network>, FilterKey), ServiceError> {
        let (model, epoch) = self
            .svc
            .registry()
            .get(&request.host)
            .ok_or_else(|| ServiceError::UnknownHost(request.host.clone()))?;
        let key = FilterKey {
            host: request.host.clone(),
            epoch,
            query_hash: crate::cache::network_fingerprint(&request.query),
            constraint: request.constraint.clone(),
        };
        Ok((model, key))
    }

    /// Dispatchers executing a group right now, across all shards.
    pub fn dispatchers_in_flight(&self) -> usize {
        self.dispatchers_in_flight.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrent dispatchers over this planner's
    /// lifetime — `>= 2` is the counter evidence that distinct-key
    /// groups really dispatched simultaneously.
    pub fn peak_concurrent_dispatchers(&self) -> usize {
        self.dispatchers_peak.load(Ordering::Relaxed)
    }

    /// Enqueue a request at [`Priority::Normal`]; returns a [`Ticket`]
    /// to wait on. Fails fast — before taking a queue slot — on an
    /// unknown host and (for group-creating requests) on a constraint
    /// that doesn't parse or type-lint; a request joining an existing
    /// group inherits that group's already-validated constraint, which
    /// is textually identical by the grouping key. Under an
    /// [`AdmissionPolicy`](crate::AdmissionPolicy) with bounds, the
    /// request may instead be shed (module docs):
    /// [`ShedMode::Reject`](crate::ShedMode::Reject) surfaces
    /// [`ServiceError::Overloaded`] here; a degraded or
    /// deadline-hopeless request still gets a ticket, pre-resolved to a
    /// timed-out `Inconclusive`.
    pub fn submit(&self, request: &PlannedRequest) -> Result<Ticket<'_, 'svc>, ServiceError> {
        self.submit_with(request, Priority::Normal)
    }

    /// [`Planner::submit`] with an explicit [`Priority`]. Priority only
    /// matters under overload: when an admission bound is hit, a
    /// strictly lower-priority queued request (newest arrival first) of
    /// the same shard is evicted to make room; equal or higher
    /// priorities are never displaced. Submit control-plane work
    /// (reservation commits, monitor re-checks) at [`Priority::High`]
    /// and speculative probes at [`Priority::Low`].
    pub fn submit_with(
        &self,
        request: &PlannedRequest,
        priority: Priority,
    ) -> Result<Ticket<'_, 'svc>, ServiceError> {
        let (model, key) = self.key_for(request)?;
        let shard = shard_index_for(&key, self.shards.len());
        let enqueued = Instant::now();
        // Fast path: admit into an existing open group. Only cheap work
        // under the shard lock.
        {
            let mut st = lock_state(&self.shards[shard].state);
            match self.admit(shard, &mut st, &key, request, priority, enqueued, None) {
                Admit::NoOpenGroup => {}
                outcome => {
                    drop(st);
                    return self.resolve_admit(shard, outcome);
                }
            }
        }
        // Group creation: parse/lint the constraint and clone the query
        // network with the lock *released* (both can be arbitrarily
        // large), then re-check — a racing creator may have opened the
        // group in the meantime, in which case this request simply
        // joins it and the spare parse is discarded. Either way exactly
        // one open group per key exists.
        let expr = Arc::new(crate::parse_and_lint(&request.constraint)?);
        let query = Arc::new(request.query.clone());
        let mut st = lock_state(&self.shards[shard].state);
        let outcome = self.admit(
            shard,
            &mut st,
            &key,
            request,
            priority,
            enqueued,
            Some((model, query, expr)),
        );
        drop(st);
        self.resolve_admit(shard, outcome)
    }

    /// Turn an [`Admit`] outcome into the caller-facing result, waking
    /// the shard when state changed (admission, or an eviction that
    /// parked a result some blocked waiter must pick up).
    fn resolve_admit(
        &self,
        shard: usize,
        outcome: Admit,
    ) -> Result<Ticket<'_, 'svc>, ServiceError> {
        match outcome {
            Admit::Admitted(id) | Admit::ShedResolved(id) => {
                self.shards[shard].wake.notify_all();
                Ok(Ticket {
                    planner: self,
                    shard,
                    id,
                    finished: false,
                })
            }
            Admit::ShedRejected(e) => {
                self.shards[shard].wake.notify_all();
                Err(e)
            }
            Admit::NoOpenGroup => unreachable!("resolved before group creation"),
        }
    }

    fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Admission decision for one request, under its shard's lock. With
    /// `create: None` (the fast path) the request can only join an
    /// existing open group — [`Admit::NoOpenGroup`] sends the caller
    /// off to parse the constraint and retry with the group-creation
    /// ingredients. Counter discipline: every path out of this function
    /// except `NoOpenGroup` and admission-*check*-free errors records
    /// `submitted` exactly once **on this shard's ledger**, paired with
    /// either `admitted` or a shed counter — that is the
    /// `Σaccepted + Σshed == Σsubmitted` identity at its source, per
    /// shard and (by summation) globally.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &self,
        shard: usize,
        st: &mut ShardState,
        key: &FilterKey,
        request: &PlannedRequest,
        priority: Priority,
        enqueued: Instant,
        create: Option<(Arc<Network>, Arc<Network>, Arc<Expr>)>,
    ) -> Admit {
        let group_idx = st.groups.iter().position(|g| g.key == *key);
        if group_idx.is_none() && create.is_none() {
            return Admit::NoOpenGroup;
        }
        // Staleness gate: while the model feed is degraded past the
        // service's [`StalenessPolicy`], nothing new enters the queue —
        // admitting work against a model known to be behind its feed
        // just manufactures wrong-epoch answers. Shedding through
        // `shed_incoming` keeps the admission ledger exact.
        //
        // [`StalenessPolicy`]: crate::admission::StalenessPolicy
        if self.svc.stale_shed() {
            return self.shed_incoming(shard, st, ShedReason::StaleModel);
        }
        let policy = self.svc.config().admission;
        let overload = self.svc.overload_shard(shard);
        // Deadline hygiene: if the estimated queue wait (this shard's
        // EWMA of group dispatch times × groups ahead of us in the
        // shard) already exceeds the request's whole budget, it would
        // die in the queue — answer it now. Regardless of shed mode
        // this resolves as a timed-out `Inconclusive` (it *is* a
        // timeout, just predicted instead of waited out). A fresh shard
        // has no EWMA evidence and never sheds here.
        if let Some(budget) = request.options.timeout {
            let est = overload.estimated_queue_wait(st.groups.len());
            if !est.is_zero() && est > budget {
                overload.record_submitted();
                overload.record_shed(ShedReason::DeadlineHopeless);
                return self.park(st, Ok(QueryResponse::timed_out(Duration::ZERO)));
            }
        }
        // Service-wide cap across all shards. Always sheds the incoming
        // request: cross-shard eviction would serialize the lanes on
        // each other's locks, defeating the sharding.
        if policy.max_total_queue_depth != usize::MAX
            && self.svc.total_queue_depth() >= policy.max_total_queue_depth
        {
            return self.shed_incoming(shard, st, ShedReason::QueueFull);
        }
        // Group-size bound (join paths only): evict a lower-priority
        // member of *this* group, or shed the incoming request.
        if let Some(idx) = group_idx {
            if st.groups[idx].members.len() >= policy.max_group_size {
                match victim_pos(&st.groups[idx].members, priority) {
                    Some(pos) => {
                        let victim = st.groups[idx].members.remove(pos);
                        self.shed_victim(shard, st, victim, ShedReason::GroupFull);
                    }
                    None => return self.shed_incoming(shard, st, ShedReason::GroupFull),
                }
            }
        }
        // Per-shard queue-depth bound: evict the lowest-priority newest
        // queued member anywhere in this shard, or shed the incoming
        // request.
        let depth: usize = st.groups.iter().map(|g| g.members.len()).sum();
        if depth >= policy.max_queue_depth {
            let victim = st
                .groups
                .iter()
                .enumerate()
                .flat_map(|(gi, g)| {
                    victim_pos(&g.members, priority).map(|pos| (gi, pos, &g.members[pos]))
                })
                .min_by(|(_, _, a), (_, _, b)| victim_order(a, b))
                .map(|(gi, pos, _)| (gi, pos));
            match victim {
                Some((gi, pos)) => {
                    let victim = st.groups[gi].members.remove(pos);
                    self.shed_victim(shard, st, victim, ShedReason::QueueFull);
                }
                None => return self.shed_incoming(shard, st, ShedReason::QueueFull),
            }
        }
        overload.record_submitted();
        overload.record_admitted();
        let id = self.alloc_id();
        let member = Member {
            id,
            options: request.options.clone(),
            enqueued,
            priority,
        };
        match group_idx {
            Some(idx) => st.groups[idx].members.push(member),
            None => {
                let (model, query, expr) = create.expect("checked at entry");
                let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
                st.groups.push_back(PendingGroup {
                    key: key.clone(),
                    model,
                    query,
                    expr,
                    seq,
                    members: vec![member],
                });
            }
        }
        Admit::Admitted(id)
    }

    /// Shed the incoming (not-yet-queued) request: count it on its
    /// shard's ledger and resolve it per the shed mode — an error for
    /// the submitter, or a parked pre-resolved ticket.
    fn shed_incoming(&self, shard: usize, st: &mut ShardState, reason: ShedReason) -> Admit {
        let overload = self.svc.overload_shard(shard);
        overload.record_submitted();
        overload.record_shed(reason);
        match self.svc.shed(reason, Duration::ZERO) {
            Err(e) => Admit::ShedRejected(e),
            degraded => self.park(st, degraded),
        }
    }

    /// Park a shed request's resolution under a fresh id, for the
    /// pre-resolved ticket the submitter receives.
    fn park(&self, st: &mut ShardState, response: Result<QueryResponse, ServiceError>) -> Admit {
        let id = self.alloc_id();
        st.results.insert(id, response);
        Admit::ShedResolved(id)
    }

    /// Park the shed resolution for an evicted (already-admitted)
    /// queued member: its provisional `accepted` credit moves to the
    /// shed column and its queue slot frees ([`record_evicted`]) — on
    /// its own shard's ledger; its blocked ticket picks the parked
    /// result up on the next wake.
    ///
    /// [`record_evicted`]: crate::admission::OverloadStats::record_evicted
    fn shed_victim(&self, shard: usize, st: &mut ShardState, victim: Member, reason: ShedReason) {
        self.svc.overload_shard(shard).record_evicted(reason);
        let response = self.svc.shed(reason, victim.enqueued.elapsed());
        st.results.insert(victim.id, response);
    }

    /// Submit and wait: the blocking convenience for client threads.
    pub fn run(&self, request: &PlannedRequest) -> Result<QueryResponse, ServiceError> {
        self.submit(request)?.wait()
    }

    /// [`Planner::run`] with an explicit [`Priority`].
    pub fn run_with(
        &self,
        request: &PlannedRequest,
        priority: Priority,
    ) -> Result<QueryResponse, ServiceError> {
        self.submit_with(request, priority)?.wait()
    }

    /// Groups that reached dispatch with at least one live member
    /// (across all shards; a burst-split remainder counts as its own
    /// group when its turn comes).
    pub fn groups_dispatched(&self) -> u64 {
        self.groups_dispatched.load(Ordering::Relaxed)
    }

    /// Requests that rode a group-mate's pinned filter instead of
    /// touching the shared cache (the planner-level sum of the
    /// per-response
    /// [`SearchStats::coalesced_requests`](netembed::SearchStats::coalesced_requests)
    /// counters).
    pub fn coalesced_total(&self) -> u64 {
        self.coalesced_total.load(Ordering::Relaxed)
    }

    /// Members currently enqueued (across all shards and open groups).
    pub fn pending_requests(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                lock_state(&s.state)
                    .groups
                    .iter()
                    .map(|g| g.members.len())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Open groups awaiting dispatch, across all shards (cancellation
    /// can leave a group empty; it is skipped, cheaply, when popped).
    pub fn pending_groups(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_state(&s.state).groups.len())
            .sum()
    }

    /// Results delivered but not yet picked up by their tickets.
    /// Settles to zero once every live ticket has waited — cancelled
    /// tickets' results are discarded at delivery, not parked.
    pub fn undelivered_results(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_state(&s.state).results.len())
            .sum()
    }

    /// Outstanding cancellation marks across all shards (test
    /// instrumentation: must settle to zero — no mark survives its
    /// ticket).
    #[cfg(test)]
    fn cancel_marks(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_state(&s.state).cancelled.len())
            .sum()
    }

    /// True if `id` was cancelled while its group was being dispatched;
    /// consumes the mark.
    fn take_cancelled(&self, shard: usize, id: u64) -> bool {
        lock_state(&self.shards[shard].state).cancelled.remove(&id)
    }

    /// Non-consuming peek at the cancel mark — the dispatcher's cancel
    /// probe polls this from inside dedup waits; `deliver` still
    /// consumes the mark afterwards.
    fn is_cancelled(&self, shard: usize, id: u64) -> bool {
        lock_state(&self.shards[shard].state)
            .cancelled
            .contains(&id)
    }

    fn deliver(&self, shard: usize, id: u64, response: Result<QueryResponse, ServiceError>) {
        let mut st = lock_state(&self.shards[shard].state);
        if st.cancelled.remove(&id) {
            // The waiter is gone: discard instead of parking a result
            // nobody will claim. No gauge release — the cancelling drop
            // already released this member's slot when it set the mark.
            return;
        }
        // The admitted member resolves here: its queue-depth slot
        // frees. (Pre-resolved shed tickets never pass through deliver
        // — they are parked directly at admission.)
        self.svc.overload_shard(shard).release_slot();
        st.results.insert(id, response);
        drop(st);
        self.shards[shard].wake.notify_all();
    }

    /// Execute one group end to end through the pipeline a prepared
    /// batch runs (compile once, repair once, one pinned filter) on one
    /// leased scratch, and deliver per-member results; the planner adds
    /// only its own concerns (module docs). Runs on
    /// the dispatching waiter's thread with the shard lock *released*
    /// (only `deliver`/`take_cancelled` touch it, briefly) — which is
    /// exactly what lets other shards' groups run at the same time on
    /// their own waiters' threads.
    fn execute(&self, shard: usize, group: PendingGroup) {
        let PendingGroup {
            key,
            model,
            query,
            expr,
            seq: _,
            members,
        } = group;
        if members.is_empty() {
            return; // fully-cancelled group: nothing to do
        }
        self.groups_dispatched.fetch_add(1, Ordering::Relaxed);
        // Whole-group wall time feeds this shard's EWMA, which powers
        // its deadline-hopeless admission (queue wait ≈ groups × EWMA).
        let dispatch_started = Instant::now();
        let overload = self.svc.overload_shard(shard);
        let mut runner = match Runner::new(self.svc, &key, &query, &model, &expr) {
            Ok(runner) => runner,
            Err(e) => {
                // Group-level failure: every member gets the same
                // (cloned) error — isolated failure semantics only
                // apply to per-member stages.
                for member in members {
                    self.deliver(shard, member.id, Err(ServiceError::Problem(e.clone())));
                }
                return;
            }
        };
        let mut scratch = self.svc.checkout_scratch();
        for member in &members {
            if self.take_cancelled(shard, member.id) {
                continue;
            }
            let queued = member.enqueued.elapsed();
            overload.queue_wait.record(queued);
            let timeout = member.options.timeout.map(|t| t.saturating_sub(queued));
            if timeout.is_some_and(|t| t.is_zero()) {
                // Deadline died in the queue: a timed-out member, not a
                // poisoned group.
                self.deliver(shard, member.id, Ok(QueryResponse::timed_out(queued)));
                continue;
            }
            let options = Options {
                timeout,
                ..member.options.clone()
            };
            let had_pin = runner.pinned();
            let run_started = Instant::now();
            // Cancel propagation: if this member's ticket is dropped
            // while the dispatcher works on its behalf, the probe stops
            // any dedup wait — the dispatcher must not block on a
            // build whose result nobody will claim.
            let cancel_probe = || self.is_cancelled(shard, member.id);
            // Panic isolation: a panicking engine run (re-thrown from a
            // pool worker, a violated invariant) becomes *this member's*
            // `ServiceError::Internal` instead of unwinding the
            // dispatcher — group-mates still get their results, and the
            // possibly-inconsistent scratch is replaced, not reused or
            // parked. The service's fault injector panics here too
            // (chaos testing): an injected fault takes exactly the
            // organic panic path.
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if self.svc.faults().should_panic_run() {
                    panic!("injected planner fault");
                }
                runner.run(&options, &mut scratch, Some(&cancel_probe))
            }));
            overload.dispatch.record(run_started.elapsed());
            let response = match attempt {
                Ok(Ok(mut answer)) => {
                    if had_pin && answer.stats.filter_cache_hits > 0 {
                        // This member rode the group pin: it never
                        // touched the shared cache, so the credit moves
                        // from `filter_cache_hits` to
                        // `coalesced_requests` — the counter identity
                        // in the module docs depends on the two being
                        // mutually exclusive.
                        answer.stats.filter_cache_hits -= 1;
                        answer.stats.coalesced_requests += 1;
                        self.coalesced_total.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(answer)
                }
                Ok(Err(ServiceError::Overloaded(reason))) => {
                    // Shed mid-dispatch (the dedup waiter cap): this
                    // member was admitted, so its `accepted` credit
                    // moves to the shed column — the queue-depth slot
                    // itself is released by `deliver` as usual.
                    overload.record_shed_admitted(reason);
                    self.svc.shed(reason, member.enqueued.elapsed())
                }
                Ok(Err(e)) => Err(e),
                Err(payload) => {
                    scratch = netembed::EmbedScratch::new();
                    Err(ServiceError::Internal(panic_message(&*payload)))
                }
            };
            self.deliver(shard, member.id, response);
        }
        self.svc.checkin_scratch(scratch);
        overload.observe_dispatch(dispatch_started.elapsed());
    }
}

impl std::fmt::Debug for Planner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let per_shard: Vec<(usize, usize, bool)> = self
            .shards
            .iter()
            .map(|s| {
                let st = lock_state(&s.state);
                (
                    st.groups.len(),
                    st.groups.iter().map(|g| g.members.len()).sum::<usize>(),
                    st.dispatching,
                )
            })
            .collect();
        f.debug_struct("Planner")
            .field("shards", &per_shard.len())
            .field(
                "pending_groups",
                &per_shard.iter().map(|(g, _, _)| g).sum::<usize>(),
            )
            .field(
                "pending_requests",
                &per_shard.iter().map(|(_, m, _)| m).sum::<usize>(),
            )
            .field(
                "dispatching_shards",
                &per_shard.iter().filter(|(_, _, d)| *d).count(),
            )
            .field("groups_dispatched", &self.groups_dispatched())
            .field("coalesced_total", &self.coalesced_total())
            .finish()
    }
}

/// A claim on one enqueued request. [`Ticket::wait`] blocks until the
/// result arrives — and, when its shard's dispatcher role is free,
/// *drives* that shard itself (the planner owns no threads; see the
/// module docs). A waiter only ever dispatches groups of its own shard,
/// which is what lets distinct shards' waiters run groups concurrently.
/// Dropping a ticket without waiting cancels the request.
#[must_use = "an unwaited ticket cancels its request when dropped"]
pub struct Ticket<'p, 'svc> {
    planner: &'p Planner<'svc>,
    shard: usize,
    id: u64,
    finished: bool,
}

impl Ticket<'_, '_> {
    /// Block until this request's result is available, dispatching
    /// pending groups of this request's shard (own and others')
    /// whenever no other waiter is.
    pub fn wait(mut self) -> Result<QueryResponse, ServiceError> {
        let shard = &self.planner.shards[self.shard];
        loop {
            let group = {
                let mut st = lock_state(&shard.state);
                loop {
                    if let Some(response) = st.results.remove(&self.id) {
                        self.finished = true;
                        return response;
                    }
                    if !st.dispatching {
                        if let Some(mut group) = st.groups.pop_front() {
                            // The FIFO/fairness contract: everything
                            // still queued was created (or re-queued)
                            // after the group being dispatched.
                            debug_assert!(
                                st.groups.iter().all(|g| g.seq > group.seq),
                                "shard queue must stay in enqueue-sequence order"
                            );
                            // Fairness bound: one dispatcher turn runs
                            // at most `max_dispatch_burst` members; the
                            // remainder re-queues as a fresh group (new
                            // sequence number) *behind* every group
                            // already waiting, so a hot key yields the
                            // lane after each burst.
                            let burst = self.planner.svc.config().admission.max_dispatch_burst;
                            if group.members.len() > burst {
                                let rest = group.members.split_off(burst);
                                let seq = self.planner.next_seq.fetch_add(1, Ordering::Relaxed);
                                st.groups.push_back(PendingGroup {
                                    key: group.key.clone(),
                                    model: Arc::clone(&group.model),
                                    query: Arc::clone(&group.query),
                                    expr: Arc::clone(&group.expr),
                                    seq,
                                    members: rest,
                                });
                            }
                            st.dispatching = true;
                            break group;
                        }
                    }
                    st = shard.wake.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };
            // Became this shard's dispatcher: execute with the lock
            // released. The guard frees the role (and wakes the shard)
            // even on unwind.
            let guard = DispatchGuard::enter(self.planner, self.shard);
            self.planner.execute(self.shard, group);
            drop(guard);
        }
    }

    /// Cancel explicitly (equivalent to dropping the ticket).
    pub fn cancel(self) {
        // Drop does the work.
    }
}

impl Drop for Ticket<'_, '_> {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        let mut st = lock_state(&self.planner.shards[self.shard].state);
        // Still queued? Unlink the member outright — the queue slot is
        // reclaimed immediately (gauge included, on this shard's
        // ledger) and no mark is needed.
        for group in st.groups.iter_mut() {
            if let Some(pos) = group.members.iter().position(|m| m.id == self.id) {
                group.members.remove(pos);
                self.planner.svc.overload_shard(self.shard).release_slot();
                return;
            }
        }
        // Already resolved? A parked result means the gauge slot was
        // released when it parked (by `deliver`, or never taken at all
        // for a pre-resolved shed ticket) — discard without touching
        // the gauge.
        if st.results.remove(&self.id).is_some() {
            return;
        }
        // Mid-dispatch: mark the id so the in-flight dispatch discards
        // the result at delivery, and release the gauge slot *now* —
        // the request is resolved (cancelled) from the queue's point of
        // view the moment its waiter disappears. `deliver`/
        // `take_cancelled` consume the mark and skip their own release,
        // so the slot can never be freed twice.
        st.cancelled.insert(self.id);
        self.planner.svc.overload_shard(self.shard).release_slot();
    }
}

impl std::fmt::Debug for Ticket<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("id", &self.id)
            .field("shard", &self.shard)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstraintFault, ServiceConfig};
    use netembed::{FilterMatrix, Outcome, Problem, SearchStats};
    use netgraph::Direction;
    use std::time::Duration;

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

    fn request(host: &str, constraint: &str) -> PlannedRequest {
        PlannedRequest {
            host: host.into(),
            query: edge_query(),
            constraint: constraint.into(),
            options: Options::default(),
        }
    }

    #[test]
    fn run_round_trip_matches_submit() {
        let svc = NetEmbedService::new();
        svc.registry().register("plab", triangle_host());
        let planner = svc.planner();
        let req = request("plab", "rEdge.avgDelay <= 15.0");
        let planned = planner.run(&req).unwrap();
        let direct = svc.submit(&req).unwrap();
        assert_eq!(planned.mappings(), direct.mappings());
        assert_eq!(planned.outcome, direct.outcome);
        assert_eq!(planner.groups_dispatched(), 1);
        assert_eq!(planner.pending_requests(), 0);
        assert_eq!(planner.undelivered_results(), 0);
    }

    #[test]
    fn shard_routing_is_deterministic_and_pinned_by_config() {
        let svc = NetEmbedService::with_config(ServiceConfig::default().planner_shards(4));
        svc.registry().register("plab", triangle_host());
        assert_eq!(svc.planner_shards(), 4);
        let planner = svc.planner();
        assert_eq!(planner.shard_count(), 4);
        // Same key ⇒ same shard, every time; the route survives
        // re-submission (it is a pure hash of the grouping key).
        let req = request("plab", "rEdge.avgDelay <= 15.0");
        let s1 = planner.shard_for(&req).unwrap();
        assert_eq!(planner.shard_for(&req).unwrap(), s1);
        assert!(s1 < 4);
        // A submitted ticket lands in exactly that shard's queue.
        let t = planner.submit(&req).unwrap();
        assert_eq!(t.shard, s1);
        t.wait().unwrap();
        // Unknown hosts fail like submit.
        assert!(matches!(
            planner.shard_for(&request("nope", "true")),
            Err(ServiceError::UnknownHost(_))
        ));
        // One shard reproduces the serialized planner: everything
        // routes to shard 0.
        let svc1 = NetEmbedService::with_config(ServiceConfig::default().planner_shards(1));
        svc1.registry().register("plab", triangle_host());
        let p1 = svc1.planner();
        assert_eq!(p1.shard_count(), 1);
        assert_eq!(p1.shard_for(&req).unwrap(), 0);
    }

    #[test]
    fn burst_split_requeues_remainder_behind_waiting_groups() {
        // The fairness bound, deterministically: one shard, burst of 2,
        // a hot group of 5 and a cold group of 1. The cold waiter pops
        // the hot group, runs exactly 2 members, re-queues the other 3
        // *behind* the cold group, dispatches the cold group (its own),
        // and returns — leaving the hot remainder still pending.
        use crate::AdmissionPolicy;
        let svc = NetEmbedService::with_config(
            ServiceConfig::default()
                .planner_shards(1)
                .admission(AdmissionPolicy::default().max_dispatch_burst(2)),
        );
        svc.registry().register("plab", triangle_host());
        let planner = svc.planner();
        let hot = request("plab", "rEdge.avgDelay <= 15.0");
        let cold = request("plab", "true");
        let hot_tickets: Vec<_> = (0..5).map(|_| planner.submit(&hot).unwrap()).collect();
        let cold_ticket = planner.submit(&cold).unwrap();
        assert_eq!(planner.pending_groups(), 2);
        let cold_resp = cold_ticket.wait().unwrap();
        assert_eq!(cold_resp.mappings().len(), 6);
        assert_eq!(
            planner.pending_requests(),
            3,
            "the hot remainder must still be queued when the cold waiter returns"
        );
        assert_eq!(
            planner.undelivered_results(),
            2,
            "exactly one burst of the hot group ran before the cold group"
        );
        // Drain the hot tickets; coalescing survives the splits: one
        // designated build, every other member a hit or a pin ride.
        let responses: Vec<_> = hot_tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let isolated = svc.submit(&hot).unwrap();
        let (mut hits, mut coalesced) = (0u64, 0u64);
        for resp in &responses {
            assert_eq!(resp.mappings(), isolated.mappings());
            hits += resp.stats.filter_cache_hits;
            coalesced += resp.stats.coalesced_requests;
        }
        assert_eq!(hits + coalesced, 4, "burst identity across the splits");
        assert_eq!(planner.pending_requests(), 0);
        assert_eq!(planner.undelivered_results(), 0);
        let t = svc.telemetry();
        assert_eq!(t.accepted + t.shed.total(), t.submitted);
        assert_eq!(t.queue_depth, 0);
    }

    #[test]
    fn submit_fails_fast_without_taking_a_slot() {
        let svc = NetEmbedService::new();
        svc.registry().register("plab", triangle_host());
        let planner = svc.planner();
        assert!(matches!(
            planner.submit(&request("nope", "true")),
            Err(ServiceError::UnknownHost(_))
        ));
        assert!(matches!(
            planner.submit(&request("plab", "1 +")),
            Err(ServiceError::BadConstraint(ConstraintFault::Parse(_)))
        ));
        assert!(matches!(
            planner.submit(&request("plab", "\"fast\" == 1")),
            Err(ServiceError::BadConstraint(ConstraintFault::Type(_)))
        ));
        assert_eq!(planner.pending_requests(), 0);
        assert_eq!(planner.pending_groups(), 0);
    }

    #[test]
    fn equivalent_pending_requests_share_one_group() {
        // Nothing dispatches until someone waits, so the grouping of a
        // quiet enqueue phase is fully deterministic.
        let svc = NetEmbedService::new();
        svc.registry().register("plab", triangle_host());
        let planner = svc.planner();
        let req = request("plab", "rEdge.avgDelay <= 15.0");
        let t1 = planner.submit(&req).unwrap();
        let t2 = planner.submit(&req).unwrap();
        let other = planner.submit(&request("plab", "true")).unwrap();
        assert_eq!(planner.pending_requests(), 3);
        assert_eq!(planner.pending_groups(), 2, "same key coalesces");
        let r1 = t1.wait().unwrap();
        let r2 = t2.wait().unwrap();
        let r3 = other.wait().unwrap();
        assert_eq!(r1.mappings(), r2.mappings());
        assert_eq!(r1.mappings().len(), 2);
        assert_eq!(r3.mappings().len(), 6);
        // The second member rode the first one's pin.
        assert_eq!(r1.stats.coalesced_requests + r2.stats.coalesced_requests, 1);
        assert_eq!(planner.groups_dispatched(), 2);
        assert_eq!(planner.coalesced_total(), 1);
    }

    #[test]
    fn epoch_bump_between_enqueue_and_dispatch_splits_the_group() {
        let svc = NetEmbedService::new();
        svc.registry().register("plab", triangle_host());
        let planner = svc.planner();
        let req = request("plab", "rEdge.avgDelay <= 15.0");
        // Enqueued against the current epoch's snapshot...
        let before = planner.submit(&req).unwrap();
        // ...then the model changes before anything dispatches.
        svc.registry()
            .update("plab", |net| {
                for e in net.edge_refs().collect::<Vec<_>>() {
                    net.set_edge_attr(e.id, "avgDelay", 100.0);
                }
            })
            .unwrap();
        let after = planner.submit(&req).unwrap();
        assert_eq!(
            planner.pending_groups(),
            2,
            "an epoch bump must split the group"
        );
        // Each member sees exactly the snapshot it enqueued against.
        assert_eq!(before.wait().unwrap().mappings().len(), 2);
        assert_eq!(after.wait().unwrap().mappings().len(), 0);
        assert_eq!(planner.groups_dispatched(), 2);
        // Two distinct epochs ⇒ two designated builds, zero coalescing.
        assert_eq!(svc.cache().misses(), 2);
        assert_eq!(planner.coalesced_total(), 0);
    }

    #[test]
    fn cancelled_waiter_releases_its_queue_slot() {
        let svc = NetEmbedService::new();
        svc.registry().register("plab", triangle_host());
        let planner = svc.planner();
        let req = request("plab", "rEdge.avgDelay <= 15.0");
        let doomed = planner.submit(&req).unwrap();
        assert_eq!(planner.pending_requests(), 1);
        drop(doomed);
        assert_eq!(
            planner.pending_requests(),
            0,
            "a cancelled queued member must be unlinked immediately"
        );
        // The emptied group is skipped; a fresh request still works and
        // nothing (slot, result, mark) leaks.
        let live = planner.submit(&req).unwrap();
        assert_eq!(live.wait().unwrap().mappings().len(), 2);
        assert_eq!(planner.pending_requests(), 0);
        assert_eq!(planner.undelivered_results(), 0);
        assert_eq!(planner.cancel_marks(), 0);
    }

    #[test]
    fn explicit_cancel_equals_drop() {
        let svc = NetEmbedService::new();
        svc.registry().register("plab", triangle_host());
        let planner = svc.planner();
        planner
            .submit(&request("plab", "rEdge.avgDelay <= 15.0"))
            .unwrap()
            .cancel();
        assert_eq!(planner.pending_requests(), 0);
    }

    #[test]
    fn queue_expired_deadline_times_out_without_poisoning_group_mates() {
        let svc = NetEmbedService::new();
        svc.registry().register("plab", triangle_host());
        let planner = svc.planner();
        // Same grouping key (options are not part of it): one member
        // whose budget is already gone, one unlimited.
        let dead = planner
            .submit(&PlannedRequest {
                options: Options {
                    timeout: Some(Duration::ZERO),
                    ..Options::default()
                },
                ..request("plab", "rEdge.avgDelay <= 15.0")
            })
            .unwrap();
        let live = planner
            .submit(&request("plab", "rEdge.avgDelay <= 15.0"))
            .unwrap();
        assert_eq!(planner.pending_groups(), 1, "one group despite options");
        let live_resp = live.wait().unwrap();
        let dead_resp = dead.wait().unwrap();
        assert!(matches!(dead_resp.outcome, Outcome::Inconclusive));
        assert!(dead_resp.stats.timed_out);
        assert_eq!(
            dead_resp.stats.nodes_visited, 0,
            "an expired member must not have run"
        );
        assert_eq!(live_resp.mappings().len(), 2, "group-mate unharmed");
        assert!(matches!(live_resp.outcome, Outcome::Complete(_)));
    }

    #[test]
    fn queue_full_sheds_deterministically_in_reject_mode() {
        use crate::AdmissionPolicy;
        // Waiter-driven dispatch means nothing runs until someone
        // waits, so "fill the queue, then submit one more" is fully
        // deterministic.
        let svc = NetEmbedService::with_config(
            ServiceConfig::default().admission(AdmissionPolicy::default().max_queue_depth(2)),
        );
        svc.registry().register("plab", triangle_host());
        let planner = svc.planner();
        let req = request("plab", "rEdge.avgDelay <= 15.0");
        let t1 = planner.submit(&req).unwrap();
        let t2 = planner.submit(&req).unwrap();
        let refused = planner.submit(&req);
        assert!(
            matches!(
                refused,
                Err(ServiceError::Overloaded(ShedReason::QueueFull))
            ),
            "equal priority cannot evict: the incoming request is shed"
        );
        // Accepted requests are untouched by the shed.
        assert_eq!(t1.wait().unwrap().mappings().len(), 2);
        assert_eq!(t2.wait().unwrap().mappings().len(), 2);
        let t = svc.telemetry();
        assert_eq!(t.submitted, 3);
        assert_eq!(t.accepted, 2);
        assert_eq!(t.shed.queue_full, 1);
        assert_eq!(t.accepted + t.shed.total(), t.submitted);
        assert_eq!(t.queue_depth, 0, "gauge settles after drain");
    }

    #[test]
    fn total_queue_depth_caps_across_shards() {
        use crate::AdmissionPolicy;
        // Per-shard bounds are generous; the global cap is what bites.
        // Two distinct keys may or may not share a shard — the global
        // cap is shard-agnostic either way.
        let svc = NetEmbedService::with_config(
            ServiceConfig::default()
                .planner_shards(4)
                .admission(AdmissionPolicy::default().max_total_queue_depth(2)),
        );
        svc.registry().register("plab", triangle_host());
        let planner = svc.planner();
        let a = request("plab", "rEdge.avgDelay <= 15.0");
        let b = request("plab", "true");
        let t1 = planner.submit(&a).unwrap();
        let t2 = planner.submit(&b).unwrap();
        // The service-wide gauge is at the cap: the third submit is
        // shed regardless of which lane it routes to, with no eviction
        // (the global cap never reaches into another lane's queue).
        assert!(matches!(
            planner.submit_with(&a, Priority::High),
            Err(ServiceError::Overloaded(ShedReason::QueueFull))
        ));
        assert_eq!(planner.pending_requests(), 2, "no eviction happened");
        assert_eq!(t1.wait().unwrap().mappings().len(), 2);
        assert_eq!(t2.wait().unwrap().mappings().len(), 6);
        let t = svc.telemetry();
        assert_eq!((t.submitted, t.accepted, t.shed.queue_full), (3, 2, 1));
        assert_eq!(t.accepted + t.shed.total(), t.submitted);
        assert_eq!(t.queue_depth, 0);
    }

    #[test]
    fn degrade_mode_resolves_shed_requests_as_timed_out_inconclusive() {
        use crate::{AdmissionPolicy, ShedMode};
        let svc = NetEmbedService::with_config(
            ServiceConfig::default().admission(
                AdmissionPolicy::default()
                    .max_queue_depth(1)
                    .shed(ShedMode::DegradeInconclusive),
            ),
        );
        svc.registry().register("plab", triangle_host());
        let planner = svc.planner();
        let req = request("plab", "rEdge.avgDelay <= 15.0");
        let kept = planner.submit(&req).unwrap();
        // Degrade mode: the shed submitter still gets a ticket, already
        // resolved to a fast timed-out Inconclusive.
        let shed = planner.submit(&req).unwrap();
        let shed_resp = shed.wait().unwrap();
        assert!(matches!(shed_resp.outcome, Outcome::Inconclusive));
        assert!(shed_resp.stats.timed_out);
        assert_eq!(shed_resp.stats.nodes_visited, 0, "shed work never ran");
        assert_eq!(kept.wait().unwrap().mappings().len(), 2);
        let t = svc.telemetry();
        assert_eq!((t.submitted, t.accepted, t.shed.queue_full), (2, 1, 1));
        assert_eq!(t.queue_depth, 0);
    }

    #[test]
    fn high_priority_evicts_lowest_priority_newest_arrival() {
        use crate::AdmissionPolicy;
        let svc = NetEmbedService::with_config(
            ServiceConfig::default().admission(AdmissionPolicy::default().max_queue_depth(2)),
        );
        svc.registry().register("plab", triangle_host());
        let planner = svc.planner();
        let req = request("plab", "rEdge.avgDelay <= 15.0");
        let low_old = planner.submit_with(&req, Priority::Low).unwrap();
        let low_new = planner.submit_with(&req, Priority::Low).unwrap();
        // The queue is full; a High arrival displaces the *newest* Low.
        let high = planner.submit_with(&req, Priority::High).unwrap();
        assert!(
            matches!(
                low_new.wait(),
                Err(ServiceError::Overloaded(ShedReason::QueueFull))
            ),
            "the newest low-priority member is the victim"
        );
        assert_eq!(low_old.wait().unwrap().mappings().len(), 2);
        assert_eq!(high.wait().unwrap().mappings().len(), 2);
        let t = svc.telemetry();
        assert_eq!((t.submitted, t.accepted, t.shed.queue_full), (3, 2, 1));
        // A further High submit with an empty queue sails through:
        // priority is consulted only under overload.
        assert_eq!(
            planner
                .run_with(&req, Priority::High)
                .unwrap()
                .mappings()
                .len(),
            2
        );
    }

    #[test]
    fn group_size_bound_sheds_within_the_group_only() {
        use crate::AdmissionPolicy;
        let svc = NetEmbedService::with_config(
            ServiceConfig::default().admission(AdmissionPolicy::default().max_group_size(1)),
        );
        svc.registry().register("plab", triangle_host());
        let planner = svc.planner();
        let a = request("plab", "rEdge.avgDelay <= 15.0");
        let b = request("plab", "true");
        let a1 = planner.submit(&a).unwrap();
        // A different key opens a different group: no conflict.
        let b1 = planner.submit(&b).unwrap();
        assert_eq!(planner.pending_groups(), 2);
        // Same key at equal priority: the group is full, incoming shed.
        assert!(matches!(
            planner.submit(&a),
            Err(ServiceError::Overloaded(ShedReason::GroupFull))
        ));
        // Higher priority evicts within the group instead.
        let a2 = planner.submit_with(&a, Priority::High).unwrap();
        assert!(matches!(
            a1.wait(),
            Err(ServiceError::Overloaded(ShedReason::GroupFull))
        ));
        assert_eq!(a2.wait().unwrap().mappings().len(), 2);
        assert_eq!(b1.wait().unwrap().mappings().len(), 6, "other group safe");
        let t = svc.telemetry();
        assert_eq!((t.submitted, t.accepted), (4, 2));
        assert_eq!(t.shed.group_full, 2);
        assert_eq!(t.queue_depth, 0);
    }

    #[test]
    fn hopeless_deadline_is_shed_at_enqueue() {
        use crate::AdmissionPolicy;
        let svc = NetEmbedService::with_config(
            ServiceConfig::default().admission(AdmissionPolicy::default()),
        );
        svc.registry().register("plab", triangle_host());
        let planner = svc.planner();
        let req = request("plab", "rEdge.avgDelay <= 15.0");
        // Seed the shard's dispatch-latency EWMA with one real group.
        planner.run(&req).unwrap();
        // A pending group means a nonzero estimated wait...
        let pending = planner.submit(&req).unwrap();
        // ...so a 1 ns budget cannot survive the queue: shed at
        // enqueue as a pre-resolved timed-out Inconclusive (this is a
        // *timeout*, regardless of shed mode).
        let hopeless = planner
            .submit(&PlannedRequest {
                options: Options {
                    timeout: Some(Duration::from_nanos(1)),
                    ..Options::default()
                },
                ..req.clone()
            })
            .unwrap();
        let resp = hopeless.wait().unwrap();
        assert!(matches!(resp.outcome, Outcome::Inconclusive));
        assert!(resp.stats.timed_out);
        assert_eq!(resp.stats.nodes_visited, 0);
        assert_eq!(svc.telemetry().shed.deadline_hopeless, 1);
        assert_eq!(pending.wait().unwrap().mappings().len(), 2);
        let t = svc.telemetry();
        assert_eq!(t.accepted + t.shed.total(), t.submitted);
        // The queue-wait and dispatch histograms saw the real traffic.
        assert!(t.queue_wait.count() >= 2);
        assert!(t.dispatch_latency.count() >= 2);
    }

    #[test]
    fn gauge_settles_for_drops_at_every_lifecycle_stage() {
        // The satellite regression: a ticket dropped at any stage —
        // queued, pre-resolved, evicted, mid-dispatch, delivered —
        // must release its queue-depth slot exactly once. Pinned to one
        // shard: stage 5 needs the two distinct-key groups in one FIFO
        // lane so the mate's wait dispatches the blocked group first.
        use crate::cache::Fetch;
        use crate::{AdmissionPolicy, ShedMode};
        let svc = NetEmbedService::with_config(
            ServiceConfig::default().planner_shards(1).admission(
                AdmissionPolicy::default()
                    .max_queue_depth(2)
                    .shed(ShedMode::DegradeInconclusive),
            ),
        );
        svc.registry().register("plab", triangle_host());
        let planner = svc.planner();
        let req = request("plab", "rEdge.avgDelay <= 15.0");

        // Stage 1: dropped while queued.
        drop(planner.submit(&req).unwrap());
        assert_eq!(svc.telemetry().queue_depth, 0, "queued drop leaks");

        // Stage 2: dropped after delivery (wait picks one, drop the
        // other after its result parked).
        let t1 = planner.submit(&req).unwrap();
        let t2 = planner.submit(&req).unwrap();
        t1.wait().unwrap();
        // t2's result is parked now (the dispatcher ran the group).
        assert_eq!(planner.undelivered_results(), 1);
        drop(t2);
        assert_eq!(planner.undelivered_results(), 0);
        assert_eq!(svc.telemetry().queue_depth, 0, "delivered drop leaks");

        // Stage 3: pre-resolved shed ticket dropped unwaited.
        let f1 = planner.submit(&req).unwrap();
        let f2 = planner.submit(&req).unwrap();
        let shed = planner.submit(&req).unwrap(); // degrade: pre-resolved
        assert_eq!(svc.telemetry().queue_depth, 2);
        drop(shed);
        assert_eq!(
            svc.telemetry().queue_depth,
            2,
            "shed ticket never held a slot"
        );

        // Stage 4: evicted ticket dropped unwaited.
        let high = planner.submit_with(&req, Priority::High).unwrap();
        // f2 (newest Normal) was evicted; drop it without waiting.
        drop(f2);
        assert_eq!(svc.telemetry().queue_depth, 2);
        f1.wait().unwrap();
        high.wait().unwrap();
        assert_eq!(svc.telemetry().queue_depth, 0);

        // Stage 5: dropped mid-dispatch. Block the dispatcher inside
        // the member's filter fetch by holding the key's build ticket,
        // drop the member's planner ticket, then release the build.
        let (_, epoch) = svc.registry().get("plab").unwrap();
        let key = FilterKey {
            host: "plab".into(),
            epoch,
            query_hash: crate::cache::network_fingerprint(&req.query),
            constraint: "rEdge.avgDelay > 5.0".into(),
        };
        let Fetch::MustBuild(build) = svc.cache().fetch_or_build(&key, None) else {
            panic!("fresh key must hand out the build ticket");
        };
        let blocked_req = PlannedRequest {
            constraint: "rEdge.avgDelay > 5.0".into(),
            ..req.clone()
        };
        let victim = planner.submit(&blocked_req).unwrap();
        let mate = planner.submit(&req).unwrap();
        std::thread::scope(|s| {
            // The mate's wait dispatches the blocked group first (FIFO)
            // and parks inside fetch_or_build until the build resolves.
            let waiter = s.spawn(|| mate.wait().unwrap());
            while svc.cache().dedup_waits() == 0 && !planner.is_cancelled(victim.shard, victim.id) {
                if lock_state(&planner.shards[0].state).dispatching {
                    break;
                }
                std::thread::yield_now();
            }
            // Give the dispatcher a moment to actually enter the fetch,
            // then cancel the member it is working for.
            std::thread::sleep(Duration::from_millis(5));
            drop(victim);
            assert_eq!(
                svc.telemetry().queue_depth,
                1,
                "mid-dispatch drop must release its slot immediately"
            );
            build.complete(Arc::new({
                let (model, _) = svc.registry().get("plab").unwrap();
                let q = edge_query();
                let expr = crate::parse_and_lint("rEdge.avgDelay > 5.0").unwrap();
                let problem = Problem::from_parsed(&q, &model, &expr).unwrap();
                let mut dl = netembed::Deadline::unlimited();
                let mut stats = SearchStats::default();
                FilterMatrix::build(&problem, &mut dl, &mut stats).unwrap()
            }));
            waiter.join().unwrap();
        });
        assert_eq!(svc.telemetry().queue_depth, 0, "all slots settle");
        assert_eq!(planner.cancel_marks(), 0);
        assert_eq!(planner.undelivered_results(), 0);
    }

    #[test]
    fn cancelled_ticket_aborts_the_dispatchers_dedup_wait() {
        // Cancellation must propagate *into* the dedup wait chain: the
        // dispatcher blocks in fetch_or_build on a cancelled member's
        // behalf with no timeout — only the cancel probe can free it.
        // Without propagation this test deadlocks. One shard, so the
        // two distinct keys share a FIFO lane and the live waiter is
        // guaranteed to dispatch the blocked group first.
        let svc = NetEmbedService::with_config(ServiceConfig::default().planner_shards(1));
        svc.registry().register("plab", triangle_host());
        let planner = svc.planner();
        let blocked = request("plab", "rEdge.avgDelay > 5.0");
        let free = request("plab", "rEdge.avgDelay <= 15.0");
        let (_, epoch) = svc.registry().get("plab").unwrap();
        let key = FilterKey {
            host: "plab".into(),
            epoch,
            query_hash: crate::cache::network_fingerprint(&blocked.query),
            constraint: blocked.constraint.clone(),
        };
        use crate::cache::Fetch;
        let Fetch::MustBuild(build) = svc.cache().fetch_or_build(&key, None) else {
            panic!("fresh key must hand out the build ticket");
        };
        let victim = planner.submit(&blocked).unwrap();
        let live = planner.submit(&free).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| live.wait().unwrap());
            // Let the dispatcher park inside the victim's fetch, then
            // cancel the victim. The probe fires, the dispatcher moves
            // on to the live member's group, and the waiter completes —
            // while the external build ticket is STILL unresolved.
            std::thread::sleep(Duration::from_millis(10));
            drop(victim);
            let resp = waiter.join().unwrap();
            assert_eq!(resp.mappings().len(), 2);
        });
        drop(build); // abandon; nobody is waiting on it anymore
        assert_eq!(svc.telemetry().queue_depth, 0);
        assert_eq!(planner.undelivered_results(), 0);
    }

    #[test]
    fn group_level_problem_error_reaches_every_member() {
        // A constraint that parses and lints but cannot compile against
        // the model (unknown attribute in strict-compile paths is fine
        // here — use a query bigger than the host instead, which is a
        // guaranteed `ProblemError` for every member).
        let svc = NetEmbedService::new();
        let mut tiny = Network::new(Direction::Undirected);
        tiny.add_node("only");
        svc.registry().register("tiny", tiny);
        let planner = svc.planner();
        let req = PlannedRequest {
            host: "tiny".into(),
            query: edge_query(),
            constraint: "true".into(),
            options: Options::default(),
        };
        let t1 = planner.submit(&req).unwrap();
        let t2 = planner.submit(&req).unwrap();
        assert!(matches!(t1.wait(), Err(ServiceError::Problem(_))));
        assert!(matches!(t2.wait(), Err(ServiceError::Problem(_))));
    }
}
