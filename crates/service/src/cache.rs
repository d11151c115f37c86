//! Epoch-keyed memoization of per-model work.
//!
//! Two artifacts of a request are pure functions of one host model
//! version plus a few knobs, and expensive enough to share:
//!
//! * the **filter matrix** — the first stage of every filter-based
//!   search — is a function of `(host model, query, constraint)`;
//! * the **substrate coarsening** behind a hierarchical run is a
//!   function of `(host model, coarsening spec)` alone, so one build
//!   serves every query against that snapshot.
//!
//! The registry versions host models with a [`ModelEpoch`], so each
//! collapses to a hashable key: a [`FilterKey`] `(host name, epoch,
//! query fingerprint, constraint source)` or a [`HierarchyKey`]
//! `(host name, epoch, spec)`. One generic [`EpochCache`] memoizes
//! both — [`FilterCache`] and [`HierarchyCache`] are its two
//! instantiations — which is what lets negotiation loops,
//! `Scheduler::find_window` sweeps, repeated `submit`s and repeated
//! hierarchical runs stop rebuilding identical work: same key → the
//! *same* `Arc`'d value (trivially bitwise-identical); epoch bump →
//! guaranteed miss, because a registry epoch never repeats (see
//! [`crate::registry`]) — stale entries can never be served, only
//! evicted or repaired.
//!
//! ## Eviction
//!
//! Two mechanisms bound the cache:
//!
//! * **staleness purge** — inserting a value for `(host, epoch)` drops
//!   every entry of the same host with an older epoch (the registry
//!   guarantees those versions can never be requested again);
//! * **LRU cap** — beyond [`EpochCache::with_capacity`]'s limit
//!   ([`DEFAULT_CAPACITY`] filters and [`HIERARCHY_CAPACITY`]
//!   hierarchies by default) the least-recently-used entry goes, so a
//!   sweep over many distinct constraints (negotiation levels,
//!   scheduler residual models) cannot grow the cache without bound.
//!
//! ## Epoch repair
//!
//! An epoch bump normally means a guaranteed miss and a full rebuild —
//! even when the mutation behind the bump touched nothing the cached
//! value depends on. [`EpochCache::repair`] closes that gap: given the
//! would-be key for the *current* epoch, it finds the newest
//! superseded entry of the same lineage ([`EpochKey::same_lineage`]:
//! same host and identity, older epoch) and asks a caller-supplied
//! decide hook what the dirty window between the two epochs
//! ([`ModelRegistry::dirty_between`](crate::registry::ModelRegistry::dirty_between))
//! means for it. The hook runs *outside* the cache lock — it consults
//! the registry (lock-ordering hazard) and may scan or patch a whole
//! matrix (latency under a hot lock) — and answers with a
//! [`PatchDecision`]:
//!
//! * **promote** — the window is provably empty, so the superseded
//!   value is still exact: its slot is re-keyed in place and the next
//!   fetch is a plain hit, no build, no miss. Promotion is thus repair
//!   over an empty window;
//! * **replace** — the window only removed candidates (attribute churn,
//!   logical edge/node removals): the hook clones the superseded
//!   matrix, repairs it with
//!   [`FilterMatrix::patch`](netembed::FilterMatrix::patch) and hands
//!   the clone back, and the cache memoizes it under the new key;
//! * **rebuild** — the window can change the value in a way repair
//!   cannot express: a filter's patch met a newly admissible candidate
//!   (`patch` reports `NeedsRebuild`; the frozen arena cannot absorb an
//!   addition), or a coarsening, which aggregates every node, saw any
//!   dirty node at all. The caller falls through to the normal
//!   miss/build path. Routing every non-empty filter window through
//!   `patch`'s addition detection is what makes repair *sound* for
//!   additive mutations: a touched-host intersection alone cannot see a
//!   dirty node becoming newly admissible *outside* the cached
//!   candidate set;
//! * **skip** — the window cannot be classified (broken delta chain, no
//!   registry history), or the request's budget ran out before a patch
//!   finished: nothing moves, the superseded entry stays for the next
//!   request, and the caller falls through.
//!
//! Both carrying arms re-check, under one hold of the cache lock, that
//! the candidate survived the hook and that nobody filled the new key
//! meanwhile: a candidate invalidated with its host while the hook ran
//! (a model removal) carries nothing across.
//!
//! `repair` returns what it did ([`Repaired`]), so a caller stamps its
//! response's statistics from the return value; the lifetime counters
//! ([`EpochCache::promotions`], [`EpochCache::patches`],
//! [`EpochCache::patch_rebuilds`]) feed the service telemetry.
//!
//! ## Concurrent-miss deduplication
//!
//! Two threads missing on the same key at the same time would both
//! build — pure waste for a filter, seconds of it for the coarsening of
//! a 10⁵-node host. [`EpochCache::fetch_or_build`] closes that hole with
//! an **in-flight build table**: the first miss registers the key and
//! gets a [`BuildTicket`] (it is the designated builder); any later
//! miss on the same key finds the registration and *waits* on it
//! instead of building, receiving the exact same `Arc` the winner
//! produced ([`Fetch::Waited`]). A builder that fails —
//! deadline-truncated build, problem error, panic — abandons its ticket
//! (explicitly or on drop), which wakes the waiters so one of them can
//! take over. Waiters pass their own remaining budget; a wait that
//! outlives it returns [`Fetch::WaitExpired`] rather than blocking past
//! the requester's deadline. A build still in flight when its host is
//! invalidated ([`EpochCache::invalidate_host`], on model removal) is
//! *poisoned*: its waiters still receive the value, but nothing is
//! memoized for the dead host.
//!
//! Two overload/cancellation refinements (see [`crate::admission`]):
//! the number of threads blocked on one in-flight build is bounded by
//! [`EpochCache::with_max_waiters`] — the excess gets
//! [`Fetch::Overloaded`] instead of convoying behind a single build —
//! and [`EpochCache::fetch_or_build_watch`] accepts a cancel probe so a
//! planner dispatcher whose requester dropped its ticket stops waiting
//! ([`Fetch::Cancelled`]) instead of blocking on a build whose result
//! nobody will read.

use crate::registry::ModelEpoch;
use netembed::{FilterMatrix, SearchStats, SubstrateHierarchy};
use netgraph::Network;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Default entry cap of a [`FilterCache`].
pub const DEFAULT_CAPACITY: usize = 64;

/// Default entry cap of a [`HierarchyCache`]. Hierarchies are
/// per-model (not per-query), so a service rarely holds more than a
/// handful of live ones.
pub const HIERARCHY_CAPACITY: usize = 8;

/// Memo of built `FilterMatrix`es, keyed by [`FilterKey`]. Shared by
/// every [`PreparedQuery`](crate::PreparedQuery) and planner group of a
/// service (one query's build serves later identical submits).
pub type FilterCache = EpochCache<FilterKey, FilterMatrix>;

/// Memo of coarsened substrates ([`SubstrateHierarchy`]), keyed by
/// [`HierarchyKey`]: one coarsening serves every hierarchical query
/// against that model snapshot, across the prepared, planner and direct
/// submit paths alike.
pub type HierarchyCache = EpochCache<HierarchyKey, SubstrateHierarchy>;

/// The key of an [`EpochCache`]: one artifact of one host model
/// version. `host` and `epoch` drive the staleness purge, invalidation
/// and poisoning; the rest of the key is the artifact's *lineage*,
/// which [`EpochCache::repair`] follows across epochs.
pub trait EpochKey: Clone + Eq + Hash + std::fmt::Debug {
    /// Entry cap of [`EpochCache::new`].
    const CAPACITY: usize;

    /// Registry model name (or a caller-chosen namespace).
    fn host(&self) -> &str;

    /// Model version the value was built against.
    fn epoch(&self) -> ModelEpoch;

    /// Whether `other` names the same artifact of the same host as
    /// `self`, whatever the two epochs.
    fn same_lineage(&self, other: &Self) -> bool;
}

/// Identity of one memoized filter build. Equality of keys must imply
/// equality of the built filter: `host`+`epoch` pin one exact model
/// version (registry epochs are never reused), `constraint` is the
/// verbatim source text, and `query_hash` is a 128-bit structural
/// fingerprint of the query network ([`network_fingerprint`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FilterKey {
    /// Registry model name (or a caller-chosen namespace, e.g. the
    /// scheduler's `"@scheduler"` residual models).
    pub host: String,
    /// Model version the filter was built against.
    pub epoch: ModelEpoch,
    /// Structural fingerprint of the query network.
    pub query_hash: u128,
    /// Constraint source text, verbatim.
    pub constraint: String,
}

impl EpochKey for FilterKey {
    const CAPACITY: usize = DEFAULT_CAPACITY;

    fn host(&self) -> &str {
        &self.host
    }

    fn epoch(&self) -> ModelEpoch {
        self.epoch
    }

    fn same_lineage(&self, other: &Self) -> bool {
        self.host == other.host
            && self.query_hash == other.query_hash
            && self.constraint == other.constraint
    }
}

/// Identity of one memoized substrate coarsening: the hierarchy is a
/// pure function of the host model bytes (pinned by `host` + `epoch` —
/// registry epochs never repeat) and the coarsening knobs. Queries and
/// constraints deliberately do **not** participate: one hierarchy
/// serves every query against that model snapshot, which is the whole
/// point of caching it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HierarchyKey {
    /// Registry model name.
    pub host: String,
    /// Model version the hierarchy was coarsened from.
    pub epoch: ModelEpoch,
    /// Coarsening knobs (different levels/floor → different hierarchy).
    pub spec: netembed::HierarchySpec,
}

impl EpochKey for HierarchyKey {
    const CAPACITY: usize = HIERARCHY_CAPACITY;

    fn host(&self) -> &str {
        &self.host
    }

    fn epoch(&self) -> ModelEpoch {
        self.epoch
    }

    fn same_lineage(&self, other: &Self) -> bool {
        self.host == other.host && self.spec == other.spec
    }
}

struct Slot<V> {
    value: Arc<V>,
    last_used: u64,
}

struct CacheState<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Logical clock for LRU ordering.
    tick: u64,
}

/// One registered in-flight build: the winner flips `state` from
/// `Building` to `Done`/`Abandoned` and notifies; joiners wait on `cv`.
/// Waiters hold their own `Arc` clone, so the winner can drop the table
/// entry immediately — late wakeups still read the final state.
struct InFlight<V> {
    state: StdMutex<BuildState<V>>,
    cv: StdCondvar,
    /// Threads currently blocked on this build. Joined/left under the
    /// cache's `inflight` map lock on entry and atomically on every
    /// exit path (shared, expired, cancelled, abandoned-retry), so the
    /// waiter cap can never leak a slot.
    waiters: AtomicU64,
    /// Set by [`EpochCache::invalidate_host`] while the build is still
    /// in flight: the key's namespace died (model removed), so
    /// [`BuildTicket::complete`] must *not* memoize the result — doing
    /// so would resurrect an entry for the dead host after the
    /// invalidation purge. Waiters still receive the built value (the
    /// answer is correct for the epoch they asked about); it just is
    /// not cached.
    poisoned: AtomicBool,
}

enum BuildState<V> {
    Building,
    Done(Arc<V>),
    /// The builder gave up (truncated build, error, panic): one waiter
    /// should retry and become the new builder.
    Abandoned,
}

impl<V> InFlight<V> {
    fn new() -> Self {
        InFlight {
            state: StdMutex::new(BuildState::Building),
            cv: StdCondvar::new(),
            waiters: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
        }
    }
}

/// RAII waiter-count slot: constructed under the inflight map lock,
/// released on every exit path (including unwinds) so
/// [`EpochCache::with_max_waiters`] accounting can never drift.
struct WaiterSlot<'a, V>(&'a InFlight<V>);

impl<V> Drop for WaiterSlot<'_, V> {
    fn drop(&mut self) {
        self.0.waiters.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What [`EpochCache::fetch_or_build`] resolved a key to.
pub enum Fetch<'a, K: EpochKey, V> {
    /// Served from the memo (counted as a hit).
    Hit(Arc<V>),
    /// Another thread was already building this key; this call blocked
    /// until that build completed and got the same `Arc` it memoized
    /// (counted as a dedup wait, not a miss).
    Waited(Arc<V>),
    /// Another thread was building, but the caller's wait budget ran
    /// out first. The caller should report a timeout, exactly as if it
    /// had spent the budget building.
    WaitExpired,
    /// Nobody has this key: the caller is the designated builder and
    /// must [`BuildTicket::complete`] (or abandon) the ticket (counted
    /// as a miss).
    MustBuild(BuildTicket<'a, K, V>),
    /// The in-flight build for this key already has the maximum number
    /// of waiters ([`EpochCache::with_max_waiters`]): the caller was
    /// shed instead of joining the convoy (counted under
    /// [`EpochCache::dedup_shed`]).
    Overloaded,
    /// The caller's cancel probe fired while it waited on another
    /// thread's build (only via [`EpochCache::fetch_or_build_watch`]):
    /// the requester dropped its ticket, so the caller should stop
    /// working on its behalf. Nothing was built or counted.
    Cancelled,
}

/// The designated-builder token handed out by
/// [`EpochCache::fetch_or_build`] on a true miss. Exactly one exists
/// per in-flight key. [`BuildTicket::complete`] memoizes the value and
/// hands it to every waiter; dropping the ticket without completing
/// (build failure, deadline truncation, panic unwind) abandons the
/// build, waking waiters so one can take over — waiters can therefore
/// never deadlock on a builder that died.
pub struct BuildTicket<'a, K: EpochKey, V> {
    cache: &'a EpochCache<K, V>,
    key: K,
    slot: Arc<InFlight<V>>,
    resolved: bool,
}

impl<K: EpochKey, V> BuildTicket<'_, K, V> {
    /// Publish a finished build: memoize it under the ticket's key and
    /// wake every waiter with the same `Arc`. Callers must only
    /// complete *complete* builds (see [`EpochCache::insert`]).
    ///
    /// The memo insert and the in-flight-table removal happen under one
    /// hold of the in-flight lock, and the insert is skipped when
    /// [`EpochCache::invalidate_host`] poisoned this build meanwhile —
    /// otherwise a builder racing a model removal would complete its
    /// register-then-reprobe insert *after* the invalidation purge and
    /// resurrect an entry for the dead host. Waiters are woken with the
    /// value either way.
    pub fn complete(mut self, value: Arc<V>) {
        self.resolved = true;
        {
            let mut fl = self.cache.inflight.lock().unwrap();
            if !self.slot.poisoned.load(Ordering::Relaxed) {
                self.cache.insert(self.key.clone(), value.clone());
            }
            fl.remove(&self.key);
        }
        *self.slot.state.lock().unwrap() = BuildState::Done(value);
        self.slot.cv.notify_all();
    }

    /// Give the key up without publishing (truncated or failed build):
    /// wakes waiters so one of them becomes the new builder.
    pub fn abandon(mut self) {
        self.resolve(BuildState::Abandoned);
    }

    fn resolve(&mut self, state: BuildState<V>) {
        self.resolved = true;
        self.cache.inflight.lock().unwrap().remove(&self.key);
        *self.slot.state.lock().unwrap() = state;
        self.slot.cv.notify_all();
    }
}

impl<K: EpochKey, V> Drop for BuildTicket<'_, K, V> {
    fn drop(&mut self) {
        if !self.resolved {
            self.resolve(BuildState::Abandoned);
        }
    }
}

impl<K: EpochKey, V> std::fmt::Debug for BuildTicket<'_, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BuildTicket")
            .field("key", &self.key)
            .finish()
    }
}

/// Thread-safe, epoch-keyed memo of shared per-model work (see the
/// module docs): an LRU-capped map with a same-host staleness purge, an
/// in-flight build table that deduplicates concurrent misses, and a
/// single [`EpochCache::repair`] entry point that carries a superseded
/// entry across an epoch bump. Lifetime hit/miss/dedup/repair counters
/// feed observability.
pub struct EpochCache<K, V> {
    state: Mutex<CacheState<K, V>>,
    /// Keys currently being built (see the module docs on concurrent-miss
    /// deduplication). `std` primitives on purpose: joiners need a
    /// condvar, which the vendored `parking_lot` stand-in doesn't carry.
    inflight: StdMutex<HashMap<K, Arc<InFlight<V>>>>,
    capacity: usize,
    /// Cap on threads blocked on one in-flight build (the admission
    /// policy's `max_dedup_waiters`); `usize::MAX` = unbounded.
    max_waiters: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    dedup_waits: AtomicU64,
    dedup_shed: AtomicU64,
    promotions: AtomicU64,
    patches: AtomicU64,
    patch_rebuilds: AtomicU64,
}

/// The caller's verdict for one [`EpochCache::repair`] window,
/// produced by the decide hook *outside* the cache lock (module docs,
/// "Epoch repair").
pub enum PatchDecision<V> {
    /// The window cannot be classified (broken delta chain, no registry
    /// history), or the caller's budget cut the repair short: leave the
    /// cache untouched and fall through to the normal miss/build path.
    /// No counter moves.
    Skip,
    /// The composed dirty window is provably empty: the superseded
    /// value is still exact — re-key it in place (a promotion).
    Promote,
    /// The dirty window only removed candidates: memoize this repaired
    /// clone under the new key (counted under [`EpochCache::patches`]).
    Replace(Arc<V>),
    /// The window changed the value beyond what repair can express (a
    /// filter patch met an addition,
    /// [`PatchOutcome::NeedsRebuild`](netembed::PatchOutcome); a
    /// coarsening saw any dirty node): fall through to a full rebuild
    /// (counted under [`EpochCache::patch_rebuilds`]).
    Rebuild,
}

/// What one [`EpochCache::repair`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repaired {
    /// The key was already memoized, or a concurrent build filled it
    /// while the decide hook ran.
    Present,
    /// Nothing was repaired and no counter moved: no superseded entry
    /// of the key's lineage, a skipped window
    /// ([`PatchDecision::Skip`]), or a candidate evicted or invalidated
    /// while the hook ran. The caller's fetch misses and builds.
    Nothing,
    /// The superseded entry was re-keyed in place.
    Promoted,
    /// A repaired clone was memoized under the key.
    Patched,
    /// The window forced a full rebuild; the caller's fetch misses.
    Rebuild,
}

impl Repaired {
    /// Stamp this repair into the statistics of the response it is
    /// credited to, so summing `patches` / `patch_rebuilds` over
    /// responses reproduces the cache's counters.
    pub(crate) fn credit(self, stats: &mut SearchStats) {
        stats.patches += u64::from(self == Repaired::Patched);
        stats.patch_rebuilds += u64::from(self == Repaired::Rebuild);
    }
}

impl<K: EpochKey, V> EpochCache<K, V> {
    /// A cache capped at the key type's default ([`DEFAULT_CAPACITY`]
    /// filters, [`HIERARCHY_CAPACITY`] hierarchies).
    pub fn new() -> Self {
        Self::with_capacity(K::CAPACITY)
    }

    /// A cache holding at most `capacity` values (≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        EpochCache {
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                tick: 0,
            }),
            inflight: StdMutex::new(HashMap::new()),
            capacity: capacity.max(1),
            max_waiters: usize::MAX,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            dedup_waits: AtomicU64::new(0),
            dedup_shed: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            patches: AtomicU64::new(0),
            patch_rebuilds: AtomicU64::new(0),
        }
    }

    /// Bound the threads allowed to block on one in-flight build; the
    /// excess resolves as [`Fetch::Overloaded`]. Clamped to ≥ 1
    /// (zero would shed every joiner, turning dedup off entirely —
    /// use a higher bound, or accept the rebuilds explicitly).
    pub fn with_max_waiters(mut self, max: usize) -> Self {
        self.max_waiters = max.max(1);
        self
    }

    /// The memoized value for `key`, refreshing its LRU position.
    pub fn lookup(&self, key: &K) -> Option<Arc<V>> {
        let hit = self.peek_hit(key);
        if hit.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// [`EpochCache::lookup`] that only counts (and refreshes) hits —
    /// a `None` here is not yet a miss, because `fetch_or_build` may
    /// still resolve it as a dedup wait.
    fn peek_hit(&self, key: &K) -> Option<Arc<V>> {
        let mut st = self.state.lock();
        st.tick += 1;
        let tick = st.tick;
        st.map.get_mut(key).map(|slot| {
            slot.last_used = tick;
            self.hits.fetch_add(1, Ordering::Relaxed);
            slot.value.clone()
        })
    }

    /// Resolve `key` with concurrent-miss deduplication (module docs):
    /// memo hit → [`Fetch::Hit`]; someone else already building →
    /// block (up to `wait_budget`; `None` waits indefinitely) and share
    /// their result; true miss → the caller becomes the designated
    /// builder and receives a [`BuildTicket`].
    ///
    /// **"Concurrent misses build once" is deterministic**, not
    /// best-effort: a winner memoizes *before* clearing its in-flight
    /// entry, and a caller that registers as builder re-probes the memo
    /// before being handed the ticket — so if a concurrent build
    /// completed anywhere in between, the caller takes the hit instead
    /// of rebuilding. A second `MustBuild` for the same `(key, model)`
    /// can only follow an *abandoned* (truncated/failed) build, or an
    /// LRU eviction of the entry itself.
    pub fn fetch_or_build(&self, key: &K, wait_budget: Option<Duration>) -> Fetch<'_, K, V> {
        self.fetch_or_build_watch(key, wait_budget, None)
    }

    /// [`EpochCache::fetch_or_build`] with a cancel probe: while the
    /// caller is blocked on another thread's build, the probe is polled
    /// (a few times per millisecond); the moment it returns `true` the
    /// call resolves as [`Fetch::Cancelled`] and the waiter slot
    /// frees. The planner's dispatcher passes a probe that checks
    /// whether the member it is working for dropped its ticket — so
    /// cancellation propagates *into* dedup wait chains instead of the
    /// dispatcher blocking on a build whose result nobody will read.
    pub fn fetch_or_build_watch(
        &self,
        key: &K,
        wait_budget: Option<Duration>,
        cancel: Option<&dyn Fn() -> bool>,
    ) -> Fetch<'_, K, V> {
        /// Poll granularity for the cancel probe while blocked.
        const CANCEL_POLL: Duration = Duration::from_millis(1);
        let wait_deadline = wait_budget.map(|b| Instant::now() + b);
        loop {
            if let Some(value) = self.peek_hit(key) {
                return Fetch::Hit(value);
            }
            // `Ok` = someone is already building (join them — the
            // waiter slot is claimed under the map lock, so the cap is
            // race-free); `Err` = this caller registered the key and is
            // the builder.
            let joined = {
                let mut fl = self.inflight.lock().unwrap();
                match fl.get(key) {
                    Some(slot) => {
                        if slot.waiters.load(Ordering::Relaxed) >= self.max_waiters as u64 {
                            self.dedup_shed.fetch_add(1, Ordering::Relaxed);
                            return Fetch::Overloaded;
                        }
                        slot.waiters.fetch_add(1, Ordering::Relaxed);
                        Ok(slot.clone())
                    }
                    None => {
                        let slot = Arc::new(InFlight::new());
                        fl.insert(key.clone(), slot.clone());
                        Err(slot)
                    }
                }
            };
            let slot = match joined {
                Err(slot) => {
                    let ticket = BuildTicket {
                        cache: self,
                        key: key.clone(),
                        slot,
                        resolved: false,
                    };
                    // Close the probe→register window: a winner that
                    // completed in between memoized *before* clearing
                    // its in-flight entry, so this re-probe is
                    // definitive — a successful concurrent build can
                    // never be repeated. (Dropping the fresh ticket
                    // releases the key; anyone who joined it in the
                    // meantime retries and takes the hit too.)
                    if let Some(value) = self.peek_hit(key) {
                        drop(ticket);
                        return Fetch::Hit(value);
                    }
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return Fetch::MustBuild(ticket);
                }
                Ok(slot) => slot,
            };
            let waiting = WaiterSlot(&slot);
            // Join the in-flight build. The winner may already have
            // resolved the slot — the state check under the slot lock
            // makes the wait race-free (no lost notification).
            let mut st = slot.state.lock().unwrap();
            loop {
                match &*st {
                    BuildState::Done(value) => {
                        self.dedup_waits.fetch_add(1, Ordering::Relaxed);
                        return Fetch::Waited(value.clone());
                    }
                    BuildState::Abandoned => break, // retry from the top
                    BuildState::Building => {}
                }
                if cancel.is_some_and(|c| c()) {
                    return Fetch::Cancelled;
                }
                // With a cancel probe the wait is sliced so the probe
                // keeps getting polled; a pure deadline wait blocks for
                // its whole remainder.
                let bound = match wait_deadline {
                    None => cancel.map(|_| CANCEL_POLL),
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return Fetch::WaitExpired;
                        }
                        let left = d - now;
                        Some(if cancel.is_some() {
                            left.min(CANCEL_POLL)
                        } else {
                            left
                        })
                    }
                };
                st = match bound {
                    None => slot.cv.wait(st).unwrap(),
                    Some(b) => slot.cv.wait_timeout(st, b).unwrap().0,
                };
            }
            drop(st);
            drop(waiting);
        }
    }

    /// Memoize `value` under `key`. Purges permanently-stale entries
    /// (same host, older epoch) and LRU-evicts past the capacity cap.
    /// Callers must only insert *complete* builds — a deadline-truncated
    /// filter is a function of the deadline, not the key.
    pub fn insert(&self, key: K, value: Arc<V>) {
        self.insert_locked(&mut self.state.lock(), key, value);
    }

    /// [`EpochCache::insert`] under a hold of the cache lock.
    fn insert_locked(&self, st: &mut CacheState<K, V>, key: K, value: Arc<V>) {
        st.map
            .retain(|k, _| k.host() != key.host() || k.epoch() >= key.epoch());
        st.tick += 1;
        let tick = st.tick;
        st.map.insert(
            key,
            Slot {
                value,
                last_used: tick,
            },
        );
        while st.map.len() > self.capacity {
            let oldest = st
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone())
                .expect("non-empty over-capacity map");
            st.map.remove(&oldest);
        }
    }

    /// Carry a superseded entry across an epoch bump to `key` (module
    /// docs, "Epoch repair"). The candidate is the *newest* memoized
    /// entry of `key`'s lineage with an older epoch; an already-memoized
    /// `key` short-circuits as [`Repaired::Present`] without deciding.
    /// `decide(old_epoch, value)` classifies the dirty window *outside*
    /// the cache lock — typically by consulting the registry's composed
    /// dirty set and, for a filter, cloning the matrix and running
    /// [`FilterMatrix::patch`](netembed::FilterMatrix::patch) against
    /// the new-epoch model. The return value says what happened; on
    /// anything but `Present`, `Promoted` or `Patched` the caller's
    /// fetch misses and builds.
    pub fn repair(
        &self,
        key: &K,
        decide: impl FnOnce(ModelEpoch, &V) -> PatchDecision<V>,
    ) -> Repaired {
        let candidate = {
            let st = self.state.lock();
            if st.map.contains_key(key) {
                return Repaired::Present;
            }
            st.map
                .iter()
                .filter(|(k, _)| k.same_lineage(key) && k.epoch() < key.epoch())
                .max_by_key(|(k, _)| k.epoch())
                .map(|(k, slot)| (k.clone(), slot.value.clone()))
        };
        let Some((old_key, value)) = candidate else {
            return Repaired::Nothing;
        };
        match decide(old_key.epoch(), &value) {
            PatchDecision::Skip => Repaired::Nothing,
            PatchDecision::Promote => self.carry(&old_key, key, None),
            PatchDecision::Replace(patched) => self.carry(&old_key, key, Some(patched)),
            PatchDecision::Rebuild => {
                self.patch_rebuilds.fetch_add(1, Ordering::Relaxed);
                Repaired::Rebuild
            }
        }
    }

    /// Carry `old_key`'s entry across to `key` under one hold of the
    /// cache lock (the promote and replace arms of
    /// [`EpochCache::repair`]): re-key the entry itself, or memoize its
    /// `patched` replacement — but only if nobody filled `key` while the
    /// decide hook ran and the candidate survived it. A candidate that
    /// was evicted, purged, or invalidated with its host
    /// ([`EpochCache::invalidate_host`], on model removal) carries
    /// nothing, so a repair can never resurrect a dead host's entry.
    fn carry(&self, old_key: &K, key: &K, patched: Option<Arc<V>>) -> Repaired {
        let mut st = self.state.lock();
        if st.map.contains_key(key) {
            // A concurrent builder landed the fresh epoch first; its
            // `insert` purged the candidate. The goal state holds.
            return Repaired::Present;
        }
        let Some(slot) = st.map.remove(old_key) else {
            return Repaired::Nothing;
        };
        match patched {
            Some(value) => {
                // The same-host staleness purge and the LRU cap, as in
                // `insert`, in this same lock hold.
                self.insert_locked(&mut st, key.clone(), value);
                self.patches.fetch_add(1, Ordering::Relaxed);
                Repaired::Patched
            }
            None => {
                st.tick += 1;
                let tick = st.tick;
                st.map.insert(
                    key.clone(),
                    Slot {
                        value: slot.value,
                        last_used: tick,
                    },
                );
                self.promotions.fetch_add(1, Ordering::Relaxed);
                Repaired::Promoted
            }
        }
    }

    /// Drop every entry for `host` (any epoch) — eager invalidation for
    /// callers that know a namespace is dead (e.g. a removed model).
    /// Epoch keying already guarantees stale entries are never *served*;
    /// this only reclaims their memory early.
    ///
    /// In-flight builds for the host are *poisoned* under the same hold
    /// of the in-flight lock that shields the memo purge, so a builder
    /// completing concurrently cannot re-insert a dead-host entry after
    /// the purge ([`BuildTicket::complete`] checks the poison flag under
    /// that lock before memoizing).
    pub fn invalidate_host(&self, host: &str) {
        let fl = self.inflight.lock().unwrap();
        for (k, slot) in fl.iter() {
            if k.host() == host {
                slot.poisoned.store(true, Ordering::Relaxed);
            }
        }
        self.state.lock().map.retain(|k, _| k.host() != host);
        drop(fl);
    }

    /// Entries currently memoized.
    pub fn len(&self) -> usize {
        self.state.lock().map.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime lookup misses. A concurrent miss that waited on the
    /// winner's in-flight build counts under
    /// [`EpochCache::dedup_waits`] instead — only designated builders
    /// count here.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lifetime count of lookups that blocked on another thread's
    /// in-flight build of the same key instead of building their own
    /// copy (each one is a build the dedup table saved).
    pub fn dedup_waits(&self) -> u64 {
        self.dedup_waits.load(Ordering::Relaxed)
    }

    /// Lifetime count of lookups shed because an in-flight build's
    /// waiter cap ([`EpochCache::with_max_waiters`]) was already
    /// reached.
    pub fn dedup_shed(&self) -> u64 {
        self.dedup_shed.load(Ordering::Relaxed)
    }

    /// Lifetime count of superseded entries re-keyed to a newer epoch
    /// across an empty dirty window by [`EpochCache::repair`] — each
    /// one is a full rebuild the dirty-set bookkeeping saved.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Lifetime count of superseded entries repaired in place by
    /// [`EpochCache::repair`]'s replace arm — each one turned a full
    /// O(|EQ|·|ER|) filter rebuild into a dirty-window re-scan.
    pub fn patches(&self) -> u64 {
        self.patches.load(Ordering::Relaxed)
    }

    /// Lifetime count of repairs that fell back to a full rebuild
    /// ([`PatchDecision::Rebuild`]): for filters, the soundness valve
    /// that keeps additive mutations from being served a stale matrix.
    pub fn patch_rebuilds(&self) -> u64 {
        self.patch_rebuilds.load(Ordering::Relaxed)
    }

    /// Keys currently being built (observability; racy by nature).
    pub fn in_flight(&self) -> usize {
        self.inflight.lock().unwrap().len()
    }
}

impl<K: EpochKey, V> Default for EpochCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: EpochKey, V> std::fmt::Debug for EpochCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("dedup_waits", &self.dedup_waits())
            .field("dedup_shed", &self.dedup_shed())
            .field("promotions", &self.promotions())
            .field("patches", &self.patches())
            .field("patch_rebuilds", &self.patch_rebuilds())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

/// Two independently-seeded hashers fed one byte stream: a single
/// network traversal yields both 64-bit halves of the fingerprint.
struct PairHasher {
    lo: DefaultHasher,
    hi: DefaultHasher,
}

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.lo.write(bytes);
        self.hi.write(bytes);
    }

    fn finish(&self) -> u64 {
        self.lo.finish()
    }
}

/// Allocation-free attribute digest: variant tag + raw payload bits
/// (`f64::to_bits` for numbers, so values hash by representation —
/// exactly what "same model bytes" means here).
fn hash_attr(h: &mut PairHasher, val: &netgraph::AttrValue) {
    match val {
        netgraph::AttrValue::Num(x) => {
            0u8.hash(h);
            x.to_bits().hash(h);
        }
        netgraph::AttrValue::Bool(b) => {
            1u8.hash(h);
            b.hash(h);
        }
        netgraph::AttrValue::Str(st) => {
            2u8.hash(h);
            st.as_ref().hash(h);
        }
    }
}

/// 128-bit structural fingerprint of a network: direction, nodes (ids,
/// names, attributes), edges (endpoints, attributes) and the attribute
/// schema, digested in **one traversal** into two independently-seeded
/// hashers. This runs on every `submit`/`prepare`, so it stays
/// allocation-light: no per-attribute formatting, one reused id sort
/// buffer. Two networks that produce different filter matrices for any
/// constraint differ in at least one digested component, so a collision
/// requires both 64-bit halves to collide at once — vanishing for
/// in-process cache lifetimes. Only meaningful within one process (the
/// underlying hasher is not stable across Rust versions); never
/// persist it.
pub fn network_fingerprint(net: &Network) -> u128 {
    let mut h = {
        let mut lo = DefaultHasher::new();
        let mut hi = DefaultHasher::new();
        0x5eed_0001u64.hash(&mut lo);
        0x5eed_0002u64.hash(&mut hi);
        PairHasher { lo, hi }
    };
    net.is_undirected().hash(&mut h);
    net.node_count().hash(&mut h);
    net.edge_count().hash(&mut h);
    // Attribute names in schema order (AttrIds are interned in schema
    // order, so per-element attr ids below are comparable once the
    // schema itself is part of the digest).
    for (id, name) in net.schema().iter() {
        id.0.hash(&mut h);
        name.hash(&mut h);
    }
    // Iteration order of an attr map is not canonical; sort ids per
    // element into one reused buffer, then hash id + value pairs.
    let mut ids: Vec<u16> = Vec::new();
    for v in net.node_ids() {
        v.0.hash(&mut h);
        net.node_name(v).hash(&mut h);
        ids.extend(net.node_attrs(v).map(|(id, _)| id.0));
        ids.sort_unstable();
        for id in ids.drain(..) {
            id.hash(&mut h);
            if let Some(val) = net.node_attr(v, netgraph::AttrId(id)) {
                hash_attr(&mut h, val);
            }
        }
    }
    for e in net.edge_refs() {
        (e.src.0, e.dst.0).hash(&mut h);
        ids.extend(net.edge_attrs(e.id).map(|(id, _)| id.0));
        ids.sort_unstable();
        for id in ids.drain(..) {
            id.hash(&mut h);
            if let Some(val) = net.edge_attr(e.id, netgraph::AttrId(id)) {
                hash_attr(&mut h, val);
            }
        }
    }
    let lo = h.lo.finish() as u128;
    let hi = h.hi.finish() as u128;
    (hi << 64) | lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use netembed::{Deadline, HierarchySpec, Problem, SearchStats};
    use netgraph::Direction;

    fn path_host(n: usize) -> Network {
        let mut g = Network::new(Direction::Undirected);
        let ids: Vec<_> = (0..n).map(|i| g.add_node(format!("n{i}"))).collect();
        for w in ids.windows(2) {
            let e = g.add_edge(w[0], w[1]);
            g.set_edge_attr(e, "d", 1.0);
        }
        g
    }

    fn build(host: &Network) -> Arc<FilterMatrix> {
        let mut q = Network::new(Direction::Undirected);
        let a = q.add_node("a");
        let b = q.add_node("b");
        q.add_edge(a, b);
        let p = Problem::new(&q, host, "true").unwrap();
        let mut dl = Deadline::unlimited();
        let mut stats = SearchStats::default();
        Arc::new(FilterMatrix::build(&p, &mut dl, &mut stats).unwrap())
    }

    fn key(host: &str, epoch: u64, constraint: &str) -> FilterKey {
        FilterKey {
            host: host.to_string(),
            epoch: ModelEpoch(epoch),
            query_hash: 7,
            constraint: constraint.to_string(),
        }
    }

    fn hkey(host: &str, epoch: u64) -> HierarchyKey {
        HierarchyKey {
            host: host.to_string(),
            epoch: ModelEpoch(epoch),
            spec: HierarchySpec::default(),
        }
    }

    /// Block until `n` threads wait on `ticket`'s in-flight build: the
    /// explicit synchronization that makes a two-thread test's next
    /// step (complete, shed probe, cancel) see the joiners registered,
    /// whatever the scheduler does.
    fn await_waiters<K: EpochKey, V>(ticket: &BuildTicket<'_, K, V>, n: u64) {
        while ticket.slot.waiters.load(Ordering::Relaxed) < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn lookup_hits_exact_key_only() {
        let cache = FilterCache::new();
        let host = path_host(4);
        let f = build(&host);
        cache.insert(key("h", 1, "true"), f.clone());
        assert!(cache.lookup(&key("h", 1, "true")).is_some());
        assert!(cache.lookup(&key("h", 2, "true")).is_none(), "other epoch");
        assert!(cache.lookup(&key("g", 1, "true")).is_none(), "other host");
        assert!(
            cache.lookup(&key("h", 1, "false")).is_none(),
            "other constraint"
        );
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn newer_epoch_purges_same_host_only() {
        let cache = FilterCache::new();
        let host = path_host(4);
        let f = build(&host);
        cache.insert(key("h", 1, "a"), f.clone());
        cache.insert(key("h", 1, "b"), f.clone());
        cache.insert(key("g", 1, "a"), f.clone());
        assert_eq!(cache.len(), 3);
        // Host h moved to epoch 5: both its epoch-1 entries are dead.
        cache.insert(key("h", 5, "a"), f.clone());
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&key("h", 1, "a")).is_none());
        assert!(cache.lookup(&key("h", 1, "b")).is_none());
        assert!(cache.lookup(&key("h", 5, "a")).is_some());
        assert!(cache.lookup(&key("g", 1, "a")).is_some(), "other host kept");
    }

    #[test]
    fn lru_eviction_beyond_capacity() {
        let cache = FilterCache::with_capacity(2);
        let host = path_host(4);
        let f = build(&host);
        cache.insert(key("a", 1, "x"), f.clone());
        cache.insert(key("b", 1, "x"), f.clone());
        // Touch `a` so `b` is the LRU entry.
        assert!(cache.lookup(&key("a", 1, "x")).is_some());
        cache.insert(key("c", 1, "x"), f.clone());
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&key("a", 1, "x")).is_some());
        assert!(cache.lookup(&key("b", 1, "x")).is_none(), "LRU evicted");
        assert!(cache.lookup(&key("c", 1, "x")).is_some());
    }

    #[test]
    fn invalidate_host_drops_all_epochs() {
        let cache = FilterCache::new();
        let host = path_host(4);
        let f = build(&host);
        cache.insert(key("h", 1, "a"), f.clone());
        cache.insert(key("h", 2, "b"), f.clone());
        cache.insert(key("g", 1, "a"), f);
        cache.invalidate_host("h");
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&key("g", 1, "a")).is_some());
    }

    #[test]
    fn concurrent_misses_build_once_and_share_the_arc() {
        // The two-thread contract: the first miss becomes the
        // designated builder (the only `miss`); the second blocks on the
        // in-flight table and receives the *same* `Arc`, counted as a
        // dedup wait, not a miss. Deterministic: the key is registered
        // in-flight before the second thread starts, and the build
        // completes only once that thread holds its waiter slot, so it
        // can only ever resolve as `Waited`.
        let cache = FilterCache::new();
        let host = path_host(4);
        let k = key("h", 1, "true");
        let Fetch::MustBuild(ticket) = cache.fetch_or_build(&k, None) else {
            panic!("empty cache must hand out a build ticket");
        };
        assert_eq!(cache.in_flight(), 1);
        let waited = std::thread::scope(|s| {
            let waiter = s.spawn(|| match cache.fetch_or_build(&k, None) {
                Fetch::Waited(f) => f,
                other => panic!(
                    "second miss must wait on the in-flight build, got {}",
                    match other {
                        Fetch::Hit(_) => "Hit",
                        Fetch::WaitExpired => "WaitExpired",
                        Fetch::MustBuild(_) => "MustBuild",
                        Fetch::Overloaded => "Overloaded",
                        Fetch::Cancelled => "Cancelled",
                        Fetch::Waited(_) => unreachable!(),
                    }
                ),
            });
            await_waiters(&ticket, 1);
            let built = build(&host);
            ticket.complete(built.clone());
            let waited = waiter.join().unwrap();
            assert!(Arc::ptr_eq(&built, &waited), "waiter got a different Arc");
            waited
        });
        assert_eq!(cache.misses(), 1, "only the designated builder misses");
        assert_eq!(cache.dedup_waits(), 1);
        assert_eq!(cache.in_flight(), 0, "completion clears the table");
        // The memo now serves the same Arc as a plain hit.
        let hit = cache.lookup(&k).expect("memoized");
        assert!(Arc::ptr_eq(&hit, &waited));
    }

    #[test]
    fn hierarchy_waiter_shares_the_builders_arc() {
        // Concurrent cold coarsenings build once: the second miss waits
        // on the first one's in-flight build and receives its `Arc`.
        let cache = HierarchyCache::new();
        let host = path_host(8);
        let k = hkey("h", 1);
        let Fetch::MustBuild(ticket) = cache.fetch_or_build(&k, None) else {
            panic!("empty cache must hand out a build ticket");
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| match cache.fetch_or_build(&k, None) {
                Fetch::Waited(h) => h,
                _ => panic!("second miss must wait on the in-flight coarsening"),
            });
            await_waiters(&ticket, 1);
            let built = Arc::new(SubstrateHierarchy::build(&host, &k.spec));
            ticket.complete(built.clone());
            let waited = waiter.join().unwrap();
            assert!(Arc::ptr_eq(&built, &waited), "waiter got a different Arc");
        });
        assert_eq!(cache.misses(), 1, "one coarsening for both misses");
        assert_eq!(cache.dedup_waits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn abandoned_build_hands_the_key_to_a_waiter() {
        let cache = FilterCache::new();
        let host = path_host(4);
        let k = key("h", 1, "true");
        let Fetch::MustBuild(ticket) = cache.fetch_or_build(&k, None) else {
            panic!("first fetch must build");
        };
        std::thread::scope(|s| {
            let waiter = s.spawn(|| match cache.fetch_or_build(&k, None) {
                // The abandoned slot makes the waiter retry; with the
                // key free again it becomes the new designated builder.
                Fetch::MustBuild(t) => t.complete(build(&host)),
                _ => panic!("waiter must take over after an abandon"),
            });
            await_waiters(&ticket, 1);
            // Simulates a deadline-truncated or failed build.
            ticket.abandon();
            waiter.join().unwrap();
        });
        assert_eq!(cache.misses(), 2, "both fetches ended up building");
        assert_eq!(cache.dedup_waits(), 0);
        assert!(cache.lookup(&k).is_some(), "the takeover build memoized");
    }

    #[test]
    fn dropping_a_ticket_abandons_the_build() {
        // A builder that unwinds (panic, `?`-propagated error) must not
        // leave waiters stuck: Drop abandons.
        let cache = FilterCache::new();
        let k = key("h", 1, "true");
        let Fetch::MustBuild(ticket) = cache.fetch_or_build(&k, None) else {
            panic!("first fetch must build");
        };
        assert_eq!(cache.in_flight(), 1);
        drop(ticket);
        assert_eq!(cache.in_flight(), 0);
        assert!(
            matches!(cache.fetch_or_build(&k, None), Fetch::MustBuild(_)),
            "the key must be buildable again"
        );
    }

    #[test]
    fn wait_budget_bounds_the_block() {
        let cache = FilterCache::new();
        let k = key("h", 1, "true");
        let Fetch::MustBuild(_ticket) = cache.fetch_or_build(&k, None) else {
            panic!("first fetch must build");
        };
        // The builder never completes within the waiter's budget: the
        // waiter gets its deadline back instead of blocking forever.
        let start = Instant::now();
        assert!(matches!(
            cache.fetch_or_build(&k, Some(Duration::from_millis(20))),
            Fetch::WaitExpired
        ));
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(cache.dedup_waits(), 0, "an expired wait saved nothing");
    }

    #[test]
    fn waiter_cap_sheds_the_excess_joiner() {
        use std::sync::atomic::AtomicUsize;
        // Cap of 1: the first joiner blocks, the second is shed with
        // `Overloaded` instead of convoying. Deterministic setup: the
        // builder registers first, then one joiner claims the only
        // waiter slot before the shed probe runs.
        let cache = FilterCache::new().with_max_waiters(1);
        let host = path_host(4);
        let k = key("h", 1, "true");
        let Fetch::MustBuild(ticket) = cache.fetch_or_build(&k, None) else {
            panic!("empty cache must hand out a build ticket");
        };
        let outcomes = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| match cache.fetch_or_build(&k, None) {
                Fetch::Waited(_) => outcomes.fetch_add(1, Ordering::Relaxed),
                _ => panic!("first joiner fits under the cap"),
            });
            await_waiters(&ticket, 1);
            assert!(
                matches!(cache.fetch_or_build(&k, None), Fetch::Overloaded),
                "second joiner must be shed at the waiter cap"
            );
            ticket.complete(build(&host));
            waiter.join().unwrap();
        });
        assert_eq!(cache.dedup_shed(), 1);
        assert_eq!(cache.dedup_waits(), 1);
        // The shed thread freed no slot it never held; a fresh fetch
        // after completion is a plain hit.
        assert!(matches!(cache.fetch_or_build(&k, None), Fetch::Hit(_)));
    }

    #[test]
    fn cancel_probe_aborts_a_dedup_wait() {
        let cache = FilterCache::new();
        let k = key("h", 1, "true");
        let Fetch::MustBuild(ticket) = cache.fetch_or_build(&k, None) else {
            panic!("first fetch must build");
        };
        let cancelled = AtomicBool::new(false);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let probe = || cancelled.load(Ordering::Relaxed);
                match cache.fetch_or_build_watch(&k, None, Some(&probe)) {
                    Fetch::Cancelled => {}
                    _ => panic!("the probe must abort the wait"),
                }
            });
            // Fire the probe once the waiter is blocked; the builder
            // never completes, so only cancellation can release it.
            await_waiters(&ticket, 1);
            cancelled.store(true, Ordering::Relaxed);
            waiter.join().unwrap();
        });
        // The cancelled waiter released its slot: a later joiner under
        // a cap of 1 still fits.
        assert_eq!(ticket.slot.waiters.load(Ordering::Relaxed), 0);
        drop(ticket);
        assert_eq!(cache.dedup_waits(), 0, "a cancelled wait saved nothing");
    }

    #[test]
    fn invalidate_host_poisons_in_flight_builds() {
        // A builder registered before `invalidate_host` (model removal)
        // must not resurrect an entry for the dead host when it
        // completes afterwards.
        let cache = FilterCache::new();
        let host = path_host(4);
        let k = key("h", 1, "true");
        let Fetch::MustBuild(ticket) = cache.fetch_or_build(&k, None) else {
            panic!("empty cache must hand out a build ticket");
        };
        cache.invalidate_host("h");
        // Waiters of a poisoned build still get the filter — the answer
        // is correct for the epoch they asked about.
        std::thread::scope(|s| {
            let waiter = s.spawn(|| match cache.fetch_or_build(&k, None) {
                Fetch::Waited(f) => f,
                _ => panic!("joiner must share the in-flight build"),
            });
            await_waiters(&ticket, 1);
            ticket.complete(build(&host));
            waiter.join().unwrap();
        });
        assert_eq!(cache.len(), 0, "poisoned completion must not memoize");
        let misses = cache.misses();
        assert!(cache.lookup(&k).is_none(), "dead-host entry resurrected");
        assert_eq!(cache.misses(), misses + 1);
    }

    #[test]
    fn invalidate_host_leaves_other_hosts_in_flight() {
        let cache = FilterCache::new();
        let host = path_host(4);
        let k = key("g", 1, "true");
        let Fetch::MustBuild(ticket) = cache.fetch_or_build(&k, None) else {
            panic!("empty cache must hand out a build ticket");
        };
        cache.invalidate_host("h");
        ticket.complete(build(&host));
        assert!(cache.lookup(&k).is_some(), "other host must memoize");
    }

    #[test]
    fn try_patch_replaces_with_the_repaired_clone() {
        let cache = FilterCache::new();
        let host = path_host(4);
        let f = build(&host);
        cache.insert(key("h", 1, "a"), f.clone());
        let repaired = build(&host);
        let mut seen = None;
        let did = cache.repair(&key("h", 3, "a"), |old, _| {
            seen = Some(old);
            PatchDecision::Replace(repaired.clone())
        });
        assert_eq!(did, Repaired::Patched);
        assert_eq!(seen, Some(ModelEpoch(1)));
        assert_eq!(cache.patches(), 1);
        assert_eq!(cache.promotions(), 0);
        assert_eq!(cache.len(), 1, "insert purged the superseded entry");
        let got = cache.lookup(&key("h", 3, "a")).expect("patched entry");
        assert!(Arc::ptr_eq(&got, &repaired));
        assert!(cache.lookup(&key("h", 1, "a")).is_none());
    }

    #[test]
    fn replace_decided_while_the_host_is_invalidated_memoizes_nothing() {
        // A model removal that lands while the decide hook patches must
        // not let the patched clone resurrect an entry for the dead host.
        let cache = FilterCache::new();
        let host = path_host(4);
        cache.insert(key("h", 1, "a"), build(&host));
        let did = cache.repair(&key("h", 3, "a"), |_, _| {
            cache.invalidate_host("h");
            PatchDecision::Replace(build(&host))
        });
        assert_eq!(did, Repaired::Nothing);
        assert_eq!(cache.patches(), 0, "nothing was memoized");
        assert_eq!(cache.len(), 0, "the dead host's entry was resurrected");
    }

    #[test]
    fn try_patch_promote_arm_rekeys_in_place() {
        let cache = FilterCache::new();
        let host = path_host(4);
        let f = build(&host);
        cache.insert(key("h", 1, "a"), f.clone());
        cache.insert(key("h", 1, "b"), f.clone());
        let mut seen = None;
        let did = cache.repair(&key("h", 3, "a"), |old, _| {
            seen = Some(old);
            PatchDecision::Promote
        });
        assert_eq!(did, Repaired::Promoted);
        assert_eq!(seen, Some(ModelEpoch(1)));
        assert_eq!(cache.promotions(), 1);
        assert_eq!(cache.patches(), 0);
        let misses_before = cache.misses();
        let got = cache.lookup(&key("h", 3, "a")).expect("promoted entry");
        assert!(Arc::ptr_eq(&got, &f), "promotion re-keys the same Arc");
        assert_eq!(cache.misses(), misses_before, "promotion → hit, no miss");
        assert!(
            cache.lookup(&key("h", 1, "a")).is_none(),
            "old key re-keyed"
        );
        assert!(
            cache.lookup(&key("h", 1, "b")).is_some(),
            "sibling constraints stay resident as future candidates"
        );
        // Promotions chain, and the newest superseded epoch wins: an
        // older entry of the same lineage beside the epoch-3 slot is
        // passed over.
        cache.insert(key("h", 2, "a"), build(&host));
        let did = cache.repair(&key("h", 5, "a"), |old, _| {
            assert_eq!(old, ModelEpoch(3), "newest superseded epoch wins");
            PatchDecision::Promote
        });
        assert_eq!(did, Repaired::Promoted);
        assert_eq!(cache.promotions(), 2);
        let got = cache.lookup(&key("h", 5, "a")).expect("chained promotion");
        assert!(Arc::ptr_eq(&got, &f));
    }

    #[test]
    fn try_patch_rebuild_and_skip_fall_through() {
        let cache = FilterCache::new();
        let host = path_host(4);
        let f = build(&host);
        cache.insert(key("h", 1, "a"), f.clone());
        let did = cache.repair(&key("h", 3, "a"), |_, _| PatchDecision::Rebuild);
        assert_eq!(did, Repaired::Rebuild);
        assert_eq!(cache.patch_rebuilds(), 1);
        // A refusing verdict (unclassifiable window) promotes nothing.
        let did = cache.repair(&key("h", 3, "a"), |_, _| PatchDecision::Skip);
        assert_eq!(did, Repaired::Nothing);
        assert_eq!(cache.patch_rebuilds(), 1, "skip moves no counter");
        assert!(
            cache.lookup(&key("h", 1, "a")).is_some(),
            "fall-through leaves the candidate resident"
        );
        // No candidate of the key's lineage: decide never runs.
        let mut other_query = key("h", 3, "a");
        other_query.query_hash += 1;
        for (other, why) in [
            (
                key("h", 3, "b"),
                "a different constraint is a different filter",
            ),
            (other_query, "a different query is a different filter"),
            (
                key("g", 3, "a"),
                "a different host is a different namespace",
            ),
            (key("h", 0, "a"), "an older target epoch has no candidate"),
        ] {
            let did = cache.repair(&other, |_, _| panic!("decide ran: {why}"));
            assert_eq!(did, Repaired::Nothing, "{why}");
        }
        // An already-memoized key short-circuits without deciding.
        cache.insert(key("h", 3, "a"), f);
        let did = cache.repair(&key("h", 3, "a"), |_, _| {
            panic!("decide must not run when the key is already present")
        });
        assert_eq!(did, Repaired::Present);
        assert_eq!(cache.promotions(), 0, "nothing was re-keyed");
        assert_eq!(cache.patches(), 0);
    }

    #[test]
    fn hierarchy_promotion_rekeys_the_superseded_entry() {
        let cache = HierarchyCache::new();
        let host = path_host(8);
        let h = Arc::new(SubstrateHierarchy::build(&host, &HierarchySpec::default()));
        cache.insert(hkey("h", 1), h.clone());
        let mut seen = None;
        let did = cache.repair(&hkey("h", 3), |old, _| {
            seen = Some(old);
            PatchDecision::Promote
        });
        assert_eq!(did, Repaired::Promoted);
        assert_eq!(seen, Some(ModelEpoch(1)));
        assert_eq!(cache.promotions(), 1);
        let got = cache.lookup(&hkey("h", 3)).expect("promoted");
        assert!(Arc::ptr_eq(&got, &h));
        assert!(cache.lookup(&hkey("h", 1)).is_none(), "old key re-keyed");
        // A dirty window rebuilds, an unclassifiable one skips, and
        // identity mismatches have no candidate at all.
        let did = cache.repair(&hkey("h", 5), |_, _| PatchDecision::Rebuild);
        assert_eq!(did, Repaired::Rebuild);
        let did = cache.repair(&hkey("h", 5), |_, _| PatchDecision::Skip);
        assert_eq!(did, Repaired::Nothing);
        let mut wider = hkey("h", 5);
        wider.spec.min_nodes += 1;
        for (other, why) in [(hkey("g", 5), "other host"), (wider, "other spec")] {
            let did = cache.repair(&other, |_, _| panic!("decide ran: {why}"));
            assert_eq!(did, Repaired::Nothing, "{why}, other key");
        }
        assert_eq!(cache.promotions(), 1);
        // Already-memoized target short-circuits without a verdict.
        let did = cache.repair(&hkey("h", 3), |_, _| {
            panic!("verdict must not run when the key is already present")
        });
        assert_eq!(did, Repaired::Present);
    }

    #[test]
    fn fingerprint_separates_structure_names_and_attrs() {
        let base = path_host(4);
        assert_eq!(network_fingerprint(&base), network_fingerprint(&base));
        assert_eq!(
            network_fingerprint(&base),
            network_fingerprint(&base.clone())
        );

        let mut extra_node = base.clone();
        extra_node.add_node("x");
        assert_ne!(network_fingerprint(&base), network_fingerprint(&extra_node));

        let mut attr_changed = base.clone();
        attr_changed.set_edge_attr(netgraph::EdgeId(0), "d", 2.0);
        assert_ne!(
            network_fingerprint(&base),
            network_fingerprint(&attr_changed)
        );

        let mut renamed = path_host(3);
        let other = path_host(3);
        renamed.set_node_attr(netgraph::NodeId(0), "cap", 1.0);
        assert_ne!(network_fingerprint(&renamed), network_fingerprint(&other));
    }
}
