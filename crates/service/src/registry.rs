//! The network-model store (§III component 1), epoch-versioned.
//!
//! The service keeps "an up-to-date copy of the model" per hosting
//! network; a monitoring pipeline (or the [`crate::monitor`] simulator)
//! replaces models as measurements arrive. Readers get an `Arc` snapshot
//! paired with a [`ModelEpoch`], so in-flight queries are never affected
//! by a concurrent update — exactly the semantics a replicated NETEMBED
//! deployment needs — and downstream caches (the
//! [`FilterCache`](crate::cache::FilterCache) behind
//! [`PreparedQuery`](crate::PreparedQuery)) can key derived state by the
//! epoch instead of hashing whole networks.
//!
//! ## Epoch semantics
//!
//! Every mutation — [`ModelRegistry::register`],
//! [`ModelRegistry::update`] (the reservation system's commit hook), a
//! remove-and-re-register — stamps the affected entry with a fresh epoch
//! drawn from one registry-wide monotonic counter. Consequences callers
//! rely on:
//!
//! * epochs are **unique across the whole registry**, so an epoch value
//!   identifies one specific version of one specific host model;
//! * a host's epoch **never repeats** (even across remove/re-register),
//!   so anything memoized under an old epoch is permanently stale, never
//!   wrongly resurrected;
//! * mutating host `A` leaves host `B`'s epoch untouched, so epoch-keyed
//!   caches are invalidated *exactly* for the affected host.
//!
//! ## Dirty-node history
//!
//! Feed-driven mutations ([`ModelRegistry::update_dirty`], used by
//! [`crate::feed::RegistryFeed`]) additionally record *which host nodes*
//! each epoch transition touched. [`ModelRegistry::dirty_between`]
//! composes those per-transition [`DirtySet`]s into the union of
//! everything dirtied between two epochs — the contract the epoch
//! caches' repair path
//! ([`EpochCache::repair`](crate::cache::EpochCache::repair): promote a
//! cached filter or coarsening, or patch a filter in place) builds on.
//! Untracked mutations ([`ModelRegistry::update`],
//! [`ModelRegistry::register`]) deliberately *break* the transition
//! chain: `dirty_between` across them returns `None`, which downstream
//! consumers must treat as "anything may have changed" (full rebuild).

use netgraph::Network;
use parking_lot::RwLock;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonic version stamp of one registered model. See the module docs
/// for the uniqueness guarantees. The raw value is public so other
/// epoch-keyed caches (e.g. the scheduler's residual-model cache) can
/// mint values in their own namespaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelEpoch(pub u64);

/// The set of host-node ids one (or a composition of) registry
/// mutation(s) touched: mutated nodes plus both endpoints of every
/// mutated edge. Kept as a sorted id set rather than a bitset so it is
/// independent of any particular host's node capacity (a delta may add
/// nodes the current model does not have yet).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirtySet {
    ids: BTreeSet<u32>,
}

impl DirtySet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from raw node indices.
    pub fn from_ids(ids: impl IntoIterator<Item = u32>) -> Self {
        DirtySet {
            ids: ids.into_iter().collect(),
        }
    }

    /// Mark one node dirty.
    pub fn insert(&mut self, id: u32) {
        self.ids.insert(id);
    }

    /// Membership test.
    pub fn contains(&self, id: u32) -> bool {
        self.ids.contains(&id)
    }

    /// Number of dirty nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing is dirty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// In-place union with `other`.
    pub fn union_with(&mut self, other: &DirtySet) {
        self.ids.extend(other.ids.iter().copied());
    }

    /// Dirty node ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.ids.iter().copied()
    }
}

/// Epoch transitions (with their dirty sets) retained per host. Bounds
/// the memory of a long-lived feed; `dirty_between` over a window older
/// than the retained history returns `None` (full rebuild), which is
/// always safe.
const DIRTY_HISTORY_CAP: usize = 64;

/// One recorded transition: applying a tracked mutation moved the host
/// from epoch `from` to epoch `to`, dirtying `dirty`.
struct Transition {
    from: ModelEpoch,
    to: ModelEpoch,
    dirty: DirtySet,
}

struct Entry {
    model: Arc<Network>,
    epoch: ModelEpoch,
    /// Tracked transitions in application order (`from` strictly
    /// increasing). Cleared on wholesale replacement
    /// ([`ModelRegistry::register`]): a snapshot swap has no per-node
    /// delta, so the chain must break there.
    history: VecDeque<Transition>,
}

/// Thread-safe named store of hosting-network models.
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Entry>>,
    /// Last epoch handed out. Always minted while holding the write
    /// lock, so per-entry epochs are strictly increasing in swap-in
    /// order (the atomic just avoids a second lock around the counter).
    last_epoch: AtomicU64,
}

impl ModelRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        ModelRegistry {
            models: RwLock::new(HashMap::new()),
            last_epoch: AtomicU64::new(0),
        }
    }

    fn next_epoch(&self) -> ModelEpoch {
        ModelEpoch(self.last_epoch.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Register or replace the model for `name`; returns the entry's new
    /// epoch. The epoch is minted *inside* the write lock (as in
    /// [`ModelRegistry::update`]) so a racing mutation of the same name
    /// can never make its visible epoch move backwards.
    pub fn register(&self, name: &str, model: Network) -> ModelEpoch {
        let mut guard = self.models.write();
        let epoch = self.next_epoch();
        guard.insert(
            name.to_string(),
            Entry {
                model: Arc::new(model),
                epoch,
                history: VecDeque::new(),
            },
        );
        epoch
    }

    /// Snapshot of the model for `name` plus its current epoch. The
    /// snapshot stays internally consistent under concurrent updates;
    /// the epoch tells the caller *which* version it got (and is the
    /// cache key for anything derived from it).
    pub fn get(&self, name: &str) -> Option<(Arc<Network>, ModelEpoch)> {
        self.models
            .read()
            .get(name)
            .map(|e| (e.model.clone(), e.epoch))
    }

    /// Snapshot of the model for `name` (epoch-less convenience for
    /// callers that don't cache).
    pub fn model(&self, name: &str) -> Option<Arc<Network>> {
        self.models.read().get(name).map(|e| e.model.clone())
    }

    /// Current epoch of `name` without touching the model — the cheap
    /// staleness probe for epoch-keyed caches.
    pub fn epoch(&self, name: &str) -> Option<ModelEpoch> {
        self.models.read().get(name).map(|e| e.epoch)
    }

    /// Remove a model; returns it if present. The host's dirty history
    /// goes with it — a later re-register starts a fresh chain. Note
    /// that epoch-keyed [`FilterCache`](crate::cache::FilterCache)
    /// entries for the host are *not* reachable from here; callers that
    /// own both sides should go through
    /// [`NetEmbedService::remove_model`](crate::NetEmbedService::remove_model),
    /// which pairs the removal with an explicit same-host cache
    /// invalidation.
    pub fn remove(&self, name: &str) -> Option<Arc<Network>> {
        self.models.write().remove(name).map(|e| e.model)
    }

    /// Apply `update` to a copy of the current model and atomically swap
    /// the result in under a fresh epoch, which is returned. `None` when
    /// `name` is unknown. This is the reservation system's hook (§III
    /// component 3): allocate → adjust → epoch bump (which invalidates
    /// exactly this host's cached filters). Untracked: the transition
    /// carries no dirty set, so [`ModelRegistry::dirty_between`] across
    /// it reports `None`.
    pub fn update(&self, name: &str, update: impl FnOnce(&mut Network)) -> Option<ModelEpoch> {
        let mut guard = self.models.write();
        let entry = guard.get(name)?;
        let mut copy = (*entry.model).clone();
        update(&mut copy);
        let epoch = self.next_epoch();
        let entry = guard.get_mut(name).expect("entry probed above");
        entry.model = Arc::new(copy);
        entry.epoch = epoch;
        Some(epoch)
    }

    /// [`ModelRegistry::update`] with a recorded [`DirtySet`]: applies
    /// the mutation under a fresh epoch *and* appends the `(old epoch →
    /// new epoch, dirty)` transition to the host's bounded history, so
    /// [`ModelRegistry::dirty_between`] can later answer "what changed
    /// between these two epochs". Returns the `(from, to)` epoch pair.
    ///
    /// The caller asserts that `dirty` covers every node the mutation
    /// touches (mutated nodes plus both endpoints of mutated edges);
    /// the feed validates that claim per delta before applying.
    pub fn update_dirty(
        &self,
        name: &str,
        dirty: DirtySet,
        update: impl FnOnce(&mut Network),
    ) -> Option<(ModelEpoch, ModelEpoch)> {
        let mut guard = self.models.write();
        let entry = guard.get(name)?;
        let from = entry.epoch;
        let mut copy = (*entry.model).clone();
        update(&mut copy);
        let to = self.next_epoch();
        let entry = guard.get_mut(name).expect("entry probed above");
        entry.model = Arc::new(copy);
        entry.epoch = to;
        entry.history.push_back(Transition { from, to, dirty });
        if entry.history.len() > DIRTY_HISTORY_CAP {
            entry.history.pop_front();
        }
        Some((from, to))
    }

    /// The union of every node dirtied between epochs `e1` and `e2` of
    /// host `name`, or `None` when the answer is unknowable: the host is
    /// unregistered, the window predates the retained history, or the
    /// transition chain from `e1` to `e2` is broken by an untracked
    /// mutation ([`ModelRegistry::update`]) or a wholesale swap
    /// ([`ModelRegistry::register`]). `Some(empty)` for `e1 == e2`.
    /// `None` must be read as "anything may have changed".
    pub fn dirty_between(&self, name: &str, e1: ModelEpoch, e2: ModelEpoch) -> Option<DirtySet> {
        if e1 > e2 {
            return None;
        }
        let guard = self.models.read();
        let entry = guard.get(name)?;
        let mut acc = DirtySet::new();
        if e1 == e2 {
            return Some(acc);
        }
        // History is append-ordered with strictly increasing epochs, so
        // one forward walk either chains e1 → e2 exactly or proves a
        // break (missing link = untracked transition in the window).
        let mut cursor = e1;
        for t in &entry.history {
            if t.from < cursor {
                continue;
            }
            if t.from > cursor {
                return None; // chain broken inside the window
            }
            acc.union_with(&t.dirty);
            cursor = t.to;
            if cursor == e2 {
                return Some(acc);
            }
            if cursor > e2 {
                return None;
            }
        }
        None // ran out of history before reaching e2
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.models.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.read().len()
    }

    /// True when no models are registered.
    pub fn is_empty(&self) -> bool {
        self.models.read().is_empty()
    }
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netgraph::{Direction, NodeId};

    fn net(n: usize) -> Network {
        let mut g = Network::new(Direction::Undirected);
        for i in 0..n {
            g.add_node(format!("n{i}"));
        }
        g
    }

    #[test]
    fn register_get_remove() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        reg.register("a", net(3));
        reg.register("b", net(5));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.model("a").unwrap().node_count(), 3);
        assert_eq!(reg.names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(reg.remove("a").unwrap().node_count(), 3);
        assert!(reg.get("a").is_none());
        assert!(reg.epoch("a").is_none());
    }

    #[test]
    fn snapshots_survive_updates() {
        let reg = ModelRegistry::new();
        reg.register("m", net(2));
        let (snapshot, epoch) = reg.get("m").unwrap();
        reg.register("m", net(9));
        // Old snapshot is unaffected; new readers see the update under a
        // newer epoch.
        assert_eq!(snapshot.node_count(), 2);
        let (fresh, fresh_epoch) = reg.get("m").unwrap();
        assert_eq!(fresh.node_count(), 9);
        assert!(fresh_epoch > epoch);
    }

    #[test]
    fn update_in_place_bumps_epoch() {
        let reg = ModelRegistry::new();
        let first = reg.register("m", net(2));
        let updated = reg
            .update("m", |n| {
                n.add_node("extra");
            })
            .unwrap();
        assert!(updated > first);
        assert_eq!(reg.model("m").unwrap().node_count(), 3);
        assert_eq!(reg.epoch("m"), Some(updated));
        assert!(reg.update("missing", |_| {}).is_none());
    }

    #[test]
    fn epochs_are_per_host_and_never_reused() {
        let reg = ModelRegistry::new();
        let a1 = reg.register("a", net(1));
        let b1 = reg.register("b", net(1));
        // Mutating `a` leaves `b`'s epoch untouched.
        let a2 = reg.update("a", |_| {}).unwrap();
        assert_eq!(reg.epoch("b"), Some(b1));
        assert!(a2 > a1);
        // Remove + re-register never resurrects an old epoch.
        reg.remove("a");
        let a3 = reg.register("a", net(1));
        assert!(a3 > a2, "re-registered epoch must be fresh");
        // All epochs seen so far are distinct.
        let mut seen = [a1, b1, a2, a3];
        seen.sort();
        for w in seen.windows(2) {
            assert!(w[0] < w[1], "duplicate epoch");
        }
    }

    #[test]
    fn dirty_between_composes_tracked_transitions() {
        let reg = ModelRegistry::new();
        let e0 = reg.register("m", net(6));
        let (f1, t1) = reg
            .update_dirty("m", DirtySet::from_ids([0, 1]), |n| {
                n.set_node_attr(NodeId(0), "cpu", 4.0);
            })
            .unwrap();
        assert_eq!(f1, e0);
        let (_, t2) = reg
            .update_dirty("m", DirtySet::from_ids([3]), |n| {
                n.set_node_attr(NodeId(3), "cpu", 2.0);
            })
            .unwrap();
        // Identity window, single hop, composed window.
        assert_eq!(reg.dirty_between("m", t2, t2), Some(DirtySet::new()));
        assert_eq!(
            reg.dirty_between("m", e0, t1),
            Some(DirtySet::from_ids([0, 1]))
        );
        assert_eq!(
            reg.dirty_between("m", e0, t2),
            Some(DirtySet::from_ids([0, 1, 3]))
        );
        assert_eq!(
            reg.dirty_between("m", t1, t2),
            Some(DirtySet::from_ids([3]))
        );
        // Reversed and unknown windows are unanswerable.
        assert_eq!(reg.dirty_between("m", t2, e0), None);
        assert_eq!(reg.dirty_between("missing", e0, t2), None);
    }

    #[test]
    fn untracked_mutations_break_the_dirty_chain() {
        let reg = ModelRegistry::new();
        let e0 = reg.register("m", net(4));
        let (_, t1) = reg
            .update_dirty("m", DirtySet::from_ids([1]), |_| {})
            .unwrap();
        // An untracked update bumps the epoch with no dirty record …
        let u = reg.update("m", |_| {}).unwrap();
        // … so any window crossing it is unanswerable, while windows
        // ending before it still compose.
        assert_eq!(reg.dirty_between("m", e0, u), None);
        assert_eq!(reg.dirty_between("m", t1, u), None);
        assert_eq!(
            reg.dirty_between("m", e0, t1),
            Some(DirtySet::from_ids([1]))
        );
        // A wholesale re-register clears the history entirely.
        let (_, t2) = reg
            .update_dirty("m", DirtySet::from_ids([2]), |_| {})
            .unwrap();
        assert_eq!(reg.dirty_between("m", u, t2), Some(DirtySet::from_ids([2])));
        let r = reg.register("m", net(4));
        assert_eq!(reg.dirty_between("m", u, t2), None);
        assert_eq!(reg.dirty_between("m", t2, r), None);
    }

    #[test]
    fn dirty_history_is_bounded() {
        let reg = ModelRegistry::new();
        let e0 = reg.register("m", net(2));
        let mut last = e0;
        let mut froms = Vec::new();
        for i in 0..(DIRTY_HISTORY_CAP as u32 + 8) {
            let (from, to) = reg
                .update_dirty("m", DirtySet::from_ids([i % 2]), |_| {})
                .unwrap();
            froms.push(from);
            last = to;
        }
        // The oldest transitions fell off: a window starting at the
        // seed epoch is no longer answerable …
        assert_eq!(reg.dirty_between("m", e0, last), None);
        // … and neither is one starting just before the retained
        // suffix …
        let oldest_retained = froms[froms.len() - DIRTY_HISTORY_CAP];
        assert_eq!(
            reg.dirty_between("m", froms[froms.len() - DIRTY_HISTORY_CAP - 1], last),
            None
        );
        // … but the retained suffix itself still composes.
        assert_eq!(
            reg.dirty_between("m", oldest_retained, last),
            Some(DirtySet::from_ids([0, 1]))
        );
    }

    #[test]
    fn dirty_set_algebra() {
        let mut d = DirtySet::from_ids([5, 1]);
        d.insert(9);
        assert!(d.contains(1) && d.contains(5) && d.contains(9));
        assert!(!d.contains(2));
        assert_eq!(d.len(), 3);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 5, 9]);
        d.union_with(&DirtySet::from_ids([5, 7]));
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 5, 7, 9]);
        assert!(DirtySet::new().is_empty());
    }

    #[test]
    fn concurrent_readers_and_writers() {
        use std::thread;
        let reg = std::sync::Arc::new(ModelRegistry::new());
        reg.register("m", net(1));
        let mut handles = Vec::new();
        for t in 0..4 {
            let reg = reg.clone();
            handles.push(thread::spawn(move || {
                for i in 0..50 {
                    if t % 2 == 0 {
                        reg.register("m", net((i % 7) + 1));
                    } else {
                        let (snap, _) = reg.get("m").unwrap();
                        assert!(snap.node_count() >= 1);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 100 writes happened; the final epoch reflects every one of them.
        assert!(reg.epoch("m").unwrap() >= ModelEpoch(101));
    }

    #[test]
    fn epochs_strictly_increase_under_concurrent_updates() {
        use std::thread;
        let reg = std::sync::Arc::new(ModelRegistry::new());
        reg.register("m", net(1));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let reg = reg.clone();
            handles.push(thread::spawn(move || {
                let mut epochs = Vec::new();
                for _ in 0..25 {
                    epochs.push(reg.update("m", |_| {}).unwrap());
                }
                epochs
            }));
        }
        let mut all: Vec<ModelEpoch> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "concurrent updates produced duplicate epochs");
    }
}
