//! Work-stealing parallel ECF: dynamic subtree scheduling over threads.
//!
//! The paper notes (§III, §VIII) that the NETEMBED service can be
//! replicated and ultimately distributed. Within one machine, a static
//! partition of the permutation tree's *root level* would leave every
//! other worker idle the moment one hub node's subtree dominates the
//! instance, so this module schedules subtrees with a work-stealing
//! scheduler built from four pieces:
//!
//! * **Subtree tasks.** A `SubtreeTask` is `(prefix, candidates)`: a
//!   partial assignment for the first `prefix.len()` order positions
//!   plus the untried candidate range at the next depth. The whole
//!   search is the task `([], roots)`; every task denotes a disjoint
//!   region of the permutation tree, so the union of all executed tasks
//!   is exactly the sequential traversal.
//! * **Queues.** Each worker owns a deque (`crossbeam::deque::Worker`)
//!   seeded with a strided slice of the root candidates; a shared
//!   `Injector` receives dynamically split tasks. An idle worker takes
//!   from the injector first (split tasks are published precisely
//!   because someone was idle), then from sibling deques.
//! * **A persistent pool.** Workers run on the
//!   [`WorkerPool`](crate::pool::WorkerPool) owned by the caller's
//!   [`ParallelScratch`] — threads park between calls rather than being
//!   re-spawned per search, so warm repeated searches are spawn-free
//!   (`stats.pool_reuse` counts the warm threads a run found; worker
//!   `w` always lands on pool thread `w`, keeping its scratch
//!   thread-local-warm too).
//! * **Depth-bounded splitting.** While a worker descends, the DFS
//!   offers the *untried tail* of the current frame to the scheduler at
//!   every candidate take (see `ecf::TaskSplitter`). The offer is
//!   accepted — the far *half* of the tail published as one stealable
//!   task (binary splitting keeps the task count per frame logarithmic)
//!   — only when all of: the depth is at most
//!   [`StealPolicy::split_depth`] (splitting a deep, tiny subtree costs
//!   more than finishing it), the tail has at least
//!   [`StealPolicy::min_tail`] candidates (ditto), some worker is
//!   actually hungry (an atomic idle count gates publication, so a
//!   saturated pool never pays the queue traffic), and the pool has not
//!   been cancelled (a cancelled pool must *drain*, not grow). A stolen
//!   task re-enters its prefix via `ecf::enter_prefix` without
//!   re-deriving any frame and can itself be split again.
//!
//! ## Task lifecycle
//!
//! `seeded → queued → running → (exhausted | split further)`. The
//! scheduler tracks one atomic `pending` count — tasks created minus
//! tasks finished. Workers exit when `pending` reaches zero (all
//! regions of the tree accounted for) or when their deadline
//! expires/cancels; cancellation makes workers stop taking tasks and
//! stop publishing, so queued tasks are simply dropped with the scope —
//! that is the draining behaviour the deadline tests pin down.
//!
//! ## Determinism
//!
//! Splitting only ever *moves* untried candidate ranges between
//! workers; no range is duplicated or dropped. The enumerated solution
//! *set* (and the per-run totals of `nodes_visited`/`prunes`) is
//! therefore identical to the sequential DFS for complete runs — only
//! the emission *order* depends on thread scheduling.
//! `stats.tasks_spawned`/`tasks_stolen` expose how much re-splitting
//! actually happened.
//!
//! [`search`] takes a prebuilt filter. The engine builds it with
//! [`FilterMatrix::build_par_pooled`] on the same pool — disjoint cell
//! rows per query edge — so both stages use the thread budget.
//!
//! ## Deadline and stats discipline
//!
//! Workers run under a [`Deadline::scoped`] child of the caller's
//! deadline: hitting the solution limit cancels *the pool's* deadline so
//! all workers stop, without expiring the deadline the caller handed in
//! (which may govern later phases). Workers that stop because of that
//! cancellation report `Timeout` locally; the merge reclassifies the run
//! as [`SearchEnd::SinkStop`] and clears `timed_out` — only a real clock
//! expiry marks the merged stats as timed out. Merged `elapsed` is the
//! caller-observed wall clock (`start.elapsed()`), never a sum of
//! overlapping per-worker durations; those are summed separately into
//! [`SearchStats::cpu_time`] (which, for a stealing pool, includes the
//! time a worker spent waiting for stealable work).

use crate::deadline::Deadline;
use crate::ecf::{
    enter_prefix, leave_prefix, root_candidates, run_dfs_task, SearchEnd, TaskSplitter,
};
use crate::filter::FilterMatrix;
use crate::mapping::Mapping;
use crate::order::{compute_order, predecessors, NodeOrder};
use crate::problem::Problem;
use crate::scratch::ParallelScratch;
use crate::sink::{SinkControl, SolutionSink};
use crate::stats::SearchStats;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use netgraph::NodeId;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The D/K knobs of the depth-bounded splitting policy.
///
/// A frame at depth ≤ `split_depth` (D) whose untried tail holds ≥
/// `min_tail` (K) candidates may be published as a stealable task when
/// another worker is hungry. Shallow frames cover the largest subtrees,
/// so bounding the depth keeps task granularity coarse; bounding the
/// tail keeps a near-exhausted frame from being shipped for less work
/// than the queue round-trip costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealPolicy {
    /// Deepest absolute tree depth at which frames may be split (D).
    pub split_depth: usize,
    /// Minimum untried-tail length worth publishing (K).
    pub min_tail: usize,
}

impl StealPolicy {
    /// Default D: split only within the top two levels of the tree.
    /// Binary re-splitting of stolen tasks keeps granularity adaptive
    /// below that, so a deeper default only adds queue traffic.
    pub const DEFAULT_SPLIT_DEPTH: usize = 1;
    /// Default K: don't ship fewer than this many candidates.
    pub const DEFAULT_MIN_TAIL: usize = 2;

    /// Split at every depth for any tail of ≥ 2: maximal task churn.
    /// Used by the determinism property tests to stress the scheduler;
    /// rarely what production wants.
    pub fn aggressive() -> Self {
        StealPolicy {
            split_depth: usize::MAX,
            min_tail: 2,
        }
    }
}

impl Default for StealPolicy {
    fn default() -> Self {
        StealPolicy {
            split_depth: Self::DEFAULT_SPLIT_DEPTH,
            min_tail: Self::DEFAULT_MIN_TAIL,
        }
    }
}

/// One schedulable region of the permutation tree: the assignments for
/// order positions `0..prefix.len()` plus the untried candidate range
/// at depth `prefix.len()`.
struct SubtreeTask {
    prefix: Vec<NodeId>,
    cands: Vec<NodeId>,
    /// Worker that published (or was seeded with) the task; a taker with
    /// a different id counts the take into `tasks_stolen`.
    publisher: usize,
}

/// The per-worker split gate handed to the DFS (see `ecf::TaskSplitter`).
struct WorkerSplitter<'a> {
    policy: StealPolicy,
    injector: &'a Injector<SubtreeTask>,
    hungry: &'a AtomicUsize,
    pending: &'a AtomicUsize,
    /// Currently-parked thieves: a publish pops and unparks one.
    parked: &'a std::sync::Mutex<Vec<std::thread::Thread>>,
    pool_deadline: Deadline,
    me: usize,
}

impl TaskSplitter for WorkerSplitter<'_> {
    fn offer(
        &mut self,
        depth: usize,
        order: &[NodeId],
        assign: &[NodeId],
        tail: &[NodeId],
    ) -> usize {
        if depth > self.policy.split_depth || tail.len() < self.policy.min_tail {
            return 0;
        }
        // Publish only for an actual consumer: no hungry worker, no
        // queue traffic. A cancelled pool is draining — publishing would
        // strand the task in a queue nobody reads.
        if self.hungry.load(Ordering::SeqCst) == 0 || self.pool_deadline.is_cancelled() {
            return 0;
        }
        // Binary split: ship the far half of the tail, keep the near
        // half. Shipping the whole tail would let one wide frame decay
        // into a task per candidate under a persistently hungry pool;
        // halving makes the task count per frame logarithmic while the
        // stolen piece stays re-splittable.
        let taken = tail.len().div_ceil(2);
        let prefix: Vec<NodeId> = order[..depth]
            .iter()
            .map(|&vq| assign[vq.index()])
            .collect();
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.injector.push(SubtreeTask {
            prefix,
            cands: tail[tail.len() - taken..].to_vec(),
            publisher: self.me,
        });
        // Hand the task to one parked thief right away; a single task
        // needs a single consumer, and popping from the parked set
        // guarantees the wakeup lands on a thread that is actually (or
        // imminently) parked instead of burning the token on a busy one.
        if let Some(t) = self.parked.lock().expect("parked set poisoned").pop() {
            t.unpark();
        }
        taken
    }
}

/// Parallel all-matches / up-to-k ECF over a filter built for this
/// problem, on `threads` workers of the caller's [`ParallelScratch`]
/// pool under the split `policy`.
///
/// `limit = None` enumerates everything; `Some(k)` stops all workers as
/// soon as `k` solutions have been found globally (the merged result is
/// truncated to `k`; *which* k solutions are returned depends on thread
/// scheduling, exactly like the paper's timeout-based partial results).
/// A reused scratch keeps its parked threads and per-worker arenas, so
/// repeated searches allocate nothing beyond their result vectors and
/// the (rare) published tasks. `stats.elapsed` covers only this call.
#[allow(clippy::too_many_arguments)]
pub fn search(
    problem: &Problem<'_>,
    filter: &FilterMatrix,
    threads: usize,
    limit: Option<usize>,
    order: NodeOrder,
    deadline: &mut Deadline,
    stats: &mut SearchStats,
    scratch: &mut ParallelScratch,
    policy: StealPolicy,
) -> (Vec<Mapping>, SearchEnd) {
    assert!(threads >= 1, "need at least one thread");
    let start = std::time::Instant::now();
    // Filter-phase counters are reported even when the build was cut
    // short, so harness timeout rows stay comparable.
    stats.filter_cells = filter.cell_count() as u64;
    if filter.truncated() || deadline.check_now() {
        stats.timed_out = true;
        stats.elapsed = start.elapsed();
        return (Vec::new(), SearchEnd::Timeout);
    }
    let node_order = compute_order(problem.query, filter, order);
    let preds = predecessors(problem.query, &node_order);

    // Root candidates (expression (1)).
    let roots = root_candidates(problem, filter, &node_order, &preds);

    if roots.is_empty() {
        stats.elapsed = start.elapsed();
        return (Vec::new(), SearchEnd::Exhausted);
    }

    // Extra workers beyond the root count are fed by splits — that is
    // exactly how a single-hub instance gets parallelism a root
    // partition could never expose. Splits can only feed as many workers
    // as there are shallow subtrees, so bound the pool by the width of
    // the top two tree levels (roots × the second order node's candidate
    // count): a 64-thread request on a 4-node toy problem must not spawn
    // 60 threads that only poll.
    let width1 = match node_order.get(1) {
        Some(&v) => filter.candidate_count(v).max(1),
        None => 1,
    };
    let workers = threads.min(roots.len().saturating_mul(width1));
    let seeds = workers.min(roots.len());
    let found = AtomicU64::new(0);
    let limit_u64 = limit.map(|k| k as u64);

    // The pool runs under a scoped child deadline: the solution-limit
    // stop cancels only the pool, never the caller's deadline.
    let pool_deadline = deadline.scoped();

    // A sink that collects locally and observes the global counter.
    struct WorkerSink<'s> {
        local: Vec<Mapping>,
        found: &'s AtomicU64,
        limit: Option<u64>,
        deadline: Deadline,
    }
    impl SolutionSink for WorkerSink<'_> {
        fn report(&mut self, mapping: &Mapping) -> SinkControl {
            let n = self.found.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(k) = self.limit {
                if n > k {
                    // Someone else already hit the limit; drop and stop.
                    return SinkControl::Stop;
                }
                self.local.push(mapping.clone());
                if n == k {
                    self.deadline.cancel();
                    return SinkControl::Stop;
                }
                return SinkControl::Continue;
            }
            self.local.push(mapping.clone());
            SinkControl::Continue
        }
    }

    // Queues: per-worker deques (seeded strided, stolen FIFO) plus the
    // shared injector for split tasks.
    let deques: Vec<Worker<SubtreeTask>> = (0..workers).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<SubtreeTask>> = deques.iter().map(|d| d.stealer()).collect();
    let injector: Injector<SubtreeTask> = Injector::new();
    for (w, deque) in deques.iter().enumerate().take(seeds) {
        // Strided partition spreads "hot" root candidates evenly.
        let my_roots: Vec<NodeId> = roots.iter().copied().skip(w).step_by(seeds).collect();
        deque.push(SubtreeTask {
            prefix: Vec::new(),
            cands: my_roots,
            publisher: w,
        });
    }
    // Live-task count: seeds now, plus every published split. Zero means
    // the whole tree is accounted for and idle workers may exit.
    let pending = AtomicUsize::new(seeds);
    // Idle-worker count, gating publication. Workers beyond the seed
    // count are hungry from the start — registered here, before any
    // thread runs, so the very first split opportunity already sees
    // them.
    let hungry = AtomicUsize::new(workers - seeds);
    // Handles of currently *parked* thieves (each worker registers
    // itself right before parking and deregisters after waking), so
    // publishers and finishers can unpark exactly the threads that are
    // sleeping instead of letting them burn the core or oversleep a
    // blind nap — a missed wakeup would put the full park timeout on
    // the pool's join latency.
    let parked: std::sync::Mutex<Vec<std::thread::Thread>> =
        std::sync::Mutex::new(Vec::with_capacity(workers));
    let wake_all = |parked: &std::sync::Mutex<Vec<std::thread::Thread>>| {
        for t in parked.lock().expect("parked set poisoned").drain(..) {
            t.unpark();
        }
    };

    let mut merged: Vec<Mapping> = Vec::new();
    let mut ends: Vec<SearchEnd> = Vec::new();
    let (pool, scratches) = scratch.pool_and_workers(workers);
    // Warm threads reused from the persistent pool: the run is
    // spawn-free exactly when this equals `workers`.
    stats.pool_reuse += pool.thread_count().min(workers) as u64;

    // One result slot per worker, written by the worker's pool job and
    // collected after the round joins.
    let mut results: Vec<Option<(Vec<Mapping>, SearchEnd, SearchStats)>> =
        (0..workers).map(|_| None).collect();
    {
        let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(workers);
        for (me, ((wscratch, my_deque), result)) in scratches
            .iter_mut()
            .zip(deques)
            .zip(results.iter_mut())
            .enumerate()
        {
            let node_order = &node_order;
            let preds = &preds;
            let found = &found;
            let injector = &injector;
            let stealers = &stealers;
            let pending = &pending;
            let hungry = &hungry;
            let parked = &parked;
            let wake_all = &wake_all;
            let dl = pool_deadline.clone();
            jobs.push(Box::new(move || {
                let wstart = std::time::Instant::now();
                let my_thread = std::thread::current();
                let mut sink = WorkerSink {
                    local: Vec::new(),
                    found,
                    limit: limit_u64,
                    deadline: dl.clone(),
                };
                let mut splitter = WorkerSplitter {
                    policy,
                    injector,
                    hungry,
                    pending,
                    parked,
                    pool_deadline: dl.clone(),
                    me,
                };
                let mut my_dl = dl;
                let mut my_stats = SearchStats::default();
                wscratch.ensure(problem.nq(), problem.nr());
                // Seedless workers were pre-registered as hungry by the
                // scheduler; their first idle pass must not count twice.
                let mut pre_registered = me >= seeds;
                let mut end = SearchEnd::Exhausted;
                loop {
                    // Own deque first (depth-first locality), then go
                    // hungry: injector (split tasks), then sibling seeds.
                    let mut task = my_deque.pop().map(|t| (t, false));
                    if task.is_none() {
                        if !pre_registered {
                            hungry.fetch_add(1, Ordering::SeqCst);
                        }
                        pre_registered = false;
                        let mut spins = 0u32;
                        let got = loop {
                            if my_dl.check_now() {
                                break None;
                            }
                            if let Steal::Success(t) = injector.steal() {
                                break Some(t);
                            }
                            let sibling = stealers
                                .iter()
                                .enumerate()
                                .filter(|(i, _)| *i != me)
                                .find_map(|(_, s)| s.steal().success());
                            if let Some(t) = sibling {
                                break Some(t);
                            }
                            if pending.load(Ordering::SeqCst) == 0 {
                                break None;
                            }
                            // Brief spin, then park: a hot spinner
                            // steals the very CPU the busy worker needs
                            // (ruinous on few-core hosts). Register in
                            // the parked set first — publishers pop a
                            // handle from it and unpark exactly one
                            // sleeping thief — and re-check the injector
                            // after registering so a publish racing the
                            // registration can't be missed; the park
                            // timeout only covers that narrow window.
                            spins += 1;
                            if spins < 4 {
                                std::thread::yield_now();
                            } else {
                                parked
                                    .lock()
                                    .expect("parked set poisoned")
                                    .push(my_thread.clone());
                                if injector.is_empty() && pending.load(Ordering::SeqCst) != 0 {
                                    std::thread::park_timeout(std::time::Duration::from_micros(
                                        200,
                                    ));
                                }
                                let mut g = parked.lock().expect("parked set poisoned");
                                if let Some(i) = g.iter().position(|t| t.id() == my_thread.id()) {
                                    g.remove(i);
                                }
                            }
                        };
                        hungry.fetch_sub(1, Ordering::SeqCst);
                        task = got.map(|t| (t, true));
                    }
                    let Some((t, via_steal)) = task else {
                        // Drained: tree fully accounted for, or the pool
                        // was cancelled / timed out (queued tasks are
                        // discarded — that is the drain).
                        break;
                    };
                    if via_steal && t.publisher != me {
                        my_stats.tasks_stolen += 1;
                    }
                    enter_prefix(wscratch, node_order, &t.prefix);
                    let tend = run_dfs_task(
                        filter,
                        node_order,
                        preds,
                        &mut my_dl,
                        &mut sink,
                        &mut my_stats,
                        None,
                        t.prefix.len(),
                        Some(&t.cands),
                        wscratch,
                        Some(&mut splitter),
                    );
                    leave_prefix(wscratch, node_order, &t.prefix);
                    if pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                        // Last live task: wake parked thieves so they
                        // observe pending == 0 and exit immediately.
                        wake_all(parked);
                    }
                    match tend {
                        SearchEnd::Exhausted => continue,
                        other => {
                            end = other;
                            // The pool deadline is cancelled (or expired)
                            // on this path: wake everyone to drain.
                            wake_all(parked);
                            break;
                        }
                    }
                }
                if end == SearchEnd::Exhausted && my_dl.was_expired() {
                    end = SearchEnd::Timeout;
                }
                // Per-worker accounting: a worker stopped by the shared
                // cancellation honestly reports Timeout here; the merge
                // below reclassifies limit-triggered stops.
                my_stats.timed_out = end == SearchEnd::Timeout;
                my_stats.cpu_time = wstart.elapsed();
                *result = Some((sink.local, end, my_stats));
            }));
        }
        pool.run_scoped(jobs);
    }
    for slot in results {
        let (local, end, wstats) = slot.expect("pool worker completed");
        merged.extend(local);
        ends.push(end);
        stats.merge(&wstats);
    }

    // Aggregate ends. If the global limit was reached, workers observe a
    // cancelled pool deadline and report Timeout — reclassify as SinkStop.
    let limit_hit = limit_u64.is_some_and(|k| found.load(Ordering::Relaxed) >= k);
    let end = if limit_hit {
        SearchEnd::SinkStop
    } else if ends.contains(&SearchEnd::Timeout) {
        SearchEnd::Timeout
    } else if ends.contains(&SearchEnd::SinkStop) {
        SearchEnd::SinkStop
    } else {
        SearchEnd::Exhausted
    };
    if let Some(k) = limit {
        merged.truncate(k);
    }
    stats.solutions = merged.len() as u64;
    // The limit (not the clock) stopped the search: the merged stats must
    // not carry the workers' limit-induced `timed_out`.
    stats.timed_out = end == SearchEnd::Timeout;
    // Wall clock as observed by this caller — never the worker sum
    // (which lives in `cpu_time` via the merge).
    stats.elapsed = start.elapsed();
    (merged, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecf;
    use crate::sink::CollectAll;
    use crate::verify::check_mapping;
    use netgraph::{Direction, Network};

    fn grid_host(n: usize) -> Network {
        // Clique host with varied delays — lots of embeddings.
        let mut h = Network::new(Direction::Undirected);
        let ids: Vec<NodeId> = (0..n).map(|i| h.add_node(format!("h{i}"))).collect();
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

    /// A deliberately skewed host: one hub owns almost all the work. The
    /// query is a star (hub + `leaves` leaves); the host is one
    /// high-degree hub wired to `spokes` spokes that are also wired in a
    /// cycle among themselves. The hub carries `cap = 1` (spokes 0), so
    /// under the `rNode.cap >= vNode.cap` constraint the query hub has
    /// exactly one root candidate: every worker but one must be fed by
    /// splits.
    fn skewed_host(spokes: usize) -> Network {
        let mut h = Network::new(Direction::Undirected);
        let hub = h.add_node("hub");
        h.set_node_attr(hub, "cap", 1.0);
        let ids: Vec<NodeId> = (0..spokes).map(|i| h.add_node(format!("s{i}"))).collect();
        for (i, &s) in ids.iter().enumerate() {
            h.set_node_attr(s, "cap", 0.0);
            h.add_edge(hub, s);
            h.add_edge(s, ids[(i + 1) % spokes]);
        }
        h
    }

    fn star_query(leaves: usize) -> Network {
        let mut q = Network::new(Direction::Undirected);
        let hub = q.add_node("qh");
        q.set_node_attr(hub, "cap", 1.0);
        for i in 0..leaves {
            let l = q.add_node(format!("ql{i}"));
            q.set_node_attr(l, "cap", 0.0);
            q.add_edge(hub, l);
        }
        q
    }

    fn run_seq(p: &Problem<'_>) -> (Vec<Mapping>, SearchStats) {
        let mut sink = CollectAll::default();
        let mut stats = SearchStats::default();
        let mut dl = Deadline::unlimited();
        ecf::build_and_search(p, NodeOrder::default(), &mut dl, &mut sink, &mut stats);
        (sink.solutions, stats)
    }

    /// The engine's `ParallelEcf` pipeline: build the filter on the
    /// scratch's pool, then search under the default policy.
    fn build_and_search(
        p: &Problem<'_>,
        threads: usize,
        limit: Option<usize>,
        dl: &mut Deadline,
        stats: &mut SearchStats,
        scratch: &mut ParallelScratch,
    ) -> (Vec<Mapping>, SearchEnd) {
        let filter =
            FilterMatrix::build_par_pooled(p, None, threads, dl, stats, scratch.pool_mut())
                .unwrap();
        let order = NodeOrder::default();
        search(
            p,
            &filter,
            threads,
            limit,
            order,
            dl,
            stats,
            scratch,
            StealPolicy::default(),
        )
    }

    fn sorted(mut v: Vec<Mapping>) -> Vec<Mapping> {
        v.sort_by_key(|m| m.as_slice().to_vec());
        v
    }

    #[test]
    fn parallel_matches_sequential_solution_set() {
        let h = grid_host(8);
        let q = ring_query(4);
        let p = Problem::new(&q, &h, "rEdge.d <= 30.0").unwrap();

        // Sequential reference.
        let (seq, seq_stats) = run_seq(&p);

        // Parallel.
        let mut par_stats = SearchStats::default();
        let mut dl2 = Deadline::unlimited();
        let (par, end) = build_and_search(
            &p,
            4,
            None,
            &mut dl2,
            &mut par_stats,
            &mut ParallelScratch::new(),
        );
        assert_eq!(end, SearchEnd::Exhausted);

        let par = sorted(par);
        assert_eq!(sorted(seq), par);
        for m in &par {
            check_mapping(&p, m).unwrap();
        }
        // Both runs evaluated the same filter: identical build counters.
        assert_eq!(seq_stats.constraint_evals, par_stats.constraint_evals);
        assert_eq!(seq_stats.filter_cells, par_stats.filter_cells);
        // Splitting moves work, never duplicates it: identical totals.
        assert_eq!(seq_stats.nodes_visited, par_stats.nodes_visited);
        assert_eq!(seq_stats.prunes, par_stats.prunes);
    }

    #[test]
    fn aggressive_splitting_preserves_solution_set() {
        let h = grid_host(8);
        let q = ring_query(4);
        let p = Problem::new(&q, &h, "rEdge.d <= 30.0").unwrap();
        let (seq, seq_stats) = run_seq(&p);

        let mut dl = Deadline::unlimited();
        let mut bstats = SearchStats::default();
        let filter = FilterMatrix::build(&p, &mut dl, &mut bstats).unwrap();
        for threads in [2usize, 3, 4] {
            let mut stats = SearchStats::default();
            let mut dl = Deadline::unlimited();
            let mut scratch = ParallelScratch::new();
            let (sols, end) = search(
                &p,
                &filter,
                threads,
                None,
                NodeOrder::default(),
                &mut dl,
                &mut stats,
                &mut scratch,
                StealPolicy::aggressive(),
            );
            assert_eq!(end, SearchEnd::Exhausted, "threads {threads}");
            assert_eq!(sorted(sols), sorted(seq.clone()), "threads {threads}");
            assert_eq!(stats.nodes_visited, seq_stats.nodes_visited);
            assert_eq!(stats.prunes, seq_stats.prunes);
        }
    }

    #[test]
    fn skewed_host_exercises_stealing() {
        // One hub root candidate owns the whole tree: the static root
        // partition would run this on a single worker. The stealing
        // scheduler spawns the pool with three pre-registered hungry
        // workers (threads > roots), so the hub worker *must* split at
        // its first shallow frame (tasks_spawned > 0, deterministic) and
        // the splits must eventually move across workers (tasks_stolen >
        // 0 — thread scheduling decides *when* a sibling grabs one, so
        // allow a few attempts). Every attempt must agree with the
        // sequential solution set.
        let h = skewed_host(10);
        let q = star_query(4);
        let p = Problem::new(&q, &h, "rNode.cap >= vNode.cap").unwrap();
        let (seq, _) = run_seq(&p);
        assert!(!seq.is_empty());

        let mut dl = Deadline::unlimited();
        let mut bstats = SearchStats::default();
        let filter = FilterMatrix::build(&p, &mut dl, &mut bstats).unwrap();
        let mut stolen_seen = false;
        for attempt in 0..10 {
            let mut stats = SearchStats::default();
            let mut dl = Deadline::unlimited();
            let mut scratch = ParallelScratch::new();
            let (sols, end) = search(
                &p,
                &filter,
                4,
                None,
                NodeOrder::default(),
                &mut dl,
                &mut stats,
                &mut scratch,
                StealPolicy::aggressive(),
            );
            assert_eq!(end, SearchEnd::Exhausted, "attempt {attempt}");
            assert_eq!(sorted(sols), sorted(seq.clone()), "attempt {attempt}");
            assert!(
                stats.tasks_spawned > 0,
                "hungry workers must force splits on a skewed host"
            );
            if stats.tasks_stolen > 0 {
                stolen_seen = true;
                break;
            }
        }
        assert!(
            stolen_seen,
            "no task ever moved between workers across 10 skewed runs"
        );
    }

    #[test]
    fn single_thread_equals_sequential() {
        let h = grid_host(6);
        let q = ring_query(3);
        let p = Problem::new(&q, &h, "true").unwrap();
        let mut stats = SearchStats::default();
        let mut dl = Deadline::unlimited();
        let (sols, end) = build_and_search(
            &p,
            1,
            None,
            &mut dl,
            &mut stats,
            &mut ParallelScratch::new(),
        );
        assert_eq!(end, SearchEnd::Exhausted);
        // K6 hosts all 6·5·4 = 120 oriented triangles... as a ring of 3 the
        // count equals the number of ordered 3-subsets = 120.
        assert_eq!(sols.len(), 120);
        // A lone worker has nobody to feed.
        assert_eq!(stats.tasks_stolen, 0);
    }

    #[test]
    fn limit_stops_early() {
        let h = grid_host(8);
        let q = ring_query(3);
        let p = Problem::new(&q, &h, "true").unwrap();
        let mut stats = SearchStats::default();
        let mut dl = Deadline::unlimited();
        let (sols, end) = build_and_search(
            &p,
            4,
            Some(5),
            &mut dl,
            &mut stats,
            &mut ParallelScratch::new(),
        );
        assert_eq!(end, SearchEnd::SinkStop);
        assert_eq!(sols.len(), 5);
        for m in &sols {
            check_mapping(&p, m).unwrap();
        }
    }

    #[test]
    fn limit_hit_clears_timed_out() {
        // Regression: the limit stop cancels the pool deadline, making
        // workers report Timeout; the merged stats must not claim the
        // search timed out when the solution limit (not the clock)
        // stopped it.
        let h = grid_host(8);
        let q = ring_query(3);
        let p = Problem::new(&q, &h, "true").unwrap();
        let mut stats = SearchStats::default();
        let mut dl = Deadline::unlimited();
        let (sols, end) = build_and_search(
            &p,
            4,
            Some(3),
            &mut dl,
            &mut stats,
            &mut ParallelScratch::new(),
        );
        assert_eq!(end, SearchEnd::SinkStop);
        assert_eq!(sols.len(), 3);
        assert!(
            !stats.timed_out,
            "limit-stopped search must not report a timeout"
        );
    }

    #[test]
    fn limit_hit_does_not_cancel_caller_deadline() {
        // Regression: the pool's limit-triggered cancel must stay scoped
        // to the pool — the caller's deadline remains usable for later
        // phases of the same request.
        let h = grid_host(8);
        let q = ring_query(3);
        let p = Problem::new(&q, &h, "true").unwrap();
        let mut stats = SearchStats::default();
        let mut dl = Deadline::unlimited();
        let (_, end) = build_and_search(
            &p,
            4,
            Some(2),
            &mut dl,
            &mut stats,
            &mut ParallelScratch::new(),
        );
        assert_eq!(end, SearchEnd::SinkStop);
        assert!(!dl.was_expired());
        assert!(
            !dl.check_now(),
            "limit cancel leaked into the caller's deadline"
        );
    }

    #[test]
    fn elapsed_is_wall_clock_not_worker_sum() {
        // A multi-root problem with enough work that 4 workers each
        // accumulate measurable time: merged `elapsed` must stay within
        // the caller-observed wall clock (summing per-worker durations
        // would exceed it), while `cpu_time` carries the worker sum.
        let h = grid_host(9);
        let q = ring_query(4);
        let p = Problem::new(&q, &h, "true").unwrap();
        let outer = std::time::Instant::now();
        let mut stats = SearchStats::default();
        let mut dl = Deadline::unlimited();
        let (sols, end) = build_and_search(
            &p,
            4,
            None,
            &mut dl,
            &mut stats,
            &mut ParallelScratch::new(),
        );
        let wall = outer.elapsed();
        assert_eq!(end, SearchEnd::Exhausted);
        assert!(!sols.is_empty());
        assert!(
            stats.elapsed <= wall,
            "merged elapsed {:?} exceeds caller wall clock {:?}",
            stats.elapsed,
            wall
        );
        assert!(stats.cpu_time > std::time::Duration::ZERO);

        // And the parallel wall clock stays in the same ballpark as one
        // sequential run (a merge that summed worker durations would
        // multiply it by the worker count; allow generous slack for
        // thread spawn overhead on loaded machines).
        let mut seq_sink = CollectAll::default();
        let mut seq_stats = SearchStats::default();
        let mut seq_dl = Deadline::unlimited();
        ecf::build_and_search(
            &p,
            NodeOrder::default(),
            &mut seq_dl,
            &mut seq_sink,
            &mut seq_stats,
        );
        let bound = seq_stats.elapsed * 8 + std::time::Duration::from_millis(250);
        assert!(
            stats.elapsed <= bound,
            "parallel elapsed {:?} not within ~sequential {:?}",
            stats.elapsed,
            seq_stats.elapsed
        );
    }

    #[test]
    fn truncated_build_populates_filter_counters() {
        // A pre-expired deadline truncates the build before any scan
        // work; the stats must still carry the filter-phase counters
        // (here: zero cells, but *set*, plus the timeout flags) so
        // harness timeout rows stay comparable.
        let h = grid_host(6);
        let q = ring_query(3);
        let p = Problem::new(&q, &h, "true").unwrap();
        let mut stats = SearchStats {
            filter_cells: 999, // stale value from a previous run
            ..SearchStats::default()
        };
        let mut dl = Deadline::new(Some(std::time::Duration::ZERO));
        dl.check_now();
        let (sols, end) = build_and_search(
            &p,
            4,
            None,
            &mut dl,
            &mut stats,
            &mut ParallelScratch::new(),
        );
        assert!(sols.is_empty());
        assert_eq!(end, SearchEnd::Timeout);
        assert!(stats.timed_out);
        assert_eq!(stats.filter_cells, 0, "truncated build must reset cells");
        assert_eq!(stats.solutions, 0);
    }

    #[test]
    fn prebuilt_truncated_filter_reports_timeout_with_counters() {
        let h = grid_host(6);
        let q = ring_query(3);
        let p = Problem::new(&q, &h, "true").unwrap();
        let mut bstats = SearchStats::default();
        let mut bdl = Deadline::new(Some(std::time::Duration::ZERO));
        bdl.check_now();
        let filter = FilterMatrix::build(&p, &mut bdl, &mut bstats).unwrap();
        assert!(filter.truncated());

        let mut stats = SearchStats::default();
        let mut dl = Deadline::unlimited();
        let mut scratch = ParallelScratch::new();
        let (sols, end) = search(
            &p,
            &filter,
            4,
            None,
            NodeOrder::default(),
            &mut dl,
            &mut stats,
            &mut scratch,
            StealPolicy::default(),
        );
        assert!(sols.is_empty());
        assert_eq!(end, SearchEnd::Timeout);
        assert!(stats.timed_out);
        assert_eq!(stats.filter_cells, filter.cell_count() as u64);
    }

    #[test]
    fn scratch_reuse_across_calls_matches_fresh() {
        let h = grid_host(7);
        let q = ring_query(3);
        let p = Problem::new(&q, &h, "rEdge.d <= 40.0").unwrap();
        let mut scratch = ParallelScratch::new();
        let run = |scratch: &mut ParallelScratch| {
            let mut stats = SearchStats::default();
            let mut dl = Deadline::unlimited();
            let (sols, end) = build_and_search(&p, 3, None, &mut dl, &mut stats, scratch);
            assert_eq!(end, SearchEnd::Exhausted);
            sorted(sols)
        };
        let first = run(&mut scratch);
        let second = run(&mut scratch);
        let third = run(&mut scratch);
        assert_eq!(first, second);
        assert_eq!(second, third);
    }

    #[test]
    fn warm_pool_makes_repeat_searches_spawn_free() {
        let h = grid_host(8);
        let q = ring_query(4);
        let p = Problem::new(&q, &h, "rEdge.d <= 30.0").unwrap();
        let mut dl = Deadline::unlimited();
        let mut bstats = SearchStats::default();
        let filter = FilterMatrix::build(&p, &mut dl, &mut bstats).unwrap();
        let mut scratch = ParallelScratch::new();

        // Cold run: the pool is empty, every worker thread is new.
        let mut cold = SearchStats::default();
        let mut dl = Deadline::unlimited();
        let (first, end) = search(
            &p,
            &filter,
            4,
            None,
            NodeOrder::default(),
            &mut dl,
            &mut cold,
            &mut scratch,
            StealPolicy::default(),
        );
        assert_eq!(end, SearchEnd::Exhausted);
        assert_eq!(cold.pool_reuse, 0, "cold pool has nothing to reuse");
        let spawned = scratch.pool().spawned_total();
        assert_eq!(spawned, 4, "cold run spawns exactly the worker count");

        // Warm runs: zero new threads, full reuse, identical answers.
        for round in 0..3 {
            let mut warm = SearchStats::default();
            let mut dl = Deadline::unlimited();
            let (again, end) = search(
                &p,
                &filter,
                4,
                None,
                NodeOrder::default(),
                &mut dl,
                &mut warm,
                &mut scratch,
                StealPolicy::default(),
            );
            assert_eq!(end, SearchEnd::Exhausted, "round {round}");
            assert_eq!(sorted(again), sorted(first.clone()), "round {round}");
            assert_eq!(
                scratch.pool().spawned_total(),
                spawned,
                "warm round {round} spawned new threads"
            );
            assert_eq!(warm.pool_reuse, 4, "round {round} must reuse all workers");
        }
    }

    #[test]
    fn pooled_build_matches_scoped_build() {
        // The scoped-thread build is gone, so the sequential build is the
        // reference; the name stays for the CI `parallel::` filter.
        let h = grid_host(8);
        let q = ring_query(4);
        let p = Problem::new(&q, &h, "rEdge.d <= 30.0").unwrap();
        let mut dl = Deadline::unlimited();
        let mut s1 = SearchStats::default();
        let seq = FilterMatrix::build(&p, &mut dl, &mut s1).unwrap();
        let mut pool = crate::pool::WorkerPool::new();
        let mut dl = Deadline::unlimited();
        let mut s2 = SearchStats::default();
        let pooled =
            FilterMatrix::build_par_pooled(&p, None, 4, &mut dl, &mut s2, &mut pool).unwrap();
        assert!(seq == pooled, "pooled build must be bitwise-identical");
        assert_eq!(s1.constraint_evals, s2.constraint_evals);
        // And a second pooled build reuses the same threads.
        let before = pool.spawned_total();
        let mut dl = Deadline::unlimited();
        let mut s3 = SearchStats::default();
        let again =
            FilterMatrix::build_par_pooled(&p, None, 4, &mut dl, &mut s3, &mut pool).unwrap();
        assert!(again == pooled, "warm pooled build diverged");
        assert_eq!(pool.spawned_total(), before, "warm build spawned threads");
    }

    #[test]
    fn infeasible_parallel_is_definitive() {
        let h = grid_host(6);
        let q = ring_query(3);
        let p = Problem::new(&q, &h, "rEdge.d > 1e9").unwrap();
        let mut stats = SearchStats::default();
        let mut dl = Deadline::unlimited();
        let (sols, end) = build_and_search(
            &p,
            4,
            None,
            &mut dl,
            &mut stats,
            &mut ParallelScratch::new(),
        );
        assert!(sols.is_empty());
        assert_eq!(end, SearchEnd::Exhausted);
    }

    #[test]
    fn more_threads_than_roots_is_fine() {
        // 64 requested threads on a 4-node toy problem: the scheduler
        // bounds the pool by the top-two-level tree width instead of
        // spawning 60 workers that could never be fed.
        let h = grid_host(4);
        let q = ring_query(3);
        let p = Problem::new(&q, &h, "true").unwrap();
        let mut stats = SearchStats::default();
        let mut dl = Deadline::unlimited();
        let (sols, _) = build_and_search(
            &p,
            64,
            None,
            &mut dl,
            &mut stats,
            &mut ParallelScratch::new(),
        );
        assert_eq!(sols.len(), 4 * 3 * 2);
    }
}
