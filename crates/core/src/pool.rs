//! Persistent worker pool: threads parked between calls.
//!
//! Spawning a parallel search's workers per call costs ~65µs for a
//! 4-thread spawn+join on the bench box, which dominates
//! sub-millisecond searches (the `pool_cold` series of
//! `BENCH_filter.json`). A
//! [`WorkerPool`] keeps the OS threads alive across calls — parked on a
//! condvar between rounds — so a long-lived caller (the service layer,
//! a batch loop, a bench harness) pays thread creation once.
//!
//! ## The scoped-job pattern
//!
//! Search workers borrow the caller's stack: the problem, the filter,
//! the shared deques, the per-worker scratches. A pool thread, however,
//! is `'static` — it cannot hold a `'env` borrow. [`WorkerPool::run_scoped`]
//! bridges the two lifetimes the same way `std::thread::scope` does:
//! the submitted jobs are transmuted to `'static` for storage, and the
//! call **blocks until every job has finished** (including when a job
//! panics — the panic is captured, the round still drains, and the
//! payload is re-thrown on the caller thread). Because no job can
//! outlive the `run_scoped` call, the borrows it carries never dangle.
//!
//! One round runs at a time per pool (`run_scoped` takes `&mut self`);
//! job *i* of a round always runs on pool thread *i*, so worker-indexed
//! state (per-worker scratches, deque seeds) keeps its affinity across
//! calls. The pool grows on demand — asking for more jobs than threads
//! spawns the difference — and never shrinks; threads exit when the
//! pool is dropped. [`WorkerPool::spawned_total`] exposes the lifetime
//! spawn count so callers (and the acceptance tests) can prove a warm
//! run created zero new threads; the per-run view of the same fact is
//! [`SearchStats::pool_reuse`](crate::SearchStats).
//!
//! Do not call `run_scoped` from inside a pool job of the same pool:
//! the inner call would wait for threads that are busy running the
//! outer round. (The search code never nests pools; each
//! [`ParallelScratch`](crate::ParallelScratch) owns exactly one.)

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

/// A lifetime-erased job. Only ever constructed inside `run_scoped`,
/// which guarantees the erased borrows outlive the job's execution.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    /// One slot per pool thread; thread `i` only ever takes `slots[i]`.
    slots: Vec<Option<Job>>,
    /// Jobs of the current round still running (or queued in a slot).
    remaining: usize,
    /// First panic payload captured this round.
    panic: Option<Box<dyn Any + Send + 'static>>,
    /// Tells parked threads to exit (pool drop).
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when slots are filled (or on shutdown).
    work: Condvar,
    /// Signalled when `remaining` reaches zero.
    done: Condvar,
}

/// Lock that shrugs off poisoning: jobs run *outside* the lock (wrapped
/// in `catch_unwind`), so a poisoned mutex here can only mean a panic in
/// the trivial bookkeeping below — continuing is sound and keeps the
/// all-jobs-finish guarantee that `run_scoped`'s safety rests on.
fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(job) = st.slots[me].take() {
                    break job;
                }
                st = shared.work.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        let result = catch_unwind(AssertUnwindSafe(job));
        let mut st = lock(&shared.state);
        if let Err(payload) = result {
            // Keep the first panic; later ones (if any) are dropped,
            // matching what a scope join loop would surface.
            st.panic.get_or_insert(payload);
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

/// A persistent pool of parked worker threads with scoped-job
/// submission. See the module docs for the lifetime contract.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<thread::JoinHandle<()>>,
    spawned_total: u64,
}

impl WorkerPool {
    /// An empty pool; threads are spawned on first use (so holding a
    /// pool you never run costs nothing).
    pub fn new() -> Self {
        WorkerPool {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    slots: Vec::new(),
                    remaining: 0,
                    panic: None,
                    shutdown: false,
                }),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            handles: Vec::new(),
            spawned_total: 0,
        }
    }

    /// A pool with `n` threads spawned (and parked) up front.
    pub fn with_threads(n: usize) -> Self {
        let mut pool = Self::new();
        pool.ensure_threads(n);
        pool
    }

    /// Live pool threads.
    pub fn thread_count(&self) -> usize {
        self.handles.len()
    }

    /// Threads spawned over the pool's lifetime (the pool never
    /// shrinks, so this equals [`WorkerPool::thread_count`] — it exists
    /// so tests can assert a warm run spawned nothing *new*).
    pub fn spawned_total(&self) -> u64 {
        self.spawned_total
    }

    /// Grow the pool to at least `n` threads (no-op when already big
    /// enough).
    pub fn ensure_threads(&mut self, n: usize) {
        if self.handles.len() >= n {
            return;
        }
        lock(&self.shared.state).slots.resize_with(n, || None);
        for me in self.handles.len()..n {
            let shared = Arc::clone(&self.shared);
            let handle = thread::Builder::new()
                .name(format!("netembed-pool-{me}"))
                .spawn(move || worker_loop(shared, me))
                .expect("spawn pool worker");
            self.handles.push(handle);
            self.spawned_total += 1;
        }
    }

    /// Run one round of jobs — job `i` on pool thread `i` — and block
    /// until all of them finish. Panics in jobs are re-thrown here
    /// after the round drains.
    ///
    /// The jobs may borrow from the caller's stack (`'env`): this call
    /// does not return while any of them can still run, which is the
    /// whole safety argument for the internal lifetime erasure.
    pub fn run_scoped<'env>(&mut self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        let n = jobs.len();
        if n == 0 {
            return;
        }
        self.ensure_threads(n);
        let mut st = lock(&self.shared.state);
        debug_assert_eq!(st.remaining, 0, "run_scoped re-entered mid-round");
        st.remaining = n;
        for (slot, job) in st.slots.iter_mut().zip(jobs) {
            // SAFETY: the job is parked in `slots`, taken by exactly one
            // pool thread, and `remaining` only reaches zero after it has
            // run (or been dropped on shutdown — impossible here, since
            // shutdown only happens in Drop, which cannot race a live
            // `&mut self` call). We block on `remaining == 0` below
            // before returning, so every `'env` borrow inside the job
            // strictly outlives the job's execution.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            *slot = Some(job);
        }
        self.shared.work.notify_all();
        while st.remaining > 0 {
            st = self.shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        let panic = st.panic.take();
        drop(st);
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.handles.len())
            .field("spawned_total", &self.spawned_total)
            .finish()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            // A pool thread only panics if the panic machinery itself
            // failed; nothing to salvage then.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_jobs_with_borrowed_state() {
        let mut pool = WorkerPool::new();
        let mut outs = vec![0usize; 4];
        {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = outs
                .iter_mut()
                .enumerate()
                .map(|(i, o)| Box::new(move || *o = i + 1) as Box<dyn FnOnce() + Send + '_>)
                .collect();
            pool.run_scoped(jobs);
        }
        assert_eq!(outs, vec![1, 2, 3, 4]);
        assert_eq!(pool.thread_count(), 4);
    }

    #[test]
    fn warm_rounds_spawn_no_new_threads() {
        let mut pool = WorkerPool::new();
        let counter = AtomicUsize::new(0);
        for round in 1..=5 {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..3)
                .map(|_| {
                    Box::new(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_scoped(jobs);
            assert_eq!(counter.load(Ordering::Relaxed), round * 3);
            assert_eq!(pool.spawned_total(), 3, "round {round} spawned threads");
        }
    }

    #[test]
    fn pool_grows_on_demand_and_keeps_old_threads() {
        let mut pool = WorkerPool::with_threads(2);
        assert_eq!(pool.spawned_total(), 2);
        let hits = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..6)
            .map(|_| {
                Box::new(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(jobs);
        assert_eq!(hits.load(Ordering::Relaxed), 6);
        assert_eq!(pool.spawned_total(), 6, "grew by exactly the deficit");
    }

    #[test]
    fn empty_round_is_a_no_op() {
        let mut pool = WorkerPool::new();
        pool.run_scoped(Vec::new());
        assert_eq!(pool.thread_count(), 0);
    }

    #[test]
    fn job_panic_propagates_after_round_drains() {
        let mut pool = WorkerPool::new();
        let survivors = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|i| {
                    let survivors = &survivors;
                    Box::new(move || {
                        if i == 2 {
                            panic!("boom");
                        }
                        survivors.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_scoped(jobs);
        }));
        assert!(result.is_err(), "job panic must reach the caller");
        // The panicking round still drained: the other jobs ran.
        assert_eq!(survivors.load(Ordering::Relaxed), 3);
        // And the pool is reusable afterwards.
        let ok = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    ok.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_scoped(jobs);
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn job_index_maps_to_fixed_thread() {
        // Thread affinity: job i lands on pool thread i every round, so
        // worker-indexed scratches stay warm per thread.
        let mut pool = WorkerPool::with_threads(3);
        let mut first = vec![String::new(); 3];
        {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = first
                .iter_mut()
                .map(|slot| {
                    Box::new(move || {
                        *slot = thread::current().name().unwrap_or("?").to_string();
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_scoped(jobs);
        }
        let mut second = vec![String::new(); 3];
        {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = second
                .iter_mut()
                .map(|slot| {
                    Box::new(move || {
                        *slot = thread::current().name().unwrap_or("?").to_string();
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_scoped(jobs);
        }
        assert_eq!(first, second);
        assert_eq!(first[0], "netembed-pool-0");
    }
}
