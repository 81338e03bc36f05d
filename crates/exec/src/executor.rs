//! The fixed-size thread pool and its structured scope.
//!
//! [`Executor::scope`] mirrors `std::thread::scope`: spawned tasks may
//! borrow non-`'static` data from the enclosing frame because the scope is
//! guaranteed not to return before every task has finished — on the happy
//! path, when the closure panics, and when a joined task panics alike.
//! Unlike `std::thread::scope`, tasks run on a *fixed* pool of workers that
//! outlives individual scopes, so fan-outs don't pay thread spawn/teardown
//! per call.
//!
//! ## Immediate mode
//!
//! [`Executor::immediate`] runs everything on the calling thread, which
//! makes schedules fully deterministic: a spawned task is deferred, runs
//! inline the moment its handle is joined, and any tasks still pending when
//! the scope closes run in a **seed-permuted** order. Same seed ⇒ same
//! order; different seeds shuffle the schedule to flush out accidental
//! order-dependence — a poor man's schedule fuzzer that needs no threads.
//!
//! ## Runners and caveats
//!
//! A pool of `n` workers runs at most `n` tasks at once: only its own
//! workers ever run its tasks. [`TaskHandle::join`] called by a worker of
//! the same pool (join-inside-a-task) finds its task still queued and
//! *steals* it, running it inline — the worker was going to block anyway,
//! so no task runs beside it, and join-inside-a-task cannot deadlock even
//! on a one-worker pool. A join from any other thread waits for the
//! workers instead of stealing, so `Executor::pool(1)` is one runner:
//! outside joins never start a second task beside the worker's, and tasks
//! run one at a time in spawn order. What CAN starve is nesting `scope`
//! calls *on the same pool* from inside a task and relying on the scope's
//! implicit wait-all for unjoined tasks — that wait cannot steal (it has
//! no handles). Join inner tasks explicitly, keep scopes one level deep
//! per pool (the service layer does), or use immediate mode, which nests
//! fine.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

thread_local! {
    /// The pool this thread works for, as the address of its
    /// [`PoolShared`] (0 on threads that are no pool's worker).
    static WORKER_OF: Cell<usize> = const { Cell::new(0) };
}

fn pool_id(shared: &Arc<PoolShared>) -> usize {
    Arc::as_ptr(shared) as usize
}

/// Lock a std mutex, shrugging off poison: holders never leave torn state
/// (panics are caught at task boundaries before locks are touched).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// SplitMix64 — the tiny, dependency-free seed expander used for the
/// immediate mode's deterministic task permutation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct PoolShared {
    /// (queued `(token, job)` pairs, shutdown flag). Tokens are pool-unique
    /// so a [`TaskHandle::join`] on one of this pool's workers can *steal*
    /// its own still-queued job and run it inline — join-inside-a-task can
    /// therefore never deadlock waiting for a free worker.
    queue: Mutex<(VecDeque<(u64, Job)>, bool)>,
    job_ready: Condvar,
    /// Source of queue tokens, unique across all scopes on this pool.
    next_token: AtomicU64,
}

fn worker_loop(shared: Arc<PoolShared>) {
    WORKER_OF.with(|w| w.set(pool_id(&shared)));
    loop {
        let job = {
            let mut g = lock(&shared.queue);
            loop {
                if let Some((_, j)) = g.0.pop_front() {
                    break j;
                }
                if g.1 {
                    return;
                }
                g = shared
                    .job_ready
                    .wait(g)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // Panics are caught inside the job wrapper (see Scope::spawn), so a
        // panicking task never kills its worker.
        job();
    }
}

enum Mode {
    /// Single-threaded, deterministic: tasks defer and run inline at join
    /// or at scope close in a seed-permuted order.
    Immediate { seed: u64 },
    /// A fixed-size worker pool fed from one shared queue.
    Pool {
        shared: Arc<PoolShared>,
        workers: Vec<thread::JoinHandle<()>>,
    },
}

/// A reusable task executor: a fixed-size thread pool, or a deterministic
/// single-threaded stand-in for tests. See the module docs.
pub struct Executor {
    mode: Mode,
}

impl Executor {
    /// A pool of `workers` OS threads (clamped to at least 1). Threads are
    /// parked when idle and joined when the executor drops.
    pub fn pool(workers: usize) -> Executor {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new((VecDeque::new(), false)),
            job_ready: Condvar::new(),
            next_token: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("qrs-exec-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawning an executor worker thread failed")
            })
            .collect();
        Executor {
            mode: Mode::Pool {
                shared,
                workers: handles,
            },
        }
    }

    /// Deterministic single-threaded mode: spawned tasks defer, run inline
    /// when joined, and any still pending at scope close run in the order
    /// of a seed-derived permutation of their spawn order.
    pub fn immediate(seed: u64) -> Executor {
        Executor {
            mode: Mode::Immediate { seed },
        }
    }

    /// Build from the `QRS_EXEC_THREADS` environment variable: `0` selects
    /// immediate mode, `n ≥ 1` a pool of `n` workers; unset/unparsable
    /// falls back to the machine's available parallelism (capped at 16 —
    /// the backends saturate long before that).
    pub fn from_env() -> Executor {
        match std::env::var("QRS_EXEC_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
        {
            Some(0) => Executor::immediate(0),
            Some(n) => Executor::pool(n),
            None => Executor::pool(
                thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
                    .min(16),
            ),
        }
    }

    /// Worker count: pool size, or 1 in immediate mode.
    pub fn workers(&self) -> usize {
        match &self.mode {
            Mode::Immediate { .. } => 1,
            Mode::Pool { workers, .. } => workers.len(),
        }
    }

    /// Whether this executor is the deterministic immediate mode.
    pub fn is_immediate(&self) -> bool {
        matches!(self.mode, Mode::Immediate { .. })
    }

    /// Run `f` with a [`Scope`] on which tasks borrowing from the enclosing
    /// frame can be spawned. Every spawned task is guaranteed to have
    /// finished when `scope` returns, including when `f` panics (the scope
    /// waits before unwinding). If a task panicked and the payload was
    /// never delivered through a [`TaskHandle::join`], `scope` itself
    /// panics after all tasks finish — a panic is never silently dropped,
    /// and one the caller already caught at `join` is never raised twice.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let scope = Scope {
            inner: Arc::new(ScopeInner {
                pending: Mutex::new(0),
                all_done: Condvar::new(),
                deferred: Mutex::new(Vec::new()),
                panics: AtomicU64::new(0),
            }),
            exec: self,
            next_id: AtomicU64::new(0),
            scope: PhantomData,
            env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        match (&self.mode, &result) {
            // Clean close: run the remaining deferred tasks, seed-permuted.
            (Mode::Immediate { seed }, Ok(_)) => scope.run_deferred(*seed),
            // The closure is unwinding: running more user code now would be
            // surprising; unrun tasks are dropped (their pending counts
            // released) so wait_all below cannot hang.
            (Mode::Immediate { .. }, Err(_)) => scope.drop_deferred(),
            (Mode::Pool { .. }, _) => {}
        }
        // SAFETY-CRITICAL: no borrow of 'env may escape this function, so
        // every spawned task must have finished before we return OR unwind.
        scope.wait_all();
        match result {
            Err(p) => resume_unwind(p),
            Ok(r) => {
                // Panics delivered through join() were decremented there;
                // anything left is a panic nobody observed.
                if scope.inner.panics.load(Ordering::Relaxed) > 0 {
                    panic!("a scoped task panicked and its handle was not joined");
                }
                r
            }
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        if let Mode::Pool { shared, workers } = &mut self.mode {
            lock(&shared.queue).1 = true;
            shared.job_ready.notify_all();
            for w in workers.drain(..) {
                // A worker only panics if the panic payload's own Drop
                // panics; nothing to do about it here.
                let _ = w.join();
            }
        }
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.mode {
            Mode::Immediate { seed } => f
                .debug_struct("Executor::Immediate")
                .field("seed", seed)
                .finish(),
            Mode::Pool { workers, .. } => f
                .debug_struct("Executor::Pool")
                .field("workers", &workers.len())
                .finish(),
        }
    }
}

struct ScopeInner {
    /// Tasks spawned but not yet finished (or, immediate mode, not yet run).
    pending: Mutex<usize>,
    all_done: Condvar,
    /// Immediate mode's deferred tasks, in spawn order, keyed by task id so
    /// a join can pull its own task out and run it inline.
    deferred: Mutex<Vec<(u64, Job)>>,
    /// Count of task panics not yet delivered to a caller. Joining a
    /// panicked handle re-raises the payload and decrements; whatever is
    /// left when the scope closes makes the scope itself panic — a panic
    /// is never silently dropped, and one the caller caught at `join` is
    /// never raised twice.
    panics: AtomicU64,
}

/// The spawn surface handed to the closure of [`Executor::scope`].
///
/// `'scope` is the lifetime of the scope itself; `'env` the data it may
/// borrow. Both are invariant (the `PhantomData<&mut>` markers), exactly as
/// in `std::thread::scope` — that invariance is what stops a task from
/// smuggling a too-short borrow in or a reference out.
pub struct Scope<'scope, 'env: 'scope> {
    inner: Arc<ScopeInner>,
    exec: &'scope Executor,
    next_id: AtomicU64,
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

/// The result slot a task fills and its handle drains.
struct TaskSlot<T> {
    result: Mutex<Option<thread::Result<T>>>,
    filled: Condvar,
}

/// Handle to one spawned task; [`TaskHandle::join`] blocks until the task
/// finished (or runs it inline in immediate mode) and returns its output,
/// re-raising the task's panic if it had one.
#[must_use = "a task handle should be joined (the scope will still wait, but results are lost)"]
pub struct TaskHandle<'scope, T> {
    slot: Arc<TaskSlot<T>>,
    inner: Arc<ScopeInner>,
    /// Immediate mode: the scope-local deferred id. Pool mode: the
    /// pool-wide queue token.
    id: u64,
    /// Pool mode only: the queue, so `join` can steal its own job.
    pool: Option<Arc<PoolShared>>,
    _scope: PhantomData<&'scope ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn `f` onto the executor. The closure may borrow from `'env`
    /// (disjoint `&mut`s included); the scope guarantees it finishes before
    /// those borrows end.
    pub fn spawn<F, T>(&'scope self, f: F) -> TaskHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let slot = Arc::new(TaskSlot {
            result: Mutex::new(None),
            filled: Condvar::new(),
        });
        let task_slot = Arc::clone(&slot);
        let task_inner = Arc::clone(&self.inner);
        *lock(&self.inner.pending) += 1;
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let out = catch_unwind(AssertUnwindSafe(f));
            if out.is_err() {
                task_inner.panics.fetch_add(1, Ordering::Relaxed);
            }
            *lock(&task_slot.result) = Some(out);
            task_slot.filled.notify_all();
            // Drop the worker's slot reference BEFORE releasing the scope:
            // if the handle was never joined, this Arc is the last one and
            // dropping it runs the result's destructor — which may touch
            // borrowed scope data, so it must happen while the scope is
            // still guaranteed alive. Decrementing `pending` first would
            // let `wait_all` (and the borrows) end under that destructor.
            drop(task_slot);
            let mut p = lock(&task_inner.pending);
            *p -= 1;
            if *p == 0 {
                task_inner.all_done.notify_all();
            }
        });
        // SAFETY: the job runs (or is dropped with its pending count
        // released) strictly before `Executor::scope` returns — `scope`
        // always calls `wait_all`, on the panic path included — so every
        // borrow the closure captured (all outliving 'scope) is still live
        // whenever the closure body executes. Lifetime erasure to put it on
        // the 'static worker queue is therefore sound; this is the same
        // contract `std::thread::scope` enforces.
        let job: Job = unsafe {
            std::mem::transmute::<
                Box<dyn FnOnce() + Send + 'scope>,
                Box<dyn FnOnce() + Send + 'static>,
            >(job)
        };
        let (id, pool) = match &self.exec.mode {
            Mode::Immediate { .. } => {
                let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                lock(&self.inner.deferred).push((id, job));
                (id, None)
            }
            Mode::Pool { shared, .. } => {
                let token = shared.next_token.fetch_add(1, Ordering::Relaxed);
                let mut g = lock(&shared.queue);
                g.0.push_back((token, job));
                drop(g);
                shared.job_ready.notify_one();
                (token, Some(Arc::clone(shared)))
            }
        };
        TaskHandle {
            slot,
            inner: Arc::clone(&self.inner),
            id,
            pool,
            _scope: PhantomData,
        }
    }

    /// Run all still-deferred tasks (immediate mode) in a seed-derived
    /// permutation of spawn order. Jobs are popped from the shared queue
    /// *one at a time* — never drained wholesale — so a running task that
    /// joins a still-deferred sibling finds it in the queue and runs it
    /// inline instead of deadlocking on a result no one will produce.
    /// The pop sequence is a pure function of (seed, schedule), so it is
    /// replayable by construction; tasks spawned by running tasks simply
    /// join the queue and the loop.
    fn run_deferred(&self, seed: u64) {
        let mut state = seed ^ 0xD6E8_FEB8_6659_FD93;
        loop {
            let job = {
                let mut d = lock(&self.inner.deferred);
                if d.is_empty() {
                    return;
                }
                let ix = (splitmix64(&mut state) % d.len() as u64) as usize;
                d.remove(ix).1
            };
            job();
        }
    }

    /// Drop deferred tasks unrun (the scope closure panicked), releasing
    /// their pending counts so the final wait cannot hang.
    fn drop_deferred(&self) {
        let dropped: Vec<(u64, Job)> = {
            let mut d = lock(&self.inner.deferred);
            std::mem::take(&mut *d)
        };
        if dropped.is_empty() {
            return;
        }
        let mut p = lock(&self.inner.pending);
        *p -= dropped.len();
        if *p == 0 {
            self.inner.all_done.notify_all();
        }
    }

    fn wait_all(&self) {
        let mut p = lock(&self.inner.pending);
        while *p != 0 {
            p = self
                .inner
                .all_done
                .wait(p)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl<T> TaskHandle<'_, T> {
    /// Wait for the task and return its output, re-raising the task's
    /// panic payload if it panicked (a payload delivered here no longer
    /// fails the scope — it is the caller's to handle).
    ///
    /// If the task has not started yet, `join` may run it **inline on the
    /// calling thread**: always in immediate mode, which is what makes
    /// join-ordered code deterministic; in pool mode only when the caller
    /// is a worker of the same pool, so joining from inside another task
    /// can never deadlock waiting for a free worker, while a join from
    /// outside the pool waits and never adds a runner.
    pub fn join(self) -> T {
        match &self.pool {
            None => {
                let job = {
                    let mut d = lock(&self.inner.deferred);
                    d.iter()
                        .position(|(id, _)| *id == self.id)
                        .map(|ix| d.remove(ix).1)
                };
                if let Some(job) = job {
                    job();
                }
            }
            Some(shared) if WORKER_OF.with(Cell::get) == pool_id(shared) => {
                let job = {
                    let mut g = lock(&shared.queue);
                    g.0.iter()
                        .position(|(token, _)| *token == self.id)
                        .and_then(|ix| g.0.remove(ix))
                        .map(|(_, job)| job)
                };
                if let Some(job) = job {
                    job();
                }
            }
            Some(_) => {}
        }
        let mut g = lock(&self.slot.result);
        loop {
            if let Some(r) = g.take() {
                drop(g);
                match r {
                    Ok(v) => return v,
                    Err(p) => {
                        self.inner.panics.fetch_sub(1, Ordering::Relaxed);
                        resume_unwind(p)
                    }
                }
            }
            g = self
                .slot
                .filled
                .wait(g)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    #[test]
    fn pool_runs_tasks_on_worker_threads_and_joins_results() {
        let exec = Executor::pool(4);
        assert_eq!(exec.workers(), 4);
        let sum: usize = exec.scope(|s| {
            let handles: Vec<_> = (0..16usize).map(|i| s.spawn(move || i * i)).collect();
            handles.into_iter().map(TaskHandle::join).sum()
        });
        assert_eq!(sum, (0..16usize).map(|i| i * i).sum());
    }

    #[test]
    fn scope_allows_disjoint_mut_borrows_of_the_environment() {
        let exec = Executor::pool(3);
        let mut cells = [0u64; 8];
        exec.scope(|s| {
            let handles: Vec<_> = cells
                .iter_mut()
                .enumerate()
                .map(|(i, c)| s.spawn(move || *c = (i as u64 + 1) * 10))
                .collect();
            for h in handles {
                h.join();
            }
        });
        assert_eq!(cells, [10, 20, 30, 40, 50, 60, 70, 80]);
    }

    #[test]
    fn pool_is_actually_parallel() {
        // Two tasks that can only finish if they run concurrently: each
        // waits for the other's side of a rendezvous.
        let exec = Executor::pool(2);
        let a = AtomicBool::new(false);
        let b = AtomicBool::new(false);
        exec.scope(|s| {
            let ha = s.spawn(|| {
                a.store(true, Ordering::SeqCst);
                while !b.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
            });
            let hb = s.spawn(|| {
                b.store(true, Ordering::SeqCst);
                while !a.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
            });
            ha.join();
            hb.join();
        });
    }

    #[test]
    fn scope_waits_for_unjoined_tasks() {
        let exec = Executor::pool(2);
        let done = AtomicUsize::new(0);
        exec.scope(|s| {
            for _ in 0..8 {
                let _unjoined = s.spawn(|| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        // The scope returned ⇒ every task ran to completion.
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn unjoined_results_with_drop_impls_are_dropped_before_scope_returns() {
        // An unjoined task's result may borrow scope data and run arbitrary
        // code in Drop; the worker must finish that drop before the scope
        // (and the borrows) can end. Regression for decrementing `pending`
        // ahead of releasing the worker's slot reference.
        struct Tracker<'a>(&'a AtomicUsize);
        impl Drop for Tracker<'_> {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let exec = Executor::pool(3);
        let drops = AtomicUsize::new(0);
        exec.scope(|s| {
            for _ in 0..16 {
                let _unjoined = s.spawn(|| Tracker(&drops));
            }
        });
        assert_eq!(
            drops.load(Ordering::SeqCst),
            16,
            "every unjoined result must be dropped while the scope is alive"
        );
    }

    #[test]
    fn joined_task_panic_propagates_with_payload() {
        let exec = Executor::pool(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            exec.scope(|s| s.spawn(|| panic!("task says no")).join())
        }));
        let payload = caught.expect_err("panic must propagate through join");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task says no");
        // The pool survives a panicking task.
        assert_eq!(exec.scope(|s| s.spawn(|| 7).join()), 7);
    }

    #[test]
    fn pool_join_inside_a_task_steals_instead_of_deadlocking() {
        // On a ONE-worker pool, a task that spawns and joins a sibling
        // would deadlock if join only waited: the sibling's job can never
        // get a worker. Join must steal it and run it inline.
        let exec = Executor::pool(1);
        let got = exec.scope(|s| {
            s.spawn(|| {
                let inner = s.spawn(|| 41u64);
                inner.join() + 1
            })
            .join()
        });
        assert_eq!(got, 42);
    }

    #[test]
    fn outside_joins_on_a_one_worker_pool_never_add_a_runner() {
        // Joining from a thread outside the pool must wait for the worker,
        // never steal a queued task and run it beside the one the worker
        // is busy with: on pool(1), at most one task runs at any moment.
        let exec = Executor::pool(1);
        let active = AtomicUsize::new(0);
        let max_active = AtomicUsize::new(0);
        let order = Mutex::new(Vec::new());
        for _ in 0..200 {
            lock(&order).clear();
            exec.scope(|s| {
                let handles: Vec<_> = (0..4usize)
                    .map(|i| {
                        let (active, max_active, order) = (&active, &max_active, &order);
                        s.spawn(move || {
                            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                            max_active.fetch_max(now, Ordering::SeqCst);
                            lock(order).push(i);
                            std::hint::spin_loop();
                            active.fetch_sub(1, Ordering::SeqCst);
                        })
                    })
                    .collect();
                // Join out of spawn order: a stealing join would start
                // task 3 while the worker still runs an earlier one.
                for h in handles.into_iter().rev() {
                    h.join();
                }
            });
            assert_eq!(*lock(&order), vec![0, 1, 2, 3], "one runner, spawn order");
        }
        assert_eq!(max_active.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn panic_caught_at_join_does_not_fail_the_scope() {
        // Delivering a panic through join() hands it to the caller; if the
        // caller handles it, the scope must NOT re-raise it at close.
        let exec = Executor::pool(2);
        let r = exec.scope(|s| {
            let h = s.spawn(|| -> u32 { panic!("handled by the caller") });
            let caught = catch_unwind(AssertUnwindSafe(|| h.join()));
            assert!(caught.is_err());
            7u32
        });
        assert_eq!(r, 7);
    }

    #[test]
    fn unjoined_task_panic_fails_the_scope() {
        let exec = Executor::pool(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            exec.scope(|s| {
                let _ = s.spawn(|| panic!("silent failure?"));
            })
        }));
        assert!(caught.is_err(), "an unjoined panic must not be swallowed");
    }

    #[test]
    fn immediate_mode_is_deterministic_per_seed() {
        let order_for = |seed: u64| -> Vec<usize> {
            let exec = Executor::immediate(seed);
            let order = Mutex::new(Vec::new());
            let order_ref = &order;
            exec.scope(|s| {
                for i in 0..12usize {
                    let _ = s.spawn(move || lock(order_ref).push(i));
                }
            });
            order.into_inner().unwrap()
        };
        let a = order_for(5);
        assert_eq!(a.len(), 12);
        assert_eq!(a, order_for(5), "same seed must replay the same order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
        assert_ne!(
            a,
            order_for(6),
            "different seeds should permute the schedule (12! orders; collision ~0)"
        );
    }

    #[test]
    fn immediate_join_forces_inline_execution_in_join_order() {
        let exec = Executor::immediate(99);
        let order = Mutex::new(Vec::new());
        exec.scope(|s| {
            let h1 = s.spawn(|| lock(&order).push(1));
            let h2 = s.spawn(|| lock(&order).push(2));
            // Joining in reverse spawn order must run them in join order.
            h2.join();
            h1.join();
        });
        assert_eq!(order.into_inner().unwrap(), vec![2, 1]);
    }

    #[test]
    fn immediate_task_can_join_a_deferred_sibling_without_deadlock() {
        // Regression: run_deferred used to drain the queue wholesale, so a
        // running task joining a still-deferred sibling hung forever (the
        // sibling sat in a local batch where join could not find it). Try
        // several seeds so both orders — joiner first, sibling first — are
        // exercised.
        for seed in 0..8u64 {
            let exec = Executor::immediate(seed);
            let sum = Mutex::new(0u64);
            exec.scope(|s| {
                let sibling = s.spawn(|| 41u64);
                let _joiner = s.spawn(|| {
                    *lock(&sum) += sibling.join() + 1;
                });
            });
            assert_eq!(sum.into_inner().unwrap(), 42, "seed {seed}");
        }
    }

    #[test]
    fn immediate_tasks_can_spawn_more_tasks() {
        let exec = Executor::immediate(1);
        let count = AtomicUsize::new(0);
        exec.scope(|s| {
            for _ in 0..3 {
                let _ = s.spawn(|| {
                    count.fetch_add(1, Ordering::SeqCst);
                    let _inner = s.spawn(|| {
                        count.fetch_add(1, Ordering::SeqCst);
                    });
                });
            }
        });
        assert_eq!(count.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn from_env_honors_the_thread_knob() {
        // Constructors only — the env var itself belongs to CI.
        assert_eq!(Executor::pool(0).workers(), 1, "pool size clamps to 1");
        assert!(Executor::immediate(0).is_immediate());
        assert!(!Executor::pool(2).is_immediate());
        let e = Executor::from_env();
        assert!(e.workers() >= 1);
    }

    #[test]
    fn scope_closure_panic_still_waits_for_spawned_tasks() {
        let exec = Executor::pool(2);
        let done = Arc::new(AtomicUsize::new(0));
        let done2 = Arc::clone(&done);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            exec.scope(|s| {
                for _ in 0..4 {
                    let done = Arc::clone(&done2);
                    let _ = s.spawn(move || {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        done.fetch_add(1, Ordering::SeqCst);
                    });
                }
                panic!("closure dies before its tasks");
            })
        }));
        assert!(caught.is_err());
        // The unwind was delayed until every task completed.
        assert_eq!(done.load(Ordering::SeqCst), 4);
    }
}
