//! Persistent worker pool and the one chunk driver every pooled stage
//! runs on.
//!
//! The crate has three public pieces:
//!
//! - [`Pool`] — a persistent, lazily-grown set of worker threads.
//!   [`Pool::run`] executes a body closure once per worker index and
//!   blocks until all of them finish, re-raising the first panic on the
//!   caller like a scoped spawn would. The batch scheduler drives its
//!   per-job task graph with it directly.
//! - [`run_chunks`] — the chunk driver behind fragment evaluation, MLFT
//!   correction, the `4^k` recombination sweep and batch planning. Work
//!   is split into a fixed number of chunks that does not depend on the
//!   worker count; workers claim chunks in index order, the earliest
//!   failing chunk wins, panics are resolved before they unwind, and
//!   results merge in chunk order.
//! - [`worker_count`] — the one thread-count heuristic (request → env
//!   override → hardware default → clamp to the number of work items).
//!
//! # Ownership and lifecycle
//!
//! Workers are plain OS threads owned by the [`Pool`] that spawned them.
//! The process-wide pool ([`Pool::global`]) spawns workers on first
//! demand, grows when concurrent demand exceeds the number of idle
//! workers (nested `run` calls — e.g. a recombination running inside a
//! batch task — therefore still get real parallelism), and **never shrinks
//! or re-spawns**: consecutive `run_batch` calls reuse the same live
//! threads. Idle workers park on a condition variable and cost nothing but
//! their stacks. Locally constructed pools ([`Pool::new`], used by tests)
//! shut their workers down on drop.
//!
//! The **caller participates**: `Pool::run(n, body)` claims worker
//! indices for its own job on the calling thread too, so a job can never
//! deadlock waiting for pool capacity — with zero idle workers the caller
//! simply runs every index itself, and `n == 1` runs inline without
//! touching the pool at all. That is why [`run_chunks`] needs no separate
//! sequential path: at one worker the same claim loop runs on the caller.
//!
//! # Supervisor integration and panic safety
//!
//! The pool is supervision-agnostic: `faultkit::Supervisor` checkpoints
//! (cancellation, deadlines, fault injection) live inside the chunk
//! bodies. What the crate guarantees is containment: every index runs
//! under `catch_unwind`, the panic is re-raised on the *calling* thread
//! once the job completes, and pool threads never die from a task panic —
//! a panicking fault-injection run leaves the pool as healthy as a clean
//! one. Because unwinding still runs drop glue with
//! `std::thread::panicking()` true, abort-on-panic guards inside task
//! bodies (the batch scheduler's poison containment) keep working on
//! pooled threads. All internal locks use `faultkit`'s poison-recovering
//! accessors.
//!
//! # Bit-identity
//!
//! Scheduling never reaches results: chunk decomposition is a pure
//! function of the job, and [`run_chunks`] applies merges from a single
//! accumulator in strict chunk order, so outputs — and the reported
//! error — are identical for every worker count, including one.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use faultkit::{into_inner_or_recover, lock_or_recover, wait_or_recover};

// ---------------------------------------------------------------------------
// Thread-count heuristic
// ---------------------------------------------------------------------------

/// Resolves a requested thread count against the environment and a cap.
///
/// `requested > 0` is taken literally; `requested == 0` means "auto":
/// the `SUPERSIM_TEST_THREADS` environment variable when set to a positive
/// integer (so CI matrices pin the default pool width process-wide),
/// otherwise [`std::thread::available_parallelism`]. The result is clamped
/// to `[1, cap]` (a zero `cap` counts as 1) — pass the number of
/// independent work items as `cap` so a job never requests more workers
/// than it has tasks.
pub fn worker_count(requested: usize, cap: usize) -> usize {
    let n = if requested > 0 {
        requested
    } else {
        default_workers()
    };
    n.clamp(1, cap.max(1))
}

/// The "auto" worker count: `SUPERSIM_TEST_THREADS` when set, hardware
/// parallelism otherwise. Cached for the process lifetime.
pub fn default_workers() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        resolve_default(
            std::env::var("SUPERSIM_TEST_THREADS").ok().as_deref(),
            || std::thread::available_parallelism().map_or(1, usize::from),
        )
    })
}

fn resolve_default(env: Option<&str>, fallback: impl FnOnce() -> usize) -> usize {
    env.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(fallback)
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// A snapshot of pool health, used by reuse assertions and the benchmark
/// report.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers alive right now.
    pub live: usize,
    /// Workers ever spawned by this pool (monotone; a warm pool stops
    /// growing, which is what the persistence tests assert).
    pub spawned_total: usize,
    /// Workers currently parked waiting for work.
    pub idle: usize,
}

/// One submitted `run` call: a lifetime-erased body plus the claim/finish
/// bookkeeping. Workers claim indices (`next`) until `tickets` are
/// exhausted; the last finished index trips the latch the caller waits on.
struct Job {
    /// Erased `&dyn Fn(usize)` of the caller's body closure.
    ///
    /// SAFETY invariant: the submitting `Pool::run` frame outlives every
    /// dereference. It cannot return before `pending` reaches zero, and
    /// indices claimed after exhaustion never dereference the body.
    body: RawBody,
    tickets: usize,
    next: AtomicUsize,
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    latch: Condvar,
}

struct RawBody(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` (shared calls are safe) and the `Job`
// lifetime discipline above keeps it alive for every dereference.
unsafe impl Send for RawBody {}
unsafe impl Sync for RawBody {}

impl Job {
    /// Runs the body for one claimed index under `catch_unwind`,
    /// recording the first panic.
    fn exec(&self, index: usize) {
        // SAFETY: see the invariant on `body`.
        let body = unsafe { &*self.body.0 };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(index))) {
            let mut slot = lock_or_recover(&self.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
    }

    /// Marks one claimed index finished, tripping the completion latch on
    /// the last one.
    fn complete_one(&self) {
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            *lock_or_recover(&self.done) = true;
            self.latch.notify_all();
        }
    }

    /// [`exec`](Job::exec) + [`complete_one`](Job::complete_one) for the
    /// participating caller (workers interleave busy accounting between
    /// the two).
    fn run_ticket(&self, index: usize) {
        self.exec(index);
        self.complete_one();
    }
}

struct PoolState {
    jobs: VecDeque<Arc<Job>>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    work: Condvar,
    live: AtomicUsize,
    spawned_total: AtomicUsize,
    idle: AtomicUsize,
    /// Workers currently *executing a body* (not parked, not scanning).
    /// Decremented before a ticket's completion latch fires, so by the
    /// time a `run` call returns every helper it used reads as available
    /// again — growth decisions see the warm pool as warm, never spawning
    /// on back-to-back calls.
    busy: AtomicUsize,
}

/// A persistent, lazily-grown worker pool. See the crate docs for the
/// ownership/lifecycle story; most code should use [`Pool::global`].
pub struct Pool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new()
    }
}

impl Pool {
    /// A fresh pool with no workers; they spawn on demand. Intended for
    /// tests and benchmarks that need cold-start isolation — production
    /// paths share [`Pool::global`].
    pub fn new() -> Pool {
        Pool {
            shared: Arc::new(Shared {
                state: Mutex::new(PoolState {
                    jobs: VecDeque::new(),
                    shutdown: false,
                }),
                work: Condvar::new(),
                live: AtomicUsize::new(0),
                spawned_total: AtomicUsize::new(0),
                idle: AtomicUsize::new(0),
                busy: AtomicUsize::new(0),
            }),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// The process-wide pool every pipeline spawn site routes through.
    /// Never shuts down; workers persist across `run_batch` calls.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(Pool::new)
    }

    /// Current pool health counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            live: self.shared.live.load(Ordering::Relaxed),
            spawned_total: self.shared.spawned_total.load(Ordering::Relaxed),
            idle: self.shared.idle.load(Ordering::Relaxed),
        }
    }

    /// Executes `body(i)` once for every worker index `i in 0..workers`
    /// and returns when all of them have finished — the drop-in
    /// replacement for `thread::scope` + spawn loop.
    ///
    /// `workers <= 1` runs `body(0)` inline without touching the pool.
    /// Otherwise the calling thread participates (it claims indices too),
    /// idle pool workers help, and the pool grows by the idle deficit so
    /// nested calls retain real parallelism.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic from any `body(i)` on the calling thread
    /// after the whole job has completed, like a scoped spawn would.
    pub fn run<F>(&self, workers: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        if workers <= 1 {
            body(0);
            return;
        }
        let wide: &(dyn Fn(usize) + Sync) = &body;
        // SAFETY: lifetime erasure only — this frame blocks until
        // `pending == 0`, after which no dereference can happen (claims
        // past `tickets` never touch the body).
        let raw = RawBody(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(wide as *const _)
        });
        let job = Arc::new(Job {
            body: raw,
            tickets: workers,
            next: AtomicUsize::new(0),
            pending: AtomicUsize::new(workers),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            latch: Condvar::new(),
        });
        {
            let mut st = lock_or_recover(&self.shared.state);
            st.jobs.push_back(Arc::clone(&job));
        }
        // Grow by the availability deficit: the caller covers one index
        // itself, non-busy workers (parked or between jobs — they will
        // find the job we just pushed) cover more, and only the remainder
        // spawns. Nested `run` calls, whose ancestors hold every existing
        // worker busy, therefore still get `workers - 1` real helpers; a
        // warm pool with enough free workers spawns nothing.
        let live = self.shared.live.load(Ordering::Acquire);
        let busy = self.shared.busy.load(Ordering::Acquire);
        let deficit = (workers - 1).saturating_sub(live.saturating_sub(busy));
        for _ in 0..deficit {
            self.spawn_worker();
        }
        self.shared.work.notify_all();

        // Participate: claim and run indices on the calling thread.
        loop {
            let t = job.next.fetch_add(1, Ordering::Relaxed);
            if t >= job.tickets {
                break;
            }
            job.run_ticket(t);
        }
        // Retire the job from the queue (a helper may already have).
        {
            let mut st = lock_or_recover(&self.shared.state);
            if let Some(pos) = st.jobs.iter().position(|j| Arc::ptr_eq(j, &job)) {
                st.jobs.remove(pos);
            }
        }
        // Wait for indices claimed by helpers.
        let mut done = lock_or_recover(&job.done);
        while !*done {
            done = wait_or_recover(&job.latch, done);
        }
        drop(done);
        let payload = lock_or_recover(&job.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    fn spawn_worker(&self) {
        let shared = Arc::clone(&self.shared);
        let id = self.shared.spawned_total.fetch_add(1, Ordering::Relaxed);
        self.shared.live.fetch_add(1, Ordering::Relaxed);
        let handle = std::thread::Builder::new()
            .name(format!("supersim-rt-{id}"))
            .spawn(move || worker_loop(shared))
            .expect("failed to spawn pool worker");
        lock_or_recover(&self.handles).push(handle);
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = lock_or_recover(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in
            into_inner_or_recover(std::mem::replace(&mut self.handles, Mutex::new(Vec::new())))
        {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        // Park until there is a job (or shutdown).
        let job = {
            let mut st = lock_or_recover(&shared.state);
            loop {
                if st.shutdown {
                    shared.live.fetch_sub(1, Ordering::Relaxed);
                    return;
                }
                if let Some(job) = st.jobs.front() {
                    break Arc::clone(job);
                }
                shared.idle.fetch_add(1, Ordering::Relaxed);
                st = wait_or_recover(&shared.work, st);
                shared.idle.fetch_sub(1, Ordering::Relaxed);
            }
        };
        // Help drain it.
        loop {
            let t = job.next.fetch_add(1, Ordering::Relaxed);
            if t >= job.tickets {
                // Exhausted: retire it from the queue if still listed so
                // the next iteration sees fresh work.
                let mut st = lock_or_recover(&shared.state);
                if let Some(front) = st.jobs.front() {
                    if Arc::ptr_eq(front, &job) {
                        st.jobs.pop_front();
                    }
                }
                break;
            }
            // Busy only while executing the body, released before the
            // completion latch — see `Shared::busy`.
            shared.busy.fetch_add(1, Ordering::AcqRel);
            job.exec(t);
            shared.busy.fetch_sub(1, Ordering::AcqRel);
            job.complete_one();
        }
    }
}

// ---------------------------------------------------------------------------
// The chunk driver
// ---------------------------------------------------------------------------

/// Why a chunk stopped the run: its error, or the panic to re-raise.
enum Failure<E> {
    Error(E),
    Panic(Box<dyn Any + Send>),
}

/// Runs `work(chunk, scratch)` for every chunk in `0..num_chunks` on up to
/// `threads` pooled workers (resolved by [`worker_count`], so `0` means
/// auto) and folds the results into `acc` with `merge`, **in chunk
/// order**. Each worker builds one `scratch` and reuses it for every chunk
/// it claims.
///
/// The result is a pure function of the chunk decomposition, identical
/// for every worker count:
///
/// - workers claim chunks in ascending index order from one counter;
/// - the first failure in chunk order wins — a failing chunk lowers a
///   shared floor, chunks above the floor are skipped, chunks below it
///   still run, so the earliest failing chunk is always reached;
/// - a panicking chunk is a failure like an error: its index is resolved
///   first (no sibling is left waiting on the merge), and the panic is
///   re-raised on the caller only if no earlier chunk failed;
/// - merges are applied from one accumulator in strict chunk order, with
///   at most `workers` chunk results retained at a time.
///
/// One worker runs every chunk inline on the calling thread (see
/// [`Pool::run`]) through this same code.
///
/// # Errors
///
/// Returns the error of the earliest failing chunk; `acc` is dropped.
///
/// # Panics
///
/// Re-raises the panic of the earliest failing chunk when that chunk
/// panicked rather than returned an error.
pub fn run_chunks<S, T, A, E>(
    threads: usize,
    num_chunks: usize,
    scratch: impl Fn() -> S + Sync,
    work: impl Fn(usize, &mut S) -> Result<T, E> + Sync,
    acc: A,
    merge: impl FnMut(&mut A, T) + Send,
) -> Result<A, E>
where
    T: Send,
    A: Send,
    E: Send,
{
    let workers = worker_count(threads, num_chunks);
    let next = AtomicUsize::new(0);
    let floor = AtomicUsize::new(usize::MAX);
    let failure: Mutex<Option<(usize, Failure<E>)>> = Mutex::new(None);
    let merger = OrderedMerger::new(workers, acc, merge);
    Pool::global().run(workers, |_| {
        let mut scratch = scratch();
        loop {
            let chunk = next.fetch_add(1, Ordering::Relaxed);
            if chunk >= num_chunks {
                break;
            }
            if chunk > floor.load(Ordering::Relaxed) {
                // Claims only grow and the floor only falls, so every
                // later claim of this worker would be skipped too.
                merger.skip(chunk);
                break;
            }
            let failed = match catch_unwind(AssertUnwindSafe(|| work(chunk, &mut scratch))) {
                Ok(Ok(item)) => {
                    merger.submit(chunk, item);
                    continue;
                }
                Ok(Err(e)) => Failure::Error(e),
                Err(payload) => Failure::Panic(payload),
            };
            floor.fetch_min(chunk, Ordering::Relaxed);
            {
                let mut slot = lock_or_recover(&failure);
                if slot.as_ref().is_none_or(|(c, _)| chunk < *c) {
                    *slot = Some((chunk, failed));
                }
            }
            merger.skip(chunk);
            break;
        }
    });
    match into_inner_or_recover(failure) {
        None => Ok(merger.finish()),
        Some((_, Failure::Error(e))) => Err(e),
        Some((_, Failure::Panic(payload))) => resume_unwind(payload),
    }
}

// ---------------------------------------------------------------------------
// Streaming ordered merge
// ---------------------------------------------------------------------------

/// A streaming, strictly index-ordered reduction shared by concurrent
/// producers.
///
/// Workers call [`submit`](OrderedMerger::submit) with `(index, item)` as
/// chunks finish (in any order) or [`skip`](OrderedMerger::skip) for
/// indices that produced nothing (failed or fault-skipped chunks — every
/// *claimed* index must be accounted for exactly once). A single central
/// accumulator applies `merge(acc, item)` **in ascending index order**, so
/// float association is identical to a sequential loop that merged chunk
/// results one by one — that is the bit-identity guarantee.
///
/// At most `window` indices are in flight: a submit for an index at or
/// beyond `head + window` blocks until the head advances (bounded
/// retention — this is what lets the joint-reconstruction path keep its
/// dense per-chunk accumulators without a size cap). Deadlock-free as
/// long as claimed indices are each resolved by their claimant: the
/// holder of the smallest unresolved index is never blocked, and its
/// submission advances the head.
struct OrderedMerger<T, A, F: FnMut(&mut A, T)> {
    inner: Mutex<MergeState<T, A, F>>,
    space: Condvar,
}

struct MergeState<T, A, F> {
    head: usize,
    window: usize,
    /// Ring buffer indexed by `index % window`: `None` = unresolved,
    /// `Some(None)` = skipped, `Some(Some(t))` = pending item.
    slots: Vec<Option<Option<T>>>,
    acc: A,
    merge: F,
}

impl<T, A, F: FnMut(&mut A, T)> OrderedMerger<T, A, F> {
    /// A merger over `acc` with the given in-flight `window` (clamped to
    /// at least 1; pass the worker count — any window yields identical
    /// results, it only bounds retention).
    fn new(window: usize, acc: A, merge: F) -> OrderedMerger<T, A, F> {
        let window = window.max(1);
        let mut slots = Vec::with_capacity(window);
        slots.resize_with(window, || None);
        OrderedMerger {
            inner: Mutex::new(MergeState {
                head: 0,
                window,
                slots,
                acc,
                merge,
            }),
            space: Condvar::new(),
        }
    }

    /// Submits the item for `index`, blocking while the index is more
    /// than `window` ahead of the merge head.
    fn submit(&self, index: usize, item: T) {
        self.place(index, Some(item));
    }

    /// Resolves `index` with no item (failed / fault-skipped chunk).
    fn skip(&self, index: usize) {
        self.place(index, None);
    }

    fn place(&self, index: usize, item: Option<T>) {
        let mut st = lock_or_recover(&self.inner);
        while index >= st.head + st.window {
            st = wait_or_recover(&self.space, st);
        }
        debug_assert!(index >= st.head, "index {index} already merged");
        let pos = index % st.window;
        debug_assert!(st.slots[pos].is_none(), "duplicate submit for {index}");
        st.slots[pos] = Some(item);
        let mut advanced = false;
        loop {
            let MergeState {
                head,
                window,
                slots,
                acc,
                merge,
            } = &mut *st;
            let pos = *head % *window;
            match slots[pos].take() {
                Some(Some(item)) => {
                    merge(acc, item);
                    *head += 1;
                    advanced = true;
                }
                Some(None) => {
                    *head += 1;
                    advanced = true;
                }
                None => break,
            }
        }
        if advanced {
            drop(st);
            self.space.notify_all();
        }
    }

    /// Consumes the merger and returns the accumulator. Unresolved slots
    /// past the head are discarded (the error paths return before using
    /// the accumulator).
    fn finish(self) -> A {
        into_inner_or_recover(self.inner).acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_resolution() {
        assert_eq!(worker_count(4, 16), 4);
        assert_eq!(worker_count(4, 2), 2);
        assert_eq!(worker_count(7, 0), 1);
        // requested == 0 resolves through the cached default; whatever it
        // is, the clamp still applies.
        assert_eq!(worker_count(0, 1), 1);
        assert!(worker_count(0, usize::MAX) >= 1);
    }

    #[test]
    fn resolve_default_prefers_valid_env() {
        assert_eq!(resolve_default(Some("3"), || 8), 3);
        assert_eq!(resolve_default(Some(" 2 "), || 8), 2);
        assert_eq!(resolve_default(Some("0"), || 8), 8);
        assert_eq!(resolve_default(Some("nope"), || 8), 8);
        assert_eq!(resolve_default(None, || 8), 8);
    }

    #[test]
    fn run_executes_every_index_once() {
        let pool = Pool::new();
        for workers in [1usize, 2, 4, 8] {
            let hits: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
            pool.run(workers, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn single_worker_runs_inline_without_spawning() {
        let pool = Pool::new();
        let caller = std::thread::current().id();
        pool.run(1, |i| {
            assert_eq!(i, 0);
            assert_eq!(std::thread::current().id(), caller);
        });
        assert_eq!(pool.stats().spawned_total, 0);
    }

    #[test]
    fn pool_reuses_workers_across_runs() {
        let pool = Pool::new();
        pool.run(4, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let spawned_cold = pool.stats().spawned_total;
        assert_eq!(spawned_cold, 3, "caller participates: exactly n-1 spawns");
        // Back-to-back warm runs must not spawn: busy is released before
        // the completion latch, so a finished `run` always sees its
        // helpers as available again.
        for _ in 0..8 {
            pool.run(4, |_| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
        }
        assert_eq!(pool.stats().spawned_total, spawned_cold);
        assert_eq!(pool.stats().live, spawned_cold);
    }

    #[test]
    fn panics_propagate_to_caller_and_pool_survives() {
        let pool = Pool::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, |i| {
                if i == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool still works after a task panic.
        let count = AtomicUsize::new(0);
        pool.run(4, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn nested_runs_complete() {
        let pool = Pool::new();
        let count = AtomicUsize::new(0);
        pool.run(2, |_| {
            pool.run(3, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 6);
    }

    const WORKERS: [usize; 4] = [1, 2, 4, 8];

    #[test]
    fn run_chunks_runs_each_chunk_once() {
        for workers in WORKERS {
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            let scratches = AtomicUsize::new(0);
            let Ok(()) = run_chunks(
                workers,
                hits.len(),
                || scratches.fetch_add(1, Ordering::Relaxed),
                |i, _| Ok::<_, std::convert::Infallible>(hits[i].fetch_add(1, Ordering::Relaxed)),
                (),
                |_, _| {},
            );
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            assert!(
                scratches.load(Ordering::Relaxed) <= workers,
                "one scratch per worker"
            );
        }
    }

    #[test]
    fn run_chunks_merges_in_chunk_order() {
        for workers in WORKERS {
            // With a second worker, chunk 0 finishes only after chunk 1
            // has: the merge must still take chunk 0 first.
            let chunk1_done = std::sync::atomic::AtomicBool::new(false);
            let merged = run_chunks(
                workers,
                200,
                || (),
                |i, _| {
                    if i == 0 && workers > 1 {
                        while !chunk1_done.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    }
                    if i == 1 {
                        chunk1_done.store(true, Ordering::Release);
                    }
                    Ok::<_, ()>(i)
                },
                Vec::new(),
                |acc: &mut Vec<usize>, i| acc.push(i),
            );
            assert_eq!(
                merged,
                Ok((0..200).collect::<Vec<_>>()),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn run_chunks_reports_the_earliest_failing_chunk() {
        let n = 64;
        for failing in [vec![0, 17, 63], vec![17, 40], vec![63], vec![40, 63]] {
            for workers in WORKERS {
                let ran = AtomicUsize::new(0);
                let result = run_chunks(
                    workers,
                    n,
                    || (),
                    |i, _| {
                        ran.fetch_add(1, Ordering::Relaxed);
                        if failing.contains(&i) {
                            Err(i)
                        } else {
                            Ok(i)
                        }
                    },
                    0usize,
                    |acc, i| *acc += i,
                );
                assert_eq!(result, Err(failing[0]), "{failing:?} at {workers} workers");
                // Every chunk up to the earliest failure ran.
                assert!(ran.load(Ordering::Relaxed) > failing[0]);
            }
        }
    }

    #[test]
    fn run_chunks_reraises_a_panicking_chunk_and_the_pool_survives() {
        for workers in WORKERS {
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_chunks(
                    workers,
                    32,
                    || (),
                    |i, _| {
                        if i == 9 {
                            panic!("chunk {i}");
                        }
                        Ok::<_, ()>(i)
                    },
                    0usize,
                    |acc, i| *acc += i,
                )
            }));
            let payload = result.expect_err("the panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("chunk 9")
            );
            // An earlier error wins over a later panic, as it would in a
            // sequential loop.
            let result = run_chunks(
                workers,
                32,
                || (),
                |i, _| match i {
                    3 => Err(i),
                    9 => panic!("chunk {i}"),
                    _ => Ok(i),
                },
                0usize,
                |acc, i| *acc += i,
            );
            assert_eq!(result, Err(3), "{workers} workers");
            // The pool keeps working after the panic.
            let sum = run_chunks(
                workers,
                32,
                || (),
                |i, _| Ok::<_, ()>(i),
                0usize,
                |a, i| *a += i,
            );
            assert_eq!(sum, Ok((0..32).sum()), "{workers} workers");
        }
    }

    #[test]
    fn ordered_merger_merges_in_index_order() {
        // Submit out of order from several threads; the merge transcript
        // must still be 0, 1, 2, ... regardless of arrival order.
        let n = 64;
        let merger = OrderedMerger::new(4, Vec::new(), |acc: &mut Vec<usize>, x| acc.push(x));
        let next = AtomicUsize::new(0);
        Pool::new().run(4, |_| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            if i % 7 == 3 {
                merger.skip(i);
            } else {
                merger.submit(i, i);
            }
        });
        let out = merger.finish();
        let expect: Vec<usize> = (0..n).filter(|i| i % 7 != 3).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn ordered_merger_window_bounds_in_flight_items() {
        // With window 1 every submit is immediately merged, so the
        // high-index submitter must block until the head catches up.
        let merger = OrderedMerger::new(1, Vec::new(), |acc: &mut Vec<usize>, x| acc.push(x));
        Pool::new().run(2, |w| {
            if w == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
                merger.submit(0, 0);
            } else {
                merger.submit(1, 1); // blocks until index 0 merges
            }
        });
        let merged = merger.finish();
        assert_eq!(merged, vec![0, 1]);
    }
}
