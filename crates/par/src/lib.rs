//! Dependency-free structured parallelism for the Remp pipeline.
//!
//! The hot pipeline stages — candidate generation, similarity-vector
//! computation, partial-order pruning, per-source propagation and batch
//! scoring — are all *embarrassingly parallel*: independent per-item
//! computations over a slice whose results are only combined at the end.
//! This crate gives them one shared execution primitive on a
//! process-wide pool of persistent helper threads (the build environment
//! has no crates.io access, so no rayon):
//!
//! * [`Parallelism`] — the execution policy. [`Parallelism::Sequential`]
//!   runs everything inline (reproducibility tests, debugging),
//!   [`Parallelism::Fixed`] pins a worker count, and the default
//!   [`Parallelism::Auto`] resolves `REMP_THREADS` from the environment,
//!   falling back to [`std::thread::available_parallelism`].
//! * [`Parallelism::par_map`] / [`Parallelism::par_map_with`] /
//!   [`Parallelism::par_for_each`] — chunked fork-join maps with
//!   **deterministic result ordering**: the output is always
//!   element-for-element identical to the sequential map, regardless of
//!   thread count or scheduling. The pipeline leans on this hard — the
//!   parallel and sequential pipelines must produce *bit-identical*
//!   matches, metrics and question order (`tests/parallel_equivalence.rs`
//!   asserts it on every dataset preset).
//!
//! # The pool
//!
//! A crowd campaign is many short rounds, each a handful of `par_map`
//! calls, so a call must not pay for spawning and joining threads (nor
//! leave a fresh thread's malloc arena behind every time). The calling
//! thread works on its own job: it posts the job, then pulls chunks from
//! the same atomic counter as any helper that joins, so `Fixed(n)` uses
//! the caller plus at most `n − 1` helpers. Helpers are spawned lazily,
//! up to the largest count any call has asked for ([`helper_threads`]),
//! park on a condition variable when idle and are never joined. A spawn
//! that fails leaves fewer helpers; the caller can finish every chunk
//! alone.
//!
//! The job's closure borrows the caller's stack, so it reaches the
//! helpers as a lifetime-erased reference. The invariant that makes this
//! sound: a helper joins a job only while it is open, under the job's
//! lock, and the caller closes the job and waits for every helper that
//! joined before it returns — on unwind too.
//!
//! Panics propagate to the caller with their original payload. Nested
//! use (a `par_map` inside a `par_map` worker) and concurrent callers on
//! several OS threads are safe: a caller never waits for a helper to
//! join, only for the helpers that did, so a call whose helpers are all
//! busy runs on its caller alone.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Environment variable consulted by [`Parallelism::Auto`]: a positive
/// integer worker count (`1` forces sequential execution).
pub const THREADS_ENV: &str = "REMP_THREADS";

/// Target number of chunks handed to each worker thread. More than one
/// chunk per worker keeps the pool balanced when per-item cost is skewed
/// (e.g. high-degree entities during candidate generation); the work
/// queue is a single atomic counter, so extra chunks are nearly free.
const CHUNKS_PER_THREAD: usize = 4;

/// Execution policy for the pipeline's data-parallel stages.
///
/// The policy only controls *how* work is scheduled, never *what* is
/// computed: every mode produces identical results. It lives in
/// `RempConfig` (as `parallelism`) and is deliberately excluded from
/// anything semantic — checkpoints written under `Sequential` resume
/// cleanly under `Fixed(8)` and vice versa.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Parallelism {
    /// Run everything inline on the calling thread. The reference mode
    /// for reproducibility tests and the fallback on single-core hosts.
    Sequential,
    /// Use this many threads: the caller plus up to `n − 1` pool helpers
    /// (values `0` and `1` behave like [`Parallelism::Sequential`]).
    Fixed(usize),
    /// Resolve the worker count at call time: [`THREADS_ENV`] if set to a
    /// positive integer, otherwise [`std::thread::available_parallelism`].
    #[default]
    Auto,
}

impl Parallelism {
    /// The worker count this policy resolves to right now (≥ 1).
    ///
    /// `Auto` re-reads the environment on every call, so a test harness
    /// can flip [`THREADS_ENV`] between cases without rebuilding configs.
    pub fn threads(&self) -> usize {
        match *self {
            Parallelism::Sequential => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| thread::available_parallelism().map(|n| n.get()).unwrap_or(1)),
        }
    }

    /// `true` when the policy currently resolves to inline execution.
    pub fn is_sequential(&self) -> bool {
        self.threads() <= 1
    }

    /// Stable label for configs and checkpoints: `"sequential"`,
    /// `"auto"`, or `"fixed:N"`.
    pub fn label(&self) -> String {
        match *self {
            Parallelism::Sequential => "sequential".to_owned(),
            Parallelism::Auto => "auto".to_owned(),
            Parallelism::Fixed(n) => format!("fixed:{n}"),
        }
    }

    /// Inverse of [`Parallelism::label`]. Also accepts a bare positive
    /// integer (`"4"` ≡ `"fixed:4"`) for CLI convenience.
    pub fn from_label(label: &str) -> Option<Parallelism> {
        match label {
            "sequential" => Some(Parallelism::Sequential),
            "auto" => Some(Parallelism::Auto),
            other => {
                let raw = other.strip_prefix("fixed:").unwrap_or(other);
                let n: usize = raw.parse().ok()?;
                Some(if n <= 1 { Parallelism::Sequential } else { Parallelism::Fixed(n) })
            }
        }
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// Work is split into contiguous chunks (see [`chunk_size`]) pulled
    /// from an atomic queue by the calling thread and the pool's helpers.
    /// A panic in `f` resumes on the caller with its original payload.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.par_map_with(items, || (), |(), item| f(item))
    }

    /// [`Parallelism::par_map`] with per-worker scratch state: `init`
    /// runs at most once per participating thread, on its first chunk,
    /// and `f` receives the scratch mutably.
    ///
    /// The pipeline uses this for reusable buffers (a Dijkstra distance
    /// array, token scratch) whose *contents* must not change results —
    /// the scratch is an allocation cache, not a communication channel.
    pub fn par_map_with<T, U, S, I, F>(&self, items: &[T], init: I, f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> U + Sync,
    {
        let threads = self.threads();
        if threads <= 1 || items.len() <= 1 {
            let mut scratch = init();
            return items.iter().map(|item| f(&mut scratch, item)).collect();
        }

        let chunk = chunk_size(items.len(), threads);
        let num_chunks = items.len().div_ceil(chunk);
        let workers = threads.min(num_chunks);
        let next = AtomicUsize::new(0);
        let parts: Mutex<Vec<(usize, Vec<U>)>> = Mutex::new(Vec::with_capacity(num_chunks));

        // One participant's share: pull chunks until the queue is empty.
        // The scratch is made on the first chunk, so a helper that joins
        // after the last chunk was taken never runs `init`.
        let participate = || {
            let mut scratch = None;
            let mut local: Vec<(usize, Vec<U>)> = Vec::new();
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= num_chunks {
                    break;
                }
                let scratch = scratch.get_or_insert_with(&init);
                let start = index * chunk;
                let end = (start + chunk).min(items.len());
                let out: Vec<U> = items[start..end].iter().map(|item| f(scratch, item)).collect();
                local.push((index, out));
            }
            parts.lock().expect("a participant panicked while appending").append(&mut local);
        };
        POOL.run(workers - 1, &participate);

        let mut parts = parts.into_inner().expect("a participant panicked while appending");
        parts.sort_unstable_by_key(|&(index, _)| index);
        debug_assert_eq!(parts.len(), num_chunks, "every chunk is computed exactly once");
        parts.into_iter().flat_map(|(_, out)| out).collect()
    }

    /// Runs `f` on every item for its side effects (e.g. filling
    /// thread-safe per-item slots). Panics propagate like `par_map`.
    pub fn par_for_each<T, F>(&self, items: &[T], f: F)
    where
        T: Sync,
        F: Fn(&T) + Sync,
    {
        let _ = self.par_map(items, f);
    }
}

/// The chunk length `par_map` uses for `len` items on `threads` workers:
/// `len / (threads × 4)` rounded up, floored at 1 — about four chunks per
/// worker for balance without scheduling overhead.
pub fn chunk_size(len: usize, threads: usize) -> usize {
    len.div_ceil(threads.max(1) * CHUNKS_PER_THREAD).max(1)
}

/// Number of persistent helper threads the process-wide pool has spawned
/// so far. It grows only to the largest `threads() − 1` any call has
/// asked for, never with the number of calls.
pub fn helper_threads() -> usize {
    POOL.lock().helpers
}

/// The process-wide pool behind every parallel [`Parallelism::par_map_with`].
static POOL: Pool =
    Pool { queue: Mutex::new(Queue { jobs: VecDeque::new(), helpers: 0 }), wake: Condvar::new() };

/// Persistent helper threads plus the open jobs they may join.
struct Pool {
    queue: Mutex<Queue>,
    /// Idle helpers park here until a job is posted.
    wake: Condvar,
}

struct Queue {
    /// Open jobs, each with the number of helpers it may still take.
    jobs: VecDeque<(Arc<Job>, usize)>,
    /// Helpers spawned so far; they are never joined.
    helpers: usize,
}

/// One `par_map` call as the helpers see it.
struct Job {
    state: Mutex<JobState>,
    /// Signalled when the last joined helper leaves.
    finished: Condvar,
}

struct JobState {
    /// The caller's participation closure while the job is open; `None`
    /// once the caller has closed it.
    work: Option<&'static (dyn Fn() + Sync)>,
    /// Helpers that joined and have not yet returned.
    running: usize,
    /// The first panic a helper raised, re-raised on the caller.
    panic: Option<Box<dyn Any + Send>>,
}

impl Pool {
    /// The queue. Its lock is never held while user code runs, so it
    /// cannot be poisoned.
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `work` on the calling thread and on up to `helpers` pool
    /// threads at once, returning when every participant has finished.
    /// A helper's panic resumes here with its payload; a panic in the
    /// caller's own share unwinds only after the joined helpers are done.
    fn run(&'static self, helpers: usize, work: &(dyn Fn() + Sync)) {
        self.grow(helpers);
        // SAFETY: the reference is extended to `'static` only so helper
        // threads, which outlive this call, can hold it. A helper copies
        // it out of `JobState::work` and counts itself in `running` in
        // one critical section of the job's lock, and only while `work`
        // is `Some`. `Close`, dropped below on return and on unwind
        // alike, sets `work` to `None` and then waits under the same
        // lock until `running` is zero, so no helper starts after that
        // and none is still calling `work` when this frame, which owns
        // everything `work` borrows, is left.
        let erased =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(work) };
        let job = Arc::new(Job {
            state: Mutex::new(JobState { work: Some(erased), running: 0, panic: None }),
            finished: Condvar::new(),
        });
        if helpers > 0 {
            self.lock().jobs.push_back((Arc::clone(&job), helpers));
            for _ in 0..helpers {
                self.wake.notify_one();
            }
        }
        let close = Close { pool: self, job: &job };
        work();
        drop(close);
        let panic = job.lock().panic.take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// Spawns helpers until there are `wanted`. A failed spawn stops
    /// early: the caller can finish every chunk alone. The handles are
    /// dropped: a helper never returns, and it cannot panic, since
    /// [`Job::help`] catches the panics of the work it runs.
    fn grow(&'static self, wanted: usize) {
        let mut queue = self.lock();
        while queue.helpers < wanted {
            let spawned = thread::Builder::new()
                .name(format!("remp-par-{}", queue.helpers))
                .spawn(move || self.help_forever());
            if spawned.is_err() {
                break;
            }
            queue.helpers += 1;
        }
    }

    fn help_forever(&self) {
        loop {
            let job = {
                let mut queue = self.lock();
                loop {
                    if let Some((job, slots)) = queue.jobs.front_mut() {
                        let job = Arc::clone(job);
                        *slots -= 1;
                        if *slots == 0 {
                            queue.jobs.pop_front();
                        }
                        break job;
                    }
                    queue = self.wake.wait(queue).unwrap_or_else(PoisonError::into_inner);
                }
            };
            job.help();
        }
    }
}

impl Job {
    /// The job's state. Its lock is never held while user code runs, so
    /// it cannot be poisoned.
    fn lock(&self) -> MutexGuard<'_, JobState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Joins the job if it is still open and runs the caller's closure.
    fn help(&self) {
        let work = {
            let mut state = self.lock();
            let Some(work) = state.work else { return };
            state.running += 1;
            work
        };
        let result = catch_unwind(AssertUnwindSafe(work));
        let mut state = self.lock();
        state.running -= 1;
        if let Err(payload) = result {
            state.panic.get_or_insert(payload);
        }
        if state.running == 0 {
            self.finished.notify_all();
        }
    }
}

/// Closes a job when the caller's own share ends, normally or by
/// unwinding: withdraws it from the queue, stops further helpers from
/// joining, and waits for the ones that did.
struct Close<'a> {
    pool: &'a Pool,
    job: &'a Arc<Job>,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        self.pool.lock().jobs.retain(|(job, _)| !Arc::ptr_eq(job, self.job));
        let mut state = self.job.lock();
        state.work = None;
        while state.running > 0 {
            state = self.job.finished.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_input_yields_empty_output() {
        for par in [Parallelism::Sequential, Parallelism::Fixed(4), Parallelism::Auto] {
            let out: Vec<u64> = par.par_map(&[] as &[u64], |&x| x * 2);
            assert!(out.is_empty(), "{par:?}");
        }
    }

    #[test]
    fn singleton_runs_inline() {
        let out = Parallelism::Fixed(8).par_map(&[21u64], |&x| x * 2);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn ordering_matches_sequential_map() {
        let items: Vec<u64> = (0..1013).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(2654435761)).collect();
        for threads in [2, 3, 4, 7, 64] {
            let got = Parallelism::Fixed(threads).par_map(&items, |&x| x.wrapping_mul(2654435761));
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn chunk_sizing_covers_all_items_without_excess() {
        assert_eq!(chunk_size(0, 4), 1, "empty input still gets a positive chunk");
        assert_eq!(chunk_size(1, 4), 1);
        assert_eq!(chunk_size(16, 4), 1, "16 items on 4 workers → 16 single-item chunks");
        assert_eq!(chunk_size(1600, 4), 100);
        assert_eq!(chunk_size(1601, 4), 101, "remainders round the chunk up");
        assert_eq!(chunk_size(10, 0), 3, "a zero thread count is treated as one worker");
        // The invariant the pool relies on: chunks of this size tile the
        // whole input.
        for (len, threads) in [(1, 1), (5, 2), (1000, 3), (1024, 16), (7, 64)] {
            let c = chunk_size(len, threads);
            assert!(c * len.div_ceil(c) >= len, "len {len}, threads {threads}");
        }
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let items: Vec<u32> = (0..256).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            Parallelism::Fixed(4).par_map(&items, |&x| {
                assert!(x != 97, "poisoned item 97");
                x
            })
        }));
        let payload = result.expect_err("panic must cross the pool boundary");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        assert!(message.contains("poisoned item 97"), "original payload kept: {message:?}");
    }

    #[test]
    fn nested_par_map_is_safe_and_ordered() {
        let outer: Vec<u64> = (0..24).collect();
        let got = Parallelism::Fixed(3).par_map(&outer, |&x| {
            let inner: Vec<u64> = (0..16).collect();
            Parallelism::Fixed(2).par_map(&inner, |&y| x * 100 + y).iter().sum::<u64>()
        });
        let expected: Vec<u64> =
            outer.iter().map(|&x| (0..16).map(|y| x * 100 + y).sum()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn scratch_is_per_worker_and_results_stay_ordered() {
        let items: Vec<usize> = (0..500).collect();
        let inits = AtomicUsize::new(0);
        let got = Parallelism::Fixed(4).par_map_with(
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::new()
            },
            |scratch, &x| {
                scratch.push(x); // scratch grows, results must not care
                x * 3
            },
        );
        assert_eq!(got, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
        assert!(inits.load(Ordering::Relaxed) <= 4, "one scratch per worker at most");
    }

    #[test]
    fn par_for_each_visits_every_item() {
        let items: Vec<usize> = (0..300).collect();
        let sum = AtomicUsize::new(0);
        Parallelism::Fixed(4).par_for_each(&items, |&x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 300 * 299 / 2);
    }

    #[test]
    fn labels_round_trip() {
        for par in [Parallelism::Sequential, Parallelism::Auto, Parallelism::Fixed(6)] {
            assert_eq!(Parallelism::from_label(&par.label()), Some(par));
        }
        assert_eq!(Parallelism::from_label("4"), Some(Parallelism::Fixed(4)));
        assert_eq!(Parallelism::from_label("1"), Some(Parallelism::Sequential));
        assert_eq!(Parallelism::from_label("fixed:0"), Some(Parallelism::Sequential));
        assert_eq!(Parallelism::from_label("bogus"), None);
        assert_eq!(Parallelism::from_label("fixed:x"), None);
    }

    #[test]
    fn thread_counts_resolve() {
        assert_eq!(Parallelism::Sequential.threads(), 1);
        assert_eq!(Parallelism::Fixed(0).threads(), 1);
        assert_eq!(Parallelism::Fixed(5).threads(), 5);
        assert!(Parallelism::Auto.threads() >= 1);
        assert!(Parallelism::Sequential.is_sequential());
        assert!(!Parallelism::Fixed(8).is_sequential());
    }
}
