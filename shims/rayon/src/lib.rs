//! Offline stand-in for the [`rayon`](https://crates.io/crates/rayon) crate.
//!
//! The build environment has no access to crates.io, so this shim provides
//! the data-parallel API subset the workspace uses — `par_iter`,
//! `into_par_iter`, `par_chunks_mut`, with `map` / `enumerate` / `for_each` /
//! `collect` / `sum` — executed on a **persistent work-stealing pool**
//! (the private `pool` module) instead of rayon's full scheduler.
//!
//! The pool is lazily initialized on the first parallel call and keeps
//! `available_parallelism() - 1` worker threads alive for the life of the
//! process; the calling thread always participates as the final executor.
//! Like upstream rayon, the `RAYON_NUM_THREADS` environment variable
//! overrides the pool size: a positive integer `t` means "t executors
//! total" (so `t - 1` background workers — `RAYON_NUM_THREADS=1` runs
//! everything inline on the caller), which makes bench runs reproducible
//! across containers whose `available_parallelism` differs. Unparseable or
//! zero values fall back to the detected parallelism.
//! Every parallel call splits its items into contiguous chunks, pushes them
//! onto a shared chunk deque, and idle workers steal chunks until the job
//! drains. Compared to the previous `std::thread::scope` fork/join design,
//! the thousands of small matmuls per training epoch no longer pay a
//! thread-spawn/join round trip per call.
//!
//! Result order always matches input order and each output slot is produced
//! by exactly one chunk with a fixed, size-derived boundary, so results are
//! byte-identical to the sequential path regardless of which thread runs
//! which chunk. Substituting this shim for rayon is behaviour-preserving.

/// Everything call sites need, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

/// Persistent work-stealing thread pool shared by every parallel call.
mod pool {
    use std::any::Any;
    use std::collections::VecDeque;
    use std::num::NonZeroUsize;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Condvar, Mutex, Once, OnceLock};

    /// A unit of work: one contiguous chunk of a parallel call. The `'static`
    /// bound is erased from caller-borrowing closures in [`run_borrowed`],
    /// which is sound because [`run`] blocks until every task has finished.
    pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

    /// One parallel call in flight: its undistributed chunks plus completion
    /// tracking. Workers steal chunks from the front; the submitting thread
    /// drains the same deque until it is empty, then waits for stragglers.
    struct Job {
        queue: Mutex<VecDeque<Task>>,
        status: Mutex<JobStatus>,
        done: Condvar,
    }

    struct JobStatus {
        /// Tasks not yet finished (distributed or not).
        remaining: usize,
        /// First panic payload observed, re-raised on the submitting thread.
        panic: Option<Box<dyn Any + Send>>,
    }

    /// Jobs that still have chunks to hand out.
    struct PoolState {
        jobs: VecDeque<Arc<Job>>,
    }

    pub(crate) struct Pool {
        state: Mutex<PoolState>,
        work_available: Condvar,
        workers: usize,
        started: Once,
    }

    static POOL: OnceLock<Pool> = OnceLock::new();

    std::thread_local! {
        /// Stable index of the current pool worker (`0..workers`), `None` on
        /// every thread the pool did not spawn — including the caller, which
        /// participates in jobs but is not a worker. Mirrors upstream
        /// rayon's `current_thread_index` semantics.
        static WORKER_INDEX: std::cell::Cell<Option<usize>> =
            const { std::cell::Cell::new(None) };
    }

    /// The calling thread's pool-worker index, if it is a pool worker.
    pub(crate) fn current_worker_index() -> Option<usize> {
        WORKER_INDEX.with(std::cell::Cell::get)
    }

    /// Background workers to spawn: `RAYON_NUM_THREADS` executors when set
    /// to a positive integer (minus the participating caller), otherwise
    /// the detected parallelism (minus the caller).
    pub(crate) fn configured_workers(env: Option<&str>, available: usize) -> usize {
        let executors = env
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or(available.max(1));
        executors - 1
    }

    /// The global pool, spawning its workers on first use.
    pub(crate) fn global() -> &'static Pool {
        let pool = POOL.get_or_init(|| Pool {
            state: Mutex::new(PoolState {
                jobs: VecDeque::new(),
            }),
            work_available: Condvar::new(),
            workers: configured_workers(
                std::env::var("RAYON_NUM_THREADS").ok().as_deref(),
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1),
            ),
            started: Once::new(),
        });
        pool.started.call_once(|| {
            for index in 0..pool.workers {
                // Detached daemon threads: they park on the condvar whenever
                // no job has chunks left and die with the process.
                std::thread::spawn(move || {
                    WORKER_INDEX.with(|slot| slot.set(Some(index)));
                    worker_loop(POOL.get().expect("pool initialized"))
                });
            }
        });
        pool
    }

    /// Number of executors a parallel call can count on (workers + caller).
    pub(crate) fn executors() -> usize {
        global().workers + 1
    }

    fn worker_loop(pool: &'static Pool) {
        loop {
            let stolen = {
                let mut state = pool.state.lock().expect("pool state lock");
                loop {
                    let mut found = None;
                    while let Some(job) = state.jobs.front() {
                        let mut queue = job.queue.lock().expect("job queue lock");
                        if let Some(task) = queue.pop_front() {
                            let job = Arc::clone(job);
                            let empty = queue.is_empty();
                            drop(queue);
                            if empty {
                                // Nothing left to distribute; retire the job
                                // from the steal list (stragglers keep running).
                                state.jobs.pop_front();
                            }
                            found = Some((job, task));
                            break;
                        }
                        drop(queue);
                        state.jobs.pop_front();
                    }
                    match found {
                        Some(pair) => break pair,
                        None => {
                            state = pool.work_available.wait(state).expect("pool condvar wait");
                        }
                    }
                }
            };
            let (job, task) = stolen;
            finish_task(&job, task);
        }
    }

    /// Run one task and record its completion (and any panic) on the job.
    fn finish_task(job: &Job, task: Task) {
        let result = catch_unwind(AssertUnwindSafe(task));
        let mut status = job.status.lock().expect("job status lock");
        status.remaining -= 1;
        if let Err(payload) = result {
            status.panic.get_or_insert(payload);
        }
        if status.remaining == 0 {
            job.done.notify_all();
        }
    }

    /// Execute `'static` tasks to completion on the pool. The calling thread
    /// participates, so this also makes nested parallelism deadlock-free: a
    /// worker that submits a sub-job drains that sub-job itself even when
    /// every other worker is busy.
    pub(crate) fn run(tasks: Vec<Task>) {
        let pool = global();
        if pool.workers == 0 || tasks.len() <= 1 {
            for task in tasks {
                task();
            }
            return;
        }
        let n_tasks = tasks.len();
        let job = Arc::new(Job {
            queue: Mutex::new(tasks.into()),
            status: Mutex::new(JobStatus {
                remaining: n_tasks,
                panic: None,
            }),
            done: Condvar::new(),
        });
        {
            let mut state = pool.state.lock().expect("pool state lock");
            state.jobs.push_back(Arc::clone(&job));
        }
        pool.work_available.notify_all();

        // Caller participates until its own chunk deque drains.
        loop {
            let task = job.queue.lock().expect("job queue lock").pop_front();
            match task {
                Some(task) => finish_task(&job, task),
                None => break,
            }
        }
        // Workers may not have reached the job before the caller drained it.
        {
            let mut state = pool.state.lock().expect("pool state lock");
            state.jobs.retain(|other| !Arc::ptr_eq(other, &job));
        }
        let mut status = job.status.lock().expect("job status lock");
        while status.remaining > 0 {
            status = job.done.wait(status).expect("job done wait");
        }
        if let Some(payload) = status.panic.take() {
            drop(status);
            resume_unwind(payload);
        }
    }

    /// Execute tasks that borrow from the caller's stack.
    ///
    /// # Safety
    ///
    /// Sound because [`run`] does not return until every task has executed
    /// (or panicked), so no borrow outlives this call; tasks are `FnOnce`
    /// and cannot be retained by the pool.
    pub(crate) fn run_borrowed(tasks: Vec<Box<dyn FnOnce() + Send + '_>>) {
        // SAFETY: see above — the borrowed lifetime is strictly contained in
        // this call, which blocks until all tasks are consumed.
        let tasks: Vec<Task> = unsafe { std::mem::transmute(tasks) };
        run(tasks);
    }
}

/// Pointer wrapper so disjoint result slots can be written from pool threads.
struct SendPtr<T>(*mut T);
// SAFETY: each task writes through a distinct, pre-allocated slot; the caller
// blocks until all tasks finish before reading.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

fn chunk_count(work_items: usize) -> usize {
    // A few chunks per executor lets idle threads steal from slow ones while
    // keeping per-chunk overhead (one box + two deque ops) negligible.
    (pool::executors() * 4).min(work_items).max(1)
}

/// Map `f` over `items` on the pool, preserving input order.
fn par_map<T, R, F>(items: Vec<T>, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let chunks = chunk_count(n);
    if chunks <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk_size = n.div_ceil(chunks);
    let mut pending: Vec<Vec<T>> = Vec::with_capacity(chunks);
    let mut items = items;
    while !items.is_empty() {
        let rest = items.split_off(items.len().min(chunk_size));
        pending.push(std::mem::replace(&mut items, rest));
    }
    let mut results: Vec<Option<Vec<R>>> = (0..pending.len()).map(|_| None).collect();
    let out = SendPtr(results.as_mut_ptr());
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = pending
        .into_iter()
        .enumerate()
        .map(|(slot, chunk)| {
            let out = &out;
            Box::new(move || {
                let mapped: Vec<R> = chunk.into_iter().map(f).collect();
                // SAFETY: `slot` indexes a live, distinct element of `results`.
                unsafe { *out.0.add(slot) = Some(mapped) };
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool::run_borrowed(tasks);
    results
        .into_iter()
        .flat_map(|slot| slot.expect("pool task completed"))
        .collect()
}

/// An eager "parallel iterator": the items are materialised up front and the
/// terminal operation fans them out across the pool.
pub struct ParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Pair every item with its index, like `Iterator::enumerate`.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Lazily attach a map stage, applied in parallel by the terminal op.
    pub fn map<R, F>(self, f: F) -> ParMap<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Run `f` over every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        par_map(self.items, &|item| f(item));
    }
}

/// A mapped parallel iterator awaiting its terminal operation.
pub struct ParMap<T: Send, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, F> ParMap<T, F> {
    /// Apply the map in parallel and collect in input order.
    pub fn collect<R, C>(self) -> C
    where
        R: Send,
        F: Fn(T) -> R + Sync,
        C: FromIterator<R>,
    {
        par_map(self.items, &self.f).into_iter().collect()
    }

    /// Apply the map in parallel and sum the results.
    pub fn sum<R>(self) -> R
    where
        R: Send + std::iter::Sum<R>,
        F: Fn(T) -> R + Sync,
    {
        par_map(self.items, &self.f).into_iter().sum()
    }

    /// Run the mapped closure for its side effects.
    pub fn for_each(self)
    where
        F: Fn(T) + Sync,
    {
        par_map(self.items, &|item| (self.f)(item));
    }
}

/// Conversion into a parallel iterator by value (`0..n`, `Vec<T>`, arrays).
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// Materialise into an eager parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter {
            items: self.collect(),
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// `par_iter` over shared slices (and anything that derefs to a slice).
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `&T` in order.
    fn par_iter(&self) -> ParIter<&T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<&T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

/// `par_chunks_mut` over exclusive slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over non-overlapping mutable chunks, in order.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T]> {
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

/// Number of executors available to a parallel call — the pool's persistent
/// workers plus the calling thread, so always at least `1`. A return of `1`
/// means there are no workers and every parallel call runs inline on the
/// caller. Exposed for tests and diagnostics, mirroring upstream rayon's
/// function of the same name.
pub fn current_num_threads() -> usize {
    pool::executors()
}

/// The current thread's index within the pool, or `None` if the thread is
/// not a pool worker (the calling thread, even while executing chunks of a
/// job, is *not* a worker). Worker indices are stable for the life of the
/// process and lie in `0..current_num_threads() - 1`. Mirrors upstream
/// rayon's function of the same name; callers use it to key per-thread
/// scratch space (e.g. the packed-matmul pack buffers) without contention.
pub fn current_thread_index() -> Option<usize> {
    pool::current_worker_index()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn worker_count_override_parses_like_rayon() {
        use crate::pool::configured_workers;
        // `RAYON_NUM_THREADS=t` means t executors total → t-1 workers.
        assert_eq!(configured_workers(Some("1"), 8), 0);
        assert_eq!(configured_workers(Some("4"), 8), 3);
        assert_eq!(configured_workers(Some(" 2 "), 1), 1);
        // Unset, unparseable or zero fall back to detected parallelism.
        assert_eq!(configured_workers(None, 8), 7);
        assert_eq!(configured_workers(Some("0"), 4), 3);
        assert_eq!(configured_workers(Some("lots"), 4), 3);
        assert_eq!(configured_workers(None, 0), 0);
    }

    #[test]
    fn map_collect_preserves_order() {
        let squares: Vec<usize> = (0..1000).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares, (0..1000).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_sum_matches_sequential() {
        let values: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let total: f64 = values.par_iter().map(|&v| v * 0.5).sum();
        assert_eq!(total, values.iter().map(|&v| v * 0.5).sum::<f64>());
    }

    #[test]
    fn par_chunks_mut_touches_every_chunk_once() {
        let mut data = vec![0u64; 103];
        data.par_chunks_mut(10)
            .enumerate()
            .for_each(|(i, chunk)| chunk.iter_mut().for_each(|v| *v = i as u64 + 1));
        assert!(data.iter().all(|&v| v > 0));
        assert_eq!(data[0], 1);
        assert_eq!(data[102], 11);
    }

    #[test]
    fn actually_runs_on_multiple_threads_when_available() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        (0..64).into_par_iter().for_each(|_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let distinct = seen.lock().unwrap().len();
        let expected = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(
            distinct >= expected.min(2),
            "saw {distinct} threads, expected at least {}",
            expected.min(2)
        );
    }

    #[test]
    fn pool_survives_repeated_calls() {
        // The persistent pool must stay healthy across many small jobs (the
        // training hot path issues thousands per epoch).
        for round in 0..200 {
            let out: Vec<usize> = (0..32).into_par_iter().map(|i| i + round).collect();
            assert_eq!(out, (0..32).map(|i| i + round).collect::<Vec<_>>());
        }
    }

    #[test]
    fn nested_parallelism_completes() {
        // A parallel call issued from inside a pool task must not deadlock:
        // the submitting thread drains its own sub-job.
        let totals: Vec<usize> = (0..8)
            .into_par_iter()
            .map(|i| (0..64).into_par_iter().map(|j| i * j).sum::<usize>())
            .collect();
        let expected: Vec<usize> = (0..8).map(|i| (0..64).map(|j| i * j).sum()).collect();
        assert_eq!(totals, expected);
    }

    #[test]
    fn thread_index_is_none_on_caller_and_bounded_on_workers() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        // Outside any pool context the calling thread has no index.
        assert_eq!(crate::current_thread_index(), None);
        let max_workers = crate::current_num_threads() - 1;
        let seen: Mutex<HashSet<Option<usize>>> = Mutex::new(HashSet::new());
        (0..128).into_par_iter().for_each(|_| {
            let idx = crate::current_thread_index();
            if let Some(i) = idx {
                assert!(i < max_workers, "worker index {i} out of range");
            }
            seen.lock().unwrap().insert(idx);
            std::thread::sleep(std::time::Duration::from_micros(200));
        });
        // The caller participates in every job, so `None` must appear
        // whenever it executed at least one chunk; with zero workers it is
        // the only executor.
        if max_workers == 0 {
            assert_eq!(seen.lock().unwrap().len(), 1);
            assert!(seen.lock().unwrap().contains(&None));
        }
        // And the index is stable: re-running must not invent new indices.
        let before: HashSet<Option<usize>> = seen.lock().unwrap().clone();
        (0..128).into_par_iter().for_each(|_| {
            let idx = crate::current_thread_index();
            assert!(
                idx.is_none() || idx.is_some_and(|i| i < max_workers),
                "unstable index {idx:?}"
            );
        });
        assert!(before.len() <= max_workers + 1);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            (0..128).into_par_iter().for_each(|i| {
                if i == 77 {
                    panic!("boom from task");
                }
            });
        });
        assert!(result.is_err(), "worker panic must reach the caller");
        // The pool must still work afterwards.
        let sum: usize = (0..100).into_par_iter().map(|i| i).sum();
        assert_eq!(sum, 4950);
    }
}
