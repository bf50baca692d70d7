//! Process-lifetime worker pool behind [`crate::batch::parallel_map`].
//!
//! Before this module existed, every `parallel_map` call spawned fresh
//! scoped threads — fine for one-shot CLI runs, but a
//! resident server paying a thread spawn + join per admission batch
//! wastes latency on the hottest path. The pool spawns its workers
//! once (lazily, on first parallel call) and keeps them parked on a
//! condvar; a parallel region just pushes closures onto the shared
//! queue and blocks until its completion latch opens.
//!
//! ## Scoped execution over 'static workers
//!
//! Pool workers are ordinary detached threads, so the jobs they run
//! must be `'static` — but `parallel_map` closures borrow the caller's
//! stack (the input slice, the output slice, the mapping function).
//! [`run_scoped`] bridges the gap the same way rayon does
//! internally: it transmutes the job's lifetime away **and blocks the
//! caller on a latch until every job has finished running** (even when
//! a job panics), so no borrow ever outlives its frame. The unsafe is
//! confined to that one transmute; the latch discipline is what makes
//! it sound.
//!
//! ## Nesting
//!
//! A parallel region entered *from inside a pool worker* runs serially
//! ([`in_worker`] short-circuits): with every worker potentially
//! blocked waiting for sub-jobs that no free worker can run, nested
//! fan-out would deadlock the pool. Serial nesting matches the
//! system's existing discipline — `batch_search` workers already run
//! their per-level batches with `threads = 1` to avoid
//! oversubscription.
//!
//! ## Panics
//!
//! A panicking job never kills a pool worker: the payload is captured,
//! the latch still counts down, and the *caller* of the parallel
//! region re-raises the first captured payload once all jobs are done
//! — observable behaviour identical to the scoped-thread code this
//! replaces.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A job as the worker threads see it: erased, owned, `'static`.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The shared pool: a queue of pending jobs and the workers parked on
/// it. One per process, created by [`pool`].
pub struct WorkerPool {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    workers: usize,
}

static POOL: OnceLock<&'static WorkerPool> = OnceLock::new();

thread_local! {
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is a pool worker. Parallel entry points
/// use this to run nested regions serially instead of deadlocking the
/// pool (see module docs).
pub fn in_worker() -> bool {
    IS_POOL_WORKER.with(|c| c.get())
}

/// The process-wide pool, spawning its workers on first use. Worker
/// count is the machine's available parallelism; callers may still
/// request more chunks than workers — excess jobs queue and the
/// results are identical either way.
pub fn pool() -> &'static WorkerPool {
    POOL.get_or_init(|| {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let p: &'static WorkerPool = Box::leak(Box::new(WorkerPool {
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            workers,
        }));
        for i in 0..workers {
            std::thread::Builder::new()
                .name(format!("hos-pool-{i}"))
                .spawn(move || p.worker_loop())
                .expect("spawning pool worker");
        }
        p
    })
}

/// Number of worker threads the pool runs (callers' `threads` argument
/// above this just queues — still correct, no extra concurrency).
pub fn pool_size() -> usize {
    pool().workers
}

impl WorkerPool {
    fn worker_loop(&self) {
        IS_POOL_WORKER.with(|c| c.set(true));
        loop {
            let job = {
                let mut q = self.queue.lock().expect("pool queue poisoned");
                loop {
                    match q.pop_front() {
                        Some(job) => break job,
                        None => q = self.job_ready.wait(q).expect("pool queue poisoned"),
                    }
                }
            };
            // The job is a run_scoped wrapper that catches its own
            // panics; nothing here can unwind the worker.
            job();
        }
    }

    fn submit(&self, jobs: Vec<Job>) {
        let mut q = self.queue.lock().expect("pool queue poisoned");
        q.extend(jobs);
        self.job_ready.notify_all();
    }
}

/// Completion latch for one scoped parallel region: counts pool-run
/// jobs down to zero and carries the first panic payload across the
/// thread boundary.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn record_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = self.panic.lock().expect("latch poisoned");
        slot.get_or_insert(payload);
    }

    fn count_down(&self) {
        let mut r = self.remaining.lock().expect("latch poisoned");
        *r -= 1;
        if *r == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut r = self.remaining.lock().expect("latch poisoned");
        while *r > 0 {
            r = self.done.wait(r).expect("latch poisoned");
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send + 'static>> {
        self.panic.lock().expect("latch poisoned").take()
    }
}

/// Runs every task to completion, the first on the calling thread and
/// the rest on the pool, returning only when all have finished. Tasks
/// may borrow from the caller's stack — that is the point.
///
/// If any task panics, the first captured payload is re-raised here
/// (after all tasks have completed, so borrowed state stays valid
/// through the unwind). Called from inside a pool worker, all tasks
/// run inline on the caller (see module docs on nesting).
pub fn run_scoped<'scope>(tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
    let n = tasks.len();
    if n == 0 {
        return;
    }
    if n == 1 || in_worker() {
        for t in tasks {
            t();
        }
        return;
    }
    let latch = Arc::new(Latch::new(n - 1));
    let mut tasks = tasks.into_iter();
    let caller_task = tasks.next().expect("n >= 2");
    let jobs: Vec<Job> = tasks
        .map(|t| {
            let l = Arc::clone(&latch);
            let wrapped: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(t)) {
                    l.record_panic(payload);
                }
                l.count_down();
            });
            // SAFETY: the transmute only erases the `'scope` lifetime;
            // vtable and layout are unchanged. The borrows inside the
            // job stay valid because this function does not return (or
            // unwind) until `latch.wait()` has observed every job
            // finished — the job can never run after its borrowed
            // frame is gone.
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(wrapped) }
        })
        .collect();
    pool().submit(jobs);
    // The caller is a worker too: it runs the first chunk while the
    // pool works the rest, then blocks until the region completes.
    let caller_result = catch_unwind(AssertUnwindSafe(caller_task));
    latch.wait();
    if let Some(payload) = latch.take_panic() {
        resume_unwind(payload);
    }
    if let Err(payload) = caller_result {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_task_exactly_once() {
        let hits = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..37)
            .map(|_| {
                Box::new(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_scoped(tasks);
        assert_eq!(hits.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn tasks_borrow_caller_stack() {
        let mut out = [0u64; 8];
        {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = out
                .chunks_mut(2)
                .enumerate()
                .map(|(i, chunk)| {
                    Box::new(move || {
                        for (j, slot) in chunk.iter_mut().enumerate() {
                            *slot = (i * 2 + j) as u64 * 10;
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_scoped(tasks);
        }
        assert_eq!(out, [0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn empty_and_single() {
        run_scoped(Vec::new());
        let ran = AtomicUsize::new(0);
        run_scoped(vec![Box::new(|| {
            ran.fetch_add(1, Ordering::Relaxed);
        }) as Box<dyn FnOnce() + Send + '_>]);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panicking_task_propagates_to_caller_after_completion() {
        let survivors = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
                .map(|i| {
                    let survivors = &survivors;
                    Box::new(move || {
                        if i == 3 {
                            panic!("job 3 exploded");
                        }
                        survivors.fetch_add(1, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_scoped(tasks);
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, "job 3 exploded");
        // Every non-panicking job still ran to completion.
        assert_eq!(survivors.load(Ordering::Relaxed), 7);
        // …and the pool still works afterwards.
        let after = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    after.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        run_scoped(tasks);
        assert_eq!(after.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        std::thread::scope(|s| {
            for caller in 0..4 {
                s.spawn(move || {
                    let total = AtomicUsize::new(0);
                    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16)
                        .map(|i| {
                            let total = &total;
                            Box::new(move || {
                                total.fetch_add(i + caller, Ordering::Relaxed);
                            }) as Box<dyn FnOnce() + Send + '_>
                        })
                        .collect();
                    run_scoped(tasks);
                    assert_eq!(total.load(Ordering::Relaxed), 120 + 16 * caller);
                });
            }
        });
    }

    #[test]
    fn pool_size_is_positive() {
        assert!(pool_size() >= 1);
    }
}
