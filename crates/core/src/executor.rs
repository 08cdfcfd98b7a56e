//! Parallel sweep execution: a work-distributing thread pool for fanning
//! independent tasks across CPU cores. The sweep submits one task per
//! `(source, model identity)`: each trains one model and scores all of
//! its configurations (see `ExperimentRunner::sweep_jobs`).
//!
//! # Design
//!
//! [`run_tasks`] pushes every index-tagged task into an unbounded
//! [`crossbeam::channel`], spawns `jobs` scoped workers that each pull the
//! next task the moment they finish the previous one (natural load
//! balancing — a cheap TN task never waits behind an HDP task), and sorts the
//! index-tagged results back into input order. Because each run derives all
//! of its randomness from fixed seeds (see the audit below), the output is
//! **byte-identical regardless of `jobs` or scheduling**, except for the
//! wall-clock `train_time`/`test_time` fields of each measurement.
//!
//! # Send/Sync audit
//!
//! The sweep closure captures `&ExperimentRunner` (which borrows
//! [`crate::prepare::PreparedCorpus`]) plus `&RunnerOptions`. All of these
//! are plain owned data — `Vec`s, `HashMap`s, strings, numbers — with no
//! interior mutability (`Cell`/`RefCell`) and no `Rc`, so they are `Sync`
//! and shared freely across workers. Every random decision inside a run
//! seeds a fresh `StdRng` from per-(user, document, configuration)
//! constants: per-document topic inference uses
//! `opts.seed ^ id.0 * 0x2545_F491_4F6C_DD1D`, per-user splits were fixed
//! at corpus preparation, and the random baseline seeds per user. Nothing
//! reads global mutable state, so concurrent runs cannot perturb each
//! other's scores.
//!
//! # Nested parallelism
//!
//! Individual runs also parallelize internally (per-document inference in
//! `recommender::parallel_map`). To avoid `jobs × n_cpu` oversubscription
//! the pool publishes an *inner-thread hint* ([`set_inner_threads`]) that
//! `parallel_map` consults; [`inner_threads_for_jobs`] installs
//! `max(1, n_cpu / jobs)` for the duration of a sweep and restores the
//! previous hint on drop.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel;

/// Default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// 0 = unset (fall back to [`default_jobs`]).
static INNER_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Publish a hint for how many threads *nested* parallel sections (e.g.
/// per-document inference) should use. `0` resets to the default.
pub fn set_inner_threads(n: usize) {
    INNER_THREADS.store(n, Ordering::Relaxed);
}

/// The current inner-thread hint, defaulting to [`default_jobs`].
pub fn inner_threads() -> usize {
    match INNER_THREADS.load(Ordering::Relaxed) {
        0 => default_jobs(),
        n => n,
    }
}

/// Scoped inner-thread override: holds `max(1, n_cpu / jobs)` until dropped.
#[derive(Debug)]
pub struct InnerThreadsGuard {
    prev: usize,
}

/// Install the inner-thread hint appropriate for an outer pool of `jobs`
/// workers. Restores the previous hint when the guard drops.
pub fn inner_threads_for_jobs(jobs: usize) -> InnerThreadsGuard {
    let hint = (default_jobs() / jobs.max(1)).max(1);
    let prev = INNER_THREADS.swap(hint, Ordering::Relaxed);
    InnerThreadsGuard { prev }
}

impl Drop for InnerThreadsGuard {
    fn drop(&mut self) {
        INNER_THREADS.store(self.prev, Ordering::Relaxed);
    }
}

/// A shared atomic progress counter that reports to stderr every `every`
/// completions (and on the final one). Safe to tick from any worker.
#[derive(Debug)]
pub struct Progress {
    total: usize,
    every: usize,
    done: AtomicUsize,
    printed: AtomicBool,
    finished: AtomicBool,
    started: Instant,
}

impl Progress {
    /// A counter over `total` tasks reporting every `every` ticks.
    pub fn new(total: usize, every: usize) -> Progress {
        Progress {
            total,
            every: every.max(1),
            done: AtomicUsize::new(0),
            printed: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            // pmr-lint: allow(wall-clock): feeds the stderr progress line only, never a result artifact
            started: Instant::now(),
        }
    }

    /// Record one completed task; prints a carriage-return status line at
    /// the reporting interval. Returns the new completion count.
    pub fn tick(&self) -> usize {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if done.is_multiple_of(self.every) || done == self.total {
            self.printed.store(true, Ordering::Relaxed);
            eprint!(
                "\r  {done}/{} runs ({:.0}s elapsed)   ",
                self.total,
                self.started.elapsed().as_secs_f64()
            );
            let _ = std::io::stderr().flush();
        }
        done
    }

    /// Completed count so far.
    pub fn done(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Terminate the carriage-return status line. Idempotent, and a no-op
    /// when no status line was ever printed — a zero-task or
    /// silent-interval sweep must not emit a stray blank line.
    pub fn finish(&self) {
        if self.printed.load(Ordering::Relaxed) && !self.finished.swap(true, Ordering::Relaxed) {
            eprintln!();
            let _ = std::io::stderr().flush();
        }
    }
}

impl Drop for Progress {
    /// Terminate the status line even when the sweep unwinds mid-run, so a
    /// panic message never lands on the tail of a carriage-return line.
    fn drop(&mut self) {
        self.finish();
    }
}

/// Run `f(index, task)` for every task on a pool of `jobs` workers and
/// return the results **in input order**, regardless of which worker
/// finished which task when.
///
/// Workers pull tasks from a shared channel as they become free, so
/// heterogeneous task costs balance automatically. With `jobs <= 1` (or a
/// single task) the tasks run inline on the caller's thread — same results,
/// no pool.
pub fn run_tasks<T, R, F>(tasks: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = tasks.len();
    let jobs = jobs.clamp(1, n.max(1));
    // Observability (no-ops unless a recorder is installed): publish the
    // pool shape and measure per-task / per-worker time on the injected
    // obs clock, never on wall-clock reads of our own.
    pmr_obs::gauge_set("executor.jobs", jobs as f64);
    pmr_obs::gauge_set("executor.inner_threads_hint", inner_threads() as f64);
    pmr_obs::counter_add("executor.tasks_submitted", n as u64);
    let pool_start = pmr_obs::now();
    if jobs <= 1 {
        let out = tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let _timer = pmr_obs::timer("executor.task");
                f(i, t)
            })
            .collect();
        if let (Some(t0), Some(t1)) = (pool_start, pmr_obs::now()) {
            pmr_obs::observe_duration("executor.pool_wall", t1.saturating_sub(t0));
        }
        return out;
    }
    let (task_tx, task_rx) = channel::unbounded::<(usize, T)>();
    let (result_tx, result_rx) = channel::unbounded::<(usize, R)>();
    for pair in tasks.into_iter().enumerate() {
        if task_tx.send(pair).is_err() {
            unreachable!("task receiver is still alive");
        }
    }
    // Close the task queue: workers drain it and exit on disconnect.
    drop(task_tx);
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        for worker in 0..jobs {
            let task_rx = task_rx.clone();
            let result_tx = result_tx.clone();
            let f = &f;
            scope.spawn(move || {
                let mut busy = Duration::ZERO;
                let mut completed = 0u64;
                while let Ok((i, task)) = task_rx.recv() {
                    let picked = pmr_obs::now();
                    if let (Some(t0), Some(t1)) = (pool_start, picked) {
                        // Every task is enqueued before the pool starts, so
                        // pickup − pool start is its queue wait.
                        pmr_obs::observe_duration("executor.queue_wait", t1.saturating_sub(t0));
                    }
                    pmr_obs::event(
                        "executor",
                        "task_start",
                        &[("task", i.into()), ("worker", worker.into())],
                    );
                    let out = f(i, task);
                    if let (Some(t1), Some(t2)) = (picked, pmr_obs::now()) {
                        let took = t2.saturating_sub(t1);
                        busy += took;
                        pmr_obs::observe_duration("executor.task", took);
                    }
                    completed += 1;
                    pmr_obs::event(
                        "executor",
                        "task_end",
                        &[("task", i.into()), ("worker", worker.into())],
                    );
                    if result_tx.send((i, out)).is_err() {
                        break;
                    }
                }
                // Per-worker utilization: busy time over the pool's wall
                // time (compared offline against `executor.pool_wall`).
                pmr_obs::observe_duration("executor.worker_busy", busy);
                pmr_obs::event(
                    "executor",
                    "worker_done",
                    &[("worker", worker.into()), ("tasks", completed.into())],
                );
            });
        }
        drop(task_rx);
        drop(result_tx);
        // Collect on the caller's thread while workers run; the channel
        // disconnects once the last worker drops its sender.
        while let Ok(pair) = result_rx.recv() {
            tagged.push(pair);
        }
    });
    if let (Some(t0), Some(t1)) = (pool_start, pmr_obs::now()) {
        pmr_obs::observe_duration("executor.pool_wall", t1.saturating_sub(t0));
    }
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(tagged.len(), n, "every task produces exactly one result");
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let tasks: Vec<u64> = (0..97).collect();
        // Uneven task costs: make early tasks slow so a naive
        // completion-order collect would scramble the output.
        let out = run_tasks(tasks.clone(), 4, |i, t| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            t * 2
        });
        assert_eq!(out, tasks.iter().map(|t| t * 2).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_one_matches_parallel() {
        let tasks: Vec<u64> = (0..40).collect();
        let seq = run_tasks(tasks.clone(), 1, |i, t| t.wrapping_mul(i as u64 + 7));
        let par = run_tasks(tasks, 8, |i, t| t.wrapping_mul(i as u64 + 7));
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_task_list_is_fine() {
        let out = run_tasks(Vec::<u32>::new(), 4, |_, t| t);
        assert!(out.is_empty());
    }

    #[test]
    fn progress_counts_every_tick() {
        let p = Progress::new(100, 1000); // interval > total: stays silent
        let ticks: Vec<u32> = (0..100).collect();
        run_tasks(ticks, 4, |_, _| {
            p.tick();
        });
        assert_eq!(p.done(), 100);
    }

    /// Serializes the tests that mutate the global inner-thread hint.
    fn hint_lock() -> &'static parking_lot::Mutex<()> {
        static LOCK: std::sync::OnceLock<parking_lot::Mutex<()>> = std::sync::OnceLock::new();
        LOCK.get_or_init(|| parking_lot::Mutex::new(()))
    }

    #[test]
    fn inner_thread_hint_round_trips() {
        let _lock = hint_lock().lock();
        set_inner_threads(0);
        let default = inner_threads();
        assert_eq!(default, default_jobs());
        {
            let _guard = inner_threads_for_jobs(default_jobs());
            assert_eq!(inner_threads(), 1);
        }
        assert_eq!(inner_threads(), default);
    }

    #[test]
    fn inner_thread_hint_restored_when_worker_panics() {
        let _lock = hint_lock().lock();
        set_inner_threads(0);
        let before = inner_threads();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = inner_threads_for_jobs(4);
            // pmr-lint: allow(blocking-under-lock): run_tasks' workers never take hint_lock, and the lock exists to serialize exactly this kind of test
            run_tasks(vec![0u32, 1, 2, 3, 4, 5], 2, |i, t| {
                if i == 3 {
                    panic!("worker closure dies");
                }
                t
            });
        }));
        assert!(caught.is_err(), "the worker panic propagates out of the scope");
        assert_eq!(inner_threads(), before, "the drop guard restores the hint on unwind");
    }

    #[test]
    fn progress_finish_is_silent_and_idempotent_without_output() {
        // A zero-task sweep never prints a status line, so finish() (and
        // the Drop impl after it) must not emit a stray newline. We cannot
        // capture stderr here, but we can at least assert this path does
        // not panic and stays idempotent.
        let p = Progress::new(0, 25);
        p.finish();
        p.finish();
        drop(p);
    }
}
