//! The thread-pool runtime: a fixed set of workers fed from a shared
//! index queue.
//!
//! Each parallel operation runs inside [`std::thread::scope`], so task
//! closures may borrow the caller's data — no `Arc` plumbing, no
//! `'static` bounds, no unsafe. The queue is a `crossbeam_channel`
//! multi-consumer channel: workers pull partition indices until it
//! drains, which gives natural load balancing when partitions are
//! skewed (the NYTimes profile produces very uneven record sizes).

use crossbeam_channel::unbounded;
use parking_lot::Mutex;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::metrics::{StageMetrics, TaskMetrics};

/// A task closure panicked on a worker thread.
///
/// Returned by [`Runtime::try_run_indexed`] so that one poisoned record
/// or a bug in a map closure surfaces as an error value instead of
/// tearing down the whole process. When several tasks panic in the same
/// stage, the one with the lowest partition index is reported (results
/// are deterministic across worker counts) and `panics` carries the
/// total count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Partition index of the reported (lowest-index) panicking task.
    pub partition: usize,
    /// The panic payload, rendered to a string.
    pub message: String,
    /// Total number of tasks that panicked in this stage.
    pub panics: usize,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panicked on partition {}: {}",
            self.partition, self.message
        )?;
        if self.panics > 1 {
            write!(f, " ({} tasks panicked in total)", self.panics)?;
        }
        Ok(())
    }
}

impl std::error::Error for WorkerPanic {}

/// Render a caught panic payload as a string.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A parallel execution context with a fixed worker count.
#[derive(Debug, Clone)]
pub struct Runtime {
    workers: usize,
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new(available_workers())
    }
}

/// Number of workers used by [`Runtime::default`]: the machine's
/// available parallelism, or 1 if it cannot be determined.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

impl Runtime {
    /// A runtime with exactly `workers` worker threads (minimum 1).
    pub fn new(workers: usize) -> Self {
        Runtime {
            workers: workers.max(1),
        }
    }

    /// A single-threaded runtime, for baselines and deterministic tests.
    pub fn sequential() -> Self {
        Runtime { workers: 1 }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `task(i, &items[i])` for every index in parallel and collect
    /// the results in input order, together with per-task metrics.
    ///
    /// `task` is shared by all workers, hence `Fn + Sync`. A panicking
    /// task re-raises the panic on the caller's thread; use
    /// [`try_run_indexed`](Runtime::try_run_indexed) to get it as an
    /// error value instead.
    pub fn run_indexed<T, R, F>(&self, items: &[T], task: F) -> (Vec<R>, StageMetrics)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let (result, metrics) = self.try_run_indexed(items, task);
        match result {
            Ok(out) => (out, metrics),
            Err(p) => panic!("{p}"),
        }
    }

    /// Like [`run_indexed`](Runtime::run_indexed), but with panic
    /// isolation: each task runs under [`std::panic::catch_unwind`], so
    /// a poisoned task surfaces as [`WorkerPanic`] instead of aborting
    /// the process. All remaining tasks still run to completion (the
    /// worker drain loop is not cut short), the panic on the lowest
    /// partition index wins, and metrics cover every task.
    pub fn try_run_indexed<T, R, F>(
        &self,
        items: &[T],
        task: F,
    ) -> (Result<Vec<R>, WorkerPanic>, StageMetrics)
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let stage_start = Instant::now();
        let n = items.len();
        let mut task_metrics: Vec<TaskMetrics> = Vec::new();
        let caught = |i: usize| -> Result<R, String> {
            catch_unwind(AssertUnwindSafe(|| task(i, &items[i]))).map_err(panic_message)
        };

        if n == 0 {
            return (
                Ok(Vec::new()),
                StageMetrics::new(Vec::new(), stage_start.elapsed()),
            );
        }

        let outcomes: Vec<Result<R, String>> = if self.workers == 1 || n == 1 {
            // Fast path: no threads, no channels.
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let t0 = Instant::now();
                out.push(caught(i));
                task_metrics.push(TaskMetrics {
                    partition: i,
                    worker: 0,
                    duration: t0.elapsed(),
                    // Conceptually every task is submitted at stage
                    // start, so a sequential task "waits" behind its
                    // predecessors.
                    queue_wait: t0.saturating_duration_since(stage_start),
                });
            }
            out
        } else {
            let (tx, rx) = unbounded::<usize>();
            for i in 0..n {
                tx.send(i).expect("queue is open");
            }
            drop(tx);

            // (outcome, worker id, execute duration, queue wait) for one
            // task.
            type TaskSlot<R> = Mutex<(Option<Result<R, String>>, usize, Duration, Duration)>;
            let slots: Vec<TaskSlot<R>> = (0..n)
                .map(|_| Mutex::new((None, 0, Duration::ZERO, Duration::ZERO)))
                .collect();

            std::thread::scope(|scope| {
                for worker in 0..self.workers.min(n) {
                    let rx = rx.clone();
                    let slots = &slots;
                    let caught = &caught;
                    scope.spawn(move || {
                        while let Ok(i) = rx.recv() {
                            // All indices were enqueued at stage start, so
                            // pickup time *is* this task's queue wait.
                            let t0 = Instant::now();
                            let queue_wait = t0.saturating_duration_since(stage_start);
                            let r = caught(i);
                            *slots[i].lock() = (Some(r), worker, t0.elapsed(), queue_wait);
                        }
                    });
                }
            });

            let mut out = Vec::with_capacity(n);
            for (i, slot) in slots.into_iter().enumerate() {
                let (r, worker, duration, queue_wait) = slot.into_inner();
                out.push(r.expect("every task ran to completion"));
                task_metrics.push(TaskMetrics {
                    partition: i,
                    worker,
                    duration,
                    queue_wait,
                });
            }
            out
        };

        let metrics = StageMetrics::new(task_metrics, stage_start.elapsed());
        let panics = outcomes.iter().filter(|r| r.is_err()).count();
        let mut results = Vec::with_capacity(n);
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Ok(r) => results.push(r),
                Err(message) => {
                    return (
                        Err(WorkerPanic {
                            partition: i,
                            message,
                            panics,
                        }),
                        metrics,
                    );
                }
            }
        }
        (Ok(results), metrics)
    }

    /// Run a plain parallel map over the items, discarding metrics.
    pub fn map_slice<T, R, F>(&self, items: &[T], task: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.run_indexed(items, |_, item| task(item)).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_preserve_input_order() {
        let rt = Runtime::new(4);
        let items: Vec<usize> = (0..100).collect();
        let (out, _) = rt.run_indexed(&items, |_, &x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let rt = Runtime::new(8);
        let counter = AtomicUsize::new(0);
        let items: Vec<u32> = (0..1000).collect();
        let (out, metrics) = rt.run_indexed(&items, |i, _| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
        assert_eq!(metrics.tasks.len(), 1000);
    }

    #[test]
    fn sequential_runtime_has_one_worker() {
        assert_eq!(Runtime::sequential().workers(), 1);
        assert_eq!(Runtime::new(0).workers(), 1, "clamped to 1");
    }

    #[test]
    fn empty_input() {
        let rt = Runtime::new(4);
        let (out, metrics) = rt.run_indexed(&Vec::<u8>::new(), |_, &x| x);
        assert!(out.is_empty());
        assert!(metrics.tasks.is_empty());
    }

    #[test]
    fn tasks_can_borrow_caller_state() {
        let rt = Runtime::new(3);
        let shared = [10, 20, 30];
        let items = vec![0usize, 1, 2];
        let (out, _) = rt.run_indexed(&items, |_, &i| shared[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let items: Vec<u64> = (0..500).collect();
        let seq = Runtime::sequential().map_slice(&items, |&x| x * x);
        let par = Runtime::new(7).map_slice(&items, |&x| x * x);
        assert_eq!(seq, par);
    }

    #[test]
    fn metrics_cover_all_partitions() {
        let rt = Runtime::new(4);
        let items = vec![1u32; 16];
        let (_, metrics) = rt.run_indexed(&items, |_, &x| x);
        let mut parts: Vec<usize> = metrics.tasks.iter().map(|t| t.partition).collect();
        parts.sort_unstable();
        assert_eq!(parts, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn worker_ids_are_within_pool_and_cover_each_task() {
        // Sequential path: everything on worker 0.
        let items = vec![1u32; 8];
        let (_, m) = Runtime::sequential().run_indexed(&items, |_, &x| x);
        assert!(m.tasks.iter().all(|t| t.worker == 0));
        // Parallel path: ids stay within the pool, and with more slow
        // tasks than workers every id shows up under contention.
        let rt = Runtime::new(3);
        let many = vec![1u32; 64];
        let (_, m) = rt.run_indexed(&many, |_, &x| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            x
        });
        assert_eq!(m.tasks.len(), 64);
        assert!(m.tasks.iter().all(|t| t.worker < 3));
        let used: std::collections::HashSet<usize> = m.tasks.iter().map(|t| t.worker).collect();
        assert!(!used.is_empty());
    }

    #[test]
    fn default_uses_available_parallelism() {
        assert_eq!(Runtime::default().workers(), available_workers());
        assert!(available_workers() >= 1);
    }

    #[test]
    fn try_run_indexed_succeeds_like_run_indexed() {
        for workers in [1, 4] {
            let rt = Runtime::new(workers);
            let items: Vec<usize> = (0..50).collect();
            let (out, metrics) = rt.try_run_indexed(&items, |_, &x| x + 1);
            assert_eq!(out.unwrap(), (1..=50).collect::<Vec<_>>());
            assert_eq!(metrics.tasks.len(), 50);
        }
    }

    #[test]
    fn panic_is_isolated_and_lowest_partition_wins() {
        for workers in [1, 4] {
            let rt = Runtime::new(workers);
            let done = AtomicUsize::new(0);
            let items: Vec<usize> = (0..20).collect();
            let (result, metrics) = rt.try_run_indexed(&items, |i, &x| {
                if i == 7 || i == 13 {
                    panic!("poisoned record {i}");
                }
                done.fetch_add(1, Ordering::Relaxed);
                x
            });
            let p = result.unwrap_err();
            assert_eq!(p.partition, 7, "workers={workers}");
            assert_eq!(p.panics, 2);
            assert!(p.message.contains("poisoned record 7"));
            assert!(p.to_string().contains("partition 7"));
            assert!(p.to_string().contains("2 tasks"));
            // The drain loop is not cut short: every healthy task ran.
            assert_eq!(done.load(Ordering::Relaxed), 18);
            assert_eq!(metrics.tasks.len(), 20);
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked on partition 0")]
    fn run_indexed_reraises_the_panic() {
        let rt = Runtime::new(2);
        let items = vec![1u32, 2];
        rt.run_indexed(&items, |_, _| -> u32 { panic!("boom") });
    }
}
