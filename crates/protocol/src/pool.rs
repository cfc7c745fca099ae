//! A capped, scoped worker pool.
//!
//! The original threaded runtime spawned **one OS thread per user**, which
//! exhausts OS threads long before the million-user populations the
//! ROADMAP targets. This pool caps concurrency at a fixed worker count and
//! statically partitions work across the workers; both the threaded
//! runtime ([`crate::runtime`]) and the sharded aggregation engine
//! (`dptd-engine`) run on it.
//!
//! Scoped threads keep the API borrow-friendly: closures may capture
//! references to stack data of the caller.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::thread;

/// A fixed-size worker pool. Cheap to copy; threads are spawned per call
/// and joined before the call returns (scoped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    workers: usize,
}

impl Default for WorkerPool {
    /// One worker per available hardware thread (at least one).
    fn default() -> Self {
        let workers = thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        Self { workers }
    }
}

impl WorkerPool {
    /// A pool of exactly `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// The number of worker threads this pool runs.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `f(index)` for every `index in 0..items`, using at most
    /// `self.workers()` OS threads (contiguous static chunking). Blocks
    /// until every index has been processed.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker after all workers have been
    /// joined.
    pub fn for_each_index<F>(&self, items: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let f = &f;
        thread::scope(|scope| {
            for range in self.partition(items) {
                scope.spawn(move || range.for_each(f));
            }
        });
    }

    /// Split `0..items` into `min(self.workers(), items)` contiguous
    /// ranges whose sizes differ by at most one — the static assignment
    /// [`WorkerPool::for_each_index`] runs on, for callers that spawn
    /// their own long-running workers (the engine gives each worker one
    /// queue and the range of shards behind it). Ceil-based chunking
    /// would leave trailing workers with nothing whenever `items` is
    /// slightly above a multiple of the worker count (e.g. 6 items over
    /// 4 workers as 2/2/2/0); this split gives 2/2/1/1.
    pub fn partition(&self, items: usize) -> Vec<Range<usize>> {
        let threads = self.workers.min(items);
        if threads == 0 {
            return Vec::new();
        }
        let (base, extra) = (items / threads, items % threads);
        let mut lo = 0;
        (0..threads)
            .map(|w| {
                let len = base + usize::from(w < extra);
                lo += len;
                lo - len..lo
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(WorkerPool::new(0).workers(), 1);
    }

    #[test]
    fn covers_every_index_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        WorkerPool::new(7).for_each_index(1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn caps_concurrency() {
        // With 2 workers, at most 2 closures run at once.
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        WorkerPool::new(2).for_each_index(64, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn handles_more_items_than_workers_and_vice_versa() {
        for (workers, items) in [(1, 5), (8, 3), (4, 4), (3, 1000)] {
            let count = AtomicUsize::new(0);
            WorkerPool::new(workers).for_each_index(items, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), items);
        }
    }

    #[test]
    fn empty_work_is_a_noop() {
        WorkerPool::new(4).for_each_index(0, |_| panic!("must not run"));
        assert!(WorkerPool::new(4).partition(0).is_empty());
    }

    #[test]
    fn partitions_are_disjoint_and_complete() {
        let ranges = WorkerPool::new(3).partition(10);
        let all: Vec<usize> = ranges.into_iter().flatten().collect();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn every_worker_gets_a_nonempty_balanced_slice() {
        // 6 partitions over 4 workers must be 2/2/1/1, never 2/2/2/0.
        for (workers, partitions) in [(4usize, 6usize), (3, 10), (8, 9), (5, 5)] {
            let sizes: Vec<usize> = WorkerPool::new(workers)
                .partition(partitions)
                .iter()
                .map(|r| r.len())
                .collect();
            assert_eq!(sizes.len(), workers.min(partitions));
            assert!(
                sizes.iter().all(|&s| s > 0),
                "{workers}w/{partitions}p: {sizes:?}"
            );
            let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
            assert!(
                max - min <= 1,
                "{workers}w/{partitions}p unbalanced: {sizes:?}"
            );
        }
    }
}
