//! Persistent worker pool with barrier-synchronized BSP epochs and
//! chunked work-stealing — the executor under
//! [`crate::batch::run_batch_cpu_pool`].
//!
//! The pooled BSP loop runs many short epochs (one per frontier
//! iteration); spawning OS threads inside that loop costs more than the
//! relaxation work of a sparse iteration. [`with_pool`] instead spawns
//! the workers **once per run**: each epoch is a pair of barrier phases
//! (release, join) over long-lived threads, so the per-iteration cost is
//! a couple of futex wakes rather than thread creation.
//!
//! Work is distributed as index ranges. The driver hands each worker an
//! initial `[lo, hi)` range per epoch; workers carve their range into
//! chunks with an atomic cursor and, when their own range is exhausted,
//! *steal* chunks from other workers' cursors round-robin. Because a
//! claim is a single `fetch_add` on a monotone cursor, owner and thief
//! claims are the same operation — there is no deque juggling and no
//! ABA. A hub-heavy range therefore drains across all idle workers
//! instead of pinning its owner (the load-balance argument of the
//! paper's §4, applied to CPU scheduling).
//!
//! The initial ranges come from the representation, not from a knob:
//! `balanced_cuts` over a CSR's `row_ptr` (or an active list's degree
//! prefix) gives every worker ≈ equal edges, and `count_bounds` splits
//! degree-bounded virtual nodes — already edge-balanced to within `K` —
//! by count.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;

/// One worker's share of an epoch: a monotone claim cursor over
/// `[next, end)`. Owner and thieves all claim with `fetch_add`.
struct StealQueue {
    next: AtomicUsize,
    end: AtomicUsize,
}

struct Shared<'b> {
    queues: Vec<StealQueue>,
    /// Claim granularity for the current epoch, in items.
    chunk: AtomicUsize,
    /// Entered twice per epoch (release + join) by workers and driver.
    barrier: Barrier,
    stop: AtomicBool,
    body: &'b (dyn Fn(usize, Range<usize>) + Sync),
}

/// The persistent pool's driver-side handle.
///
/// Constructed by [`with_pool`]; workers live for the whole closure.
pub struct WorkerPool<'b> {
    shared: Shared<'b>,
}

/// Spawns `threads` workers executing `body(worker_id, index_range)` for
/// every claimed chunk, runs `driver` with the pool handle, then shuts
/// the workers down. No thread is spawned after this returns control to
/// `driver` — each [`WorkerPool::run_epoch`] call only cycles the
/// already-running workers through a barrier pair.
///
/// # Panics
///
/// Panics if `threads == 0`. `body` must not panic: a worker that
/// unwinds mid-epoch would leave the driver waiting on the join barrier.
pub fn with_pool<R>(
    threads: usize,
    body: &(dyn Fn(usize, Range<usize>) + Sync),
    driver: impl FnOnce(&WorkerPool<'_>) -> R,
) -> R {
    assert!(threads > 0, "need at least one worker thread");
    let pool = WorkerPool {
        shared: Shared {
            queues: (0..threads)
                .map(|_| StealQueue {
                    next: AtomicUsize::new(0),
                    end: AtomicUsize::new(0),
                })
                .collect(),
            chunk: AtomicUsize::new(1),
            barrier: Barrier::new(threads + 1),
            stop: AtomicBool::new(false),
            body,
        },
    };
    std::thread::scope(|scope| {
        for w in 0..threads {
            let shared = &pool.shared;
            scope.spawn(move || worker_loop(w, shared));
        }
        // Releases the workers even if `driver` unwinds, so the scope's
        // implicit join cannot deadlock on an assertion failure.
        let _stop = StopGuard(&pool.shared);
        driver(&pool)
    })
}

struct StopGuard<'a, 'b>(&'a Shared<'b>);

impl Drop for StopGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::Release);
        self.0.barrier.wait();
    }
}

fn worker_loop(me: usize, shared: &Shared<'_>) {
    loop {
        shared.barrier.wait(); // epoch start (or shutdown)
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let chunk = shared.chunk.load(Ordering::Relaxed);
        while let Some(range) = claim(shared, me, chunk) {
            (shared.body)(me, range);
        }
        shared.barrier.wait(); // epoch join
    }
}

/// Claims the next chunk: own queue first, then other queues
/// round-robin.
fn claim(shared: &Shared<'_>, me: usize, chunk: usize) -> Option<Range<usize>> {
    let nq = shared.queues.len();
    for i in 0..nq {
        let q = &shared.queues[(me + i) % nq];
        let end = q.end.load(Ordering::Relaxed);
        if q.next.load(Ordering::Relaxed) >= end {
            continue;
        }
        let lo = q.next.fetch_add(chunk, Ordering::Relaxed);
        if lo < end {
            return Some(lo..(lo + chunk).min(end));
        }
    }
    None
}

/// Claim granularity: enough chunks per worker that stealing can
/// rebalance, large enough that cursor traffic stays cold.
fn chunk_size(total: usize, workers: usize) -> usize {
    (total / (workers * 8)).clamp(1, 2048)
}

impl WorkerPool<'_> {
    /// Runs one epoch. `bounds[w]` is worker `w`'s initial `[lo, hi)`
    /// slice of an abstract index space; how indices map to work items
    /// (physical nodes, active-list slots, virtual nodes) is the
    /// caller's business. Returns only after every index of every range
    /// has been processed by exactly one worker.
    ///
    /// # Panics
    ///
    /// Panics unless there is one bound per worker, or if a range has
    /// `lo > hi`.
    pub fn run_epoch(&self, bounds: &[(usize, usize)]) {
        let sh = &self.shared;
        assert_eq!(bounds.len(), sh.queues.len(), "one bound per worker");
        let mut total = 0;
        for (q, &(lo, hi)) in sh.queues.iter().zip(bounds) {
            assert!(lo <= hi, "invalid bound [{lo}, {hi})");
            total += hi - lo;
            q.next.store(lo, Ordering::Relaxed);
            q.end.store(hi, Ordering::Relaxed);
        }
        sh.chunk
            .store(chunk_size(total, bounds.len()), Ordering::Relaxed);
        // The barrier's internal lock publishes the queue stores to the
        // workers it releases.
        sh.barrier.wait(); // release
        sh.barrier.wait(); // join
    }
}

/// Contiguous equal-item-count partition: for items that are already
/// weight-balanced, like degree-bounded virtual nodes.
pub(crate) fn count_bounds(total: usize, bounds: &mut [(usize, usize)]) {
    let chunk = total.div_ceil(bounds.len()).max(1);
    for (w, b) in bounds.iter_mut().enumerate() {
        *b = ((w * chunk).min(total), ((w + 1) * chunk).min(total));
    }
}

/// Contiguous partition of `prefix.len() - 1` items so every part covers
/// ≈ equal weight, where `prefix[i]` is the total weight of items
/// `0..i` (e.g. `Csr::row_ptr`: equal *edge* counts per part).
pub(crate) fn balanced_cuts(prefix: &[u64], bounds: &mut [(usize, usize)]) {
    let parts = bounds.len();
    let items = prefix.len() - 1;
    let total = prefix[items];
    if total == 0 {
        count_bounds(items, bounds);
        return;
    }
    let mut prev = 0usize;
    for (w, b) in bounds.iter_mut().enumerate() {
        let hi = if w + 1 == parts {
            items
        } else {
            let target = total * (w as u64 + 1) / parts as u64;
            prefix.partition_point(|&c| c < target).min(items).max(prev)
        };
        *b = (prev, hi);
        prev = hi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Every index of every bound is processed exactly once.
    fn coverage_check(runner: &WorkerPool<'_>, hits: &[AtomicU64], bounds: &[(usize, usize)]) {
        runner.run_epoch(bounds);
        for (i, h) in hits.iter().enumerate() {
            let expected = bounds.iter().any(|&(lo, hi)| lo <= i && i < hi) as u64;
            assert_eq!(h.swap(0, Ordering::Relaxed), expected, "index {i}");
        }
    }

    #[test]
    fn pool_processes_every_index_exactly_once() {
        let hits: Vec<AtomicU64> = (0..10_000).map(|_| AtomicU64::new(0)).collect();
        let body = |_w: usize, r: Range<usize>| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        };
        with_pool(4, &body, |pool| {
            // Even split, hub-heavy split, empty epoch, tiny epoch.
            coverage_check(
                pool,
                &hits,
                &[(0, 2500), (2500, 5000), (5000, 7500), (7500, 10_000)],
            );
            coverage_check(
                pool,
                &hits,
                &[(0, 9700), (9700, 9800), (9800, 9900), (9900, 10_000)],
            );
            coverage_check(pool, &hits, &[(0, 0), (0, 0), (0, 0), (0, 0)]);
            coverage_check(pool, &hits, &[(0, 1), (1, 2), (2, 3), (3, 3)]);
        });
    }

    #[test]
    fn skewed_bounds_are_stolen() {
        let done: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        let body = |w: usize, r: Range<usize>| {
            done[w].fetch_add(r.len() as u64, Ordering::Relaxed);
            // Yield the core between claims so sibling workers get
            // scheduled mid-epoch even on a single-CPU host.
            std::thread::sleep(std::time::Duration::from_micros(200));
        };
        with_pool(4, &body, |pool| {
            // All work on worker 0: the others must steal (each claim is
            // chunked, so a 10k-item queue yields many chunks).
            pool.run_epoch(&[(0, 10_000), (0, 0), (0, 0), (0, 0)]);
        });
        let done: Vec<u64> = done.iter().map(|d| d.load(Ordering::Relaxed)).collect();
        assert_eq!(done.iter().sum::<u64>(), 10_000);
        assert!(done[1..].iter().any(|&d| d > 0), "idle workers never stole");
    }

    #[test]
    fn pool_reuses_workers_across_epochs() {
        let sum = AtomicU64::new(0);
        let body = |_w: usize, r: Range<usize>| {
            sum.fetch_add(r.map(|i| i as u64).sum(), Ordering::Relaxed);
        };
        with_pool(2, &body, |pool| {
            for _ in 0..100 {
                pool.run_epoch(&[(0, 50), (50, 100)]);
            }
        });
        // 100 epochs × sum(0..100)
        assert_eq!(sum.load(Ordering::Relaxed), 100 * 4950);
    }

    #[test]
    fn single_worker_pool_works() {
        let sum = AtomicU64::new(0);
        let body = |w: usize, r: Range<usize>| {
            assert_eq!(w, 0);
            sum.fetch_add(r.len() as u64, Ordering::Relaxed);
        };
        with_pool(1, &body, |pool| pool.run_epoch(&[(5, 25)]));
        assert_eq!(sum.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn balanced_cuts_split_by_weight() {
        // Items with weights 10, 0, 0, 0, 10: two parts should split the
        // hub items apart instead of 3-vs-2 by count.
        let prefix = [0u64, 10, 10, 10, 10, 20];
        let mut bounds = vec![(0, 0); 2];
        balanced_cuts(&prefix, &mut bounds);
        assert_eq!(bounds, vec![(0, 1), (1, 5)]);
        // Degenerate: all weight zero falls back to count split.
        let mut bounds = vec![(0, 0); 2];
        balanced_cuts(&[0u64, 0, 0, 0, 0], &mut bounds);
        assert_eq!(bounds, vec![(0, 2), (2, 4)]);
    }

    #[test]
    fn chunk_size_is_clamped() {
        assert_eq!(chunk_size(0, 4), 1);
        assert_eq!(chunk_size(10, 4), 1);
        assert_eq!(chunk_size(3200, 4), 100);
        assert_eq!(chunk_size(10_000_000, 4), 2048);
    }

    #[test]
    #[should_panic(expected = "one bound per worker")]
    fn bounds_arity_is_checked() {
        let body = |_w: usize, _r: Range<usize>| {};
        with_pool(2, &body, |pool| pool.run_epoch(&[(0, 10)]));
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let body = |_w: usize, _r: Range<usize>| {};
        with_pool(0, &body, |_| {});
    }
}
