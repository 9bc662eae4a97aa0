//! SPMD execution: a fixed team of workers marching through barriers.
//!
//! The parallel engines run one team of threads per rewriting pass. Each
//! worker executes the same closure; level worklists and the three operator
//! stages are separated by barriers inside the closure. This avoids both
//! per-stage thread-spawn overhead and any `unsafe` lifetime laundering — a
//! `std::thread::scope` fits naturally because the team lives exactly as
//! long as the pass.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

/// Handle given to each SPMD worker.
pub struct Worker<'a> {
    /// This worker's index, `0..num_threads`.
    pub id: usize,
    /// Team size.
    pub num_threads: usize,
    barrier: &'a Barrier,
}

impl Worker<'_> {
    /// Blocks until every worker in the team reaches this point. Returns
    /// `true` on exactly one (unspecified) worker — the "leader" for any
    /// serial work that must happen at the synchronization point.
    pub fn barrier(&self) -> bool {
        self.barrier.wait().is_leader()
    }
}

impl std::fmt::Debug for Worker<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Worker({}/{})", self.id, self.num_threads)
    }
}

/// Runs `f` on `num_threads` workers and waits for all of them.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use dacpara_galois::run_spmd;
///
/// let sum = AtomicUsize::new(0);
/// run_spmd(4, |w| {
///     sum.fetch_add(w.id, Ordering::Relaxed);
///     w.barrier();
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 0 + 1 + 2 + 3);
/// ```
///
/// # Panics
///
/// Panics if `num_threads` is zero, or propagates a worker panic.
pub fn run_spmd<F>(num_threads: usize, f: F)
where
    F: Fn(&Worker<'_>) + Sync,
{
    assert!(num_threads > 0, "need at least one worker");
    let barrier = Barrier::new(num_threads);
    if num_threads == 1 {
        // Fast path, also keeps single-threaded debugging simple.
        let _obs = dacpara_obs::span_cat("worker", "runtime");
        f(&Worker {
            id: 0,
            num_threads: 1,
            barrier: &barrier,
        });
        return;
    }
    std::thread::scope(|s| {
        for id in 0..num_threads {
            let barrier = &barrier;
            let f = &f;
            s.spawn(move || {
                {
                    // One lifetime span per worker: each thread gets its
                    // own lane in the exported trace.
                    let _obs = dacpara_obs::span!("worker", id = id);
                    f(&Worker {
                        id,
                        num_threads,
                        barrier,
                    });
                }
                // Flush before the closure returns: `scope` unblocks as
                // soon as the closure's result lands, which can be before
                // the thread's TLS destructors (the backstop flush) run —
                // an exporter called right after `run_spmd` would miss
                // this worker's lane.
                dacpara_obs::flush_thread();
            });
        }
    });
}

/// A shared index dispenser for dynamic load balancing: workers repeatedly
/// grab disjoint chunks of `0..len` until it is drained. One queue serves
/// one worklist.
#[derive(Debug)]
pub struct WorkQueue {
    next: AtomicUsize,
    len: usize,
}

impl WorkQueue {
    /// Creates a dispenser over `0..len`.
    pub fn new(len: usize) -> WorkQueue {
        WorkQueue {
            next: AtomicUsize::new(0),
            len,
        }
    }

    /// Grabs the next chunk of at most `chunk` indices, or `None` when
    /// drained.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn next_chunk(&self, chunk: usize) -> Option<Range<usize>> {
        assert!(chunk > 0);
        let start = self.next.fetch_add(chunk, Ordering::Relaxed);
        (start < self.len).then(|| start..(start + chunk).min(self.len))
    }
}

/// Heuristic chunk size: small enough to balance, large enough to amortize
/// the atomic increment.
///
/// # Panics
///
/// Panics (debug) if `len` or `num_threads` is zero — a zero-length
/// worklist has no meaningful chunk size (callers must skip empty lists),
/// and zero threads would divide by zero anyway.
pub fn chunk_size(len: usize, num_threads: usize) -> usize {
    debug_assert!(num_threads > 0, "chunk size for a zero-thread team");
    debug_assert!(len > 0, "chunk size of an empty worklist");
    (len / (num_threads.max(1) * 8)).clamp(1, 256)
}

/// Convenience: applies `f` to every item of `items` on a team of
/// `num_threads` workers with dynamic chunked load balancing.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use dacpara_galois::parallel_for;
///
/// let data: Vec<usize> = (0..1000).collect();
/// let sum = AtomicUsize::new(0);
/// parallel_for(4, &data, |_, &x| {
///     sum.fetch_add(x, Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 499_500);
/// ```
pub fn parallel_for<T, F>(num_threads: usize, items: &[T], f: F)
where
    T: Sync,
    F: Fn(&Worker<'_>, &T) + Sync,
{
    if items.is_empty() {
        return;
    }
    let queue = WorkQueue::new(items.len());
    let chunk = chunk_size(items.len(), num_threads.max(1));
    let queue = &queue;
    let f = &f;
    run_spmd(num_threads.max(1), |w| {
        while let Some(range) = queue.next_chunk(chunk) {
            for i in range {
                f(w, &items[i]);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn work_queue_covers_every_index_once() {
        let queue = WorkQueue::new(10_000);
        let hits: Vec<AtomicU64> = (0..10_000).map(|_| AtomicU64::new(0)).collect();
        let queue = &queue;
        let hits = &hits;
        run_spmd(4, |_w| {
            while let Some(range) = queue.next_chunk(64) {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn barrier_elects_exactly_one_leader() {
        let leaders = AtomicUsize::new(0);
        let leaders = &leaders;
        run_spmd(3, |w| {
            for _ in 0..5 {
                if w.barrier() {
                    leaders.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn single_thread_fast_path() {
        let flag = AtomicUsize::new(0);
        run_spmd(1, |w| {
            assert_eq!(w.id, 0);
            assert!(w.barrier());
            flag.store(1, Ordering::Relaxed);
        });
        assert_eq!(flag.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn parallel_for_visits_everything_once() {
        let data: Vec<usize> = (0..5_000).collect();
        let hits: Vec<AtomicU64> = (0..5_000).map(|_| AtomicU64::new(0)).collect();
        let hits_ref = &hits;
        parallel_for(3, &data, |_, &x| {
            hits_ref[x].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_on_empty_slice_is_fine() {
        let data: Vec<u32> = Vec::new();
        parallel_for(4, &data, |_, _| panic!("must not be called"));
    }

    #[test]
    fn chunk_size_is_sane() {
        assert!(chunk_size(1_000_000, 4) <= 256);
        assert!(chunk_size(100, 4) >= 1);
        assert_eq!(chunk_size(1, 64), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "empty worklist")]
    fn chunk_size_rejects_empty_worklists_in_debug() {
        let _ = chunk_size(0, 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "zero-thread team")]
    fn chunk_size_rejects_zero_threads_in_debug() {
        let _ = chunk_size(100, 0);
    }
}
