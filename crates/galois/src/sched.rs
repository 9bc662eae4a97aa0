//! Work-stealing scheduler with in-round conflict retry.
//!
//! A shared-cursor worklist ([`crate::WorkQueue`]) hands out fixed-size
//! chunks, and a node whose speculative commit keeps hitting lock conflicts
//! pins its worker in a spin-retry loop — the serialization-by-conflict
//! waste that "Parallel AIG Refactoring via Conflict Breaking" identifies as
//! the dominant loss in parallel AIG optimization. The speculative engines
//! therefore run on [`StealPool`]:
//!
//! * **Per-worker Chase-Lev deques** ([`crate::StealDeque`]). Each worker
//!   seeds its own deque with one contiguous block of the worklist; idle
//!   workers steal the oldest (largest) outstanding range from a victim.
//! * **Adaptive chunk sizing.** A popped or stolen range larger than the
//!   quantum (seeded from [`crate::chunk_size`]) is halved: the tail half
//!   goes back on the worker's own deque — where thieves can take it —
//!   and the head half is halved again, so chunk granularity adapts to
//!   how much work is left instead of being fixed up front.
//! * **A per-worker conflict retry queue.** An item whose operator reports
//!   [`ItemOutcome::Retry`] (a Galois lock conflict) is re-enqueued on its
//!   worker's retry queue with exponential backoff — measured in locally
//!   processed items, not wall time — and retried *within the same round*
//!   once other useful work has had a chance to drain the contended
//!   region. The worker stays busy in the meantime.
//!
//! Termination: a round ends when every seeded item has reported
//! [`ItemOutcome::Done`]. Retried items stay pending, so a worker whose
//! deque and steal attempts come up empty keeps servicing its retry queue
//! (forcing overdue entries rather than idling) until the global pending
//! count reaches zero.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::deque::{Steal, StealDeque};
use crate::spmd::chunk_size;

/// What an operator did with a scheduled item.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ItemOutcome {
    /// The item is finished (committed, skipped, or abandoned) and must not
    /// be scheduled again.
    Done,
    /// The item hit a transient conflict; re-enqueue it on this worker's
    /// retry queue with backoff and try again later in the same round.
    Retry,
}

/// Retry ceiling: once an item has been rescheduled this many times the
/// caller should stop yielding and resolve it inline (e.g. by blocking
/// spin-retry, which is guaranteed to make progress).
pub const MAX_SCHED_RETRIES: u32 = 12;

struct ObsHandles {
    steals: Arc<dacpara_obs::ShardedCounter>,
    retries: Arc<dacpara_obs::ShardedCounter>,
    retry_commits: Arc<dacpara_obs::ShardedCounter>,
}

fn obs() -> &'static ObsHandles {
    static HANDLES: OnceLock<ObsHandles> = OnceLock::new();
    HANDLES.get_or_init(|| ObsHandles {
        steals: dacpara_obs::counter("sched.steals"),
        retries: dacpara_obs::counter("sched.retries"),
        retry_commits: dacpara_obs::counter("sched.retry_commits"),
    })
}

/// Counters describing one scheduler's activity. Like
/// [`crate::SpecStats`], the global observability counters (`sched.steals`,
/// `sched.retries`, `sched.retry_commits`) are fed only by the leaf-level
/// `record_*` calls, never by aggregation, so obs totals always equal the
/// sum of recordings.
#[derive(Debug, Default)]
pub struct SchedStats {
    steals: AtomicU64,
    retries: AtomicU64,
    retry_commits: AtomicU64,
}

impl SchedStats {
    /// Creates zeroed counters.
    pub fn new() -> SchedStats {
        SchedStats::default()
    }

    /// Records one successful steal of a range from another worker.
    pub fn record_steal(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
        if dacpara_obs::is_enabled() {
            obs().steals.incr();
        }
    }

    /// Records one conflict re-enqueue onto a retry queue.
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        if dacpara_obs::is_enabled() {
            obs().retries.incr();
        }
    }

    /// Records an activity that committed on a retried item — work a
    /// spin-retry scheduler would have pinned its worker on.
    pub fn record_retry_commit(&self) {
        self.retry_commits.fetch_add(1, Ordering::Relaxed);
        if dacpara_obs::is_enabled() {
            obs().retry_commits.incr();
        }
    }

    /// Ranges stolen from other workers.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Conflict re-enqueues.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Commits that landed on a retried item.
    pub fn retry_commits(&self) -> u64 {
        self.retry_commits.load(Ordering::Relaxed)
    }

    /// Plain-value snapshot for reporting.
    pub fn snapshot(&self) -> SchedSnapshot {
        SchedSnapshot {
            steals: self.steals(),
            retries: self.retries(),
            retry_commits: self.retry_commits(),
        }
    }
}

/// A point-in-time copy of [`SchedStats`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedSnapshot {
    /// Ranges stolen from other workers.
    pub steals: u64,
    /// Conflict re-enqueues onto retry queues.
    pub retries: u64,
    /// Commits that landed on a retried item.
    pub retry_commits: u64,
}

impl std::fmt::Display for SchedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "steals={} retries={} retry-commits={}",
            self.steals, self.retries, self.retry_commits
        )
    }
}

/// One retry-queue entry: an item index, how many times it has conflicted,
/// and the owner-local logical time before which it should not run again.
#[derive(Copy, Clone, Debug)]
struct RetryEntry {
    item: usize,
    tries: u32,
    not_before: u64,
}

/// Per-worker scheduler state, padded to its own cache-line neighborhood by
/// the surrounding allocation order (deque ring dominates the footprint).
struct WorkerSlot {
    deque: StealDeque,
    /// Conflict retry queue. Only the owning worker pushes and pops; the
    /// mutex (uncontended in that regime) keeps the slot `Sync` so the pool
    /// can be shared by reference across the SPMD team.
    retry: Mutex<Vec<RetryEntry>>,
    /// Owner-local logical clock: one tick per item execution. Backoff
    /// deadlines are expressed in these ticks.
    clock: AtomicU64,
}

impl WorkerSlot {
    fn new() -> WorkerSlot {
        WorkerSlot {
            deque: StealDeque::new(1024),
            retry: Mutex::new(Vec::new()),
            clock: AtomicU64::new(0),
        }
    }
}

/// Packs an index range into one deque item. Worklists are bounded by the
/// `u32` node-id space, so 32+32 bits always fit.
fn pack(start: usize, end: usize) -> usize {
    debug_assert!(end <= u32::MAX as usize && start <= end);
    (start << 32) | end
}

fn unpack(item: usize) -> (usize, usize) {
    (item >> 32, item & u32::MAX as usize)
}

/// A reusable work-stealing pool for one SPMD team.
///
/// Lifecycle per round: the leader calls [`StealPool::begin`] (between
/// barriers, or before the team starts), then every worker calls
/// [`StealPool::drive`] with the same operator closure. `begin` re-arms the
/// pool, so one pool serves every stage of every worklist of a pass.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use dacpara_galois::{run_spmd, ItemOutcome, StealPool};
///
/// let pool = StealPool::new(4);
/// let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
/// pool.begin(hits.len());
/// let (pool, hits) = (&pool, &hits);
/// run_spmd(4, |w| {
///     pool.drive(w.id, |i, _tries| {
///         hits[i].fetch_add(1, Ordering::Relaxed);
///         ItemOutcome::Done
///     });
/// });
/// assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
/// ```
pub struct StealPool {
    slots: Box<[WorkerSlot]>,
    /// Items seeded this round that have not yet reported `Done`.
    pending: AtomicUsize,
    /// Set when an operator panicked mid-round. The panicking worker's
    /// in-flight and queued items will never report `Done`, so the other
    /// workers' `drive` loops bail out instead of spinning on `pending`
    /// forever; the panic itself propagates through the SPMD scope join.
    poisoned: AtomicBool,
    len: AtomicUsize,
    quantum: AtomicUsize,
    stats: SchedStats,
}

impl StealPool {
    /// Creates a pool for a team of `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> StealPool {
        assert!(workers > 0, "need at least one worker");
        StealPool {
            slots: (0..workers).map(|_| WorkerSlot::new()).collect(),
            pending: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            len: AtomicUsize::new(0),
            quantum: AtomicUsize::new(1),
            stats: SchedStats::default(),
        }
    }

    /// Team size this pool was built for.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// The scheduler counters accumulated across every round so far.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// Re-arms the pool for a round over `0..len`.
    ///
    /// Must be called while no worker is driving — from the leader between
    /// barriers, or before the team starts. Each worker seeds its own block
    /// at the top of [`StealPool::drive`], so no cross-thread deque pushes
    /// happen here.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the previous round did not drain — pending items
    /// or forgotten retry-queue entries mean `begin` is about to silently
    /// discard scheduled work.
    pub fn begin(&self, len: usize) {
        if self.poisoned.swap(false, Ordering::AcqRel) {
            // The previous round was abandoned by an operator panic; discard
            // its leftovers so the pool is reusable once the caller has
            // handled the panic. `begin` runs single-threaded, so popping
            // the other workers' deques here is race-free.
            for slot in self.slots.iter() {
                while slot.deque.pop().is_some() {}
                slot.retry.lock().clear();
            }
            self.pending.store(0, Ordering::Relaxed);
        }
        debug_assert_eq!(
            self.pending.load(Ordering::Relaxed),
            0,
            "StealPool::begin while {} items of the previous round are still pending",
            self.pending.load(Ordering::Relaxed),
        );
        debug_assert!(
            self.slots.iter().all(|s| s.retry.lock().is_empty()),
            "StealPool::begin with undrained retry queues"
        );
        debug_assert!(self.slots.iter().all(|s| s.deque.is_empty()));
        self.len.store(len, Ordering::Relaxed);
        let quantum = if len == 0 {
            1
        } else {
            chunk_size(len, self.slots.len())
        };
        self.quantum.store(quantum, Ordering::Relaxed);
        self.pending.store(len, Ordering::Release);
    }

    /// Runs worker `id`'s share of the round: seeds its block, then drains
    /// local work, steals, and services the conflict retry queue until every
    /// item of the round is done.
    ///
    /// `f(item, tries)` executes one item; `tries` is how many times this
    /// item has already been re-enqueued (0 on first execution). Returning
    /// [`ItemOutcome::Retry`] re-enqueues with backoff; the operator must
    /// stop yielding by [`MAX_SCHED_RETRIES`] — the scheduler trusts the
    /// closure to eventually return [`ItemOutcome::Done`].
    pub fn drive<F>(&self, id: usize, mut f: F)
    where
        F: FnMut(usize, u32) -> ItemOutcome,
    {
        let me = &self.slots[id];
        let workers = self.slots.len();
        let len = self.len.load(Ordering::Relaxed);
        let quantum = self.quantum.load(Ordering::Relaxed);
        // Seed this worker's contiguous block of the round.
        let (start, end) = (id * len / workers, (id + 1) * len / workers);
        if start < end {
            // A freshly begun round always has deque space.
            me.deque.push(pack(start, end)).expect("empty deque");
        }
        let mut victim = id;
        let mut idle = 0u32;
        loop {
            // 1. A retry entry whose backoff has expired takes priority:
            // the contended region has had the most time to clear.
            if let Some(entry) = self.take_retry(me, false) {
                self.run_item(me, entry.item, entry.tries, &mut f);
                idle = 0;
                continue;
            }
            // 2. Own deque (newest first: best locality, leaves the oldest
            // — largest — ranges for thieves).
            if let Some(range) = me.deque.pop() {
                self.run_range(me, range, quantum, &mut f);
                idle = 0;
                continue;
            }
            // 3. Steal a range from someone else.
            if let Some(range) = self.try_steal(id, &mut victim) {
                self.stats.record_steal();
                self.run_range(me, range, quantum, &mut f);
                idle = 0;
                continue;
            }
            // A panicked teammate can never finish its share of the round;
            // bail out so the team unwinds instead of spinning on `pending`.
            if self.poisoned.load(Ordering::Acquire) {
                return;
            }
            // 4. Only unready retries left locally: give the backoff a few
            // polls to expire, then force the earliest entry rather than
            // idle (there is no other useful work to interleave anyway).
            if !me.retry.lock().is_empty() {
                idle += 1;
                if idle > 32 {
                    if let Some(entry) = self.take_retry(me, true) {
                        self.run_item(me, entry.item, entry.tries, &mut f);
                        idle = 0;
                        continue;
                    }
                }
                std::thread::yield_now();
                continue;
            }
            // 5. Nothing local: the round is over when every item is done;
            // until then other workers may still publish stealable halves.
            if self.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            idle += 1;
            if idle < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Executes `start..end`, halving oversized ranges back onto the local
    /// deque so other workers can steal the tail while this one works the
    /// head (lazy binary splitting).
    fn run_range<F>(&self, me: &WorkerSlot, range: usize, quantum: usize, f: &mut F)
    where
        F: FnMut(usize, u32) -> ItemOutcome,
    {
        let (start, mut end) = unpack(range);
        while end - start > quantum {
            let mid = start + (end - start) / 2;
            if me.deque.push(pack(mid, end)).is_err() {
                // Ring full (pathological): just process the whole range.
                break;
            }
            end = mid;
        }
        for item in start..end {
            self.run_item(me, item, 0, f);
        }
    }

    fn run_item<F>(&self, me: &WorkerSlot, item: usize, tries: u32, f: &mut F)
    where
        F: FnMut(usize, u32) -> ItemOutcome,
    {
        let now = me.clock.fetch_add(1, Ordering::Relaxed);
        // Mark the pool if `f` unwinds: the panicking worker abandons its
        // queued items, so without the flag every other worker would spin
        // on `pending` forever (and the panic would never surface).
        struct PoisonOnUnwind<'a>(&'a AtomicBool);
        impl Drop for PoisonOnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, Ordering::Release);
                }
            }
        }
        let guard = PoisonOnUnwind(&self.poisoned);
        let outcome = f(item, tries);
        std::mem::forget(guard);
        match outcome {
            ItemOutcome::Done => {
                let prev = self.pending.fetch_sub(1, Ordering::AcqRel);
                debug_assert!(prev > 0, "more Done items than were seeded");
            }
            ItemOutcome::Retry => {
                self.stats.record_retry();
                let backoff = 1u64 << tries.min(8);
                me.retry.lock().push(RetryEntry {
                    item,
                    tries: tries + 1,
                    not_before: now + backoff,
                });
            }
        }
    }

    /// Pops one retry entry: the ready entry with the earliest deadline, or
    /// with `force` the earliest deadline regardless of readiness.
    fn take_retry(&self, me: &WorkerSlot, force: bool) -> Option<RetryEntry> {
        let now = me.clock.load(Ordering::Relaxed);
        let mut queue = me.retry.lock();
        let best = queue
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.not_before)
            .map(|(i, e)| (i, e.not_before))?;
        if !force && best.1 > now {
            return None;
        }
        Some(queue.swap_remove(best.0))
    }

    /// One round-robin sweep over the other workers' deques.
    fn try_steal(&self, id: usize, victim: &mut usize) -> Option<usize> {
        let workers = self.slots.len();
        for _ in 0..workers.saturating_sub(1) {
            *victim = (*victim + 1) % workers;
            if *victim == id {
                *victim = (*victim + 1) % workers;
            }
            if *victim == id {
                return None; // single-worker pool
            }
            loop {
                match self.slots[*victim].deque.steal() {
                    Steal::Taken(range) => return Some(range),
                    Steal::Empty => break,
                    Steal::Retry => std::hint::spin_loop(),
                }
            }
        }
        None
    }
}

impl std::fmt::Debug for StealPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StealPool")
            .field("workers", &self.slots.len())
            .field("pending", &self.pending.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_spmd;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn single_worker_processes_in_order() {
        let pool = StealPool::new(1);
        pool.begin(100);
        let seen = Mutex::new(Vec::new());
        pool.drive(0, |i, tries| {
            assert_eq!(tries, 0);
            seen.lock().push(i);
            ItemOutcome::Done
        });
        let seen = seen.into_inner();
        assert_eq!(
            seen,
            (0..100).collect::<Vec<_>>(),
            "LIFO halving is in-order"
        );
        assert_eq!(pool.stats().steals(), 0);
    }

    #[test]
    fn empty_round_is_a_noop() {
        let pool = StealPool::new(4);
        pool.begin(0);
        let pool = &pool;
        run_spmd(4, |w| pool.drive(w.id, |_, _| panic!("no items")));
    }

    #[test]
    fn every_item_runs_once_under_stealing() {
        let pool = StealPool::new(4);
        let hits: Vec<AtomicU32> = (0..50_000).map(|_| AtomicU32::new(0)).collect();
        pool.begin(hits.len());
        let (pool, hits) = (&pool, &hits);
        run_spmd(4, |w| {
            pool.drive(w.id, |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                ItemOutcome::Done
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn retries_rerun_the_item_with_backoff() {
        let pool = StealPool::new(2);
        let runs: Vec<AtomicU32> = (0..200).map(|_| AtomicU32::new(0)).collect();
        pool.begin(runs.len());
        let (pool, runs) = (&pool, &runs);
        run_spmd(2, |w| {
            pool.drive(w.id, |i, tries| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                // Item i conflicts i % 3 times before completing.
                if (tries as usize) < i % 3 {
                    ItemOutcome::Retry
                } else {
                    ItemOutcome::Done
                }
            });
        });
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(r.load(Ordering::Relaxed) as usize, 1 + i % 3, "item {i}");
        }
        let expected: u64 = (0..200).map(|i| (i % 3) as u64).sum();
        assert_eq!(pool.stats().retries(), expected);
    }

    #[test]
    fn rounds_reuse_the_pool() {
        let pool = StealPool::new(3);
        for round in 1..=5usize {
            let len = round * 97;
            let hits: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
            pool.begin(len);
            let (pool, hits) = (&pool, &hits);
            run_spmd(3, |w| {
                pool.drive(w.id, |i, tries| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                    if tries == 0 && i % 7 == 0 {
                        ItemOutcome::Retry
                    } else {
                        ItemOutcome::Done
                    }
                });
            });
            assert_eq!(
                hits.iter()
                    .enumerate()
                    .map(|(i, h)| {
                        let expect = if i % 7 == 0 { 2 } else { 1 };
                        assert_eq!(h.load(Ordering::Relaxed), expect, "item {i}");
                        1usize
                    })
                    .sum::<usize>(),
                len
            );
        }
    }

    #[test]
    fn worker_panic_poisons_the_round_instead_of_hanging() {
        let pool = StealPool::new(2);
        pool.begin(1000);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let pool = &pool;
            run_spmd(2, |w| {
                pool.drive(w.id, |i, _| {
                    assert_ne!(i, 500, "operator bug");
                    ItemOutcome::Done
                });
            });
        }));
        assert!(caught.is_err(), "the operator panic must propagate");
        // The next `begin` discards the abandoned round and the pool works
        // again.
        let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        pool.begin(hits.len());
        let (pool, hits) = (&pool, &hits);
        run_spmd(2, |w| {
            pool.drive(w.id, |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                ItemOutcome::Done
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "still pending")]
    fn begin_without_drain_panics_in_debug() {
        let pool = StealPool::new(1);
        pool.begin(4);
        pool.begin(4); // nothing was driven: 4 items silently discarded
    }
}
