//! The speculative pass driver shared by the two resident Galois engines.
//!
//! DACPara and ICCAD'18 differ in one thing (the paper's Fig. 2): whether a
//! node is evaluated before its locks are taken or while they are held.
//! Everything else is the same plan → lock → verify → apply machinery, and
//! it lives here once:
//!
//! * the run loop ([`run_pass`]): worklists from the session's dirty set,
//!   the first-error slot, salvage through [`RewriteSession::recover`],
//!   end-of-run canonicalization and level recomputation, the stats
//!   epilogue and the converged verdict;
//! * the work-stealing pool and its barrier-separated stages
//!   ([`Round::stage`]);
//! * the speculative item wrapper ([`Round::speculate`]): bail check, retry
//!   policy, panic containment and retry-commit accounting;
//! * the attempt loop ([`Round::attempts`]): exactly one Galois commit or
//!   abort per attempt, with backoff when blocking;
//! * phase-2 locking and the apply step ([`Round::apply`]).
//!
//! An engine supplies only its round — how the worklist becomes stages —
//! and the plan one attempt makes before it reaches [`Round::apply`]:
//! lock-free evaluation ahead of the replacement stage for DACPara
//! (`dacpara_engine.rs`), enumeration and evaluation under the locks for
//! ICCAD'18 (`lockstep.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dacpara_aig::{AigError, AigRead, NodeId};
use dacpara_galois::{ItemOutcome, LockSet, SpecStats, StealPool, Worker, MAX_SCHED_RETRIES};
use parking_lot::Mutex;

use crate::eval::{build_replacement, Candidate, Reevaluation};
use crate::recovery::{contain_panic, FirstError};
use crate::session::RewriteSession;
use crate::RewriteStats;

/// Spin-then-yield backoff between blocking retries.
fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 32 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// How an operator responds to a speculative lock conflict.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum RetryPolicy {
    /// Spin-retry inline until the activity completes: the guaranteed
    /// progress fallback once an item has burned [`MAX_SCHED_RETRIES`]
    /// reschedules.
    Block,
    /// Hand the conflict back to the scheduler: the activity is re-enqueued
    /// on its worker's retry queue with backoff and the worker moves on to
    /// other items while the contended region clears.
    Yield,
}

/// How one attempt ended; [`Round::attempts`] records it as exactly one
/// Galois commit or abort.
pub(crate) enum Attempt {
    /// The activity completed: a replacement was applied, or the node was
    /// skipped (stale result, no valid cut, no positive gain, no-op
    /// rebuild).
    Commit,
    /// A lock conflict: nothing was changed and the activity must retry.
    Abort,
}

/// Counters shared by every worker of a pass.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) replacements: AtomicU64,
    pub(crate) stale_skipped: AtomicU64,
    pub(crate) revalidated: AtomicU64,
    pub(crate) evaluations: AtomicU64,
}

/// A timed and traced pipeline stage, indexing
/// [`RewriteStats::stage_times`].
#[derive(Copy, Clone)]
pub(crate) enum Stage {
    Enumerate = 0,
    Evaluate = 1,
    Replace = 2,
}

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::Enumerate => "enumerate",
            Stage::Evaluate => "evaluate",
            Stage::Replace => "replace",
        }
    }
}

/// One run of a resident pass: the session plus the pass machinery, shared
/// by reference with every worker of the team.
pub(crate) struct Round<'a> {
    pub(crate) sess: &'a RewriteSession,
    pub(crate) counters: &'a Counters,
    spec: &'a SpecStats,
    pool: &'a StealPool,
    error: &'a FirstError,
    stage_ns: &'a [AtomicU64; 3],
    stage_start: Mutex<Instant>,
}

impl Round<'_> {
    /// Whether a teammate has reported an error this run. Remaining items
    /// are then skipped one by one; the stage itself still drains.
    fn bail(&self) -> bool {
        self.error.is_set()
    }

    /// One barrier-separated stage over the items `0..len`: the leader arms
    /// the pool, every worker drives `item` until the stage drains, and the
    /// leader books the stage's wall time under `stage`.
    ///
    /// Every worker must enter the drain even when a teammate has already
    /// reported an error: each worker seeds its own block of an armed round
    /// inside [`StealPool::drive`], so a worker that skipped the stage would
    /// strand its share as forever-pending items and the rest of the team
    /// would spin on the drain count. A poisoned run arms an empty round.
    pub(crate) fn stage(
        &self,
        w: &Worker<'_>,
        len: usize,
        stage: Option<Stage>,
        item: impl FnMut(usize, u32) -> ItemOutcome,
    ) {
        if w.barrier() {
            self.pool.begin(if self.bail() { 0 } else { len });
            *self.stage_start.lock() = Instant::now();
        }
        w.barrier();
        {
            let _obs = stage.map(|s| dacpara_obs::span(s.name()));
            self.pool.drive(w.id, item);
        }
        if w.barrier() {
            if let Some(s) = stage {
                let ns = self.stage_start.lock().elapsed().as_nanos() as u64;
                self.stage_ns[s as usize].fetch_add(ns, Ordering::Relaxed);
            }
        }
        w.barrier();
    }

    /// A plain, non-speculative item: runs `f` unless the run is bailing.
    pub(crate) fn step(&self, f: impl FnOnce()) -> ItemOutcome {
        if !self.bail() {
            f();
        }
        ItemOutcome::Done
    }

    /// A speculative item on its `tries`-th reschedule. `op` gets the retry
    /// policy and returns [`ItemOutcome::Retry`] to yield a conflict back to
    /// the pool.
    ///
    /// Operator panics are contained here, at the item boundary: the pool
    /// never sees an unwind, so it is not poisoned and the stage drains
    /// normally while [`Round::bail`] skips the rest. Errors go to the
    /// first-error slot.
    pub(crate) fn speculate(
        &self,
        tries: u32,
        op: impl FnOnce(RetryPolicy) -> Result<ItemOutcome, AigError>,
    ) -> ItemOutcome {
        if self.bail() {
            return ItemOutcome::Done;
        }
        let policy = if tries < MAX_SCHED_RETRIES {
            RetryPolicy::Yield
        } else {
            RetryPolicy::Block
        };
        match contain_panic(|| op(policy)) {
            Ok(ItemOutcome::Done) => {
                if tries > 0 {
                    self.pool.stats().record_retry_commit();
                }
                ItemOutcome::Done
            }
            Ok(ItemOutcome::Retry) => ItemOutcome::Retry,
            Err(e) => {
                self.error.record(e);
                ItemOutcome::Done
            }
        }
    }

    /// Runs `attempt` until it commits, or until it aborts under
    /// [`RetryPolicy::Yield`] (then [`ItemOutcome::Retry`]). Every attempt
    /// records exactly one Galois commit or abort, so
    /// `commits + aborts == attempts` holds at quiescence.
    pub(crate) fn attempts(
        &self,
        policy: RetryPolicy,
        mut attempt: impl FnMut() -> Result<Attempt, AigError>,
    ) -> Result<ItemOutcome, AigError> {
        // Injected before the first `record_attempt` so a contained panic
        // never breaks the exact accounting.
        if dacpara_fault::point(dacpara_fault::points::OPERATOR_PANIC) {
            panic!("injected fault: operator.panic");
        }
        let mut spins = 0u32;
        loop {
            let start = Instant::now();
            self.spec.record_attempt();
            match attempt()? {
                Attempt::Commit => {
                    self.spec.record_commit(start.elapsed());
                    return Ok(ItemOutcome::Done);
                }
                Attempt::Abort => {
                    self.spec.record_abort(start.elapsed());
                    if policy == RetryPolicy::Yield {
                        return Ok(ItemOutcome::Retry);
                    }
                    backoff(&mut spins);
                }
            }
        }
    }

    /// Phase 2 and apply: locks the nodes the new structure will share
    /// (aborting on a conflict), builds `cand` and installs it in place of
    /// `n`. `guard` holds the engine's phase-1 region until the attempt
    /// ends.
    pub(crate) fn apply(
        &self,
        owner: u32,
        n: NodeId,
        cand: &Candidate,
        re: &Reevaluation,
        guard: LockSet<'_>,
    ) -> Result<Attempt, AigError> {
        let (shared, store) = (&self.sess.shared, &self.sess.store);
        let extra: Vec<u32> = re
            .shared_nodes
            .iter()
            .map(|s| s.raw())
            .filter(|id| guard.ids().binary_search(id).is_err())
            .collect();
        let _extra_guard = if extra.is_empty() {
            None
        } else {
            match self.sess.locks.try_acquire(owner, extra) {
                Some(g) => Some(g),
                None => return Ok(Attempt::Abort),
            }
        };

        // Build, then (only if the structure actually differs) clear stale
        // enumeration results and replace. Invalidating before the no-op
        // check would re-dirty n's fanout cone every pass and a session
        // could never converge. The TFO walk must precede `replace_locked`,
        // which moves n's fanouts.
        let root = build_replacement(&mut &*shared, cand, self.sess.ctx.lib)?;
        if root.node() != n {
            for &f in &re.freed {
                store.invalidate(f);
            }
            store.invalidate_tfo(shared, n);
            shared.replace_locked(n, root);
            self.counters.replacements.fetch_add(1, Ordering::Relaxed);
            // Everything whose evaluation could have changed — the cone
            // interior, the new structure, shared nodes, and all downstream
            // users — lies in the transitive fanout of the cut leaves.
            for &l in &cand.leaves {
                store.mark_dirty_tfo(shared, l);
            }
            if dacpara_obs::is_enabled() {
                dacpara_obs::histogram("rewrite.replacement_gain").record(re.gain.max(0) as u64);
            }
        }
        Ok(Attempt::Commit)
    }
}

/// One resident pass on the session (honouring [`crate::RewriteConfig::runs`]):
/// the first pass after creation or a re-sync covers the whole graph, later
/// passes only the dirty set, and an empty dirty set returns immediately —
/// no enumeration, no evaluation. `round` is the engine: it processes one
/// run's worklist.
///
/// Fault tolerance: when a round ends with an error, the team has already
/// drained cooperatively through the bail checks, and the pass hands the
/// first error to [`RewriteSession::recover`]. If recovery succeeds (arena
/// re-homed with grown headroom, or a contained panic's salvage validated),
/// the same run is redone on the salvaged graph — committed rewrites are
/// kept — instead of returning `Err`.
pub(crate) fn run_pass(
    sess: &mut RewriteSession,
    engine: &str,
    round: impl Fn(&Round<'_>, Vec<NodeId>, &mut RewriteStats),
) -> Result<RewriteStats, AigError> {
    let start = Instant::now();
    let mut stats = RewriteStats {
        engine: engine.into(),
        area_before: sess.shared.num_ands(),
        delay_before: sess.shared.depth(),
        ..Default::default()
    };
    let spec = SpecStats::new();
    let lock_base = sess.locks.stats().snapshot();
    let counters = Counters::default();
    let stage_ns: [AtomicU64; 3] = Default::default();
    let pool = StealPool::new(sess.cfg.threads);
    let mut worked = false;

    let runs = sess.cfg.runs.max(1);
    let mut run = 0;
    while run < runs {
        let (work, skipped) = sess.take_worklist();
        stats.clean_skipped += skipped;
        if work.is_empty() {
            run += 1;
            continue; // fixpoint: nothing enumerated, nothing evaluated
        }
        worked = true;
        // Commits before this round belong to completed runs or to an
        // earlier salvage; a recovery credits only this round's.
        let round_base = counters.replacements.load(Ordering::Relaxed);
        let error = FirstError::new();
        round(
            &Round {
                sess,
                counters: &counters,
                spec: &spec,
                pool: &pool,
                error: &error,
                stage_ns: &stage_ns,
                stage_start: Mutex::new(Instant::now()),
            },
            work,
            &mut stats,
        );
        stats.errors_observed += error.superseded();
        match error.take() {
            None => {
                sess.canonicalize_and_sweep(true);
                sess.shared.recompute_levels();
                run += 1;
            }
            Some(e) => {
                // Salvage committed work and redo this run on the recovered
                // graph; `recover` propagates the error once its budget
                // (max_regrowths / panic backstop) is spent.
                let committed = counters.replacements.load(Ordering::Relaxed) - round_base;
                sess.recover(e, &mut stats, committed)?;
            }
        }
    }

    stats.area_after = sess.shared.num_ands();
    stats.delay_after = sess.shared.depth();
    stats.replacements = counters.replacements.load(Ordering::Relaxed);
    stats.stale_skipped = counters.stale_skipped.load(Ordering::Relaxed);
    stats.revalidated = counters.revalidated.load(Ordering::Relaxed);
    stats.evaluations = counters.evaluations.load(Ordering::Relaxed);
    spec.merge_snapshot(&sess.locks.stats().snapshot().since(&lock_base));
    stats.spec = spec.snapshot();
    stats.sched = pool.stats().snapshot();
    for (time, ns) in stats.stage_times.iter_mut().zip(&stage_ns) {
        *time = Duration::from_nanos(ns.load(Ordering::Relaxed));
    }
    stats.time = start.elapsed();
    if dacpara_obs::is_enabled() {
        dacpara_obs::counter("rewrite.evaluations").add(stats.evaluations);
    }
    sess.set_converged(!worked || (stats.replacements == 0 && sess.store.dirty_count() == 0));
    Ok(stats)
}
