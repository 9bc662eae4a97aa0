//! Long-lived rewriting state for incremental multi-pass flows.
//!
//! Logic rewriting is locally optimal, so real flows apply it many times
//! (§1 of the paper). The one-shot engine entry points rebuild every piece
//! of pass state — the [`ConcurrentAig`] arena, the [`CutStore`] memo, the
//! [`LockTable`], the per-slot candidate storage — on every call, and every
//! later pass re-enumerates and re-evaluates the whole graph even when the
//! previous pass changed a small fraction of it.
//!
//! [`RewriteSession`] owns that state for the lifetime of a flow:
//!
//! * Allocation happens once. The `Aig ↔ ConcurrentAig` round-trip moves to
//!   the session boundaries ([`RewriteSession::new`] /
//!   [`RewriteSession::finish`]); `cfg.runs` iterations inside one
//!   [`RewriteSession::run`] call and successive `run` calls all reuse the
//!   same arena, memo, locks and candidate vector.
//! * A **dirty-set** makes later passes incremental. Seeded from §4.4's
//!   recursive invalidation (every memo invalidation marks its node dirty)
//!   plus gain-only marking — committed replacements mark the transitive
//!   fanout of their cut leaves, canonicalization and cleanup mark the
//!   nodes whose reference counts or fanout sets they touch — the set
//!   conservatively over-approximates the nodes whose cuts *or* MFFC could
//!   have changed. A pass drains it and visits only those nodes, in
//!   topological order; everything else is reported as
//!   [`RewriteStats::clean_skipped`] (obs counter `session.clean_skipped`).
//! * An empty dirty set is a **fixpoint**: `run` returns immediately with
//!   zero [`RewriteStats::evaluations`] — the evaluate stage never runs.
//!
//! The two engines that operate on shared state — [`Engine::DacPara`] and
//! [`Engine::Iccad18`] — run *resident* on the session. The other four are
//! still accepted: the session extracts the serial graph, runs them, and
//! re-syncs (losing incrementality for that pass, keeping allocations).

use dacpara_aig::concurrent::ConcurrentAig;
use dacpara_aig::{Aig, AigError, AigRead, NodeId};
use dacpara_cut::CutStore;
use dacpara_equiv::{check_equivalence, CecConfig, CecResult};
use dacpara_galois::LockTable;
use parking_lot::Mutex;

use crate::eval::{Candidate, EvalContext};
use crate::pass::Engine;
use crate::{
    rewrite_partition, rewrite_serial, rewrite_static, RewriteConfig, RewriteStats, StaticMode,
};

/// Reusable state for incremental multi-pass rewriting.
///
/// # Example
///
/// ```
/// use dacpara::{Engine, RewriteConfig, RewriteSession};
/// use dacpara_circuits::control;
///
/// let aig = control::voter(15);
/// let cfg = RewriteConfig::rewrite_op().with_threads(2);
/// let mut session = RewriteSession::new(&aig, &cfg)?;
/// let first = session.run(Engine::DacPara)?;
/// let second = session.run(Engine::DacPara)?; // incremental: dirty nodes only
/// assert!(second.area_after <= first.area_after);
/// let optimized = session.finish();
/// optimized.check()?;
/// # Ok::<(), dacpara_aig::AigError>(())
/// ```
pub struct RewriteSession {
    pub(crate) cfg: RewriteConfig,
    pub(crate) ctx: EvalContext,
    pub(crate) shared: ConcurrentAig,
    pub(crate) store: CutStore,
    pub(crate) locks: LockTable,
    pub(crate) prep: Vec<Mutex<Option<Candidate>>>,
    /// The next worklist must cover the whole graph (first pass, or first
    /// pass after a re-sync).
    fresh: bool,
    converged: bool,
    passes_run: usize,
    /// Serial snapshot known equivalent to the current graph (committed
    /// rewrites are equivalence-preserving, so it stays valid across
    /// passes; refreshed by [`RewriteSession::resync`] because external
    /// mutation carries no such guarantee). The panic-recovery path
    /// CEC-checks salvaged graphs against it before accepting them.
    golden: Aig,
    /// Effective arena headroom: starts at [`RewriteConfig::headroom`] and
    /// grows geometrically on each exhaustion recovery, persisting across
    /// passes so a session that needed headroom once keeps it.
    cur_headroom: f64,
    /// Exhaustion recoveries performed, bounded by
    /// [`RewriteConfig::max_regrowths`] over the session lifetime.
    regrowths: u64,
    /// Contained-panic recoveries performed, bounded by
    /// [`MAX_PANIC_RECOVERIES`] over the session lifetime.
    panic_recoveries: u64,
}

/// Headroom multiplier applied on each arena-exhaustion recovery.
const REGROWTH_FACTOR: f64 = 2.0;

/// Session-lifetime bound on contained-panic recoveries. A panic is a bug,
/// not an expected operating condition like exhaustion, so the bound is a
/// fixed backstop rather than a tunable: recover a few times to finish the
/// flow, but a persistently panicking operator must eventually surface as
/// [`AigError::WorkerPanicked`].
const MAX_PANIC_RECOVERIES: u64 = 4;

impl RewriteSession {
    /// Builds a session over a copy of `aig`, allocating the concurrent
    /// arena, cut memo, lock table and candidate storage once.
    ///
    /// # Errors
    ///
    /// Returns the [`crate::ConfigError`] mapped through [`AigError`] if
    /// `cfg` fails [`RewriteConfig::validate`].
    pub fn new(aig: &Aig, cfg: &RewriteConfig) -> Result<RewriteSession, AigError> {
        cfg.validate()?;
        let shared = ConcurrentAig::from_aig(aig, cfg.headroom)?;
        let store = CutStore::new(shared.capacity(), cfg.cut_config());
        store.set_dirty_tracking(true);
        let locks = LockTable::new(shared.capacity());
        let prep = (0..shared.capacity()).map(|_| Mutex::new(None)).collect();
        Ok(RewriteSession {
            ctx: EvalContext::new(cfg),
            cur_headroom: cfg.headroom,
            cfg: cfg.clone(),
            shared,
            store,
            locks,
            prep,
            fresh: true,
            converged: false,
            passes_run: 0,
            golden: aig.clone(),
            regrowths: 0,
            panic_recoveries: 0,
        })
    }

    /// Runs one engine pass (honouring [`RewriteConfig::runs`]) on the
    /// session state.
    ///
    /// [`Engine::DacPara`] and [`Engine::Iccad18`] run resident: the first
    /// pass processes every node, later passes only the dirty set, and a
    /// pass that finds the dirty set empty returns immediately without
    /// enumerating or evaluating anything. The remaining engines run on an
    /// extracted serial graph and re-sync the session afterwards.
    ///
    /// # Errors
    ///
    /// Propagates engine errors ([`AigError::CapacityExhausted`] when
    /// [`RewriteConfig::headroom`] proves insufficient).
    pub fn run(&mut self, engine: Engine) -> Result<RewriteStats, AigError> {
        let stats = match engine {
            Engine::DacPara => crate::dacpara_engine::session_pass(self)?,
            Engine::Iccad18 => crate::lockstep::session_pass(self)?,
            Engine::AbcRewrite | Engine::Dac22 | Engine::Tcad23 | Engine::Partition => {
                let mut aig = self.extract();
                let stats = match engine {
                    Engine::AbcRewrite => rewrite_serial(&mut aig, &self.cfg)?,
                    Engine::Dac22 => rewrite_static(&mut aig, &self.cfg, StaticMode::Conditional)?,
                    Engine::Tcad23 => {
                        rewrite_static(&mut aig, &self.cfg, StaticMode::Unconditional)?
                    }
                    Engine::Partition => rewrite_partition(&mut aig, &self.cfg)?,
                    Engine::Iccad18 | Engine::DacPara => unreachable!("resident engines"),
                };
                self.resync(&aig)?;
                self.converged = stats.area_reduction() == 0;
                stats
            }
        };
        self.passes_run += 1;
        Ok(stats)
    }

    /// Whether the session has reached a fixpoint: the last pass committed
    /// nothing and left no node dirty, so the next resident pass would
    /// return immediately.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Number of `run` calls completed so far.
    pub fn passes_run(&self) -> usize {
        self.passes_run
    }

    /// Number of nodes currently marked dirty (the next incremental pass's
    /// worklist bound).
    pub fn dirty_len(&self) -> usize {
        self.store.dirty_count()
    }

    /// A serial snapshot of the current graph (levels recomputed).
    pub fn extract(&self) -> Aig {
        let mut aig = self.shared.to_aig();
        aig.recompute_levels();
        aig
    }

    /// Consumes the session and returns the optimized graph.
    pub fn finish(self) -> Aig {
        self.extract()
    }

    /// Re-initializes the session from an externally mutated graph, reusing
    /// every allocation that is still large enough. The cut memo is reset
    /// (node ids were renumbered) and the next pass processes the whole
    /// graph again. The golden equivalence snapshot is refreshed: external
    /// mutation carries no equivalence guarantee.
    ///
    /// # Errors
    ///
    /// Propagates [`ConcurrentAig::resync_from`] sizing errors; the session
    /// keeps its previous graph on error.
    pub fn resync(&mut self, aig: &Aig) -> Result<(), AigError> {
        self.rehome(aig)?;
        self.golden = aig.clone();
        Ok(())
    }

    /// Re-homes the session onto `aig` at the current effective headroom
    /// without touching the golden snapshot (shared by [`RewriteSession::resync`]
    /// and the in-pass recovery paths, whose graphs are already known
    /// equivalent to it).
    fn rehome(&mut self, aig: &Aig) -> Result<(), AigError> {
        self.shared.resync_from(aig, self.cur_headroom)?;
        let cap = self.shared.capacity();
        self.store.grow(cap);
        self.store.reset();
        self.locks.ensure_capacity(cap);
        if self.prep.len() < cap {
            self.prep.resize_with(cap, || Mutex::new(None));
        }
        self.fresh = true;
        self.converged = false;
        Ok(())
    }

    /// Attempts in-pass recovery from `err`, salvaging every committed
    /// rewrite. On `Ok(())` the session has been re-homed onto the salvaged
    /// graph and the interrupted pass should redo its current run from a
    /// full worklist (resync renumbers nodes, so the pre-fault dirty set is
    /// not translatable — the full list is its superset). On `Err` the
    /// caller must propagate: the fault is either not recoverable, over its
    /// budget, or the salvaged graph failed validation.
    ///
    /// `newly_committed` is the number of replacements the failing run
    /// committed since it started or since the last salvage point,
    /// whichever is later; it feeds [`RewriteStats::salvaged_commits`].
    pub(crate) fn recover(
        &mut self,
        err: AigError,
        stats: &mut RewriteStats,
        newly_committed: u64,
    ) -> Result<(), AigError> {
        match err {
            AigError::CapacityExhausted { .. } => {
                if self.regrowths >= self.cfg.max_regrowths as u64 {
                    return Err(err);
                }
                // Commits are atomic under all-or-nothing locks, so after
                // the team drained, the shared graph is consistent — at
                // worst a failed replacement left a dangling (unreferenced)
                // cone behind. Restore canonicity, drop dangling cones, and
                // re-home into a geometrically larger arena.
                self.canonicalize_and_sweep(true);
                let salvaged = self.extract();
                self.cur_headroom *= REGROWTH_FACTOR;
                self.rehome(&salvaged)?;
                self.regrowths += 1;
                stats.regrowths += 1;
                if dacpara_obs::is_enabled() {
                    dacpara_obs::counter("session.regrowths").incr();
                }
                self.note_recovery(stats, newly_committed);
                Ok(())
            }
            AigError::WorkerPanicked { .. } => {
                if self.panic_recoveries >= MAX_PANIC_RECOVERIES {
                    return Err(err);
                }
                // A panic escaping an operator voids the locking-discipline
                // argument that exhaustion recovery leans on, so the
                // salvaged graph must prove itself: structural invariants
                // first, then equivalence against the golden snapshot.
                self.canonicalize_and_sweep(true);
                if self.shared.check().is_err() {
                    return Err(err);
                }
                let salvaged = self.extract();
                let cec = CecConfig {
                    sim_rounds: 32,
                    max_conflicts: 100_000,
                    seed: 0xFA17,
                };
                // `Undecided` passes: simulation found no difference and
                // the bounded SAT budget simply ran out — the same policy
                // the differential suites use for large graphs.
                if let CecResult::Inequivalent(_) = check_equivalence(&self.golden, &salvaged, &cec)
                {
                    return Err(err);
                }
                self.rehome(&salvaged)?;
                self.panic_recoveries += 1;
                self.note_recovery(stats, newly_committed);
                Ok(())
            }
            other => Err(other),
        }
    }

    /// Common bookkeeping for a successful recovery: stats fields plus the
    /// drift-checked `session.*` obs counters.
    fn note_recovery(&self, stats: &mut RewriteStats, newly_committed: u64) {
        stats.recoveries += 1;
        stats.salvaged_commits += newly_committed;
        if dacpara_obs::is_enabled() {
            dacpara_obs::counter("session.recoveries").incr();
            dacpara_obs::counter("session.salvaged_commits").add(newly_committed);
        }
    }

    /// The worklist for the next resident pass: every live AND node on a
    /// fresh graph, otherwise the dirty nodes (drained) in topological
    /// order. Also returns the number of live AND nodes skipped as clean,
    /// which feeds [`RewriteStats::clean_skipped`] and the
    /// `session.clean_skipped` obs counter.
    pub(crate) fn take_worklist(&mut self) -> (Vec<NodeId>, u64) {
        if self.fresh {
            self.fresh = false;
            // The flags seeded before the first pass (if any) are covered
            // by the full scan.
            let _ = self.store.drain_dirty();
            return (dacpara_aig::topo_ands(&self.shared), 0);
        }
        let dirty = self.store.drain_dirty();
        let mut is_dirty = vec![false; self.shared.capacity()];
        for n in &dirty {
            is_dirty[n.index()] = true;
        }
        let all = dacpara_aig::topo_ands(&self.shared);
        let total = all.len() as u64;
        let work: Vec<NodeId> = all.into_iter().filter(|n| is_dirty[n.index()]).collect();
        let skipped = total - work.len() as u64;
        if dacpara_obs::is_enabled() {
            dacpara_obs::counter("session.clean_skipped").add(skipped);
        }
        (work, skipped)
    }

    /// Record the verdict of a finished resident pass.
    pub(crate) fn set_converged(&mut self, converged: bool) {
        self.converged = converged;
    }

    /// Single-threaded synchronization-point maintenance shared by the
    /// resident engines: restore strash canonicity, delete dangling cones,
    /// and translate everything either step touched into memo invalidation
    /// + dirty marks so the next pass revisits the affected region.
    pub(crate) fn canonicalize_and_sweep(&self, cleanup: bool) {
        let mut touched = Vec::new();
        self.shared.canonicalize_traced(&mut touched);
        if cleanup {
            // Boundary fanins of deleted cones: structure unchanged, but
            // their reference counts (MFFC picture) shifted.
            let mut boundary = Vec::new();
            self.shared.cleanup_traced(&mut boundary);
            for b in boundary {
                if self.shared.is_alive(b) {
                    self.store.mark_dirty_tfo(&self.shared, b);
                }
            }
        }
        for x in touched {
            if self.shared.is_alive(x) {
                // Merged/refanned nodes: entries downstream may be
                // generation-fresh yet content-stale, so clear them.
                self.store.invalidate_tfo(&self.shared, x);
            } else {
                self.store.invalidate(x);
            }
        }
    }
}

impl std::fmt::Debug for RewriteSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RewriteSession")
            .field("capacity", &self.shared.capacity())
            .field("num_ands", &self.shared.num_ands())
            .field("dirty", &self.store.dirty_count())
            .field("passes_run", &self.passes_run)
            .field("converged", &self.converged)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacpara_circuits::{arith, control};

    fn cfg() -> RewriteConfig {
        RewriteConfig {
            num_classes: 222,
            threads: 2,
            ..RewriteConfig::rewrite_op()
        }
    }

    #[test]
    fn new_rejects_invalid_config() {
        let aig = control::voter(11);
        let bad = RewriteConfig {
            threads: 0,
            ..cfg()
        };
        assert!(RewriteSession::new(&aig, &bad).is_err());
    }

    #[test]
    fn fixpoint_pass_returns_without_evaluating() {
        let aig = arith::adder(8);
        let mut sess = RewriteSession::new(&aig, &cfg()).unwrap();
        let mut last = sess.run(Engine::DacPara).unwrap();
        for _ in 0..6 {
            if sess.converged() {
                break;
            }
            last = sess.run(Engine::DacPara).unwrap();
        }
        assert!(sess.converged(), "adder converges quickly: {last}");
        let fix = sess.run(Engine::DacPara).unwrap();
        assert_eq!(fix.evaluations, 0, "converged pass must skip evaluation");
        assert_eq!(fix.replacements, 0);
        assert_eq!(fix.area_reduction(), 0);
    }

    #[test]
    fn non_resident_engines_round_trip_through_the_session() {
        let aig = control::voter(15);
        let mut sess = RewriteSession::new(&aig, &cfg()).unwrap();
        let s1 = sess.run(Engine::AbcRewrite).unwrap();
        assert!(s1.area_reduction() > 0);
        let s2 = sess.run(Engine::DacPara).unwrap();
        assert!(s2.area_after <= s1.area_after);
        let out = sess.finish();
        out.check().unwrap();
        assert_eq!(out.num_ands(), s2.area_after);
    }

    #[test]
    fn resync_resets_incrementality() {
        let aig = control::voter(15);
        let mut sess = RewriteSession::new(&aig, &cfg()).unwrap();
        sess.run(Engine::DacPara).unwrap();
        let snapshot = sess.extract();
        sess.resync(&snapshot).unwrap();
        // After a resync the next pass is a full pass again.
        let stats = sess.run(Engine::DacPara).unwrap();
        assert_eq!(stats.clean_skipped, 0);
    }
}
