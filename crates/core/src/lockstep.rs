//! The ICCAD'18 fine-grained parallel rewriting scheme (Possani et al.).
//!
//! One Galois operator per node performs *all three* rewriting stages —
//! enumeration, evaluation, replacement — while holding exclusive locks on
//! every related node. A conflicting activity aborts and loses everything
//! it computed, including the (dominant) evaluation work; that wasted work
//! is what the paper's Fig. 2 contrasts with DACPara's split operators, and
//! it is recorded here in [`dacpara_galois::SpecStats`].
//!
//! The run loop, scheduling, retry, recovery and apply machinery is shared
//! with DACPara in `driver.rs`; this file holds only the operator's plan.

use std::sync::atomic::Ordering;

use dacpara_aig::{Aig, AigError, AigRead, NodeId};
use dacpara_galois::run_spmd;

use crate::driver::{run_pass, Attempt, Round};
use crate::eval::{evaluate_node, reevaluate_structure};
use crate::session::RewriteSession;
use crate::validity::{cut_cover, verify_cut};
use crate::{Engine, RewriteConfig, RewriteStats};

/// Runs the combined-operator parallel rewriting pass.
///
/// # Errors
///
/// Returns [`AigError::CapacityExhausted`] if the arena headroom
/// ([`RewriteConfig::headroom`]) proves insufficient.
pub fn rewrite_lockstep(aig: &mut Aig, cfg: &RewriteConfig) -> Result<RewriteStats, AigError> {
    let mut session = RewriteSession::new(aig, cfg)?;
    let stats = session.run(Engine::Iccad18)?;
    *aig = session.finish();
    Ok(stats)
}

/// One ICCAD'18 pass on the session's resident state (see [`run_pass`] for
/// the run loop, incrementality and recovery).
pub(crate) fn session_pass(sess: &mut RewriteSession) -> Result<RewriteStats, AigError> {
    let _pass_span = dacpara_obs::span!("rewrite_lockstep", threads = sess.cfg.threads);
    run_pass(sess, "iccad18", round)
}

/// One run: a single speculative stage over the whole worklist.
fn round(r: &Round<'_>, work: Vec<NodeId>, _: &mut RewriteStats) {
    run_spmd(r.sess.cfg.threads, |w| {
        let owner = w.id as u32 + 1;
        r.stage(w, work.len(), None, |i, tries| {
            r.speculate(tries, |policy| {
                r.attempts(policy, || combined(r, owner, work[i]))
            })
        });
    });
}

/// One attempt of the single ICCAD'18-style operator: enumerate, lock
/// everything related, evaluate *while holding the locks*, then replace. A
/// conflict discards everything the attempt computed — a retry recomputes
/// enumeration and evaluation from scratch, exactly the waste the paper's
/// Fig. 2 charges this scheme.
fn combined(r: &Round<'_>, owner: u32, n: NodeId) -> Result<Attempt, AigError> {
    let sess = r.sess;
    let (shared, store, ctx) = (&sess.shared, &sess.store, &sess.ctx);
    if !shared.is_and(n) || shared.refs(n) == 0 {
        return Ok(Attempt::Commit);
    }

    // Stage A: cut enumeration (results verified under locks below).
    let cuts = {
        let _obs = dacpara_obs::span("enumerate");
        store.try_cuts(shared, n)
    };
    let Some(cuts) = cuts else {
        return Ok(if shared.is_and(n) {
            Attempt::Abort
        } else {
            Attempt::Commit
        });
    };

    // Lock "all related nodes": self, fanouts, every cut's cover and
    // leaves — acquired *before* evaluation, held throughout, exactly the
    // scheme whose serialization the paper criticizes. Cuts whose cover
    // cannot be collected (stale, or larger than the exploration bound
    // around high-fanout reconvergence) are simply dropped from
    // consideration — retrying could loop forever on a stable graph.
    let mut region: Vec<u32> = vec![n.raw()];
    region.extend(shared.fanout_ids(n).iter().map(|f| f.raw()));
    let mut usable: Vec<dacpara_cut::Cut> = Vec::with_capacity(cuts.len());
    for cut in cuts.iter().filter(|c| c.len() >= 2) {
        if let Some(cover) = cut_cover(shared, n, cut.leaves()) {
            region.extend(cover.iter().map(|c| c.raw()));
            region.extend(cut.leaves().iter().map(|l| l.raw()));
            usable.push(*cut);
        }
    }
    if usable.is_empty() {
        return Ok(Attempt::Commit);
    }
    let Some(guard) = sess.locks.try_acquire(owner, region) else {
        return Ok(Attempt::Abort);
    };

    // Under locks: keep only cuts whose function is confirmed on the live
    // graph (stale enumerations are dropped, not misapplied).
    let valid_cuts: Vec<_> = usable
        .iter()
        .filter(|c| matches!(verify_cut(shared, n, c.leaves()), Some((_, tt)) if tt == c.tt()))
        .copied()
        .collect();

    // Stage B: evaluation while holding every lock.
    let cand = {
        let _obs = dacpara_obs::span("evaluate");
        r.counters.evaluations.fetch_add(1, Ordering::Relaxed);
        evaluate_node(shared, n, &valid_cuts, ctx)
    };
    let Some(cand) = cand else {
        return Ok(Attempt::Commit);
    };
    let re = reevaluate_structure(shared, n, &cand, ctx);
    if !(re.gain > 0 || (ctx.use_zeros && re.gain >= 0)) {
        return Ok(Attempt::Commit);
    }

    // Stage C: replacement. A phase-2 conflict here loses everything —
    // enumeration AND evaluation.
    let _obs = dacpara_obs::span("replace");
    r.apply(owner, n, &cand, &re, guard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacpara_circuits::{arith, control, mtm, MtmParams};
    use dacpara_equiv::{check_equivalence, CecConfig, CecResult};

    fn cfg(threads: usize) -> RewriteConfig {
        RewriteConfig {
            num_classes: 222,
            threads,
            ..RewriteConfig::rewrite_op()
        }
    }

    fn assert_equiv(before: &Aig, after: &Aig) {
        // Bounded SAT budget: a counterexample is always a failure; an
        // exhausted budget falls back on the (passing) simulation check.
        let cfg = CecConfig {
            sim_rounds: 32,
            max_conflicts: 100_000,
            seed: 0xDAC,
        };
        match check_equivalence(before, after, &cfg) {
            CecResult::Equivalent | CecResult::Undecided => {}
            CecResult::Inequivalent(_) => panic!("rewriting broke equivalence"),
        }
    }

    #[test]
    fn single_thread_matches_serial_soundness() {
        let mut aig = control::voter(15);
        let golden = aig.clone();
        let stats = rewrite_lockstep(&mut aig, &cfg(1)).unwrap();
        aig.check().unwrap();
        assert!(stats.area_reduction() > 0, "{}", stats.summary());
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn multi_thread_preserves_equivalence() {
        let mut aig = mtm(&MtmParams {
            inputs: 32,
            gates: 2000,
            outputs: 12,
            seed: 5,
        });
        let golden = aig.clone();
        let stats = rewrite_lockstep(&mut aig, &cfg(4)).unwrap();
        aig.check().unwrap();
        assert!(stats.area_after <= stats.area_before);
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn multiplier_under_contention() {
        let mut aig = arith::multiplier(8);
        let golden = aig.clone();
        rewrite_lockstep(&mut aig, &cfg(4)).unwrap();
        aig.check().unwrap();
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn conflicts_are_observable_under_threads() {
        // High-fanout circuits under several threads should log at least
        // some speculative activity (commits always; conflicts usually).
        let mut aig = mtm(&MtmParams {
            inputs: 24,
            gates: 3000,
            outputs: 12,
            seed: 77,
        });
        let stats = rewrite_lockstep(&mut aig, &cfg(4)).unwrap();
        assert!(stats.spec.commits > 0);
    }
}
