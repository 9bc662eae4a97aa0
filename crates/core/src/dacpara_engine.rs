//! DACPara: divide-and-conquer parallel logic rewriting (the paper's
//! Algorithm 1 and §§4.2–4.4).
//!
//! The pass divides the AND nodes by their initial level into `Worklists`
//! and processes each list in three barrier-separated parallel stages:
//!
//! 1. **Parallel cut enumeration** (§4.2) — fills the shared cut memo
//!    bottom-up; the memo's generation tags take the place of the paper's
//!    enumeration locks (conflicts there are "almost negligible").
//! 2. **Parallel evaluation** (§4.3) — completely lock-free: each worker
//!    evaluates nodes against thread-local MFFC scratch and the
//!    decentralized structural hash, storing the best result in `prepInfo`.
//! 3. **Parallel replacement** (§4.4) — based on *dynamic global
//!    information*: each stored result is validated against the latest
//!    graph (leaf liveness + generation stamps, re-enumeration with
//!    leaf-set matching, NPN-class checking for recycled IDs — the Fig. 3
//!    protocol), re-evaluated so that "each replacement must obtain a
//!    positive gain on the latest AIG", and only then applied under
//!    Galois-style exclusive locks on the relevant nodes. Enumeration
//!    results of deleted nodes' transitive fanouts are recursively cleared.
//!
//! The run loop, scheduling, retry, recovery and apply machinery is shared
//! with ICCAD'18 in `driver.rs`; this file holds the node dividing, the
//! three stages and the §4.4 replacement plan.

use std::cell::Cell;
use std::sync::atomic::Ordering;

use dacpara_aig::{Aig, AigError, AigRead, NodeId};
use dacpara_galois::{run_spmd, ItemOutcome};
use dacpara_npn::canon;

use crate::driver::{run_pass, Attempt, Counters, RetryPolicy, Round, Stage};
use crate::eval::{build_replacement, evaluate_node, reevaluate_structure, Candidate};
use crate::session::RewriteSession;
use crate::validity::{cut_cover, verify_cut};
use crate::{Engine, RewriteConfig, RewriteStats};

/// Runs the DACPara pass.
///
/// # Errors
///
/// Returns [`AigError::CapacityExhausted`] if the arena headroom
/// ([`RewriteConfig::headroom`]) proves insufficient.
///
/// # Example
///
/// ```
/// use dacpara::{rewrite_dacpara, RewriteConfig};
/// use dacpara_circuits::control;
///
/// let mut aig = control::voter(15);
/// let stats = rewrite_dacpara(&mut aig, &RewriteConfig::rewrite_op().with_threads(2))?;
/// assert!(stats.area_after < stats.area_before);
/// # Ok::<(), dacpara_aig::AigError>(())
/// ```
pub fn rewrite_dacpara(aig: &mut Aig, cfg: &RewriteConfig) -> Result<RewriteStats, AigError> {
    let mut session = RewriteSession::new(aig, cfg)?;
    let stats = session.run(Engine::DacPara)?;
    *aig = session.finish();
    Ok(stats)
}

/// One DACPara pass on the session's resident state (see
/// [`run_pass`] for the run loop, incrementality and recovery).
pub(crate) fn session_pass(sess: &mut RewriteSession) -> Result<RewriteStats, AigError> {
    let _pass_span = dacpara_obs::span!("rewrite_dacpara", threads = sess.cfg.threads);
    run_pass(sess, "dacpara", round)
}

/// One run: divide the worklist by level and push each list through the
/// three barrier-separated stages.
fn round(r: &Round<'_>, work: Vec<NodeId>, stats: &mut RewriteStats) {
    let sess = r.sess;
    let (shared, store, prep) = (&sess.shared, &sess.store, &sess.prep);

    // --- Node dividing (Fig. 1): one worklist per initial level (or a
    // single global worklist under the ablation flag).
    let mut worklists: Vec<Vec<NodeId>> = Vec::new();
    if sess.cfg.level_partition {
        for n in work {
            let level = shared.level(n) as usize;
            if worklists.len() <= level {
                worklists.resize_with(level + 1, Vec::new);
            }
            worklists[level].push(n);
        }
    } else {
        worklists.push(work);
    }
    // Level 0 holds no AND nodes and sparse dirty sets leave gaps; empty
    // lists would only burn barriers.
    worklists.retain(|l| !l.is_empty());
    stats.worklists += worklists.len();

    run_spmd(sess.cfg.threads, |w| {
        let owner = w.id as u32 + 1;
        for list in &worklists {
            // -------- Stage 1: parallel cut enumeration.
            r.stage(w, list.len(), Some(Stage::Enumerate), |i, _| {
                r.step(|| {
                    let n = list[i];
                    if shared.is_and(n) && shared.refs(n) > 0 {
                        let _ = store.try_cuts(shared, n);
                    }
                })
            });

            // -------- Stage 2: parallel, lock-free evaluation.
            r.stage(w, list.len(), Some(Stage::Evaluate), |i, _| {
                r.step(|| {
                    let n = list[i];
                    if !shared.is_and(n) || shared.refs(n) == 0 {
                        *prep[n.index()].lock() = None;
                        return;
                    }
                    r.counters.evaluations.fetch_add(1, Ordering::Relaxed);
                    let cand = store
                        .try_cuts(shared, n)
                        .and_then(|cuts| evaluate_node(shared, n, &cuts, &sess.ctx));
                    *prep[n.index()].lock() = cand;
                })
            });

            // -------- Stage 3: parallel validated replacement. A
            // conflict-aborted commit puts its candidate back into `prep`
            // and yields the node to the retry queue; the retry ceiling
            // eventually forces inline blocking instead.
            //
            // Feature-gated drain-bug variant, the fuzzing self-test
            // target (it re-creates a historical steal-scheduler drain
            // bug): an off-by-one in the adopted range pairs a node with
            // the stored candidate of its worklist neighbor. The §4.4
            // revalidation would reject the foreign cut (its cover walk
            // cannot reach the neighbor's leaves), but the drained commit
            // skips that too — see `replace`. One mis-adoption per worker
            // per list keeps the corruption bounded so passes still
            // terminate. Never enabled in default builds.
            let misadopted = Cell::new(false);
            r.stage(w, list.len(), Some(Stage::Replace), |i, tries| {
                r.speculate(tries, |policy| {
                    let n = list[i];
                    let mut adopted = None;
                    if cfg!(feature = "inject-drain-bug") && !misadopted.get() && i + 1 < list.len()
                    {
                        adopted = prep[list[i + 1].index()].lock().take();
                        misadopted.set(adopted.is_some());
                    }
                    let Some(cand) = adopted.or_else(|| prep[n.index()].lock().take()) else {
                        return Ok(ItemOutcome::Done);
                    };
                    // A rescheduled node already counted its revalidation
                    // on the first try.
                    let mut revalidation_counted = tries > 0;
                    let outcome = r.attempts(policy, || {
                        replace(r, owner, n, &cand, policy, &mut revalidation_counted)
                    });
                    if let Ok(ItemOutcome::Retry) = outcome {
                        *prep[n.index()].lock() = Some(cand);
                    }
                    outcome
                })
            });

            // Leader restores strash canonicity between lists, tracing the
            // merges into the dirty set.
            if w.barrier() {
                sess.canonicalize_and_sweep(false);
            }
            w.barrier();
        }
    });
}

/// Counts a stored result found stale: the activity completes without
/// replacing anything.
fn stale(counters: &Counters) -> Result<Attempt, AigError> {
    counters.stale_skipped.fetch_add(1, Ordering::Relaxed);
    Ok(Attempt::Commit)
}

/// One attempt of the §4.4 replacement operator: validate the stored
/// candidate against the latest graph, lock its region, re-evaluate the
/// gain under the locks, then apply. The stored candidate stays untouched,
/// so a conflict can hand it back to the scheduler for a fresh
/// revalidation.
fn replace(
    r: &Round<'_>,
    owner: u32,
    n: NodeId,
    cand: &Candidate,
    policy: RetryPolicy,
    revalidation_counted: &mut bool,
) -> Result<Attempt, AigError> {
    let sess = r.sess;
    let (shared, store, ctx, counters) = (&sess.shared, &sess.store, &sess.ctx, r.counters);
    if !shared.is_and(n) || shared.refs(n) == 0 {
        return stale(counters);
    }

    // The commit half of the feature-gated drain-bug variant (see
    // stage 3): a worker draining a steal round treats adopted items as
    // already validated and already locked by their original owner, and
    // commits the stored snapshot wholesale — no leaf-generation triage,
    // no cover re-walk, no truth-table re-simulation, no gain
    // re-evaluation, no region locks. Combined with the adoption
    // off-by-one this installs a neighbor's structure under the wrong
    // root. Never enabled in default builds.
    if cfg!(feature = "inject-drain-bug") && policy == RetryPolicy::Yield {
        let root = build_replacement(&mut &*shared, cand, ctx.lib)?;
        // Even the injected bug must keep the graph acyclic: a foreign
        // structure can strash-resolve an interior node onto n itself, and
        // committing that would hang every downstream topo walk rather
        // than miscompare. The historical bug corrupted *functions*; keep
        // the reproduction in that class.
        let reaches_n = root.node() != n && {
            let mut stack = vec![root.node()];
            let mut seen = vec![false; shared.slot_count()];
            let mut found = false;
            while let Some(x) = stack.pop() {
                if x == n {
                    found = true;
                    break;
                }
                if !std::mem::replace(&mut seen[x.index()], true) && shared.is_and(x) {
                    for f in shared.fanins(x) {
                        stack.push(f.node());
                    }
                }
            }
            found
        };
        if root.node() != n && !reaches_n {
            store.invalidate_tfo(shared, n);
            shared.replace_locked(n, root);
            counters.replacements.fetch_add(1, Ordering::Relaxed);
            for &l in &cand.leaves {
                store.mark_dirty_tfo(shared, l);
            }
        }
        return Ok(Attempt::Commit);
    }

    // ---- Triage: are the stored leaves untouched (Theorem 1 case)?
    let leaves_fresh = cand
        .leaves
        .iter()
        .zip(&cand.leaf_gens)
        .all(|(&l, &g)| shared.is_alive(l) && shared.generation(l) == g);
    if !leaves_fresh {
        if !sess.cfg.revalidate {
            return stale(counters);
        }
        if !*revalidation_counted {
            counters.revalidated.fetch_add(1, Ordering::Relaxed);
            *revalidation_counted = true;
        }
        // §4.4: re-enumerate on the latest AIG and match the stored cut
        // against the fresh cut set.
        store.invalidate(n);
        let Some(fresh) = store.try_cuts(shared, n) else {
            // Someone holds the enumeration generation mid-update: a
            // conflict like any other lock conflict.
            return if shared.is_and(n) {
                Ok(Attempt::Abort)
            } else {
                stale(counters)
            };
        };
        if !fresh.iter().any(|c| c.leaves() == &cand.leaves[..]) {
            // A missed optimization opportunity (§5.2).
            return stale(counters);
        }
    }

    // ---- Phase-1 locks: the node, the cut cone, and the fanouts.
    let Some(cover_hint) = cut_cover(shared, n, &cand.leaves) else {
        return stale(counters);
    };
    let mut region: Vec<u32> = vec![n.raw()];
    region.extend(cand.leaves.iter().map(|l| l.raw()));
    region.extend(cover_hint.iter().map(|c| c.raw()));
    region.extend(shared.fanout_ids(n).iter().map(|f| f.raw()));
    let Some(guard) = sess.locks.try_acquire(owner, region) else {
        return Ok(Attempt::Abort);
    };

    // ---- Under locks: recompute the cover and the cut function.
    let Some((cover, tt)) = verify_cut(shared, n, &cand.leaves) else {
        return stale(counters);
    };
    if cover
        .iter()
        .any(|c| guard.ids().binary_search(&c.raw()).is_err())
    {
        // The cone shifted between planning and locking — replan.
        return Ok(Attempt::Abort);
    }
    let mut live = cand.clone();
    if tt != live.tt {
        // A leaf slot was recycled with different logic (Fig. 3): the
        // stored structure is only reusable if the NPN class matches.
        if ctx.registry.class_of(tt) != live.class {
            return stale(counters);
        }
        live.tt = tt;
        live.transform = canon(tt).1;
    }

    // ---- Re-evaluate on the latest AIG: gain must (still) be positive.
    let re = reevaluate_structure(shared, n, &live, ctx);
    let gain_ok = re.gain > 0 || (ctx.use_zeros && re.gain >= 0);
    let level_ok = !ctx.preserve_level || re.level <= shared.level(n);
    if !(gain_ok && level_ok) {
        return stale(counters);
    }
    r.apply(owner, n, &live, &re, guard)
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
    fn single_thread_reduces_and_stays_equivalent() {
        let mut aig = control::voter(15);
        let golden = aig.clone();
        let stats = rewrite_dacpara(&mut aig, &cfg(1)).unwrap();
        aig.check().unwrap();
        assert!(stats.area_reduction() > 0, "{}", stats.summary());
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn multi_thread_preserves_equivalence_on_random_logic() {
        let mut aig = mtm(&MtmParams {
            inputs: 32,
            gates: 2500,
            outputs: 12,
            seed: 11,
        });
        let golden = aig.clone();
        let stats = rewrite_dacpara(&mut aig, &cfg(4)).unwrap();
        aig.check().unwrap();
        assert!(stats.area_after <= stats.area_before);
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn multi_thread_on_arithmetic() {
        let mut aig = arith::multiplier(8);
        let golden = aig.clone();
        let stats = rewrite_dacpara(&mut aig, &cfg(4)).unwrap();
        aig.check().unwrap();
        assert!(stats.worklists > 1, "level partition must have many lists");
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn quality_tracks_the_serial_baseline() {
        // §5.2: DACPara loses only a fraction of a percent of area
        // reduction versus the fully serial baseline.
        let gen = || control::voter(101);
        let mut serial = gen();
        let s = crate::rewrite_serial(&mut serial, &cfg(1)).unwrap();
        let mut para = gen();
        let p = rewrite_dacpara(&mut para, &cfg(4)).unwrap();
        let slack = 1 + s.area_reduction() / 10;
        assert!(
            p.area_reduction() + slack >= s.area_reduction(),
            "serial {} vs dacpara {}",
            s.summary(),
            p.summary()
        );
    }

    #[test]
    fn two_runs_converge() {
        let mut aig = arith::square(6);
        let golden = aig.clone();
        let mut c = cfg(2);
        c.runs = 2;
        let stats = rewrite_dacpara(&mut aig, &c).unwrap();
        aig.check().unwrap();
        let _ = stats;
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn stage_times_are_recorded() {
        let mut aig = arith::multiplier(6);
        let stats = rewrite_dacpara(&mut aig, &cfg(2)).unwrap();
        assert!(stats.stage_times[1] > std::time::Duration::ZERO);
    }
}
