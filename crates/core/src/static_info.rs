//! CPU re-implementations of the static-global-information GPU rewriters.
//!
//! * **DAC'22 ("NovelRewrite")** — enumerate and evaluate *all* nodes once,
//!   in parallel, against the original (static) AIG, then perform *serial
//!   conditional replacement*: a stored result is applied only if its cut
//!   is still intact, using its **static** gain (no re-evaluation).
//! * **TCAD'23** — same two-phase shape, but evaluation ignores logical
//!   sharing entirely ("replaces all subgraphs based on static global
//!   information without considering logical sharing, and then merges
//!   logical equivalent nodes"); the merge falls out of this workspace's
//!   strash-canonical [`Aig::replace`].
//!
//! The original systems run phase one on a 9216-core GPU; the phase is
//! embarrassingly parallel and read-only, so a CPU thread team preserves
//! the algorithmic behaviour exactly (`DESIGN.md` §2). What the paper
//! compares — *quality* under static information — is hardware-independent.

use std::time::Instant;

use dacpara_aig::{Aig, AigError, AigRead};
use dacpara_cut::CutStore;
use dacpara_galois::parallel_for;
use parking_lot::Mutex;

use crate::eval::{build_replacement, evaluate_node, Candidate, EvalContext};
use crate::validity::verify_cut;
use crate::{RewriteConfig, RewriteStats};

/// Which static-information method to emulate.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum StaticMode {
    /// DAC'22: sharing-aware static evaluation, conditional replacement.
    Conditional,
    /// TCAD'23: sharing-blind static evaluation, replacement + merge.
    Unconditional,
}

impl StaticMode {
    fn engine_name(self) -> &'static str {
        match self {
            StaticMode::Conditional => "dac22-static",
            StaticMode::Unconditional => "tcad23-static",
        }
    }
}

/// Runs the static-information rewriting emulation.
///
/// # Errors
///
/// Currently infallible (kept `Result` for interface parity with the
/// concurrent engines).
pub fn rewrite_static(
    aig: &mut Aig,
    cfg: &RewriteConfig,
    mode: StaticMode,
) -> Result<RewriteStats, AigError> {
    let start = Instant::now();
    let _pass_span = dacpara_obs::span!("rewrite_static", mode = mode);
    let mut ctx = EvalContext::new(cfg);
    ctx.count_sharing = mode == StaticMode::Conditional;
    let mut stats = RewriteStats {
        engine: mode.engine_name().into(),
        area_before: aig.num_ands(),
        delay_before: aig.depth(),
        ..Default::default()
    };

    for _ in 0..cfg.runs.max(1) {
        // ---- Phase A: parallel enumeration + evaluation on the static AIG.
        let t_eval = Instant::now();
        let order = dacpara_aig::topo_ands(aig);
        if order.is_empty() {
            // A gateless netlist (constants/wires only) has nothing to
            // enumerate, and further runs cannot create work.
            break;
        }
        let store = CutStore::new(aig.slot_count(), cfg.cut_config());
        let prep: Vec<Mutex<Option<Candidate>>> =
            (0..aig.slot_count()).map(|_| Mutex::new(None)).collect();
        {
            let (aig, store, prep, ctx) = (&*aig, &store, &prep, &ctx);
            parallel_for(cfg.threads, &order, |_, &n| {
                if AigRead::refs(aig, n) == 0 {
                    return;
                }
                let cuts = {
                    let _obs = dacpara_obs::span("enumerate");
                    store.cuts(aig, n)
                };
                let _obs = dacpara_obs::span("evaluate");
                *prep[n.index()].lock() = evaluate_node(aig, n, &cuts, ctx);
            });
        }
        stats.stage_times[1] += t_eval.elapsed();

        // ---- Phase B: serial (conditional) replacement using static gains.
        let t_rep = Instant::now();
        let _obs = dacpara_obs::span("replace");
        for n in order {
            let Some(cand) = prep[n.index()].lock().take() else {
                continue;
            };
            if !aig.is_and(n) || AigRead::refs(aig, n) == 0 {
                stats.stale_skipped += 1;
                continue;
            }
            // Condition: the stored cut must still be intact (leaves alive
            // with unchanged generations) and still compute the function the
            // structure was selected for — otherwise replacing would corrupt
            // logic. Crucially, the *gain is not re-evaluated*: that is the
            // static-information deficit the paper measures.
            let intact = cand
                .leaves
                .iter()
                .zip(&cand.leaf_gens)
                .all(|(&l, &g)| aig.is_alive(l) && aig.generation(l) == g);
            if !intact {
                stats.stale_skipped += 1;
                continue;
            }
            match verify_cut(aig, n, &cand.leaves) {
                Some((_, tt)) if tt == cand.tt => {}
                _ => {
                    stats.stale_skipped += 1;
                    continue;
                }
            }
            let root = build_replacement(aig, &cand, ctx.lib)
                .expect("the serial builder cannot exhaust an arena");
            if root.node() != n {
                aig.replace(n, root);
                stats.replacements += 1;
            }
        }
        aig.cleanup();
        stats.stage_times[2] += t_rep.elapsed();
    }

    aig.recompute_levels();
    stats.area_after = aig.num_ands();
    stats.delay_after = aig.depth();
    stats.time = start.elapsed();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacpara_circuits::{arith, control, mtm, MtmParams};
    use dacpara_equiv::{check_equivalence, CecConfig, CecResult};

    fn cfg() -> RewriteConfig {
        RewriteConfig {
            num_classes: 222,
            threads: 3,
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
    fn conditional_mode_is_sound() {
        let mut aig = control::voter(15);
        let golden = aig.clone();
        let stats = rewrite_static(&mut aig, &cfg(), StaticMode::Conditional).unwrap();
        aig.check().unwrap();
        assert!(stats.area_after <= stats.area_before);
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn unconditional_mode_is_sound() {
        let mut aig = arith::multiplier(6);
        let golden = aig.clone();
        let stats = rewrite_static(&mut aig, &cfg(), StaticMode::Unconditional).unwrap();
        aig.check().unwrap();
        let _ = stats;
        assert_equiv(&golden, &aig);
    }

    #[test]
    fn static_quality_trails_dynamic_quality() {
        // The paper's central quality claim: static global information
        // leaves area on the table versus the (serial, fully dynamic)
        // baseline on complex circuits.
        let gen = || {
            mtm(&MtmParams {
                inputs: 32,
                gates: 3000,
                outputs: 16,
                seed: 99,
            })
        };
        let mut dynamic = gen();
        let dyn_stats = crate::rewrite_serial(&mut dynamic, &cfg()).unwrap();
        let mut static_ = gen();
        let sta_stats = rewrite_static(&mut static_, &cfg(), StaticMode::Unconditional).unwrap();
        assert!(
            dyn_stats.area_after <= sta_stats.area_after,
            "dynamic {} vs static {}",
            dyn_stats.summary(),
            sta_stats.summary()
        );
    }

    #[test]
    fn stale_results_are_skipped_not_misapplied() {
        let mut aig = control::voter(9);
        let golden = aig.clone();
        let stats = rewrite_static(&mut aig, &cfg(), StaticMode::Conditional).unwrap();
        // Overlapping cones make some stored results stale; they must be
        // counted, and equivalence must hold regardless.
        let _ = stats.stale_skipped;
        assert_equiv(&golden, &aig);
    }
}
