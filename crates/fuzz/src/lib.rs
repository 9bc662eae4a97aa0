#![warn(missing_docs)]
//! dacpara-fuzz: differential fuzzing for the DACPara rewriting engines.
//!
//! The hand-built benchmark suites pin the behaviours the authors thought
//! of; this crate hunts the rest of the space. Four pieces:
//!
//! * [`gen`] — a seeded random AIG generator (node/input/depth budgets,
//!   reconvergence and XOR/MUX-richness knobs),
//! * [`mutate`] — structurally-valid-by-construction mutations over
//!   existing AIGs (edge retarget, complement flip, function-preserving
//!   node duplication, cone swap),
//! * [`oracle`] — the differential oracle: every engine × thread
//!   count, cross-checked with budgeted CEC and the structural
//!   invariant checker, optionally under `dacpara-fault` injection,
//! * [`shrink`] — a delta-debugging minimizer that keeps a failure alive
//!   while the circuit shrinks (cone removal, node bypass, input merging),
//! * [`corpus`] — replayable one-file entries (seed + AIGER + oracle
//!   setup) under `fuzz/corpus/`.
//!
//! The crate's own self-test (`tests/selftest.rs`) closes the loop: with
//! the `inject-drain-bug` feature re-introducing the PR 4 steal-scheduler
//! drain bug, the fuzzer must find a failing circuit within a bounded seed
//! budget and shrink the witness below 60 nodes.
//!
//! # Example
//!
//! ```
//! use dacpara_fuzz::{fuzz_run, FuzzConfig};
//!
//! let report = fuzz_run(&FuzzConfig::smoke(4), 0xF00D);
//! assert_eq!(report.iterations, 4);
//! assert!(report.failing.is_none(), "healthy engines must pass");
//! ```

pub mod corpus;
pub mod gen;
pub mod mutate;
pub mod oracle;
pub mod shrink;

use dacpara_aig::{Aig, AigRead};

use gen::GenConfig;
use oracle::{check_circuit, Failure, OracleConfig};
use shrink::{shrink, ShrinkConfig};

/// Configuration of a [`fuzz_run`] campaign.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Number of circuits to generate and check.
    pub iters: usize,
    /// Generator budgets.
    pub gen: GenConfig,
    /// Oracle sweep per circuit.
    pub oracle: OracleConfig,
    /// Every `mutate_every`-th iteration additionally checks a mutant of
    /// the fresh circuit (0 disables mutation).
    pub mutate_every: usize,
}

impl FuzzConfig {
    /// A bounded smoke campaign: small circuits, the full engine matrix at
    /// 1 and 2 threads, mutation on every third iteration.
    pub fn smoke(iters: usize) -> Self {
        FuzzConfig {
            iters,
            gen: GenConfig::small(),
            oracle: OracleConfig {
                points: dacpara::testkit::engine_matrix(&[1, 2]),
                ..OracleConfig::default()
            },
            mutate_every: 3,
        }
    }
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iters: 100,
            gen: GenConfig::default(),
            oracle: OracleConfig::default(),
            mutate_every: 3,
        }
    }
}

/// A failing circuit found by [`fuzz_run`].
#[derive(Clone, Debug)]
pub struct FailingCase {
    /// The seed of the iteration that found it.
    pub seed: u64,
    /// The failing circuit (pre-shrink).
    pub aig: Aig,
    /// The failing matrix cells.
    pub failures: Vec<Failure>,
}

/// Summary of a [`fuzz_run`] campaign.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Iterations actually executed (stops early on the first failure).
    pub iterations: usize,
    /// Circuits checked (fresh + mutants).
    pub circuits: usize,
    /// The first failing case, when one was found.
    pub failing: Option<FailingCase>,
}

/// Per-iteration seed derivation: decorrelates the campaign seed from the
/// iteration index (SplitMix64 finalizer).
pub fn iteration_seed(campaign: u64, iter: u64) -> u64 {
    let mut z = campaign.wrapping_add(iter.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs a fuzzing campaign: generate, optionally mutate, check; stop at the
/// first failing circuit (or after `cfg.iters` clean iterations).
pub fn fuzz_run(cfg: &FuzzConfig, campaign_seed: u64) -> FuzzReport {
    let _span = dacpara_obs::span("fuzz.run");
    let mut circuits = 0usize;
    for iter in 0..cfg.iters {
        dacpara_obs::counter("fuzz.iterations").incr();
        let seed = iteration_seed(campaign_seed, iter as u64);
        let golden = gen::generate(&cfg.gen, seed);
        circuits += 1;
        let failures = check_circuit(&golden, &cfg.oracle);
        if !failures.is_empty() {
            return FuzzReport {
                iterations: iter + 1,
                circuits,
                failing: Some(FailingCase {
                    seed,
                    aig: golden,
                    failures,
                }),
            };
        }
        if cfg.mutate_every != 0 && iter % cfg.mutate_every == cfg.mutate_every - 1 {
            let mutant = mutate::mutate(&golden, 2, seed ^ 0xDEAD_BEEF);
            circuits += 1;
            let failures = check_circuit(&mutant, &cfg.oracle);
            if !failures.is_empty() {
                return FuzzReport {
                    iterations: iter + 1,
                    circuits,
                    failing: Some(FailingCase {
                        seed,
                        aig: mutant,
                        failures,
                    }),
                };
            }
        }
    }
    FuzzReport {
        iterations: cfg.iters,
        circuits,
        failing: None,
    }
}

/// Shrinks a failing case against the same oracle that convicted it: a
/// candidate "still fails" when any of `repeats` fresh sweeps reports a
/// failure (parallel failures are probabilistic; repetition trades shrink
/// time for reproducibility).
pub fn shrink_failing(case: &FailingCase, oracle: &OracleConfig, shrink_cfg: &ShrinkConfig) -> Aig {
    let _span = dacpara_obs::span("fuzz.shrink");
    let repeats = shrink_cfg.repeats.max(1);
    shrink(&case.aig, shrink_cfg, |candidate| {
        (0..repeats).any(|_| !check_circuit(candidate, oracle).is_empty())
    })
}

/// Renders a one-line human summary of a report.
pub fn summarize(report: &FuzzReport) -> String {
    match &report.failing {
        Some(case) => format!(
            "FAIL after {} iterations ({} circuits): seed {} area {} — {}",
            report.iterations,
            report.circuits,
            case.seed,
            case.aig.num_ands(),
            case.failures
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        ),
        None => format!(
            "ok: {} iterations, {} circuits, zero oracle failures",
            report.iterations, report.circuits
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_seeds_decorrelate() {
        let a = iteration_seed(1, 0);
        let b = iteration_seed(1, 1);
        let c = iteration_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, iteration_seed(1, 0));
    }
}
