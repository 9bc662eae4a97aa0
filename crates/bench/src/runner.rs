//! Executes engines over benchmarks and records results.

use std::time::Instant;

use dacpara::{run_engine, Engine, RewriteConfig};
use dacpara_aig::{Aig, AigRead};
use dacpara_circuits::{Benchmark, Scale};
use dacpara_equiv::{check_equivalence, random_sim_check, CecConfig, CecResult, SimOutcome};
use dacpara_obs::json::{Json, ToJson};

/// How a run's equivalence check ended. An inequivalent result is never a
/// verdict: the harness panics instead.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CheckVerdict {
    /// SAT proved the rewritten graph equivalent.
    Proven,
    /// Random simulation found no difference, but the SAT budget ran out
    /// before a proof.
    Undecided,
    /// Only random simulation ran: the pair is above the harness's
    /// `sat_limit`.
    SimOnly,
}

impl CheckVerdict {
    /// Short name used in reports and JSON (`proven`, `undecided`,
    /// `sim-only`).
    pub fn name(self) -> &'static str {
        match self {
            CheckVerdict::Proven => "proven",
            CheckVerdict::Undecided => "undecided",
            CheckVerdict::SimOnly => "sim-only",
        }
    }
}

/// One engine × benchmark measurement.
#[derive(Clone, Debug)]
pub struct BenchRun {
    /// Benchmark name.
    pub benchmark: String,
    /// Engine name.
    pub engine: String,
    /// Mean wall-clock seconds over the repeats.
    pub time_s: f64,
    /// AND count before rewriting.
    pub area_before: usize,
    /// AND count after rewriting.
    pub area_after: usize,
    /// Removed AND count (the paper's "Area Reduction").
    pub area_reduction: usize,
    /// Depth after rewriting (the paper's "Delay").
    pub delay: u32,
    /// Depth before rewriting.
    pub delay_before: u32,
    /// Committed replacements.
    pub replacements: u64,
    /// Stale results skipped (missed opportunities).
    pub stale_skipped: u64,
    /// Stored cuts revalidated by re-enumeration.
    pub revalidated: u64,
    /// Lock conflicts observed.
    pub conflicts: u64,
    /// Aborted speculative activities.
    pub aborts: u64,
    /// Fraction of operator time wasted by aborts.
    pub wasted_fraction: f64,
    /// Equivalence check verdict (`None` = skipped).
    pub verdict: Option<CheckVerdict>,
}

impl ToJson for BenchRun {
    fn to_json(&self) -> Json {
        Json::obj([
            ("benchmark", self.benchmark.to_json()),
            ("engine", self.engine.to_json()),
            ("time_s", self.time_s.to_json()),
            ("area_before", self.area_before.to_json()),
            ("area_after", self.area_after.to_json()),
            ("area_reduction", self.area_reduction.to_json()),
            ("delay", self.delay.to_json()),
            ("delay_before", self.delay_before.to_json()),
            ("replacements", self.replacements.to_json()),
            ("stale_skipped", self.stale_skipped.to_json()),
            ("revalidated", self.revalidated.to_json()),
            ("conflicts", self.conflicts.to_json()),
            ("aborts", self.aborts.to_json()),
            ("wasted_fraction", self.wasted_fraction.to_json()),
            ("verdict", self.verdict.map(CheckVerdict::name).to_json()),
        ])
    }
}

/// How the harness runs experiments.
#[derive(Copy, Clone, Debug)]
pub struct Harness {
    /// Benchmark scale.
    pub scale: Scale,
    /// Threads for the parallel engines.
    pub threads: usize,
    /// Timing repeats (the paper averages 5 executions).
    pub repeats: usize,
    /// Check functional equivalence after each run.
    pub check: bool,
    /// Maximum AND count for which the SAT stage of the equivalence check
    /// is attempted (above it, random simulation only).
    pub sat_limit: usize,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            scale: Scale::Small,
            threads: 4,
            repeats: 1,
            check: true,
            sat_limit: 2_000,
        }
    }
}

impl Harness {
    /// Runs `engine` on a fresh copy of the benchmark, `repeats` times,
    /// averaging the wall-clock time and reporting the last run's quality.
    ///
    /// # Panics
    ///
    /// Panics if the engine reports an arena-capacity error (a
    /// configuration problem worth failing loudly on) or if the equivalence
    /// check *disproves* equivalence — a rewriting bug must never be
    /// silently recorded as a data point.
    pub fn run_one(&self, bench: &Benchmark, engine: Engine, cfg: &RewriteConfig) -> BenchRun {
        let _obs = dacpara_obs::span!("bench_run", benchmark = bench.name, engine = engine.name());
        let mut last_stats = None;
        let mut last_aig: Option<Aig> = None;
        let mut total = 0.0f64;
        for _ in 0..self.repeats.max(1) {
            let mut aig = bench.aig.clone();
            let t0 = Instant::now();
            let stats = run_engine(&mut aig, engine, cfg)
                .unwrap_or_else(|e| panic!("{engine} failed on {}: {e}", bench.name));
            total += t0.elapsed().as_secs_f64();
            last_stats = Some(stats);
            last_aig = Some(aig);
        }
        let stats = last_stats.expect("at least one repeat");
        let rewritten = last_aig.expect("at least one repeat");

        let verdict = self
            .check
            .then(|| self.check_equivalence(&bench.aig, &rewritten, &bench.name, engine));

        BenchRun {
            benchmark: bench.name.clone(),
            engine: engine.name().to_string(),
            time_s: total / self.repeats.max(1) as f64,
            area_before: stats.area_before,
            area_after: stats.area_after,
            area_reduction: stats.area_reduction(),
            delay: stats.delay_after,
            delay_before: stats.delay_before,
            replacements: stats.replacements,
            stale_skipped: stats.stale_skipped,
            revalidated: stats.revalidated,
            conflicts: stats.spec.conflicts,
            aborts: stats.spec.aborts,
            wasted_fraction: stats.spec.wasted_fraction(),
            verdict,
        }
    }

    fn check_equivalence(
        &self,
        golden: &Aig,
        rewritten: &Aig,
        name: &str,
        engine: Engine,
    ) -> CheckVerdict {
        if golden.num_ands() + rewritten.num_ands() <= self.sat_limit {
            // Bounded SAT: a counterexample is definitive; Undecided means
            // the budget ran out after the random simulation passed.
            let cec = CecConfig {
                max_conflicts: 50_000,
                ..CecConfig::default()
            };
            match check_equivalence(golden, rewritten, &cec) {
                CecResult::Equivalent => CheckVerdict::Proven,
                CecResult::Undecided => CheckVerdict::Undecided,
                CecResult::Inequivalent(_) => {
                    panic!("{engine} produced a non-equivalent {name}")
                }
            }
        } else {
            match random_sim_check(golden, rewritten, 32, 0xDAC) {
                SimOutcome::NoDifferenceFound => CheckVerdict::SimOnly,
                SimOutcome::Counterexample(_) => {
                    panic!("{engine} produced a non-equivalent {name}")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacpara_circuits::mtm_suite;

    #[test]
    fn harness_runs_and_checks() {
        let harness = Harness {
            scale: Scale::Test,
            threads: 2,
            repeats: 1,
            check: true,
            sat_limit: 4_000,
        };
        let suite = mtm_suite(Scale::Test);
        let cfg = RewriteConfig::rewrite_op().with_threads(2);
        let run = harness.run_one(&suite[0], Engine::DacPara, &cfg);
        assert_eq!(run.engine, "dacpara");
        assert_eq!(run.verdict, Some(CheckVerdict::Proven));
        assert!(run.area_after <= run.area_before);
    }
}
