//! The differential oracle: one circuit, every engine configuration.
//!
//! A circuit passes when every cell of the engine matrix — engine ×
//! thread count — returns successfully, keeps the structural
//! invariants and stays functionally equivalent to the input under budgeted
//! CEC. Optionally the whole sweep runs under a `dacpara-fault` injection
//! plan, in which case clean engine *errors* are expected behaviour (that
//! is the fault-tolerance contract) and only corruption — an invariant
//! violation or an inequivalence — counts as a failure.

use dacpara::testkit::{engine_matrix, run_matrix_point, MatrixPoint, MatrixVerdict};
use dacpara_aig::Aig;
use dacpara_equiv::CecBudget;
use dacpara_fault::FaultPlan;

/// Configuration of one oracle sweep.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// The matrix cells to run. Defaults to the full differential sweep at
    /// 1, 2 and 4 threads.
    pub points: Vec<MatrixPoint>,
    /// Equivalence-check budget per cell.
    pub budget: CecBudget,
    /// Optional fault-injection plan armed around every cell.
    pub fault: Option<FaultPlan>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            points: engine_matrix(&[1, 2, 4]),
            budget: CecBudget::fuzzing(),
            fault: None,
        }
    }
}

/// One failing matrix cell.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The cell that failed.
    pub point: MatrixPoint,
    /// What went wrong.
    pub verdict: MatrixVerdict,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {:?}", self.point, self.verdict)
    }
}

/// Runs the full oracle sweep on `golden` and returns every failing cell
/// (empty means the circuit passed).
///
/// Under a fault plan, [`MatrixVerdict::EngineError`] cells are filtered
/// out: injected faults are *supposed* to surface as clean errors, and the
/// recovery differential suite already pins their behaviour. Corruption
/// verdicts always count.
pub fn check_circuit(golden: &Aig, cfg: &OracleConfig) -> Vec<Failure> {
    let mut failures = Vec::new();
    dacpara_obs::counter("fuzz.oracle.circuits").incr();
    for point in &cfg.points {
        dacpara_obs::counter("fuzz.oracle.cells").incr();
        let verdict = match &cfg.fault {
            Some(plan) => {
                let _inj = dacpara_fault::inject(plan);
                run_matrix_point(golden, point, &cfg.budget)
            }
            None => run_matrix_point(golden, point, &cfg.budget),
        };
        let expected_fault_error =
            cfg.fault.is_some() && matches!(verdict, MatrixVerdict::EngineError(_));
        if verdict.is_failure() && !expected_fault_error {
            match &verdict {
                MatrixVerdict::Inequivalent { .. } => {
                    dacpara_obs::counter("fuzz.oracle.inequivalent").incr()
                }
                MatrixVerdict::InvariantViolation(_) => {
                    dacpara_obs::counter("fuzz.oracle.invariant_violations").incr()
                }
                _ => dacpara_obs::counter("fuzz.oracle.engine_errors").incr(),
            }
            failures.push(Failure {
                point: *point,
                verdict,
            });
        }
    }
    if !failures.is_empty() {
        dacpara_obs::counter("fuzz.oracle.failures").incr();
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn healthy_engines_pass_the_oracle() {
        let golden = generate(&GenConfig::small(), 5);
        let cfg = OracleConfig {
            points: engine_matrix(&[1, 2]),
            ..OracleConfig::default()
        };
        let failures = check_circuit(&golden, &cfg);
        assert!(
            failures.is_empty(),
            "unexpected failures: {:?}",
            failures.iter().map(|f| f.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fault_injected_sweep_tolerates_clean_errors() {
        let golden = generate(&GenConfig::small(), 6);
        let plan = FaultPlan::parse("arena.alloc=1/40*4", 11).unwrap();
        let cfg = OracleConfig {
            points: engine_matrix(&[1, 2]),
            fault: Some(plan),
            ..OracleConfig::default()
        };
        let failures = check_circuit(&golden, &cfg);
        assert!(
            failures.is_empty(),
            "fault sweep must not corrupt: {:?}",
            failures.iter().map(|f| f.to_string()).collect::<Vec<_>>()
        );
    }
}
