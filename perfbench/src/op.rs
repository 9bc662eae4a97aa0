//! One benchmark operation: rewrite one circuit with one engine, then give
//! the result a correctness verdict.
//!
//! An untraced operation calls the entry points the `rewrite` CLI uses
//! (`run_engine`, `optimize`, `check_equivalence`). A traced one makes the
//! same library calls one layer at a time — `RewriteSession` steps in place
//! of `optimize`, and simulation, miter and SAT in place of
//! `check_equivalence` — each inside a benchmark span, so every layer's time
//! is measured from outside the program.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dacpara::{optimize, run_engine, Engine, RewriteConfig, RewriteSession, RewriteStats};
use dacpara_aig::{Aig, AigError, AigRead, Lit};
use dacpara_equiv::{
    assert_lit, check_equivalence, miter, random_sim_check, CecConfig, CecResult, CnfMap,
    SatResult, SimOutcome, Solver,
};

use crate::workload::{sim_seed, Circuit, Plan, CEC_CONFLICTS, CEC_SIM_ROUNDS, SIM_ROUNDS};

/// Correctness verdict on one rewritten circuit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// SAT proved the rewritten circuit equivalent to its input.
    Proven,
    /// The SAT conflict budget ran out; random simulation found no
    /// difference. Not a pass and not a failure.
    Undecided,
    /// Simulation or SAT found an input on which the circuits differ.
    Disproven,
    /// Random simulation found no difference; no proof was attempted.
    SimOnly,
    /// The engine returned an error or panicked.
    Failed(String),
}

impl Verdict {
    /// Report name.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Proven => "proven",
            Verdict::Undecided => "undecided",
            Verdict::Disproven => "disproven",
            Verdict::SimOnly => "sim-only",
            Verdict::Failed(_) => "failed",
        }
    }

    /// Whether the operation counts as failed.
    pub fn is_failure(&self) -> bool {
        matches!(self, Verdict::Disproven | Verdict::Failed(_))
    }
}

/// Layer times of one traced operation, in seconds (all zero untraced).
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// `RewriteSession::new`.
    pub session_new: f64,
    /// The first `RewriteSession::run`.
    pub session_pass1: f64,
    /// Every later `RewriteSession::run`.
    pub session_incremental: f64,
    /// `RewriteSession::finish`.
    pub session_finish: f64,
    /// `random_sim_check`.
    pub sim: f64,
    /// `miter`.
    pub miter: f64,
    /// ANDs of the miter.
    pub miter_ands: usize,
    /// CNF encoding plus `Solver::solve_limited`.
    pub sat: f64,
    /// Conflicts the SAT solver spent.
    pub sat_conflicts: u64,
}

/// Outcome of one operation.
#[derive(Clone, Debug)]
pub struct Op {
    /// Circuit name.
    pub circuit: &'static str,
    /// Engine that rewrote it.
    pub engine: Engine,
    /// AND count before and after.
    pub ands: (usize, usize),
    /// Depth before and after.
    pub depth: (u32, u32),
    /// Seconds in the rewrite calls of each rewrite round (see
    /// [`Plan::rewrite_rounds`]); the first round's result is the one
    /// checked.
    pub rewrite_s: Vec<f64>,
    /// Seconds to the verdict.
    pub check_s: f64,
    /// The verdict.
    pub verdict: Verdict,
    /// Statistics of every pass that ran.
    pub passes: Vec<RewriteStats>,
    /// Per-layer times (traced operations only).
    pub layers: LayerTimes,
}

/// Runs `f` inside the benchmark span `name`, tagged with the iteration id
/// and circuit, and returns its result with its duration.
///
/// The program's own instrumentation stays off while `f` runs, so a traced
/// call executes the same program code as an untraced one and the trace
/// holds only the benchmark's spans around each layer call. With tracing
/// off the span is inert.
pub fn layer<T>(name: &'static str, iter: u64, circuit: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = dacpara_obs::span_with_args(
        name,
        vec![("iter", iter.to_string()), ("circuit", circuit.to_string())],
    );
    let out = {
        let _off = Suspend::new();
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_secs_f64())
    };
    drop(span);
    out
}

/// Disables the program's instrumentation until dropped, then restores it
/// (also when the guarded call unwinds).
struct Suspend(bool);

impl Suspend {
    fn new() -> Suspend {
        let on = dacpara_obs::is_enabled();
        dacpara_obs::disable();
        Suspend(on)
    }
}

impl Drop for Suspend {
    fn drop(&mut self) {
        if self.0 {
            dacpara_obs::enable();
        }
    }
}

/// Rewrites `circuit` with `engine` as `plan` prescribes and checks the
/// result. `iter` tags the trace spans of a traced operation.
pub fn run_op(plan: &Plan, circuit: &Circuit, engine: Engine, traced: bool, iter: u64) -> Op {
    let cfg = RewriteConfig::rewrite_op().with_threads(plan.threads);
    let golden = &circuit.aig;
    let mut run = OpRun {
        plan,
        traced,
        iter,
        name: circuit.name,
        layers: LayerTimes::default(),
    };
    let (rewritten, secs) = run.rewrite_timed(&cfg, golden, engine);
    let mut op = Op {
        circuit: circuit.name,
        engine,
        ands: (golden.num_ands(), golden.num_ands()),
        depth: (golden.depth(), golden.depth()),
        rewrite_s: vec![secs],
        check_s: 0.0,
        verdict: Verdict::SimOnly,
        passes: Vec::new(),
        layers: LayerTimes::default(),
    };
    match rewritten {
        Err(why) => op.verdict = Verdict::Failed(why),
        Ok((passes, aig)) => {
            op.passes = passes;
            op.ands.1 = aig.num_ands();
            op.depth.1 = aig.depth();
            if let Err(why) = run.repeat(&cfg, golden, engine, &aig, &mut op.rewrite_s) {
                op.verdict = Verdict::Failed(why);
            } else {
                let start = Instant::now();
                op.verdict = catch_unwind(AssertUnwindSafe(|| run.verdict(golden, &aig)))
                    .unwrap_or_else(|panic| {
                        Verdict::Failed(format!("panic in check: {}", panic_text(&panic)))
                    });
                op.check_s = start.elapsed().as_secs_f64();
            }
        }
    }
    op.layers = run.layers;
    op
}

/// The state of one operation while it runs.
struct OpRun<'a> {
    plan: &'a Plan,
    traced: bool,
    iter: u64,
    name: &'static str,
    layers: LayerTimes,
}

impl OpRun<'_> {
    fn layer<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        layer(name, self.iter, self.name, f)
    }

    /// Rewrites a copy of `golden`, returning the statistics of every pass
    /// and the rewritten circuit, or why the rewrite failed, with the
    /// seconds the rewrite took (the copy not included).
    fn rewrite_timed(
        &mut self,
        cfg: &RewriteConfig,
        golden: &Aig,
        engine: Engine,
    ) -> (Result<(Vec<RewriteStats>, Aig), String>, f64) {
        let mut aig = golden.clone();
        let start = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| self.rewrite(cfg, &mut aig, engine)));
        let secs = start.elapsed().as_secs_f64();
        let out = match out {
            Err(panic) => Err(format!("panic: {}", panic_text(&panic))),
            Ok(Err(e)) => Err(e.to_string()),
            Ok(Ok(passes)) => {
                aig.recompute_levels();
                Ok((passes, aig))
            }
        };
        (out, secs)
    }

    /// The rewrite rounds after the first, each on a fresh copy of
    /// `golden`, adding their seconds to `secs`. Each round must give
    /// `first`'s AND count and depth: the workloads that repeat rewrite at
    /// one thread, which is deterministic.
    fn repeat(
        &mut self,
        cfg: &RewriteConfig,
        golden: &Aig,
        engine: Engine,
        first: &Aig,
        secs: &mut Vec<f64>,
    ) -> Result<(), String> {
        let want = (first.num_ands(), first.depth());
        for round in 2..=self.plan.rewrite_rounds {
            let (out, s) = self.rewrite_timed(cfg, golden, engine);
            secs.push(s);
            let (_, aig) = out?;
            let got = (aig.num_ands(), aig.depth());
            if got != want {
                return Err(format!(
                    "rewrite round {round} gave {} ANDs, depth {}; round 1 gave {} ANDs, depth {}",
                    got.0, got.1, want.0, want.1
                ));
            }
        }
        Ok(())
    }

    fn rewrite(
        &mut self,
        cfg: &RewriteConfig,
        aig: &mut Aig,
        engine: Engine,
    ) -> Result<Vec<RewriteStats>, AigError> {
        let max_passes = self.plan.workload.passes();
        if max_passes == 1 {
            let stats = if self.traced {
                self.layer("core.run_engine", || run_engine(aig, engine, cfg))
                    .0
            } else {
                run_engine(aig, engine, cfg)
            };
            return stats.map(|s| vec![s]);
        }
        if !self.traced {
            return optimize(aig, engine, cfg, max_passes);
        }
        // `optimize`'s resident-engine loop, one timed layer call per step.
        let (session, t) = self.layer("core.session.new", || RewriteSession::new(aig, cfg));
        self.layers.session_new = t;
        let mut session = session?;
        let mut all = Vec::new();
        for pass in 0..max_passes {
            let (stats, t) = self.layer("core.session.run", || session.run(engine));
            if pass == 0 {
                self.layers.session_pass1 = t;
            } else {
                self.layers.session_incremental += t;
            }
            let stats = stats?;
            let improved = stats.area_reduction() > 0;
            all.push(stats);
            if session.converged() || !improved {
                break;
            }
        }
        let (out, t) = self.layer("core.session.finish", || session.finish());
        self.layers.session_finish = t;
        *aig = out;
        Ok(all)
    }

    fn verdict(&mut self, golden: &Aig, aig: &Aig) -> Verdict {
        let seed = sim_seed(self.plan.seed);
        if !self.plan.workload.proves() {
            let (sim, t) = self.layer("equiv.random_sim_check", || {
                random_sim_check(golden, aig, SIM_ROUNDS, seed)
            });
            self.layers.sim = t;
            return match sim {
                SimOutcome::NoDifferenceFound => Verdict::SimOnly,
                SimOutcome::Counterexample(_) => Verdict::Disproven,
            };
        }
        if !self.traced {
            let cfg = CecConfig {
                sim_rounds: CEC_SIM_ROUNDS,
                max_conflicts: CEC_CONFLICTS,
                seed,
            };
            return match check_equivalence(golden, aig, &cfg) {
                CecResult::Equivalent => Verdict::Proven,
                CecResult::Undecided => Verdict::Undecided,
                CecResult::Inequivalent(_) => Verdict::Disproven,
            };
        }
        // `check_equivalence`, one timed layer call per step.
        let (sim, t) = self.layer("equiv.random_sim_check", || {
            random_sim_check(golden, aig, CEC_SIM_ROUNDS, seed)
        });
        self.layers.sim = t;
        if let SimOutcome::Counterexample(_) = sim {
            return Verdict::Disproven;
        }
        let (m, t) = self.layer("equiv.miter", || miter(golden, aig));
        self.layers.miter = t;
        self.layers.miter_ands = m.num_ands();
        let out = m.outputs()[0];
        if out == Lit::FALSE {
            return Verdict::Proven;
        }
        if out == Lit::TRUE {
            return Verdict::Disproven;
        }
        let ((result, conflicts), t) = self.layer("equiv.sat", || {
            let mut solver = Solver::new();
            let map = CnfMap::encode(&m, &mut solver);
            assert_lit(&mut solver, &map, out);
            let result = solver.solve_limited(CEC_CONFLICTS);
            (result, solver.num_conflicts())
        });
        self.layers.sat = t;
        self.layers.sat_conflicts = conflicts;
        match result {
            Some(SatResult::Unsat) => Verdict::Proven,
            Some(SatResult::Sat) => Verdict::Disproven,
            None => Verdict::Undecided,
        }
    }
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".into())
}

/// Wall time of `f` in seconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
