//! The benchmark's workloads: which circuits, engines, threads, passes and
//! correctness gate each one runs, and the inputs generated from `--seed`.
//!
//! The generator parameters mirror `dacpara_circuits::arithmetic_suite` and
//! `mtm_suite`, so seed 0 reproduces the suite circuits by name. Every run
//! prints each input's AND count and depth and compares them with
//! [`RECORDED`]: a generator change then shows up as a changed input, not as
//! a speed-up.

use std::str::FromStr;

use dacpara::Engine;
use dacpara_aig::{Aig, AigRead};
use dacpara_circuits::{arith, control, doubled, mtm, MtmParams};

/// The seed whose inputs equal the suite circuits and [`RECORDED`].
pub const DEFAULT_SEED: u64 = 0;

/// Conflict budget of every `check-small` equivalence check. At this budget
/// `sin_2xd` (about 2.9k conflicts) and `mem_2xd` (7.2k) are proven;
/// `sqrt_2xd` (11.5k), `square_2xd` and `mult_2xd` end Undecided. It keeps
/// an iteration, with its rewrite rounds, within a worker's 10-second share
/// of a run.
pub const CEC_CONFLICTS: u64 = 10_000;

/// Rounds of 64-pattern random simulation in the `sim-only` gate.
pub const SIM_ROUNDS: usize = 64;

/// Simulation rounds run before SAT in the `check-small` equivalence check
/// (the `CecConfig` default).
pub const CEC_SIM_ROUNDS: usize = 16;

/// AND count and depth of every input at [`DEFAULT_SEED`].
///
/// Inputs that do not depend on the seed are checked on every run; the
/// [`SEEDED`] ones only at [`DEFAULT_SEED`].
pub const RECORDED: [(&str, usize, u32); 10] = [
    ("log2_3xd", 109_816, 741),
    ("mem_3xd", 48_016, 23),
    ("sixteen", 7_759, 218),
    ("twenty", 9_961, 267),
    ("twentythree", 11_454, 286),
    ("sin_2xd", 4_572, 122),
    ("sqrt_2xd", 2_592, 142),
    ("mem_2xd", 9_636, 15),
    ("square_2xd", 4_760, 85),
    ("mult_2xd", 5_088, 85),
];

/// The inputs whose generator seed `--seed` drives: the MtM trio of
/// `wide-multipass`.
pub const SEEDED: [&str; 3] = ["sixteen", "twenty", "twentythree"];

/// A named benchmark workload.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `log2_3xd` at medium scale, `dacpara`, 2 threads, one pass, gated by
    /// random simulation.
    DeepLog2,
    /// `mem_3xd` and the medium MtM trio, `dacpara` and `iccad18`,
    /// 2 threads, up to 4 passes on one session, gated by random simulation.
    WideMultipass,
    /// Five small arithmetic/control circuits rewritten by `dacpara` at
    /// 1 thread, then checked by SAT with a fixed conflict budget.
    CheckSmall,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DeepLog2,
        Workload::WideMultipass,
        Workload::CheckSmall,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DeepLog2 => "deep-log2",
            Workload::WideMultipass => "wide-multipass",
            Workload::CheckSmall => "check-small",
        }
    }

    /// Engines run on every circuit, in order.
    pub fn engines(self) -> &'static [Engine] {
        match self {
            Workload::WideMultipass => &[Engine::DacPara, Engine::Iccad18],
            Workload::DeepLog2 | Workload::CheckSmall => &[Engine::DacPara],
        }
    }

    /// Worker threads of every rewrite.
    pub fn threads(self) -> usize {
        match self {
            Workload::DeepLog2 | Workload::WideMultipass => 2,
            // One thread makes the rewritten circuit, hence the miter and
            // the SAT work, identical on every run.
            Workload::CheckSmall => 1,
        }
    }

    /// Maximum rewrite passes per circuit (`optimize`'s `max_passes`).
    pub fn passes(self) -> usize {
        match self {
            Workload::WideMultipass => 4,
            Workload::DeepLog2 | Workload::CheckSmall => 1,
        }
    }

    /// Rewrite rounds per circuit and iteration of an untraced run. Only
    /// the first round's result is checked; every later round rewrites a
    /// fresh copy of the input and must give the same AND count and depth.
    /// `check-small` spends most of an iteration in the checker, so
    /// one rewrite per iteration would give `rewrite_s` only a handful of
    /// sub-second samples per run; its 1-thread rewrite is deterministic
    /// and repeats cheaply.
    pub fn rewrite_rounds(self) -> usize {
        match self {
            Workload::CheckSmall => 3,
            Workload::DeepLog2 | Workload::WideMultipass => 1,
        }
    }

    /// Worker processes of an untraced run (see `bench::Samples`). An
    /// iteration takes about 3 s on `deep-log2`, 6 s on `wide-multipass`
    /// and 8.5 s on `check-small` (2-vCPU VM). Four processes, each with a
    /// quarter of a 40-second run, would give `wide-multipass` one
    /// iteration each; two give it three each. A run's median then rests
    /// on six samples, not four, so a slow spell of the host that covers a
    /// third of the run does not move it.
    pub fn workers(self) -> usize {
        match self {
            Workload::WideMultipass => 2,
            Workload::DeepLog2 | Workload::CheckSmall => 4,
        }
    }

    /// Whether the correctness gate is a SAT-backed equivalence check
    /// (otherwise it is random simulation, verdict `sim-only`).
    pub fn proves(self) -> bool {
        self == Workload::CheckSmall
    }

    /// Generates the workload's circuits from `seed`.
    ///
    /// The seed drives the MtM generator seeds of `wide-multipass` (see
    /// [`SEEDED`]); the other circuits stay fixed, and there the seed drives
    /// only the simulation patterns (see [`sim_seed`]). `mem_3xd` keeps the
    /// suite's `mem_ctrl` seed: under `optimize` some `mem_ctrl` seeds take
    /// a third pass on it, and the largest input of the workload would then
    /// move `rewrite_s` by up to 15 % from seed to seed. The `check-small`
    /// circuits stay fixed so that its miters, and with them the SAT work,
    /// are the same on every run.
    pub fn circuits(self, seed: u64) -> Vec<Circuit> {
        let c = |name: &'static str, aig: Aig| Circuit { name, aig };
        match self {
            Workload::DeepLog2 => vec![c("log2_3xd", doubled(&arith::log2(16, 6), 3))],
            Workload::WideMultipass => {
                let mut out = vec![c(
                    "mem_3xd",
                    doubled(&control::mem_ctrl(10, 8, 12, 0xC0FFEE), 3),
                )];
                for (name, factor, inputs, outputs) in [
                    ("sixteen", 16, 117, 50),
                    ("twenty", 20, 137, 60),
                    ("twentythree", 23, 153, 68),
                ] {
                    let aig = mtm(&MtmParams {
                        inputs,
                        gates: 16_000 * factor / 16,
                        outputs,
                        seed: mix(factor as u64, seed),
                    });
                    out.push(c(name, aig));
                }
                out
            }
            Workload::CheckSmall => vec![
                c("sin_2xd", doubled(&arith::sin(8), 2)),
                c("sqrt_2xd", doubled(&arith::sqrt(8), 2)),
                c("mem_2xd", doubled(&control::mem_ctrl(6, 7, 8, 0xC0FFEE), 2)),
                c("square_2xd", doubled(&arith::square(12), 2)),
                c("mult_2xd", doubled(&arith::multiplier(12), 2)),
            ],
        }
    }

    /// Compares the inputs' AND counts and depths with [`RECORDED`],
    /// returning one message per mismatch.
    pub fn input_mismatches(self, seed: u64, circuits: &[Circuit]) -> Vec<String> {
        circuits
            .iter()
            .filter(|c| seed == DEFAULT_SEED || !SEEDED.contains(&c.name))
            .filter_map(|c| {
                let got = (c.aig.num_ands(), c.aig.depth());
                match RECORDED.iter().find(|r| r.0 == c.name) {
                    Some(&(_, ands, depth)) if (ands, depth) == got => None,
                    Some(&(_, ands, depth)) => Some(format!(
                        "{}: {} ANDs depth {}, recorded {ands} ANDs depth {depth}",
                        c.name, got.0, got.1
                    )),
                    None => Some(format!("{}: no recorded size", c.name)),
                }
            })
            .collect()
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload `{s}` (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

/// How a run executes a workload.
#[derive(Copy, Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// Worker threads of every rewrite: [`Workload::threads`], except in
    /// the determinism tests, which use 1.
    pub threads: usize,
    /// Rewrite rounds per circuit and iteration:
    /// [`Workload::rewrite_rounds`], except in a traced run, which rewrites
    /// once so that its traced and untraced iterations do the same work.
    pub rewrite_rounds: usize,
}

impl Plan {
    /// The plan `--workload` and `--seed` select.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        Plan {
            workload,
            seed,
            threads: workload.threads(),
            rewrite_rounds: workload.rewrite_rounds(),
        }
    }
}

/// One benchmark input.
#[derive(Clone, Debug)]
pub struct Circuit {
    /// Suite name (`log2_3xd`, `sixteen`, ...).
    pub name: &'static str,
    /// The unrewritten circuit.
    pub aig: Aig,
}

/// Seed of the simulation patterns of every correctness gate.
pub fn sim_seed(seed: u64) -> u64 {
    mix(0xDAC_2024, seed)
}

/// Derives a generator seed from a base seed and `--seed`; seed 0 keeps
/// the base, so [`DEFAULT_SEED`] reproduces the suite.
fn mix(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(w.name().parse(), Ok(w));
        }
        assert!("nope".parse::<Workload>().is_err());
    }

    #[test]
    fn default_seed_inputs_match_the_recorded_sizes() {
        for w in Workload::ALL {
            let circuits = w.circuits(DEFAULT_SEED);
            assert_eq!(
                w.input_mismatches(DEFAULT_SEED, &circuits),
                Vec::<String>::new()
            );
        }
    }

    #[test]
    fn seed_changes_only_the_seeded_inputs() {
        let a = Workload::WideMultipass.circuits(DEFAULT_SEED);
        let b = Workload::WideMultipass.circuits(7);
        assert!(a
            .iter()
            .zip(&b)
            .any(|(x, y)| x.aig.num_ands() != y.aig.num_ands()));
        assert!(Workload::WideMultipass.input_mismatches(7, &b).is_empty());
        let c = Workload::CheckSmall.circuits(7);
        assert!(Workload::CheckSmall.input_mismatches(7, &c).is_empty());
    }
}
