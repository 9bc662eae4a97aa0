//! Set-up, the closed measurement loop, and the metrics of an untraced and
//! a traced run.
//!
//! Each iteration rewrites and checks every circuit of the workload with
//! every engine, one call after the other; the next iteration starts only
//! after the previous one ends (a closed loop with one client).

use std::hint::black_box;
use std::time::Instant;

use dacpara::{evaluate_node, run_engine, Engine, EvalContext, RewriteConfig, RewriteStats};
use dacpara_aig::{topo_ands, Aig, AigRead};
use dacpara_cut::CutStore;
use dacpara_npn::canon;
use dacpara_nst::NpnLibrary;

use crate::op::{layer, run_op, timed, Op, Verdict};
use crate::stats::{median, tail};
use crate::workload::{Circuit, Plan};

/// Set-up repetitions per process; `setup_s` is the median of all of a
/// run's repetitions.
pub const SETUP_REPS: usize = 5;

/// Inputs plus the set-up time measured while making them.
pub struct Setup {
    /// The workload's circuits.
    pub circuits: Vec<Circuit>,
    /// Seconds of each set-up: circuit generation, NST library build and
    /// one input clone per circuit.
    pub setup_s: Vec<f64>,
    /// Median seconds of the circuit generation part.
    pub gen_s: f64,
    /// Median seconds of the NST library build part.
    pub library_s: f64,
}

/// Generates the inputs [`SETUP_REPS`] times, timing each part, then builds
/// the engines' process-wide structure library so no iteration pays for it.
pub fn setup(plan: &Plan) -> Setup {
    let (mut total, mut gen, mut lib) = (Vec::new(), Vec::new(), Vec::new());
    let mut circuits = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let (made, g) = timed(|| plan.workload.circuits(plan.seed));
        // The first build also builds the process-wide NPN class registry.
        let (library, l) = timed(NpnLibrary::build);
        black_box(library);
        let clones: Vec<Aig> = made.iter().map(|c| c.aig.clone()).collect();
        black_box(clones);
        total.push(start.elapsed().as_secs_f64());
        gen.push(g);
        lib.push(l);
        circuits = made;
    }
    black_box(NpnLibrary::global());
    Setup {
        circuits,
        setup_s: total,
        gen_s: median(&gen),
        library_s: median(&lib),
    }
}

/// One iteration: every engine over every circuit.
pub fn iteration(plan: &Plan, circuits: &[Circuit], traced: bool, iter: u64) -> Vec<Op> {
    let _span = dacpara_obs::span_with_args(
        "bench.iteration",
        vec![
            ("iter", iter.to_string()),
            ("workload", plan.workload.name().into()),
        ],
    );
    let mut ops = Vec::new();
    for &engine in plan.workload.engines() {
        for c in circuits {
            ops.push(run_op(plan, c, engine, traced, iter));
        }
    }
    ops
}

/// Calls `body` with iteration ids 1, 2, ... until the next call, taking as
/// long as the median call so far, would end more than half a call after
/// `seconds` from `start`, so that a loop ends at its deadline on average
/// rather than half a call before it. At least one call runs. `body`
/// returns its wall time in seconds.
fn closed_loop(start: Instant, seconds: f64, mut body: impl FnMut(u64) -> f64) {
    let mut walls = Vec::new();
    for iter in 1.. {
        walls.push(body(iter));
        if start.elapsed().as_secs_f64() + median(&walls) / 2.0 > seconds {
            break;
        }
    }
}

/// A metric as printed: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// End-to-end metrics of an untraced run: name and unit, in report order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("rewrite_s", "s"),
    ("rewrite_s_tail", "s"),
    ("nodes_per_s", "1/s"),
    ("area_ratio", "ratio"),
    ("depth_ratio", "ratio"),
    ("check_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: name and unit, in report order.
/// Each name starts with the crate (and module) of the layer it measures.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("circuits.gen_s", "s"),
    ("nst.library_s", "s"),
    ("cut.enumerate_s", "s"),
    ("cut.ns_per_node", "ns"),
    ("cut.cuts_per_node", "count"),
    ("npn.canon_calls", "count"),
    ("npn.canon_ns_per_call", "ns"),
    ("core.eval.evaluate_s", "s"),
    ("core.eval.ns_per_node", "ns"),
    ("core.eval.found_ratio", "ratio"),
    ("core.stage.enumerate_s", "s"),
    ("core.stage.evaluate_s", "s"),
    ("core.stage.replace_s", "s"),
    ("aig.concurrent.enumerate_tax", "ratio"),
    ("aig.concurrent.evaluate_tax", "ratio"),
    ("core.session.new_s", "s"),
    ("core.session.pass1_s", "s"),
    ("core.session.incremental_s", "s"),
    ("core.session.finish_s", "s"),
    ("core.session.clean_skip_ratio", "ratio"),
    ("core.commit_ratio", "ratio"),
    ("core.stale_skipped", "count"),
    ("core.revalidated", "count"),
    ("galois.dacpara.conflicts", "count"),
    ("galois.dacpara.aborts", "count"),
    ("galois.dacpara.wasted_frac", "ratio"),
    ("galois.dacpara.steals", "count"),
    ("galois.dacpara.retries", "count"),
    ("galois.dacpara.retry_commits", "count"),
    ("galois.iccad18.conflicts", "count"),
    ("galois.iccad18.aborts", "count"),
    ("galois.iccad18.wasted_frac", "ratio"),
    ("galois.iccad18.steals", "count"),
    ("galois.iccad18.retries", "count"),
    ("galois.iccad18.retry_commits", "count"),
    ("equiv.sim_s", "s"),
    ("equiv.miter_s", "s"),
    ("equiv.miter_ands", "count"),
    ("equiv.sat_s", "s"),
    ("equiv.sat_conflicts", "count"),
    ("equiv.proven_frac", "ratio"),
    ("obs.overhead_frac", "ratio"),
];

/// Pairs a metric table with values computed in the same order.
fn named(table: &[(&'static str, &'static str)], values: Vec<f64>) -> Vec<Metric> {
    assert_eq!(table.len(), values.len(), "one value per metric");
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, unit, value))
        .collect()
}

/// What a run reports.
pub struct Report {
    /// Operations attempted (one per circuit, engine and iteration).
    pub attempted: usize,
    /// Operations failed.
    pub failed: usize,
    /// Whether every output was correct and every input as recorded.
    pub correct: bool,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

/// Input sizes, input mismatches, failures and a verdict tally, as lines
/// for standard error.
fn notes(setup: &Setup, mismatches: &[String], ops: &[&Op]) -> Vec<String> {
    let mut notes: Vec<String> = setup
        .circuits
        .iter()
        .map(|c| {
            format!(
                "input {}: {} ANDs, depth {}",
                c.name,
                c.aig.num_ands(),
                c.aig.depth()
            )
        })
        .collect();
    notes.extend(mismatches.iter().map(|m| format!("input mismatch: {m}")));
    for op in ops {
        if let Verdict::Failed(why) = &op.verdict {
            notes.push(format!("failed: {} {}: {why}", op.engine, op.circuit));
        } else if op.verdict == Verdict::Disproven {
            notes.push(format!(
                "failed: {} {}: not equivalent",
                op.engine, op.circuit
            ));
        }
    }
    let mut tally: Vec<(&str, usize)> = Vec::new();
    for op in ops {
        match tally.iter_mut().find(|(v, _)| *v == op.verdict.name()) {
            Some((_, n)) => *n += 1,
            None => tally.push((op.verdict.name(), 1)),
        }
    }
    let tally: Vec<String> = tally.iter().map(|(v, n)| format!("{v} {n}")).collect();
    notes.push(format!("verdicts: {}", tally.join(", ")));
    notes
}

fn failures(ops: &[&Op]) -> usize {
    ops.iter().filter(|op| op.verdict.is_failure()).count()
}

/// Per-iteration sums over the operations of one iteration.
#[derive(Clone, Debug, PartialEq)]
pub struct IterSums {
    /// Seconds in the rewrite calls, one sum per rewrite round.
    pub rewrite_s: Vec<f64>,
    /// Seconds from the start of each circuit's rewrite to its verdict
    /// (what `rewrite --check` costs).
    pub check_s: f64,
    /// Input ANDs rewritten.
    pub ands_in: f64,
    /// Σ ANDs after / Σ ANDs before.
    pub area_ratio: f64,
    /// Σ depth after / Σ depth before.
    pub depth_ratio: f64,
}

fn sums(ops: &[Op]) -> IterSums {
    let sum = |f: &dyn Fn(&Op) -> f64| total(ops.iter().map(f));
    let rounds = ops.iter().map(|op| op.rewrite_s.len()).max().unwrap_or(0);
    IterSums {
        rewrite_s: (0..rounds)
            .map(|k| total(ops.iter().filter_map(|op| op.rewrite_s.get(k).copied())))
            .collect(),
        check_s: sum(&|op| op.rewrite_s[0] + op.check_s),
        ands_in: sum(&|op| op.ands.0 as f64),
        area_ratio: sum(&|op| op.ands.1 as f64) / sum(&|op| op.ands.0 as f64),
        depth_ratio: sum(&|op| f64::from(op.depth.1)) / sum(&|op| f64::from(op.depth.0)),
    }
}

/// Sum that is `0.0`, not `-0.0`, over no values.
fn total(xs: impl Iterator<Item = f64>) -> f64 {
    xs.fold(0.0, |a, b| a + b)
}

fn proven(ops: &[&Op]) -> usize {
    ops.iter()
        .filter(|op| op.verdict == Verdict::Proven)
        .count()
}

/// What an untraced run measures, pooled over its worker processes.
///
/// An untraced run spreads its seconds over
/// [`Workload::workers`](crate::workload::Workload::workers) fresh processes,
/// run one after the other, and reports medians of the pooled samples.
/// Memory placement differs from process to process and shifts
/// memory-bound timings — the simulation gate on `log2_3xd` by up to 60 %
/// on a 2-vCPU VM — so pooling keeps one process's placement from setting
/// a run's figures.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Samples {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Sums of each iteration.
    pub iters: Vec<IterSums>,
    /// `VmHWM` of each process, in MB.
    pub peak_rss_mb: Vec<f64>,
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed.
    pub failed: usize,
    /// Operations proven equivalent.
    pub proven: usize,
    /// Inputs whose size differed from the recorded one.
    pub mismatches: usize,
}

impl Samples {
    /// One record per line: `setup_s V`, `iter C A AR DR R...` (one `R`
    /// per rewrite round),
    /// `peak_rss_mb V` and `ops ATTEMPTED FAILED PROVEN MISMATCHES`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for v in &self.setup_s {
            out += &format!("setup_s {v}\n");
        }
        for i in &self.iters {
            out += &format!(
                "iter {} {} {} {}",
                i.check_s, i.ands_in, i.area_ratio, i.depth_ratio
            );
            for r in &i.rewrite_s {
                out += &format!(" {r}");
            }
            out += "\n";
        }
        for v in &self.peak_rss_mb {
            out += &format!("peak_rss_mb {v}\n");
        }
        out += &format!(
            "ops {} {} {} {}\n",
            self.attempted, self.failed, self.proven, self.mismatches
        );
        out
    }

    /// Parses [`Samples::to_text`], adding the records to `self`.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line.
    pub fn add_text(&mut self, text: &str) -> Result<(), String> {
        for line in text.lines() {
            let mut fields = line.split_whitespace();
            let key = fields.next().unwrap_or_default();
            let nums: Vec<f64> = fields
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|e| format!("bad worker line `{line}`: {e}"))?;
            match (key, nums.as_slice()) {
                ("setup_s", &[v]) => self.setup_s.push(v),
                ("peak_rss_mb", &[v]) => self.peak_rss_mb.push(v),
                ("iter", &[check_s, ands_in, area_ratio, depth_ratio, ref rewrite_s @ ..])
                    if !rewrite_s.is_empty() =>
                {
                    self.iters.push(IterSums {
                        rewrite_s: rewrite_s.to_vec(),
                        check_s,
                        ands_in,
                        area_ratio,
                        depth_ratio,
                    })
                }
                ("ops", &[attempted, failed, proven, mismatches]) => {
                    self.attempted += attempted as usize;
                    self.failed += failed as usize;
                    self.proven += proven as usize;
                    self.mismatches += mismatches as usize;
                }
                _ => return Err(format!("bad worker line `{line}`")),
            }
        }
        Ok(())
    }
}

/// One worker process of an untraced run: set up, then iterate for
/// `seconds`. Inputs, failures and per-iteration figures go to standard
/// error.
pub fn measure(plan: &Plan, seconds: f64) -> Samples {
    let setup = setup(plan);
    let mismatches = plan.workload.input_mismatches(plan.seed, &setup.circuits);
    let mut iters: Vec<Vec<Op>> = Vec::new();
    closed_loop(Instant::now(), seconds, |k| {
        let (ops, wall) = timed(|| iteration(plan, &setup.circuits, false, k));
        iters.push(ops);
        wall
    });
    let all: Vec<&Op> = iters.iter().flatten().collect();
    for note in notes(&setup, &mismatches, &all) {
        eprintln!("{note}");
    }
    let per: Vec<IterSums> = iters.iter().map(|ops| sums(ops)).collect();
    for s in &per {
        eprintln!(
            "iteration: rewrite {:.4?} s, to verdict {:.4} s, area ratio {:.6}",
            s.rewrite_s, s.check_s, s.area_ratio
        );
    }
    Samples {
        setup_s: setup.setup_s,
        iters: per,
        peak_rss_mb: vec![peak_rss_mb()],
        attempted: all.len(),
        failed: failures(&all),
        proven: proven(&all),
        mismatches: mismatches.len(),
    }
}

/// The end-to-end metrics of pooled samples.
pub fn end_to_end(samples: &Samples) -> Report {
    let col = |f: fn(&IterSums) -> f64| samples.iters.iter().map(f).collect::<Vec<f64>>();
    let rewrite: Vec<f64> = samples
        .iters
        .iter()
        .flat_map(|s| s.rewrite_s.iter().copied())
        .collect();
    let rewrite_s = median(&rewrite);
    let (tail_s, beyond) = tail(&rewrite);
    let per_attempt = |n: usize| n as f64 / samples.attempted.max(1) as f64;
    let notes = vec![
        format!(
            "{} iterations in {} processes; rewrite_s_tail is p80 of {} rewrite rounds, {beyond} beyond it",
            samples.iters.len(),
            samples.peak_rss_mb.len(),
            rewrite.len()
        ),
        format!(
            "proven_frac {:.4} ratio; failed_frac {:.4} ratio",
            per_attempt(samples.proven),
            per_attempt(samples.failed)
        ),
    ];
    Report {
        attempted: samples.attempted,
        failed: samples.failed,
        correct: samples.failed == 0 && samples.mismatches == 0,
        metrics: named(
            &END_TO_END,
            vec![
                median(&samples.setup_s),
                rewrite_s,
                tail_s,
                median(&col(|s| s.ands_in)) / rewrite_s,
                median(&col(|s| s.area_ratio)),
                median(&col(|s| s.depth_ratio)),
                median(&col(|s| s.check_s)),
                median(&samples.peak_rss_mb),
            ],
        ),
        notes,
    }
}

/// Layer totals of the probes: the rewriting layers timed from outside the
/// engine on the plain input graphs.
#[derive(Default)]
struct Probe {
    nodes: f64,
    cut_s: f64,
    cuts: f64,
    canon_calls: f64,
    canon_s: f64,
    eval_s: f64,
    found: f64,
    /// Stage times of a 1-thread `dacpara` pass over the same inputs.
    engine_enumerate_s: f64,
    engine_evaluate_s: f64,
    /// Errors of those passes.
    errors: Vec<String>,
}

/// Enumerates cuts in topological order on a fresh store, canonicalizes
/// every cut function, evaluates every node on its enumerated cuts, and
/// runs a 1-thread `dacpara` pass for the stage times to compare with.
fn probe(circuits: &[Circuit]) -> Probe {
    let cfg = RewriteConfig::rewrite_op();
    let ctx = EvalContext::new(&cfg);
    let mut p = Probe::default();
    for c in circuits {
        let aig = &c.aig;
        let nodes = topo_ands(aig);
        let store = CutStore::new(aig.slot_count(), cfg.cut_config());
        let (sets, t) = layer("cut.CutStore::cuts", 0, c.name, || {
            nodes
                .iter()
                .map(|&n| store.cuts(aig, n))
                .collect::<Vec<_>>()
        });
        p.cut_s += t;
        p.nodes += nodes.len() as f64;
        p.cuts += sets.iter().map(|s| s.len()).sum::<usize>() as f64;
        let (calls, t) = layer("npn.canon", 0, c.name, || {
            let mut calls = 0usize;
            for cut in sets
                .iter()
                .flat_map(|s| s.iter())
                .filter(|cut| cut.len() >= 2)
            {
                black_box(canon(cut.tt()));
                calls += 1;
            }
            calls
        });
        p.canon_calls += calls as f64;
        p.canon_s += t;
        let (found, t) = layer("core.evaluate_node", 0, c.name, || {
            nodes
                .iter()
                .zip(&sets)
                .filter(|(&n, cuts)| evaluate_node(aig, n, cuts, &ctx).is_some())
                .count()
        });
        p.found += found as f64;
        p.eval_s += t;
        let mut one = aig.clone();
        let (stats, _) = layer("core.run_engine", 0, c.name, || {
            run_engine(&mut one, Engine::DacPara, &cfg)
        });
        match stats {
            Ok(stats) => {
                p.engine_enumerate_s += stats.stage_times[0].as_secs_f64();
                p.engine_evaluate_s += stats.stage_times[1].as_secs_f64();
            }
            Err(e) => p
                .errors
                .push(format!("failed: probe dacpara {}: {e}", c.name)),
        }
    }
    p
}

/// The traced run: set up, probe each layer from outside, then alternate
/// untraced and traced iterations, each rewriting every circuit once, until
/// `seconds` have passed since the probes began; write the Chrome trace and
/// the per-layer metrics into `out_dir` and report the per-layer metrics.
pub fn run_traced(plan: &Plan, seconds: f64, out_dir: &std::path::Path) -> std::io::Result<Report> {
    let plan = &Plan {
        rewrite_rounds: 1,
        ..*plan
    };
    let setup = setup(plan);
    let mismatches = plan.workload.input_mismatches(plan.seed, &setup.circuits);
    dacpara_obs::reset();
    dacpara_obs::enable();
    let start = Instant::now();
    let probe = probe(&setup.circuits);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut plain_wall, mut traced_wall) = (Vec::new(), Vec::new());
    closed_loop(start, seconds, |k| {
        dacpara_obs::disable();
        let (ops, u) = timed(|| iteration(plan, &setup.circuits, false, k));
        dacpara_obs::enable();
        let (tops, t) = timed(|| iteration(plan, &setup.circuits, true, k));
        plain.push(ops);
        traced.push(tops);
        plain_wall.push(u);
        traced_wall.push(t);
        u + t
    });
    dacpara_obs::disable();

    let all: Vec<&Op> = plain.iter().chain(&traced).flatten().collect();
    let failed = failures(&all) + probe.errors.len();
    let mut report = Report {
        attempted: all.len() + setup.circuits.len(),
        failed,
        correct: failed == 0 && mismatches.is_empty(),
        metrics: Vec::new(),
        notes: notes(&setup, &mismatches, &all),
    };
    report.notes.extend(probe.errors.iter().cloned());
    report.notes.push(format!(
        "{} untraced and {} traced iterations",
        plain.len(),
        traced.len()
    ));
    let traced_ops: Vec<&Op> = traced.iter().flatten().collect();
    let med =
        |f: &dyn Fn(&[Op]) -> f64| median(&traced.iter().map(|ops| f(ops)).collect::<Vec<_>>());
    let passes = |ops: &[Op], f: &dyn Fn(&RewriteStats) -> f64| -> f64 {
        total(ops.iter().flat_map(|op| &op.passes).map(f))
    };
    let layer_sum = |f: fn(&Op) -> f64| move |ops: &[Op]| total(ops.iter().map(f));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let stage = |i: usize| med(&|ops| passes(ops, &|s| s.stage_times[i].as_secs_f64()));
    let mut values = vec![
        setup.gen_s,
        setup.library_s,
        probe.cut_s,
        ratio(probe.cut_s * 1e9, probe.nodes),
        ratio(probe.cuts, probe.nodes),
        probe.canon_calls,
        ratio(probe.canon_s * 1e9, probe.canon_calls),
        probe.eval_s,
        ratio(probe.eval_s * 1e9, probe.nodes),
        ratio(probe.found, probe.nodes),
        stage(0),
        stage(1),
        stage(2),
        ratio(probe.engine_enumerate_s, probe.cut_s),
        ratio(probe.engine_evaluate_s, probe.eval_s),
        med(&layer_sum(|op| op.layers.session_new)),
        med(&layer_sum(|op| op.layers.session_pass1)),
        med(&layer_sum(|op| op.layers.session_incremental)),
        med(&layer_sum(|op| op.layers.session_finish)),
        med(&|ops| {
            let later = |f: &dyn Fn(&RewriteStats) -> u64| -> f64 {
                total(
                    ops.iter()
                        .flat_map(|op| op.passes.iter().skip(1))
                        .map(|s| f(s) as f64),
                )
            };
            let skipped = later(&|s| s.clean_skipped);
            ratio(skipped, skipped + later(&|s| s.evaluations))
        }),
        med(&|ops| {
            ratio(
                passes(ops, &|s| s.replacements as f64),
                passes(ops, &|s| s.evaluations as f64),
            )
        }),
        med(&|ops| passes(ops, &|s| s.stale_skipped as f64)),
        med(&|ops| passes(ops, &|s| s.revalidated as f64)),
    ];
    for engine in [Engine::DacPara, Engine::Iccad18] {
        let of = move |ops: &[Op], f: &dyn Fn(&RewriteStats) -> f64| -> f64 {
            total(
                ops.iter()
                    .filter(|op| op.engine == engine)
                    .flat_map(|op| &op.passes)
                    .map(f),
            )
        };
        values.extend([
            med(&|ops| of(ops, &|s| s.spec.conflicts as f64)),
            med(&|ops| of(ops, &|s| s.spec.aborts as f64)),
            med(&|ops| {
                let wasted = of(ops, &|s| s.spec.wasted_ns as f64);
                ratio(wasted, wasted + of(ops, &|s| s.spec.useful_ns as f64))
            }),
            med(&|ops| of(ops, &|s| s.sched.steals as f64)),
            med(&|ops| of(ops, &|s| s.sched.retries as f64)),
            med(&|ops| of(ops, &|s| s.sched.retry_commits as f64)),
        ]);
    }
    let plain_s = median(&plain_wall);
    values.extend([
        med(&layer_sum(|op| op.layers.sim)),
        med(&layer_sum(|op| op.layers.miter)),
        med(&layer_sum(|op| op.layers.miter_ands as f64)),
        med(&layer_sum(|op| op.layers.sat)),
        med(&layer_sum(|op| op.layers.sat_conflicts as f64)),
        proven(&traced_ops) as f64 / traced_ops.len().max(1) as f64,
        ratio(median(&traced_wall) - plain_s, plain_s),
    ]);
    report.metrics = named(&PER_LAYER, values);

    std::fs::create_dir_all(out_dir)?;
    let stem = format!("{}-seed{}", plan.workload.name(), plan.seed);
    let trace = out_dir.join(format!("{stem}.trace.json"));
    dacpara_obs::export_chrome_trace(&trace)?;
    let layers = out_dir.join(format!("{stem}.layers.json"));
    std::fs::write(&layers, metrics_json(&report.metrics).to_pretty())?;
    report.notes.push(format!(
        "wrote {} and {}",
        trace.display(),
        layers.display()
    ));
    Ok(report)
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> dacpara_obs::json::Json {
    use dacpara_obs::json::Json;
    Json::obj(metrics.iter().map(|&(name, unit, value)| {
        (
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        )
    }))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_round_trip_through_text() {
        let one = Samples {
            setup_s: vec![0.061_234_567_89, 0.07],
            iters: vec![IterSums {
                rewrite_s: vec![2.812_345_678, 2.9],
                check_s: 0.2,
                ands_in: 109_816.0,
                area_ratio: 0.773_876_302_178_188_9,
                depth_ratio: 0.974_358_974_358_974_3,
            }],
            peak_rss_mb: vec![352.5],
            attempted: 3,
            failed: 1,
            proven: 0,
            mismatches: 0,
        };
        let mut both = Samples::default();
        both.add_text(&one.to_text()).unwrap();
        assert_eq!(both, one);
        both.add_text(&one.to_text()).unwrap();
        assert_eq!(both.iters.len(), 2);
        assert_eq!((both.attempted, both.failed), (6, 2));
    }

    #[test]
    fn malformed_worker_lines_are_rejected() {
        let mut s = Samples::default();
        assert!(s.add_text("iter 1 2").is_err());
        assert!(s.add_text("iter 1 2 3 4").is_err());
        assert!(s.add_text("setup_s x").is_err());
        assert!(s.add_text("unknown 1").is_err());
    }
}
