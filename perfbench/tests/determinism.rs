//! At one thread the benchmark's count metrics repeat exactly: final area,
//! final depth, verdicts and SAT conflicts are the same across two runs,
//! and the same with tracing on and off. Bounds on these counts can then be
//! exact.

use std::sync::Mutex;

use dacpara_perfbench::bench::{iteration, END_TO_END, PER_LAYER};
use dacpara_perfbench::op::Op;
use dacpara_perfbench::workload::{Plan, Workload, DEFAULT_SEED};

/// Tracing is process-wide state; the tests take turns with it.
static OBS: Mutex<()> = Mutex::new(());

/// Circuit, engine, final area, final depth and verdict of each operation.
fn results(ops: &[Op]) -> Vec<(&'static str, String, usize, u32, &'static str)> {
    ops.iter()
        .map(|op| {
            (
                op.circuit,
                op.engine.to_string(),
                op.ands.1,
                op.depth.1,
                op.verdict.name(),
            )
        })
        .collect()
}

fn sat_conflicts(ops: &[Op]) -> Vec<u64> {
    ops.iter().map(|op| op.layers.sat_conflicts).collect()
}

fn repeats_exactly(workload: Workload) {
    let _turn = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let plan = Plan {
        threads: 1,
        ..Plan::new(workload, DEFAULT_SEED)
    };
    let circuits = workload.circuits(plan.seed);
    let first = iteration(&plan, &circuits, false, 1);
    let second = iteration(&plan, &circuits, false, 2);
    dacpara_obs::enable();
    let traced = iteration(&plan, &circuits, true, 3);
    let retraced = iteration(&plan, &circuits, true, 4);
    dacpara_obs::disable();
    let traced_off = iteration(&plan, &circuits, true, 5);

    assert!(first.iter().all(|op| !op.verdict.is_failure()), "{first:?}");
    assert_eq!(results(&first), results(&second));
    assert_eq!(
        results(&first),
        results(&traced),
        "tracing changed a result"
    );
    assert_eq!(results(&traced), results(&retraced));
    assert_eq!(results(&traced), results(&traced_off));
    assert_eq!(sat_conflicts(&traced), sat_conflicts(&retraced));
    assert_eq!(sat_conflicts(&traced), sat_conflicts(&traced_off));
}

#[test]
fn deep_log2_repeats_at_one_thread() {
    repeats_exactly(Workload::DeepLog2);
}

#[test]
fn wide_multipass_repeats_at_one_thread() {
    repeats_exactly(Workload::WideMultipass);
}

#[test]
fn check_small_repeats_at_one_thread() {
    repeats_exactly(Workload::CheckSmall);
    let plan = Plan::new(Workload::CheckSmall, DEFAULT_SEED);
    let ops = iteration(&plan, &Workload::CheckSmall.circuits(plan.seed), true, 1);
    let verdicts: Vec<&str> = ops.iter().map(|op| op.verdict.name()).collect();
    // An Undecided verdict is reported as such, never as a pass.
    assert_eq!(
        verdicts,
        ["proven", "undecided", "proven", "undecided", "undecided"]
    );
    assert!(ops.iter().all(|op| op.layers.sat_conflicts > 0));
}

/// `BENCHMARK.json` lists exactly the metrics the benchmark reports, with
/// their units.
#[test]
fn benchmark_json_lists_every_reported_metric() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let metrics = END_TO_END.iter().chain(PER_LAYER.iter());
    for (name, unit) in metrics.clone() {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(
            spec.contains(&entry),
            "{entry} is missing from BENCHMARK.json"
        );
    }
    for w in Workload::ALL {
        let entry = format!("\"name\": \"{}\"", w.name());
        assert!(spec.contains(&entry), "workload {} is missing", w.name());
    }
    assert_eq!(
        spec.matches("\"name\":").count(),
        Workload::ALL.len() + metrics.count(),
        "BENCHMARK.json lists a name the benchmark does not report"
    );
}
