//! Recovery differential suite: the fault-tolerant concurrent engines must
//! absorb arena exhaustion, injected allocator/lock faults, and contained
//! worker panics — completing with a CEC-equivalent graph instead of
//! returning `Err`, and never hanging (every engine run is under a
//! watchdog).
//!
//! Three fault sources are exercised:
//!
//! * **real exhaustion** — `headroom: 1.0` sizes the arena to the live
//!   graph plus fixed slack, so any circuit with enough rewrite activity
//!   exhausts it and must recover by salvage + regrowth;
//! * **injected faults** — `dacpara_fault` plans firing at the arena
//!   allocator, the speculative lock table, and the replacement operators,
//!   swept over ≥16 seeds across thread counts and engines;
//! * **panic budgets** — a persistently panicking operator must surface as
//!   `AigError::WorkerPanicked` once the recovery budget is exhausted,
//!   never as a process abort or a hung scope join.
//!
//! Fault plans are process-global, so every test serializes on one lock:
//! an unsynchronized fault-free run racing an armed plan would see someone
//! else's injected faults.

use std::panic;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::Duration;

use dacpara::{run_engine, Engine, RewriteConfig, RewriteStats};
use dacpara_aig::{Aig, AigError, AigRead};
use dacpara_circuits::{full_suite, Benchmark, Scale};
use dacpara_equiv::{check_equivalence, random_sim_check, CecConfig, CecResult, SimOutcome};
use dacpara_fault::{points, FaultPlan};

/// No single engine run on a test-scale circuit takes anywhere near this
/// long; hitting it means a recovery path deadlocked (the class of bug the
/// stage-guard seeding race produced) and the test must fail, not hang CI.
const WATCHDOG_BASE_SECS: u64 = 300;

/// The watchdog deadline, scaled by the `DACPARA_TEST_TIMEOUT_MUL` env
/// multiplier. Sanitizer builds run the same workload an order of
/// magnitude slower (TSan instruments every memory access), so their
/// workflows export a multiplier instead of this file hardcoding the
/// worst case for everyone — a genuine deadlock should still fail fast in
/// normal CI.
fn watchdog() -> Duration {
    let mul = std::env::var("DACPARA_TEST_TIMEOUT_MUL")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&m| m >= 1)
        .unwrap_or(1);
    Duration::from_secs(WATCHDOG_BASE_SECS * mul)
}

/// Serializes the tests in this binary: fault plans and the injection
/// firing counters are process-global state.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Installs (once, process-wide) a panic hook that swallows the panics the
/// `operator.panic` fault point injects — they are contained by the engine
/// and would otherwise spam stderr — while delegating everything else,
/// including real test failures, to the default hook.
fn silence_injected_panics() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.starts_with("injected fault:"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Runs `engine` on its own thread and panics if it neither reports nor
/// panics within [`watchdog`] — a hang is a test failure, not a CI timeout.
fn run_with_watchdog(
    label: &str,
    aig: Aig,
    engine: Engine,
    cfg: RewriteConfig,
) -> (Aig, Result<RewriteStats, AigError>) {
    let (tx, rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        let mut aig = aig;
        let result = run_engine(&mut aig, engine, &cfg);
        let _ = tx.send((aig, result));
    });
    let deadline = watchdog();
    match rx.recv_timeout(deadline) {
        Ok(out) => {
            handle.join().expect("engine thread exited after reporting");
            out
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("{label}: engine hung (no result within {deadline:?})")
        }
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Ok(()) => unreachable!("engine thread dropped its sender without a result"),
            Err(payload) => panic::resume_unwind(payload),
        },
    }
}

/// CEC via SAT where affordable, exhaustive random simulation otherwise
/// (same policy as `engines_differential.rs`).
fn assert_equiv(golden: &Aig, rewritten: &Aig, label: &str) {
    if golden.num_ands() + rewritten.num_ands() < 4_000 {
        assert_eq!(
            check_equivalence(golden, rewritten, &CecConfig::default()),
            CecResult::Equivalent,
            "{label}"
        );
    } else {
        assert_eq!(
            random_sim_check(golden, rewritten, 24, 0xEDA),
            SimOutcome::NoDifferenceFound,
            "{label}"
        );
    }
}

/// Common post-run checks for a run that must have *recovered*, not failed:
/// structural invariants hold, the result is equivalent to the input, and
/// the recovery counters are internally consistent.
fn assert_recovered_ok(bench: &Benchmark, aig: &Aig, stats: &RewriteStats, label: &str) -> u64 {
    aig.check()
        .unwrap_or_else(|e| panic!("{label}: recovered graph is corrupt: {e}"));
    assert_equiv(&bench.aig, aig, label);
    assert!(
        stats.recoveries >= stats.regrowths,
        "{label}: regrowths without recoveries: {}",
        stats.summary()
    );
    assert!(
        stats.salvaged_commits <= stats.replacements,
        "{label}: salvaged more commits than were made: {}",
        stats.summary()
    );
    stats.recoveries
}

/// Tentpole acceptance: at `headroom: 1.0` (arena sized to the live graph
/// plus fixed slack) with the default regrowth budget, both concurrent
/// engines complete every test-scale circuit at 1/2/4 threads with zero `Err` and stay CEC-equivalent.
///
/// Because the arena reuses freed slots and rewriting only shrinks the
/// graph, a live-sized arena normally never exhausts — the transient
/// allocate-before-delete peak stays inside the fixed slack — so this test
/// pins that minimal capacity is *sufficient*, while any recoveries that
/// do happen must be budgeted regrowths. If the allocator ever loses slot
/// reuse, these runs start exhausting for real and must then complete via
/// recovery (or fail here, loudly). The guaranteed-exhaustion recovery pin
/// is the injected `arena.alloc` sweep below.
#[test]
fn minimal_headroom_completes_every_circuit_via_regrowth() {
    let _serial = exclusive();
    for bench in &full_suite(Scale::Test) {
        for engine in [Engine::DacPara, Engine::Iccad18] {
            for threads in [1, 2, 4] {
                eprintln!("[recov] {} {engine} x{threads}", bench.name);
                let cfg = RewriteConfig {
                    headroom: 1.0,
                    ..RewriteConfig::rewrite_op()
                }
                .with_threads(threads);
                let max_regrowths = cfg.max_regrowths as u64;
                let label = format!("{engine} x{threads} on {}", bench.name);
                let (aig, result) = run_with_watchdog(&label, bench.aig.clone(), engine, cfg);
                let stats = result
                    .unwrap_or_else(|e| panic!("{label}: recovery did not absorb exhaustion: {e}"));
                assert_recovered_ok(bench, &aig, &stats, &label);
                // No panics are injected here, so every recovery is an
                // exhaustion regrowth, and the budget bounds them.
                assert_eq!(
                    stats.recoveries,
                    stats.regrowths,
                    "{label}: unexplained non-regrowth recovery: {}",
                    stats.summary()
                );
                assert!(
                    stats.regrowths <= max_regrowths,
                    "{label}: regrowth budget overrun: {}",
                    stats.summary()
                );
            }
        }
    }
}

/// Injected-fault sweep: ≥16 seeds spread across all three fault points,
/// both engines and 1/2/4 threads, on the largest test-scale circuit at
/// minimal headroom. Every run must complete (recovering as needed), stay
/// equivalent, and never hang; across the sweep every fault point must
/// actually fire.
#[test]
fn injected_faults_never_hang_or_break_equivalence() {
    let _serial = exclusive();
    silence_injected_panics();
    let suite = full_suite(Scale::Test);
    let bench = suite
        .iter()
        .max_by_key(|b| b.aig.num_ands())
        .expect("non-empty suite");
    // Rotated per seed; caps keep each plan inside the regrowth/panic
    // budgets (an uncapped 1/N arena plan would fire on every grown arena
    // too and exhaust the budget by construction).
    const SPECS: [&str; 4] = [
        "arena.alloc=1/40*2",
        "operator.panic=@3*1",
        "lock.acquire=1/20*50",
        "arena.alloc=1/60*2,operator.panic=@5*1,lock.acquire=1/50*20",
    ];
    let mut fired = [0u64; 3];
    for seed in 0..16u64 {
        let spec = SPECS[(seed % 4) as usize];
        let threads = [1, 2, 4][(seed % 3) as usize];
        let engine = if (seed / 2) % 2 == 0 {
            Engine::DacPara
        } else {
            Engine::Iccad18
        };
        let cfg = RewriteConfig {
            headroom: 1.0,
            // Injected arena faults stack on top of the real exhaustion the
            // minimal headroom already causes, so give the sweep more
            // regrowth budget than the default.
            max_regrowths: 8,
            ..RewriteConfig::rewrite_op()
        }
        .with_threads(threads);
        let label = format!("seed {seed} [{spec}] {engine} x{threads} on {}", bench.name);
        eprintln!("[recov] {label}");
        let plan = FaultPlan::parse(spec, seed).expect("valid sweep spec");
        let injection = dacpara_fault::inject(&plan);
        let (aig, result) = run_with_watchdog(&label, bench.aig.clone(), engine, cfg);
        let run_fired = [
            injection.fired(points::ARENA_ALLOC),
            injection.fired(points::LOCK_ACQUIRE),
            injection.fired(points::OPERATOR_PANIC),
        ];
        drop(injection);
        let stats =
            result.unwrap_or_else(|e| panic!("{label}: recovery did not absorb the fault: {e}"));
        assert_recovered_ok(bench, &aig, &stats, &label);
        // Lock faults are absorbed as ordinary conflicts; arena and panic
        // faults end the round with an error that a successful run can only
        // have survived through recovery.
        if run_fired[0] + run_fired[2] > 0 {
            assert!(
                stats.recoveries > 0,
                "{label}: injected fault(s) fired but no recovery was recorded: {}",
                stats.summary()
            );
        }
        // With no panic in the mix the surviving error is exhaustion, so
        // recovery must have regrown (a panic can supersede the arena error
        // in combined plans, making the recovery panic-typed instead).
        if run_fired[0] > 0 && run_fired[2] == 0 {
            assert!(
                stats.regrowths > 0,
                "{label}: injected exhaustion without a regrowth: {}",
                stats.summary()
            );
        }
        for (name, n) in [
            (points::ARENA_ALLOC, run_fired[0]),
            (points::LOCK_ACQUIRE, run_fired[1]),
            (points::OPERATOR_PANIC, run_fired[2]),
        ] {
            if n > 0 {
                eprintln!("[recov]   {name} fired {n}x: {}", stats.summary());
            }
        }
        fired[0] += run_fired[0];
        fired[1] += run_fired[1];
        fired[2] += run_fired[2];
    }
    // Aggregate, not per-seed: a rate-mode plan is free to never select a
    // firing index for one particular seed, but across 16 seeds a silent
    // point means the sweep is not testing what it claims to.
    let [alloc, lock, panic] = fired;
    assert!(alloc > 0, "no arena.alloc fault ever fired");
    assert!(lock > 0, "no lock.acquire fault ever fired");
    assert!(panic > 0, "no operator.panic fault ever fired");
}

/// A single injected operator panic must be contained (no abort, no hung
/// scope join), validated (invariants + CEC against the pre-pass graph),
/// and reported through `RewriteStats::recoveries`.
#[test]
fn contained_panic_is_recovered_and_validated() {
    let _serial = exclusive();
    silence_injected_panics();
    let suite = full_suite(Scale::Test);
    let bench = suite
        .iter()
        .max_by_key(|b| b.aig.num_ands())
        .expect("non-empty suite");
    for engine in [Engine::DacPara, Engine::Iccad18] {
        let cfg = RewriteConfig::rewrite_op().with_threads(2);
        let label = format!("one-panic {engine} on {}", bench.name);
        eprintln!("[recov] {label}");
        let plan = FaultPlan::parse("operator.panic=@3*1", 0xFA).expect("valid spec");
        let injection = dacpara_fault::inject(&plan);
        let (aig, result) = run_with_watchdog(&label, bench.aig.clone(), engine, cfg);
        assert_eq!(
            injection.fired(points::OPERATOR_PANIC),
            1,
            "{label}: the panic plan must fire exactly once"
        );
        drop(injection);
        let stats = result.unwrap_or_else(|e| panic!("{label}: panic was not recovered: {e}"));
        assert_recovered_ok(bench, &aig, &stats, &label);
        assert!(
            stats.recoveries > stats.regrowths,
            "{label}: no panic recovery was recorded: {}",
            stats.summary()
        );
    }
}

/// A recovery credits only the commits of the run that failed. With
/// `runs: 2` on one worker, a panic injected just past the first run's
/// operator hits fails the second run; the first run had already
/// completed, so none of its replacements count as salvaged.
#[test]
fn salvage_credits_only_the_failing_runs_commits() {
    let _serial = exclusive();
    silence_injected_panics();
    let suite = full_suite(Scale::Test);
    let bench = suite
        .iter()
        .max_by_key(|b| b.aig.num_ands())
        .expect("non-empty suite");
    for engine in [Engine::DacPara, Engine::Iccad18] {
        let label = format!("salvage {engine} on {}", bench.name);
        eprintln!("[recov] {label}");
        let cfg = RewriteConfig::rewrite_op().with_threads(1);
        // A firing cap of zero counts operator hits without firing.
        let probe = FaultPlan::parse("operator.panic=@1*0", 0).expect("valid spec");
        let (first_hits, first) = {
            let injection = dacpara_fault::inject(&probe);
            let (_, result) = run_with_watchdog(&label, bench.aig.clone(), engine, cfg.clone());
            let first = result.unwrap_or_else(|e| panic!("{label}: fault-free run failed: {e}"));
            (injection.hits(points::OPERATOR_PANIC), first)
        };
        assert!(
            first.replacements > 0,
            "{label}: the first run must rewrite"
        );

        let spec = format!("operator.panic=@{}*1", first_hits + 1);
        let plan = FaultPlan::parse(&spec, 0).expect("valid spec");
        let injection = dacpara_fault::inject(&plan);
        let two_runs = RewriteConfig { runs: 2, ..cfg };
        let (aig, result) = run_with_watchdog(&label, bench.aig.clone(), engine, two_runs);
        assert_eq!(
            injection.fired(points::OPERATOR_PANIC),
            1,
            "{label}: the second run must reach the injected panic"
        );
        drop(injection);
        let stats = result.unwrap_or_else(|e| panic!("{label}: panic was not recovered: {e}"));
        assert_recovered_ok(bench, &aig, &stats, &label);
        assert!(
            stats.recoveries > stats.regrowths,
            "{label}: no panic recovery was recorded: {}",
            stats.summary()
        );
        assert!(
            stats.salvaged_commits <= stats.replacements.saturating_sub(first.replacements),
            "{label}: salvage credited the completed first run ({} replacements): {}",
            first.replacements,
            stats.summary()
        );
    }
}

/// When every operator invocation panics, the per-session panic-recovery
/// budget runs out and the pass must surface the contained panic as
/// `Err(AigError::WorkerPanicked)` — leaving the caller's graph untouched —
/// rather than aborting the process or spinning forever.
#[test]
fn exhausted_panic_budget_surfaces_worker_panicked() {
    let _serial = exclusive();
    silence_injected_panics();
    let suite = full_suite(Scale::Test);
    let bench = suite
        .iter()
        .min_by_key(|b| b.aig.num_ands())
        .expect("non-empty suite");
    for engine in [Engine::DacPara, Engine::Iccad18] {
        // One worker keeps the firing order deterministic: each round's
        // first replacement panics, the team bails, recovery re-runs, and
        // the fifth panic exceeds the budget of four.
        let cfg = RewriteConfig::rewrite_op().with_threads(1);
        let label = format!("panic-budget {engine} on {}", bench.name);
        eprintln!("[recov] {label}");
        let plan = FaultPlan::parse("operator.panic=1/1*64", 0).expect("valid spec");
        let _injection = dacpara_fault::inject(&plan);
        let (aig, result) = run_with_watchdog(&label, bench.aig.clone(), engine, cfg);
        match result {
            Err(AigError::WorkerPanicked { message }) => assert!(
                message.contains("injected fault"),
                "{label}: unexpected panic payload: {message}"
            ),
            other => panic!("{label}: expected WorkerPanicked, got {other:?}"),
        }
        // `run_engine` only writes the session's graph back on success; the
        // error path must leave the input exactly as it was.
        assert_eq!(
            aig.num_ands(),
            bench.aig.num_ands(),
            "{label}: failed run modified the caller's graph"
        );
        aig.check()
            .unwrap_or_else(|e| panic!("{label}: failed run corrupted the graph: {e}"));
    }
}
