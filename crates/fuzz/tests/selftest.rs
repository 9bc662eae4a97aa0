//! The fuzzer's headline self-test: the loop must close on a real bug.
//!
//! With the `inject-drain-bug` feature compiled in, the DACPara engine
//! re-introduces a variant of a historical steal-scheduler drain bug (its
//! replacement stage mis-associates a node with its worklist neighbour's
//! stored candidate and commits it without revalidation). This suite then
//! demands the full tool chain earns its keep:
//!
//! * `fuzz_run` rediscovers the bug within a bounded seed budget,
//! * every conviction names the DACPara engine (the bug lives in its
//!   replacement stage, so a differential fuzzer must keep every other
//!   engine green),
//! * the delta-debugging shrinker drives the witness below 60 AND nodes,
//! * the shrunk witness round-trips through the corpus format and replays.
//!
//! With the gate off, the same campaign machinery must stay silent: a
//! bounded smoke run across the engine matrix with zero oracle failures.
//! CI runs the gated half via
//! `cargo test -p dacpara-fuzz --features inject-drain-bug --test selftest`.

#[cfg(feature = "inject-drain-bug")]
mod gate_on {
    use dacpara::testkit::{engine_matrix, MatrixPoint};
    use dacpara::Engine;
    use dacpara_aig::AigRead;
    use dacpara_fuzz::corpus::{replay, CorpusEntry, ReplayOutcome};
    use dacpara_fuzz::gen::GenConfig;
    use dacpara_fuzz::oracle::{check_circuit, OracleConfig};
    use dacpara_fuzz::shrink::ShrinkConfig;
    use dacpara_fuzz::{fuzz_run, shrink_failing, summarize, FuzzConfig};

    /// The bounded seed budget the ISSUE gates on: the injected bug fires on
    /// the large majority of generated circuits, so a campaign this long
    /// failing to convict would itself be a regression in the fuzzer.
    const SEED_BUDGET: usize = 40;

    fn campaign_config() -> FuzzConfig {
        FuzzConfig {
            iters: SEED_BUDGET,
            gen: GenConfig::small(),
            oracle: OracleConfig {
                points: engine_matrix(&[1, 2]),
                ..OracleConfig::default()
            },
            // Mutation adds nothing to this hunt and costs determinism.
            mutate_every: 0,
        }
    }

    #[test]
    fn fuzzer_rediscovers_the_drain_bug_and_shrinks_the_witness() {
        let cfg = campaign_config();
        let report = fuzz_run(&cfg, 0xDACF_0001);
        let case = report.failing.as_ref().unwrap_or_else(|| {
            panic!(
                "the injected drain bug must be found within {SEED_BUDGET} seeds: {}",
                summarize(&report)
            )
        });

        // The bug lives in DACPara's replacement stage; a differential
        // fuzzer that convicted another engine would be misattributing.
        assert!(!case.failures.is_empty());
        for failure in &case.failures {
            assert_eq!(
                failure.point.engine,
                Engine::DacPara,
                "only dacpara cells may fail, got {failure}"
            );
        }

        // Shrink against exactly the cells that convicted the circuit.
        let mut points: Vec<MatrixPoint> = case.failures.iter().map(|f| f.point).collect();
        points.dedup();
        let shrink_oracle = OracleConfig {
            points,
            ..OracleConfig::default()
        };
        let shrink_cfg = ShrinkConfig {
            max_rounds: 12,
            repeats: 3,
        };
        let witness = shrink_failing(case, &shrink_oracle, &shrink_cfg);
        witness
            .check()
            .expect("shrunk witness must stay a valid AIG");
        assert!(
            witness.num_ands() <= 60,
            "witness must shrink below 60 nodes, got {} (started at {})",
            witness.num_ands(),
            case.aig.num_ands()
        );

        // The witness must survive the corpus round trip and replay red.
        let entry = CorpusEntry {
            seed: case.seed,
            threads: vec![1, 2],
            fault: None,
            requires_feature: Some("inject-drain-bug".into()),
            expect_fail: true,
            note: "selftest: shrunk drain-bug witness".into(),
            aig: witness,
        };
        let back = CorpusEntry::parse(&entry.to_entry_string()).expect("entry must re-parse");
        assert!(back.expect_fail);
        assert_eq!(back.requires_feature.as_deref(), Some("inject-drain-bug"));
        // Parallel failures are probabilistic; a witness shrunk under
        // `repeats: 3` is allowed a few replay sweeps to reproduce.
        let mut outcome = ReplayOutcome::Mismatch(Vec::new());
        for _ in 0..5 {
            outcome = replay(&back, &["inject-drain-bug"]).expect("replay must run");
            if outcome == ReplayOutcome::Green {
                break;
            }
        }
        assert_eq!(
            outcome,
            ReplayOutcome::Green,
            "shrunk witness must reproduce under replay"
        );

        // Without the feature flag the entry must be skipped, not run: the
        // corpus stays replayable on default builds.
        assert_eq!(
            replay(&back, &[]).expect("replay must run"),
            ReplayOutcome::Skipped("inject-drain-bug".into())
        );
    }

    #[test]
    fn non_dacpara_cells_stay_green_under_the_injected_bug() {
        // The differential half of the self-test: the bug is in DACPara's
        // replacement stage, and every other engine shares the build it is
        // compiled into. Sweep the other engines' cells over a batch of
        // circuits and demand total silence — this is what localizes the
        // bug to one engine.
        let others: Vec<MatrixPoint> = engine_matrix(&[1, 2, 4])
            .into_iter()
            .filter(|p| p.engine != Engine::DacPara)
            .collect();
        assert!(!others.is_empty());
        let cfg = OracleConfig {
            points: others,
            ..OracleConfig::default()
        };
        for iter in 0..10u64 {
            let seed = dacpara_fuzz::iteration_seed(0xDACF_0002, iter);
            let golden = dacpara_fuzz::gen::generate(&GenConfig::small(), seed);
            let failures = check_circuit(&golden, &cfg);
            assert!(
                failures.is_empty(),
                "non-dacpara cells must stay green (seed {seed}): {:?}",
                failures.iter().map(|f| f.to_string()).collect::<Vec<_>>()
            );
        }
    }
}

#[cfg(not(feature = "inject-drain-bug"))]
mod gate_off {
    use dacpara_fuzz::{fuzz_run, summarize, FuzzConfig};

    #[test]
    fn engine_matrix_smoke_is_clean() {
        // Bounded by default so tier-1 stays fast; CI's nightly job raises
        // the budget through the same knob.
        let iters = std::env::var("DACPARA_FUZZ_SMOKE_ITERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(25);
        let report = fuzz_run(&FuzzConfig::smoke(iters), 0xDACF_0003);
        assert_eq!(report.iterations, iters, "{}", summarize(&report));
        assert!(
            report.failing.is_none(),
            "healthy engines must pass the smoke campaign: {}",
            summarize(&report)
        );
    }
}
