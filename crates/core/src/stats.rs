//! Per-pass statistics reported by every rewriting engine.

use std::time::Duration;

use dacpara_galois::{SchedSnapshot, SpecSnapshot};

/// Everything a rewriting pass reports — the raw material for the paper's
/// Tables 2/3 and Fig. 2.
#[derive(Clone, Debug, Default)]
pub struct RewriteStats {
    /// Engine name (`abc-rewrite`, `iccad18`, `dacpara`, …).
    pub engine: String,
    /// Wall-clock time of the pass (all runs).
    pub time: Duration,
    /// AND count before.
    pub area_before: usize,
    /// AND count after.
    pub area_after: usize,
    /// Depth before.
    pub delay_before: u32,
    /// Depth after.
    pub delay_after: u32,
    /// Replacements committed.
    pub replacements: u64,
    /// Nodes whose stored result was found stale and skipped (DACPara's
    /// "missed optimization opportunities", §5.2).
    pub stale_skipped: u64,
    /// Nodes whose stored cut was revalidated by re-enumeration.
    pub revalidated: u64,
    /// Candidate evaluations performed (stage-2 `evaluate_node` calls). A
    /// converged incremental pass reports zero — its evaluate stage never
    /// ran.
    pub evaluations: u64,
    /// Live AND nodes skipped because a session's dirty-set proved their
    /// neighborhood unchanged since the previous pass (incremental passes
    /// only; zero for fresh-state passes).
    pub clean_skipped: u64,
    /// Speculative-execution counters (conflicts/aborts/wasted work).
    pub spec: SpecSnapshot,
    /// Work-stealing scheduler counters (steals/retries/retry-commits).
    /// All-zero on the engines that do not run on the Galois runtime.
    pub sched: SchedSnapshot,
    /// Number of level worklists processed (DACPara only).
    pub worklists: usize,
    /// Wall-clock per stage: enumeration, evaluation, replacement.
    pub stage_times: [Duration; 3],
    /// In-pass fault recoveries: how many times the pass salvaged committed
    /// work and resumed instead of returning `Err` (arena exhaustion and
    /// contained worker panics combined).
    pub recoveries: u64,
    /// Recoveries that re-homed the graph into a geometrically grown arena
    /// (the arena-exhaustion subset of [`RewriteStats::recoveries`], bounded
    /// by [`crate::RewriteConfig::max_regrowths`]).
    pub regrowths: u64,
    /// Replacements that had committed before a fault and were carried into
    /// the recovered graph rather than discarded.
    pub salvaged_commits: u64,
    /// Worker errors that raced an earlier error and were superseded by the
    /// deterministic first-error slot (the kept error is the one returned
    /// or recovered from).
    pub errors_observed: u64,
}

impl RewriteStats {
    /// Area reduction in AND gates (the paper's "Area Reduction" columns
    /// report the *removed* node count).
    pub fn area_reduction(&self) -> usize {
        self.area_before.saturating_sub(self.area_after)
    }

    /// Area reduction as a fraction of the original area.
    pub fn area_reduction_fraction(&self) -> f64 {
        if self.area_before == 0 {
            0.0
        } else {
            self.area_reduction() as f64 / self.area_before as f64
        }
    }

    /// One summary line for logs.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{}: {:.3}s area {} -> {} (-{}, {:.2}%) delay {} -> {} repl {} eval {} clean-skip {} [{}] [{}]",
            self.engine,
            self.time.as_secs_f64(),
            self.area_before,
            self.area_after,
            self.area_reduction(),
            self.area_reduction_fraction() * 100.0,
            self.delay_before,
            self.delay_after,
            self.replacements,
            self.evaluations,
            self.clean_skipped,
            self.spec,
            self.sched,
        );
        if self.recoveries > 0 || self.errors_observed > 0 {
            line.push_str(&format!(
                " [recov {} regrow {} salvaged {} superseded {}]",
                self.recoveries, self.regrowths, self.salvaged_commits, self.errors_observed
            ));
        }
        line
    }
}

impl std::fmt::Display for RewriteStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_math() {
        let stats = RewriteStats {
            area_before: 1000,
            area_after: 900,
            ..Default::default()
        };
        assert_eq!(stats.area_reduction(), 100);
        assert!((stats.area_reduction_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn reduction_never_underflows() {
        let stats = RewriteStats {
            area_before: 10,
            area_after: 20,
            ..Default::default()
        };
        assert_eq!(stats.area_reduction(), 0);
    }

    #[test]
    fn summary_mentions_engine() {
        let stats = RewriteStats {
            engine: "dacpara".into(),
            ..Default::default()
        };
        assert!(stats.summary().contains("dacpara"));
    }
}
