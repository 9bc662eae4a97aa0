//! Rewriting configuration shared by every engine.

use dacpara_aig::AigError;
use dacpara_cut::CutConfig;
use dacpara_npn::{ClassId, ClassRegistry};

/// A rejected [`RewriteConfig`] field, reported by
/// [`RewriteConfig::validate`].
#[derive(Copy, Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `threads` must be at least 1.
    ZeroThreads,
    /// `runs` must be at least 1.
    ZeroRuns,
    /// `num_classes` must be at least 1.
    ZeroClasses,
    /// `headroom` must be at least 1.0 (the arena cannot shrink below the
    /// live graph).
    HeadroomTooSmall {
        /// The rejected headroom value.
        headroom: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroThreads => f.write_str("threads must be >= 1"),
            ConfigError::ZeroRuns => f.write_str("runs must be >= 1"),
            ConfigError::ZeroClasses => f.write_str("num_classes must be >= 1"),
            ConfigError::HeadroomTooSmall { headroom } => {
                write!(f, "headroom must be >= 1.0 (got {headroom})")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for AigError {
    fn from(e: ConfigError) -> AigError {
        AigError::InvariantViolation(format!("invalid configuration: {e}"))
    }
}

/// Parameters of a rewriting pass.
///
/// The paper's experimental configurations map onto this struct:
///
/// * **Table 2 / DACPara-P2** — [`RewriteConfig::rewrite_op`]: the ABC
///   `rewrite` operator setup (134 NPN classes, unlimited cuts and
///   structures, one run).
/// * **DACPara-P1** — [`RewriteConfig::p1`]: 8 cuts per node, 5 structures
///   per class, two runs (the GPU papers' `drw`-style setup, except P1 can
///   only use the 134 `rewrite` classes — §5.2).
/// * **GPU emulations (DAC'22 / TCAD'23)** — [`RewriteConfig::drw_op`]:
///   all 222 classes, 8 cuts, 5 structures, two runs.
#[derive(Clone, Debug)]
pub struct RewriteConfig {
    /// Worker threads for the parallel engines (the paper uses 40).
    pub threads: usize,
    /// Cuts kept per node (`0` = unlimited).
    pub cut_limit: usize,
    /// Structures evaluated per NPN class (`0` = all).
    pub max_structures: usize,
    /// Number of NPN classes evaluated (222 = all; 134 mirrors `rewrite`).
    pub num_classes: usize,
    /// Accept zero-gain replacements (ABC's `-z`).
    pub use_zeros: bool,
    /// Reject replacements that increase the node's level (ABC `rewrite`
    /// preserves levels by default).
    pub preserve_level: bool,
    /// Arena headroom factor for the concurrent engines.
    pub headroom: f64,
    /// How many times the whole pass is run (the GPU comparisons execute
    /// the program twice).
    pub runs: usize,
    /// Divide nodes into per-level worklists (Fig. 1). Disabling this is an
    /// ablation: one global worklist still runs the three split stages.
    pub level_partition: bool,
    /// Re-enumerate and match stored cuts whose leaves changed (§4.4).
    /// Disabling this is an ablation: stale results are simply skipped.
    pub revalidate: bool,
    /// Use the enumeration-refined structure library (slower first-use
    /// build, slightly better structures; see `dacpara_nst::refine`).
    pub refined_library: bool,
    /// Regions for the partition engine (Liu & Zhang, FPGA'17). `0` (the
    /// default) means `2 × threads`, the heuristic the engine has always
    /// used; the old trailing `parts` argument of `rewrite_partition`
    /// folded into this field.
    pub partition_regions: usize,
    /// How many times a concurrent pass may recover from arena exhaustion
    /// by salvaging committed work and re-homing into a geometrically
    /// grown arena before [`dacpara_aig::AigError::CapacityExhausted`] is
    /// propagated to the caller. `0` disables in-pass recovery (the
    /// pre-recovery fail-fast behaviour).
    pub max_regrowths: usize,
}

impl RewriteConfig {
    /// The ABC `rewrite` operator configuration (Table 2, DACPara-P2).
    pub fn rewrite_op() -> RewriteConfig {
        RewriteConfig {
            threads: 1,
            cut_limit: 0,
            max_structures: 0,
            num_classes: 134,
            use_zeros: false,
            preserve_level: true,
            headroom: 1.6,
            runs: 1,
            level_partition: true,
            revalidate: true,
            refined_library: false,
            partition_regions: 0,
            max_regrowths: 4,
        }
    }

    /// The paper's P1 configuration: 8 cuts, 5 structures, two runs, 134
    /// classes.
    pub fn p1() -> RewriteConfig {
        RewriteConfig {
            cut_limit: 8,
            max_structures: 5,
            runs: 2,
            ..RewriteConfig::rewrite_op()
        }
    }

    /// The `drw`-style configuration used by the GPU methods: all 222
    /// classes, 8 cuts, 5 structures, two runs.
    pub fn drw_op() -> RewriteConfig {
        RewriteConfig {
            num_classes: 222,
            ..RewriteConfig::p1()
        }
    }

    /// This configuration with a different thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> RewriteConfig {
        self.threads = threads.max(1);
        self
    }

    /// Checks the fields every engine depends on, returning the first
    /// violation. Called by `run_engine`, `RewriteSession::new`, and the
    /// `rewrite` binary, so a bad configuration fails uniformly instead of
    /// panicking (or hanging) somewhere inside an engine.
    ///
    /// # Errors
    ///
    /// Returns the first offending field as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if self.runs == 0 {
            return Err(ConfigError::ZeroRuns);
        }
        if self.num_classes == 0 {
            return Err(ConfigError::ZeroClasses);
        }
        // NaN must be rejected, and it fails every ordered comparison, so
        // plain `< 1.0` would wave it through: require the finite check
        // first and the positive comparison second.
        if !self.headroom.is_finite() || self.headroom < 1.0 {
            return Err(ConfigError::HeadroomTooSmall {
                headroom: self.headroom,
            });
        }
        Ok(())
    }

    /// The number of regions the partition engine should use:
    /// [`RewriteConfig::partition_regions`], with `0` meaning
    /// `2 × threads`.
    pub fn effective_partition_regions(&self) -> usize {
        if self.partition_regions == 0 {
            self.threads.max(1) * 2
        } else {
            self.partition_regions
        }
    }

    /// The cut-enumeration configuration.
    pub fn cut_config(&self) -> CutConfig {
        if self.cut_limit == 0 {
            CutConfig::unlimited()
        } else {
            CutConfig::limited(self.cut_limit)
        }
    }

    /// Per-class allowance table (index = [`ClassId`]).
    pub fn allowed_classes(&self) -> Vec<bool> {
        let reg = ClassRegistry::global();
        let mut allowed = vec![false; reg.len()];
        for id in reg.practical(self.num_classes.min(reg.len())) {
            allowed[id as usize] = true;
        }
        allowed
    }

    /// Number of structures to scan for one class.
    pub fn structure_budget(&self, available: usize) -> usize {
        if self.max_structures == 0 {
            available
        } else {
            self.max_structures.min(available)
        }
    }

    /// Whether a class id passes the filter (convenience over
    /// [`RewriteConfig::allowed_classes`] for one-off queries).
    pub fn class_allowed(&self, allowed: &[bool], id: ClassId) -> bool {
        allowed.get(id as usize).copied().unwrap_or(false)
    }
}

impl Default for RewriteConfig {
    fn default() -> Self {
        RewriteConfig::rewrite_op()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_paper() {
        let p2 = RewriteConfig::rewrite_op();
        assert_eq!(p2.num_classes, 134);
        assert_eq!(p2.cut_limit, 0);
        assert_eq!(p2.runs, 1);
        let p1 = RewriteConfig::p1();
        assert_eq!(p1.cut_limit, 8);
        assert_eq!(p1.max_structures, 5);
        assert_eq!(p1.runs, 2);
        assert_eq!(p1.num_classes, 134);
        let drw = RewriteConfig::drw_op();
        assert_eq!(drw.num_classes, 222);
    }

    #[test]
    fn class_filter_sizes() {
        let cfg = RewriteConfig::rewrite_op();
        let allowed = cfg.allowed_classes();
        assert_eq!(allowed.iter().filter(|&&b| b).count(), 134);
        let all = RewriteConfig::drw_op().allowed_classes();
        assert_eq!(all.iter().filter(|&&b| b).count(), 222);
    }

    #[test]
    fn validate_rejects_each_degenerate_field() {
        assert_eq!(RewriteConfig::rewrite_op().validate(), Ok(()));
        let cases = [
            (
                RewriteConfig {
                    threads: 0,
                    ..RewriteConfig::rewrite_op()
                },
                ConfigError::ZeroThreads,
            ),
            (
                RewriteConfig {
                    runs: 0,
                    ..RewriteConfig::rewrite_op()
                },
                ConfigError::ZeroRuns,
            ),
            (
                RewriteConfig {
                    num_classes: 0,
                    ..RewriteConfig::rewrite_op()
                },
                ConfigError::ZeroClasses,
            ),
            (
                RewriteConfig {
                    headroom: 0.5,
                    ..RewriteConfig::rewrite_op()
                },
                ConfigError::HeadroomTooSmall { headroom: 0.5 },
            ),
        ];
        // NaN and infinities are rejected too (they would previously slip
        // past `< 1.0` and abort deep inside the arena constructor).
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let cfg = RewriteConfig {
                headroom: bad,
                ..RewriteConfig::rewrite_op()
            };
            assert!(
                matches!(cfg.validate(), Err(ConfigError::HeadroomTooSmall { .. })),
                "headroom {bad} must be rejected"
            );
        }
        for (cfg, want) in cases {
            assert_eq!(cfg.validate(), Err(want));
        }
        let err: dacpara_aig::AigError = ConfigError::ZeroThreads.into();
        assert!(err.to_string().contains("invalid configuration"));
    }

    #[test]
    fn partition_regions_default_tracks_threads() {
        let cfg = RewriteConfig::rewrite_op().with_threads(4);
        assert_eq!(cfg.partition_regions, 0);
        assert_eq!(cfg.effective_partition_regions(), 8);
        let explicit = RewriteConfig {
            partition_regions: 3,
            ..cfg
        };
        assert_eq!(explicit.effective_partition_regions(), 3);
    }

    #[test]
    fn structure_budget_caps() {
        let cfg = RewriteConfig::p1();
        assert_eq!(cfg.structure_budget(10), 5);
        assert_eq!(cfg.structure_budget(3), 3);
        let unlimited = RewriteConfig::rewrite_op();
        assert_eq!(unlimited.structure_budget(10), 10);
    }
}
