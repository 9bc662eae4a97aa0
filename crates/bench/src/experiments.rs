//! Regenerators for every table and figure of the paper's evaluation.
//!
//! Each function reproduces the corresponding exhibit at a configurable
//! scale (see `EXPERIMENTS.md` for recorded paper-vs-measured shapes):
//!
//! * [`table1`] — benchmark details (PIs/POs/Area/Delay),
//! * [`table2`] — ABC vs ICCAD'18 vs DACPara (time / area reduction /
//!   delay, with normalized means),
//! * [`table3`] — the MtM set across ICCAD'18, the two GPU emulations,
//!   DACPara-P1 and DACPara-P2,
//! * [`fig2`] — wasted (aborted) work: combined operator vs split
//!   operators, swept over thread counts,
//! * [`fig3`] — stored-cut invalidation statistics (the ID-reuse hazard),
//! * [`ablations`] — the design-choice sweeps called out in `DESIGN.md`.

use dacpara::{Engine, RewriteConfig};
use dacpara_circuits::{arithmetic_suite, full_suite, mtm_suite, Benchmark};
use dacpara_obs::json::{Json, ToJson};

use crate::report::{geomean, Table};
use crate::runner::{BenchRun, Harness};

/// A regenerated exhibit: the rendered table plus raw rows.
#[derive(Debug)]
pub struct Exhibit {
    /// Identifier (`table2`, `fig2`, ...).
    pub id: String,
    /// Rendered markdown table(s).
    pub markdown: String,
    /// Raw measurements backing the exhibit.
    pub runs: Vec<BenchRun>,
}

impl ToJson for Exhibit {
    fn to_json(&self) -> Json {
        Json::obj([
            ("id", self.id.to_json()),
            ("markdown", self.markdown.to_json()),
            ("runs", self.runs.to_json()),
        ])
    }
}

fn fmt_s(x: f64) -> String {
    format!("{x:.3}")
}

/// Table 1: benchmark details (name, PIs, POs, area, delay).
pub fn table1(harness: &Harness) -> Exhibit {
    let mut t = Table::new(
        format!("Table 1: Benchmark Detail (scale = {:?})", harness.scale),
        &["Benchmark", "PIs", "POs", "Area", "Delay", "Source"],
    );
    for b in full_suite(harness.scale) {
        let (name, pis, pos, area, delay) = b.table1_row();
        t.push_row(vec![
            name,
            pis.to_string(),
            pos.to_string(),
            area.to_string(),
            delay.to_string(),
            b.source.to_string(),
        ]);
    }
    Exhibit {
        id: "table1".into(),
        markdown: t.to_markdown(),
        runs: Vec::new(),
    }
}

/// Runs the engines of Table 2 over the full suite.
pub fn table2(harness: &Harness) -> Exhibit {
    let suite = full_suite(harness.scale);
    let serial_cfg = RewriteConfig::rewrite_op();
    let par_cfg = RewriteConfig::rewrite_op().with_threads(harness.threads);

    let mut runs: Vec<BenchRun> = Vec::new();
    let mut t = Table::new(
        format!(
            "Table 2: ABC (1 thread) vs ICCAD'18 vs DACPara ({} threads, scale = {:?})",
            harness.threads, harness.scale
        ),
        &[
            "Benchmark",
            "ABC T(s)",
            "ABC AreaRed",
            "ABC Delay",
            "ICCAD18 T(s)",
            "ICCAD18 AreaRed",
            "ICCAD18 Delay",
            "DACPara T(s)",
            "DACPara AreaRed",
            "DACPara Delay",
        ],
    );

    let mut ratios_time = [Vec::new(), Vec::new()]; // abc, iccad vs dacpara
    let mut ratios_area = [Vec::new(), Vec::new()];
    let mut ratios_delay = [Vec::new(), Vec::new()];
    for b in &suite {
        let abc = harness.run_one(b, Engine::AbcRewrite, &serial_cfg);
        let iccad = harness.run_one(b, Engine::Iccad18, &par_cfg);
        let dac = harness.run_one(b, Engine::DacPara, &par_cfg);
        t.push_row(vec![
            b.name.clone(),
            fmt_s(abc.time_s),
            abc.area_reduction.to_string(),
            abc.delay.to_string(),
            fmt_s(iccad.time_s),
            iccad.area_reduction.to_string(),
            iccad.delay.to_string(),
            fmt_s(dac.time_s),
            dac.area_reduction.to_string(),
            dac.delay.to_string(),
        ]);
        for (i, other) in [&abc, &iccad].into_iter().enumerate() {
            ratios_time[i].push(other.time_s / dac.time_s.max(1e-9));
            ratios_area[i]
                .push(other.area_reduction.max(1) as f64 / dac.area_reduction.max(1) as f64);
            ratios_delay[i].push(other.delay.max(1) as f64 / dac.delay.max(1) as f64);
        }
        runs.extend([abc, iccad, dac]);
    }
    t.push_row(vec![
        "Normalized Mean".into(),
        format!("{:.4}", geomean(&ratios_time[0])),
        format!("{:.4}", geomean(&ratios_area[0])),
        format!("{:.4}", geomean(&ratios_delay[0])),
        format!("{:.4}", geomean(&ratios_time[1])),
        format!("{:.4}", geomean(&ratios_area[1])),
        format!("{:.4}", geomean(&ratios_delay[1])),
        "1".into(),
        "1".into(),
        "1".into(),
    ]);

    Exhibit {
        id: "table2".into(),
        markdown: t.to_markdown(),
        runs,
    }
}

/// Table 3: the MtM set across all five comparison columns.
pub fn table3(harness: &Harness) -> Exhibit {
    let suite = mtm_suite(harness.scale);
    let columns: [(&str, Engine, RewriteConfig); 5] = [
        (
            "ICCAD18",
            Engine::Iccad18,
            RewriteConfig::rewrite_op().with_threads(harness.threads),
        ),
        (
            "DAC22",
            Engine::Dac22,
            RewriteConfig::drw_op().with_threads(harness.threads),
        ),
        (
            "TCAD23",
            Engine::Tcad23,
            RewriteConfig::drw_op().with_threads(harness.threads),
        ),
        (
            "DACPara-P1",
            Engine::DacPara,
            RewriteConfig::p1().with_threads(harness.threads),
        ),
        (
            "DACPara-P2",
            Engine::DacPara,
            RewriteConfig::rewrite_op().with_threads(harness.threads),
        ),
    ];

    let mut headers: Vec<String> = vec!["Benchmark".into()];
    for (name, ..) in &columns {
        headers.push(format!("{name} T(s)"));
        headers.push(format!("{name} AreaRed"));
        headers.push(format!("{name} Delay"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        format!(
            "Table 3: MtM set, {} threads (scale = {:?})",
            harness.threads, harness.scale
        ),
        &header_refs,
    );

    let mut runs: Vec<BenchRun> = Vec::new();
    let mut per_col: Vec<Vec<BenchRun>> = vec![Vec::new(); columns.len()];
    for b in &suite {
        let mut row = vec![b.name.clone()];
        for (i, (_, engine, cfg)) in columns.iter().enumerate() {
            let r = harness.run_one(b, *engine, cfg);
            row.push(fmt_s(r.time_s));
            row.push(r.area_reduction.to_string());
            row.push(r.delay.to_string());
            per_col[i].push(r.clone());
            runs.push(r);
        }
        t.push_row(row);
    }
    // Normalized mean row versus the last column (DACPara-P2), as in the paper.
    let base = per_col.last().expect("five columns");
    let mut norm = vec!["Norm Mean".to_string()];
    for col in &per_col {
        let rt: Vec<f64> = col
            .iter()
            .zip(base)
            .map(|(a, b)| a.time_s / b.time_s.max(1e-9))
            .collect();
        let ra: Vec<f64> = col
            .iter()
            .zip(base)
            .map(|(a, b)| a.area_reduction.max(1) as f64 / b.area_reduction.max(1) as f64)
            .collect();
        let rd: Vec<f64> = col
            .iter()
            .zip(base)
            .map(|(a, b)| a.delay.max(1) as f64 / b.delay.max(1) as f64)
            .collect();
        norm.push(format!("{:.4}", geomean(&rt)));
        norm.push(format!("{:.4}", geomean(&ra)));
        norm.push(format!("{:.4}", geomean(&rd)));
    }
    t.push_row(norm);

    Exhibit {
        id: "table3".into(),
        markdown: t.to_markdown(),
        runs,
    }
}

/// Fig. 2: conflict behaviour of the combined operator (ICCAD'18) versus
/// DACPara's split operators, swept over thread counts on the MtM set.
pub fn fig2(harness: &Harness) -> Exhibit {
    let suite = mtm_suite(harness.scale);
    let mut t = Table::new(
        format!(
            "Fig. 2: wasted work on conflicts (scale = {:?})",
            harness.scale
        ),
        &[
            "Benchmark",
            "Threads",
            "Engine",
            "Commits",
            "Aborts",
            "Conflicts",
            "Wasted %",
            "T(s)",
        ],
    );
    let mut runs = Vec::new();
    let mut threads = vec![1usize];
    let mut n = 2;
    while n <= harness.threads {
        threads.push(n);
        n *= 2;
    }
    for b in &suite {
        for &th in &threads {
            for engine in [Engine::Iccad18, Engine::DacPara] {
                let cfg = RewriteConfig::rewrite_op().with_threads(th);
                let r = harness.run_one(b, engine, &cfg);
                t.push_row(vec![
                    b.name.clone(),
                    th.to_string(),
                    r.engine.clone(),
                    (r.replacements + r.stale_skipped).to_string(),
                    r.aborts.to_string(),
                    r.conflicts.to_string(),
                    format!("{:.2}", r.wasted_fraction * 100.0),
                    fmt_s(r.time_s),
                ]);
                runs.push(r);
            }
        }
    }
    Exhibit {
        id: "fig2".into(),
        markdown: t.to_markdown(),
        runs,
    }
}

/// Fig. 3: how often replacement-time validation fires — stored cuts
/// revalidated by re-enumeration and stale results skipped (the ID-reuse
/// hazard the figure illustrates).
pub fn fig3(harness: &Harness) -> Exhibit {
    let suite = full_suite(harness.scale);
    let cfg = RewriteConfig::rewrite_op().with_threads(harness.threads);
    let mut t = Table::new(
        format!(
            "Fig. 3 companion: stored-cut validity outcomes in DACPara (scale = {:?})",
            harness.scale
        ),
        &[
            "Benchmark",
            "Replacements",
            "Revalidated",
            "Stale skipped",
            "AreaRed",
            "Check",
        ],
    );
    let mut runs = Vec::new();
    for b in &suite {
        let r = harness.run_one(b, Engine::DacPara, &cfg);
        t.push_row(vec![
            b.name.clone(),
            r.replacements.to_string(),
            r.revalidated.to_string(),
            r.stale_skipped.to_string(),
            r.area_reduction.to_string(),
            r.verdict.map(|v| v.name().to_string()).unwrap_or_default(),
        ]);
        runs.push(r);
    }
    Exhibit {
        id: "fig3".into(),
        markdown: t.to_markdown(),
        runs,
    }
}

/// Thread-scaling sweep: DACPara and ICCAD'18 wall-clock over thread
/// counts on the largest MtM benchmark (the axis behind the paper's 40-core
/// speedups; on few-core hosts this documents the available scaling).
pub fn speedup(harness: &Harness) -> Exhibit {
    let suite = mtm_suite(harness.scale);
    let bench = suite.last().expect("mtm suite non-empty");
    let mut t = Table::new(
        format!(
            "Speedup sweep on {} (scale = {:?})",
            bench.name, harness.scale
        ),
        &["Engine", "Threads", "T(s)", "Speedup vs 1T", "AreaRed"],
    );
    let mut runs = Vec::new();
    for engine in [Engine::DacPara, Engine::Iccad18] {
        let mut base = None;
        let mut th = 1usize;
        while th <= harness.threads.max(1) {
            let cfg = RewriteConfig::rewrite_op().with_threads(th);
            let r = harness.run_one(bench, engine, &cfg);
            let base_t = *base.get_or_insert(r.time_s);
            t.push_row(vec![
                r.engine.clone(),
                th.to_string(),
                fmt_s(r.time_s),
                format!("{:.2}x", base_t / r.time_s.max(1e-9)),
                r.area_reduction.to_string(),
            ]);
            runs.push(r);
            th *= 2;
        }
    }
    Exhibit {
        id: "speedup".into(),
        markdown: t.to_markdown(),
        runs,
    }
}

/// All six engines side by side on the MtM set — the extra exhibit beyond
/// the paper's tables (the partition engine is reference [15], included to
/// contrast coarse-grain with node-level parallelism).
pub fn engines(harness: &Harness) -> Exhibit {
    let suite = mtm_suite(harness.scale);
    let mut t = Table::new(
        format!(
            "All engines on the MtM set ({} threads, scale = {:?})",
            harness.threads, harness.scale
        ),
        &[
            "Benchmark",
            "Engine",
            "T(s)",
            "AreaRed",
            "Delay",
            "Repl",
            "Aborts",
            "Wasted %",
        ],
    );
    let mut runs = Vec::new();
    for b in &suite {
        for engine in Engine::ALL {
            let cfg = match engine {
                Engine::AbcRewrite => RewriteConfig::rewrite_op(),
                Engine::Dac22 | Engine::Tcad23 => {
                    RewriteConfig::drw_op().with_threads(harness.threads)
                }
                _ => RewriteConfig::rewrite_op().with_threads(harness.threads),
            };
            let r = harness.run_one(b, engine, &cfg);
            t.push_row(vec![
                b.name.clone(),
                r.engine.clone(),
                fmt_s(r.time_s),
                r.area_reduction.to_string(),
                r.delay.to_string(),
                r.replacements.to_string(),
                r.aborts.to_string(),
                format!("{:.2}", r.wasted_fraction * 100.0),
            ]);
            runs.push(r);
        }
    }
    Exhibit {
        id: "engines".into(),
        markdown: t.to_markdown(),
        runs,
    }
}

/// Ablations of the design choices called out in `DESIGN.md` §5.
pub fn ablations(harness: &Harness) -> Exhibit {
    let suite = arithmetic_suite(harness.scale);
    let bench: &Benchmark = suite
        .iter()
        .find(|b| b.name.starts_with("mult"))
        .expect("mult benchmark exists");
    let mtm = mtm_suite(harness.scale);
    let complex = &mtm[0];

    let base = RewriteConfig::rewrite_op().with_threads(harness.threads);
    let variants: Vec<(&str, &Benchmark, RewriteConfig)> = vec![
        ("baseline (P2)", bench, base.clone()),
        (
            "use_zeros",
            bench,
            RewriteConfig {
                use_zeros: true,
                ..base.clone()
            },
        ),
        (
            "cut_limit=8",
            bench,
            RewriteConfig {
                cut_limit: 8,
                ..base.clone()
            },
        ),
        (
            "structs=5",
            bench,
            RewriteConfig {
                max_structures: 5,
                ..base.clone()
            },
        ),
        (
            "no level partition",
            complex,
            RewriteConfig {
                level_partition: false,
                ..base.clone()
            },
        ),
        ("baseline (complex)", complex, base.clone()),
        (
            "no revalidation",
            complex,
            RewriteConfig {
                revalidate: false,
                ..base.clone()
            },
        ),
        (
            "222 classes",
            bench,
            RewriteConfig {
                num_classes: 222,
                ..base.clone()
            },
        ),
        (
            "refined library",
            bench,
            RewriteConfig {
                refined_library: true,
                ..base.clone()
            },
        ),
    ];

    let mut t = Table::new(
        format!("Ablations (DACPara, {} threads)", harness.threads),
        &[
            "Variant",
            "Benchmark",
            "T(s)",
            "AreaRed",
            "Delay",
            "Stale",
            "Revalidated",
        ],
    );
    let mut runs = Vec::new();
    for (name, b, cfg) in variants {
        let r = harness.run_one(b, Engine::DacPara, &cfg);
        t.push_row(vec![
            name.to_string(),
            b.name.clone(),
            fmt_s(r.time_s),
            r.area_reduction.to_string(),
            r.delay.to_string(),
            r.stale_skipped.to_string(),
            r.revalidated.to_string(),
        ]);
        runs.push(r);
    }
    Exhibit {
        id: "ablations".into(),
        markdown: t.to_markdown(),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacpara_circuits::Scale;

    fn tiny() -> Harness {
        Harness {
            scale: Scale::Test,
            threads: 2,
            repeats: 1,
            check: false,
            sat_limit: 0,
        }
    }

    #[test]
    fn table1_lists_all_benchmarks() {
        let e = table1(&tiny());
        assert!(e.markdown.contains("sixteen"));
        assert!(e.markdown.contains("mult_"));
        assert!(e.markdown.matches('\n').count() > 12);
    }

    #[test]
    fn fig3_counts_validity_outcomes() {
        let mut h = tiny();
        h.check = true;
        h.sat_limit = 3_000;
        let e = fig3(&h);
        assert!(!e.runs.is_empty());
        assert!(e.runs.iter().all(|r| r.verdict.is_some()));
    }
}
