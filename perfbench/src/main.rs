//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload in a closed loop for `S` seconds and prints, as the
//! last line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` makes a separate traced run, writes a Chrome trace
//! and the per-layer metrics under `out/` in this crate's directory, and
//! reports the per-layer metrics. Progress and a readable summary go to
//! standard error.
//!
//! An untraced run measures in `Workload::workers` child processes of this
//! binary (`--worker`, one after the other), each printing its samples as
//! text; the parent pools them (see `bench::Samples`).

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use dacpara_obs::json::Json;
use dacpara_perfbench::bench::{end_to_end, measure, metrics_json, run_traced, Samples};
use dacpara_perfbench::workload::{Plan, Workload, DEFAULT_SEED};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 40.0;
    let mut trace = false;
    let mut worker = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.parse::<Workload>()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && f64::is_finite(seconds)) {
                    return Err("--seconds must be a number >= 0".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--worker" => worker = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        worker,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.workload, args.seed);
    if args.worker {
        print!("{}", measure(&plan, args.seconds).to_text());
        return ExitCode::SUCCESS;
    }
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "perfbench {} seed {} for {} s, trace {}, {threads} hardware threads",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let report = if args.trace {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        match run_traced(&plan, args.seconds, &out) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error writing the trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match run_workers(&args) {
            Ok(samples) => end_to_end(&samples),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    for note in &report.notes {
        eprintln!("{note}");
    }
    for (name, unit, value) in &report.metrics {
        eprintln!("  {name:<32} {value:>14.6} {unit}");
    }
    let line = Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Int(report.attempted as i64)),
        ("failed", Json::Int(report.failed as i64)),
        ("metrics", metrics_json(&report.metrics)),
    ]);
    println!("{}", line.to_compact());
    ExitCode::SUCCESS
}

/// Runs the workload's worker processes one after the other, each with an
/// equal share of the seconds still left, and pools their samples.
fn run_workers(args: &Args) -> Result<Samples, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let start = Instant::now();
    let mut samples = Samples::default();
    let workers = args.workload.workers();
    for k in 0..workers {
        let left = (args.seconds - start.elapsed().as_secs_f64()).max(0.0);
        let share = left / (workers - k) as f64;
        let out = Command::new(&exe)
            .args(["--worker", "--workload", args.workload.name()])
            .args([
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &share.to_string(),
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting worker {k}: {e}"))?;
        if !out.status.success() {
            return Err(format!("worker {k} exited with {}", out.status));
        }
        samples.add_text(&String::from_utf8_lossy(&out.stdout))?;
    }
    Ok(samples)
}
