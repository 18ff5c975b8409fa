//! Bench-trajectory regression gate for `BENCH_serve.json` artifacts.
//!
//! ```text
//! subvt-bench-diff benches/baselines BENCH_serve.json
//! subvt-bench-diff old.json new.json --threshold 1.5 --min-ms 2
//! subvt-bench-diff benches/baselines BENCH_serve.json --report-only
//! ```
//!
//! The baseline argument is a stamped artifact file or a directory of
//! them (the lexicographically latest `*.json` is used — stamped
//! baselines sort by date when named `YYYY-MM-DD-*.json`). Exit codes:
//! 0 no regression (always, under `--report-only`), 1 regression
//! detected, 2 usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use subvt_bench::benchjson::{diff, parse_bench, render_diff, BenchSummary, DiffConfig};
use subvt_engine::cli::parsed;

fn main() -> ExitCode {
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("subvt-bench-diff: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<&str> = Vec::new();
    let mut cfg = DiffConfig::default();
    let mut report_only = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threshold" => {
                cfg.threshold = parsed(
                    iter.next(),
                    |t: &f64| t.is_finite() && *t >= 1.0,
                    "--threshold needs a number >= 1.0",
                )?;
            }
            "--min-ms" => {
                cfg.min_ms = parsed(
                    iter.next(),
                    |m: &f64| m.is_finite() && *m >= 0.0,
                    "--min-ms needs a non-negative number",
                )?;
            }
            "--report-only" => report_only = true,
            "--help" | "-h" => {
                return Err(
                    "usage: subvt-bench-diff <baseline-file|baselines-dir> <current.json> \
                     [--threshold 1.25] [--min-ms 1.0] [--report-only]"
                        .to_owned(),
                );
            }
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            other => positional.push(other),
        }
    }
    let [baseline_arg, current_arg] = positional[..] else {
        return Err(
            "expected exactly two positional arguments: <baseline-file|baselines-dir> <current.json> \
             (try --help)"
                .to_owned(),
        );
    };

    let current = load(Path::new(current_arg))?;
    let baseline_path = resolve_baseline(Path::new(baseline_arg), &current.suite)?;
    let baseline = load(&baseline_path)?;
    if baseline.suite != current.suite {
        return Err(format!(
            "suite mismatch: baseline {} is `{}`, current {} is `{}`",
            baseline_path.display(),
            baseline.suite,
            current_arg,
            current.suite
        ));
    }

    let regressions = diff(&baseline, &current, cfg);
    print!(
        "{}",
        render_diff(
            &baseline_path.display().to_string(),
            current_arg,
            &baseline,
            &current,
            &regressions,
            cfg,
        )
    );
    if regressions.is_empty() {
        return Ok(false);
    }
    if report_only {
        println!("(--report-only: regressions reported, exit 0)");
        return Ok(false);
    }
    Ok(true)
}

/// A file is used as-is; a directory resolves to its lexicographically
/// latest `*.json` entry *of the current artifact's suite*, so serve
/// and spice trajectories can share one baselines directory.
fn resolve_baseline(path: &Path, suite: &str) -> Result<PathBuf, String> {
    if !path.is_dir() {
        return Ok(path.to_path_buf());
    }
    let mut latest: Option<PathBuf> = None;
    let entries =
        std::fs::read_dir(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let p = entry.path();
        if p.extension().is_some_and(|ext| ext == "json")
            && load(&p).is_ok_and(|b| b.suite == suite)
            && latest.as_ref().is_none_or(|best| p > *best)
        {
            latest = Some(p);
        }
    }
    latest.ok_or_else(|| format!("no `{suite}`-suite *.json baselines in {}", path.display()))
}

fn load(path: &Path) -> Result<BenchSummary, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_bench(&text).map_err(|e| format!("{}: {e}", path.display()))
}
