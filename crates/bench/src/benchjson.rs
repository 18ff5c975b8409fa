//! `BENCH_serve.json` provenance stamping and trajectory comparison.
//!
//! Every serve benchmark artifact carries a provenance header —
//! `"schema":1`, the git revision it was measured at, and a UTC
//! timestamp — so a directory of them forms a comparable trajectory.
//! [`parse_bench`] reads one artifact back, [`diff`] compares two and
//! reports quantile regressions, and the `subvt-bench-diff` binary
//! wraps both as the CI gate (`obs-smoke` runs it report-only against
//! `benches/baselines/`).
//!
//! A regression must clear **two** bars: the relative threshold
//! (default 1.25× the baseline) *and* an absolute floor (default
//! 1 ms), so microsecond-level jitter on a fast path can never trip
//! the gate, and a slow path can't hide a real 2× behind "it's only
//! relative".

use subvt_engine::json::{parse_json, Json};

// The provenance helpers live in `subvt_exp::report` (so `repro --bench`
// can stamp `BENCH_spice.json` without a dependency cycle) and are
// re-exported here for the serve-side writers.
pub use subvt_exp::report::{git_rev, provenance_fragment, BENCH_SCHEMA};

/// The benchmark suites whose artifacts the trajectory gate recognises.
pub const KNOWN_SUITES: [&str; 2] = ["serve", "spice"];

/// One parsed bench artifact (`BENCH_serve.json` / `BENCH_spice.json`)
/// — just the fields the trajectory gate compares.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSummary {
    /// Which suite produced the artifact (`"serve"` or `"spice"`);
    /// baselines are only comparable within a suite.
    pub suite: String,
    /// Schema version (0 for pre-stamping artifacts).
    pub schema: u64,
    /// Git revision the artifact was measured at (`"unknown"` when
    /// absent).
    pub rev: String,
    /// Total requests driven.
    pub requests: u64,
    /// Failed requests.
    pub errors: u64,
    /// Sustained request throughput.
    pub throughput_rps: f64,
    /// Latency quantiles, milliseconds: `(label, value)` in a fixed
    /// order (`p50`, `p90`, `p99`, `mean`, `max`).
    pub latency_ms: Vec<(&'static str, f64)>,
}

/// Latency fields compared by [`diff`], in report order.
const LATENCY_KEYS: [&str; 5] = ["p50", "p90", "p99", "mean", "max"];

/// Parses one bench artifact.
///
/// # Errors
///
/// Returns a message when the text is not JSON, is not from a known
/// suite ([`KNOWN_SUITES`]), or lacks the latency object.
pub fn parse_bench(text: &str) -> Result<BenchSummary, String> {
    let json = parse_json(text.trim()).map_err(|e| format!("bad JSON: {e}"))?;
    let suite = match json.get("suite").and_then(|s| match s {
        Json::Str(s) => Some(s.as_str()),
        _ => None,
    }) {
        Some(s) if KNOWN_SUITES.contains(&s) => s.to_owned(),
        other => {
            return Err(format!(
                "not a recognised benchmark artifact (suite={other:?})"
            ))
        }
    };
    let latency = json
        .get("latency_ms")
        .ok_or("missing latency_ms object")?
        .clone();
    let mut latency_ms = Vec::with_capacity(LATENCY_KEYS.len());
    for key in LATENCY_KEYS {
        let v = latency
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("latency_ms.{key} missing or non-numeric"))?;
        latency_ms.push((key, v));
    }
    Ok(BenchSummary {
        suite,
        schema: json.get("schema").and_then(Json::as_u64).unwrap_or(0),
        rev: match json.get("rev") {
            Some(Json::Str(s)) => s.clone(),
            _ => "unknown".to_owned(),
        },
        requests: json
            .get("requests")
            .and_then(Json::as_u64)
            .ok_or("missing requests")?,
        errors: json.get("errors").and_then(Json::as_u64).unwrap_or(0),
        throughput_rps: json
            .get("throughput_rps")
            .and_then(Json::as_f64)
            .ok_or("missing throughput_rps")?,
        latency_ms,
    })
}

/// Gate thresholds for [`diff`].
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Relative bar: current must exceed `baseline × threshold`.
    pub threshold: f64,
    /// Absolute bar, milliseconds: the regression must also be at
    /// least this large, so jitter on sub-millisecond paths never
    /// trips the gate.
    pub min_ms: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            threshold: 1.25,
            min_ms: 1.0,
        }
    }
}

/// One metric that regressed past both bars.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Metric label (`latency.p99`, `throughput_rps`, `errors`).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// `current / baseline` for latency, `baseline / current` for
    /// throughput — always "how many times worse".
    pub ratio: f64,
}

/// Compares `current` against `baseline`: each latency quantile that
/// is both `threshold×` worse *and* at least `min_ms` slower is a
/// regression; throughput that drops below `baseline / threshold` is
/// a regression; new errors are always a regression.
pub fn diff(baseline: &BenchSummary, current: &BenchSummary, cfg: DiffConfig) -> Vec<Regression> {
    let mut out = Vec::new();
    for ((key, base), (_, cur)) in baseline.latency_ms.iter().zip(&current.latency_ms) {
        if !base.is_finite() || !cur.is_finite() {
            continue;
        }
        if *cur > base * cfg.threshold && cur - base > cfg.min_ms {
            out.push(Regression {
                metric: format!("latency.{key}"),
                baseline: *base,
                current: *cur,
                ratio: if *base > 0.0 {
                    cur / base
                } else {
                    f64::INFINITY
                },
            });
        }
    }
    if baseline.throughput_rps.is_finite()
        && current.throughput_rps.is_finite()
        && baseline.throughput_rps > 0.0
        && current.throughput_rps < baseline.throughput_rps / cfg.threshold
    {
        out.push(Regression {
            metric: "throughput_rps".to_owned(),
            baseline: baseline.throughput_rps,
            current: current.throughput_rps,
            ratio: baseline.throughput_rps / current.throughput_rps.max(f64::MIN_POSITIVE),
        });
    }
    if current.errors > baseline.errors {
        out.push(Regression {
            metric: "errors".to_owned(),
            baseline: baseline.errors as f64,
            current: current.errors as f64,
            ratio: f64::INFINITY,
        });
    }
    out
}

/// Renders the comparison as a human report: provenance line, a row
/// per compared metric, and a verdict.
pub fn render_diff(
    baseline_name: &str,
    current_name: &str,
    baseline: &BenchSummary,
    current: &BenchSummary,
    regressions: &[Regression],
    cfg: DiffConfig,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "bench-diff: {baseline_name} (rev {}) -> {current_name} (rev {})\n",
        baseline.rev, current.rev
    ));
    out.push_str(&format!(
        "gate: regression = > {:.2}x baseline AND > {:.2} ms absolute\n\n",
        cfg.threshold, cfg.min_ms
    ));
    out.push_str(&format!(
        "{:<18} {:>12} {:>12} {:>8}\n",
        "metric", "baseline", "current", "ratio"
    ));
    let flagged = |metric: &str| regressions.iter().any(|r| r.metric == metric);
    for ((key, base), (_, cur)) in baseline.latency_ms.iter().zip(&current.latency_ms) {
        let metric = format!("latency.{key}");
        out.push_str(&format!(
            "{:<18} {:>9.3} ms {:>9.3} ms {:>7.2}x{}\n",
            metric,
            base,
            cur,
            if *base > 0.0 { cur / base } else { f64::NAN },
            if flagged(&metric) { "  REGRESSION" } else { "" }
        ));
    }
    out.push_str(&format!(
        "{:<18} {:>8.1} rps {:>8.1} rps {:>7.2}x{}\n",
        "throughput_rps",
        baseline.throughput_rps,
        current.throughput_rps,
        if baseline.throughput_rps > 0.0 {
            current.throughput_rps / baseline.throughput_rps
        } else {
            f64::NAN
        },
        if flagged("throughput_rps") {
            "  REGRESSION"
        } else {
            ""
        }
    ));
    out.push_str(&format!(
        "{:<18} {:>12} {:>12}         {}\n",
        "errors",
        baseline.errors,
        current.errors,
        if flagged("errors") {
            "  REGRESSION"
        } else {
            ""
        }
    ));
    out.push('\n');
    if regressions.is_empty() {
        out.push_str("verdict: PASS (no quantile regressions)\n");
    } else {
        out.push_str(&format!(
            "verdict: FAIL ({} regression{})\n",
            regressions.len(),
            if regressions.len() == 1 { "" } else { "s" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(p99: f64, throughput: f64, errors: u64) -> String {
        format!(
            "{{\"suite\":\"serve\",\"schema\":1,\"rev\":\"abcdef123456\",\
             \"generated_utc\":\"2026-08-08T00:00:00Z\",\"requests\":200,\
             \"concurrency\":8,\"elapsed_s\":2.0,\"throughput_rps\":{throughput},\
             \"errors\":{errors},\"latency_ms\":{{\"min\":0.8,\"p50\":4.0,\
             \"p90\":9.0,\"p99\":{p99},\"max\":40.0,\"mean\":5.0}},\
             \"by_method\":{{\"vtc\":{{\"count\":20,\"errors\":0}}}}}}"
        )
    }

    #[test]
    fn parses_a_spice_artifact_and_rejects_unknown_suites() {
        let spice = "{\"suite\":\"spice\",\"schema\":1,\"rev\":\"abcdef123456\",\
                     \"generated_utc\":\"2026-08-08T00:00:00Z\",\"requests\":1800,\
                     \"errors\":0,\"elapsed_s\":0.9,\"throughput_rps\":2000.0,\
                     \"latency_ms\":{\"min\":0.002,\"p50\":0.01,\"p90\":0.05,\
                     \"p99\":0.2,\"max\":1.5,\"mean\":0.03},\
                     \"analytic_ms\":120.0,\"spice_ms\":900.0,\
                     \"spice_over_analytic\":7.5,\
                     \"counters\":{\"spice.lu.factor\":12}}";
        let s = parse_bench(spice).unwrap();
        assert_eq!(s.suite, "spice");
        assert_eq!(s.requests, 1800);
        assert_eq!(s.latency_ms[2], ("p99", 0.2));
        let unknown = spice.replace("\"suite\":\"spice\"", "\"suite\":\"tcad\"");
        assert!(parse_bench(&unknown)
            .unwrap_err()
            .contains("not a recognised"));
    }

    #[test]
    fn parses_a_stamped_artifact() {
        let s = parse_bench(&artifact(20.0, 100.0, 0)).unwrap();
        assert_eq!(s.suite, "serve");
        assert_eq!(s.schema, 1);
        assert_eq!(s.rev, "abcdef123456");
        assert_eq!(s.requests, 200);
        assert_eq!(s.latency_ms[2], ("p99", 20.0));
        assert!((s.throughput_rps - 100.0).abs() < 1e-12);
    }

    #[test]
    fn identical_inputs_pass() {
        let s = parse_bench(&artifact(20.0, 100.0, 0)).unwrap();
        assert!(diff(&s, &s.clone(), DiffConfig::default()).is_empty());
        let report = render_diff("base", "cur", &s, &s, &[], DiffConfig::default());
        assert!(report.contains("verdict: PASS"));
    }

    #[test]
    fn doubled_p99_is_a_regression() {
        let base = parse_bench(&artifact(20.0, 100.0, 0)).unwrap();
        let cur = parse_bench(&artifact(40.0, 100.0, 0)).unwrap();
        let regs = diff(&base, &cur, DiffConfig::default());
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "latency.p99");
        assert!((regs[0].ratio - 2.0).abs() < 1e-12);
        let report = render_diff("base", "cur", &base, &cur, &regs, DiffConfig::default());
        assert!(report.contains("latency.p99"));
        assert!(report.contains("REGRESSION"));
        assert!(report.contains("verdict: FAIL (1 regression)"));
    }

    #[test]
    fn small_absolute_jitter_is_not_a_regression() {
        // 2x relative, but only 0.4 ms absolute: under the 1 ms floor.
        let base = parse_bench(&artifact(0.4, 100.0, 0)).unwrap();
        let cur = parse_bench(&artifact(0.8, 100.0, 0)).unwrap();
        assert!(diff(&base, &cur, DiffConfig::default()).is_empty());
    }

    #[test]
    fn throughput_collapse_and_new_errors_are_regressions() {
        let base = parse_bench(&artifact(20.0, 100.0, 0)).unwrap();
        let cur = parse_bench(&artifact(20.0, 50.0, 3)).unwrap();
        let regs = diff(&base, &cur, DiffConfig::default());
        let metrics: Vec<&str> = regs.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(metrics, ["throughput_rps", "errors"]);
        assert!((regs[0].ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unstamped_artifacts_still_parse_with_schema_zero() {
        let legacy = "{\"suite\":\"serve\",\"requests\":10,\"concurrency\":2,\
                      \"elapsed_s\":1.0,\"throughput_rps\":10.0,\"errors\":0,\
                      \"latency_ms\":{\"min\":1.0,\"p50\":2.0,\"p90\":3.0,\
                      \"p99\":4.0,\"max\":5.0,\"mean\":2.5},\"by_method\":{}}";
        let s = parse_bench(legacy).unwrap();
        assert_eq!(s.schema, 0);
        assert_eq!(s.rev, "unknown");
    }

    #[test]
    fn provenance_fragment_is_valid_json_members() {
        let wrapped = format!("{{{}}}", provenance_fragment());
        let json = parse_json(&wrapped).unwrap();
        assert_eq!(json.get("schema").and_then(Json::as_u64), Some(1));
        assert!(matches!(json.get("rev"), Some(Json::Str(_))));
        let ts = match json.get("generated_utc") {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("generated_utc missing: {other:?}"),
        };
        assert!(ts.ends_with('Z') && ts.len() == 20, "bad timestamp {ts}");
    }
}
