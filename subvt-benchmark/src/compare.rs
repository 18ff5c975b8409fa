//! The direction-aware gate between two benchmark artifacts.
//!
//! Every end-to-end metric of `BENCHMARK.json` is compared per workload
//! with its own direction and bound: a metric regresses when it got
//! worse by more than its bound, as a share of the baseline. A metric
//! whose baseline spread (the relative half-width recorded with it) is
//! wider than its bound cannot be judged and is reported `unresolved`.
//! Any rise of a workload's error rate is a regression.

use std::collections::BTreeMap;

use subvt_exp::tracefmt::{parse_json, Json};

/// One end-to-end metric's gate, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Allowed worsening, as a share of the baseline.
    pub bound: f64,
}

/// Reads the `end_to_end` gates of a `BENCHMARK.json`.
///
/// # Errors
///
/// When the text is not a benchmark spec.
pub fn parse_spec(text: &str) -> Result<Vec<Bound>, String> {
    let json = parse_json(text.trim())?;
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("spec has no `end_to_end` list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_owned(),
                higher_is_better: match m.get("better").and_then(Json::as_str) {
                    Some("higher") => true,
                    Some("lower") => false,
                    _ => return Err("`better` must be higher or lower".to_owned()),
                },
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// One workload of an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `name → (value, spread)`.
    pub metrics: BTreeMap<String, (f64, Option<f64>)>,
}

impl WorkloadResult {
    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A parsed benchmark artifact (`"suite":"benchmark"`).
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Revision it was measured at.
    pub rev: String,
    /// Workloads by name.
    pub workloads: BTreeMap<String, WorkloadResult>,
}

/// Parses an artifact written with `--out`.
///
/// # Errors
///
/// When the text is not a benchmark artifact.
pub fn parse_artifact(text: &str) -> Result<Artifact, String> {
    let json = parse_json(text.trim())?;
    if json.get("suite").and_then(Json::as_str) != Some("benchmark") {
        return Err("not a `benchmark` suite artifact".to_owned());
    }
    let mut workloads = BTreeMap::new();
    for w in json
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("artifact has no `workloads` list")?
    {
        let name = w
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let mut metrics = BTreeMap::new();
        if let Some(Json::Obj(members)) = w.get("metrics") {
            for (metric, m) in members {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    metrics.insert(metric.clone(), (v, m.get("spread").and_then(Json::as_f64)));
                }
            }
        }
        workloads.insert(
            name.to_owned(),
            WorkloadResult {
                attempted: w.get("attempted").and_then(Json::as_u64).unwrap_or(0),
                failed: w.get("failed").and_then(Json::as_u64).unwrap_or(0),
                metrics,
            },
        );
    }
    Ok(Artifact {
        rev: json
            .get("rev")
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_owned(),
        workloads,
    })
}

/// A comparison's verdict for one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Pass,
    /// Worse than the bound allows, or missing from the current run.
    Regression,
    /// The baseline's spread is wider than the bound.
    Unresolved,
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name (`error_rate` for the failure check).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value (`NaN` when missing).
    pub current: f64,
    /// Worsening as a share of the baseline (negative: better).
    pub worse_by: f64,
    /// The bound it was held to.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares `current` against `baseline` under `bounds`, workload by
/// workload (workloads only in `current` are ignored).
pub fn diff(bounds: &[Bound], baseline: &Artifact, current: &Artifact) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, base) in &baseline.workloads {
        let cur = current.workloads.get(workload);
        for b in bounds {
            let Some(&(bv, spread)) = base.metrics.get(&b.name) else {
                continue;
            };
            let cv = cur
                .and_then(|c| c.metrics.get(&b.name))
                .map_or(f64::NAN, |m| m.0);
            let worse_by = if b.higher_is_better {
                (bv - cv) / bv
            } else {
                (cv - bv) / bv
            };
            let verdict = if cv.is_nan() {
                Verdict::Regression
            } else if spread.is_some_and(|s| s > b.bound) {
                Verdict::Unresolved
            } else if worse_by > b.bound {
                Verdict::Regression
            } else {
                Verdict::Pass
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: b.name.clone(),
                baseline: bv,
                current: cv,
                worse_by,
                bound: b.bound,
                verdict,
            });
        }
        let (be, ce) = (
            base.error_rate(),
            cur.map_or(f64::INFINITY, WorkloadResult::error_rate),
        );
        rows.push(Row {
            workload: workload.clone(),
            metric: "error_rate".to_owned(),
            baseline: be,
            current: ce,
            worse_by: ce - be,
            bound: 0.0,
            verdict: if ce > be {
                Verdict::Regression
            } else {
                Verdict::Pass
            },
        });
    }
    rows
}

/// Renders the comparison, one row per workload and metric, ending in
/// `verdict: PASS` or `verdict: FAIL`.
pub fn render(baseline: &Artifact, current: &Artifact, rows: &[Row]) -> String {
    let mut out = format!(
        "benchmark diff: rev {} -> rev {}\n{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        baseline.rev, current.rev, "workload", "metric", "baseline", "current", "worse", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<16} {:>14.6} {:>14.6} {:>+8.1}% {:>6.0}%  {}\n",
            r.workload,
            r.metric,
            r.baseline,
            r.current,
            r.worse_by * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Pass => "ok",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
            }
        ));
    }
    let regressions = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regression)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    if regressions == 0 {
        out.push_str(&format!("verdict: PASS ({unresolved} unresolved)\n"));
    } else {
        out.push_str(&format!(
            "verdict: FAIL ({regressions} regression{}, {unresolved} unresolved)\n",
            if regressions == 1 { "" } else { "s" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"end_to_end":[
        {"name":"latency_ms.mean","unit":"ms","better":"lower","bound":0.1},
        {"name":"throughput","unit":"1/s","better":"higher","bound":0.1}]}"#;

    fn artifact(p50: f64, throughput: f64, failed: u64, spread: f64) -> Artifact {
        let w = |name: &str, p50: f64| {
            format!(
                "{{\"workload\":\"{name}\",\"attempted\":100,\"failed\":{failed},\"metrics\":{{\
                 \"latency_ms.mean\":{{\"value\":{p50},\"unit\":\"ms\",\"spread\":{spread},\"samples\":100}},\
                 \"throughput\":{{\"value\":{throughput},\"unit\":\"1/s\",\"spread\":0.01,\"samples\":100}}}}}}"
            )
        };
        parse_artifact(&format!(
            "{{\"suite\":\"benchmark\",\"rev\":\"abc\",\"workloads\":[{},{}]}}",
            w("paper-analytic", p50),
            w("serve-mixed", 0.3)
        ))
        .unwrap()
    }

    fn regressions(rows: &[Row]) -> Vec<(String, String)> {
        rows.iter()
            .filter(|r| r.verdict == Verdict::Regression)
            .map(|r| (r.workload.clone(), r.metric.clone()))
            .collect()
    }

    #[test]
    fn identical_artifacts_pass() {
        let spec = parse_spec(SPEC).unwrap();
        let a = artifact(95.0, 10.0, 0, 0.01);
        let rows = diff(&spec, &a, &a.clone());
        assert!(regressions(&rows).is_empty());
        assert!(render(&a, &a, &rows).contains("verdict: PASS"));
    }

    #[test]
    fn doubled_p50_on_one_workload_fails_naming_it() {
        let spec = parse_spec(SPEC).unwrap();
        let rows = diff(
            &spec,
            &artifact(95.0, 10.0, 0, 0.01),
            &artifact(190.0, 10.0, 0, 0.01),
        );
        assert_eq!(
            regressions(&rows),
            [("paper-analytic".to_owned(), "latency_ms.mean".to_owned())]
        );
        let report = render(
            &artifact(95.0, 10.0, 0, 0.01),
            &artifact(190.0, 10.0, 0, 0.01),
            &rows,
        );
        assert!(
            report.contains("paper-analytic   latency_ms.mean"),
            "{report}"
        );
        assert!(report.contains("verdict: FAIL (1 regression"), "{report}");
    }

    #[test]
    fn a_throughput_drop_fails_but_a_rise_passes() {
        let spec = parse_spec(SPEC).unwrap();
        let base = artifact(95.0, 10.0, 0, 0.01);
        let rows = diff(&spec, &base, &artifact(95.0, 8.0, 0, 0.01));
        assert_eq!(regressions(&rows).len(), 2, "both workloads dropped");
        assert!(regressions(&rows).iter().all(|(_, m)| m == "throughput"));
        assert!(regressions(&diff(&spec, &base, &artifact(95.0, 20.0, 0, 0.01))).is_empty());
    }

    #[test]
    fn an_error_rate_rise_fails() {
        let spec = parse_spec(SPEC).unwrap();
        let rows = diff(
            &spec,
            &artifact(95.0, 10.0, 0, 0.01),
            &artifact(95.0, 10.0, 1, 0.01),
        );
        let regs = regressions(&rows);
        assert_eq!(regs.len(), 2);
        assert!(regs.iter().all(|(_, m)| m == "error_rate"));
    }

    #[test]
    fn a_baseline_spread_wider_than_the_bound_is_unresolved() {
        let spec = parse_spec(SPEC).unwrap();
        let rows = diff(
            &spec,
            &artifact(95.0, 10.0, 0, 0.3),
            &artifact(190.0, 10.0, 0, 0.3),
        );
        assert!(regressions(&rows).is_empty());
        assert!(rows
            .iter()
            .any(|r| r.metric == "latency_ms.mean" && r.verdict == Verdict::Unresolved));
    }
}
