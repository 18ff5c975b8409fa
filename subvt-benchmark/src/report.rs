//! Results: named metrics, the one-line result the benchmark prints
//! last, and the artifact written with `--out`.

use subvt_serve::proto::json_str;

use crate::host::Scaled;
use crate::stats::{median, Quantiles};
use crate::workload::{Workload, LATENCY_MEAN, PEAK_RSS, SETUP_S};

/// Messages kept per outcome; further failures are only counted.
const MAX_PROBLEMS: usize = 20;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Relative spread of the value, when known: within one run the
    /// half-width of its ~95 % order-statistic interval, across repeated
    /// runs their half-range.
    pub spread: Option<f64>,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
}

impl Metric {
    /// A single measurement.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
            spread: None,
            samples: 1,
        }
    }

    /// Attaches the sample count and relative spread behind the value.
    #[must_use]
    pub fn from_samples(mut self, samples: usize, spread: f64) -> Self {
        self.samples = samples;
        self.spread = Some(spread);
        self
    }
}

/// Renders a number for JSON (`null` when not finite).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// Whether this was a traced (per-layer) run.
    pub traced: bool,
    /// Operations attempted: invocations or requests.
    pub attempted: u64,
    /// Operations that failed: nonzero exits, error responses, transport
    /// errors and output mismatches.
    pub failed: u64,
    /// The first failure messages.
    pub problems: Vec<String>,
    /// Measured metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Extra artifact members: `(name, raw JSON value)`.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// An empty outcome.
    pub fn new(workload: Workload, traced: bool) -> Self {
        Self {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records one operation and whether it succeeded.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.fail(msg);
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(msg);
        }
    }

    /// Adds a metric.
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Folds repeated runs of one workload (one seed each) into one:
    /// counts add up, every metric becomes its median over the runs and
    /// its spread the runs' relative half-range — the run-to-run spread
    /// the gate holds against each bound. The first run's notes are kept,
    /// and every run's values are listed under `runs`.
    pub fn combine(mut runs: Vec<Outcome>) -> Outcome {
        if runs.len() == 1 {
            return runs.remove(0);
        }
        let mut out = Outcome::new(runs[0].workload, runs[0].traced);
        for r in &runs {
            out.attempted += r.attempted;
            out.failed += r.failed;
            out.problems.extend(r.problems.iter().cloned());
        }
        out.problems.truncate(MAX_PROBLEMS);
        for (i, m) in runs[0].metrics.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|r| r.metrics[i].value).collect();
            let value = median(&values);
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            out.push(Metric {
                value,
                spread: Some((hi - lo) / (2.0 * value.abs())),
                samples: values.len(),
                ..m.clone()
            });
        }
        out.notes = runs[0].notes.clone();
        let per_run: Vec<String> = runs
            .iter()
            .map(|r| {
                let values: Vec<String> = r
                    .metrics
                    .iter()
                    .map(|m| format!("{}:{}", json_str(&m.name), num(m.value)))
                    .collect();
                format!(
                    "{{\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
                    r.attempted,
                    r.failed,
                    values.join(",")
                )
            })
            .collect();
        out.notes
            .push(("runs".to_owned(), format!("[{}]", per_run.join(","))));
        out
    }

    /// No operation failed and every value is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(&m.name),
                    num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// This workload's object in the artifact.
    pub fn artifact_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{},\"spread\":{},\"samples\":{}}}",
                    json_str(&m.name),
                    num(m.value),
                    json_str(m.unit),
                    m.spread.map_or_else(|| "null".to_owned(), num),
                    m.samples
                )
            })
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| json_str(p)).collect();
        let mut out = format!(
            "{{\"workload\":{},\"traced\":{},\"correct\":{},\"attempted\":{},\"failed\":{},\
             \"error_rate\":{},\"metrics\":{{{}}},\"problems\":[{}]",
            json_str(self.workload.name()),
            self.traced,
            self.correct(),
            self.attempted,
            self.failed,
            num(self.failed as f64 / self.attempted.max(1) as f64),
            metrics.join(","),
            problems.join(",")
        );
        for (name, value) in &self.notes {
            out.push_str(&format!(",{}:{value}", json_str(name)));
        }
        out.push('}');
        out
    }
}

/// Pushes the end-to-end metrics ([`crate::workload::END_TO_END`]): the
/// median set-up time and the mean operation time, both scaled to the
/// reference host, and the median peak memory in MiB. The scaled and the
/// raw timing quantiles go to the artifact's notes.
pub fn push_end_to_end(
    out: &mut Outcome,
    setup_s: &[Scaled],
    latency_ms: &[Scaled],
    peak_rss_kb: &[f64],
) {
    let (setup, setup_raw) = split(setup_s);
    let (latency, latency_raw) = split(latency_ms);
    let rss = Quantiles::new(peak_rss_kb.to_vec());
    out.push(
        Metric::new(SETUP_S, "s", setup.median()).from_samples(setup.len(), setup.spread(0.5)),
    );
    out.push(
        Metric::new(LATENCY_MEAN, "ms", latency.mean())
            .from_samples(latency.len(), latency.mean_spread()),
    );
    out.push(
        Metric::new(PEAK_RSS, "MiB", rss.median() / 1024.0)
            .from_samples(rss.len(), rss.spread(0.5)),
    );
    out.notes
        .push(("latency_ms".to_owned(), timing_note(&latency)));
    out.notes
        .push(("raw_latency_ms".to_owned(), timing_note(&latency_raw)));
    out.notes
        .push(("raw_setup_s".to_owned(), num(setup_raw.median())));
}

/// The scaled and the raw values of `samples`, each sorted.
pub fn split(samples: &[Scaled]) -> (Quantiles, Quantiles) {
    (
        Quantiles::new(samples.iter().map(|s| s.scaled).collect()),
        Quantiles::new(samples.iter().map(|s| s.raw).collect()),
    )
}

/// The artifact note describing a timing sample through the quantile
/// helper: count, fixed quantiles, and the highest supported tail.
pub fn timing_note(q: &Quantiles) -> String {
    let tail = q.tail().map_or_else(
        || "null".to_owned(),
        |(p, v)| format!("{{\"p\":{p},\"value\":{}}}", num(v)),
    );
    format!(
        "{{\"n\":{},\"p10\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"tail\":{tail}}}",
        q.len(),
        num(q.at(0.1)),
        num(q.at(0.5)),
        num(q.at(0.9)),
        num(q.at(0.99))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_exp::tracefmt::{parse_json, Json};

    #[test]
    fn result_line_has_exactly_the_driver_keys() {
        let mut o = Outcome::new(Workload::PaperAnalytic, false);
        o.record(Ok(()));
        o.push(Metric::new("setup_s", "s", 0.0021));
        let line = parse_json(&o.result_line()).unwrap();
        let Json::Obj(members) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = line.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.0021));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn combined_runs_take_medians_and_record_their_half_range() {
        let run = |ms: f64, failed: u64| {
            let mut o = Outcome::new(Workload::TcadDevice, false);
            o.attempted = 10;
            o.failed = failed;
            o.push(Metric::new("latency_ms.mean", "ms", ms));
            o
        };
        let c = Outcome::combine(vec![run(100.0, 0), run(120.0, 1), run(110.0, 0)]);
        assert_eq!((c.attempted, c.failed), (30, 1));
        let m = &c.metrics[0];
        assert_eq!((m.value, m.samples), (110.0, 3));
        assert!((m.spread.unwrap() - 20.0 / 220.0).abs() < 1e-12);
        assert!(c.notes.iter().any(|(k, _)| k == "runs"));
        let single = Outcome::combine(vec![run(5.0, 0)]);
        assert_eq!(single.metrics[0].spread, None);
    }

    #[test]
    fn a_failure_or_a_non_finite_value_is_incorrect() {
        let mut o = Outcome::new(Workload::ServeMixed, false);
        o.record(Err("mismatch".to_owned()));
        assert!(!o.correct());
        let mut o = Outcome::new(Workload::ServeMixed, false);
        o.record(Ok(()));
        o.push(Metric::new("x", "ms", f64::NAN));
        assert!(!o.correct());
        assert!(parse_json(&o.artifact_json()).is_ok());
    }
}
