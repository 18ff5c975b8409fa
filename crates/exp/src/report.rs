//! Per-run manifest (`repro --manifest <path>`).
//!
//! The manifest is one JSON object summarising a `repro` invocation for
//! CI artefacts and regression tracking: which backend produced the
//! numbers, how parallel the run was, how long each experiment took,
//! how the cache behaved per namespace, and how hard the solvers had to
//! work (Gummel/Poisson iteration quantiles). Schema:
//!
//! ```json
//! {
//!   "v": 2,
//!   "backend": "tcad.coarse.standard",
//!   "circuit_backend": "spice",
//!   "jobs": 8,
//!   "wall_us": 1234567,
//!   "experiments": [{"id": "fig2", "runs": 1, "dur_us": 98765}, ...],
//!   "cache": {"hits": 40, "misses": 2,
//!             "namespaces": [{"ns": "design", "hits": 40, "misses": 2}]},
//!   "counters": {"tcad.gummel.bias_points": 123, ...},
//!   "gauges": {...},
//!   "histograms": [{"name": "tcad.gummel.iterations", "count": 123,
//!                   "sum": 1.5e3, "min": 2, "max": 31,
//!                   "p50": 10, "p95": 20}, ...],
//!   "solvers": {
//!     "poisson": {"solves": 512, "diverged": 0},
//!     "gummel":  {"bias_points": 123, "stalls": 0, "poisson_failures": 0},
//!     "spice":   {"dc_solves": 322, "tran_runs": 8}
//!   },
//!   "failures": [{"id": "fig4", "message": "..."}],
//!   "recoveries": [{"site": "tcad.gummel", "step": "retry",
//!                   "detail": "...", "recovered": true}]
//! }
//! ```
//!
//! `min`/`max`/quantiles are `null` for empty histograms; `experiments`
//! aggregates `experiment.<id>` spans by id (an id re-run under
//! `repro everything` sums its durations and bumps `runs`). Schema v2
//! added the `failures` block (experiments that did not produce a table,
//! populated by `repro --keep-going`) and the `recoveries` block (every
//! solver recovery-ladder rung taken during the run).

use std::io::{self, Write};

use subvt_engine::cache::CacheStats;
use subvt_engine::json::{json_f64, json_str};
use subvt_engine::recovery::RecoveryRecord;
use subvt_engine::trace::{self, TraceSnapshot};

use crate::context::Study;
use crate::runner::FigureFailure;

/// Schema version stamped into bench artifacts (`BENCH_serve.json`,
/// `BENCH_spice.json`).
pub const BENCH_SCHEMA: u64 = 1;

/// `git rev-parse --short=12 HEAD`, or `"unknown"` outside a checkout
/// (artifacts must still be writable from an exported tarball).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The provenance members every bench artifact carries, rendered as a
/// JSON fragment (no braces, no trailing comma):
/// `"schema":1,"rev":"…","generated_utc":"…"`.
pub fn provenance_fragment() -> String {
    format!(
        "\"schema\":{BENCH_SCHEMA},\"rev\":\"{}\",\"generated_utc\":\"{}\"",
        git_rev(),
        subvt_engine::clock::iso8601_utc(subvt_engine::clock::unix_now()),
    )
}

/// Renders the manifest JSON from an explicit snapshot + cache stats
/// (the testable core of [`write_manifest`]).
pub fn render_manifest(
    snap: &TraceSnapshot,
    cache: &CacheStats,
    backend: &str,
    circuit_backend: &str,
    jobs: usize,
    failures: &[FigureFailure],
    recoveries: &[RecoveryRecord],
) -> String {
    let mut out = String::new();
    out.push_str("{\"v\":2,");
    out.push_str(&format!("\"backend\":{},", json_str(backend)));
    out.push_str(&format!(
        "\"circuit_backend\":{},",
        json_str(circuit_backend)
    ));
    out.push_str(&format!("\"jobs\":{jobs},"));
    out.push_str(&format!("\"wall_us\":{},", snap.wall_us));

    // Per-experiment durations from `experiment.<id>` spans, aggregated
    // by id in first-seen (i.e. completion) order.
    let mut experiments: Vec<(String, u64, u64)> = Vec::new();
    for s in &snap.spans {
        if let Some(id) = s.name.strip_prefix("experiment.") {
            match experiments.iter_mut().find(|(e, _, _)| e == id) {
                Some((_, runs, dur)) => {
                    *runs += 1;
                    *dur += s.dur_us;
                }
                None => experiments.push((id.to_owned(), 1, s.dur_us)),
            }
        }
    }
    out.push_str("\"experiments\":[");
    for (i, (id, runs, dur)) in experiments.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"runs\":{runs},\"dur_us\":{dur}}}",
            json_str(id)
        ));
    }
    out.push_str("],");

    out.push_str(&format!(
        "\"cache\":{{\"hits\":{},\"misses\":{},\"namespaces\":[",
        cache.hits, cache.misses
    ));
    for (i, (ns, hits, misses)) in cache.by_namespace.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"ns\":{},\"hits\":{hits},\"misses\":{misses}}}",
            json_str(ns)
        ));
    }
    out.push_str("]},");

    out.push_str("\"counters\":{");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{value}", json_str(name)));
    }
    out.push_str("},");

    out.push_str("\"gauges\":{");
    for (i, (name, value)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", json_str(name), json_f64(*value)));
    }
    out.push_str("},");

    out.push_str("\"histograms\":[");
    for (i, (name, h)) in snap.hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{}}}",
            json_str(name),
            h.count,
            json_f64(h.sum),
            json_f64(h.min),
            json_f64(h.max),
            json_f64(h.quantile(0.5)),
            json_f64(h.quantile(0.95)),
        ));
    }
    out.push_str("],");

    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    out.push_str(&format!(
        "\"solvers\":{{\"poisson\":{{\"solves\":{},\"diverged\":{}}},\
         \"gummel\":{{\"bias_points\":{},\"stalls\":{},\"poisson_failures\":{}}},\
         \"spice\":{{\"dc_solves\":{},\"tran_runs\":{}}}}}",
        counter("tcad.poisson.solves"),
        counter("tcad.poisson.diverged"),
        counter("tcad.gummel.bias_points"),
        counter("tcad.gummel.stall"),
        counter("tcad.gummel.poisson_failures"),
        counter("spice.dc.solves"),
        counter("spice.tran.runs"),
    ));

    out.push_str(",\"failures\":[");
    for (i, f) in failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"message\":{}}}",
            json_str(&f.id),
            json_str(&f.message)
        ));
    }
    out.push_str("],");

    out.push_str("\"recoveries\":[");
    for (i, r) in recoveries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"site\":{},\"step\":{},\"detail\":{},\"recovered\":{}}}",
            json_str(&r.site),
            json_str(r.step.as_str()),
            json_str(&r.detail),
            r.recovered
        ));
    }
    out.push(']');

    out.push('}');
    out
}

/// Millisecond-scale bucket ladder of `montecarlo.sample_ms`: the
/// default trace buckets start at 1.0 and would flatten the
/// sub-millisecond solve latencies into one bucket.
const SAMPLE_MS_BUCKETS: [f64; 16] = [
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
];

/// The quantiles of `BENCH_spice.json`'s `latency_ms` block, each
/// published as the gauge `montecarlo.sample_ms.<label>`.
const SAMPLE_QUANTILES: [(&str, f64); 3] = [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)];

/// Records one Monte-Carlo run's per-sample solve times, in ms: the
/// `montecarlo.sample_ms` histogram (count, min, max, mean) and the
/// exact nearest-rank p50/p90/p99 of the samples as
/// `montecarlo.sample_ms.{p50,p90,p99}` gauges, which
/// [`render_spice_bench`] reads. The histogram's own quantiles are
/// bucket bounds, a factor of 2–2.5 apart.
pub fn record_sample_ms(tracer: &trace::Tracer, samples_ms: &[f64]) {
    for &ms in samples_ms {
        tracer.observe_with("montecarlo.sample_ms", ms, &SAMPLE_MS_BUCKETS);
    }
    let mut sorted = samples_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return;
    }
    for (label, q) in SAMPLE_QUANTILES {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        tracer.gauge(&format!("montecarlo.sample_ms.{label}"), sorted[rank - 1]);
    }
}

/// Renders the `BENCH_spice.json` artifact from a trace snapshot of a
/// spice-backed `montecarlo` run: per-sample solve latencies (the
/// `montecarlo.sample_ms` histogram and the exact quantile gauges of
/// [`record_sample_ms`]), the spice-over-analytic wall ratio, failed
/// samples, and the factor-reuse Newton counters. The shape mirrors
/// `BENCH_serve.json` (same provenance header and `latency_ms` block)
/// so `subvt-bench-diff` gates both trajectories.
///
/// # Errors
///
/// Returns a message when the snapshot holds no spice Monte-Carlo
/// samples — the run was analytic-backed or did not include the
/// `montecarlo` experiment.
pub fn render_spice_bench(snap: &TraceSnapshot) -> Result<String, String> {
    let hist = snap
        .hists
        .get("montecarlo.sample_ms")
        .filter(|h| h.count > 0)
        .ok_or(
            "no spice Monte-Carlo samples traced; \
             run `repro montecarlo --circuit-backend spice --bench <path>`",
        )?;
    let gauge = |name: &str| snap.gauges.get(name).copied().unwrap_or(f64::NAN);
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let spice_ms = gauge("montecarlo.spice_ms");
    let elapsed_s = spice_ms / 1e3;
    let throughput = hist.count as f64 / elapsed_s.max(f64::MIN_POSITIVE);
    Ok(format!(
        "{{\"suite\":\"spice\",{},\"requests\":{},\"errors\":{},\
         \"elapsed_s\":{},\"throughput_rps\":{},\
         \"latency_ms\":{{\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{},\"mean\":{}}},\
         \"analytic_ms\":{},\"spice_ms\":{},\"spice_over_analytic\":{},\
         \"counters\":{{\"spice.lu.factor\":{},\"spice.lu.resolve\":{},\
         \"spice.newton.warm_start\":{},\"spice.dc.solves\":{}}}}}",
        provenance_fragment(),
        hist.count,
        counter("montecarlo.failures"),
        json_f64(elapsed_s),
        json_f64(throughput),
        json_f64(hist.min),
        json_f64(gauge("montecarlo.sample_ms.p50")),
        json_f64(gauge("montecarlo.sample_ms.p90")),
        json_f64(gauge("montecarlo.sample_ms.p99")),
        json_f64(hist.max),
        json_f64(hist.mean()),
        json_f64(gauge("montecarlo.analytic_ms")),
        json_f64(spice_ms),
        json_f64(gauge("montecarlo.spice_over_analytic")),
        counter("spice.lu.factor"),
        counter("spice.lu.resolve"),
        counter("spice.newton.warm_start"),
        counter("spice.dc.solves"),
    ))
}

/// Drains the global tracer (running cache-stats flush hooks) and the
/// global recovery log, and renders the manifest for the current
/// process: global cache stats, the study's backend cache ids, the
/// engine pool width, plus the given figure failures.
fn drain_manifest(study: &Study, failures: &[FigureFailure]) -> String {
    let snap = trace::global().flushed_snapshot();
    let stats = subvt_engine::global_cache().stats();
    let recoveries = subvt_engine::recovery::drain();
    render_manifest(
        &snap,
        &stats,
        &study.model().cache_id(),
        &study.circuit.instance().cache_id(),
        subvt_engine::global().workers(),
        failures,
        &recoveries,
    )
}

/// Writes the manifest of a run under `study` (see [`render_manifest`]).
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_manifest(
    w: &mut impl Write,
    study: &Study,
    failures: &[FigureFailure],
) -> io::Result<()> {
    writeln!(w, "{}", drain_manifest(study, failures))
}

/// [`write_manifest`] for a fleet parent: the parent's own v2 manifest
/// extended with a `"fleet"` block (`fleet_fragment`, an
/// already-rendered JSON value describing shards/restarts/reclaims)
/// and a `"workers"` array holding each worker's manifest verbatim —
/// the merge keeps every per-worker counter and recovery record
/// inspectable instead of flattening them away. `study` is the one the
/// parent forwarded to its workers.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_fleet_manifest(
    w: &mut impl Write,
    study: &Study,
    failures: &[FigureFailure],
    fleet_fragment: &str,
    worker_manifests: &[String],
) -> io::Result<()> {
    let manifest = drain_manifest(study, failures);
    // render_manifest returns one closed JSON object; splice the fleet
    // blocks in before the final brace.
    let base = manifest
        .strip_suffix('}')
        .expect("render_manifest yields a closed object");
    let workers: Vec<&str> = worker_manifests.iter().map(|m| m.trim()).collect();
    writeln!(
        w,
        "{base},\"fleet\":{fleet_fragment},\"workers\":[{}]}}",
        workers.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_engine::json::parse_json;

    fn sample_snapshot() -> TraceSnapshot {
        let tracer = trace::Tracer::new();
        {
            let _e = tracer.span("experiment.fig2");
            drop(tracer.span("tcad.id_vg"));
        }
        drop(tracer.span("experiment.fig2"));
        tracer.add("tcad.gummel.bias_points", 12);
        tracer.observe("tcad.gummel.iterations", 9.0);
        tracer.gauge("design.ioff_target_log10", -9.0);
        tracer.snapshot()
    }

    fn sample_stats() -> CacheStats {
        CacheStats {
            hits: 5,
            misses: 2,
            by_namespace: vec![("design".into(), 5, 2)],
        }
    }

    #[test]
    fn manifest_is_valid_json_with_expected_fields() {
        let text = render_manifest(
            &sample_snapshot(),
            &sample_stats(),
            "tcad.coarse.standard",
            "spice",
            4,
            &[],
            &[],
        );
        let v = parse_json(&text).expect("manifest parses");
        assert_eq!(v.get("v").unwrap().as_u64(), Some(2));
        assert_eq!(
            v.get("backend").unwrap().as_str(),
            Some("tcad.coarse.standard")
        );
        assert_eq!(v.get("circuit_backend").unwrap().as_str(), Some("spice"));
        assert_eq!(v.get("jobs").unwrap().as_u64(), Some(4));
        let cache = v.get("cache").unwrap();
        assert_eq!(cache.get("hits").unwrap().as_u64(), Some(5));
        let ns = cache.get("namespaces").unwrap().as_arr().unwrap();
        assert_eq!(ns[0].get("ns").unwrap().as_str(), Some("design"));
        let solvers = v.get("solvers").unwrap();
        assert_eq!(
            solvers
                .get("gummel")
                .unwrap()
                .get("bias_points")
                .unwrap()
                .as_u64(),
            Some(12)
        );
    }

    #[test]
    fn experiments_aggregate_repeat_runs() {
        let text = render_manifest(
            &sample_snapshot(),
            &sample_stats(),
            "analytic",
            "analytic",
            1,
            &[],
            &[],
        );
        let v = parse_json(&text).unwrap();
        let exps = v.get("experiments").unwrap().as_arr().unwrap();
        assert_eq!(exps.len(), 1);
        assert_eq!(exps[0].get("id").unwrap().as_str(), Some("fig2"));
        assert_eq!(exps[0].get("runs").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn histogram_quantiles_serialise() {
        let text = render_manifest(
            &sample_snapshot(),
            &sample_stats(),
            "analytic",
            "analytic",
            1,
            &[],
            &[],
        );
        let v = parse_json(&text).unwrap();
        let hists = v.get("histograms").unwrap().as_arr().unwrap();
        let gummel = hists
            .iter()
            .find(|h| h.get("name").unwrap().as_str() == Some("tcad.gummel.iterations"))
            .unwrap();
        assert_eq!(gummel.get("count").unwrap().as_u64(), Some(1));
        assert!(gummel.get("p50").unwrap().as_f64().unwrap() >= 9.0);
    }

    #[test]
    fn spice_bench_artifact_renders_and_requires_samples() {
        let tracer = trace::Tracer::new();
        assert!(render_spice_bench(&tracer.snapshot())
            .unwrap_err()
            .contains("no spice Monte-Carlo samples"));
        record_sample_ms(&tracer, &[0.004, 0.008, 0.015, 0.04, 0.4]);
        tracer.gauge("montecarlo.spice_ms", 500.0);
        tracer.gauge("montecarlo.analytic_ms", 100.0);
        tracer.gauge("montecarlo.spice_over_analytic", 5.0);
        tracer.add("montecarlo.failures", 2);
        tracer.add("spice.lu.factor", 7);
        tracer.add("spice.lu.resolve", 93);
        tracer.add("spice.newton.warm_start", 50);
        let text = render_spice_bench(&tracer.snapshot()).unwrap();
        let v = parse_json(&text).expect("artifact parses");
        assert_eq!(v.get("suite").unwrap().as_str(), Some("spice"));
        assert_eq!(v.get("schema").unwrap().as_u64(), Some(BENCH_SCHEMA));
        assert_eq!(v.get("requests").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("errors").unwrap().as_u64(), Some(2));
        let lat = v.get("latency_ms").unwrap();
        for key in ["min", "p50", "p90", "p99", "max", "mean"] {
            assert!(
                lat.get(key).unwrap().as_f64().unwrap().is_finite(),
                "latency_ms.{key}"
            );
        }
        assert_eq!(v.get("spice_over_analytic").unwrap().as_f64(), Some(5.0));
        let counters = v.get("counters").unwrap();
        assert_eq!(counters.get("spice.lu.resolve").unwrap().as_u64(), Some(93));
    }

    #[test]
    fn spice_bench_quantiles_are_exact_nearest_rank_samples() {
        let tracer = trace::Tracer::new();
        // 200 samples 0.01, 0.02, …, 2.00 ms, recorded out of order: the
        // nearest-rank p50, p90 and p99 are the 100th, 180th and 198th
        // smallest. Bucket bounds would read 1, 2 and 2 ms.
        let mut samples: Vec<f64> = (1..=200).map(|k| k as f64 / 100.0).collect();
        samples.reverse();
        samples.swap(3, 150);
        record_sample_ms(&tracer, &samples);
        let text = render_spice_bench(&tracer.snapshot()).unwrap();
        let v = parse_json(&text).expect("artifact parses");
        let lat = v.get("latency_ms").unwrap();
        let ms = |key: &str| lat.get(key).unwrap().as_f64().unwrap();
        assert_eq!(ms("min"), 0.01);
        assert_eq!(ms("p50"), 1.0);
        assert_eq!(ms("p90"), 1.8);
        assert_eq!(ms("p99"), 1.98);
        assert_eq!(ms("max"), 2.0);
        assert_eq!(v.get("requests").unwrap().as_u64(), Some(200));

        // One sample is every quantile.
        let one = trace::Tracer::new();
        record_sample_ms(&one, &[0.37]);
        let v = parse_json(&render_spice_bench(&one.snapshot()).unwrap()).unwrap();
        let lat = v.get("latency_ms").unwrap();
        for key in ["p50", "p90", "p99"] {
            assert_eq!(lat.get(key).unwrap().as_f64(), Some(0.37), "{key}");
        }
    }

    #[test]
    fn failures_and_recoveries_round_trip() {
        use subvt_engine::recovery::RecoveryStep;
        let failures = vec![FigureFailure {
            id: "fig4".into(),
            message: "injected \"panic\"".into(),
        }];
        let recoveries = vec![RecoveryRecord {
            site: "tcad.gummel".into(),
            step: RecoveryStep::DampingIncrease,
            detail: "relax 0.5".into(),
            recovered: true,
        }];
        let text = render_manifest(
            &sample_snapshot(),
            &sample_stats(),
            "analytic",
            "analytic",
            1,
            &failures,
            &recoveries,
        );
        let v = parse_json(&text).unwrap();
        let fails = v.get("failures").unwrap().as_arr().unwrap();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].get("id").unwrap().as_str(), Some("fig4"));
        assert_eq!(
            fails[0].get("message").unwrap().as_str(),
            Some("injected \"panic\"")
        );
        let recs = v.get("recoveries").unwrap().as_arr().unwrap();
        assert_eq!(recs[0].get("site").unwrap().as_str(), Some("tcad.gummel"));
        assert_eq!(
            recs[0].get("step").unwrap().as_str(),
            Some("damping_increase")
        );
        assert_eq!(recs[0].get("recovered").unwrap().as_bool(), Some(true));
    }
}
