//! Round-trips the engine's trace sinks through the `subvt_exp::tracefmt`
//! parser against the *live* global tracer: real experiments run on the
//! real pool, then both sink formats must re-parse and satisfy the
//! structural invariants (valid JSON, acyclic span tree, resolvable
//! parents, histogram bucket counts summing to the sample count).
//!
//! These tests share one process-global tracer and may interleave, so
//! assertions are monotone ("at least", "contains") rather than exact.

use subvt_engine::json::{parse_json, Json};
use subvt_engine::trace::TraceSnapshot;
use subvt_exp::tracefmt;
use subvt_exp::{report, Study};

fn global_jsonl_text() -> String {
    let mut buf = Vec::new();
    subvt_engine::trace::global()
        .write_jsonl(&mut buf)
        .expect("in-memory write");
    String::from_utf8(buf).expect("utf8")
}

fn global_jsonl() -> TraceSnapshot {
    tracefmt::parse_jsonl(&global_jsonl_text()).expect("jsonl parses")
}

#[test]
fn jsonl_sink_round_trips_with_valid_structure() {
    Study::default().run("table1").expect("table1 runs");
    Study::default().run("fig7").expect("fig7 runs");
    let text = global_jsonl_text();
    let trace = tracefmt::parse_jsonl(&text).expect("jsonl parses");
    let meta = parse_json(text.lines().last().expect("meta line")).expect("meta parses");
    assert_eq!(
        meta.get("v").and_then(Json::as_u64),
        Some(subvt_engine::trace::SCHEMA_VERSION)
    );
    tracefmt::validate(&trace).expect("invariants hold");
    assert!(
        trace.spans.iter().any(|s| s.name == "experiment.table1"),
        "experiment span missing: {:?}",
        trace.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
    );
}

#[test]
fn worker_lanes_are_small_stable_integers() {
    // Spans opened inside pool jobs must carry the worker's lane index
    // (1-based; 0 is reserved for non-pool threads), not a thread id.
    let pool = subvt_engine::global();
    pool.map((0..8u32).collect::<Vec<_>>(), |i| {
        let _span = subvt_engine::trace::span("it.lane_probe").attr("i", i);
        i
    });
    let trace = global_jsonl();
    let lanes: Vec<u32> = trace
        .spans
        .iter()
        .filter(|s| s.name == "it.lane_probe")
        .map(|s| s.worker)
        .collect();
    assert!(!lanes.is_empty());
    for lane in lanes {
        assert!(
            lane >= 1 && lane <= pool.workers() as u32,
            "lane {lane} outside 1..={}",
            pool.workers()
        );
    }
}

#[test]
fn cache_stats_flush_into_every_drained_trace() {
    // Satellite: `Cache::stats()` must reach the tracer automatically on
    // drain — no explicit flush call at any call site.
    let cache = subvt_engine::global_cache();
    let _: f64 = cache.get_or_compute("it.flush", 1, || 42.0);
    let _: f64 = cache.get_or_compute("it.flush", 1, || unreachable!("hit"));
    let trace = global_jsonl();
    assert!(*trace.counters.get("cache.it.flush.hit").unwrap_or(&0) >= 1);
    assert!(*trace.counters.get("cache.it.flush.miss").unwrap_or(&0) >= 1);
    let lookups = trace
        .hists
        .get("cache.it.flush.lookup_us")
        .expect("lookup latency histogram");
    assert!(lookups.count >= 2);
}

#[test]
fn chrome_sink_round_trips_with_required_fields() {
    Study::default().run("fig8").expect("fig8 runs");
    let mut buf = Vec::new();
    subvt_engine::trace::global()
        .write_chrome(&mut buf)
        .expect("in-memory write");
    // parse_chrome rejects any event missing pid/tid/ts/dur/name/ph.
    let events = tracefmt::parse_chrome(std::str::from_utf8(&buf).expect("utf8"))
        .expect("chrome trace parses with required fields everywhere");
    assert!(events
        .iter()
        .any(|e| e.ph == "M" && e.name == "thread_name"));
    let trace = tracefmt::trace_from_chrome(&events).expect("chrome events lift");
    tracefmt::validate(&trace).expect("invariants hold");
    assert!(trace.spans.iter().any(|s| s.name == "experiment.fig8"));
}

#[test]
fn trace_report_renders_the_global_trace() {
    Study::default().run("table1").expect("table1 runs");
    let trace = global_jsonl();
    let rendered = tracefmt::render_report(&trace);
    assert!(rendered.contains("experiment.table1"), "{rendered}");
    assert!(rendered.contains("counter"), "{rendered}");
}

#[test]
fn manifest_describes_the_run() {
    Study::default().run("fig7").expect("fig7 runs");
    let mut buf = Vec::new();
    report::write_manifest(&mut buf, &Study::default(), &[]).expect("in-memory write");
    let manifest = parse_json(std::str::from_utf8(&buf).expect("utf8").trim())
        .expect("manifest is one valid JSON object");
    assert_eq!(manifest.get("v").unwrap().as_u64(), Some(2));
    assert_eq!(
        manifest.get("backend").unwrap().as_str().map(str::to_owned),
        Some(Study::default().model().cache_id())
    );
    assert_eq!(
        manifest.get("jobs").unwrap().as_u64(),
        Some(subvt_engine::global().workers() as u64)
    );
    let experiments = manifest.get("experiments").unwrap().as_arr().unwrap();
    assert!(experiments
        .iter()
        .any(|e| e.get("id").unwrap().as_str() == Some("fig7")));
    assert!(manifest.get("cache").unwrap().get("hits").is_some());
    assert!(manifest.get("solvers").unwrap().get("gummel").is_some());
}

/// `Study::run_ids` designs both flows before it fans the experiments
/// out: on a two-worker `repro --csv all` the flows overlap, one per
/// worker, outside every `experiment.*` span, and each is computed once.
#[test]
fn design_flows_overlap_before_the_experiments_fan_out() {
    let path =
        std::env::temp_dir().join(format!("subvt-design-overlap-{}.jsonl", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--csv", "--jobs", "2", "--trace"])
        .arg(&path)
        .arg("all")
        .output()
        .expect("repro spawns");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("trace written");
    std::fs::remove_file(&path).ok();
    let trace = tracefmt::parse_jsonl(&text).expect("jsonl parses");
    let span = |name: &str| {
        let mut found = trace.spans.iter().filter(|s| s.name == name);
        let span = found.next().unwrap_or_else(|| panic!("{name} missing"));
        assert!(found.next().is_none(), "{name} recorded twice");
        span
    };
    let (sup, sub) = (span("design.supervth"), span("design.subvth"));
    assert!(
        sup.start_us < sub.start_us + sub.dur_us && sub.start_us < sup.start_us + sup.dur_us,
        "the flows ran one after the other: {sup:?} {sub:?}"
    );
    for flow in [sup, sub] {
        let mut parent = flow.parent;
        while let Some(id) = parent {
            let p = trace
                .spans
                .iter()
                .find(|s| s.id == id)
                .expect("parent resolves");
            assert!(
                !p.name.starts_with("experiment."),
                "{} ran inside {}",
                flow.name,
                p.name
            );
            parent = p.parent;
        }
    }
    assert_eq!(trace.counters.get("cache.design.miss"), Some(&2));
}
