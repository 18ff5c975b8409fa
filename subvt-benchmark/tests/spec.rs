//! `BENCHMARK.json` names exactly the workloads and metrics the
//! benchmark reports.

use subvt_benchmark::compare::parse_spec;
use subvt_benchmark::traced::PER_LAYER;
use subvt_benchmark::workload::{Workload, END_TO_END};
use subvt_exp::tracefmt::{parse_json, Json};

fn spec_text() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to the package")
}

fn entries<'a>(spec: &'a Json, key: &str) -> &'a [Json] {
    spec.get(key).and_then(Json::as_arr).expect("a list")
}

fn field<'a>(e: &'a Json, key: &str) -> &'a str {
    e.get(key).and_then(Json::as_str).expect("a string field")
}

#[test]
fn workloads_and_metrics_match_the_code() {
    let spec = parse_json(&spec_text()).expect("valid JSON");
    let workloads: Vec<&str> = entries(&spec, "workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    let want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, want);

    let e2e: Vec<(&str, &str)> = entries(&spec, "end_to_end")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect();
    assert_eq!(e2e, END_TO_END);

    let layers: Vec<(&str, &str, bool)> = entries(&spec, "per_layer")
        .iter()
        .map(|m| {
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better") == "higher",
            )
        })
        .collect();
    assert_eq!(layers, PER_LAYER);
}

#[test]
fn the_gate_reads_the_bounds() {
    let bounds = parse_spec(&spec_text()).expect("a spec with end_to_end bounds");
    assert_eq!(bounds.len(), END_TO_END.len());
    assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    assert!(bounds
        .iter()
        .any(|b| b.name == "setup_s" && !b.higher_is_better));
}
