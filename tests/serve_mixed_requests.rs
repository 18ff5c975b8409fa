//! Every request of the benchmark's `serve-mixed` traffic parses under
//! the daemon's typed field reader.
//!
//! The generator is compiled here from the benchmark package's own
//! source, so this is the check of `subvt-benchmark/tests/traffic.rs`
//! (`every_request_parses_and_spice_requests_select_spice`) run inside
//! the workspace test suite. That package test still matches the old
//! per-method `Query` variants and does not build; once it is mended to
//! match `Query::Circuit`, this file is redundant and goes.

#[allow(dead_code)]
#[path = "../subvt-benchmark/src/workload.rs"]
mod workload;

#[allow(dead_code)]
#[path = "../subvt-benchmark/src/traffic.rs"]
mod traffic;

use subvt_circuits::CircuitBackendKind;
use subvt_engine::json::parse_json;
use subvt_serve::Query;
use traffic::{Traffic, HOT};

const N: usize = 20_000;

#[test]
fn every_serve_mixed_request_parses_and_spice_requests_select_spice() {
    let mut spice = 0;
    for (method, params) in HOT {
        let p = parse_json(params).expect("hot params are JSON");
        Query::from_request(method, &p).expect("hot requests parse");
    }
    for r in &Traffic::new(3).take(N) {
        let p = parse_json(&r.params).expect("params are JSON");
        let q = Query::from_request(r.method, &p)
            .unwrap_or_else(|e| panic!("{} {} rejected: {e:?}", r.method, r.params));
        let circuit = match q {
            Query::Circuit { circuit, .. } => Some(circuit),
            _ => None,
        };
        if r.params.contains(r#""circuit_backend":"spice""#) {
            assert_eq!(circuit, Some(CircuitBackendKind::Spice), "{}", r.params);
            spice += 1;
        }
    }
    assert!(spice > N / 20, "only {spice} spice requests");
}
