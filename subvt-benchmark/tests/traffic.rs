//! The seeded serve mix: deterministic, seed-sensitive, and made only of
//! requests the daemon parses the way the benchmark intends.

use std::collections::HashSet;

use subvt_benchmark::traffic::{Kind, Request, Traffic, HOT, HOT_SHARE};
use subvt_circuits::CircuitBackendKind;
use subvt_exp::tracefmt::parse_json;
use subvt_serve::Query;

const N: usize = 20_000;

fn hot_share(reqs: &[Request]) -> f64 {
    reqs.iter()
        .filter(|r| matches!(r.kind, Kind::Hot(_)))
        .count() as f64
        / reqs.len() as f64
}

fn fresh_keys(reqs: &[Request]) -> HashSet<String> {
    reqs.iter()
        .filter(|r| r.kind == Kind::Fresh)
        .map(|r| format!("{}{}", r.method, r.params))
        .collect()
}

#[test]
fn the_same_seed_gives_the_same_requests() {
    assert_eq!(Traffic::new(7).take(N), Traffic::new(7).take(N));
}

#[test]
fn another_seed_gives_other_fresh_keys_with_the_same_split() {
    let a = Traffic::new(7).take(N);
    let b = Traffic::new(8).take(N);
    let (ka, kb) = (fresh_keys(&a), fresh_keys(&b));
    assert!(
        ka.intersection(&kb).count() * 100 < ka.len(),
        "fresh keys should barely overlap across seeds"
    );
    let (sa, sb) = (hot_share(&a), hot_share(&b));
    assert!((sa - sb).abs() <= 0.02, "hot shares {sa} vs {sb}");
    // Dups are extra requests on top of the 80/20 draw.
    assert!((sa - HOT_SHARE).abs() < 0.03, "hot share {sa}");
}

#[test]
fn fresh_keys_never_repeat_except_as_dups() {
    let reqs = Traffic::new(11).take(N);
    let fresh: Vec<_> = reqs.iter().filter(|r| r.kind == Kind::Fresh).collect();
    assert_eq!(fresh.len(), fresh_keys(&reqs).len());
    let dups = reqs.iter().filter(|r| r.kind == Kind::Dup).count() as f64;
    let share = dups / reqs.len() as f64;
    assert!((0.01..0.03).contains(&share), "dup share {share}");
}

#[test]
fn every_request_parses_and_spice_requests_select_spice() {
    let mut spice = 0;
    let reqs = Traffic::new(3).take(N);
    for (method, params) in HOT {
        let p = parse_json(params).expect("hot params are JSON");
        Query::from_request(method, &p).expect("hot requests parse");
    }
    for r in &reqs {
        let p = parse_json(&r.params).expect("params are JSON");
        let q = Query::from_request(r.method, &p)
            .unwrap_or_else(|e| panic!("{} {} rejected: {e:?}", r.method, r.params));
        let circuit = match q {
            Query::Fo1 { circuit, .. }
            | Query::Snm { circuit, .. }
            | Query::ChainEnergy { circuit, .. }
            | Query::Vtc { circuit, .. } => Some(circuit),
            _ => None,
        };
        if r.params.contains(r#""circuit_backend":"spice""#) {
            assert_eq!(circuit, Some(CircuitBackendKind::Spice), "{}", r.params);
            spice += 1;
        }
    }
    assert!(spice > N / 20, "only {spice} spice requests");
}
