//! The TCAD solver's counters keep their invariants over one cold
//! coarse characterization of the reference NFET: every Gummel bias
//! point runs at least one Poisson solve, each Poisson solve inside the
//! Gummel loop stops after about one Newton step, the continuation
//! predictor keeps the two sweeps within 470 Gummel iterations, the
//! chord steps leave at most two Poisson factorizations per bias point,
//! and every lookup of the extraction cache is counted as exactly one
//! hit or miss.
//!
//! The tracer and the cache are process-global, so this file holds a
//! single test: no other test's solves can land in its trace.

use subvt_engine::trace::{self, TraceSnapshot};
use subvt_physics::device::DeviceParams;
use subvt_tcad::device::MeshDensity;
use subvt_tcad::extract::sweep_and_extract;

fn counter(snap: &TraceSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

#[test]
fn cold_characterization_keeps_the_solver_counter_invariants() {
    trace::set_enabled(true);
    let params = DeviceParams::reference_90nm_nfet();
    let cold = sweep_and_extract(&params, MeshDensity::Coarse).expect("cold sweep");
    // The warm rerun is a cache hit and solves nothing.
    let warm = sweep_and_extract(&params, MeshDensity::Coarse).expect("warm sweep");
    assert_eq!(cold, warm);
    // The drain runs the flush hook that publishes the cache counters.
    let snap = trace::global().flushed_metrics();

    let bias_points = counter(&snap, "tcad.gummel.bias_points");
    let solves = counter(&snap, "tcad.poisson.solves");
    assert_eq!(bias_points, 63, "two sweeps of the reference device");
    assert!(
        solves >= bias_points,
        "{solves} Poisson solves for {bias_points} bias points"
    );

    // 536 without the continuation predictor, 439 with it, 454 with the
    // chord Poisson steps.
    let gummel = &snap.hists["tcad.gummel.iterations"];
    assert_eq!(gummel.count, bias_points);
    assert!(
        gummel.sum <= 470.0,
        "{} Gummel iterations over the two sweeps",
        gummel.sum
    );

    let newton = &snap.hists["tcad.poisson.iterations"];
    assert_eq!(newton.count, solves);
    let mean = newton.sum / newton.count as f64;
    assert!(
        mean <= 1.5,
        "{mean:.2} Newton steps per Poisson solve: the Gummel loop's inner solve must stay inexact"
    );

    // 474 factorizations when every Newton step factored, 95 with the
    // chord steps (18 of them in the two equilibrium solves).
    let (factor, resolve) = (
        counter(&snap, "tcad.poisson.factor"),
        counter(&snap, "tcad.poisson.resolve"),
    );
    assert!(
        factor <= 2 * bias_points,
        "{factor} Poisson factorizations for {bias_points} bias points"
    );
    assert!(resolve > 0, "no Poisson chord step reused a factorization");

    let (hits, misses) = (
        counter(&snap, "cache.tcad.extract.hit"),
        counter(&snap, "cache.tcad.extract.miss"),
    );
    let lookups = snap.hists["cache.tcad.extract.lookup_us"].count;
    assert_eq!((hits, misses), (1, 1));
    assert_eq!(
        hits + misses,
        lookups,
        "cache.tcad.extract: hit + miss != lookups"
    );
}
