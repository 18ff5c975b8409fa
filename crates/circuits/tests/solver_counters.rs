//! The SPICE solver counts its own work: a measurement adds exactly the
//! solver counts of the solves it ran, whichever caller asked, and a
//! memoized rerun adds none.
//!
//! The tracer is process-global, so this file holds a single test: no
//! other test's solves can land between its snapshots.

use subvt_circuits::delay::spice_fo1_delay;
use subvt_circuits::gates::GateKind;
use subvt_circuits::topology::{cached_gate_leakage, cached_ring_oscillation};
use subvt_circuits::CmosPair;
use subvt_engine::trace::{self, TraceSnapshot};
use subvt_physics::device::DeviceParams;
use subvt_units::Volts;

fn counter(snap: &TraceSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

fn samples(snap: &TraceSnapshot, name: &str) -> u64 {
    snap.hists.get(name).map_or(0, |h| h.count)
}

/// Counter and histogram-sample deltas of `run` on the global tracer.
fn deltas(run: impl FnOnce()) -> impl Fn(&str) -> (u64, u64) {
    let before = trace::global().snapshot();
    run();
    let after = trace::global().snapshot();
    move |name| {
        (
            counter(&after, name) - counter(&before, name),
            samples(&after, name) - samples(&before, name),
        )
    }
}

#[test]
fn solver_counts_each_solve_once_and_cache_hits_count_nothing() {
    trace::set_enabled(true);
    let pair = CmosPair::balanced(DeviceParams::reference_90nm_nfet());
    let v = Volts::new(0.25);

    // The uncached FO1 path: one transient of 600 steps from one cold
    // operating point.
    let fo1 = deltas(|| {
        spice_fo1_delay(&pair, v, 600).expect("FO1 delay");
    });
    assert_eq!(fo1("spice.tran.runs").0, 1);
    assert_eq!(fo1("spice.tran.steps").1, 1);
    assert_eq!(fo1("spice.dc.solves").0, 1);
    assert_eq!(
        fo1("spice.newton.iterations").1,
        600 + 1,
        "one Newton sample per step plus the initial operating point"
    );

    // A cold ring starts from its own initial state (no DC solve); the
    // warm rerun is a cache hit and runs nothing.
    let cold = deltas(|| {
        cached_ring_oscillation(&pair, v, 5, 1500).expect("ring oscillates");
    });
    assert_eq!(cold("spice.tran.runs").0, 1);
    assert_eq!(cold("spice.tran.steps").1, 1);
    assert_eq!(cold("spice.newton.iterations").1, 1500);
    let warm = deltas(|| {
        cached_ring_oscillation(&pair, v, 5, 1500).expect("ring oscillates");
    });
    assert_eq!(warm("spice.tran.runs").0, 0);
    assert_eq!(warm("spice.newton.iterations").1, 0);

    // A DC record: one operating point, one Newton sample.
    let leak = deltas(|| {
        cached_gate_leakage(&pair, GateKind::Nand2, v, (false, true)).expect("leakage");
    });
    assert_eq!(leak("spice.dc.solves").0, 1);
    assert_eq!(leak("spice.newton.iterations").1, 1);

    // Counter invariants over everything this process solved.
    let snap = trace::global().snapshot();
    assert!(
        counter(&snap, "spice.lu.resolve") >= counter(&snap, "spice.lu.factor"),
        "pivot reuse must dominate full factorizations: {:?}",
        snap.counters
    );
    assert!(
        counter(&snap, "spice.dc.solves") >= counter(&snap, "spice.newton.warm_start"),
        "every warm start is a DC solve: {:?}",
        snap.counters
    );
}
