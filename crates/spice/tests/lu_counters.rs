//! Every Newton solve adds its LU factorizations to `spice.lu.factor` +
//! `spice.lu.resolve` exactly once, whichever way it ends: converged,
//! out of iterations, divergent, or on a singular matrix.
//!
//! The tracer is process-global, so this file holds a single test: no
//! other test's solves can land between its snapshots.

use subvt_engine::trace;
use subvt_physics::{DeviceKind, DeviceParams};
use subvt_spice::mna::{DcSolution, SpiceError};
use subvt_spice::netlist::Element;
use subvt_spice::transient::transient_from;
use subvt_spice::{Integrator, Netlist, TransientSpec, Waveform};

/// `spice.lu.factor + spice.lu.resolve` added while `run` ran.
fn factorizations<T>(run: impl FnOnce() -> T) -> (T, u64) {
    let total = || {
        let snap = trace::global().snapshot();
        ["spice.lu.factor", "spice.lu.resolve"]
            .iter()
            .map(|name| snap.counters.get(*name).copied().unwrap_or(0))
            .sum::<u64>()
    };
    let before = total();
    let out = run();
    (out, total() - before)
}

/// One transient step from all-zero unknowns: exactly one Newton solve.
fn one_newton(net: &Netlist) -> Result<usize, SpiceError> {
    let sources = net
        .elements()
        .iter()
        .filter(|e| matches!(e.element, Element::VSource { .. }))
        .count();
    let zeros = DcSolution {
        node_voltages: vec![0.0; net.node_count()],
        branch_currents: vec![0.0; sources],
        iterations: 0,
    };
    let spec = TransientSpec::with_steps(1.0e-12, 1, Integrator::BackwardEuler);
    transient_from(net, spec, &zeros).map(|res| res.newton_iterations[0])
}

#[test]
fn each_newton_solve_counts_its_factorizations_once() {
    trace::set_enabled(true);
    let nfet = DeviceParams::reference_90nm_nfet();

    // Converged: one factorization per iteration.
    let mut inverter = Netlist::new();
    let vdd = inverter.node("vdd");
    let vin = inverter.node("in");
    let out = inverter.node("out");
    inverter.vsource("VDD", vdd, Netlist::GROUND, Waveform::Dc(0.25));
    inverter.vsource("VIN", vin, Netlist::GROUND, Waveform::Dc(0.1));
    let pfet = DeviceParams {
        kind: DeviceKind::Pfet,
        ..nfet
    };
    inverter.mosfet("MP", pfet.mos_model(), 2.0, out, vin, vdd);
    inverter.mosfet("MN", nfet.mos_model(), 1.0, out, vin, Netlist::GROUND);
    let (iterations, n) = factorizations(|| one_newton(&inverter).expect("converges"));
    assert!(iterations > 1);
    assert_eq!(n, iterations as u64);

    // Out of iterations: a gate walked toward −1000 V by the 0.3 V step
    // clamp is still far short after the 200-iteration budget.
    let mut walk = Netlist::new();
    let d = walk.node("d");
    let g = walk.node("g");
    walk.vsource("VG", g, Netlist::GROUND, Waveform::Dc(-1000.0));
    walk.mosfet("MN", nfet.mos_model(), 1.0, d, g, Netlist::GROUND);
    match factorizations(|| one_newton(&walk)) {
        (Err(SpiceError::NoConvergence { iterations, .. }), n) => {
            assert_eq!(iterations, 200);
            assert_eq!(n, 200);
        }
        other => panic!("expected NoConvergence, got {other:?}"),
    }

    // Divergent: the guard stops the first step, after one factorization.
    let mut blowup = Netlist::new();
    let a = blowup.node("a");
    blowup.isource("I1", Netlist::GROUND, a, Waveform::Dc(f64::MAX));
    blowup.resistor("R1", a, Netlist::GROUND, 1_000.0);
    match factorizations(|| one_newton(&blowup)) {
        (Err(SpiceError::NoConvergence { iterations: 1, .. }), n) => assert_eq!(n, 1),
        other => panic!("expected NoConvergence after one step, got {other:?}"),
    }

    // Singular: the first factorization fails and nothing is counted.
    let mut looped = Netlist::new();
    let l = looped.node("looped");
    looped.vsource("V1", l, Netlist::GROUND, Waveform::Dc(1.0));
    looped.vsource("V2", l, Netlist::GROUND, Waveform::Dc(2.0));
    match factorizations(|| one_newton(&looped)) {
        (Err(SpiceError::SingularMatrix { .. }), n) => assert_eq!(n, 0),
        other => panic!("expected SingularMatrix, got {other:?}"),
    }
}
