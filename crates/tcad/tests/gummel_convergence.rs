//! The on-state corner of the reference NFET converges for real: the
//! Gummel step to V_g = V_d = 1.2 V ends below a 10 nV potential update
//! within 40 iterations.
//!
//! The tracer is process-global, so this file holds a single test: no
//! other test's solves can land between its two snapshots.

use subvt_engine::trace::{self, TraceSnapshot};
use subvt_physics::device::DeviceParams;
use subvt_tcad::device::{MeshDensity, Mosfet2d};
use subvt_tcad::gummel::DeviceSimulator;

/// `(count, sum)` of a histogram, zero when it was never observed.
fn hist(snap: &TraceSnapshot, name: &str) -> (u64, f64) {
    snap.hists.get(name).map_or((0, 0.0), |h| (h.count, h.sum))
}

#[test]
fn on_state_bias_converges_to_1e_8_within_40_iterations() {
    trace::set_enabled(true);
    let dev = Mosfet2d::build(&DeviceParams::reference_90nm_nfet(), MeshDensity::Coarse);
    let mut sim = DeviceSimulator::new(dev).expect("equilibrium");
    sim.set_bias(1.1, 1.2).expect("ramp to V_g = 1.1 V");
    let before = trace::global().flushed_metrics();
    // One 100 mV ramp step, so exactly one Gummel bias point.
    sim.set_bias(1.2, 1.2).expect("V_g = V_d = 1.2 V");
    let after = trace::global().flushed_metrics();

    let delta = |name: &str| {
        let (c0, s0) = hist(&before, name);
        let (c1, s1) = hist(&after, name);
        (c1 - c0, s1 - s0)
    };
    let (points, iterations) = delta("tcad.gummel.iterations");
    let (_, residual_log10) = delta("tcad.gummel.residual_log10");
    assert_eq!(points, 1, "one bias point, no recovery rung");
    assert!(
        iterations <= 40.0,
        "{iterations} Gummel iterations at V_g = V_d = 1.2 V"
    );
    assert!(
        residual_log10 < -8.0,
        "final potential update 1e{residual_log10:.2} V is not below 1e-8 V"
    );
}
