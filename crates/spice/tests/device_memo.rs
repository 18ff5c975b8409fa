//! A transient evaluates each MOSFET once per distinct bias: every time
//! step starts where the last one was accepted, where every device was
//! already evaluated. The run reports its work once, under one tracer
//! lock, however many steps it takes.
//!
//! The tracer is process-global, so this file holds a single test: no
//! other test's solves can land between its snapshots.

use subvt_engine::trace;
use subvt_physics::{DeviceKind, DeviceParams};
use subvt_spice::mna::dc_operating_point;
use subvt_spice::transient::transient_from;
use subvt_spice::{Integrator, Netlist, TransientSpec, Waveform};

/// A 3-stage inverter chain at 0.3 V driven by a rising input edge, each
/// stage loaded by the next and the last by a fan-out-of-one inverter:
/// 8 MOSFETs.
fn fo1_chain() -> Netlist {
    let nfet = DeviceParams::reference_90nm_nfet();
    let pfet = DeviceParams {
        kind: DeviceKind::Pfet,
        ..nfet
    };
    let mut net = Netlist::new();
    let vdd = net.node("vdd");
    let mut input = net.node("in");
    net.vsource("VDD", vdd, Netlist::GROUND, Waveform::Dc(0.3));
    net.vsource(
        "VIN",
        input,
        Netlist::GROUND,
        Waveform::Pulse {
            v0: 0.0,
            v1: 0.3,
            delay: 2.0e-9,
            rise: 0.5e-9,
            fall: 0.5e-9,
            width: 1.0,
            period: f64::INFINITY,
        },
    );
    for stage in 0..4 {
        let out = net.node(&format!("n{stage}"));
        net.mosfet(
            &format!("MP{stage}"),
            pfet.mos_model(),
            2.0,
            out,
            input,
            vdd,
        );
        net.mosfet(
            &format!("MN{stage}"),
            nfet.mos_model(),
            1.0,
            out,
            input,
            Netlist::GROUND,
        );
        net.capacitor(&format!("C{stage}"), out, Netlist::GROUND, 0.5e-15);
        input = out;
    }
    net
}

/// Counter totals and this thread's tracer locks taken while `run` ran.
fn traced<T>(names: &[&str], run: impl FnOnce() -> T) -> (T, Vec<u64>, u64) {
    let counters = || {
        let snap = trace::global().snapshot();
        names
            .iter()
            .map(|name| snap.counters.get(*name).copied().unwrap_or(0))
            .collect::<Vec<_>>()
    };
    let before = counters();
    let locks = trace::locks_taken();
    let out = run();
    let locks = trace::locks_taken() - locks;
    let after = counters();
    let delta = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    (out, delta, locks)
}

#[test]
fn a_transient_reuses_each_accepted_evaluation_and_reports_once() {
    trace::set_enabled(true);
    let net = fo1_chain();
    let devices = 8u64;
    let op = dc_operating_point(&net).expect("operating point");
    let names = ["spice.mos.evals", "spice.mos.reused", "spice.tran.runs"];

    let mut locks_per_run = Vec::new();
    for steps in [10usize, 1200] {
        let spec = TransientSpec::with_steps(12.0e-9, steps, Integrator::Trapezoidal);
        let (result, counts, locks) = traced(&names, || transient_from(&net, spec, &op));
        let result = result.expect("transient converges");
        let (evals, reused, runs) = (counts[0], counts[1], counts[2]);
        assert_eq!(runs, 1);
        // Each step stamps every device once per Newton iteration and
        // once more in its acceptance pass.
        let iterations: u64 = result.newton_iterations.iter().map(|&n| n as u64).sum();
        let stamps = devices * (iterations + steps as u64);
        assert_eq!(evals + reused, stamps);
        // Every step after the first starts at the previous step's
        // accepted point, which its acceptance pass already evaluated.
        assert!(
            reused >= devices * (steps as u64 - 1),
            "{steps} steps: {reused} reused of {stamps} stamps"
        );
        locks_per_run.push(locks);
        if steps == 1200 {
            // Without the memo every stamp evaluated its devices.
            assert!(
                10 * evals <= 6 * stamps,
                "{evals} evaluations for {stamps} stamps"
            );
        }
    }
    assert_eq!(
        locks_per_run,
        vec![1, 1],
        "a transient reports under one tracer lock at any step count"
    );
}
