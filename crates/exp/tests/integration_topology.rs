//! Tier-1 integration: degenerate equivalences and physical sanity
//! bounds for the declarative topology layer.
//!
//! A two-input gate with its inputs tied together (`OtherInput::Common`)
//! is electrically an inverter with a perturbed pull network: the NAND's
//! series NFET stack halves the pulldown drive while its parallel PFETs
//! double the pullup (and dually for the NOR). In subthreshold that
//! drive-ratio change shifts the switching threshold by roughly
//! `m·v_T·ln(4)/2` — a few tens of millivolts — but must NOT change the
//! logic function, the output rails, or the noise-margin picture. These
//! tests pin that equivalence at every Table 2 node, against both the
//! analytic and the SPICE inverter, and bound the ring oscillator
//! against the analytic FO1 delay.

use subvt_circuits::delay::analytic_fo1_delay;
use subvt_circuits::gates::{GateKind, OtherInput};
use subvt_circuits::inverter::{analytic_vtc, Vtc};
use subvt_circuits::snm::noise_margins;
use subvt_circuits::topology::{cached_gate_vtc, cached_inverter_vtc, cached_ring_oscillation};
use subvt_exp::Study;
use subvt_units::Volts;

/// The paper's sub-V_th evaluation supply.
const V_DD: f64 = 0.25;
/// Input-axis resolution for the transfer curves.
const POINTS: usize = 61;

/// Input voltage at which the transfer curve crosses `v_dd/2`, by
/// linear interpolation on the falling transition.
fn switching_threshold(vtc: &Vtc) -> f64 {
    let half = vtc.v_dd / 2.0;
    for w in vtc.v_in.windows(2).zip(vtc.v_out.windows(2)) {
        let ((x0, x1), (y0, y1)) = ((w.0[0], w.0[1]), (w.1[0], w.1[1]));
        if (y0 >= half) != (y1 >= half) {
            return x0 + (half - y0) / (y1 - y0) * (x1 - x0);
        }
    }
    panic!("transfer curve never crosses v_dd/2");
}

fn snm_of(vtc: &Vtc) -> f64 {
    noise_margins(vtc)
        .expect("transfer curve has unity-gain points")
        .snm()
}

#[test]
fn common_input_gates_degenerate_to_the_inverter_at_every_node() {
    let ctx = Study::default().context().expect("default study designs");
    let v = Volts::new(V_DD);
    for design in &ctx.supervth {
        let pair = ctx.study.pair(design);
        let inv = cached_inverter_vtc(&pair, v, POINTS).expect("inverter VTC");
        let inv_vm = switching_threshold(&inv);
        let inv_snm = snm_of(&inv);
        let ana_snm = snm_of(&analytic_vtc(&pair, v, POINTS));
        for kind in [GateKind::Nand2, GateKind::Nor2] {
            let gate = cached_gate_vtc(&pair, kind, v, OtherInput::Common, POINTS)
                .expect("degenerate gate VTC");
            // Full output rails at the sweep ends (within a few mV of
            // the supply/ground like the inverter itself).
            assert!(
                (gate.v_out[0] - V_DD).abs() < 0.01 && gate.v_out[POINTS - 1].abs() < 0.01,
                "{:?} at {}: degenerate gate does not rail ({:.4}, {:.4})",
                kind,
                design.node.name(),
                gate.v_out[0],
                gate.v_out[POINTS - 1],
            );
            // Switching threshold within the stack-effect shift budget.
            let vm = switching_threshold(&gate);
            assert!(
                (vm - inv_vm).abs() < 0.040,
                "{:?} at {}: V_M {:.4} vs inverter {:.4}",
                kind,
                design.node.name(),
                vm,
                inv_vm,
            );
            // Noise margins within tolerance of both inverter models.
            let snm = snm_of(&gate);
            assert!(
                (snm - inv_snm).abs() < 0.035,
                "{:?} at {}: SNM {:.4} vs spice inverter {:.4}",
                kind,
                design.node.name(),
                snm,
                inv_snm,
            );
            assert!(
                (snm - ana_snm).abs() < 0.045,
                "{:?} at {}: SNM {:.4} vs analytic inverter {:.4}",
                kind,
                design.node.name(),
                snm,
                ana_snm,
            );
        }
    }
}

#[test]
fn ring_period_tracks_twice_stages_times_fo1() {
    let ctx = Study::default().context().expect("default study designs");
    let pair = ctx.study.pair(&ctx.supervth[0]);
    let v = Volts::new(V_DD);
    let stages = 5;
    let osc = cached_ring_oscillation(&pair, v, stages, 1500).expect("ring oscillates");
    let fo1 = analytic_fo1_delay(&pair, v).get();
    let expected = 2.0 * stages as f64 * fo1;
    let ratio = osc.period.get() / expected;
    assert!(
        (0.5..=3.0).contains(&ratio),
        "ring period {:.3e} s vs 2*N*FO1 {:.3e} s (ratio {ratio:.2})",
        osc.period.get(),
        expected,
    );
    assert!(
        (osc.stage_delay.get() - osc.period.get() / (2.0 * stages as f64)).abs()
            < 1e-9 * osc.period.get(),
        "stage delay must be period/(2N)"
    );
}

#[test]
fn topology_measurements_are_cache_resident_on_rerun() {
    let ctx = Study::default().context().expect("default study designs");
    let pair = ctx.study.pair(&ctx.supervth[0]);
    let v = Volts::new(V_DD);
    // Populate.
    cached_gate_vtc(&pair, GateKind::Nand2, v, OtherInput::Common, POINTS).unwrap();
    let cache = subvt_engine::global_cache();
    let (hits, misses) = {
        let s = cache.stats();
        (s.hits, s.misses)
    };
    // Rerun: identical compiled bench, identical key, no new miss.
    let again = cached_gate_vtc(&pair, GateKind::Nand2, v, OtherInput::Common, POINTS).unwrap();
    let s = cache.stats();
    assert_eq!(s.misses, misses, "warm rerun must not miss");
    assert!(s.hits > hits, "warm rerun must hit");
    assert_eq!(again.v_out.len(), POINTS);
}
