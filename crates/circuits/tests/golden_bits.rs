//! Solver results pinned to the last bit. The figure CSVs print three or
//! four digits, so a drift in the final ulp of a delay or an operating
//! point would pass them unseen; these values were recorded before the
//! MOSFET evaluation was split into prepared per-device constants and
//! must never move without a deliberate model change.

use subvt_circuits::delay::spice_fo1_delay;
use subvt_circuits::{CircuitBackendKind, CmosPair};
use subvt_physics::{DeviceKind, DeviceParams};
use subvt_spice::mna::dc_operating_point;
use subvt_spice::netlist::{Netlist, Waveform};
use subvt_units::Volts;

fn pair() -> CmosPair {
    CmosPair::balanced(DeviceParams::reference_90nm_nfet())
}

/// `(v_dd, tp_hl bits, tp_lh bits)` at 0.25 V and the 1.2 V nominal.
type Delays = [(f64, u64, u64); 2];

/// [`spice_fo1_delay`] at 900 steps (the analytic backend's FO1).
const FO1_900: Delays = [
    (0.25, 0x3e97807539e24520, 0x3e97802979a95794),
    (1.2, 0x3da2b55c48e7fd00, 0x3da2a1887ddbb864),
];

/// The spice backend's FO1 (1200 steps).
const SPICE_FO1_1200: Delays = [
    (0.25, 0x3e9780021c5f9990, 0x3e97802a82de1bd8),
    (1.2, 0x3da2b535f2447ce0, 0x3da2a181f112fadc),
];

#[test]
fn fo1_delays_keep_their_bits() {
    let pair = pair();
    for (v_dd, hl, lh) in FO1_900 {
        let d = spice_fo1_delay(&pair, Volts::new(v_dd), 900).expect("FO1 delay");
        let bits = (d.tp_hl.get().to_bits(), d.tp_lh.get().to_bits());
        assert_eq!(bits, (hl, lh), "900-step FO1 at {v_dd} V");
    }
    let spice = CircuitBackendKind::Spice.instance();
    for (v_dd, hl, lh) in SPICE_FO1_1200 {
        let d = spice.fo1_delay(&pair, Volts::new(v_dd)).expect("FO1 delay");
        let bits = (d.tp_hl.get().to_bits(), d.tp_lh.get().to_bits());
        assert_eq!(bits, (hl, lh), "spice backend FO1 at {v_dd} V");
    }
}

#[test]
fn inverter_operating_point_keeps_its_bits() {
    // A 2:1 inverter at 0.25 V with its input just below mid-rail: both
    // devices in weak inversion, the output part-way down the swing.
    let nfet = DeviceParams::reference_90nm_nfet();
    let pfet = DeviceParams {
        kind: DeviceKind::Pfet,
        ..nfet
    };
    let mut net = Netlist::new();
    let vdd = net.node("vdd");
    let vin = net.node("in");
    let vout = net.node("out");
    net.vsource("VDD", vdd, Netlist::GROUND, Waveform::Dc(0.25));
    net.vsource("VIN", vin, Netlist::GROUND, Waveform::Dc(0.11));
    net.mosfet("MP", pfet.mos_model(), 2.0, vout, vin, vdd);
    net.mosfet("MN", nfet.mos_model(), 1.0, vout, vin, Netlist::GROUND);
    let sol = dc_operating_point(&net).expect("operating point");

    // Ground, vdd, in, out; then the VDD and VIN branch currents.
    let want: [u64; 6] = [
        0x0000000000000000,
        0x3fd0000000000000,
        0x3fbc28f5c28f5c29,
        0x3fcd4c3dcb498d1b,
        0xbdd9777c3afd4f70,
        0xbd3ef655d91d9bf5,
    ];
    let got: Vec<u64> = sol
        .node_voltages
        .iter()
        .chain(&sol.branch_currents)
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(got, want);
    assert_eq!(sol.iterations, 9);
}
