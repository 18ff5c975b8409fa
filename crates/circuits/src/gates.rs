//! Static CMOS logic gates beyond the inverter: NAND2 and NOR2.
//!
//! Stacked transistors matter in subthreshold: a 2-high stack loses
//! roughly a factor `e^{ΔV/v_T}` of drive because the intermediate node
//! lifts the bottom device's source, so gate sizing and worst-case input
//! vectors behave differently than above threshold. This module wires
//! the gates from the same [`CmosPair`] devices and traces their
//! transfer curves; the cached worst-case margin and leakage live in
//! [`crate::topology`].

use subvt_spice::mna::SpiceError;
use subvt_spice::netlist::{Netlist, NodeId};
use subvt_units::Volts;

use crate::inverter::{CmosPair, Vtc};
use crate::topology::{CellSpec, Testbench};

/// Two-input gate flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// 2-input NAND: series NFET stack, parallel PFETs.
    Nand2,
    /// 2-input NOR: parallel NFETs, series PFET stack.
    Nor2,
}

/// Input vector for the un-swept input of a two-input gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OtherInput {
    /// Tied high (to V_dd).
    High,
    /// Tied low (to ground).
    Low,
    /// Tied to the swept input (both inputs switch together).
    Common,
}

/// A two-input static CMOS gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate2 {
    /// The unit device pair.
    pub pair: CmosPair,
    /// Gate flavour.
    pub kind: GateKind,
}

impl Gate2 {
    /// Creates a NAND2 from a device pair.
    pub fn nand2(pair: CmosPair) -> Self {
        Self {
            pair,
            kind: GateKind::Nand2,
        }
    }

    /// Creates a NOR2 from a device pair.
    pub fn nor2(pair: CmosPair) -> Self {
        Self {
            pair,
            kind: GateKind::Nor2,
        }
    }

    /// Wires the gate into a netlist. The series stack is *not* upsized
    /// (minimum-size subthreshold convention — upsizing buys little
    /// because stack resistance is exponential, not linear).
    pub fn wire(
        &self,
        net: &mut Netlist,
        name: &str,
        input_a: NodeId,
        input_b: NodeId,
        output: NodeId,
        vdd_node: NodeId,
    ) {
        let nmod = self.pair.nfet_model();
        let pmod = self.pair.pfet_model();
        let (wn, wp) = (self.pair.wn_um, self.pair.wp_um);
        let mid = net.node(&format!("{name}.mid"));
        match self.kind {
            GateKind::Nand2 => {
                // Parallel PFETs to V_dd.
                net.mosfet(&format!("{name}.MPA"), pmod, wp, output, input_a, vdd_node);
                net.mosfet(&format!("{name}.MPB"), pmod, wp, output, input_b, vdd_node);
                // Series NFET stack to ground.
                net.mosfet(&format!("{name}.MNA"), nmod, wn, output, input_a, mid);
                net.mosfet(
                    &format!("{name}.MNB"),
                    nmod,
                    wn,
                    mid,
                    input_b,
                    Netlist::GROUND,
                );
            }
            GateKind::Nor2 => {
                // Series PFET stack from V_dd.
                net.mosfet(&format!("{name}.MPA"), pmod, wp, mid, input_a, vdd_node);
                net.mosfet(&format!("{name}.MPB"), pmod, wp, output, input_b, mid);
                // Parallel NFETs to ground.
                net.mosfet(
                    &format!("{name}.MNA"),
                    nmod,
                    wn,
                    output,
                    input_a,
                    Netlist::GROUND,
                );
                net.mosfet(
                    &format!("{name}.MNB"),
                    nmod,
                    wn,
                    output,
                    input_b,
                    Netlist::GROUND,
                );
            }
        }
        // Lumped device capacitances (two gate loads at each input node
        // are owned by the driver; here we add the output parasitics).
        net.capacitor(
            &format!("{name}.Cout"),
            output,
            Netlist::GROUND,
            2.0 * self.pair.output_capacitance(),
        );
        net.capacitor(
            &format!("{name}.Cmid"),
            mid,
            Netlist::GROUND,
            0.5 * self.pair.output_capacitance(),
        );
    }

    /// Transfer curve sweeping input A with input B per `other`.
    ///
    /// # Errors
    ///
    /// Propagates [`SpiceError`] from the solver.
    pub fn vtc(&self, v_dd: Volts, other: OtherInput, points: usize) -> Result<Vtc, SpiceError> {
        CellSpec::gate(self.kind, self.pair)
            .compile(&Testbench::Vtc {
                v_dd,
                points,
                other,
            })
            .expect("gate cells always compile a VTC bench")
            .run_transfer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverter::Inverter;
    use crate::snm::noise_margins;
    use crate::topology::cached_gate_snm;
    use subvt_physics::device::DeviceParams;

    fn pair() -> CmosPair {
        CmosPair::balanced(DeviceParams::reference_90nm_nfet())
    }

    #[test]
    fn nand_truth_table_end_points() {
        let g = Gate2::nand2(pair());
        let vdd = Volts::new(0.25);
        // B high, A swept: output follows NOT(A).
        let vtc = g.vtc(vdd, OtherInput::High, 21).unwrap();
        assert!(vtc.v_out[0] > 0.24, "A=0,B=1 -> 1");
        assert!(vtc.v_out[20] < 0.02, "A=1,B=1 -> 0");
        // B low: output stuck high regardless of A.
        let vtc = g.vtc(vdd, OtherInput::Low, 21).unwrap();
        assert!(vtc.v_out[0] > 0.24 && vtc.v_out[20] > 0.24);
    }

    #[test]
    fn nor_truth_table_end_points() {
        let g = Gate2::nor2(pair());
        let vdd = Volts::new(0.25);
        // B low, A swept: output follows NOT(A).
        let vtc = g.vtc(vdd, OtherInput::Low, 21).unwrap();
        assert!(vtc.v_out[0] > 0.24, "A=0,B=0 -> 1");
        assert!(vtc.v_out[20] < 0.02, "A=1,B=0 -> 0");
        // B high: output stuck low.
        let vtc = g.vtc(vdd, OtherInput::High, 21).unwrap();
        assert!(vtc.v_out[0] < 0.02 && vtc.v_out[20] < 0.02);
    }

    #[test]
    fn gate_snm_below_inverter_snm() {
        // Stacks and skewed switching thresholds cost noise margin
        // relative to the balanced inverter.
        let p = pair();
        let vdd = Volts::new(0.25);
        let inv = noise_margins(&Inverter::new(p).vtc(vdd, 121).unwrap())
            .unwrap()
            .snm();
        let nand = cached_gate_snm(&p, GateKind::Nand2, vdd, 121).unwrap();
        let nor = cached_gate_snm(&p, GateKind::Nor2, vdd, 121).unwrap();
        assert!(nand < inv * 1.02, "NAND {nand} vs inverter {inv}");
        assert!(nor < inv * 1.02, "NOR {nor} vs inverter {inv}");
        assert!(nand > 0.0 && nor > 0.0);
    }

    #[test]
    fn common_input_switching_is_sharper_for_nand() {
        // Both inputs switching drives both stacked NFETs: the NAND
        // transition shifts versus the single-input case.
        let g = Gate2::nand2(pair());
        let vdd = Volts::new(0.25);
        let single = g.vtc(vdd, OtherInput::High, 81).unwrap();
        let common = g.vtc(vdd, OtherInput::Common, 81).unwrap();
        let vm_single = single.switching_threshold().unwrap();
        let vm_common = common.switching_threshold().unwrap();
        assert!(
            (vm_single - vm_common).abs() > 0.002,
            "input vectors must shift V_M: {vm_single} vs {vm_common}"
        );
    }
}
