//! 6T SRAM cell static noise margins in subthreshold.
//!
//! The paper's §2.3.2 flags SRAM as the structure most exposed to the
//! `S_S`/SNM degradation it studies (its ref \[16\] is a sub-200 mV 6T
//! SRAM). This module provides hold- and read-mode butterfly SNM for a 6T
//! cell built from the same device pair the logic analyses use.

use subvt_spice::mna::SpiceError;
use subvt_units::Volts;

use crate::inverter::{CmosPair, Inverter, Vtc};
use crate::snm::butterfly_snm;
use crate::topology::{Cell, CellSpec, Load, Testbench, MEASUREMENT_FAILED};

/// A 6T SRAM cell: cross-coupled inverters plus NFET access transistors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramCell {
    /// The storage inverter pair.
    pub pair: CmosPair,
    /// Access transistor width in microns (NFET, same device as the
    /// pull-down but independently sized).
    pub w_access_um: f64,
}

impl SramCell {
    /// A conservatively-ratioed subthreshold cell: access device at half
    /// the pull-down width (cell ratio 2), the sizing style of the
    /// paper's ref \[16\].
    pub fn subthreshold_cell(pair: CmosPair) -> Self {
        Self {
            pair,
            w_access_um: 0.5 * pair.wn_um,
        }
    }

    /// Hold-mode static noise margin: butterfly of the two storage
    /// inverters with the access devices off.
    ///
    /// # Errors
    ///
    /// Propagates [`SpiceError`] from the VTC sweeps; an un-invertible
    /// (degenerate) butterfly curve reports as a non-convergence.
    pub fn hold_snm(&self, v_dd: Volts, points: usize) -> Result<f64, SpiceError> {
        let vtc = Inverter::new(self.pair).vtc(v_dd, points)?;
        butterfly_snm(&vtc, &vtc).ok_or(MEASUREMENT_FAILED)
    }

    /// Read-mode static noise margin: the internal "0" node is disturbed
    /// through the access transistor by the precharged bit-line (held at
    /// `V_dd`, the worst case), flattening the storage VTC.
    ///
    /// # Errors
    ///
    /// Propagates [`SpiceError`] from the solver; an un-invertible
    /// (degenerate) butterfly curve reports as a non-convergence.
    pub fn read_snm(&self, v_dd: Volts, points: usize) -> Result<f64, SpiceError> {
        let vtc = self.read_vtc(v_dd, points)?;
        butterfly_snm(&vtc, &vtc).ok_or(MEASUREMENT_FAILED)
    }

    /// Maximum bits per bit-line at the given supply — the paper's
    /// §2.3.2 concern: during a read, one accessed cell pulls the
    /// bit-line down with `I_on` of its access path while every other
    /// cell on the line leaks `I_off` *against* it (worst-case data
    /// pattern). A sensing margin requires
    /// `I_on > margin · (bits − 1) · I_off`, so
    /// `bits ≈ I_on/(margin·I_off)` — and the ratio shrinks exactly as
    /// the paper's Fig. 2 I_on/I_off does.
    ///
    /// `margin` is the required on/leakage separation (10× is a common
    /// sensing budget).
    pub fn max_bits_per_bitline(&self, v_dd: Volts, margin: f64) -> usize {
        assert!(margin > 1.0, "sensing margin must exceed unity");
        let nfet = self.pair.at_supply(v_dd).nfet_chars();
        let i_on = nfet.i_on.get() * self.w_access_um;
        let i_off = nfet.i_off.get() * self.w_access_um;
        ((i_on / (margin * i_off)).floor() as usize).max(1)
    }

    /// The read-disturbed transfer curve of one half-cell.
    ///
    /// # Errors
    ///
    /// Propagates [`SpiceError`] from the solver.
    pub fn read_vtc(&self, v_dd: Volts, points: usize) -> Result<Vtc, SpiceError> {
        CellSpec {
            cell: Cell::SramCell {
                w_access_um: self.w_access_um,
            },
            pair: self.pair,
            load: Load::None,
        }
        .compile(&Testbench::Vtc {
            v_dd,
            points,
            other: crate::gates::OtherInput::Low,
        })
        .expect("SRAM cells always compile a read-VTC bench")
        .run_transfer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_physics::device::DeviceParams;

    fn cell() -> SramCell {
        SramCell::subthreshold_cell(CmosPair::balanced(DeviceParams::reference_90nm_nfet()))
    }

    #[test]
    fn hold_snm_positive_in_subthreshold() {
        let snm = cell().hold_snm(Volts::new(0.25), 121).unwrap();
        assert!(snm > 0.02 && snm < 0.125, "hold SNM = {snm}");
    }

    #[test]
    fn read_snm_below_hold_snm() {
        // The access disturbance always costs margin.
        let c = cell();
        let hold = c.hold_snm(Volts::new(0.25), 121).unwrap();
        let read = c.read_snm(Volts::new(0.25), 121).unwrap();
        assert!(read < hold, "read SNM {read} must be below hold SNM {hold}");
    }

    #[test]
    fn read_vtc_zero_node_is_lifted() {
        // With the input high, the output should be pulled well above
        // ground by the access device fighting the pull-down.
        let c = cell();
        let vtc = c.read_vtc(Volts::new(0.25), 61).unwrap();
        let v_low = *vtc.v_out.last().unwrap();
        assert!(v_low > 0.005, "read-disturb level = {v_low}");
    }

    #[test]
    fn bits_per_line_shrinks_with_supply() {
        // Lower V_dd → smaller I_on/I_off → fewer bits share a bit-line.
        let c = cell();
        let at_350 = c.max_bits_per_bitline(Volts::new(0.35), 10.0);
        let at_200 = c.max_bits_per_bitline(Volts::new(0.20), 10.0);
        assert!(
            at_350 > 2 * at_200,
            "350 mV allows {at_350} bits, 200 mV only {at_200}"
        );
        assert!(at_200 >= 1);
    }

    #[test]
    fn bits_per_line_scales_with_margin() {
        let c = cell();
        let tight = c.max_bits_per_bitline(Volts::new(0.3), 5.0);
        let loose = c.max_bits_per_bitline(Volts::new(0.3), 50.0);
        assert!(tight > loose);
    }

    #[test]
    #[should_panic(expected = "sensing margin")]
    fn rejects_sub_unity_margin() {
        let _ = cell().max_bits_per_bitline(Volts::new(0.3), 0.5);
    }

    #[test]
    fn wider_access_device_degrades_read_snm() {
        let mut weak = cell();
        weak.w_access_um = 0.25 * weak.pair.wn_um;
        let mut strong = cell();
        strong.w_access_um = 2.0 * strong.pair.wn_um;
        let snm_weak = weak.read_snm(Volts::new(0.25), 81).unwrap();
        let snm_strong = strong.read_snm(Volts::new(0.25), 81).unwrap();
        assert!(
            snm_strong < snm_weak,
            "strong access {snm_strong} vs weak access {snm_weak}"
        );
    }
}
