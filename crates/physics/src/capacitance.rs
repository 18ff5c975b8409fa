//! Gate and load capacitance models, width-normalized (F/µm).
//!
//! The paper's delay metric `τ = C_g·V_dd/I_on` and its sub-V_th factors
//! `C_L·S_S/I_off` and `C_L·S_S²` all hinge on how capacitance scales.
//! We model, per micron of gate width:
//!
//! * intrinsic gate capacitance `C_ox·L_poly` (the full poly footprint
//!   couples through the oxide),
//! * gate/source-drain overlap capacitance `C_ox·L_ov` per side,
//! * a fringe term `≈0.04 fF/µm` per side, nearly scaling-invariant
//!   (it depends on the logarithm of geometry ratios),
//! * a drain junction/diffusion term proportional to the junction depth.

use subvt_units::consts::EPS_OX;
use subvt_units::{FaradsPerCm2, FaradsPerMicron, Nanometers};

/// Per-side fringe capacitance, `(2·ε_ox/π)·ln(1 + T_poly/T_ox)` — the
/// classic conformal-mapping estimate with `T_poly ≈ 60 nm` of gate stack.
pub fn fringe_per_side(t_ox: Nanometers) -> FaradsPerMicron {
    const T_POLY_NM: f64 = 60.0;
    let per_cm = 2.0 * EPS_OX / core::f64::consts::PI * (1.0 + T_POLY_NM / t_ox.get()).ln();
    // Per cm of width → per µm of width.
    FaradsPerMicron::new(per_cm * 1.0e-4)
}

/// Total gate capacitance per micron of width:
/// `C_g = C_ox·L_poly + 2·C_ox·L_ov + 2·C_fringe`.
///
/// # Examples
///
/// ```
/// use subvt_physics::capacitance::gate_capacitance;
/// use subvt_physics::electrostatics::oxide_capacitance;
/// use subvt_units::Nanometers;
///
/// let t_ox = Nanometers::new(2.1);
/// let cg = gate_capacitance(
///     oxide_capacitance(t_ox), Nanometers::new(65.0), Nanometers::new(10.0), t_ox);
/// assert!(cg.as_femtofarads() > 1.0 && cg.as_femtofarads() < 2.5);
/// ```
pub fn gate_capacitance(
    c_ox: FaradsPerCm2,
    l_poly: Nanometers,
    l_overlap: Nanometers,
    t_ox: Nanometers,
) -> FaradsPerMicron {
    assert!(l_poly.get() > 0.0, "gate length must be positive");
    assert!(l_overlap.get() >= 0.0, "overlap must be non-negative");
    let intrinsic = c_ox.times_length_cm(l_poly.as_cm());
    let overlap = c_ox.times_length_cm(2.0 * l_overlap.as_cm());
    let fringe = fringe_per_side(t_ox) * 2.0;
    intrinsic + overlap + fringe
}

/// Drain-side parasitic capacitance per micron of width: one overlap,
/// one fringe, plus a junction term `≈0.4·C_ox·x_j` standing in for the
/// depletion capacitance of the drain diffusion sidewall.
pub fn drain_capacitance(
    c_ox: FaradsPerCm2,
    l_overlap: Nanometers,
    x_j: Nanometers,
    t_ox: Nanometers,
) -> FaradsPerMicron {
    assert!(x_j.get() > 0.0, "junction depth must be positive");
    let overlap = c_ox.times_length_cm(l_overlap.as_cm());
    let junction = c_ox.times_length_cm(0.4 * x_j.as_cm());
    overlap + fringe_per_side(t_ox) + junction
}

/// Fan-out-of-one load: the driven gate's input capacitance plus the
/// driver's own drain parasitics.
pub fn fo1_load(c_gate_load: FaradsPerMicron, c_drain_driver: FaradsPerMicron) -> FaradsPerMicron {
    c_gate_load + c_drain_driver
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::electrostatics::oxide_capacitance;
    use crate::prop::uniform;
    use subvt_engine::rng::SplitMix64;

    #[test]
    fn fringe_is_tens_of_attofarads() {
        let f = fringe_per_side(Nanometers::new(2.1));
        let ff = f.as_femtofarads();
        assert!(ff > 0.02 && ff < 0.12, "got {ff} fF/µm");
    }

    #[test]
    fn fringe_nearly_scale_invariant() {
        // Between 2.1 nm and 1.53 nm oxides the fringe changes < 15 %.
        let a = fringe_per_side(Nanometers::new(2.1)).get();
        let b = fringe_per_side(Nanometers::new(1.53)).get();
        assert!((b / a - 1.0).abs() < 0.15);
    }

    #[test]
    fn gate_cap_90nm_ballpark() {
        // ≈1.07 fF intrinsic + 0.33 fF overlap + ~0.15 fF fringe.
        let t_ox = Nanometers::new(2.1);
        let cg = gate_capacitance(
            oxide_capacitance(t_ox),
            Nanometers::new(65.0),
            Nanometers::new(10.0),
            t_ox,
        );
        assert!((cg.as_femtofarads() - 1.55).abs() < 0.25, "got {cg:?}");
    }

    #[test]
    fn drain_cap_smaller_than_gate_cap() {
        let t_ox = Nanometers::new(2.1);
        let c_ox = oxide_capacitance(t_ox);
        let cg = gate_capacitance(c_ox, Nanometers::new(65.0), Nanometers::new(10.0), t_ox);
        let cd = drain_capacitance(c_ox, Nanometers::new(10.0), Nanometers::new(30.0), t_ox);
        assert!(cd.get() < cg.get());
    }

    #[test]
    fn gate_cap_monotone_in_length() {
        let mut rng = SplitMix64::new(0xca90);
        let t_ox = Nanometers::new(2.0);
        let c_ox = oxide_capacitance(t_ox);
        let lov = Nanometers::new(8.0);
        for _ in 0..256 {
            let l = uniform(&mut rng, 15.0..150.0);
            let dl = uniform(&mut rng, 1.0..50.0);
            let a = gate_capacitance(c_ox, Nanometers::new(l), lov, t_ox);
            let b = gate_capacitance(c_ox, Nanometers::new(l + dl), lov, t_ox);
            assert!(b.get() > a.get(), "L = {l} nm, dL = {dl} nm");
        }
    }

    #[test]
    fn thinner_oxide_raises_area_cap() {
        let mut rng = SplitMix64::new(0xca91);
        let lov = Nanometers::new(5.0);
        let cap = |l: f64, tox: f64| {
            let t_ox = Nanometers::new(tox);
            gate_capacitance(oxide_capacitance(t_ox), Nanometers::new(l), lov, t_ox)
        };
        for _ in 0..256 {
            let l = uniform(&mut rng, 15.0..150.0);
            let tox = uniform(&mut rng, 1.2..3.0);
            assert!(
                cap(l, 0.8 * tox).get() > cap(l, tox).get(),
                "L = {l}, T_ox = {tox}"
            );
        }
    }
}
