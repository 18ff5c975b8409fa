//! MOS electrostatics: oxide capacitance, depletion width and charge,
//! flat-band voltage and the long-channel threshold voltage.

use subvt_units::consts::{EPS_OX, EPS_SI, E_G_300K, Q};
use subvt_units::{FaradsPerCm2, Nanometers, PerCubicCentimeter, Temperature, Volts};

use crate::silicon::fermi_potential;

/// Oxide capacitance per unit area, `C_ox = ε_ox / T_ox`.
///
/// # Examples
///
/// ```
/// use subvt_physics::electrostatics::oxide_capacitance;
/// use subvt_units::Nanometers;
/// let cox = oxide_capacitance(Nanometers::new(2.1));
/// assert!((cox.get() - 1.64e-6).abs() < 0.03e-6);
/// ```
///
/// # Panics
///
/// Panics if `t_ox` is not positive.
pub fn oxide_capacitance(t_ox: Nanometers) -> FaradsPerCm2 {
    assert!(t_ox.get() > 0.0, "oxide thickness must be positive");
    FaradsPerCm2::new(EPS_OX / t_ox.as_cm())
}

/// Depletion width under surface band bending `ψ_s` in a body of doping
/// `n_eff`: `W_dep = √(2·ε_si·ψ_s / (q·N))`.
///
/// # Panics
///
/// Panics if the doping or band bending is not positive.
pub fn depletion_width(n_eff: PerCubicCentimeter, surface_potential: Volts) -> Nanometers {
    assert!(n_eff.get() > 0.0, "doping must be positive");
    assert!(
        surface_potential.as_volts() > 0.0,
        "band bending must be positive for a depletion region"
    );
    let w_cm = (2.0 * EPS_SI * surface_potential.as_volts() / (Q * n_eff.get())).sqrt();
    Nanometers::new(w_cm * 1.0e7)
}

/// Maximum (threshold-condition) depletion width, evaluated at
/// `ψ_s = 2·φ_F`.
pub fn max_depletion_width(n_eff: PerCubicCentimeter, temperature: Temperature) -> Nanometers {
    let phi_f = fermi_potential(n_eff, temperature);
    depletion_width(n_eff, phi_f * 2.0)
}

/// Bulk depletion charge per unit area at band bending `ψ_s`,
/// `Q_dep = √(2·q·ε_si·N·ψ_s)` in C/cm².
pub fn depletion_charge(n_eff: PerCubicCentimeter, surface_potential: Volts) -> f64 {
    assert!(n_eff.get() > 0.0 && surface_potential.as_volts() > 0.0);
    (2.0 * Q * EPS_SI * n_eff.get() * surface_potential.as_volts()).sqrt()
}

/// Body-effect coefficient `γ = √(2·q·ε_si·N) / C_ox` in V^½.
pub fn body_factor(n_eff: PerCubicCentimeter, c_ox: FaradsPerCm2) -> f64 {
    (2.0 * Q * EPS_SI * n_eff.get()).sqrt() / c_ox.get()
}

/// Flat-band voltage of an n⁺-poly gate over a p-body (NFET frame):
/// `V_fb = −(E_g/2 + φ_F)`. The degenerate poly pins the gate Fermi level
/// at the conduction-band edge.
pub fn flat_band_voltage(n_body: PerCubicCentimeter, temperature: Temperature) -> Volts {
    let phi_f = fermi_potential(n_body, temperature);
    Volts::new(-(E_G_300K / 2.0 + phi_f.as_volts()))
}

/// Long-channel threshold voltage
/// `V_th0 = V_fb + 2·φ_F + √(2·q·ε_si·N·2φ_F)/C_ox` for body doping `n_eff`.
///
/// This is the paper's `V_th0` component (its §2.2): the intrinsic
/// threshold before short-channel roll-off and halo roll-up corrections.
///
/// # Examples
///
/// ```
/// use subvt_physics::electrostatics::{long_channel_vth, oxide_capacitance};
/// use subvt_units::{Nanometers, PerCubicCentimeter, Temperature};
///
/// let cox = oxide_capacitance(Nanometers::new(2.1));
/// let vth0 = long_channel_vth(
///     PerCubicCentimeter::new(1.52e18),
///     cox,
///     Temperature::room(),
/// );
/// // Hand calculation gives ≈ 0.36 V for the paper's 90 nm N_sub.
/// assert!((vth0.as_volts() - 0.36).abs() < 0.05);
/// ```
pub fn long_channel_vth(
    n_eff: PerCubicCentimeter,
    c_ox: FaradsPerCm2,
    temperature: Temperature,
) -> Volts {
    let phi_f = fermi_potential(n_eff, temperature);
    let v_fb = flat_band_voltage(n_eff, temperature);
    let q_dep = depletion_charge(n_eff, phi_f * 2.0);
    Volts::new(v_fb.as_volts() + 2.0 * phi_f.as_volts() + q_dep / c_ox.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::uniform;
    use subvt_engine::rng::SplitMix64;

    const ROOM: Temperature = Temperature::room();

    #[test]
    fn depletion_width_hand_check() {
        // N = 2e18, ψ_s = 1.0 V → W_dep ≈ 25.4 nm.
        let w = depletion_width(PerCubicCentimeter::new(2.0e18), Volts::new(1.0));
        assert!((w.get() - 25.4).abs() < 0.5, "got {w}");
    }

    #[test]
    fn body_factor_hand_check() {
        // N = 1e18, T_ox = 2 nm: γ = √(2·1.6e-19·1.04e-12·1e18)/1.73e-6 ≈ 0.33.
        let cox = oxide_capacitance(Nanometers::new(2.0));
        let g = body_factor(PerCubicCentimeter::new(1.0e18), cox);
        assert!((g - 0.33).abs() < 0.02, "got {g}");
    }

    #[test]
    fn flat_band_is_strongly_negative() {
        let vfb = flat_band_voltage(PerCubicCentimeter::new(2.0e18), ROOM);
        assert!(vfb.as_volts() < -1.0 && vfb.as_volts() > -1.2);
    }

    #[test]
    fn vth0_rises_with_doping() {
        let cox = oxide_capacitance(Nanometers::new(2.1));
        let lo = long_channel_vth(PerCubicCentimeter::new(1.0e18), cox, ROOM);
        let hi = long_channel_vth(PerCubicCentimeter::new(4.0e18), cox, ROOM);
        assert!(hi > lo);
    }

    #[test]
    fn vth0_rises_with_thicker_oxide() {
        let n = PerCubicCentimeter::new(2.0e18);
        let lo = long_channel_vth(n, oxide_capacitance(Nanometers::new(1.5)), ROOM);
        let hi = long_channel_vth(n, oxide_capacitance(Nanometers::new(3.0)), ROOM);
        assert!(hi > lo);
    }

    #[test]
    fn depletion_width_monotone() {
        let mut rng = SplitMix64::new(0xe1e0);
        let psi = Volts::new(1.0);
        for _ in 0..256 {
            let n = uniform(&mut rng, 1.0e16..1.0e19);
            let factor = uniform(&mut rng, 1.1..50.0);
            let wide = depletion_width(PerCubicCentimeter::new(n), psi);
            let narrow = depletion_width(PerCubicCentimeter::new(n * factor), psi);
            assert!(narrow < wide, "N = {n:e}, factor {factor}");
        }
    }

    #[test]
    fn charge_balance_identity() {
        let mut rng = SplitMix64::new(0xe1e1);
        for _ in 0..256 {
            let n = uniform(&mut rng, 1.0e16..1.0e19);
            let psi = uniform(&mut rng, 0.1..1.5);
            // Q_dep == q·N·W_dep must hold by construction.
            let nd = PerCubicCentimeter::new(n);
            let q_dep = depletion_charge(nd, Volts::new(psi));
            let w = depletion_width(nd, Volts::new(psi)).as_cm();
            assert!(
                (q_dep - Q * n * w).abs() <= q_dep * 1e-10,
                "N = {n:e}, psi = {psi}"
            );
        }
    }

    #[test]
    fn vth0_is_physical() {
        let mut rng = SplitMix64::new(0xe1e2);
        for _ in 0..256 {
            let n = uniform(&mut rng, 5.0e17..8.0e18);
            let tox = uniform(&mut rng, 1.0..3.0);
            let cox = oxide_capacitance(Nanometers::new(tox));
            let vth = long_channel_vth(PerCubicCentimeter::new(n), cox, ROOM).as_volts();
            // Threshold of a poly-gate bulk NFET stays in a sane window
            // (light doping with a thin oxide can approach zero).
            assert!(vth > -0.05 && vth < 1.5, "N = {n:e}, T_ox = {tox}: {vth}");
        }
    }
}
