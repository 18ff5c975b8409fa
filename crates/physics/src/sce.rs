//! Short-channel effects: the quasi-2-D characteristic length, threshold
//! roll-off with drain-induced barrier lowering (DIBL), and the composed
//! short-channel threshold voltage
//! `V_th = V_th0(N_eff) − ΔV_th,SCE` (paper §2.2, after ref \[11\]).
//!
//! The halo roll-up `ΔV_th,halo` the paper describes is captured here
//! implicitly: `V_th0` is evaluated with the *effective* channel doping
//! from [`crate::halo`], which rises as the channel shortens, opposing the
//! SCE roll-off — exactly the "flat V_th vs L" compensation the paper's
//! Fig. 1(c) flow tunes for.

use subvt_units::consts::{EPS_OX_REL, EPS_SI_REL};
use subvt_units::{FaradsPerCm2, Nanometers, PerCubicCentimeter, Temperature, Volts};

use crate::electrostatics::{long_channel_vth, max_depletion_width};
use crate::silicon::{built_in_potential, fermi_potential};

/// Quasi-2-D characteristic (scale) length
/// `ℓ = √((ε_si/ε_ox)·T_ox·W_dep)` that governs how deeply the drain field
/// penetrates the channel (Taur & Ning §3.2.1 / ref \[11\]).
pub fn characteristic_length(t_ox: Nanometers, w_dep: Nanometers) -> Nanometers {
    assert!(t_ox.get() > 0.0 && w_dep.get() > 0.0);
    Nanometers::new((EPS_SI_REL / EPS_OX_REL * t_ox.get() * w_dep.get()).sqrt())
}

/// Calibration prefactor on the quasi-2-D roll-off.
///
/// The textbook barrier-lowering solution assumes a uniform channel; real
/// halo-engineered devices place extra doping exactly where the drain
/// field penetrates, suppressing roll-off below the uniform-channel
/// estimate. `0.5` calibrates the 90 nm-class reference device to the
/// ≈80 mV/V DIBL and ≈400 mV `V_th,sat` reported for published LSTP
/// processes (and by the paper's Table 2).
pub const K_SCE: f64 = 0.5;

/// Threshold roll-off from short-channel effects plus DIBL:
///
/// `ΔV_th,SCE = K_SCE·[2·(V_bi − 2φ_F) + V_ds] · e^{−L_eff/(2ℓ)}`
///
/// following the quasi-2-D barrier-lowering solution (Liu et al. / ref
/// \[11\]) with the [`K_SCE`] calibration; always non-negative.
#[allow(clippy::too_many_arguments)]
pub fn sce_roll_off(
    l_eff: Nanometers,
    t_ox: Nanometers,
    n_eff: PerCubicCentimeter,
    n_sd: PerCubicCentimeter,
    v_ds: Volts,
    temperature: Temperature,
) -> Volts {
    assert!(l_eff.get() > 0.0, "channel length must be positive");
    let w_dep = max_depletion_width(n_eff, temperature);
    let ell = characteristic_length(t_ox, w_dep);
    let v_bi = built_in_potential(n_sd, n_eff, temperature);
    let phi_f = fermi_potential(n_eff, temperature);
    let barrier = 2.0 * (v_bi.as_volts() - 2.0 * phi_f.as_volts()) + v_ds.as_volts().max(0.0);
    let drop = K_SCE * barrier * (-l_eff.get() / (2.0 * ell.get())).exp();
    Volts::new(drop.max(0.0))
}

/// DIBL coefficient in V/V: `∂V_th/∂V_ds` evaluated from the roll-off
/// model (the `V_ds`-linear part of [`sce_roll_off`]).
pub fn dibl(
    l_eff: Nanometers,
    t_ox: Nanometers,
    n_eff: PerCubicCentimeter,
    temperature: Temperature,
) -> f64 {
    let w_dep = max_depletion_width(n_eff, temperature);
    let ell = characteristic_length(t_ox, w_dep);
    K_SCE * (-l_eff.get() / (2.0 * ell.get())).exp()
}

/// Short-channel threshold voltage:
/// `V_th(L, V_ds) = V_th0(N_eff) − ΔV_th,SCE(L, V_ds)`.
///
/// `n_eff` should already include the halo contribution at this `L_eff`
/// (see [`crate::halo::effective_channel_doping`]), which supplies the
/// paper's `ΔV_th,halo` roll-up term.
pub fn short_channel_vth(
    l_eff: Nanometers,
    t_ox: Nanometers,
    c_ox: FaradsPerCm2,
    n_eff: PerCubicCentimeter,
    n_sd: PerCubicCentimeter,
    v_ds: Volts,
    temperature: Temperature,
) -> Volts {
    let vth0 = long_channel_vth(n_eff, c_ox, temperature);
    let roll = sce_roll_off(l_eff, t_ox, n_eff, n_sd, v_ds, temperature);
    Volts::new(vth0.as_volts() - roll.as_volts())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::electrostatics::oxide_capacitance;
    use crate::prop::uniform;
    use subvt_engine::rng::SplitMix64;

    const ROOM: Temperature = Temperature::room();
    const N_SD: PerCubicCentimeter = PerCubicCentimeter::new(1.0e20);

    #[test]
    fn characteristic_length_hand_check() {
        // T_ox = 2.1 nm, W_dep = 23 nm: ℓ = √(3·2.1·23) ≈ 12 nm.
        let ell = characteristic_length(Nanometers::new(2.1), Nanometers::new(23.0));
        assert!((ell.get() - 12.03).abs() < 0.1, "got {ell}");
    }

    #[test]
    fn roll_off_grows_as_channel_shrinks() {
        let t_ox = Nanometers::new(2.1);
        let n = PerCubicCentimeter::new(2.4e18);
        let vds = Volts::new(1.2);
        let long = sce_roll_off(Nanometers::new(100.0), t_ox, n, N_SD, vds, ROOM);
        let short = sce_roll_off(Nanometers::new(25.0), t_ox, n, N_SD, vds, ROOM);
        assert!(short.as_volts() > 5.0 * long.as_volts());
    }

    #[test]
    fn roll_off_grows_with_drain_bias() {
        let t_ox = Nanometers::new(2.1);
        let n = PerCubicCentimeter::new(2.4e18);
        let l = Nanometers::new(45.0);
        let lin = sce_roll_off(l, t_ox, n, N_SD, Volts::new(0.05), ROOM);
        let sat = sce_roll_off(l, t_ox, n, N_SD, Volts::new(1.2), ROOM);
        assert!(sat > lin);
    }

    #[test]
    fn dibl_in_plausible_range_for_90nm() {
        // The 90 nm-class device should show tens of mV/V of DIBL.
        let d = dibl(
            Nanometers::new(45.0),
            Nanometers::new(2.1),
            PerCubicCentimeter::new(2.4e18),
            ROOM,
        );
        assert!(d > 0.02 && d < 0.3, "got {d}");
    }

    #[test]
    fn short_channel_vth_below_long_channel() {
        let t_ox = Nanometers::new(2.1);
        let c_ox = oxide_capacitance(t_ox);
        let n = PerCubicCentimeter::new(2.4e18);
        let vth_long = long_channel_vth(n, c_ox, ROOM);
        let vth_short = short_channel_vth(
            Nanometers::new(30.0),
            t_ox,
            c_ox,
            n,
            N_SD,
            Volts::new(1.2),
            ROOM,
        );
        assert!(vth_short < vth_long);
    }

    #[test]
    fn roll_off_nonnegative_and_bounded() {
        let mut rng = SplitMix64::new(0x5ce0);
        for _ in 0..256 {
            let l = uniform(&mut rng, 10.0..300.0);
            let n = uniform(&mut rng, 5.0e17..8.0e18);
            let vds = uniform(&mut rng, 0.0..1.5);
            let roll = sce_roll_off(
                Nanometers::new(l),
                Nanometers::new(2.0),
                PerCubicCentimeter::new(n),
                N_SD,
                Volts::new(vds),
                ROOM,
            )
            .as_volts();
            // Non-negative, and cannot exceed the full barrier prefactor.
            assert!(
                (0.0..4.0).contains(&roll),
                "L = {l}, N = {n:e}, V_ds = {vds}: {roll}"
            );
        }
    }

    #[test]
    fn higher_doping_suppresses_dibl() {
        let mut rng = SplitMix64::new(0x5ce1);
        let t_ox = Nanometers::new(2.0);
        for _ in 0..256 {
            let l = Nanometers::new(uniform(&mut rng, 15.0..100.0));
            let n = uniform(&mut rng, 5.0e17..3.0e18);
            let d_lo = dibl(l, t_ox, PerCubicCentimeter::new(n), ROOM);
            let d_hi = dibl(l, t_ox, PerCubicCentimeter::new(4.0 * n), ROOM);
            assert!(d_hi < d_lo, "L = {l}, N = {n:e}");
        }
    }
}
