//! Weak-inversion drain current — the paper's Eq. 1:
//!
//! `I_sub = (W/L_eff)·μ_eff·C_d·v_T²·e^{(V_gs−V_th)/(m·v_T)}·(1 − e^{−V_ds/v_T})`
//!
//! with `C_d = ε_si/W_dep` the depletion capacitance. All currents are
//! width-normalized (per µm of gate width).

use subvt_units::consts::EPS_SI;
use subvt_units::{AmpsPerMicron, Nanometers, Temperature, Volts};

/// The bias-independent prefactor of Eq. 1,
/// `I₀ = (W/L_eff)·μ_eff·C_d·v_T²` per micron of width — the paper's
/// `I_o,N`/`I_o,P` (current at `V_gs = V_th`, `V_ds ≫ v_T`).
///
/// # Panics
///
/// Panics if `l_eff` or `w_dep` is not positive, or mobility is not
/// positive.
pub fn specific_current(
    l_eff: Nanometers,
    w_dep: Nanometers,
    mobility: f64,
    temperature: Temperature,
) -> AmpsPerMicron {
    assert!(
        l_eff.get() > 0.0 && w_dep.get() > 0.0,
        "lengths must be positive"
    );
    assert!(mobility > 0.0, "mobility must be positive");
    let vt = temperature.thermal_voltage().as_volts();
    let c_dep = EPS_SI / w_dep.as_cm(); // F/cm²
    let w_over_l = 1.0e-4 / l_eff.as_cm(); // 1 µm of width over L in cm
    AmpsPerMicron::new(w_over_l * mobility * c_dep * vt * vt)
}

/// Weak-inversion drain current at the given biases — Eq. 1 in full.
///
/// `i0` is the prefactor from [`specific_current`]; `m` the slope factor
/// from [`crate::swing::slope_factor`].
pub fn subthreshold_current(
    i0: AmpsPerMicron,
    v_gs: Volts,
    v_ds: Volts,
    v_th: Volts,
    m: f64,
    temperature: Temperature,
) -> AmpsPerMicron {
    assert!(m >= 1.0, "slope factor must be ≥ 1");
    let vt = temperature.thermal_voltage().as_volts();
    let gate = ((v_gs.as_volts() - v_th.as_volts()) / (m * vt)).exp();
    let drain = 1.0 - (-v_ds.as_volts() / vt).exp();
    AmpsPerMicron::new(i0.get() * gate * drain)
}

/// Off-current: Eq. 1 at `V_gs = 0`, `V_ds = V_dd` (the leakage the
/// paper's budgets constrain). `v_th` should be the *saturation*
/// threshold (computed at `V_ds = V_dd`) so DIBL is included.
pub fn off_current(
    i0: AmpsPerMicron,
    v_th_sat: Volts,
    v_dd: Volts,
    m: f64,
    temperature: Temperature,
) -> AmpsPerMicron {
    subthreshold_current(i0, Volts::new(0.0), v_dd, v_th_sat, m, temperature)
}

/// Subthreshold on-current: Eq. 1 at `V_gs = V_ds = V_dd` for a
/// sub-V_th supply (`V_dd < V_th`).
pub fn on_current_subvt(
    i0: AmpsPerMicron,
    v_th_sat: Volts,
    v_dd: Volts,
    m: f64,
    temperature: Temperature,
) -> AmpsPerMicron {
    subthreshold_current(i0, v_dd, v_dd, v_th_sat, m, temperature)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::uniform;
    use subvt_engine::rng::SplitMix64;

    const ROOM: Temperature = Temperature::room();

    fn i0_90nm() -> AmpsPerMicron {
        // 90 nm-class: L_eff = 45 nm, W_dep = 23 nm, μ ≈ 250 cm²/Vs.
        specific_current(Nanometers::new(45.0), Nanometers::new(23.0), 250.0, ROOM)
    }

    #[test]
    fn specific_current_hand_check() {
        // I₀ = (1e-4/45e-7)·250·(1.04e-12/23e-7)·(0.02585)²
        //    = 22.2·250·4.5e-7·6.68e-4 ≈ 1.67 µA/µm.
        let i0 = i0_90nm();
        assert!(
            (i0.as_microamps() - 1.67).abs() < 0.1,
            "got {}",
            i0.as_microamps()
        );
    }

    #[test]
    fn off_current_matches_paper_scale() {
        // With V_th ≈ 0.40 V and m ≈ 1.55 the 90 nm off-current should be
        // within an order of magnitude of the paper's 100 pA/µm budget.
        let i_off = off_current(i0_90nm(), Volts::new(0.40), Volts::new(1.2), 1.55, ROOM);
        assert!(
            i_off.as_picoamps() > 10.0 && i_off.as_picoamps() < 1000.0,
            "got {} pA/µm",
            i_off.as_picoamps()
        );
    }

    #[test]
    fn decade_per_swing() {
        // Raising V_gs by one S_S (= 2.3·m·v_T) multiplies current by 10.
        let m = 1.5;
        let vt = ROOM.thermal_voltage().as_volts();
        let swing = core::f64::consts::LN_10 * m * vt;
        let i0 = i0_90nm();
        let low = subthreshold_current(
            i0,
            Volts::new(0.10),
            Volts::new(0.5),
            Volts::new(0.4),
            m,
            ROOM,
        );
        let high = subthreshold_current(
            i0,
            Volts::new(0.10 + swing),
            Volts::new(0.5),
            Volts::new(0.4),
            m,
            ROOM,
        );
        assert!((high.get() / low.get() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn drain_saturation_term() {
        // For V_ds ≫ v_T the (1 − e^{−V_ds/v_T}) term saturates at 1.
        let i0 = i0_90nm();
        let a = subthreshold_current(
            i0,
            Volts::new(0.1),
            Volts::new(0.2),
            Volts::new(0.4),
            1.5,
            ROOM,
        );
        let b = subthreshold_current(
            i0,
            Volts::new(0.1),
            Volts::new(1.2),
            Volts::new(0.4),
            1.5,
            ROOM,
        );
        assert!((b.get() / a.get() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn on_off_ratio_equals_exponential_identity() {
        // I_on/I_off at V_dd must equal e^{V_dd/(m·v_T)} up to the
        // drain-term correction (identical at the two biases when
        // V_dd ≫ v_T).
        let m = 1.4;
        let v_dd = Volts::new(0.25);
        let i0 = i0_90nm();
        let vth = Volts::new(0.42);
        let on = on_current_subvt(i0, vth, v_dd, m, ROOM);
        let off = off_current(i0, vth, v_dd, m, ROOM);
        let vt = ROOM.thermal_voltage().as_volts();
        let want = (v_dd.as_volts() / (m * vt)).exp();
        assert!((on.get() / off.get() / want - 1.0).abs() < 1e-9);
    }

    #[test]
    fn current_monotone_in_vgs() {
        let mut rng = SplitMix64::new(0x5b10);
        let f = |v: f64| {
            subthreshold_current(
                i0_90nm(),
                Volts::new(v),
                Volts::new(0.25),
                Volts::new(0.4),
                1.5,
                ROOM,
            )
        };
        for _ in 0..256 {
            let vgs = uniform(&mut rng, 0.0..0.4);
            let dv = uniform(&mut rng, 0.001..0.1);
            assert!(f(vgs + dv).get() > f(vgs).get(), "V_gs = {vgs}, dV = {dv}");
        }
    }

    #[test]
    fn current_monotone_in_vds() {
        let mut rng = SplitMix64::new(0x5b11);
        let f = |v: f64| {
            subthreshold_current(
                i0_90nm(),
                Volts::new(0.2),
                Volts::new(v),
                Volts::new(0.4),
                1.5,
                ROOM,
            )
        };
        for _ in 0..256 {
            let vds = uniform(&mut rng, 0.0..0.5);
            let dv = uniform(&mut rng, 0.001..0.1);
            assert!(f(vds + dv).get() >= f(vds).get(), "V_ds = {vds}, dV = {dv}");
        }
    }

    #[test]
    fn off_current_monotone_decreasing_in_vth() {
        let mut rng = SplitMix64::new(0x5b12);
        let f = |vth: f64| off_current(i0_90nm(), Volts::new(vth), Volts::new(1.0), 1.5, ROOM);
        for _ in 0..256 {
            let vth = uniform(&mut rng, 0.2..0.6);
            let dv = uniform(&mut rng, 0.01..0.2);
            assert!(f(vth + dv).get() < f(vth).get(), "V_th = {vth}, dV = {dv}");
        }
    }
}
