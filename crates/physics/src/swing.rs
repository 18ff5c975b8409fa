//! Inverse subthreshold slope `S_S` — the paper's Eq. 2(b) — and the
//! subthreshold slope factor `m`.
//!
//! `S_S` is the paper's central device metric: it sets noise margins
//! (Eq. 3), the energy-optimal supply `V_min = K_Vmin·S_S`, and both the
//! delay factor `C_L·S_S/I_off` (Eq. 6) and energy factor `C_L·S_S²`
//! (Eq. 8).

use subvt_units::consts::LN_10;
use subvt_units::{MilliVoltsPerDecade, Nanometers, Temperature, Volts};

/// Inverse subthreshold slope of a short-channel MOSFET — paper Eq. 2(b):
///
/// `S_S = 2.3·v_T·(1 + 3·T_ox/W_dep)·(1 + (11·T_ox/W_dep)·e^{−π·L_eff/(2·(W_dep+3·T_ox))})`
///
/// The first parenthesis is the long-channel body-factor term
/// (`m = 1 + C_dep/C_ox` with `C_dep/C_ox ≈ 3·T_ox/W_dep` since
/// `ε_si ≈ 3·ε_ox`); the final exponential term drives the degradation as
/// `L_eff` shrinks relative to `T_ox` and `W_dep` — the mechanism the
/// paper identifies behind sub-V_th scaling problems.
///
/// # Examples
///
/// ```
/// use subvt_physics::swing::inverse_subthreshold_slope;
/// use subvt_units::{Nanometers, Temperature};
///
/// let ss = inverse_subthreshold_slope(
///     Nanometers::new(45.0),  // L_eff
///     Nanometers::new(2.1),   // T_ox
///     Nanometers::new(23.0),  // W_dep
///     Temperature::room(),
/// );
/// assert!(ss.get() > 60.0 && ss.get() < 120.0);
/// ```
///
/// # Panics
///
/// Panics if any length is not positive.
pub fn inverse_subthreshold_slope(
    l_eff: Nanometers,
    t_ox: Nanometers,
    w_dep: Nanometers,
    temperature: Temperature,
) -> MilliVoltsPerDecade {
    assert!(
        l_eff.get() > 0.0 && t_ox.get() > 0.0 && w_dep.get() > 0.0,
        "lengths must be positive"
    );
    let vt = temperature.thermal_voltage().as_volts();
    let ratio = t_ox.get() / w_dep.get();
    let body = 1.0 + 3.0 * ratio;
    let sce = 1.0
        + 11.0
            * ratio
            * (-core::f64::consts::PI * l_eff.get() / (2.0 * (w_dep.get() + 3.0 * t_ox.get())))
                .exp();
    MilliVoltsPerDecade::from_volts_per_decade(LN_10 * vt * body * sce)
}

/// Long-channel limit of Eq. 2(b): `S_S = 2.3·v_T·(1 + 3·T_ox/W_dep)`,
/// i.e. `2.3·v_T·m` (paper Eq. 2(a)).
pub fn long_channel_slope(
    t_ox: Nanometers,
    w_dep: Nanometers,
    temperature: Temperature,
) -> MilliVoltsPerDecade {
    assert!(
        t_ox.get() > 0.0 && w_dep.get() > 0.0,
        "lengths must be positive"
    );
    let vt = temperature.thermal_voltage().as_volts();
    MilliVoltsPerDecade::from_volts_per_decade(LN_10 * vt * (1.0 + 3.0 * t_ox.get() / w_dep.get()))
}

/// Subthreshold slope factor `m = S_S / (2.3·v_T)` — the ideality factor
/// appearing in the paper's Eq. 1 and Eq. 3. Folding the short-channel
/// term of Eq. 2(b) into `m` keeps the current and VTC expressions
/// consistent with the simulated swing.
pub fn slope_factor(s_s: MilliVoltsPerDecade, temperature: Temperature) -> f64 {
    let vt = temperature.thermal_voltage().as_volts();
    s_s.as_volts_per_decade() / (LN_10 * vt)
}

/// Thermal floor `2.3·v_T` (≈59.5 mV/dec at 300 K): the slope of an ideal
/// device with `m = 1`.
pub fn thermal_floor(temperature: Temperature) -> MilliVoltsPerDecade {
    MilliVoltsPerDecade::from_volts_per_decade(LN_10 * temperature.thermal_voltage().as_volts())
}

/// Ratio of on- to off-current implied by a slope at supply `v_dd`,
/// `I_on/I_off = 10^{V_dd / S_S}` — the identity
/// `S_S = V_dd / log10(I_on/I_off)` the paper uses before Eq. 6.
pub fn on_off_ratio_from_slope(s_s: MilliVoltsPerDecade, v_dd: Volts) -> f64 {
    10.0_f64.powf(v_dd.as_volts() / s_s.as_volts_per_decade())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::uniform;
    use subvt_engine::rng::SplitMix64;

    const ROOM: Temperature = Temperature::room();

    #[test]
    fn thermal_floor_at_room() {
        assert!((thermal_floor(ROOM).get() - 59.5).abs() < 0.3);
    }

    #[test]
    fn long_channel_limit_of_eq2b() {
        // For very long channels Eq. 2(b) must collapse to Eq. 2(a).
        let t_ox = Nanometers::new(2.1);
        let w_dep = Nanometers::new(23.0);
        let full = inverse_subthreshold_slope(Nanometers::new(5000.0), t_ox, w_dep, ROOM);
        let lc = long_channel_slope(t_ox, w_dep, ROOM);
        assert!((full.get() - lc.get()).abs() < 1e-6);
    }

    #[test]
    fn paper_90nm_class_value() {
        // 90 nm-class super-V_th device (L_eff ≈ 45 nm, T_ox = 2.1 nm,
        // W_dep ≈ 23 nm): S_S in the 75–95 mV/dec window of the paper's
        // Fig. 2.
        let ss = inverse_subthreshold_slope(
            Nanometers::new(45.0),
            Nanometers::new(2.1),
            Nanometers::new(23.0),
            ROOM,
        );
        assert!(ss.get() > 75.0 && ss.get() < 95.0, "got {ss}");
    }

    #[test]
    fn slope_degrades_as_length_shrinks() {
        let t_ox = Nanometers::new(2.0);
        let w_dep = Nanometers::new(20.0);
        let long = inverse_subthreshold_slope(Nanometers::new(100.0), t_ox, w_dep, ROOM);
        let short = inverse_subthreshold_slope(Nanometers::new(15.0), t_ox, w_dep, ROOM);
        assert!(short.get() > long.get());
    }

    #[test]
    fn slope_factor_round_trips() {
        let ss = MilliVoltsPerDecade::new(80.0);
        let m = slope_factor(ss, ROOM);
        assert!((m * thermal_floor(ROOM).get() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn on_off_ratio_identity() {
        // S_S = 95 mV/dec at 250 mV → 10^(250/95) ≈ 427.
        let ratio = on_off_ratio_from_slope(MilliVoltsPerDecade::new(95.0), Volts::new(0.25));
        assert!((ratio - 427.0).abs() < 5.0, "got {ratio}");
    }

    #[test]
    fn slope_above_thermal_floor() {
        let mut rng = SplitMix64::new(0x5e10);
        for _ in 0..256 {
            let l = uniform(&mut rng, 5.0..1000.0);
            let tox = uniform(&mut rng, 1.0..3.5);
            let wdep = uniform(&mut rng, 8.0..60.0);
            let ss = inverse_subthreshold_slope(
                Nanometers::new(l),
                Nanometers::new(tox),
                Nanometers::new(wdep),
                ROOM,
            );
            assert!(
                ss.get() >= thermal_floor(ROOM).get(),
                "L = {l}, T_ox = {tox}, W_dep = {wdep}: {ss}"
            );
        }
    }

    #[test]
    fn slope_monotone_decreasing_in_length() {
        let mut rng = SplitMix64::new(0x5e11);
        let t_ox = Nanometers::new(2.0);
        let w_dep = Nanometers::new(20.0);
        for _ in 0..256 {
            let l = uniform(&mut rng, 5.0..500.0);
            let factor = uniform(&mut rng, 1.05..10.0);
            let short = inverse_subthreshold_slope(Nanometers::new(l), t_ox, w_dep, ROOM);
            let long = inverse_subthreshold_slope(Nanometers::new(l * factor), t_ox, w_dep, ROOM);
            assert!(
                long.get() <= short.get() + 1e-12,
                "L = {l}, factor {factor}"
            );
        }
    }

    #[test]
    fn thinner_oxide_improves_long_channel_slope() {
        let mut rng = SplitMix64::new(0x5e12);
        for _ in 0..256 {
            let tox = uniform(&mut rng, 1.0..3.0);
            let wdep = Nanometers::new(uniform(&mut rng, 10.0..50.0));
            let a = long_channel_slope(Nanometers::new(tox), wdep, ROOM);
            let b = long_channel_slope(Nanometers::new(0.8 * tox), wdep, ROOM);
            assert!(b.get() < a.get(), "T_ox = {tox}, W_dep = {wdep}");
        }
    }
}
