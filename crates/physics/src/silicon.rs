//! Bulk-silicon material relations: intrinsic density, Fermi potentials,
//! built-in junction potential.

use subvt_units::consts::{E_G_300K, N_C_300K, N_I_300K, N_V_300K};
use subvt_units::{PerCubicCentimeter, Temperature, Volts};

/// Intrinsic carrier density `n_i(T)`, via `n_i = √(N_c·N_v)·e^{-E_g/2kT}`
/// with the density-of-states normalized so `n_i(300 K)` matches the
/// tabulated value.
///
/// # Examples
///
/// ```
/// use subvt_physics::silicon::intrinsic_density;
/// use subvt_units::Temperature;
/// let ni = intrinsic_density(Temperature::room());
/// assert!((ni.get() / 1.0e10 - 1.0).abs() < 1e-6);
/// ```
pub fn intrinsic_density(temperature: Temperature) -> PerCubicCentimeter {
    let t = temperature.as_kelvin();
    let vt = temperature.thermal_voltage().as_volts();
    // N_c, N_v scale as T^{3/2}; anchor the prefactor at 300 K.
    let scale = (t / 300.0).powf(1.5);
    let raw = (N_C_300K * N_V_300K).sqrt() * scale * (-E_G_300K / (2.0 * vt)).exp();
    let anchor = (N_C_300K * N_V_300K).sqrt()
        * (-E_G_300K / (2.0 * Temperature::room().thermal_voltage().as_volts())).exp();
    PerCubicCentimeter::new(raw * N_I_300K / anchor)
}

/// Fermi potential `φ_F = v_T · ln(N_a / n_i)` of a p-type region with
/// acceptor density `n_a` (positive for p-type in the NFET body frame).
///
/// # Panics
///
/// Panics if `n_a` is not positive.
pub fn fermi_potential(n_a: PerCubicCentimeter, temperature: Temperature) -> Volts {
    assert!(n_a.get() > 0.0, "doping density must be positive");
    let ni = intrinsic_density(temperature);
    Volts::new(temperature.thermal_voltage().as_volts() * n_a.ln_ratio(ni))
}

/// Built-in potential of an n⁺/p junction with source/drain doping `n_d`
/// and body doping `n_a`: `V_bi = v_T · ln(N_d·N_a / n_i²)`.
///
/// # Panics
///
/// Panics if either density is not positive.
pub fn built_in_potential(
    n_d: PerCubicCentimeter,
    n_a: PerCubicCentimeter,
    temperature: Temperature,
) -> Volts {
    assert!(
        n_d.get() > 0.0 && n_a.get() > 0.0,
        "doping must be positive"
    );
    let ni = intrinsic_density(temperature).get();
    let vt = temperature.thermal_voltage().as_volts();
    Volts::new(vt * (n_d.get() * n_a.get() / (ni * ni)).ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use subvt_engine::rng::SplitMix64;

    #[test]
    fn fermi_potential_of_heavy_p_doping() {
        // N_a = 1e18: φ_F = 0.02585·ln(1e8) ≈ 0.476 V.
        let phi = fermi_potential(PerCubicCentimeter::new(1.0e18), Temperature::room());
        assert!((phi.as_volts() - 0.476).abs() < 3e-3);
    }

    #[test]
    fn built_in_potential_of_sd_junction() {
        // N_d = 1e20, N_a = 2e18 → V_bi ≈ vT·ln(2e18·1e20/1e20) ≈ 1.09 V.
        let vbi = built_in_potential(
            PerCubicCentimeter::new(1.0e20),
            PerCubicCentimeter::new(2.0e18),
            Temperature::room(),
        );
        assert!((vbi.as_volts() - 1.09).abs() < 0.02);
    }

    #[test]
    fn intrinsic_density_rises_with_temperature() {
        let lo = intrinsic_density(Temperature::from_kelvin(250.0));
        let hi = intrinsic_density(Temperature::from_kelvin(400.0));
        assert!(hi.get() > 1e3 * lo.get());
    }

    /// Log-uniform doping over `lo..hi`, cm⁻³.
    fn doping(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
        lo * (hi / lo).powf(rng.next_f64())
    }

    #[test]
    fn fermi_potential_monotone_in_doping() {
        let mut rng = SplitMix64::new(0x5f10);
        let t = Temperature::room();
        for _ in 0..1024 {
            let a = doping(&mut rng, 1.0e15, 1.0e19);
            let factor = 1.1 + 98.9 * rng.next_f64();
            let lo = fermi_potential(PerCubicCentimeter::new(a), t);
            let hi = fermi_potential(PerCubicCentimeter::new(a * factor), t);
            assert!(hi > lo, "N_a = {a:e} cm^-3, factor {factor}");
        }
    }

    #[test]
    fn built_in_exceeds_each_fermi_potential() {
        let mut rng = SplitMix64::new(0x5f11);
        let t = Temperature::room();
        for _ in 0..1024 {
            let nd = doping(&mut rng, 1.0e19, 1.0e20);
            let na = doping(&mut rng, 1.0e16, 1.0e19);
            let vbi =
                built_in_potential(PerCubicCentimeter::new(nd), PerCubicCentimeter::new(na), t);
            let phi = fermi_potential(PerCubicCentimeter::new(na), t);
            assert!(vbi > phi, "N_d = {nd:e}, N_a = {na:e} cm^-3");
        }
    }
}
