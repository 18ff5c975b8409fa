//! Carrier mobility models: doping-dependent low-field mobility
//! (Caughey–Thomas form with Arora-style parameters), a simple
//! vertical-field degradation term, and saturation velocities.

use subvt_units::consts::{V_SAT_N, V_SAT_P};
use subvt_units::{Nanometers, PerCubicCentimeter, Temperature, Volts};

use crate::device::DeviceKind;

/// Caughey–Thomas doping-dependent low-field mobility, cm²/V·s.
///
/// Parameters follow the classic silicon fits (Arora et al.): electrons
/// `μ_min = 88`, `μ_max = 1340`, `N_ref = 1.26e17`, `α = 0.88`; holes
/// `μ_min = 54`, `μ_max = 460`, `N_ref = 2.35e17`, `α = 0.88`.
///
/// # Examples
///
/// ```
/// use subvt_physics::mobility::low_field_mobility;
/// use subvt_physics::device::DeviceKind;
/// use subvt_units::PerCubicCentimeter;
///
/// let light = low_field_mobility(DeviceKind::Nfet, PerCubicCentimeter::new(1.0e15));
/// let heavy = low_field_mobility(DeviceKind::Nfet, PerCubicCentimeter::new(5.0e18));
/// assert!(light > 1200.0 && heavy < 200.0);
/// ```
pub fn low_field_mobility(kind: DeviceKind, doping: PerCubicCentimeter) -> f64 {
    let n = doping.get().abs();
    let (mu_min, mu_max, n_ref, alpha) = match kind {
        DeviceKind::Nfet => (88.0, 1340.0, 1.26e17, 0.88),
        DeviceKind::Pfet => (54.0, 460.0, 2.35e17, 0.88),
    };
    mu_min + (mu_max - mu_min) / (1.0 + (n / n_ref).powf(alpha))
}

/// Temperature-corrected low-field mobility: lattice (phonon) scattering
/// weakens the mobility as `(T/300 K)^{−1.5}` — the dominant temperature
/// dependence for channel dopings in the paper's range.
///
/// # Examples
///
/// ```
/// use subvt_physics::mobility::low_field_mobility_at;
/// use subvt_physics::device::DeviceKind;
/// use subvt_units::{PerCubicCentimeter, Temperature};
///
/// let n = PerCubicCentimeter::new(2.0e18);
/// let cold = low_field_mobility_at(DeviceKind::Nfet, n, Temperature::from_celsius(-25.0));
/// let hot = low_field_mobility_at(DeviceKind::Nfet, n, Temperature::from_celsius(100.0));
/// assert!(cold > hot);
/// ```
pub fn low_field_mobility_at(
    kind: DeviceKind,
    doping: PerCubicCentimeter,
    temperature: Temperature,
) -> f64 {
    let t_ratio = temperature.as_kelvin() / 300.0;
    low_field_mobility(kind, doping) * t_ratio.powf(-1.5)
}

/// Vertical-field (gate-overdrive) mobility degradation:
/// `μ_eff = μ₀ / (1 + θ·max(V_gs − V_th, 0))` with `θ ∝ 1/T_ox`.
///
/// The coefficient reproduces the familiar `θ ≈ 0.1–0.3 V⁻¹` range for
/// 1.5–2.5 nm oxides. Irrelevant in subthreshold (overdrive ≤ 0) where it
/// returns `μ₀` unchanged.
pub fn effective_mobility(mu0: f64, overdrive: Volts, t_ox: Nanometers) -> f64 {
    degraded_mobility(mu0, mobility_theta(t_ox), overdrive)
}

/// [`effective_mobility`] for an already evaluated coefficient
/// `θ = mobility_theta(t_ox)`, so per-bias callers skip its division.
pub fn degraded_mobility(mu0: f64, theta: f64, overdrive: Volts) -> f64 {
    mu0 / (1.0 + theta * overdrive.as_volts().max(0.0))
}

/// The vertical-field degradation coefficient `θ = 0.3 / max(T_ox, 0.5 nm)`
/// used by [`effective_mobility`] — exposed so analytic Jacobians can
/// differentiate the degradation term without re-deriving the constant.
pub fn mobility_theta(t_ox: Nanometers) -> f64 {
    0.3 / t_ox.get().max(0.5)
}

/// Saturation velocity in cm/s for the carrier type of `kind`.
pub fn saturation_velocity(kind: DeviceKind) -> f64 {
    match kind {
        DeviceKind::Nfet => V_SAT_N,
        DeviceKind::Pfet => V_SAT_P,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::uniform;
    use subvt_engine::rng::SplitMix64;

    #[test]
    fn electron_mobility_reference_points() {
        // At N = 1e17 (near N_ref) electron mobility ≈ 800 cm²/Vs.
        let mu = low_field_mobility(DeviceKind::Nfet, PerCubicCentimeter::new(1.0e17));
        assert!((mu - 790.0).abs() < 60.0, "got {mu}");
        // Heavy doping approaches mu_min.
        let mu = low_field_mobility(DeviceKind::Nfet, PerCubicCentimeter::new(1.0e20));
        assert!(mu < 110.0);
    }

    #[test]
    fn holes_slower_than_electrons() {
        for n in [1e15, 1e16, 1e17, 1e18, 1e19] {
            let d = PerCubicCentimeter::new(n);
            assert!(
                low_field_mobility(DeviceKind::Pfet, d) < low_field_mobility(DeviceKind::Nfet, d)
            );
        }
    }

    #[test]
    fn no_degradation_in_subthreshold() {
        let mu = effective_mobility(300.0, Volts::new(-0.2), Nanometers::new(2.1));
        assert_eq!(mu, 300.0);
    }

    #[test]
    fn degradation_grows_with_overdrive() {
        let t_ox = Nanometers::new(2.1);
        let a = effective_mobility(300.0, Volts::new(0.3), t_ox);
        let b = effective_mobility(300.0, Volts::new(0.8), t_ox);
        assert!(b < a && a < 300.0);
    }

    #[test]
    fn temperature_scaling_is_three_halves_power() {
        let n = PerCubicCentimeter::new(1.0e18);
        let base = low_field_mobility(DeviceKind::Nfet, n);
        let at_600 = low_field_mobility_at(DeviceKind::Nfet, n, Temperature::from_kelvin(600.0));
        assert!((at_600 / base - 8.0f64.sqrt().recip()).abs() < 1e-9);
        let at_300 = low_field_mobility_at(DeviceKind::Nfet, n, Temperature::room());
        assert!((at_300 - base).abs() < 1e-9);
    }

    #[test]
    fn mobility_monotone_decreasing_in_doping() {
        let mut rng = SplitMix64::new(0x3b10);
        for _ in 0..256 {
            let n = uniform(&mut rng, 1.0e14..1.0e20);
            let factor = uniform(&mut rng, 1.01..100.0);
            let lo = low_field_mobility(DeviceKind::Nfet, PerCubicCentimeter::new(n));
            let hi = low_field_mobility(DeviceKind::Nfet, PerCubicCentimeter::new(n * factor));
            assert!(hi <= lo, "N = {n:e}, factor {factor}");
        }
    }

    #[test]
    fn mobility_bounded() {
        let mut rng = SplitMix64::new(0x3b11);
        for _ in 0..256 {
            let n = uniform(&mut rng, 1.0e13..1.0e21);
            let mu = low_field_mobility(DeviceKind::Nfet, PerCubicCentimeter::new(n));
            assert!(mu > 80.0 && mu < 1400.0, "N = {n:e}: {mu}");
        }
    }
}
