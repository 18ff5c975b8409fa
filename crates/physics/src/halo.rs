//! Halo (pocket) doping: a pair of Gaussian profiles at the source and
//! drain channel edges, superimposed on the uniform substrate doping —
//! the same construction the paper uses (its §2.2, after refs \[3\]\[12\]).
//!
//! For compact-model purposes the quantity that matters is the *effective
//! channel doping* `N_eff(L_eff)`: the average along the channel. For long
//! channels the halos are isolated bumps and `N_eff → N_sub`; as `L_eff`
//! shrinks the halos merge and `N_eff` rises toward `N_sub + N_p,halo`,
//! which is exactly the mechanism behind halo-induced threshold roll-up
//! (`ΔV_th,halo`) and the `S_S` degradation studied in the paper's Fig. 7.

use subvt_units::{Nanometers, PerCubicCentimeter};

use crate::math::erf;

/// A pair of lateral-Gaussian halo pockets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HaloProfile {
    /// Peak halo doping *above the substrate level* (the paper's
    /// `N_p,halo`; its `N_halo` is `N_sub + N_p,halo`).
    pub peak: PerCubicCentimeter,
    /// Lateral standard deviation of each Gaussian pocket.
    pub sigma: Nanometers,
}

impl HaloProfile {
    /// Creates a halo profile.
    ///
    /// # Panics
    ///
    /// Panics if `peak` is negative or `sigma` is not positive.
    pub fn new(peak: PerCubicCentimeter, sigma: Nanometers) -> Self {
        assert!(peak.get() >= 0.0, "halo peak must be non-negative");
        assert!(sigma.get() > 0.0, "halo sigma must be positive");
        Self { peak, sigma }
    }

    /// Local halo doping contribution at position `x` along a channel of
    /// length `l_eff` (pockets centred at `x = 0` and `x = l_eff`).
    pub fn local_density(&self, x: Nanometers, l_eff: Nanometers) -> PerCubicCentimeter {
        let s = self.sigma.get();
        let xs = x.get();
        let xd = l_eff.get() - x.get();
        let g = |d: f64| (-d * d / (2.0 * s * s)).exp();
        PerCubicCentimeter::new(self.peak.get() * (g(xs) + g(xd)))
    }

    /// Channel-average halo contribution for a channel of length `l_eff`:
    ///
    /// `⟨N_halo⟩ = (2·N_p·σ/L)·√(π/2)·erf(L/(σ·√2))`
    ///
    /// (the closed-form average of the two Gaussians over `[0, L]`).
    ///
    /// # Panics
    ///
    /// Panics if `l_eff` is not positive.
    pub fn channel_average(&self, l_eff: Nanometers) -> PerCubicCentimeter {
        assert!(l_eff.get() > 0.0, "channel length must be positive");
        let s = self.sigma.get();
        let l = l_eff.get();
        let avg = 2.0 * self.peak.get() * s / l
            * (core::f64::consts::PI / 2.0).sqrt()
            * erf(l / (s * core::f64::consts::SQRT_2));
        PerCubicCentimeter::new(avg)
    }
}

/// Effective channel doping `N_eff = N_sub + ⟨N_halo⟩(L_eff)`.
///
/// # Examples
///
/// ```
/// use subvt_physics::halo::{effective_channel_doping, HaloProfile};
/// use subvt_units::{Nanometers, PerCubicCentimeter};
///
/// let halo = HaloProfile::new(PerCubicCentimeter::new(2.0e18), Nanometers::new(7.5));
/// let short = effective_channel_doping(
///     PerCubicCentimeter::new(1.5e18), &halo, Nanometers::new(30.0));
/// let long = effective_channel_doping(
///     PerCubicCentimeter::new(1.5e18), &halo, Nanometers::new(300.0));
/// assert!(short.get() > long.get()); // halos merge at short L
/// ```
pub fn effective_channel_doping(
    n_sub: PerCubicCentimeter,
    halo: &HaloProfile,
    l_eff: Nanometers,
) -> PerCubicCentimeter {
    PerCubicCentimeter::new(n_sub.get() + halo.channel_average(l_eff).get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::trapz;
    use crate::prop::uniform;
    use subvt_engine::rng::SplitMix64;

    fn halo() -> HaloProfile {
        HaloProfile::new(PerCubicCentimeter::new(2.11e18), Nanometers::new(7.5))
    }

    #[test]
    fn long_channel_average_vanishes() {
        let avg = halo().channel_average(Nanometers::new(10_000.0));
        assert!(avg.get() < 0.01 * halo().peak.get());
    }

    #[test]
    fn short_channel_average_approaches_double_peak() {
        // When L ≪ σ the two pockets overlap fully: local density → 2·peak.
        let h = halo();
        let avg = h.channel_average(Nanometers::new(0.5));
        assert!(avg.get() > 1.9 * h.peak.get());
    }

    #[test]
    fn closed_form_matches_numerical_average() {
        let h = halo();
        for l in [15.0, 45.0, 75.0, 150.0] {
            let l_eff = Nanometers::new(l);
            let xs: Vec<f64> = (0..=400).map(|i| l * i as f64 / 400.0).collect();
            let ys: Vec<f64> = xs
                .iter()
                .map(|&x| h.local_density(Nanometers::new(x), l_eff).get())
                .collect();
            let numeric = trapz(&xs, &ys) / l;
            let closed = h.channel_average(l_eff).get();
            assert!(
                (closed / numeric - 1.0).abs() < 1e-3,
                "L = {l}: closed {closed:e} vs numeric {numeric:e}"
            );
        }
    }

    #[test]
    fn paper_90nm_effective_doping_ballpark() {
        // Paper Table 2 at 90 nm: N_sub = 1.52e18, N_halo = 3.63e18
        // (peak above substrate = 2.11e18). For L_eff ≈ 45 nm the channel
        // average lands mid-way: N_eff ≈ 2.2–2.6e18.
        let n_eff = effective_channel_doping(
            PerCubicCentimeter::new(1.52e18),
            &halo(),
            Nanometers::new(45.0),
        );
        assert!(
            n_eff.get() > 2.2e18 && n_eff.get() < 2.6e18,
            "got {n_eff:e}"
        );
    }

    #[test]
    fn average_monotone_decreasing_in_length() {
        let mut rng = SplitMix64::new(0x4a10);
        let h = halo();
        for _ in 0..256 {
            let l = uniform(&mut rng, 5.0..500.0);
            let factor = uniform(&mut rng, 1.05..10.0);
            let short = h.channel_average(Nanometers::new(l));
            let long = h.channel_average(Nanometers::new(l * factor));
            assert!(
                long.get() <= short.get() * (1.0 + 1e-12),
                "L = {l}, factor {factor}"
            );
        }
    }

    #[test]
    fn average_scales_linearly_with_peak() {
        let mut rng = SplitMix64::new(0x4a11);
        let sigma = Nanometers::new(6.0);
        for _ in 0..256 {
            let l = Nanometers::new(uniform(&mut rng, 10.0..300.0));
            let peak = uniform(&mut rng, 1.0e17..1.0e19);
            let h1 = HaloProfile::new(PerCubicCentimeter::new(peak), sigma);
            let h2 = HaloProfile::new(PerCubicCentimeter::new(2.0 * peak), sigma);
            let a1 = h1.channel_average(l).get();
            let a2 = h2.channel_average(l).get();
            assert!((a2 / a1 - 2.0).abs() < 1e-9, "L = {l}, peak {peak:e}");
        }
    }

    #[test]
    fn effective_doping_bounded() {
        let mut rng = SplitMix64::new(0x4a12);
        let h = halo();
        for _ in 0..256 {
            let l = uniform(&mut rng, 5.0..1000.0);
            let n_sub = PerCubicCentimeter::new(uniform(&mut rng, 5.0e17..5.0e18));
            let n_eff = effective_channel_doping(n_sub, &h, Nanometers::new(l));
            assert!(n_eff.get() >= n_sub.get(), "L = {l}, {n_sub:e}");
            assert!(
                n_eff.get() <= n_sub.get() + 2.0 * h.peak.get() * (1.0 + 1e-9),
                "L = {l}, {n_sub:e}"
            );
        }
    }
}
