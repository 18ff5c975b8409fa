//! The four-knob bulk-MOSFET description the paper scales —
//! `L_poly`, `T_ox`, `N_sub`, `N_p,halo` plus `V_dd` — and its compact
//! characterization: threshold components, subthreshold swing, leakage,
//! on-current, capacitances and intrinsic delay.

use subvt_units::{
    AmpsPerMicron, FaradsPerCm2, FaradsPerMicron, Nanometers, PerCubicCentimeter, Seconds,
    Temperature, Volts,
};

use crate::capacitance::{drain_capacitance, gate_capacitance};
use crate::electrostatics::{long_channel_vth, max_depletion_width, oxide_capacitance};
use crate::halo::{effective_channel_doping, HaloProfile};
use crate::iv::MosModel;
use crate::mobility::low_field_mobility_at;
use crate::sce::{dibl, sce_roll_off};
use crate::subthreshold::{off_current, specific_current};
use crate::swing::{inverse_subthreshold_slope, slope_factor};
use subvt_units::MilliVoltsPerDecade;

/// Carrier-type polarity of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// n-channel device (electron conduction, p-type body).
    Nfet,
    /// p-channel device (hole conduction, n-type body). Characterized in
    /// its own magnitude frame; sign handling lives in the circuit layer.
    Pfet,
}

impl core::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeviceKind::Nfet => write!(f, "NFET"),
            DeviceKind::Pfet => write!(f, "PFET"),
        }
    }
}

/// Physical dimensions of the device. Everything except `t_ox` scales with
/// the process generation; whether it tracks `l_poly` (super-V_th rule) or
/// the node pitch (sub-V_th rule) is decided by the scaling flows in
/// `subvt-core`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceGeometry {
    /// Physical (post-etch) gate length — the paper's `L_poly`.
    pub l_poly: Nanometers,
    /// Gate oxide thickness `T_ox`.
    pub t_ox: Nanometers,
    /// Gate/source-drain overlap per side; `L_eff = L_poly − 2·L_ov`.
    pub l_overlap: Nanometers,
    /// Source/drain junction depth `x_j`.
    pub x_j: Nanometers,
    /// Lateral standard deviation of each Gaussian halo pocket.
    pub halo_sigma: Nanometers,
}

impl DeviceGeometry {
    /// Effective (electrical) channel length `L_eff = L_poly − 2·L_ov`.
    ///
    /// # Panics
    ///
    /// Panics if the overlap consumes the whole gate.
    pub fn l_eff(&self) -> Nanometers {
        let l = self.l_poly.get() - 2.0 * self.l_overlap.get();
        assert!(
            l > 0.0,
            "overlap ({}) consumes the gate ({})",
            self.l_overlap,
            self.l_poly
        );
        Nanometers::new(l)
    }
}

/// Complete description of one transistor at one operating point — the
/// paper's §2.2 model: four scaling parameters plus `V_dd`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceParams {
    /// Polarity.
    pub kind: DeviceKind,
    /// Physical dimensions.
    pub geometry: DeviceGeometry,
    /// Uniform substrate (well) doping `N_sub`.
    pub n_sub: PerCubicCentimeter,
    /// Peak halo doping above substrate, `N_p,halo`.
    pub n_p_halo: PerCubicCentimeter,
    /// Source/drain doping (fixed at 1e20 cm⁻³ across generations).
    pub n_sd: PerCubicCentimeter,
    /// Nominal supply voltage.
    pub v_dd: Volts,
    /// Operating temperature.
    pub temperature: Temperature,
}

impl DeviceParams {
    /// The paper's reference 90 nm-class NFET (Table 2, 90 nm column):
    /// `L_poly = 65 nm`, `T_ox = 2.1 nm`, `N_sub = 1.52e18`,
    /// `N_p,halo = 2.11e18` (so `N_halo = 3.63e18`), `V_dd = 1.2 V`.
    ///
    /// # Examples
    ///
    /// ```
    /// use subvt_physics::device::DeviceParams;
    /// let dev = DeviceParams::reference_90nm_nfet();
    /// let ch = dev.characterize();
    /// assert!(ch.v_th_sat.as_volts() > 0.3 && ch.v_th_sat.as_volts() < 0.55);
    /// ```
    pub fn reference_90nm_nfet() -> Self {
        Self {
            kind: DeviceKind::Nfet,
            geometry: DeviceGeometry {
                l_poly: Nanometers::new(65.0),
                t_ox: Nanometers::new(2.1),
                l_overlap: Nanometers::new(10.0),
                x_j: Nanometers::new(30.0),
                halo_sigma: Nanometers::new(7.5),
            },
            n_sub: PerCubicCentimeter::new(1.52e18),
            n_p_halo: PerCubicCentimeter::new(2.11e18),
            n_sd: PerCubicCentimeter::new(1.0e20),
            v_dd: Volts::new(1.2),
            temperature: Temperature::room(),
        }
    }

    /// The halo profile implied by `n_p_halo` and the geometry.
    pub fn halo(&self) -> HaloProfile {
        HaloProfile::new(self.n_p_halo, self.geometry.halo_sigma)
    }

    /// Effective channel doping at this device's channel length.
    pub fn n_eff(&self) -> PerCubicCentimeter {
        effective_channel_doping(self.n_sub, &self.halo(), self.geometry.l_eff())
    }

    /// Runs the full compact characterization.
    pub fn characterize(&self) -> DeviceCharacteristics {
        characterize(self)
    }

    /// Builds the all-region I–V model for circuit simulation.
    pub fn mos_model(&self) -> MosModel {
        MosModel::from_device(self, &self.characterize())
    }
}

impl subvt_engine::Keyed for DeviceParams {
    /// The canonical cache-key field stream for a device: polarity plus
    /// every physical input the characterization depends on. All model
    /// backends (analytic and TCAD) key their caches through this one
    /// sequence.
    fn absorb(&self, kb: subvt_engine::KeyBuilder) -> subvt_engine::KeyBuilder {
        let geom = &self.geometry;
        kb.str(match self.kind {
            DeviceKind::Nfet => "nfet",
            DeviceKind::Pfet => "pfet",
        })
        .f64(geom.l_poly.get())
        .f64(geom.t_ox.get())
        .f64(geom.l_overlap.get())
        .f64(geom.x_j.get())
        .f64(geom.halo_sigma.get())
        .f64(self.n_sub.get())
        .f64(self.n_p_halo.get())
        .f64(self.n_sd.get())
        .f64(self.v_dd.as_volts())
        .f64(self.temperature.as_kelvin())
    }
}

/// Everything the scaling flows and circuit analyses need to know about a
/// characterized device. All currents and capacitances are per micron of
/// gate width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceCharacteristics {
    /// Effective channel length.
    pub l_eff: Nanometers,
    /// Effective channel doping (substrate + channel-averaged halo).
    pub n_eff: PerCubicCentimeter,
    /// Oxide capacitance per area.
    pub c_ox: FaradsPerCm2,
    /// Threshold-condition depletion width at `N_eff`.
    pub w_dep: Nanometers,
    /// Inverse subthreshold slope (paper Eq. 2b).
    pub s_s: MilliVoltsPerDecade,
    /// Subthreshold slope factor `m = S_S/(2.3·v_T)`.
    pub m: f64,
    /// Long-channel threshold with substrate doping only — the paper's
    /// `V_th0` before halo roll-up.
    pub v_th0: Volts,
    /// Linear-region threshold (`V_ds = 50 mV`), halo roll-up included.
    pub v_th_lin: Volts,
    /// Saturation threshold (`V_ds = V_dd`) — the paper's `V_th,sat`.
    pub v_th_sat: Volts,
    /// DIBL coefficient `∂V_th/∂V_ds` in V/V.
    pub dibl: f64,
    /// Low-field channel mobility at `N_eff`, cm²/Vs.
    pub mu0: f64,
    /// Eq. 1 prefactor `I₀` (current at `V_gs = V_th`).
    pub i0: AmpsPerMicron,
    /// Off-current at `V_gs = 0`, `V_ds = V_dd`.
    pub i_off: AmpsPerMicron,
    /// On-current at `V_gs = V_ds = V_dd` (all-region model, so valid for
    /// both nominal and subthreshold supplies).
    pub i_on: AmpsPerMicron,
    /// Gate capacitance per micron of width.
    pub c_g: FaradsPerMicron,
    /// Drain parasitic capacitance per micron of width.
    pub c_drain: FaradsPerMicron,
    /// Intrinsic delay `τ = C_g·V_dd/I_on`.
    pub tau: Seconds,
}

impl DeviceCharacteristics {
    /// On/off current ratio at the characterized supply.
    pub fn on_off_ratio(&self) -> f64 {
        self.i_on.get() / self.i_off.get()
    }
}

/// Characterizes a device with the compact model. See
/// [`DeviceParams::characterize`] for the ergonomic entry point.
pub fn characterize(params: &DeviceParams) -> DeviceCharacteristics {
    let geom = &params.geometry;
    let t = params.temperature;
    let l_eff = geom.l_eff();
    let n_eff = params.n_eff();
    let c_ox = oxide_capacitance(geom.t_ox);
    let w_dep = max_depletion_width(n_eff, t);
    let s_s = inverse_subthreshold_slope(l_eff, geom.t_ox, w_dep, t);
    let m = slope_factor(s_s, t);

    let v_th0 = long_channel_vth(params.n_sub, c_ox, t);
    let v_th_long_eff = long_channel_vth(n_eff, c_ox, t);
    let roll_lin = sce_roll_off(l_eff, geom.t_ox, n_eff, params.n_sd, Volts::new(0.05), t);
    let roll_sat = sce_roll_off(l_eff, geom.t_ox, n_eff, params.n_sd, params.v_dd, t);
    let v_th_lin = v_th_long_eff - roll_lin;
    let v_th_sat = v_th_long_eff - roll_sat;
    let dibl_coeff = dibl(l_eff, geom.t_ox, n_eff, t);

    let mu0 = low_field_mobility_at(params.kind, n_eff, t);
    let i0 = specific_current(l_eff, w_dep, mu0, t);
    let i_off = off_current(i0, v_th_sat, params.v_dd, m, t);

    let c_g = gate_capacitance(c_ox, geom.l_poly, geom.l_overlap, geom.t_ox);
    let c_drain = drain_capacitance(c_ox, geom.l_overlap, geom.x_j, geom.t_ox);

    let mut chars = DeviceCharacteristics {
        l_eff,
        n_eff,
        c_ox,
        w_dep,
        s_s,
        m,
        v_th0,
        v_th_lin,
        v_th_sat,
        dibl: dibl_coeff,
        mu0,
        i0,
        i_off,
        i_on: AmpsPerMicron::new(0.0),
        c_g,
        c_drain,
        tau: Seconds::new(0.0),
    };
    let model = MosModel::from_device(params, &chars);
    let i_on = model.drain_current(params.v_dd, params.v_dd);
    chars.i_on = i_on;
    chars.tau = Seconds::new(c_g.get() * params.v_dd.as_volts() / i_on.get().max(1e-30));
    chars
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::uniform;
    use subvt_engine::rng::SplitMix64;

    #[test]
    fn reference_90nm_matches_paper_scale() {
        let ch = DeviceParams::reference_90nm_nfet().characterize();
        // Paper Table 2 / Fig. 2 at 90 nm: V_th,sat = 403 mV,
        // I_off = 100 pA/µm, S_S ≈ 95 mV/dec. Our compact model should
        // land in the same regime (±25 % on V_th, order of magnitude on
        // I_off, ±15 mV/dec on S_S).
        assert!(
            (ch.v_th_sat.as_volts() - 0.40).abs() < 0.12,
            "V_th,sat = {}",
            ch.v_th_sat
        );
        assert!(
            ch.i_off.as_picoamps() > 5.0 && ch.i_off.as_picoamps() < 2000.0,
            "I_off = {} pA/µm",
            ch.i_off.as_picoamps()
        );
        assert!(
            ch.s_s.get() > 72.0 && ch.s_s.get() < 100.0,
            "S_S = {}",
            ch.s_s
        );
        // Nominal on-current in the LSTP range of hundreds of µA/µm.
        assert!(
            ch.i_on.as_microamps() > 100.0 && ch.i_on.as_microamps() < 1500.0,
            "I_on = {} µA/µm",
            ch.i_on.as_microamps()
        );
    }

    #[test]
    fn on_off_ratio_is_large_at_nominal_vdd() {
        let ch = DeviceParams::reference_90nm_nfet().characterize();
        assert!(ch.on_off_ratio() > 1.0e5);
    }

    #[test]
    fn pfet_is_slower_but_same_electrostatics() {
        let mut p = DeviceParams::reference_90nm_nfet();
        p.kind = DeviceKind::Pfet;
        let n = DeviceParams::reference_90nm_nfet().characterize();
        let pch = p.characterize();
        assert!(pch.i_on.get() < n.i_on.get());
        assert_eq!(pch.s_s, n.s_s);
        assert_eq!(pch.v_th_sat, n.v_th_sat);
    }

    #[test]
    fn vth_sat_below_vth_lin_via_dibl() {
        let ch = DeviceParams::reference_90nm_nfet().characterize();
        assert!(ch.v_th_sat < ch.v_th_lin);
        assert!(ch.dibl > 0.0 && ch.dibl < 0.5);
    }

    #[test]
    fn halo_raises_threshold() {
        let base = DeviceParams::reference_90nm_nfet();
        let mut no_halo = base;
        no_halo.n_p_halo = PerCubicCentimeter::new(1.0e10);
        let with = base.characterize();
        let without = no_halo.characterize();
        assert!(with.v_th_sat > without.v_th_sat);
    }

    #[test]
    fn keyed_stream_distinguishes_devices() {
        use subvt_engine::KeyBuilder;
        let p = DeviceParams::reference_90nm_nfet();
        let key = |p: &DeviceParams| KeyBuilder::new("t").keyed(p).finish();
        assert_eq!(key(&p), key(&p));
        let mut q = p;
        q.kind = DeviceKind::Pfet;
        assert_ne!(key(&p), key(&q));
        let mut q = p;
        q.n_p_halo = PerCubicCentimeter::new(3.0e18);
        assert_ne!(key(&p), key(&q));
    }

    #[test]
    fn l_eff_panics_when_overlap_eats_gate() {
        let mut p = DeviceParams::reference_90nm_nfet();
        p.geometry.l_overlap = Nanometers::new(40.0);
        let result = std::panic::catch_unwind(move || p.geometry.l_eff());
        assert!(result.is_err());
    }

    #[test]
    fn shorter_channel_degrades_swing() {
        let mut rng = SplitMix64::new(0xde10);
        for _ in 0..256 {
            let l_poly = uniform(&mut rng, 30.0..120.0);
            let mut a = DeviceParams::reference_90nm_nfet();
            a.geometry.l_poly = Nanometers::new(l_poly);
            let mut b = a;
            b.geometry.l_poly = Nanometers::new(l_poly * 1.3);
            assert!(
                a.characterize().s_s.get() >= b.characterize().s_s.get() - 1e-9,
                "L_poly = {l_poly}"
            );
        }
    }

    #[test]
    fn leakage_falls_with_substrate_doping() {
        let mut rng = SplitMix64::new(0xde11);
        for _ in 0..256 {
            let n_sub = uniform(&mut rng, 1.0e18..3.0e18);
            let mut a = DeviceParams::reference_90nm_nfet();
            a.n_sub = PerCubicCentimeter::new(n_sub);
            let mut b = a;
            b.n_sub = PerCubicCentimeter::new(n_sub * 1.5);
            assert!(
                b.characterize().i_off.get() < a.characterize().i_off.get(),
                "N_sub = {n_sub:e}"
            );
        }
    }

    #[test]
    fn characterization_is_finite() {
        let mut rng = SplitMix64::new(0xde12);
        for _ in 0..256 {
            let mut p = DeviceParams::reference_90nm_nfet();
            p.geometry.l_poly = Nanometers::new(uniform(&mut rng, 30.0..150.0));
            p.geometry.t_ox = Nanometers::new(uniform(&mut rng, 1.2..3.0));
            p.n_sub = PerCubicCentimeter::new(uniform(&mut rng, 5.0e17..5.0e18));
            p.v_dd = Volts::new(uniform(&mut rng, 0.15..1.3));
            let ch = p.characterize();
            let positive = |x: f64| x.is_finite() && x > 0.0;
            assert!(positive(ch.i_off.get()), "{p:?}");
            assert!(positive(ch.i_on.get()), "{p:?}");
            assert!(positive(ch.tau.get()), "{p:?}");
            assert!(ch.i_on.get() > ch.i_off.get(), "{p:?}");
        }
    }
}
