//! All-region compact I–V model for circuit simulation.
//!
//! EKV-style interpolation `I = I_spec·[F(u_f) − F(u_r)]` with
//! `F(v) = ln²(1+e^{v/2})`, anchored so the weak-inversion limit is
//! *exactly* the paper's Eq. 1 (the anchor shift `δ` absorbs the
//! prefactor mismatch between the EKV specific current and Eq. 1's
//! `μ·C_d·v_T²` form). Strong inversion adds vertical-field mobility
//! degradation and a velocity-saturation factor.
//!
//! The model is source-referenced and polarity-free: callers pass
//! *magnitude-frame* `v_gs`/`v_ds` (the circuit layer maps PFET node
//! voltages into this frame). Currents are per micron of width.

use subvt_units::{AmpsPerMicron, Nanometers, Volts};

use crate::device::{DeviceCharacteristics, DeviceKind, DeviceParams};
use crate::math::{ekv_f, ekv_f_with_prime};
use crate::mobility::{degraded_mobility, mobility_theta, saturation_velocity};

/// All-region MOSFET I–V model, width-normalized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosModel {
    /// Polarity this model was built for (affects mobility and v_sat).
    pub kind: DeviceKind,
    /// Linear-region threshold voltage (`V_ds = 50 mV` reference).
    pub v_th_lin: Volts,
    /// DIBL coefficient, V/V.
    pub dibl: f64,
    /// Subthreshold slope factor.
    pub m: f64,
    /// Eq. 1 prefactor `I₀` (weak-inversion anchor).
    pub i0: AmpsPerMicron,
    /// Low-field mobility, cm²/Vs.
    pub mu0: f64,
    /// Oxide capacitance, F/cm².
    pub c_ox_f_per_cm2: f64,
    /// Effective channel length.
    pub l_eff: Nanometers,
    /// Oxide thickness (for the mobility-degradation coefficient).
    pub t_ox: Nanometers,
    /// Thermal voltage, V.
    pub v_t: f64,
    /// Reference `V_ds` at which `v_th_lin` is defined.
    pub v_ds_ref: Volts,
}

impl MosModel {
    /// Builds the model from a parameter set and its characterization.
    pub fn from_device(params: &DeviceParams, chars: &DeviceCharacteristics) -> Self {
        Self {
            kind: params.kind,
            v_th_lin: chars.v_th_lin,
            dibl: chars.dibl,
            m: chars.m,
            i0: chars.i0,
            mu0: chars.mu0,
            c_ox_f_per_cm2: chars.c_ox.get(),
            l_eff: chars.l_eff,
            t_ox: params.geometry.t_ox,
            v_t: params.temperature.thermal_voltage().as_volts(),
            v_ds_ref: Volts::new(0.05),
        }
    }

    /// Bias-dependent threshold including DIBL:
    /// `V_th(V_ds) = V_th,lin − DIBL·(V_ds − V_ds,ref)`.
    pub fn v_th(&self, v_ds: Volts) -> Volts {
        Volts::new(
            self.v_th_lin.as_volts()
                - self.dibl * (v_ds.as_volts() - self.v_ds_ref.as_volts()).max(0.0),
        )
    }

    /// EKV specific current `I_spec = 2·m·μ·C_ox·v_T²·(W/L_eff)` per µm
    /// of width, at low-field mobility.
    pub fn i_spec(&self) -> f64 {
        let w_over_l = 1.0e-4 / self.l_eff.as_cm();
        2.0 * self.m * self.mu0 * self.c_ox_f_per_cm2 * self.v_t * self.v_t * w_over_l
    }

    /// The weak-inversion anchor shift `δ = m·v_T·ln(I_spec/I₀)`, which
    /// makes the EKV weak-inversion limit coincide with Eq. 1.
    pub fn anchor_shift(&self) -> f64 {
        self.m * self.v_t * (self.i_spec() / self.i0.get()).ln()
    }

    /// Drain current at magnitude-frame biases (`v_gs`, `v_ds ≥ 0`).
    ///
    /// Smooth and monotone in both arguments; negative `v_ds` is handled
    /// by channel symmetry (returns negative current). Evaluates the
    /// bias-independent terms on every call; callers that evaluate one
    /// device at many biases hold a [`PreparedMos`] instead.
    pub fn drain_current(&self, v_gs: Volts, v_ds: Volts) -> AmpsPerMicron {
        PreparedMos::new(self).drain_current(v_gs, v_ds)
    }

    /// Drain current plus its analytic partial derivatives
    /// `(I, ∂I/∂V_gs, ∂I/∂V_ds)` at magnitude-frame biases; see
    /// [`PreparedMos::drain_current_and_derivs`].
    pub fn drain_current_and_derivs(&self, v_gs: Volts, v_ds: Volts) -> (AmpsPerMicron, f64, f64) {
        PreparedMos::new(self).drain_current_and_derivs(v_gs, v_ds)
    }

    /// Transconductance `∂I_d/∂V_gs` by central difference, A/(µm·V).
    pub fn gm(&self, v_gs: Volts, v_ds: Volts) -> f64 {
        let h = 1.0e-5;
        let hi = self.drain_current(Volts::new(v_gs.as_volts() + h), v_ds);
        let lo = self.drain_current(Volts::new(v_gs.as_volts() - h), v_ds);
        (hi.get() - lo.get()) / (2.0 * h)
    }

    /// Output conductance `∂I_d/∂V_ds` by central difference, A/(µm·V).
    pub fn gds(&self, v_gs: Volts, v_ds: Volts) -> f64 {
        let h = 1.0e-5;
        let hi = self.drain_current(v_gs, Volts::new(v_ds.as_volts() + h));
        let lo = self.drain_current(v_gs, Volts::new(v_ds.as_volts() - h));
        (hi.get() - lo.get()) / (2.0 * h)
    }
}

/// A [`MosModel`] with its bias-independent terms evaluated once: the
/// anchor shift `δ`, `m·v_T`, `I_spec`, the mobility-degradation
/// coefficient `θ`, the saturation velocity and `E0 = 2·v_sat·L_eff/μ₀`.
///
/// This is where the I–V expression sequence lives; the [`MosModel`]
/// entry points prepare one per call and delegate here. Each constant is
/// computed by the expression the model always used, so a prepared
/// evaluation is bit-identical to an unprepared one. Circuit solvers
/// prepare one per device and evaluate it at every Newton iterate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreparedMos {
    model: MosModel,
    delta: f64,
    mvt: f64,
    i_spec: f64,
    theta: f64,
    v_sat: f64,
    e0: f64,
}

/// The bias-dependent terms shared by the value and derivative paths.
struct BiasTerms {
    v_th: f64,
    u_f: f64,
    u_r: f64,
    overdrive: f64,
    i_spec_eff: f64,
    e_c_l: f64,
    v_dsat: f64,
    v_ds_eff: f64,
    f_sat: f64,
}

impl PreparedMos {
    /// Evaluates the bias-independent terms of `model`.
    pub fn new(model: &MosModel) -> Self {
        let v_sat = saturation_velocity(model.kind);
        Self {
            model: *model,
            delta: model.anchor_shift(),
            mvt: model.m * model.v_t,
            i_spec: model.i_spec(),
            theta: mobility_theta(model.t_ox),
            v_sat,
            e0: 2.0 * v_sat * model.l_eff.as_cm() / model.mu0,
        }
    }

    /// The terms of the current at `v_ds ≥ 0`, before the EKV function.
    fn bias_terms(&self, v_gs: f64, v_ds: f64) -> BiasTerms {
        let m = &self.model;
        let v_th = m.v_th(Volts::new(v_ds)).as_volts();
        let u_f = (v_gs - v_th - self.delta) / self.mvt;
        let u_r = u_f - v_ds / m.v_t;
        let overdrive = (v_gs - v_th).max(0.0);
        let mu_eff = degraded_mobility(m.mu0, self.theta, Volts::new(overdrive));
        let i_spec_eff = self.i_spec * mu_eff / m.mu0;

        // Velocity saturation: critical field E_c = 2·v_sat/μ_eff. The
        // degradation freezes at V_dsat = V_ov/(1 + V_ov/E_c·L) — below
        // the triode-peak voltage — which keeps I(V_ds) monotone while
        // leaving subthreshold operation (V_ov ≤ 0) untouched.
        let e_c_l = 2.0 * self.v_sat / mu_eff * m.l_eff.as_cm();
        let v_dsat = overdrive / (1.0 + overdrive / e_c_l);
        let v_ds_eff = v_ds.min(v_dsat);
        let f_sat = 1.0 / (1.0 + (v_ds_eff / e_c_l).max(0.0));
        BiasTerms {
            v_th,
            u_f,
            u_r,
            overdrive,
            i_spec_eff,
            e_c_l,
            v_dsat,
            v_ds_eff,
            f_sat,
        }
    }

    /// Drain current at magnitude-frame biases; see
    /// [`MosModel::drain_current`].
    pub fn drain_current(&self, v_gs: Volts, v_ds: Volts) -> AmpsPerMicron {
        let (v_gs, v_ds) = (v_gs.as_volts(), v_ds.as_volts());
        if v_ds < 0.0 {
            // Source/drain symmetry: swap terminals.
            let swapped = self.drain_current(Volts::new(v_gs - v_ds), Volts::new(-v_ds));
            return AmpsPerMicron::new(-swapped.get());
        }
        let t = self.bias_terms(v_gs, v_ds);
        let i_dd = t.i_spec_eff * (ekv_f(t.u_f) - ekv_f(t.u_r));
        AmpsPerMicron::new(i_dd * t.f_sat)
    }

    /// Drain current plus its analytic partial derivatives
    /// `(I, ∂I/∂V_gs, ∂I/∂V_ds)` at magnitude-frame biases.
    ///
    /// The current is computed through the exact operation sequence of
    /// [`PreparedMos::drain_current`], so the value component is
    /// bit-for-bit identical to it — circuit residuals assembled from
    /// either entry point agree exactly. The derivatives are the chain
    /// rule applied to every smooth factor; at the model's kinks (the
    /// `max`/`min` clamps on DIBL, overdrive, and `V_dsat`) the one-sided
    /// derivative of the active branch is returned, matching what a
    /// forward difference converges to from inside the branch.
    pub fn drain_current_and_derivs(&self, v_gs: Volts, v_ds: Volts) -> (AmpsPerMicron, f64, f64) {
        let (v_gs, v_ds) = (v_gs.as_volts(), v_ds.as_volts());
        if v_ds < 0.0 {
            // Source/drain symmetry: I(g, d) = −J(g − d, −d), so
            // ∂I/∂g = −J_g and ∂I/∂d = J_g + J_d.
            let (swapped, j_g, j_d) =
                self.drain_current_and_derivs(Volts::new(v_gs - v_ds), Volts::new(-v_ds));
            return (AmpsPerMicron::new(-swapped.get()), -j_g, j_g + j_d);
        }

        // Value path: the terms and EKV values `drain_current` uses.
        let BiasTerms {
            v_th,
            u_f,
            u_r,
            overdrive,
            i_spec_eff,
            e_c_l,
            v_dsat,
            v_ds_eff,
            f_sat,
        } = self.bias_terms(v_gs, v_ds);
        let (ff, ffp) = ekv_f_with_prime(u_f);
        let (fr, frp) = ekv_f_with_prime(u_r);
        let i_dd = i_spec_eff * (ff - fr);
        let current = AmpsPerMicron::new(i_dd * f_sat);

        // Derivative path (pure chain rule; does not perturb the value
        // computation above).
        let m = &self.model;
        let mvt = self.mvt;
        let dref = m.v_ds_ref.as_volts();
        // V_th(V_ds) = V_th,lin − DIBL·max(V_ds − V_ds,ref, 0).
        let dvth_dd = if v_ds > dref { -m.dibl } else { 0.0 };
        let uf_g = 1.0 / mvt;
        let uf_d = -dvth_dd / mvt;
        let ur_g = uf_g;
        let ur_d = uf_d - 1.0 / m.v_t;
        // Overdrive clamp: derivative active only above threshold.
        let ov_active = v_gs - v_th > 0.0;
        let ov_g = if ov_active { 1.0 } else { 0.0 };
        let ov_d = if ov_active { -dvth_dd } else { 0.0 };
        // μ_eff = μ₀/D with D = 1 + θ·overdrive.
        let theta = self.theta;
        let denom = 1.0 + theta * overdrive;
        let ispec = self.i_spec;
        let ispec_eff_g = -ispec * theta * ov_g / (denom * denom);
        let ispec_eff_d = -ispec * theta * ov_d / (denom * denom);
        let i_dd_g = ispec_eff_g * (ff - fr) + i_spec_eff * (ffp * uf_g - frp * ur_g);
        let i_dd_d = ispec_eff_d * (ff - fr) + i_spec_eff * (ffp * uf_d - frp * ur_d);
        // E_c·L = E0·D grows as mobility degrades.
        let ecl_g = self.e0 * theta * ov_g;
        let ecl_d = self.e0 * theta * ov_d;
        // V_dsat = ov·E/(E + ov) → quotient rule.
        let sum = e_c_l + overdrive;
        let vdsat_g = (ov_g * e_c_l * e_c_l + overdrive * overdrive * ecl_g) / (sum * sum);
        let vdsat_d = (ov_d * e_c_l * e_c_l + overdrive * overdrive * ecl_d) / (sum * sum);
        // V_ds,eff = min(V_ds, V_dsat): whichever branch is active wins.
        let (veff_g, veff_d) = if v_ds < v_dsat {
            (0.0, 1.0)
        } else {
            (vdsat_g, vdsat_d)
        };
        // f_sat = 1/S with S = 1 + V_ds,eff/E_c·L (V_ds,eff ≥ 0 here).
        let s = 1.0 + v_ds_eff / e_c_l;
        let fsat_g = -(veff_g * e_c_l - v_ds_eff * ecl_g) / (e_c_l * e_c_l) / (s * s);
        let fsat_d = -(veff_d * e_c_l - v_ds_eff * ecl_d) / (e_c_l * e_c_l) / (s * s);
        let di_dg = i_dd_g * f_sat + i_dd * fsat_g;
        let di_dd = i_dd_d * f_sat + i_dd * fsat_d;
        (current, di_dg, di_dd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subthreshold::subthreshold_current;
    use subvt_engine::rng::SplitMix64;
    use subvt_units::Temperature;

    fn model() -> MosModel {
        let p = DeviceParams::reference_90nm_nfet();
        MosModel::from_device(&p, &p.characterize())
    }

    /// The PFET mirror of [`model`]: the reference device with its
    /// polarity flipped.
    fn pfet_model() -> MosModel {
        let p = DeviceParams {
            kind: DeviceKind::Pfet,
            ..DeviceParams::reference_90nm_nfet()
        };
        MosModel::from_device(&p, &p.characterize())
    }

    #[test]
    fn weak_inversion_matches_eq1() {
        // Deep in subthreshold the EKV interpolation must reproduce the
        // paper's Eq. 1 within a fraction of a percent.
        let m = model();
        let t = Temperature::room();
        let p = DeviceParams::reference_90nm_nfet();
        let ch = p.characterize();
        for (vgs, vds) in [(0.0, 0.25), (0.1, 0.25), (0.2, 0.1), (0.15, 0.05)] {
            let v_th = m.v_th(Volts::new(vds));
            let eq1 = subthreshold_current(ch.i0, Volts::new(vgs), Volts::new(vds), v_th, ch.m, t);
            let ekv = m.drain_current(Volts::new(vgs), Volts::new(vds));
            assert!(
                (ekv.get() / eq1.get() - 1.0).abs() < 0.02,
                "vgs={vgs} vds={vds}: ekv {:.3e} vs eq1 {:.3e}",
                ekv.get(),
                eq1.get()
            );
        }
    }

    #[test]
    fn strong_inversion_current_is_hundreds_of_microamps() {
        let m = model();
        let ion = m.drain_current(Volts::new(1.2), Volts::new(1.2));
        assert!(
            ion.as_microamps() > 100.0 && ion.as_microamps() < 1500.0,
            "got {} µA/µm",
            ion.as_microamps()
        );
    }

    #[test]
    fn current_is_antisymmetric_in_vds() {
        let m = model();
        // Swapping source and drain with the gate bias adjusted must
        // mirror the current (channel symmetry in weak inversion, where
        // the model is exactly symmetric).
        let i_fwd = m.drain_current(Volts::new(0.2), Volts::new(0.15));
        let i_rev = m.drain_current(Volts::new(0.05), Volts::new(-0.15));
        assert!(i_rev.get() < 0.0);
        assert!((i_fwd.get() + i_rev.get()).abs() < 0.05 * i_fwd.get().abs());
    }

    #[test]
    fn zero_vds_means_zero_current() {
        let m = model();
        let i = m.drain_current(Volts::new(0.5), Volts::new(0.0));
        assert!(i.get().abs() < 1e-15);
    }

    #[test]
    fn gm_positive_and_peaks_above_threshold() {
        let m = model();
        let sub = m.gm(Volts::new(0.2), Volts::new(1.0));
        let strong = m.gm(Volts::new(1.0), Volts::new(1.0));
        assert!(sub > 0.0 && strong > sub);
    }

    #[test]
    fn saturation_flattens_output_curve() {
        let m = model();
        let g_lin = m.gds(Volts::new(1.2), Volts::new(0.05));
        let g_sat = m.gds(Volts::new(1.2), Volts::new(1.0));
        assert!(g_sat < 0.3 * g_lin);
    }

    #[test]
    fn derivs_value_is_bitwise_identical_to_drain_current() {
        // A grid through every branch, then fixed-seed random biases.
        let grid = [-0.2, 0.0, 0.15, 0.25, 0.4, 0.8, 1.2]
            .into_iter()
            .flat_map(|vgs| [-1.2, -0.3, 0.0, 0.05, 0.125, 0.25, 0.6, 1.2].map(|vds| (vgs, vds)));
        let mut rng = SplitMix64::new(0x1d5f);
        let random: Vec<(f64, f64)> = (0..4096)
            .map(|_| (-0.5 + 2.0 * rng.next_f64(), -1.4 + 2.8 * rng.next_f64()))
            .collect();
        let biases: Vec<(f64, f64)> = grid.chain(random).collect();
        for m in [model(), pfet_model()] {
            let prepared = PreparedMos::new(&m);
            for &(vgs, vds) in &biases {
                let (v_gs, v_ds) = (Volts::new(vgs), Volts::new(vds));
                let plain = m.drain_current(v_gs, v_ds).get().to_bits();
                let (with_derivs, _, _) = m.drain_current_and_derivs(v_gs, v_ds);
                assert_eq!(with_derivs.get().to_bits(), plain, "vgs={vgs} vds={vds}");
                let prepared_value = prepared.drain_current(v_gs, v_ds).get().to_bits();
                assert_eq!(prepared_value, plain, "vgs={vgs} vds={vds}");
            }
        }
    }

    #[test]
    fn analytic_derivs_match_central_differences() {
        // Validate the chain rule against the existing central-difference
        // gm/gds across weak inversion, moderate inversion, strong
        // inversion, triode, saturation, and the reversed-channel branch.
        // Bias points sit away from the model's clamp kinks, where the
        // one-sided analytic derivative and a symmetric difference would
        // legitimately disagree.
        let m = model();
        for (vgs, vds) in [
            (0.1, 0.25),
            (0.2, 0.07),
            (0.25, 0.3),
            (0.45, 0.6),
            (0.8, 0.04),
            (0.8, 0.9),
            (1.2, 0.3),
            (1.2, 1.2),
            (0.2, -0.2),
            (0.9, -0.5),
        ] {
            let (i, di_dg, di_dd) = m.drain_current_and_derivs(Volts::new(vgs), Volts::new(vds));
            let gm = m.gm(Volts::new(vgs), Volts::new(vds));
            let gds = m.gds(Volts::new(vgs), Volts::new(vds));
            // Central differences carry O(h²) truncation plus cancellation
            // noise relative to the local conductance scale.
            let scale = gm.abs().max(gds.abs()).max(1e-12);
            assert!(
                (di_dg - gm).abs() <= 1e-4 * scale + 1e-12,
                "gm at vgs={vgs} vds={vds}: analytic {di_dg:e} vs numeric {gm:e} (I={:e})",
                i.get()
            );
            assert!(
                (di_dd - gds).abs() <= 1e-4 * scale + 1e-12,
                "gds at vgs={vgs} vds={vds}: analytic {di_dd:e} vs numeric {gds:e}"
            );
        }
    }

    /// `(v_gs, v_ds, I, ∂I/∂V_gs, ∂I/∂V_ds)` with the three outputs as
    /// `f64::to_bits`. The first four rows put `u_f/2` just above 35,
    /// just below 35, just below −35 and just above −35 (the `softplus`
    /// branch edges; the last two also put `u_r/2` below −35), then
    /// negative `V_ds`, `V_ds = V_ds,ref`, `V_gs = V_th(V_ds)` (the
    /// overdrive clamp), sub-V_th, strong-inversion saturation and
    /// triode, and `V_ds = 0`.
    type Golden = (f64, f64, u64, u64, u64);

    #[rustfmt::skip]
    const NFET_GOLDEN: [Golden; 12] = [
        (2.9663440012362448, 1.2, 0x3f7521fca0ea3a8d, 0x3f63d3e571cb8401, 0x3f634a8a81a12ee1),
        (2.966343857806217, 1.2, 0x3f7521fc890f053e, 0x3f63d3e57cd76dde, 0x3f634a8a556398ab),
        (-1.9837906145244173, 0.3, 0x3899113a1024994a, 0x38e5d8a556597790, 0x38ab289191bbdabb),
        (-1.9837904710943894, 0.3, 0x38991140a2624296, 0x38e5d8ab106e538d, 0x38ab2898b04fc4dd),
        (0.2, -0.15, 0xbe6f58d4d3bc2855, 0xbeba60d920dd21e4, 0x3ebc8cce3100e730),
        (1.0, -0.6, 0xbf55670e7d7c4388, 0xbf5b270e154fa75c, 0x3f657337c970471e),
        (0.3, 0.05, 0x3e4641d024d9b42d, 0x3e930ead89574f1e, 0x3e727f8a39577949),
        (0.4196324771174521, 0.6, 0x3ead830fe72c5ea1, 0x3ef683de5dfc4004, 0x3ebbfc425b5d8628),
        (0.25, 0.25, 0x3e34366562cdf332, 0x3e8170e3b580b800, 0x3e45b41f88891f78),
        (1.2, 1.2, 0x3f46c0bd7b340427, 0x3f5b6b985271c13b, 0x3f210a89de08157b),
        (1.2, 0.1, 0x3f324b5b246444a2, 0x3f3d32134fa0bce0, 0x3f60547437094ac8),
        (0.4, 0.0, 0x0000000000000000, 0x0000000000000000, 0x3edb82d8f39f6b20),
    ];

    #[rustfmt::skip]
    const PFET_GOLDEN: [Golden; 12] = [
        (2.9663440012362448, 1.2, 0x3f68d84a9f190fe8, 0x3f571523fc399a98, 0x3f56a97f745a93c2),
        (2.966343857806217, 1.2, 0x3f68d84a83534ffa, 0x3f57152409682efb, 0x3f56a97f409670a6),
        (-1.9837906145244173, 0.3, 0x388cc7f404b089b6, 0x38d915356fdc27f1, 0x389f2e9b6aa6a88b),
        (-1.9837904710943894, 0.3, 0x388cc7fb90287e9b, 0x38d9153c03250a69, 0x389f2ea3973f6c20),
        (0.2, -0.15, 0xbe61fedd2c98fc9e, 0xbeae494c2f0b2df2, 0x3eb063cf82a42b36),
        (1.0, -0.6, 0xbf496f1c2e64ad5c, 0xbf4ff46f6c296440, 0x3f59527c2a72d156),
        (0.3, 0.05, 0x3e398df4eac8db6f, 0x3e85e176feeb4636, 0x3e653d1ee52eb29c),
        (0.4196324771174521, 0.6, 0x3ea0f12e4036718c, 0x3ee9d9cc6d695ea6, 0x3eb010d47e332b52),
        (0.25, 0.25, 0x3e2734fe89da1c24, 0x3e74065f6de99e59, 0x3e38eb467054d3c2),
        (1.2, 1.2, 0x3f3b2c4f0e77a352, 0x3f5044530392b342, 0x3f143816d9820450),
        (1.2, 0.1, 0x3f25ee8edbde4fa8, 0x3f3172f59ebe7d4a, 0x3f54915d073f34c6),
        (0.4, 0.0, 0x0000000000000000, 0x0000000000000000, 0x3ecf9642cd32a2fe),
    ];

    #[test]
    fn current_and_derivs_keep_their_bits() {
        let golden_biases_sit_on_the_edges = |m: &MosModel, golden: &[Golden]| {
            let half_u_f = |vgs: f64, vds: f64| {
                let v_th = m.v_th(Volts::new(vds)).as_volts();
                (vgs - v_th - m.anchor_shift()) / (m.m * m.v_t) / 2.0
            };
            let [a, b, c, d, ..] = golden else {
                unreachable!()
            };
            assert!(half_u_f(a.0, a.1) > 35.0 && half_u_f(b.0, b.1) < 35.0);
            assert!(half_u_f(c.0, c.1) < -35.0 && half_u_f(d.0, d.1) > -35.0);
            assert_eq!(golden[7].0, m.v_th(Volts::new(golden[7].1)).as_volts());
        };
        for (m, golden) in [(model(), &NFET_GOLDEN), (pfet_model(), &PFET_GOLDEN)] {
            golden_biases_sit_on_the_edges(&m, golden);
            let prepared = PreparedMos::new(&m);
            for &(vgs, vds, i, dg, dd) in golden {
                let (v_gs, v_ds) = (Volts::new(vgs), Volts::new(vds));
                let value = m.drain_current(v_gs, v_ds).get().to_bits();
                assert_eq!(value, i, "value {:?} at vgs={vgs} vds={vds}", m.kind);
                for (got, how) in [
                    (m.drain_current_and_derivs(v_gs, v_ds), "model"),
                    (prepared.drain_current_and_derivs(v_gs, v_ds), "prepared"),
                ] {
                    let bits = (got.0.get().to_bits(), got.1.to_bits(), got.2.to_bits());
                    assert_eq!(
                        bits,
                        (i, dg, dd),
                        "{how} {:?} at vgs={vgs} vds={vds}",
                        m.kind
                    );
                }
            }
        }
    }

    #[test]
    fn monotone_in_vgs() {
        let m = model();
        let vds = Volts::new(0.6);
        let mut rng = SplitMix64::new(0x6a5e);
        for _ in 0..1024 {
            let vgs = 1.2 * rng.next_f64();
            let dv = 1e-3 + (0.2 - 1e-3) * rng.next_f64();
            let a = m.drain_current(Volts::new(vgs), vds);
            let b = m.drain_current(Volts::new(vgs + dv), vds);
            assert!(b.get() > a.get(), "I falls from vgs={vgs} to {}", vgs + dv);
        }
    }

    #[test]
    fn monotone_in_vds() {
        let m = model();
        let vgs = Volts::new(0.8);
        let mut rng = SplitMix64::new(0x6a5f);
        for _ in 0..1024 {
            let vds = 1.2 * rng.next_f64();
            let dv = 1e-3 + (0.2 - 1e-3) * rng.next_f64();
            let a = m.drain_current(vgs, Volts::new(vds));
            let b = m.drain_current(vgs, Volts::new(vds + dv));
            assert!(
                b.get() >= a.get() * (1.0 - 1e-9),
                "I falls from vds={vds} to {}",
                vds + dv
            );
        }
    }

    #[test]
    fn current_finite_over_operating_box() {
        let m = model();
        let mut rng = SplitMix64::new(0xf1e7);
        for _ in 0..4096 {
            let vgs = -0.3 + 1.7 * rng.next_f64();
            let vds = -1.4 + 2.8 * rng.next_f64();
            let i = m.drain_current(Volts::new(vgs), Volts::new(vds));
            assert!(i.get().is_finite(), "I({vgs}, {vds}) = {}", i.get());
        }
    }
}
