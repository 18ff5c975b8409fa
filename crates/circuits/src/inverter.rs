//! CMOS inverter construction and voltage-transfer characteristics.
//!
//! Two VTC engines are provided:
//!
//! * [`Inverter::vtc`] — the SPICE engine: a DC sweep of the full MNA
//!   system with the all-region device model (works at any supply).
//! * [`analytic_vtc`] — the paper's Eq. 3(b): the closed-form
//!   weak-inversion VTC obtained by equating NFET and PFET Eq. 1
//!   currents (valid for sub-V_th supplies), used to cross-check the
//!   simulator.

use crate::topology::{CellSpec, Testbench};
use subvt_engine::trace;
use subvt_model::{DeviceModel, ModelError};
use subvt_physics::device::{DeviceCharacteristics, DeviceKind, DeviceParams};
use subvt_physics::iv::MosModel;
use subvt_physics::math::{bisect, linspace};
use subvt_spice::mna::SpiceError;
use subvt_spice::netlist::{Netlist, NodeId};
use subvt_units::{Temperature, Volts};

/// A complementary device pair with widths — the unit cell every analysis
/// in this crate is built from.
///
/// Characterizations are produced lazily through the pair's
/// [`DeviceModel`] backend (analytic unless built with
/// [`CmosPair::balanced_with`] or [`CmosPair::from_parts`]), so mutating
/// the public device fields — e.g. re-biasing via [`CmosPair::at_supply`]
/// or skewing a polarity in a study — can never leave stale
/// characteristics behind.
#[derive(Debug, Clone, Copy)]
pub struct CmosPair {
    /// The n-channel device.
    pub nfet: DeviceParams,
    /// The p-channel device.
    pub pfet: DeviceParams,
    /// NFET width in microns.
    pub wn_um: f64,
    /// PFET width in microns.
    pub wp_um: f64,
    model: &'static dyn DeviceModel,
}

impl PartialEq for CmosPair {
    fn eq(&self, other: &Self) -> bool {
        self.nfet == other.nfet
            && self.pfet == other.pfet
            && self.wn_um == other.wn_um
            && self.wp_um == other.wp_um
            && self.model.cache_id() == other.model.cache_id()
    }
}

/// How a [`CmosPair::balanced_with`] sizing computation arrived at its
/// P/N width ratio.
///
/// The balancing rule wants `W_p/W_n = I₀_n/I₀_p` (Eq. 3(c) symmetry),
/// but the implementable layout range is bounded: the ratio is applied
/// within [`BalanceReport::RATIO_RANGE`]. A target outside that range is
/// clamped to the nearest bound and reported here — the pair is then
/// *not* strength-balanced, and callers that care (skew studies, strongly
/// asymmetric backends) must check [`BalanceReport::clamped`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalanceReport {
    /// The width ratio `I₀_n/I₀_p` the devices ask for.
    pub target_ratio: f64,
    /// The width ratio actually applied (`wp_um / wn_um`).
    pub applied_ratio: f64,
    /// Whether the target fell outside the implementable range.
    pub clamped: bool,
}

impl BalanceReport {
    /// Implementable P/N width-ratio range `[min, max]`.
    pub const RATIO_RANGE: (f64, f64) = (1.0, 4.0);
}

impl CmosPair {
    /// Builds a pair from an NFET description, deriving the PFET by
    /// polarity flip and sizing it so the subthreshold drive strengths
    /// balance (`W_p·I₀_p ≈ W_n·I₀_n`) — the symmetric-VTC condition the
    /// paper assumes in Eq. 3(c). Evaluated with the analytic backend.
    ///
    /// The width ratio is applied within
    /// [`BalanceReport::RATIO_RANGE`]; use [`CmosPair::balanced_report`]
    /// to detect a clamped (unbalanceable) device.
    pub fn balanced(nfet: DeviceParams) -> Self {
        Self::balanced_with(subvt_model::analytic(), nfet).expect("analytic backend is infallible")
    }

    /// [`CmosPair::balanced`] through an explicit model backend. The
    /// width ratio is applied within [`BalanceReport::RATIO_RANGE`]; a
    /// clamp is recorded in the `circuits.balance.clamped` trace counter,
    /// and [`CmosPair::balanced_report`] returns the full report.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from the backend.
    ///
    /// # Panics
    ///
    /// Panics if `nfet` is not an NFET description.
    pub fn balanced_with(
        model: &'static dyn DeviceModel,
        nfet: DeviceParams,
    ) -> Result<Self, ModelError> {
        Self::balanced_report(model, nfet).map(|(pair, _)| pair)
    }

    /// [`CmosPair::balanced_with`] returning the sizing outcome alongside
    /// the pair: the strength ratio the devices asked for, the width
    /// ratio actually applied, and whether the target was clamped to the
    /// implementable range (in which case the pair is *not* balanced).
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from the backend.
    ///
    /// # Panics
    ///
    /// Panics if `nfet` is not an NFET description.
    pub fn balanced_report(
        model: &'static dyn DeviceModel,
        nfet: DeviceParams,
    ) -> Result<(Self, BalanceReport), ModelError> {
        assert!(
            matches!(nfet.kind, DeviceKind::Nfet),
            "expected an NFET description"
        );
        let pfet = DeviceParams {
            kind: DeviceKind::Pfet,
            ..nfet
        };
        let i0_n = model.characterize(&nfet)?.i0.get();
        let i0_p = model.characterize(&pfet)?.i0.get();
        let (lo, hi) = BalanceReport::RATIO_RANGE;
        let target_ratio = i0_n / i0_p;
        let applied_ratio = target_ratio.clamp(lo, hi);
        let report = BalanceReport {
            target_ratio,
            applied_ratio,
            clamped: applied_ratio != target_ratio,
        };
        if report.clamped {
            trace::add("circuits.balance.clamped", 1);
            trace::gauge("circuits.balance.target_ratio", target_ratio);
        }
        let wn_um = 1.0;
        let wp_um = applied_ratio;
        Ok((
            Self {
                nfet,
                pfet,
                wn_um,
                wp_um,
                model,
            },
            report,
        ))
    }

    /// Assembles a pair from already-designed devices and widths, bound
    /// to the given model backend.
    pub fn from_parts(
        nfet: DeviceParams,
        pfet: DeviceParams,
        wn_um: f64,
        wp_um: f64,
        model: &'static dyn DeviceModel,
    ) -> Self {
        Self {
            nfet,
            pfet,
            wn_um,
            wp_um,
            model,
        }
    }

    /// The model backend this pair characterizes its devices through.
    pub fn model(&self) -> &'static dyn DeviceModel {
        self.model
    }

    /// NFET characterization through the pair's backend.
    ///
    /// # Panics
    ///
    /// Panics if the backend fails (the analytic backend cannot).
    pub fn nfet_chars(&self) -> DeviceCharacteristics {
        self.model
            .characterize(&self.nfet)
            .expect("model backend failed on NFET")
    }

    /// PFET characterization through the pair's backend.
    ///
    /// # Panics
    ///
    /// Panics if the backend fails (the analytic backend cannot).
    pub fn pfet_chars(&self) -> DeviceCharacteristics {
        self.model
            .characterize(&self.pfet)
            .expect("model backend failed on PFET")
    }

    /// All-region I–V model of the NFET, built on the pair's backend
    /// characterization.
    pub fn nfet_model(&self) -> MosModel {
        MosModel::from_device(&self.nfet, &self.nfet_chars())
    }

    /// All-region I–V model of the PFET, built on the pair's backend
    /// characterization.
    pub fn pfet_model(&self) -> MosModel {
        MosModel::from_device(&self.pfet, &self.pfet_chars())
    }

    /// The supply voltage both devices were described at.
    pub fn v_dd(&self) -> Volts {
        self.nfet.v_dd
    }

    /// Returns a copy of the pair re-characterized at a different supply.
    pub fn at_supply(&self, v_dd: Volts) -> Self {
        let mut out = *self;
        out.nfet.v_dd = v_dd;
        out.pfet.v_dd = v_dd;
        out
    }

    /// Returns a copy of the pair operating at temperature `t`. The
    /// widths stay as sized; every later characterization of either
    /// device sees `t`.
    pub fn at_temperature(&self, t: Temperature) -> Self {
        let mut out = *self;
        out.nfet.temperature = t;
        out.pfet.temperature = t;
        out
    }

    /// Total switched capacitance of one inverter input (gate caps of
    /// both devices), farads.
    pub fn input_capacitance(&self) -> f64 {
        let cn = self.nfet_chars().c_g.get() * self.wn_um;
        let cp = self.pfet_chars().c_g.get() * self.wp_um;
        cn + cp
    }

    /// Drain parasitic capacitance at the shared output node, farads.
    pub fn output_capacitance(&self) -> f64 {
        let cn = self.nfet_chars().c_drain.get() * self.wn_um;
        let cp = self.pfet_chars().c_drain.get() * self.wp_um;
        cn + cp
    }

    /// Average off-state leakage of the inverter (mean of the two input
    /// states), amps.
    pub fn leakage_current(&self) -> f64 {
        let i_n = self.nfet_chars().i_off.get() * self.wn_um;
        let i_p = self.pfet_chars().i_off.get() * self.wp_um;
        0.5 * (i_n + i_p)
    }
}

/// A single CMOS inverter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inverter {
    /// Device pair the inverter instantiates.
    pub pair: CmosPair,
}

/// One sampled voltage-transfer characteristic.
#[derive(Debug, Clone, PartialEq)]
pub struct Vtc {
    /// Input voltages, ascending.
    pub v_in: Vec<f64>,
    /// Corresponding output voltages.
    pub v_out: Vec<f64>,
    /// Supply the curve was traced at.
    pub v_dd: f64,
}

impl Vtc {
    /// Numerical gain `dV_out/dV_in` at each interior sample (central
    /// differences; endpoints copy their neighbours).
    pub fn gain(&self) -> Vec<f64> {
        let n = self.v_in.len();
        let mut g = vec![0.0; n];
        for (i, slot) in g.iter_mut().enumerate().take(n - 1).skip(1) {
            *slot = (self.v_out[i + 1] - self.v_out[i - 1]) / (self.v_in[i + 1] - self.v_in[i - 1]);
        }
        if n >= 2 {
            g[0] = g[1];
            g[n - 1] = g[n - 2];
        }
        g
    }

    /// Switching threshold: input where `v_out` crosses `v_dd/2`.
    pub fn switching_threshold(&self) -> Option<f64> {
        let half = self.v_dd / 2.0;
        for i in 1..self.v_in.len() {
            let (a, b) = (self.v_out[i - 1], self.v_out[i]);
            if (a - half) * (b - half) <= 0.0 && a != b {
                let f = (half - a) / (b - a);
                return Some(self.v_in[i - 1] + f * (self.v_in[i] - self.v_in[i - 1]));
            }
        }
        None
    }
}

impl Inverter {
    /// Creates an inverter from a device pair.
    pub fn new(pair: CmosPair) -> Self {
        Self { pair }
    }

    /// Wires this inverter into a netlist.
    ///
    /// The compact [`subvt_physics::MosModel`] is resistive, so the
    /// devices' gate and drain capacitances are added as explicit
    /// grounded capacitors at the input and output nodes (the Miller
    /// gate-drain split is lumped to ground — adequate for delay and
    /// energy at the fan-out-of-one granularity this crate measures).
    pub fn wire(
        &self,
        net: &mut Netlist,
        name: &str,
        input: NodeId,
        output: NodeId,
        vdd_node: NodeId,
    ) {
        net.mosfet(
            &format!("{name}.MP"),
            self.pair.pfet_model(),
            self.pair.wp_um,
            output,
            input,
            vdd_node,
        );
        net.mosfet(
            &format!("{name}.MN"),
            self.pair.nfet_model(),
            self.pair.wn_um,
            output,
            input,
            Netlist::GROUND,
        );
        net.capacitor(
            &format!("{name}.Cin"),
            input,
            Netlist::GROUND,
            self.pair.input_capacitance(),
        );
        net.capacitor(
            &format!("{name}.Cout"),
            output,
            Netlist::GROUND,
            self.pair.output_capacitance(),
        );
    }

    /// Traces the VTC by a SPICE DC sweep with `points` samples at supply
    /// `v_dd`.
    ///
    /// # Errors
    ///
    /// Propagates [`SpiceError`] from the solver.
    pub fn vtc(&self, v_dd: Volts, points: usize) -> Result<Vtc, SpiceError> {
        CellSpec::inverter(self.pair)
            .compile(&Testbench::Vtc {
                v_dd,
                points,
                other: crate::gates::OtherInput::Low,
            })
            .expect("inverters always compile a VTC bench")
            .run_transfer()
    }
}

/// The paper's Eq. 3(b): closed-form weak-inversion VTC. Solves the
/// current balance for `v_out` at each `v_in` by bisection of the
/// monotone balance residual (robust against the near-vertical transition
/// region). Device asymmetry enters through `I₀` ratios and slope
/// factors.
pub fn analytic_vtc(pair: &CmosPair, v_dd: Volts, points: usize) -> Vtc {
    let n = pair.nfet_chars();
    let p = pair.pfet_chars();
    let vt = pair.nfet.temperature.thermal_voltage().as_volts();
    let vdd = v_dd.as_volts();
    let io_n = n.i0.get() * pair.wn_um;
    let io_p = p.i0.get() * pair.wp_um;
    let (m_n, m_p) = (n.m, p.m);
    let (vth_n, vth_p) = (n.v_th_sat.as_volts(), p.v_th_sat.as_volts());

    // Eq. 3(a) balance: I_N(v_in, v_out) = I_P(v_dd − v_in, v_dd − v_out).
    let residual = |v_in: f64, v_out: f64| {
        let i_n = io_n * ((v_in - vth_n) / (m_n * vt)).exp() * (1.0 - (-v_out / vt).exp());
        let i_p =
            io_p * ((vdd - v_in - vth_p) / (m_p * vt)).exp() * (1.0 - (-(vdd - v_out) / vt).exp());
        i_n - i_p
    };

    let v_in = linspace(0.0, vdd, points.max(2));
    let v_out = v_in
        .iter()
        .map(|&vi| {
            let eps = 1e-9;
            match bisect(|vo| residual(vi, vo), eps, vdd - eps, 1e-12, 200) {
                Ok(root) => root.x,
                // Balance pinned at a rail (very skewed corner).
                Err(_) => {
                    if residual(vi, vdd / 2.0) > 0.0 {
                        0.0
                    } else {
                        vdd
                    }
                }
            }
        })
        .collect();
    Vtc {
        v_in,
        v_out,
        v_dd: vdd,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> CmosPair {
        CmosPair::balanced(DeviceParams::reference_90nm_nfet())
    }

    #[test]
    fn balanced_pair_upsizes_pfet() {
        let p = pair();
        assert!(p.wp_um > p.wn_um);
    }

    /// A backend that weakens one polarity's `I₀` by a fixed factor,
    /// pushing the balance target outside the implementable range.
    #[derive(Debug)]
    struct SkewModel {
        /// Multiplier applied to the PFET `I₀`.
        pfet_i0_scale: f64,
    }

    impl subvt_model::DeviceModel for SkewModel {
        fn name(&self) -> &'static str {
            "skew-test"
        }
        fn characterize(
            &self,
            params: &DeviceParams,
        ) -> Result<subvt_physics::device::DeviceCharacteristics, ModelError> {
            let mut chars = params.characterize();
            if matches!(params.kind, DeviceKind::Pfet) {
                chars.i0 = subvt_units::AmpsPerMicron::new(chars.i0.get() * self.pfet_i0_scale);
            }
            Ok(chars)
        }
    }

    #[test]
    fn skewed_device_reports_clamped_balance() {
        // Scaling the PFET I₀ down 20× pushes the requested width ratio
        // far above the implementable maximum: the ratio is clamped to
        // the upper bound and the clamp is reported instead of silently
        // producing an unbalanced pair labeled "balanced".
        static WEAK_P: SkewModel = SkewModel {
            pfet_i0_scale: 0.05,
        };
        let (pair, report) =
            CmosPair::balanced_report(&WEAK_P, DeviceParams::reference_90nm_nfet()).unwrap();
        let (lo, hi) = BalanceReport::RATIO_RANGE;
        assert!(report.clamped, "20x-weak PFET must report a clamp");
        assert!(report.target_ratio > hi, "target {}", report.target_ratio);
        assert_eq!(report.applied_ratio, hi);
        assert_eq!(pair.wp_um, hi * pair.wn_um);

        // The opposite skew clamps at the lower bound.
        static STRONG_P: SkewModel = SkewModel {
            pfet_i0_scale: 100.0,
        };
        let (pair, report) =
            CmosPair::balanced_report(&STRONG_P, DeviceParams::reference_90nm_nfet()).unwrap();
        assert!(report.clamped);
        assert!(report.target_ratio < lo);
        assert_eq!(pair.wp_um, lo * pair.wn_um);
    }

    #[test]
    fn reference_device_balances_without_clamp() {
        let (pair, report) =
            CmosPair::balanced_report(subvt_model::analytic(), DeviceParams::reference_90nm_nfet())
                .unwrap();
        assert!(!report.clamped, "report: {report:?}");
        assert_eq!(report.applied_ratio, report.target_ratio);
        assert_eq!(pair.wp_um, report.applied_ratio * pair.wn_um);
    }

    #[test]
    fn vtc_swings_rail_to_rail_subthreshold() {
        let inv = Inverter::new(pair());
        let vtc = inv.vtc(Volts::new(0.25), 41).unwrap();
        assert!(vtc.v_out[0] > 0.24, "low in → high out: {}", vtc.v_out[0]);
        assert!(vtc.v_out[40] < 0.01, "high in → low out: {}", vtc.v_out[40]);
    }

    #[test]
    fn vtc_is_monotone_decreasing() {
        let inv = Inverter::new(pair());
        let vtc = inv.vtc(Volts::new(0.25), 61).unwrap();
        for w in vtc.v_out.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "VTC must fall monotonically");
        }
    }

    #[test]
    fn switching_threshold_near_midrail() {
        let inv = Inverter::new(pair());
        let vtc = inv.vtc(Volts::new(0.25), 101).unwrap();
        let vm = vtc.switching_threshold().unwrap();
        assert!(
            (vm - 0.125).abs() < 0.05,
            "V_M = {vm} should be near V_dd/2 for a balanced pair"
        );
    }

    #[test]
    fn peak_gain_exceeds_unity() {
        let inv = Inverter::new(pair());
        let vtc = inv.vtc(Volts::new(0.25), 201).unwrap();
        let min_gain = vtc.gain().iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min_gain < -1.5, "peak |gain| = {}", -min_gain);
    }

    #[test]
    fn analytic_vtc_matches_spice_in_subthreshold() {
        let p = pair().at_supply(Volts::new(0.25));
        let spice = Inverter::new(p).vtc(Volts::new(0.25), 41).unwrap();
        let analytic = analytic_vtc(&p, Volts::new(0.25), 41);
        // Pointwise agreement within 50 mV (the steep transition
        // amplifies any threshold-model difference vertically)…
        for i in 0..spice.v_in.len() {
            assert!(
                (spice.v_out[i] - analytic.v_out[i]).abs() < 0.05,
                "v_in = {}: spice {} vs analytic {}",
                spice.v_in[i],
                spice.v_out[i],
                analytic.v_out[i]
            );
        }
        // …and the switching thresholds within 10 mV horizontally.
        let vm_s = spice.switching_threshold().unwrap();
        let vm_a = analytic.switching_threshold().unwrap();
        assert!((vm_s - vm_a).abs() < 0.010, "V_M: {vm_s} vs {vm_a}");
    }

    #[test]
    fn analytic_vtc_symmetric_for_matched_devices() {
        // With I₀, m and V_th matched, Eq. 3(c) predicts a VTC symmetric
        // about (V_dd/2, V_dd/2).
        let mut p = pair();
        // Force exact symmetry: same device both sides.
        p.pfet = DeviceParams {
            kind: DeviceKind::Pfet,
            ..p.nfet
        };
        let i0n = p.nfet.characterize().i0.get();
        let i0p = p.pfet.characterize().i0.get();
        p.wp_um = p.wn_um * i0n / i0p;
        let vtc = analytic_vtc(&p, Volts::new(0.25), 81);
        let n = vtc.v_in.len();
        for i in 0..n {
            let j = n - 1 - i;
            let sym = 0.25 - vtc.v_out[j];
            assert!(
                (vtc.v_out[i] - sym).abs() < 1e-3,
                "symmetry violated at {}",
                vtc.v_in[i]
            );
        }
    }
}
