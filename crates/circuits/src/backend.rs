//! Circuit-level backend seam: analytic-vs-SPICE circuit metrics.
//!
//! Mirrors the device-layer [`subvt_model::DeviceModel`] seam one level
//! up: a [`CircuitBackend`] abstracts the four circuit metrics the
//! paper's figures are built from — VTC, FO1 propagation delay,
//! inverter-chain energy and the minimum-energy point — so experiments
//! can swap the compact fast path for full `subvt-spice` netlist
//! simulation without touching experiment code.
//!
//! * [`AnalyticCircuit`] — the compact fast path the figures have always
//!   used: an MNA DC sweep for the VTC, a lumped three-stage transient
//!   for FO1 delay, and the closed-form Eq. 7 chain-energy model.
//! * [`SpiceCircuit`] — every metric measured off a netlist: the VTC
//!   from the same deck at DC, delay from a finer transient, and chain
//!   energy from *measured* per-stage switching energy (supply-current
//!   integration) plus *measured* DC leakage, wrapped in trace spans.
//!
//! Both backends measure the VTC and the FO1 delay through one cached
//! deck path: [`crate::topology::CompiledBench::recall`] in the
//! `spice.vtc` / `spice.tran` namespaces (keys cover the device
//! backend's `cache_id`, a full netlist content hash and the solve
//! resolution). The VTC is one shared record; the FO1 transients differ
//! only in step count. A figure that asks for a deck another figure
//! already measured is a cache hit, bit-identical to re-solving it. The
//! solver counts its own Newton and transient work, like the TCAD
//! device path.
//!
//! [`CircuitBackendKind::instance`] selects one of the two.

use std::cell::{Cell as StdCell, RefCell};
use std::fmt;
use std::str::FromStr;

use subvt_engine::trace;
use subvt_physics::math::golden_section;
use subvt_spice::measure::supply_energy;
use subvt_spice::mna::SpiceError;
use subvt_units::{Joules, Seconds, Volts};

use crate::chain::{EnergyPoint, InverterChain, MinimumEnergyPoint};
use crate::delay::{fo1_bench, Fo1Delay};
use crate::inverter::{CmosPair, Vtc};
use crate::montecarlo::{self, DelayStatistics, SnmStatistics};
use crate::topology::{
    cached_inverter_vtc, Cell, CellSpec, InputVector, Load, MeasurePlan, Stimulus, Testbench,
};

/// Transient resolution of the analytic backend's FO1 measurement — the
/// step count `figs_circuit` has always used, kept here so routing the
/// figure through the seam stays byte-identical.
pub const FO1_TRANSIENT_STEPS: usize = 900;

/// Transient resolution of the spice backend's FO1 measurement (finer
/// than the fast path; the parity suite bounds the difference).
const SPICE_FO1_STEPS: usize = 1200;

/// Transient resolution of the spice backend's switching-energy
/// integration.
const SPICE_ENERGY_STEPS: usize = 800;

/// Error type of circuit-backend evaluations.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// The underlying solver failed.
    Spice(SpiceError),
    /// A waveform measurement on a successful simulation failed.
    Measurement(String),
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::Spice(e) => write!(f, "spice solve failed: {e}"),
            CircuitError::Measurement(what) => write!(f, "measurement failed: {what}"),
        }
    }
}

impl std::error::Error for CircuitError {}

impl From<SpiceError> for CircuitError {
    fn from(e: SpiceError) -> Self {
        CircuitError::Spice(e)
    }
}

/// Selectable circuit backend, the `--circuit-backend` CLI surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CircuitBackendKind {
    /// Compact fast path (default).
    #[default]
    Analytic,
    /// Full netlist simulation with caching and instrumentation.
    Spice,
}

impl CircuitBackendKind {
    /// Every selectable circuit backend.
    pub const ALL: [CircuitBackendKind; 2] =
        [CircuitBackendKind::Analytic, CircuitBackendKind::Spice];

    /// The CLI spelling of this backend.
    pub fn as_str(self) -> &'static str {
        match self {
            CircuitBackendKind::Analytic => "analytic",
            CircuitBackendKind::Spice => "spice",
        }
    }

    /// The process-wide backend instance this kind selects.
    pub fn instance(self) -> &'static dyn CircuitBackend {
        match self {
            CircuitBackendKind::Analytic => &AnalyticCircuit,
            CircuitBackendKind::Spice => &SpiceCircuit,
        }
    }
}

impl fmt::Display for CircuitBackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for CircuitBackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "analytic" => Ok(CircuitBackendKind::Analytic),
            "spice" => Ok(CircuitBackendKind::Spice),
            other => Err(format!(
                "unknown circuit backend '{other}' (expected 'analytic' or 'spice')"
            )),
        }
    }
}

/// A circuit-metric evaluation engine.
///
/// Implementations must be deterministic for identical inputs: cache
/// keys and the byte-identity guarantee of the analytic path both rely
/// on it.
pub trait CircuitBackend: Send + Sync + fmt::Debug {
    /// Short stable name ("analytic", "spice").
    fn name(&self) -> &'static str;

    /// Identifier recorded in run manifests; defaults to [`Self::name`].
    fn cache_id(&self) -> String {
        self.name().to_owned()
    }

    /// Voltage-transfer characteristic of the pair's inverter at `v_dd`,
    /// sampled at `points` inputs.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] when the solve or a measurement fails.
    fn vtc(&self, pair: &CmosPair, v_dd: Volts, points: usize) -> Result<Vtc, CircuitError>;

    /// FO1 propagation delay of the pair's inverter at `v_dd`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] when the solve or a measurement fails.
    fn fo1_delay(&self, pair: &CmosPair, v_dd: Volts) -> Result<Fo1Delay, CircuitError>;

    /// Per-cycle energy breakdown of an inverter chain at one supply.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] when the solve or a measurement fails.
    fn chain_energy(&self, chain: &InverterChain, v_dd: Volts)
        -> Result<EnergyPoint, CircuitError>;

    /// Minimum-energy operating point of an inverter chain.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] when the solve or a measurement fails.
    fn minimum_energy_point(
        &self,
        chain: &InverterChain,
    ) -> Result<MinimumEnergyPoint, CircuitError>;

    /// Monte-Carlo FO1 delay variability under Pelgrom `V_th` mismatch,
    /// plus per-sample wall-clock milliseconds (empty when the backend
    /// does not time samples). Wall times are machine-dependent and must
    /// only feed bench artifacts, never deterministic output.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] when the nominal solve fails.
    fn delay_variability(
        &self,
        pair: &CmosPair,
        v_dd: Volts,
        samples: usize,
        seed: u64,
    ) -> Result<(DelayStatistics, Vec<f64>), CircuitError>;

    /// Monte-Carlo inverter SNM variability under Pelgrom `V_th`
    /// mismatch, plus per-sample wall-clock milliseconds (empty when the
    /// backend does not time samples).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError`] when the solve fails outright (per-sample
    /// failures are folded into `failure_fraction` instead).
    fn snm_variability(
        &self,
        pair: &CmosPair,
        v_dd: Volts,
        samples: usize,
        seed: u64,
    ) -> Result<(SnmStatistics, Vec<f64>), CircuitError>;
}

/// The compact fast path — the decks the figures measured before the
/// seam existed, now recalled through the shared cached deck path.
#[derive(Debug)]
pub struct AnalyticCircuit;

/// The fully netlist-driven path: cached, instrumented, measured.
#[derive(Debug)]
pub struct SpiceCircuit;

/// The inverter VTC both backends measure: the
/// [`cached_inverter_vtc`] deck at `points` inputs (at least 2, the two
/// rails), recalled from `spice.vtc`.
fn recalled_vtc(pair: &CmosPair, v_dd: Volts, points: usize) -> Result<Vtc, CircuitError> {
    Ok(cached_inverter_vtc(pair, v_dd, points.max(2))?)
}

/// The FO1 delay both backends measure: the [`fo1_bench`] deck run for
/// `steps` transient steps, recalled from `spice.tran`. The backends
/// differ only in `steps`, which the record's key covers.
fn recalled_fo1(pair: &CmosPair, v_dd: Volts, steps: usize) -> Result<Fo1Delay, CircuitError> {
    let bench = fo1_bench(pair, v_dd, steps);
    let rec = bench.recall("fo1", &pair.model().cache_id(), || {
        let d = bench
            .measure_edges(&bench.run_transient()?)
            .ok_or_else(|| {
                CircuitError::Measurement("FO1 half-swing crossings not found".to_owned())
            })?;
        Ok::<_, CircuitError>(vec![d.tp_hl.get(), d.tp_lh.get()])
    })?;
    Ok(Fo1Delay {
        tp_hl: Seconds::new(rec[0]),
        tp_lh: Seconds::new(rec[1]),
    })
}

impl CircuitBackend for AnalyticCircuit {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn vtc(&self, pair: &CmosPair, v_dd: Volts, points: usize) -> Result<Vtc, CircuitError> {
        recalled_vtc(pair, v_dd, points)
    }

    fn fo1_delay(&self, pair: &CmosPair, v_dd: Volts) -> Result<Fo1Delay, CircuitError> {
        recalled_fo1(pair, v_dd, FO1_TRANSIENT_STEPS)
    }

    fn chain_energy(
        &self,
        chain: &InverterChain,
        v_dd: Volts,
    ) -> Result<EnergyPoint, CircuitError> {
        Ok(chain.energy_at(v_dd))
    }

    fn minimum_energy_point(
        &self,
        chain: &InverterChain,
    ) -> Result<MinimumEnergyPoint, CircuitError> {
        Ok(chain.minimum_energy_point())
    }

    fn delay_variability(
        &self,
        pair: &CmosPair,
        v_dd: Volts,
        samples: usize,
        seed: u64,
    ) -> Result<(DelayStatistics, Vec<f64>), CircuitError> {
        Ok((
            montecarlo::delay_variability(pair, v_dd, samples, seed),
            Vec::new(),
        ))
    }

    fn snm_variability(
        &self,
        pair: &CmosPair,
        v_dd: Volts,
        samples: usize,
        seed: u64,
    ) -> Result<(SnmStatistics, Vec<f64>), CircuitError> {
        Ok((
            montecarlo::snm_variability(pair, v_dd, samples, seed),
            Vec::new(),
        ))
    }
}

impl SpiceCircuit {
    /// Measured per-stage switching energy (joules per output transition,
    /// by supply-current integration over a falling-input pulse) and DC
    /// leakage current (amps, the two static input states averaged) of an
    /// FO1-terminated inverter. Cached under `spice.tran`.
    fn stage_metrics(&self, pair: &CmosPair, v_dd: Volts) -> Result<[f64; 2], CircuitError> {
        let spec = CellSpec {
            cell: Cell::Inverter,
            pair: *pair,
            load: Load::Fanout(1.0),
        };
        let vdd = v_dd.as_volts();
        // Input starts high (output low) and falls once: the rising
        // output edge draws the switching charge from the supply.
        let bench = spec
            .compile(&Testbench::Transient {
                v_dd,
                stimulus: Stimulus::EnergyPulse,
                steps: SPICE_ENERGY_STEPS,
            })
            .expect("inverters always compile an energy bench");
        let MeasurePlan::SupplyEnergy {
            t_stop,
            supply: vdd_node,
            ..
        } = bench.plan
        else {
            unreachable!("energy benches carry a supply-energy plan");
        };
        let rec = bench.recall("stage", &pair.model().cache_id(), || {
            // DC leakage: mean supply draw over the two input states.
            let mut i_leak = 0.0;
            for high in [false, true] {
                let dc_bench = spec
                    .compile(&Testbench::Leakage {
                        v_dd,
                        inputs: InputVector::One(high),
                    })
                    .expect("inverters always compile a leakage bench");
                i_leak += 0.5 * dc_bench.run_static_current()?;
            }

            let res = bench.run_transient()?;
            // Switching energy: total delivered energy minus the
            // leakage floor over the integration window.
            let e_total = supply_energy(&res, 0, vdd_node);
            let e_sw = (e_total - i_leak * vdd * t_stop).max(0.0);
            Ok::<_, CircuitError>(vec![e_sw, i_leak])
        })?;
        Ok([rec[0], rec[1]])
    }
}

impl CircuitBackend for SpiceCircuit {
    fn name(&self) -> &'static str {
        "spice"
    }

    fn vtc(&self, pair: &CmosPair, v_dd: Volts, points: usize) -> Result<Vtc, CircuitError> {
        let _span = trace::span("spice.backend.vtc")
            .attr("points", points.max(2))
            .attr("v_dd", v_dd.as_volts());
        recalled_vtc(pair, v_dd, points)
    }

    fn fo1_delay(&self, pair: &CmosPair, v_dd: Volts) -> Result<Fo1Delay, CircuitError> {
        let _span = trace::span("spice.backend.fo1").attr("v_dd", v_dd.as_volts());
        recalled_fo1(pair, v_dd, SPICE_FO1_STEPS)
    }

    fn chain_energy(
        &self,
        chain: &InverterChain,
        v_dd: Volts,
    ) -> Result<EnergyPoint, CircuitError> {
        let _span = trace::span("spice.backend.chain_energy")
            .attr("stages", chain.stages)
            .attr("v_dd", v_dd.as_volts());
        let [e_sw, i_leak] = self.stage_metrics(&chain.pair, v_dd)?;
        let tp = self.fo1_delay(&chain.pair, v_dd)?.average();
        let n = chain.stages as f64;
        let t_cycle = Seconds::new(n * tp.get());
        let dynamic = Joules::new(chain.activity * n * e_sw);
        let leakage = Joules::new(n * i_leak * v_dd.as_volts() * t_cycle.get());
        Ok(EnergyPoint {
            v_dd,
            dynamic,
            leakage,
            t_cycle,
        })
    }

    fn minimum_energy_point(
        &self,
        chain: &InverterChain,
    ) -> Result<MinimumEnergyPoint, CircuitError> {
        let _span = trace::span("spice.backend.mep").attr("stages", chain.stages);
        // Coarser tolerance than the analytic search: every probe is a
        // transient + two DC solves on a miss. The probe sequence is a
        // pure function of the bounds, so a warm re-run replays the same
        // supplies and hits the cache throughout.
        let probes = StdCell::new(0u64);
        let failure: RefCell<Option<CircuitError>> = RefCell::new(None);
        let min = golden_section(
            |v| {
                if failure.borrow().is_some() {
                    return f64::INFINITY;
                }
                probes.set(probes.get() + 1);
                match self.chain_energy(chain, Volts::new(v)) {
                    Ok(point) => point.total().get(),
                    Err(e) => {
                        *failure.borrow_mut() = Some(e);
                        f64::INFINITY
                    }
                }
            },
            0.08,
            0.7,
            1e-3,
            200,
        );
        trace::add("circuits.chain.energy_points", probes.get());
        if let Some(e) = failure.into_inner() {
            return Err(e);
        }
        let v_min = Volts::new(min.x);
        let point = self.chain_energy(chain, v_min)?;
        Ok(MinimumEnergyPoint {
            v_min,
            energy: point.total(),
            point,
        })
    }

    fn delay_variability(
        &self,
        pair: &CmosPair,
        v_dd: Volts,
        samples: usize,
        seed: u64,
    ) -> Result<(DelayStatistics, Vec<f64>), CircuitError> {
        let _span = trace::span("spice.backend.montecarlo.delay")
            .attr("samples", samples)
            .attr("v_dd", v_dd.as_volts());
        Ok(montecarlo::spice_delay_variability(
            pair, v_dd, samples, seed,
        )?)
    }

    fn snm_variability(
        &self,
        pair: &CmosPair,
        v_dd: Volts,
        samples: usize,
        seed: u64,
    ) -> Result<(SnmStatistics, Vec<f64>), CircuitError> {
        let _span = trace::span("spice.backend.montecarlo.snm")
            .attr("samples", samples)
            .attr("v_dd", v_dd.as_volts());
        Ok(montecarlo::spice_snm_variability(pair, v_dd, samples, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::spice_fo1_delay;
    use crate::inverter::Inverter;
    use subvt_physics::device::DeviceParams;

    fn pair() -> CmosPair {
        CmosPair::balanced(DeviceParams::reference_90nm_nfet())
    }

    #[test]
    fn montecarlo_backends_agree_on_variability() {
        // The spice MC re-solves the same perturbed bias points the
        // analytic sweep evaluates in closed form, so σ/µ must agree
        // tightly; only GMIN-scale leakage separates the populations.
        let p = pair();
        let v = Volts::new(0.25);
        let (a, a_wall) = AnalyticCircuit.delay_variability(&p, v, 40, 5).unwrap();
        let (s, s_wall) = SpiceCircuit.delay_variability(&p, v, 40, 5).unwrap();
        assert!(a_wall.is_empty(), "analytic backend does not time samples");
        assert_eq!(s_wall.len(), 40);
        let rel = (a.sigma_over_mu - s.sigma_over_mu).abs() / a.sigma_over_mu;
        assert!(
            rel < 0.05,
            "sigma/mu analytic {} vs spice {}",
            a.sigma_over_mu,
            s.sigma_over_mu
        );
    }

    #[test]
    fn kind_round_trips_through_str() {
        for k in CircuitBackendKind::ALL {
            assert_eq!(k.as_str().parse::<CircuitBackendKind>().unwrap(), k);
            assert_eq!(k.to_string(), k.as_str());
        }
        assert!("verilog".parse::<CircuitBackendKind>().is_err());
        assert_eq!(CircuitBackendKind::default(), CircuitBackendKind::Analytic);
    }

    #[test]
    fn kind_selects_matching_instance() {
        for k in CircuitBackendKind::ALL {
            assert_eq!(k.instance().name(), k.as_str());
            assert_eq!(k.instance().cache_id(), k.as_str());
        }
    }

    #[test]
    fn analytic_backend_is_transparent() {
        // The seam's contract: routing through the analytic backend gives
        // bit-identical results to the direct calls the figures used to
        // make.
        let p = pair();
        let v = Volts::new(0.25);
        let via_trait = AnalyticCircuit.vtc(&p, v, 41).unwrap();
        let direct = Inverter::new(p).vtc(v, 41).unwrap();
        assert_eq!(via_trait, direct);

        let via_trait = AnalyticCircuit.fo1_delay(&p, v).unwrap();
        let direct = spice_fo1_delay(&p, v, FO1_TRANSIENT_STEPS).unwrap();
        assert_eq!(via_trait, direct);

        let chain = InverterChain::paper_chain(p);
        assert_eq!(
            AnalyticCircuit.chain_energy(&chain, v).unwrap(),
            chain.energy_at(v)
        );
        assert_eq!(
            AnalyticCircuit.minimum_energy_point(&chain).unwrap(),
            chain.minimum_energy_point()
        );
    }

    #[test]
    fn netlist_key_tracks_content() {
        use crate::gates::OtherInput;
        use subvt_engine::KeyBuilder;
        let p = pair();
        let key = |pair: CmosPair, v: f64| {
            let bench = CellSpec::inverter(pair)
                .compile(&Testbench::Vtc {
                    v_dd: Volts::new(v),
                    points: 2,
                    other: OtherInput::Low,
                })
                .unwrap();
            KeyBuilder::new("t").keyed(&bench.net).finish()
        };
        assert_eq!(key(p, 0.25), key(p, 0.25), "same deck, same key");
        assert_ne!(key(p, 0.25), key(p, 0.30), "different supply, new key");
        let mut wide = p;
        wide.wp_um *= 1.5;
        assert_ne!(key(p, 0.25), key(wide, 0.25), "different device, new key");
    }

    #[test]
    fn spice_vtc_matches_analytic_deck() {
        // Same netlist, same DC sweep, one `spice.vtc` record: the
        // backends return the same curve, and a second request is served
        // from the cache.
        let p = pair();
        let v = Volts::new(0.25);
        let a = AnalyticCircuit.vtc(&p, v, 31).unwrap();
        let s = SpiceCircuit.vtc(&p, v, 31).unwrap();
        assert_eq!(a, s);
        let again = SpiceCircuit.vtc(&p, v, 31).unwrap();
        assert_eq!(s, again);
    }

    #[test]
    fn both_backends_sweep_at_least_the_two_rails() {
        let p = pair();
        let v = Volts::new(0.25);
        for backend in CircuitBackendKind::ALL {
            let vtc = backend.instance().vtc(&p, v, 1).unwrap();
            assert_eq!(vtc.v_in, [0.0, 0.25], "{backend}");
            assert_eq!(vtc.v_out.len(), 2, "{backend}");
        }
    }

    #[test]
    fn spice_chain_energy_shape_is_physical() {
        // Dynamic energy grows with supply, leakage-per-cycle shrinks
        // (shorter cycles), matching the Eq. 7 structure the analytic
        // model encodes.
        let chain = InverterChain::paper_chain(pair());
        let lo = SpiceCircuit.chain_energy(&chain, Volts::new(0.20)).unwrap();
        let hi = SpiceCircuit.chain_energy(&chain, Volts::new(0.35)).unwrap();
        assert!(hi.dynamic.get() > lo.dynamic.get());
        assert!(hi.t_cycle.get() < lo.t_cycle.get());
        assert!(lo.leakage.get() > 0.0 && lo.dynamic.get() > 0.0);
    }
}
