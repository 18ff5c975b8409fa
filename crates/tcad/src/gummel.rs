//! Gummel (decoupled) iteration: alternating nonlinear-Poisson and
//! electron-continuity solves with bias ramping — the outer loop that
//! turns the PDE modules into a biased device simulator.

use crate::continuity::{drain_current, solve_electrons};
use crate::device::Mosfet2d;
use crate::poisson::{initial_guess, solve, solve_to, thermals, Bias};
use subvt_engine::faultinject::{self, FaultSite};
use subvt_engine::recovery::{self, RecoveryStep};
use subvt_engine::trace;

/// Outer-loop convergence tolerance on the potential update, volts.
const GUMMEL_TOL: f64 = 1.0e-6;
/// Stopping tolerance of the Poisson Newton inside each Gummel
/// iteration, volts: the first update below it ends the inner solve.
/// The outer loop still converges to [`GUMMEL_TOL`], so the inner solve
/// need not be exact.
const GUMMEL_POISSON_TOL: f64 = 1.0e-2;
/// Maximum Gummel iterations per bias point.
const MAX_GUMMEL: usize = 80;
/// Maximum bias step when ramping, volts.
const RAMP_STEP: f64 = 0.1;
/// Under-relaxation factor applied by the damping-increase recovery
/// rung (1.0 = the undamped production path).
const RECOVERY_RELAX: f64 = 0.5;
/// How many pieces the bias-substep recovery rung splits a failing ramp
/// step into.
const SUBSTEP_SPLIT: usize = 4;

/// Errors from the device simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TcadError {
    /// The inner Poisson Newton failed to converge.
    PoissonDiverged {
        /// Bias point at which the failure occurred.
        bias: Bias,
    },
    /// The electron continuity solve met a zero pivot.
    ContinuityZeroPivot {
        /// Bias point at which the failure occurred.
        bias: Bias,
        /// Row of the continuity system at which elimination failed.
        row: usize,
    },
    /// The outer Gummel loop stalled.
    GummelStalled {
        /// Bias point at which the failure occurred.
        bias: Bias,
        /// Final potential update, volts.
        residual: f64,
    },
    /// A sweep specification was degenerate (non-positive step or end
    /// point, or a non-finite value).
    InvalidSweep {
        /// Requested sweep step, volts.
        step: f64,
        /// Requested sweep end point, volts.
        v_max: f64,
    },
}

impl core::fmt::Display for TcadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TcadError::PoissonDiverged { bias } => {
                write!(
                    f,
                    "poisson newton diverged at Vg={}, Vd={}",
                    bias.v_gate, bias.v_drain
                )
            }
            TcadError::ContinuityZeroPivot { bias, row } => write!(
                f,
                "continuity solve hit a zero pivot at row {row} (Vg={}, Vd={})",
                bias.v_gate, bias.v_drain
            ),
            TcadError::GummelStalled { bias, residual } => write!(
                f,
                "gummel stalled at Vg={}, Vd={} (residual {residual:e} V)",
                bias.v_gate, bias.v_drain
            ),
            TcadError::InvalidSweep { step, v_max } => write!(
                f,
                "invalid sweep spec: step={step}, v_max={v_max} (both must be finite and positive)"
            ),
        }
    }
}

impl std::error::Error for TcadError {}

/// A biased, converged device state.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSimulator {
    device: Mosfet2d,
    bias: Bias,
    psi: Vec<f64>,
    n: Vec<f64>,
    phi_n: Vec<f64>,
}

impl DeviceSimulator {
    /// Builds the simulator and solves the zero-bias equilibrium.
    ///
    /// # Errors
    ///
    /// Returns [`TcadError`] if equilibrium cannot be established (would
    /// indicate a malformed mesh).
    pub fn new(device: Mosfet2d) -> Result<Self, TcadError> {
        let bias = Bias::default();
        let mut psi = initial_guess(&device, &bias);
        let zeros = vec![0.0; device.len()];
        let out = solve(&device, &mut psi, &zeros, &zeros, &bias);
        if !out.converged {
            return Err(TcadError::PoissonDiverged { bias });
        }
        let n = solve_electrons(&device, &psi, &bias)?;
        let phi_n = zeros;
        Ok(Self {
            device,
            bias,
            psi,
            n,
            phi_n,
        })
    }

    /// The current bias point.
    pub fn bias(&self) -> Bias {
        self.bias
    }

    /// Read access to the underlying device.
    pub fn device(&self) -> &Mosfet2d {
        &self.device
    }

    /// Read access to the converged potential field, volts per node.
    pub fn potential(&self) -> &[f64] {
        &self.psi
    }

    /// Read access to the electron density field, cm⁻³ per node.
    pub fn electron_density(&self) -> &[f64] {
        &self.n
    }

    /// Moves to a new `(V_g, V_d)` bias, ramping in steps of at most
    /// 100 mV from the current point and running the Gummel loop at each
    /// step. A non-converging step escalates through the recovery
    /// ladder (retry → damping increase → bias substepping) before the
    /// step is declared failed; each rung is recorded in the trace as a
    /// `tcad.gummel` recovery.
    ///
    /// # Errors
    ///
    /// Returns [`TcadError`] if any intermediate point fails after the
    /// full ladder.
    pub fn set_bias(&mut self, v_gate: f64, v_drain: f64) -> Result<(), TcadError> {
        let steps_g = ((v_gate - self.bias.v_gate).abs() / RAMP_STEP).ceil() as usize;
        let steps_d = ((v_drain - self.bias.v_drain).abs() / RAMP_STEP).ceil() as usize;
        let steps = steps_g.max(steps_d).max(1);
        let (g0, d0) = (self.bias.v_gate, self.bias.v_drain);
        for k in 1..=steps {
            let f = k as f64 / steps as f64;
            let bias = Bias {
                v_gate: g0 + f * (v_gate - g0),
                v_drain: d0 + f * (v_drain - d0),
                ..self.bias
            };
            self.converge_at(bias)?;
        }
        Ok(())
    }

    /// One ramp step with the recovery ladder wrapped around the plain
    /// Gummel solve. The happy path is a single undamped [`Self::gummel_at`]
    /// call — bit-identical to the pre-ladder behavior.
    fn converge_at(&mut self, bias: Bias) -> Result<(), TcadError> {
        // Chaos harness: an injected divergence fires *before* the
        // solver mutates any state, so the plain-retry rung below
        // reproduces the fault-free solve bit for bit.
        let snapshot = self.state_snapshot();
        let first = if faultinject::should_inject(FaultSite::SolverDiverge) {
            Err(TcadError::PoissonDiverged { bias })
        } else {
            self.gummel_at(bias, 1.0)
        };
        let Err(first_err) = first else {
            return Ok(());
        };
        let at = format!("Vg={}, Vd={}: {first_err}", bias.v_gate, bias.v_drain);

        // Rung 1: identical re-run from the pre-step state. Clears
        // injected faults exactly; a deterministic real failure fails
        // again and escalates.
        self.restore_snapshot(&snapshot);
        let retried = self.gummel_at(bias, 1.0);
        recovery::record("tcad.gummel", RecoveryStep::Retry, &at, retried.is_ok());
        if retried.is_ok() {
            return Ok(());
        }

        // Rung 2: stronger damping (under-relaxed potential updates).
        self.restore_snapshot(&snapshot);
        let damped = self.gummel_at(bias, RECOVERY_RELAX);
        recovery::record(
            "tcad.gummel",
            RecoveryStep::DampingIncrease,
            &at,
            damped.is_ok(),
        );
        if damped.is_ok() {
            return Ok(());
        }

        // Rung 3: split the ramp step into smaller bias moves, damped.
        self.restore_snapshot(&snapshot);
        let (g0, d0) = (snapshot.bias.v_gate, snapshot.bias.v_drain);
        let mut substepped = Ok(());
        for k in 1..=SUBSTEP_SPLIT {
            let f = k as f64 / SUBSTEP_SPLIT as f64;
            let sub = Bias {
                v_gate: g0 + f * (bias.v_gate - g0),
                v_drain: d0 + f * (bias.v_drain - d0),
                ..bias
            };
            substepped = self.gummel_at(sub, RECOVERY_RELAX);
            if substepped.is_err() {
                break;
            }
        }
        recovery::record(
            "tcad.gummel",
            RecoveryStep::BiasSubstep,
            &at,
            substepped.is_ok(),
        );
        if substepped.is_ok() {
            return Ok(());
        }
        // Ladder exhausted: restore the last good state and surface the
        // original failure.
        self.restore_snapshot(&snapshot);
        Err(first_err)
    }

    fn state_snapshot(&self) -> StateSnapshot {
        StateSnapshot {
            bias: self.bias,
            psi: self.psi.clone(),
            n: self.n.clone(),
            phi_n: self.phi_n.clone(),
        }
    }

    fn restore_snapshot(&mut self, snap: &StateSnapshot) {
        self.bias = snap.bias;
        self.psi.clone_from(&snap.psi);
        self.n.clone_from(&snap.n);
        self.phi_n.clone_from(&snap.phi_n);
    }

    fn gummel_at(&mut self, bias: Bias, relax: f64) -> Result<(), TcadError> {
        let (vt, ni) = thermals(&self.device);
        let zeros = vec![0.0; self.device.len()];
        let mut last_residual = f64::INFINITY;
        trace::add("tcad.gummel.bias_points", 1);
        let record = |iterations: usize, residual: f64| {
            trace::observe("tcad.gummel.iterations", iterations as f64);
            if residual.is_finite() && residual > 0.0 {
                trace::observe_with(
                    "tcad.gummel.residual_log10",
                    residual.log10(),
                    &trace::LOG10_BUCKETS,
                );
            }
        };
        for iteration in 1..=MAX_GUMMEL {
            let psi_before = self.psi.clone();
            let out = solve_to(
                &self.device,
                &mut self.psi,
                &self.phi_n,
                &zeros,
                &bias,
                GUMMEL_POISSON_TOL,
            );
            if !out.converged {
                trace::add("tcad.gummel.poisson_failures", 1);
                record(iteration, last_residual);
                return Err(TcadError::PoissonDiverged { bias });
            }
            if relax < 1.0 {
                // Damping-increase rung: under-relax the potential
                // update. The `relax == 1.0` production path skips this
                // loop entirely so its arithmetic is untouched.
                for (p, pb) in self.psi.iter_mut().zip(&psi_before) {
                    *p = pb + relax * (*p - pb);
                }
            }
            self.n = match solve_electrons(&self.device, &self.psi, &bias) {
                Ok(n) => n,
                Err(e) => {
                    record(iteration, last_residual);
                    return Err(e);
                }
            };
            // Update the electron quasi-Fermi potential for the next
            // Poisson linearization.
            for idx in 0..self.device.len() {
                if self.n[idx] > 0.0 {
                    self.phi_n[idx] = self.psi[idx] - vt * (self.n[idx] / ni).ln();
                }
            }
            let residual = self
                .psi
                .iter()
                .zip(&psi_before)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            last_residual = residual;
            if residual < GUMMEL_TOL {
                self.bias = bias;
                record(iteration, residual);
                return Ok(());
            }
        }
        trace::add("tcad.gummel.stall", 1);
        record(MAX_GUMMEL, last_residual);
        Err(TcadError::GummelStalled {
            bias,
            residual: last_residual,
        })
    }

    /// Drain terminal current at the present bias, A/µm of gate width.
    pub fn drain_current(&self) -> f64 {
        drain_current(&self.device, &self.psi, &self.n)
    }
}

/// Saved converged state, restored before each recovery-ladder attempt
/// (the failed attempt leaves `psi`/`n`/`phi_n` dirty).
struct StateSnapshot {
    bias: Bias,
    psi: Vec<f64>,
    n: Vec<f64>,
    phi_n: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{MeshDensity, Mosfet2d};
    use subvt_physics::device::DeviceParams;

    /// The fault plan is process-global: tests that arm it, or that
    /// need the first solve attempt to be a real one, take turns.
    static FAULTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn faults() -> std::sync::MutexGuard<'static, ()> {
        FAULTS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn simulator() -> DeviceSimulator {
        let dev = Mosfet2d::build(&DeviceParams::reference_90nm_nfet(), MeshDensity::Coarse);
        DeviceSimulator::new(dev).expect("equilibrium")
    }

    #[test]
    fn off_state_leakage_is_small() {
        let mut sim = simulator();
        sim.set_bias(0.0, 1.2).unwrap();
        let id = sim.drain_current();
        // Off-current decades below the on-current (the 2-D structure
        // leaks more than the compact calibration; see EXPERIMENTS.md).
        assert!(id > 1.0e-15 && id < 5.0e-8, "I_off = {id} A/µm");
    }

    #[test]
    fn gate_bias_turns_the_channel_on() {
        let mut sim = simulator();
        sim.set_bias(0.0, 0.6).unwrap();
        let i_off = sim.drain_current();
        sim.set_bias(1.2, 0.6).unwrap();
        let i_on = sim.drain_current();
        assert!(
            i_on > 1.0e4 * i_off,
            "on/off = {} ({i_on} vs {i_off})",
            i_on / i_off
        );
        // On-current of a 90 nm-class NFET: tens of µA to ~1 mA per µm.
        assert!(i_on > 1.0e-5 && i_on < 3.0e-3, "I_on = {i_on} A/µm");
    }

    #[test]
    fn subthreshold_current_is_exponential_in_vg() {
        let mut sim = simulator();
        sim.set_bias(0.05, 0.6).unwrap();
        let i1 = sim.drain_current();
        sim.set_bias(0.15, 0.6).unwrap();
        let i2 = sim.drain_current();
        // 100 mV of gate bias at S_S ≈ 80–110 mV/dec: ×8–×20.
        let ratio = i2 / i1;
        assert!(ratio > 5.0 && ratio < 40.0, "decade ratio {ratio}");
    }

    #[test]
    fn injected_divergence_recovers_bit_identically() {
        let _faults = faults();
        let mut clean = simulator();
        clean.set_bias(0.3, 0.6).unwrap();
        let i_clean = clean.drain_current();

        // Every ramp step draws an injected divergence, which the
        // plain-retry rung must clear without perturbing the numerics.
        subvt_engine::faultinject::configure(Some(subvt_engine::FaultPlan {
            p_diverge: 1.0,
            ..subvt_engine::FaultPlan::quiet(31)
        }));
        let mut chaotic = simulator();
        let result = chaotic.set_bias(0.3, 0.6);
        subvt_engine::faultinject::configure(None);
        result.unwrap();
        assert_eq!(
            chaotic.drain_current().to_bits(),
            i_clean.to_bits(),
            "recovered solve must be bit-identical to the clean solve"
        );
        let recovered = subvt_engine::recovery::snapshot()
            .iter()
            .filter(|r| r.site == "tcad.gummel" && r.recovered)
            .count();
        assert!(recovered > 0, "retry rung never recorded");
    }

    #[test]
    fn continuity_zero_pivot_climbs_the_recovery_ladder() {
        let _faults = faults();
        let mut sim = simulator();
        // With zero mobility no face conducts, so every rung meets the
        // same zero pivot and the ladder surfaces it as a typed error.
        sim.device.mobility.fill(0.0);
        let err = sim.set_bias(0.07, 0.03).unwrap_err();
        assert!(
            matches!(err, TcadError::ContinuityZeroPivot { bias, .. }
                if bias.v_gate == 0.07 && bias.v_drain == 0.03),
            "{err:?}"
        );
        let rungs: Vec<(RecoveryStep, bool)> = recovery::snapshot()
            .into_iter()
            .filter(|r| r.site == "tcad.gummel" && r.detail.starts_with("Vg=0.07, Vd=0.03:"))
            .map(|r| (r.step, r.recovered))
            .collect();
        assert_eq!(
            rungs,
            [
                (RecoveryStep::Retry, false),
                (RecoveryStep::DampingIncrease, false),
                (RecoveryStep::BiasSubstep, false),
            ]
        );
        // The failed step leaves the last converged state in place.
        assert_eq!(sim.bias(), Bias::default());
    }

    #[test]
    fn dibl_raises_off_current() {
        let mut sim = simulator();
        sim.set_bias(0.0, 0.1).unwrap();
        let low = sim.drain_current();
        sim.set_bias(0.0, 1.2).unwrap();
        let high = sim.drain_current();
        assert!(high > low, "DIBL must raise leakage: {high} vs {low}");
    }
}
