//! Gummel (decoupled) iteration: alternating nonlinear-Poisson and
//! electron-continuity solves with bias ramping — the outer loop that
//! turns the PDE modules into a biased device simulator.

use crate::continuity::{drain_current, solve_electrons_in};
use crate::device::Mosfet2d;
use crate::poisson::{
    initial_guess, solve_in, thermals, Bias, Linearization, Problem, Workspace, PSI_TOL,
};
use subvt_engine::faultinject::{self, FaultSite};
use subvt_engine::recovery::{self, RecoveryStep};
use subvt_engine::trace;
use subvt_physics::math::max_abs;

/// Outer-loop convergence tolerance on the potential update, volts:
/// the iteration ends at the first Poisson solve that moves ψ by less
/// than 10 nV anywhere. Plain Gummel stalls short of it at on-state
/// biases; the Anderson mixing of the undamped path reaches it.
const GUMMEL_TOL: f64 = 1.0e-8;
/// Stopping tolerance of the Poisson Newton inside each Gummel
/// iteration, volts: the first update below it ends the inner solve.
/// The outer loop still converges to [`GUMMEL_TOL`], so the inner solve
/// need not be exact.
const GUMMEL_POISSON_TOL: f64 = 1.0e-2;
/// Maximum Gummel iterations per bias point.
const MAX_GUMMEL: usize = 80;
/// Maximum bias step when ramping, volts.
const RAMP_STEP: f64 = 0.1;
/// How close, volts, two ramp steps' `ΔV_g` and `ΔV_d` must be for the
/// continuation predictor to treat the second as a repeat of the first.
const STEP_MATCH: f64 = 1.0e-9;
/// Converged states the continuation predictor remembers besides the
/// current one: two, for a quadratic extrapolation.
const HISTORY: usize = 2;
/// Under-relaxation factor applied by the damping-increase recovery
/// rung (1.0 = the undamped production path).
const RECOVERY_RELAX: f64 = 0.5;
/// How many pieces the bias-substep recovery rung splits a failing ramp
/// step into.
const SUBSTEP_SPLIT: usize = 4;
/// How many past iterates the Anderson mixing of the undamped path
/// remembers. Shallower histories restart too often near the edge of
/// the convergence basin (DESIGN.md, *subvt-tcad*).
const ANDERSON_DEPTH: usize = 6;
/// Tikhonov weight of the Anderson normal equations, relative to their
/// largest diagonal entry.
const ANDERSON_RIDGE: f64 = 1.0e-10;

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
    /// A requested bias was not a finite voltage.
    InvalidBias {
        /// Requested gate bias, volts.
        v_gate: f64,
        /// Requested drain bias, volts.
        v_drain: f64,
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
            TcadError::InvalidBias { v_gate, v_drain } => write!(
                f,
                "invalid bias: Vg={v_gate}, Vd={v_drain} (both must be finite)"
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
    /// The converged states before the current one, newest first (at
    /// most [`HISTORY`]): the continuation predictor's history.
    history: Vec<Converged>,
    /// Buffers of the Poisson and continuity solves.
    workspace: Workspace,
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
        let mut workspace = Workspace::new(&device);
        let mut psi = initial_guess(&device, &bias);
        let zeros = vec![0.0; device.len()];
        let problem = Problem {
            device: &device,
            phi_n: &zeros,
            phi_p: &zeros,
            bias: &bias,
        };
        let out = solve_in(
            &mut workspace,
            &problem,
            &mut psi,
            PSI_TOL,
            Linearization::Newton,
        );
        if !out.converged {
            return Err(TcadError::PoissonDiverged { bias });
        }
        let mut n = vec![0.0; device.len()];
        solve_electrons_in(&mut workspace, &device, &psi, &bias, &mut n)?;
        let phi_n = zeros;
        Ok(Self {
            device,
            bias,
            psi,
            n,
            phi_n,
            history: Vec::with_capacity(HISTORY + 1),
            workspace,
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
    /// The call is all or nothing: on an error the simulator is left in
    /// the state, bias and predictor history it was called in.
    ///
    /// # Errors
    ///
    /// Returns [`TcadError::InvalidBias`] for a non-finite voltage, and
    /// [`TcadError`] if any intermediate point fails after the full
    /// ladder.
    pub fn set_bias(&mut self, v_gate: f64, v_drain: f64) -> Result<(), TcadError> {
        if !(v_gate.is_finite() && v_drain.is_finite()) {
            return Err(TcadError::InvalidBias { v_gate, v_drain });
        }
        let steps_g = ((v_gate - self.bias.v_gate).abs() / RAMP_STEP).ceil() as usize;
        let steps_d = ((v_drain - self.bias.v_drain).abs() / RAMP_STEP).ceil() as usize;
        let steps = steps_g.max(steps_d).max(1);
        let (g0, d0) = (self.bias.v_gate, self.bias.v_drain);
        // A failed step restores its own pre-step state and leaves the
        // history alone, so only a ramp of several steps needs a
        // checkpoint of the state it was entered with.
        let entry = (steps > 1).then(|| (self.state_snapshot(), self.history.clone()));
        for k in 1..=steps {
            let f = k as f64 / steps as f64;
            let bias = Bias {
                v_gate: g0 + f * (v_gate - g0),
                v_drain: d0 + f * (v_drain - d0),
                ..self.bias
            };
            if let Err(err) = self.converge_at(bias) {
                if let Some((state, history)) = entry {
                    self.restore_snapshot(&state);
                    self.history = history;
                }
                return Err(err);
            }
        }
        Ok(())
    }

    /// One ramp step with the recovery ladder wrapped around the plain
    /// Gummel solve. The happy path is a single undamped
    /// [`Self::predicted_gummel_at`] call. On success the pre-step state
    /// joins the predictor's history, whichever rung succeeded.
    fn converge_at(&mut self, bias: Bias) -> Result<(), TcadError> {
        // Chaos harness: an injected divergence fires *before* the
        // solver mutates any state, so the plain-retry rung reproduces
        // the fault-free solve bit for bit.
        let snapshot = self.state_snapshot();
        let first = if faultinject::should_inject(FaultSite::SolverDiverge) {
            Err(TcadError::PoissonDiverged { bias })
        } else {
            self.predicted_gummel_at(bias)
        };
        let result = match first {
            Ok(()) => Ok(()),
            Err(first_err) => self.recover(bias, &snapshot, first_err),
        };
        if result.is_ok() {
            let StateSnapshot {
                bias, psi, phi_n, ..
            } = snapshot;
            self.history.insert(0, Converged { bias, psi, phi_n });
            self.history.truncate(HISTORY);
        }
        result
    }

    /// The recovery ladder after a failed first attempt at `bias`: each
    /// rung starts from `snapshot`, the pre-step state. Ends restored to
    /// `snapshot` with `first_err` when every rung fails.
    fn recover(
        &mut self,
        bias: Bias,
        snapshot: &StateSnapshot,
        first_err: TcadError,
    ) -> Result<(), TcadError> {
        let at = format!("Vg={}, Vd={}: {first_err}", bias.v_gate, bias.v_drain);

        // Rung 1: identical re-run from the pre-step state. Clears
        // injected faults exactly; a deterministic real failure fails
        // again and escalates.
        self.restore_snapshot(snapshot);
        let retried = self.predicted_gummel_at(bias);
        recovery::record("tcad.gummel", RecoveryStep::Retry, &at, retried.is_ok());
        if retried.is_ok() {
            return Ok(());
        }

        // Rung 2: stronger damping (under-relaxed potential updates).
        self.restore_snapshot(snapshot);
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
        self.restore_snapshot(snapshot);
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
        self.restore_snapshot(snapshot);
        Err(first_err)
    }

    /// The undamped Gummel loop at `bias`, started from the continuation
    /// predictor's guess. Every undamped attempt made from the pre-step
    /// state comes through here, so the retry rung reproduces the first
    /// attempt bit for bit.
    fn predicted_gummel_at(&mut self, bias: Bias) -> Result<(), TcadError> {
        self.predict(bias);
        self.gummel_at(bias, 1.0)
    }

    /// Continuation predictor. When the ramp step to `bias` repeats the
    /// previous step (the same `ΔV_g` and `ΔV_d` within [`STEP_MATCH`]),
    /// extrapolates ψ and φ_n along the converged history: quadratically,
    /// `3x₀ − 3x₁ + x₂`, when the step before that was the same too, and
    /// linearly, `2x₀ − x₁`, otherwise. `n` needs no guess: the first
    /// continuity solve recomputes it.
    fn predict(&mut self, bias: Bias) {
        let step = |from: Bias, to: Bias| (to.v_gate - from.v_gate, to.v_drain - from.v_drain);
        let repeats = |a: (f64, f64), b: (f64, f64)| {
            (a.0 - b.0).abs() <= STEP_MATCH && (a.1 - b.1).abs() <= STEP_MATCH
        };
        let Some(x1) = self.history.first() else {
            return;
        };
        let last = step(x1.bias, self.bias);
        if !repeats(step(self.bias, bias), last) {
            return;
        }
        let x2 = self
            .history
            .get(1)
            .filter(|x2| repeats(step(x2.bias, x1.bias), last));
        extrapolate(&mut self.psi, &x1.psi, x2.map(|x2| &x2.psi[..]));
        extrapolate(&mut self.phi_n, &x1.phi_n, x2.map(|x2| &x2.phi_n[..]));
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

    /// The Gummel loop at one bias point. On the undamped path
    /// (`relax == 1.0`) each unconverged Poisson solve is Anderson-mixed
    /// with the previous ones before the continuity solve; the damped
    /// rungs under-relax instead.
    ///
    /// The first iteration's Poisson solve is a plain Newton solve, and
    /// later ones are chord solves that reuse the factors of its last
    /// Jacobian. An iteration whose residual rose (the signal that also
    /// restarts the Anderson history) makes the next solve a Newton
    /// solve again. Every call starts with a Newton solve, so no chord
    /// step reuses the factors of an earlier call, and a retried ramp
    /// step keeps its bits.
    fn gummel_at(&mut self, bias: Bias, relax: f64) -> Result<(), TcadError> {
        let (vt, ni) = thermals(&self.device);
        let zeros = vec![0.0; self.device.len()];
        let mut psi_before = vec![0.0; self.device.len()];
        let mut anderson = (relax == 1.0).then(|| Anderson::new(self.device.len()));
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
        let mut linearization = Linearization::Newton;
        for iteration in 1..=MAX_GUMMEL {
            psi_before.copy_from_slice(&self.psi);
            let problem = Problem {
                device: &self.device,
                phi_n: &self.phi_n,
                phi_p: &zeros,
                bias: &bias,
            };
            let out = solve_in(
                &mut self.workspace,
                &problem,
                &mut self.psi,
                GUMMEL_POISSON_TOL,
                linearization,
            );
            if !out.converged {
                trace::add("tcad.gummel.poisson_failures", 1);
                record(iteration, last_residual);
                return Err(TcadError::PoissonDiverged { bias });
            }
            if relax < 1.0 {
                // Damping-increase rung: under-relax the potential
                // update.
                for (p, pb) in self.psi.iter_mut().zip(&psi_before) {
                    *p = pb + relax * (*p - pb);
                }
            }
            let residual = potential_update(&self.psi, &psi_before);
            let converged = residual < GUMMEL_TOL;
            let rose = residual > last_residual;
            linearization = if rose {
                Linearization::Newton
            } else {
                Linearization::Chord
            };
            if !converged {
                if let Some(anderson) = &mut anderson {
                    anderson.mix(&psi_before, &mut self.psi, rose);
                }
            }
            last_residual = residual;
            let solved = solve_electrons_in(
                &mut self.workspace,
                &self.device,
                &self.psi,
                &bias,
                &mut self.n,
            );
            if let Err(e) = solved {
                record(iteration, last_residual);
                return Err(e);
            }
            // Update the electron quasi-Fermi potential for the next
            // Poisson linearization.
            for idx in 0..self.device.len() {
                if self.n[idx] > 0.0 {
                    self.phi_n[idx] = self.psi[idx] - vt * (self.n[idx] / ni).ln();
                }
            }
            if converged {
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

/// The Gummel residual: the largest potential change `|ψ − ψ_before|`
/// at any node, volts. A NaN anywhere makes it NaN, so the iteration
/// cannot count as converged.
fn potential_update(psi: &[f64], psi_before: &[f64]) -> f64 {
    max_abs(psi.iter().zip(psi_before).map(|(a, b)| a - b))
}

/// Type-II Anderson mixing of the Gummel fixed-point map `x ↦ g(x)`,
/// where `x` is ψ before a Poisson solve and `g` is ψ after it (Walker &
/// Ni, SIAM J. Numer. Anal. 49, 2011). With `f = g − x`, it keeps the
/// last [`ANDERSON_DEPTH`] differences `Δf`, `Δg` of successive
/// iterates, solves the ridge-regularised normal equations
/// `(ΔFᵀΔF + λI) γ = ΔFᵀf` and replaces `g` by `g − ΔG γ`. The history
/// restarts whenever the residual `‖f‖∞` rises. Every buffer is
/// allocated once, by [`Anderson::new`].
struct Anderson {
    /// `Δf` columns, a ring of `ANDERSON_DEPTH` slots of one value per
    /// node.
    df: Vec<f64>,
    /// `Δg` columns, laid out as `df`.
    dg: Vec<f64>,
    /// `f` of the iterate being mixed (scratch).
    f: Vec<f64>,
    /// `f` and `g` of the previous iterate.
    f_prev: Vec<f64>,
    g_prev: Vec<f64>,
    /// Whether `f_prev`/`g_prev` hold an iterate.
    has_prev: bool,
    /// Filled slots of the ring, and the slot the next pair goes to.
    stored: usize,
    next: usize,
}

impl Anderson {
    fn new(len: usize) -> Self {
        Self {
            df: vec![0.0; ANDERSON_DEPTH * len],
            dg: vec![0.0; ANDERSON_DEPTH * len],
            f: vec![0.0; len],
            f_prev: vec![0.0; len],
            g_prev: vec![0.0; len],
            has_prev: false,
            stored: 0,
            next: 0,
        }
    }

    /// Mixes the iterate `x ↦ g` into `g` in place. `rose` reports that
    /// this iterate's residual exceeds the previous one's, which clears
    /// the history (the iterate is then taken unmixed).
    fn mix(&mut self, x: &[f64], g: &mut [f64], rose: bool) {
        let len = self.f.len();
        for ((f, g), x) in self.f.iter_mut().zip(&*g).zip(x) {
            *f = g - x;
        }
        if rose {
            self.stored = 0;
            self.next = 0;
        } else if self.has_prev {
            let slot = self.next * len..(self.next + 1) * len;
            for ((df, f), fp) in self.df[slot.clone()]
                .iter_mut()
                .zip(&self.f)
                .zip(&self.f_prev)
            {
                *df = f - fp;
            }
            for ((dg, g), gp) in self.dg[slot].iter_mut().zip(&*g).zip(&self.g_prev) {
                *dg = g - gp;
            }
            self.stored = (self.stored + 1).min(ANDERSON_DEPTH);
            self.next = (self.next + 1) % ANDERSON_DEPTH;
        }
        // From here on `f_prev`/`g_prev` hold this iterate: the previous
        // one of the next call.
        std::mem::swap(&mut self.f, &mut self.f_prev);
        self.g_prev.copy_from_slice(g);
        self.has_prev = true;

        let k = self.stored;
        if k == 0 {
            return;
        }
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(a, b)| a * b).sum::<f64>();
        let mut gram = [[0.0; ANDERSON_DEPTH]; ANDERSON_DEPTH];
        let mut gamma = [0.0; ANDERSON_DEPTH];
        for (i, di) in self.df.chunks_exact(len).take(k).enumerate() {
            for (j, dj) in self.df.chunks_exact(len).take(i + 1).enumerate() {
                gram[i][j] = dot(di, dj);
                gram[j][i] = gram[i][j];
            }
            gamma[i] = dot(di, &self.f_prev);
        }
        let ridge = ANDERSON_RIDGE * (0..k).map(|i| gram[i][i]).fold(0.0, f64::max);
        for (i, row) in gram.iter_mut().enumerate().take(k) {
            row[i] += ridge;
        }
        if !cholesky_solve(&mut gram, &mut gamma, k) {
            // A degenerate history (say, all-zero differences): take the
            // iterate unmixed and start afresh.
            self.stored = 0;
            self.next = 0;
            return;
        }
        for (gamma, dg) in gamma.iter().zip(self.dg.chunks_exact(len)).take(k) {
            for (g, dg) in g.iter_mut().zip(dg) {
                *g -= gamma * dg;
            }
        }
    }
}

/// Solves the symmetric positive definite `k × k` system `a·x = b` in
/// place by Cholesky factorization (`b` becomes `x`). Returns `false`
/// when `a` is not numerically positive definite.
fn cholesky_solve(
    a: &mut [[f64; ANDERSON_DEPTH]; ANDERSON_DEPTH],
    b: &mut [f64; ANDERSON_DEPTH],
    k: usize,
) -> bool {
    for j in 0..k {
        let d = a[j][j] - (0..j).map(|p| a[j][p] * a[j][p]).sum::<f64>();
        if !(d > 0.0 && d.is_finite()) {
            return false;
        }
        a[j][j] = d.sqrt();
        for i in j + 1..k {
            a[i][j] = (a[i][j] - (0..j).map(|p| a[i][p] * a[j][p]).sum::<f64>()) / a[j][j];
        }
    }
    for i in 0..k {
        b[i] = (b[i] - (0..i).map(|p| a[i][p] * b[p]).sum::<f64>()) / a[i][i];
    }
    for i in (0..k).rev() {
        b[i] = (b[i] - (i + 1..k).map(|p| a[p][i] * b[p]).sum::<f64>()) / a[i][i];
    }
    true
}

/// Extrapolates `x0` in place from the two earlier points `x1`, `x2` of
/// a uniformly stepped sequence (quadratic), or from `x1` alone (linear).
fn extrapolate(x0: &mut [f64], x1: &[f64], x2: Option<&[f64]>) {
    match x2 {
        Some(x2) => {
            for ((x0, x1), x2) in x0.iter_mut().zip(x1).zip(x2) {
                *x0 = 3.0 * *x0 - 3.0 * x1 + x2;
            }
        }
        None => {
            for (x0, x1) in x0.iter_mut().zip(x1) {
                *x0 = 2.0 * *x0 - x1;
            }
        }
    }
}

/// A converged state of the predictor's history.
#[derive(Debug, Clone, PartialEq)]
struct Converged {
    bias: Bias,
    psi: Vec<f64>,
    phi_n: Vec<f64>,
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
    use subvt_engine::scope::Scope;
    use subvt_engine::trace::TraceSnapshot;
    use subvt_physics::device::DeviceParams;

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
        let _scope = Scope::fresh().enter();
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
        chaotic.set_bias(0.3, 0.6).unwrap();
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
        let _scope = Scope::fresh().enter();
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
    fn a_failed_set_bias_leaves_the_simulator_as_it_was() {
        let mut sim = simulator();
        // Six equal ramp steps: the predictor's history is full.
        sim.set_bias(0.3, 0.6).unwrap();
        let before = sim.clone();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Far outside the Gummel basin: the ramp climbs a few volts
        // before a step fails through the whole recovery ladder.
        assert!(sim.set_bias(100.0, 100.0).is_err());
        assert_eq!(sim.bias(), before.bias());
        assert_eq!(bits(sim.potential()), bits(before.potential()));
        assert_eq!(bits(&sim.phi_n), bits(&before.phi_n));
        assert_eq!(
            bits(sim.electron_density()),
            bits(before.electron_density())
        );
        // The history is restored too: the next (predicted) step solves
        // as though the failed call never happened.
        assert!(sim.history == before.history);
        let mut clean = before;
        clean.set_bias(0.35, 0.7).unwrap();
        sim.set_bias(0.35, 0.7).unwrap();
        assert_eq!(
            sim.drain_current().to_bits(),
            clean.drain_current().to_bits()
        );
    }

    #[test]
    fn a_non_finite_bias_is_a_typed_error_that_changes_nothing() {
        let mut sim = simulator();
        sim.set_bias(0.3, 0.6).unwrap();
        let before = sim.clone();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (v_gate, v_drain) in [(bad, 0.6), (0.3, bad)] {
                let err = sim.set_bias(v_gate, v_drain).unwrap_err();
                assert!(
                    matches!(err, TcadError::InvalidBias { v_gate: g, v_drain: d }
                        if g.to_bits() == v_gate.to_bits() && d.to_bits() == v_drain.to_bits()),
                    "{err}"
                );
                // `DeviceSimulator` compares its fields (and no field
                // holds a NaN), so `==` checks state, bias and history.
                assert!(sim == before, "({v_gate}, {v_drain})");
            }
        }
    }

    #[test]
    fn the_predictor_extrapolates_repeated_ramp_steps() {
        let mut sim = simulator();
        let equilibrium = sim.psi.clone();
        // No history yet: the first step starts from the current state.
        sim.predict(Bias {
            v_drain: 0.1,
            ..Bias::default()
        });
        assert_eq!(sim.psi, equilibrium);
        sim.set_bias(0.0, 0.1).unwrap();
        let (x0, x1) = (sim.psi.clone(), equilibrium);
        // A step that differs from the last one is not predicted.
        sim.predict(Bias {
            v_gate: 0.1,
            v_drain: 0.1,
            ..Bias::default()
        });
        assert_eq!(sim.psi, x0);
        // The same step again: linear.
        sim.predict(Bias {
            v_drain: 0.2,
            ..Bias::default()
        });
        for k in 0..x0.len() {
            assert_eq!(sim.psi[k], 2.0 * x0[k] - x1[k]);
        }
        sim.psi.clone_from(&x0);
        sim.set_bias(0.0, 0.2).unwrap();
        let (x2, x1, x0) = (x1, x0, sim.psi.clone());
        // A third equal step: quadratic.
        sim.predict(Bias {
            v_drain: 0.3,
            ..Bias::default()
        });
        for k in 0..x0.len() {
            assert_eq!(sim.psi[k], 3.0 * x0[k] - 3.0 * x1[k] + x2[k]);
        }
    }

    #[test]
    fn a_single_nan_potential_is_not_a_converged_gummel_update() {
        let before = [0.1, -0.2, 0.3, 0.4];
        let mut after = before.map(|v| v + 1.0e-9);
        after[3] = before[3] - 2.0e-9;
        let update = potential_update(&after, &before);
        assert!(update < GUMMEL_TOL && update > 1.0e-9, "{update}");
        after[1] = f64::NAN;
        let update = potential_update(&after, &before);
        assert!(update.is_nan(), "{update}");
    }

    #[test]
    fn anderson_mixing_solves_a_linear_fixed_point_in_a_few_steps() {
        // x ↦ M·x + c with M = diag(0.9, 0.5, −0.3): plain iteration
        // from 0 needs nearly 300 steps to reach 1e-12, as the 0.9 mode
        // decays by 0.9 per step. Three independent differences span the space,
        // so the mixed iteration lands on the fixed point right after.
        let (m, c) = ([0.9, 0.5, -0.3], [1.0, 2.0, 3.0]);
        let fixed: Vec<f64> = m.iter().zip(&c).map(|(m, c)| c / (1.0 - m)).collect();
        let mut anderson = Anderson::new(3);
        let mut x = vec![0.0; 3];
        let mut last = f64::INFINITY;
        for step in 1..=8 {
            let mut g: Vec<f64> = (0..3).map(|i| m[i] * x[i] + c[i]).collect();
            let residual = g
                .iter()
                .zip(&x)
                .map(|(g, x)| (g - x).abs())
                .fold(0.0, f64::max);
            if residual < 1e-12 {
                assert!(step <= 6, "converged only at step {step}");
                for (g, want) in g.iter().zip(&fixed) {
                    assert!((g - want).abs() < 1e-10, "{g} vs {want}");
                }
                return;
            }
            anderson.mix(&x, &mut g, residual > last);
            last = residual;
            x = g;
        }
        panic!("no convergence in 8 mixed steps: x = {x:?}, want {fixed:?}");
    }

    #[test]
    fn cholesky_solves_a_small_spd_system() {
        let mut a = [[0.0; ANDERSON_DEPTH]; ANDERSON_DEPTH];
        a[0][..2].copy_from_slice(&[4.0, 2.0]);
        a[1][..2].copy_from_slice(&[2.0, 3.0]);
        let mut b = [0.0; ANDERSON_DEPTH];
        b[..2].copy_from_slice(&[8.0, 7.0]);
        assert!(cholesky_solve(&mut a.clone(), &mut b, 2));
        // 4x + 2y = 8, 2x + 3y = 7 → x = 1.25, y = 1.5.
        assert!(
            (b[0] - 1.25).abs() < 1e-14 && (b[1] - 1.5).abs() < 1e-14,
            "{b:?}"
        );
        // Not positive definite: refused, not divided by zero.
        a[1][1] = 1.0;
        assert!(!cholesky_solve(&mut a, &mut [1.0; ANDERSON_DEPTH], 2));
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

    /// `(count, sum)` of a histogram, zero when it was never observed.
    fn hist(snap: &TraceSnapshot, name: &str) -> (u64, f64) {
        snap.hists.get(name).map_or((0, 0.0), |h| (h.count, h.sum))
    }

    /// The on-state corner of the reference NFET converges for real: the
    /// Gummel step to V_g = V_d = 1.2 V ends below a 10 nV potential update
    /// within 40 iterations.
    #[test]
    fn on_state_bias_converges_to_1e_8_within_40_iterations() {
        let _scope = Scope::fresh().enter();
        let dev = Mosfet2d::build(&DeviceParams::reference_90nm_nfet(), MeshDensity::Coarse);
        let mut sim = DeviceSimulator::new(dev).expect("equilibrium");
        sim.set_bias(1.1, 1.2).expect("ramp to V_g = 1.1 V");
        let before = trace::global().flushed_metrics();
        // One 100 mV ramp step, so exactly one Gummel bias point.
        sim.set_bias(1.2, 1.2).expect("V_g = V_d = 1.2 V");
        let after = trace::global().flushed_metrics();

        let delta = |name: &str| {
            let (c0, s0) = hist(&before, name);
            let (c1, s1) = hist(&after, name);
            (c1 - c0, s1 - s0)
        };
        let (points, iterations) = delta("tcad.gummel.iterations");
        let (_, residual_log10) = delta("tcad.gummel.residual_log10");
        assert_eq!(points, 1, "one bias point, no recovery rung");
        assert!(
            iterations <= 40.0,
            "{iterations} Gummel iterations at V_g = V_d = 1.2 V"
        );
        assert!(
            residual_log10 < -8.0,
            "final potential update 1e{residual_log10:.2} V is not below 1e-8 V"
        );
    }
}
