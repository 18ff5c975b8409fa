//! Transient analysis: fixed-step backward-Euler or trapezoidal
//! integration with capacitor companion models and a Newton solve per
//! time point.

use crate::mna::{check_initial_shape, CapMode, DcSolution, Solver, SpiceError};
use crate::netlist::Netlist;

/// Time-integration method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Backward Euler: L-stable, first order, numerically damped. The
    /// robust choice for stiff subthreshold nets.
    BackwardEuler,
    /// Trapezoidal rule: A-stable, second order; preferred for delay and
    /// energy measurements.
    #[default]
    Trapezoidal,
}

/// Specification of a transient run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientSpec {
    /// End time, seconds.
    pub t_stop: f64,
    /// Fixed time step, seconds.
    pub dt: f64,
    /// Integration method.
    pub method: Integrator,
}

impl TransientSpec {
    /// Creates a spec with `steps` uniform steps covering `[0, t_stop]`.
    ///
    /// # Panics
    ///
    /// Panics if `t_stop` is not positive or `steps` is zero.
    pub fn with_steps(t_stop: f64, steps: usize, method: Integrator) -> Self {
        assert!(t_stop > 0.0 && steps > 0, "invalid transient spec");
        Self {
            t_stop,
            dt: t_stop / steps as f64,
            method,
        }
    }
}

/// Sampled transient waveforms. Each field holds one row per time
/// point in a single row-major buffer, so a run allocates its waveforms
/// once, not once per step.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    /// Time points (the first entry is `t = 0`).
    pub time: Vec<f64>,
    /// Node voltages, `nodes` per time point (ground's 0 V first).
    voltages: Vec<f64>,
    /// Voltage-source branch currents, `branches` per time point,
    /// netlist order.
    branch_currents: Vec<f64>,
    nodes: usize,
    branches: usize,
    /// Newton iterations consumed per time step (one entry per step, so
    /// `newton_iterations.len() == time.len() - 1`) — the raw material
    /// for solver-effort histograms.
    pub newton_iterations: Vec<usize>,
}

impl TransientResult {
    /// The voltage of `node` at time point `k`.
    pub fn voltage(&self, k: usize, node: usize) -> f64 {
        assert!(node < self.nodes, "node {node} out of range");
        self.voltages[k * self.nodes + node]
    }

    /// The current of voltage-source branch `b` at time point `k`.
    pub fn branch_current(&self, k: usize, b: usize) -> f64 {
        assert!(b < self.branches, "branch {b} out of range");
        self.branch_currents[k * self.branches + b]
    }

    /// Extracts one node's waveform.
    pub fn node_waveform(&self, node: usize) -> Vec<f64> {
        (0..self.time.len())
            .map(|k| self.voltage(k, node))
            .collect()
    }

    /// Extracts one branch current's waveform.
    pub fn branch_waveform(&self, branch: usize) -> Vec<f64> {
        (0..self.time.len())
            .map(|k| self.branch_current(k, branch))
            .collect()
    }

    /// A result from per-time-point rows, one Newton iteration a step:
    /// synthetic waveforms for the measurement tests.
    #[cfg(test)]
    pub(crate) fn from_rows(time: Vec<f64>, voltages: &[Vec<f64>], currents: &[Vec<f64>]) -> Self {
        Self {
            newton_iterations: vec![1; time.len() - 1],
            time,
            nodes: voltages[0].len(),
            branches: currents[0].len(),
            voltages: voltages.concat(),
            branch_currents: currents.concat(),
        }
    }
}

/// A step count past this is a mistyped `dt`, not a run: each step
/// keeps its node voltages and branch currents, so the waveforms alone
/// would outgrow memory long before.
const MAX_STEPS: f64 = 1.0e9;

impl TransientSpec {
    /// The number of steps the spec takes.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidTransientSpec`] when `dt` is not finite and
    /// positive, `t_stop` is not finite or shorter than half a step, or
    /// the run would take more than [`MAX_STEPS`] steps.
    fn steps(&self) -> Result<usize, SpiceError> {
        let (dt, t_stop) = (self.dt, self.t_stop);
        let steps = (t_stop / dt).round();
        if !(dt.is_finite() && dt > 0.0 && t_stop.is_finite())
            || t_stop <= dt / 2.0
            || steps > MAX_STEPS
        {
            return Err(SpiceError::InvalidTransientSpec { dt, t_stop });
        }
        Ok(steps as usize)
    }
}

/// Runs a transient analysis. The initial condition is the DC operating
/// point with all waveforms evaluated at `t = 0`.
///
/// # Errors
///
/// Returns [`SpiceError::InvalidTransientSpec`] for a spec that cannot
/// run (see [`transient_from`]) before solving anything, and propagates
/// solver failures from the initial operating point or any time step.
pub fn transient(net: &Netlist, spec: TransientSpec) -> Result<TransientResult, SpiceError> {
    spec.steps()?;
    let op = crate::mna::dc_operating_point(net)?;
    transient_from(net, spec, &op)
}

/// Runs a transient analysis from a caller-provided initial operating
/// point (useful for warm-started parameter sweeps).
///
/// A completed run counts one `spice.tran.runs`, observes its step count
/// in `spice.tran.steps` and each step's Newton iterations in
/// `spice.newton.iterations`. Every run, completed or not, adds its LU
/// factorizations and MOSFET evaluations to `spice.lu.*` and
/// `spice.mos.*`. All of it is reported under one tracer lock when the
/// run ends, however many steps it took.
///
/// # Errors
///
/// Checked before anything is solved or allocated:
/// [`SpiceError::InvalidTransientSpec`] when the spec cannot produce at
/// least one time step (non-finite or non-positive `dt`, a non-finite
/// `t_stop` or one shorter than half a step) or asks for more than a
/// billion steps; [`SpiceError::InvalidNetlist`] for non-physical element
/// values; [`SpiceError::MismatchedInitialSolution`] when `initial` does
/// not hold one voltage per node and one current per voltage source.
/// Then propagates [`SpiceError`] from any time step.
pub fn transient_from(
    net: &Netlist,
    spec: TransientSpec,
    initial: &DcSolution,
) -> Result<TransientResult, SpiceError> {
    let steps = spec.steps()?;
    net.validate()?;
    check_initial_shape(net, initial)?;
    let mut solver = Solver::new(net);
    solver.load(initial);
    let result = integrate(&mut solver, spec, steps);
    let tally = &mut solver.work.tally;
    if let Ok(res) = &result {
        tally.tran_runs += 1;
        tally.tran_steps.push(res.newton_iterations.len() as f64);
        tally
            .newton_iterations
            .extend(res.newton_iterations.iter().map(|&n| n as f64));
    }
    tally.emit();
    result
}

/// The time-stepping loop behind [`transient_from`], from the solver's
/// loaded unknowns.
fn integrate(
    solver: &mut Solver<'_>,
    spec: TransientSpec,
    steps: usize,
) -> Result<TransientResult, SpiceError> {
    let (nodes, branches) = solver.shape();
    let mut res = TransientResult {
        time: Vec::with_capacity(steps + 1),
        voltages: Vec::with_capacity((steps + 1) * nodes),
        branch_currents: Vec::with_capacity((steps + 1) * branches),
        nodes,
        branches,
        newton_iterations: Vec::with_capacity(steps),
    };
    let mut push = |t: f64, solver: &Solver<'_>| {
        res.time.push(t);
        solver.append_point(&mut res.voltages, &mut res.branch_currents);
    };
    push(0.0, solver);

    let factor = match spec.method {
        Integrator::BackwardEuler => 1.0 / spec.dt,
        Integrator::Trapezoidal => 2.0 / spec.dt,
    };

    // Each capacitor's voltage and current at the last accepted point.
    let mut cap_v_prev: Vec<f64> = solver.capacitors().map(|(v, _)| v).collect();
    let mut cap_i_prev = vec![0.0; cap_v_prev.len()];
    for step in 1..=steps {
        let t = step as f64 * spec.dt;
        solver.time = t;
        let caps = CapMode::Companion {
            factor,
            v_prev: &cap_v_prev,
            i_prev: &cap_i_prev,
        };
        let iterations = solver.newton(caps)?;

        // Update capacitor history.
        for (k, (v_now, farads)) in solver.capacitors().enumerate() {
            // The companion residual is `g·(v − v_prev) − i_prev`.
            // Backward Euler has no current history (i_prev stays 0);
            // trapezoidal carries i_new = 2C/h·Δv − i_old.
            if spec.method == Integrator::Trapezoidal {
                cap_i_prev[k] = factor * farads * (v_now - cap_v_prev[k]) - cap_i_prev[k];
            }
            cap_v_prev[k] = v_now;
        }
        push(t, solver);
        res.newton_iterations.push(iterations);
    }
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Waveform;

    /// RC charging: v(t) = V·(1 − e^{−t/RC}).
    fn rc_circuit() -> (Netlist, usize) {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.vsource(
            "V1",
            a,
            Netlist::GROUND,
            Waveform::Pulse {
                v0: 0.0,
                v1: 1.0,
                delay: 0.0,
                rise: 1.0e-12,
                fall: 1.0e-12,
                width: 1.0,
                period: f64::INFINITY,
            },
        );
        net.resistor("R", a, b, 1_000.0);
        net.capacitor("C", b, Netlist::GROUND, 1.0e-9); // τ = 1 µs
        (net, b)
    }

    #[test]
    fn rc_step_response_trapezoidal() {
        let (net, out) = rc_circuit();
        let spec = TransientSpec::with_steps(5.0e-6, 500, Integrator::Trapezoidal);
        let res = transient(&net, spec).unwrap();
        let tau = 1.0e-6;
        for (k, &t) in res.time.iter().enumerate() {
            if t < 5.0e-8 {
                continue; // skip the source edge
            }
            let want = 1.0 - (-t / tau).exp();
            let got = res.voltage(k, out);
            assert!((got - want).abs() < 5e-3, "t={t:e}: got {got}, want {want}");
        }
    }

    #[test]
    fn rc_step_response_backward_euler() {
        let (net, out) = rc_circuit();
        let spec = TransientSpec::with_steps(5.0e-6, 2000, Integrator::BackwardEuler);
        let res = transient(&net, spec).unwrap();
        let last = res.voltage(res.time.len() - 1, out);
        assert!((last - (1.0 - (-5.0f64).exp())).abs() < 1e-2);
    }

    #[test]
    fn trapezoidal_beats_backward_euler_accuracy() {
        // Smooth ramp input (a step edge would alias by h/2 under the
        // trapezoidal rule): v_in = k·t, exact response
        // v(t) = k·(t − τ·(1 − e^{−t/τ})).
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.vsource(
            "V1",
            a,
            Netlist::GROUND,
            Waveform::Pwl(vec![(0.0, 0.0), (3.0e-6, 3.0)]),
        );
        net.resistor("R", a, b, 1_000.0);
        net.capacitor("C", b, Netlist::GROUND, 1.0e-9);
        let tau = 1.0e-6;
        let k = 1.0e6;
        let exact = |t: f64| k * (t - tau * (1.0 - (-t / tau).exp()));
        let err = |method| {
            let spec = TransientSpec::with_steps(3.0e-6, 150, method);
            let res = transient(&net, spec).unwrap();
            res.time
                .iter()
                .zip(res.node_waveform(b))
                .map(|(&t, v)| (v - exact(t)).abs())
                .fold(0.0f64, f64::max)
        };
        let e_trap = err(Integrator::Trapezoidal);
        let e_be = err(Integrator::BackwardEuler);
        assert!(
            e_trap < 0.2 * e_be,
            "trapezoidal {e_trap:e} should beat BE {e_be:e}"
        );
    }

    #[test]
    fn capacitor_blocks_dc_in_steady_state() {
        let (net, _) = rc_circuit();
        let spec = TransientSpec::with_steps(20.0e-6, 2000, Integrator::Trapezoidal);
        let res = transient(&net, spec).unwrap();
        // At 20 τ the branch current through the source is ~0.
        let i_last = res.branch_current(res.time.len() - 1, 0);
        assert!(i_last.abs() < 1e-8, "got {i_last}");
    }

    #[test]
    fn degenerate_transient_specs_are_typed_errors() {
        let (net, _) = rc_circuit();
        for (dt, t_stop) in [
            (0.0, 1.0e-6),
            (-1.0e-9, 1.0e-6),
            (f64::NAN, 1.0e-6),
            (1.0e-6, f64::INFINITY),
            (1.0e-6, 0.0),
        ] {
            let spec = TransientSpec {
                t_stop,
                dt,
                method: Integrator::Trapezoidal,
            };
            assert!(
                matches!(
                    transient(&net, spec),
                    Err(SpiceError::InvalidTransientSpec { .. })
                ),
                "dt={dt}, t_stop={t_stop} should be rejected"
            );
        }
    }

    /// The RC circuit's own DC operating point.
    fn rc_start() -> (Netlist, DcSolution) {
        let (net, _) = rc_circuit();
        let op = crate::mna::dc_operating_point(&net).expect("operating point");
        (net, op)
    }

    #[test]
    fn transient_from_rejects_a_degenerate_spec() {
        let (net, op) = rc_start();
        for (dt, t_stop) in [
            (0.0, 1.0e-6),
            (-1.0e-9, 1.0e-6),
            (f64::NAN, 1.0e-6),
            (f64::INFINITY, 1.0e-6),
            (1.0e-9, f64::NAN),
            (1.0e-300, 1.0e-6),
        ] {
            let spec = TransientSpec {
                t_stop,
                dt,
                method: Integrator::Trapezoidal,
            };
            assert!(
                matches!(
                    transient_from(&net, spec, &op),
                    Err(SpiceError::InvalidTransientSpec { dt: d, t_stop: t })
                        if d.to_bits() == dt.to_bits() && t.to_bits() == t_stop.to_bits()
                ),
                "dt={dt}, t_stop={t_stop} should be rejected"
            );
        }
    }

    #[test]
    fn transient_from_rejects_node_voltages_that_do_not_fit_the_netlist() {
        let (net, op) = rc_start();
        let spec = TransientSpec::with_steps(1.0e-6, 10, Integrator::Trapezoidal);
        for len in [0, 2, 4] {
            let initial = DcSolution {
                node_voltages: vec![0.0; len],
                ..op.clone()
            };
            assert_eq!(
                transient_from(&net, spec, &initial),
                Err(SpiceError::MismatchedInitialSolution {
                    given: (len, 1),
                    expected: (3, 1),
                })
            );
        }
    }

    #[test]
    fn transient_from_rejects_branch_currents_that_do_not_fit_the_netlist() {
        let (net, op) = rc_start();
        let spec = TransientSpec::with_steps(1.0e-6, 10, Integrator::Trapezoidal);
        for len in [2, 0] {
            let initial = DcSolution {
                branch_currents: vec![0.0; len],
                ..op.clone()
            };
            assert_eq!(
                transient_from(&net, spec, &initial),
                Err(SpiceError::MismatchedInitialSolution {
                    given: (3, len),
                    expected: (3, 1),
                })
            );
        }
    }

    #[test]
    fn transient_from_rejects_an_invalid_netlist() {
        let (net, op) = rc_start();
        let mut bad = net.clone();
        bad.isource("I1", Netlist::GROUND, 1, Waveform::Dc(f64::NAN));
        let spec = TransientSpec::with_steps(1.0e-6, 10, Integrator::Trapezoidal);
        assert!(matches!(
            transient_from(&bad, spec, &op),
            Err(SpiceError::InvalidNetlist { element, .. }) if element == "I1"
        ));
    }

    #[test]
    fn node_and_branch_waveform_extraction() {
        let (net, out) = rc_circuit();
        let spec = TransientSpec::with_steps(1.0e-6, 100, Integrator::Trapezoidal);
        let res = transient(&net, spec).unwrap();
        assert_eq!(res.node_waveform(out).len(), res.time.len());
        assert_eq!(res.branch_waveform(0).len(), res.time.len());
    }
}
