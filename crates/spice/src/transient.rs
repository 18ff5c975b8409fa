//! Transient analysis: fixed-step backward-Euler or trapezoidal
//! integration with capacitor companion models and a Newton solve per
//! time point.

use crate::mna::{CapMode, DcSolution, Solver, SpiceError};
use crate::netlist::{Element, Netlist};

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

/// Sampled transient waveforms.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    /// Time points (the first entry is `t = 0`).
    pub time: Vec<f64>,
    /// Node voltages per time point (`voltages[k][node]`).
    pub voltages: Vec<Vec<f64>>,
    /// Voltage-source branch currents per time point, netlist order.
    pub branch_currents: Vec<Vec<f64>>,
    /// Newton iterations consumed per time step (one entry per step, so
    /// `newton_iterations.len() == time.len() - 1`) — the raw material
    /// for solver-effort histograms.
    pub newton_iterations: Vec<usize>,
}

impl TransientResult {
    /// Extracts one node's waveform.
    pub fn node_waveform(&self, node: usize) -> Vec<f64> {
        self.voltages.iter().map(|v| v[node]).collect()
    }

    /// Extracts one branch current's waveform.
    pub fn branch_waveform(&self, branch: usize) -> Vec<f64> {
        self.branch_currents.iter().map(|v| v[branch]).collect()
    }
}

/// Runs a transient analysis. The initial condition is the DC operating
/// point with all waveforms evaluated at `t = 0`.
///
/// # Errors
///
/// Returns [`SpiceError::InvalidTransientSpec`] when the spec cannot
/// produce at least one time step (non-finite or non-positive `dt`, or a
/// `t_stop` shorter than half a step), and propagates solver failures
/// from the initial operating point or any time step.
pub fn transient(net: &Netlist, spec: TransientSpec) -> Result<TransientResult, SpiceError> {
    if !(spec.dt.is_finite() && spec.t_stop.is_finite())
        || spec.dt <= 0.0
        || spec.t_stop <= spec.dt / 2.0
    {
        return Err(SpiceError::InvalidTransientSpec {
            dt: spec.dt,
            t_stop: spec.t_stop,
        });
    }
    net.validate()?;
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
/// Propagates [`SpiceError`] from any time step.
pub fn transient_from(
    net: &Netlist,
    spec: TransientSpec,
    initial: &DcSolution,
) -> Result<TransientResult, SpiceError> {
    let mut solver = Solver::new(net);
    let result = integrate(&mut solver, net, spec, initial);
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

/// The time-stepping loop behind [`transient_from`].
fn integrate(
    solver: &mut Solver<'_>,
    net: &Netlist,
    spec: TransientSpec,
    initial: &DcSolution,
) -> Result<TransientResult, SpiceError> {
    let n_v = net.node_count() - 1;
    let dim = solver.dim();

    let mut x = vec![0.0; dim];
    x[..n_v].copy_from_slice(&initial.node_voltages[1..]);
    for (i, &b) in initial.branch_currents.iter().enumerate() {
        x[n_v + i] = b;
    }

    let n_caps = solver.cap_count();
    let mut cap_i_prev = vec![0.0; n_caps];

    let steps = (spec.t_stop / spec.dt).round() as usize;
    let mut time = Vec::with_capacity(steps + 1);
    let mut voltages = Vec::with_capacity(steps + 1);
    let mut branches = Vec::with_capacity(steps + 1);
    let mut newton_iterations = Vec::with_capacity(steps);

    let push = |t: f64,
                x: &[f64],
                time: &mut Vec<f64>,
                voltages: &mut Vec<Vec<f64>>,
                branches: &mut Vec<Vec<f64>>| {
        time.push(t);
        let mut v = Vec::with_capacity(n_v + 1);
        v.push(0.0);
        v.extend_from_slice(&x[..n_v]);
        voltages.push(v);
        branches.push(x[n_v..].to_vec());
    };
    push(0.0, &x, &mut time, &mut voltages, &mut branches);

    let factor = match spec.method {
        Integrator::BackwardEuler => 1.0 / spec.dt,
        Integrator::Trapezoidal => 2.0 / spec.dt,
    };

    let mut v_prev: Vec<f64> = x[..n_v].to_vec();
    for step in 1..=steps {
        let t = step as f64 * spec.dt;
        solver.time = t;
        let caps = CapMode::Companion {
            factor,
            v_prev: &v_prev,
            i_prev: &cap_i_prev,
        };
        let (x_new, iters) = solver.newton(x, caps)?;
        x = x_new;
        newton_iterations.push(iters);

        // Update capacitor history currents.
        let mut cap_idx = 0usize;
        for named in net.elements() {
            if let Element::Capacitor { a, b, farads } = &named.element {
                let v_now = node_v(&x, n_v, *a) - node_v(&x, n_v, *b);
                let v_old = node_v_prev(&v_prev, *a) - node_v_prev(&v_prev, *b);
                // The companion residual is `g·(v − v_prev) − i_prev`.
                // Backward Euler has no current history (i_prev stays 0);
                // trapezoidal carries i_new = 2C/h·Δv − i_old.
                if spec.method == Integrator::Trapezoidal {
                    cap_i_prev[cap_idx] = factor * farads * (v_now - v_old) - cap_i_prev[cap_idx];
                }
                cap_idx += 1;
            }
        }
        v_prev.copy_from_slice(&x[..n_v]);
        push(t, &x, &mut time, &mut voltages, &mut branches);
    }

    Ok(TransientResult {
        time,
        voltages,
        branch_currents: branches,
        newton_iterations,
    })
}

#[inline]
fn node_v(x: &[f64], n_v: usize, node: usize) -> f64 {
    debug_assert!(node == 0 || node - 1 < n_v);
    if node == 0 {
        0.0
    } else {
        x[node - 1]
    }
}

#[inline]
fn node_v_prev(v_prev: &[f64], node: usize) -> f64 {
    if node == 0 {
        0.0
    } else {
        v_prev[node - 1]
    }
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
            let got = res.voltages[k][out];
            assert!((got - want).abs() < 5e-3, "t={t:e}: got {got}, want {want}");
        }
    }

    #[test]
    fn rc_step_response_backward_euler() {
        let (net, out) = rc_circuit();
        let spec = TransientSpec::with_steps(5.0e-6, 2000, Integrator::BackwardEuler);
        let res = transient(&net, spec).unwrap();
        let last = *res.voltages.last().unwrap().get(out).unwrap();
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
                .zip(&res.voltages)
                .map(|(&t, v)| (v[b] - exact(t)).abs())
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
        let i_last = res.branch_currents.last().unwrap()[0];
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

    #[test]
    fn node_and_branch_waveform_extraction() {
        let (net, out) = rc_circuit();
        let spec = TransientSpec::with_steps(1.0e-6, 100, Integrator::Trapezoidal);
        let res = transient(&net, spec).unwrap();
        assert_eq!(res.node_waveform(out).len(), res.time.len());
        assert_eq!(res.branch_waveform(0).len(), res.time.len());
    }
}
